"""simlint's vocabulary: findings, suppressions, file discovery and scoping.

Everything here is what the rest of :mod:`repro.analysis` agrees on:
what a :class:`Finding` is and how reports order it, which comment
waives one, which files a path argument names, and which package-
relative path a rule scopes on.  The loader that reads and parses files
is :func:`repro.analysis.symbols.load_modules`; the driver that runs
rules over them (``lint_source`` / ``lint_file`` / ``lint_paths`` /
``analyze_project``) is :mod:`repro.analysis.project`.  The static
passes import only the standard library and :mod:`repro.analysis`
(importing the package itself still imports ``repro``, hence numpy).

**Suppressions.** A finding is discarded when any physical line spanned
by the flagged statement carries a comment of the form::

    do_something()  # simlint: disable=RULE
    other_thing()   # simlint: disable=rule-a,rule-b  (optional reason)
    anything()      # simlint: disable=all

The rule list is comma-separated rule ids; ``all`` suppresses every
rule on that line.  Suppressions are intentionally per-line — there is
no file-level or block-level escape hatch, so every waiver is visible
next to the code it excuses.

**Module-relative paths.** Rules scope themselves by where a file sits
in the package (``engine/…``, ``datacenter/…``, ``tests/…``).  The
linter derives that relative path from the filesystem path: everything
after the last ``/repro/`` segment for library code, ``tests/…`` for
the test tree, and the bare filename otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class LintError(RuntimeError):
    """Raised for unusable inputs (missing paths, unreadable files)."""


#: Matches ``# simlint: disable=rule-a,rule-b`` anywhere in a line.
_SUPPRESSION = re.compile(
    r"#\s*simlint:\s*disable=([a-zA-Z0-9_\-]+(?:\s*,\s*[a-zA-Z0-9_\-]+)*)"
)


#: Finding severities, most severe first.  ``error`` findings gate CI;
#: ``warning`` findings flag probable-but-unproven hazards; ``note``
#: findings are informational forecasts (e.g. fastpath eligibility).
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str  # as given by the caller (display path)
    line: int
    col: int
    message: str
    end_line: int = 0  # last physical line of the flagged statement
    severity: str = "error"

    def location(self) -> str:
        """``path:line:col`` rendering used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"

    def report_line(self) -> str:
        """``path:line:col: severity: rule: message``: a text report's row."""
        return (
            f"{self.location()}: {self.severity}: {self.rule}: {self.message}"
        )

    def sort_key(self) -> tuple:
        """The canonical report order: (path, line, col, rule)."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        """JSON-safe form for ``--format json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


def relative_module_path(path: Path) -> str:
    """Package-relative path used for rule scoping (see module docstring)."""
    posix = path.as_posix()
    marker = "/repro/"
    index = posix.rfind(marker)
    if index >= 0:
        return posix[index + len(marker):]
    test_marker = "/tests/"
    index = posix.rfind(test_marker)
    if index >= 0:
        return "tests/" + posix[index + len(test_marker):]
    if posix.startswith("tests/"):
        return posix
    return path.name


def suppressed_rules(lines: Sequence[str], start: int, end: int) -> set:
    """Rule ids suppressed on any physical line in [start, end] (1-based)."""
    ids: set = set()
    for line_number in range(max(1, start), min(len(lines), end) + 1):
        match = _SUPPRESSION.search(lines[line_number - 1])
        if match:
            ids.update(
                part.strip() for part in match.group(1).split(",")
            )
    return ids


def iter_python_files(paths: Iterable) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            yield path
        else:
            raise LintError(f"no such file or directory: {path}")

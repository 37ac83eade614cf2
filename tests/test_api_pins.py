"""Pinned public signatures of ``repro``.

``tests/fixtures/api_pins.json`` maps every callable a package of
``repro`` exports (each name in its lazy export table, and each public
method of an exported class) to its parameter list: names, kinds and
defaults, without annotations.  A literal default is recorded as its
``repr``; any other default by its type name in angle brackets
(``<function>``), and a dataclass field's ``default_factory`` as
``<factory>``.  A class's own entry is its constructor, when a
``repro`` class defines one.

A new parameter, a dropped one or a changed default then shows up as a
reviewed diff of the fixture rather than slipping in unseen.  Re-record
only on purpose, with ``PYTHONPATH=src python -m tests.test_api_pins``.
"""

import ast
import importlib
import inspect
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = ROOT / "tests" / "fixtures" / "api_pins.json"
PACKAGE_ROOT = ROOT / "src" / "repro"


def package_names():
    """``repro`` and every package under it."""
    return ["repro"] + sorted(
        f"repro.{entry}" for entry in os.listdir(PACKAGE_ROOT)
        if (PACKAGE_ROOT / entry / "__init__.py").is_file()
    )


def _default(value) -> str:
    if repr(value) == "<factory>":  # a dataclass field's default_factory
        return "<factory>"
    try:
        if ast.literal_eval(repr(value)) == value:
            return repr(value)
    except (ValueError, SyntaxError):
        pass
    return f"<{type(value).__name__}>"


def signature_text(function) -> str:
    """``function``'s parameters as one line: ``a, b=1, *, c=<type>``."""
    parts = []
    kind = None
    for parameter in inspect.signature(function).parameters.values():
        if kind is inspect.Parameter.POSITIONAL_ONLY and (
            parameter.kind is not kind
        ):
            parts.append("/")
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY and kind not in (
            inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.VAR_POSITIONAL
        ):
            parts.append("*")
        kind = parameter.kind
        text = {
            inspect.Parameter.VAR_POSITIONAL: "*",
            inspect.Parameter.VAR_KEYWORD: "**",
        }.get(kind, "") + parameter.name
        if parameter.default is not inspect.Parameter.empty:
            text += "=" + _default(parameter.default)
        parts.append(text)
    return ", ".join(parts)


def _own(owner, name):
    """The class of ``owner``'s MRO whose ``__dict__`` defines ``name``."""
    return next((c for c in owner.__mro__ if name in vars(c)), None)


def _is_ours(cls) -> bool:
    return cls is not None and cls.__module__.split(".")[0] == "repro"


def class_rows(exported, cls):
    """The constructor and public methods of one exported class."""
    rows = {}
    for hook in ("__init__", "__new__"):
        if _is_ours(_own(cls, hook)):
            rows[exported] = signature_text(vars(_own(cls, hook))[hook])
            break
    for name in sorted(dir(cls)):
        if name.startswith("_") or not _is_ours(_own(cls, name)):
            continue
        member = inspect.getattr_static(cls, name)
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            rows[f"{exported}.{name}"] = signature_text(member)
    return rows


def package_rows(package):
    """``{export or export.method: parameters}`` for one package."""
    module = importlib.import_module(package)
    rows = {}
    for name in sorted(module.__all__):
        value = getattr(module, name)
        if inspect.isclass(value):
            if _is_ours(value):
                rows.update(class_rows(name, value))
        elif inspect.isfunction(inspect.unwrap(value)):
            rows[name] = signature_text(inspect.unwrap(value))
    return rows


def record():
    """The whole pin document, as the current package produces it."""
    return {package: package_rows(package) for package in package_names()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text())


def test_every_package_is_pinned(pins):
    assert sorted(pins) == package_names()


@pytest.mark.parametrize("package", package_names())
def test_exported_signatures_match_the_pins(pins, package):
    assert package_rows(package) == pins[package]


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    PINS_FILE.write_text(json.dumps(record(), indent=1) + "\n")

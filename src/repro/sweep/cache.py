"""Content-addressed on-disk store for completed sweep points.

Every completed point is written under its content digest
(:meth:`repro.sweep.spec.SweepSpec.point_digest`), so a re-run after
editing one point recomputes only that point; everything else is served
from the store.  Entries are self-verifying: the file carries a
checksum over the canonical payload, and any mismatch — truncation,
bit rot, a partial write, a hand edit — is treated as a *miss* and the
point recomputed, never silently served.  Writes are atomic
(temp file + ``os.replace``) so a crash mid-write can only ever leave a
detectable-corrupt entry, not a plausible wrong one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.sweep.spec import SweepError, content_digest

#: Bumped when the entry layout changes; old entries become misses.
CACHE_FORMAT = 1


class CacheError(SweepError):
    """Raised for unusable cache roots (not for bad entries — those
    are recomputed)."""


class SweepCache:
    """A directory of self-verifying point results keyed by digest.

    ``hits`` / ``misses`` / ``corrupt`` count this instance's lookups;
    ``corrupt`` counts entries that existed but failed verification
    (each such lookup also counts as a miss — the caller recomputes).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(
                f"cannot create cache directory {self.root}: {error}"
            ) from error
        if not self.root.is_dir():
            raise CacheError(f"cache root {self.root} is not a directory")
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path(self, digest: str) -> Path:
        """Entry path for one digest (two-level fan-out)."""
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        """The verified payload for ``digest``, or None.

        Missing, unparsable, truncated, mislabeled, and
        checksum-mismatched entries all return None (the caller
        recomputes); only verification failures bump ``corrupt``.
        """
        path = self.path(digest)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
            if (
                entry["format"] != CACHE_FORMAT
                or entry["digest"] != digest
                or entry["checksum"] != content_digest(entry["payload"])
            ):
                raise ValueError("verification failed")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except (ValueError, KeyError, TypeError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, digest: str, payload: dict) -> Path:
        """Atomically write one entry; returns its path."""
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "digest": digest,
            "checksum": content_digest(payload),
            "payload": payload,
        }
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                json.dump(entry, tmp, sort_keys=True)
                tmp.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def evict(self, digest: str) -> bool:
        """Drop one entry; True if it existed."""
        try:
            self.path(digest).unlink()
            return True
        except FileNotFoundError:
            return False

    def __contains__(self, digest: str) -> bool:
        return self.path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

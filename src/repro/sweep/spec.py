"""SweepSpec: a named parameter grid over experiment factories.

Every figure in the paper is a *sweep* — a family of experiments over
load points, Cv values, or cluster sizes.  A :class:`SweepSpec` captures
one such family as plain data: what to build (a config document or a
module-level factory), which axes to vary, and the master seed from
which every point derives its own seed through the existing
:func:`repro.faults.recovery.derive_seed` lineage.

Three point kinds share the machinery:

``config``
    Each point is a ``repro.config`` experiment document: the axis
    values are applied onto ``base`` as dotted-path overrides
    (``"workload.load" = 0.5``) and the experiment is built with
    :func:`repro.config.build_experiment`.  This is the kind TOML/JSON
    spec files produce.
``factory``
    Each point calls a module-level ``factory(seed, **params) ->
    Experiment`` (referenced as ``"module:qualname"`` so it pickles
    across process boundaries) and runs it to convergence.
``task``
    Each point calls ``fn(seed, **params) -> dict`` and stores the
    returned JSON payload verbatim — for sweeps whose unit of work is
    not an experiment (e.g. regenerating Table 1's moment table).

Canonical ordering
------------------

Axes are enumerated in *sorted key order* and each axis's values in the
order given, so the point list — and therefore each point's index and
derived seed — is invariant under dict-key reordering in the spec
source.  The content digests (:func:`spec_digest`,
:func:`SweepSpec.point_digest`) canonicalize the same way, which is what
makes the sweep cache safe against TOML/JSON round-trips and key
shuffling while still changing under any *semantic* edit.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.engine.experiment import ENGINES
from repro.faults.recovery import SeedLineage
from repro.shape import checked

#: Spec kinds a sweep may declare.
POINT_KINDS = ("config", "factory", "task")

#: The sections of a spec document and the keys of its ``[sweep]`` head
#: (repro.shape hints), each the :class:`SweepSpec` field of its name.
_SECTIONS = {"sweep": dict, "base": dict, "factory_kwargs": dict,
             "axes": Dict[str, list], "grid": List[dict]}
_HEAD = {"name": str, "kind": str, "seed": int, "max_events": Optional[int],
         "factory": Optional[str], "engine": str}


class SweepError(ValueError):
    """Raised for malformed sweep specs or points."""


# -- canonicalization ---------------------------------------------------------


def canonical(value):
    """Reduce a value to JSON-safe plain data with deterministic shape.

    Dicts keep their (string) keys — ordering is handled by
    ``sort_keys`` at serialization time; tuples become lists; callables
    are identified by ``module:qualname`` (their code identity, the
    same reference the spec serializes).  Anything else non-JSON is
    rejected rather than silently repr'd into the digest.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                key = json.dumps(key)
            out[key] = canonical(item)
        return out
    if callable(value):
        return callable_ref(value)
    raise SweepError(
        f"value {value!r} ({type(value).__name__}) cannot be canonicalized"
    )


def canonical_json(value) -> str:
    """The canonical serialized form digests are computed over."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def content_digest(value) -> str:
    """BLAKE2 digest of the canonical form (the cache key primitive)."""
    return hashlib.blake2b(
        canonical_json(value).encode(), digest_size=16
    ).hexdigest()


def callable_ref(fn: Callable) -> str:
    """``module:qualname`` reference for a module-level callable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise SweepError(
            f"sweep factories must be module-level callables (picklable "
            f"and importable); got {fn!r}"
        )
    return f"{module}:{qualname}"


def resolve_callable(ref: Union[str, Callable]) -> Callable:
    """Inverse of :func:`callable_ref` (pass callables through)."""
    if callable(ref):
        return ref
    if not isinstance(ref, str) or ":" not in ref:
        raise SweepError(
            f"factory reference must be 'module:qualname', got {ref!r}"
        )
    module_name, _, qualname = ref.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError as error:
        raise SweepError(
            f"cannot import factory module {module_name!r}: {error}"
        ) from error
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise SweepError(
                f"module {module_name!r} has no attribute {qualname!r}"
            ) from None
    if not callable(target):
        raise SweepError(f"{ref!r} resolved to a non-callable")
    return target


def apply_params(base: dict, params: Dict[str, object]) -> dict:
    """Deep-copy ``base`` and apply dotted-path overrides.

    ``{"workload.load": 0.5}`` sets ``config["workload"]["load"]``,
    creating intermediate objects as needed.  A path that traverses a
    non-dict is an error — the override would silently vanish otherwise.
    """
    config = copy.deepcopy(base)
    for path, value in params.items():
        parts = path.split(".")
        node = config
        for part in parts[:-1]:
            if part not in node:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise SweepError(
                    f"axis {path!r} traverses non-object at {part!r}"
                )
        node[parts[-1]] = value
    return config


# -- points -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved point of a sweep."""

    index: int
    name: str
    params: Dict[str, object]
    seed: int

    def job_payload(self, spec: "SweepSpec") -> dict:
        """The picklable, JSON-safe work order executed for this point."""
        payload = {
            "kind": spec.kind,
            "params": canonical(self.params),
            "seed": self.seed,
            "max_events": spec.max_events,
        }
        # Included only when non-default so every pre-existing spec's
        # point digests (and therefore its sweep cache) stay valid.
        if spec.engine != "event":
            payload["engine"] = spec.engine
        if spec.kind == "config":
            payload["base"] = canonical(spec.base)
        else:
            payload["factory"] = spec.factory_ref
            payload["factory_kwargs"] = canonical(spec.factory_kwargs)
        return payload


def _point_name(params: Dict[str, object]) -> str:
    if not params:
        return "point"
    return ",".join(
        f"{key}={params[key]!r}" if isinstance(params[key], str)
        else f"{key}={params[key]}"
        for key in sorted(params)
    )


# -- the spec -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A named family of experiment (or task) points.

    Exactly one of ``axes`` (cartesian grid) or ``grid`` (explicit
    point list) describes the parameter space; ``base`` carries the
    shared config document (``config`` kind) and ``factory`` /
    ``factory_kwargs`` the shared callable (``factory`` / ``task``
    kinds).  ``seed`` is the sweep's master seed; each point draws
    ``derive_seed(seed, index)`` through a :class:`SeedLineage`, so
    points never share streams and the mapping matches the parallel
    master's historical slave-seed rule.
    """

    name: str
    kind: str = "config"
    seed: int = 0
    base: dict = field(default_factory=dict)
    factory: Optional[Union[str, Callable]] = None
    factory_kwargs: dict = field(default_factory=dict)
    axes: Dict[str, list] = field(default_factory=dict)
    grid: Tuple[dict, ...] = ()
    max_events: Optional[int] = None
    #: Simulation engine for experiment points ("event" | "auto" |
    #: "fastpath"); task-kind sweeps ignore it.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise SweepError(
                f"unknown sweep kind {self.kind!r}; expected {POINT_KINDS}"
            )
        if self.engine not in ENGINES:
            raise SweepError(
                f"unknown engine {self.engine!r}; expected {ENGINES}"
            )
        if not self.name:
            raise SweepError("sweep needs a non-empty name")
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.axes and self.grid:
            raise SweepError("declare either 'axes' or 'grid', not both")
        if not self.axes and not self.grid:
            raise SweepError("sweep needs a non-empty 'axes' or 'grid'")
        for axis, values in self.axes.items():
            if not values:
                raise SweepError(f"axis {axis!r} must be a non-empty list")
        if self.kind == "config":
            if self.factory is not None:
                raise SweepError("'config' sweeps take 'base', not 'factory'")
            if not self.base:
                raise SweepError("'config' sweeps need a 'base' document")
        elif self.factory is None:
            raise SweepError(f"{self.kind!r} sweeps need a 'factory'")

    # -- identity ------------------------------------------------------------

    @property
    def factory_ref(self) -> Optional[str]:
        """The ``module:qualname`` form of the factory (or None)."""
        if self.factory is None:
            return None
        if isinstance(self.factory, str):
            if ":" not in self.factory:
                raise SweepError(
                    f"factory reference must be 'module:qualname', "
                    f"got {self.factory!r}"
                )
            return self.factory
        return callable_ref(self.factory)

    def resolve_factory(self) -> Callable:
        """Import (or pass through) the factory callable."""
        if self.factory is None:
            raise SweepError(f"{self.kind!r} sweep has no factory")
        return resolve_callable(self.factory)

    def points(self) -> List[SweepPoint]:
        """The fully resolved point list in canonical order.

        Axes are walked in sorted-key order (see module docstring);
        explicit grids keep their declared order.  Seeds come from a
        fresh :class:`SeedLineage` so index collisions are impossible.
        """
        lineage = SeedLineage(self.seed)
        combos: List[Dict[str, object]]
        if self.grid:
            combos = [dict(entry) for entry in self.grid]
        else:
            names = sorted(self.axes)
            combos = [
                dict(zip(names, values))
                for values in itertools.product(
                    *(list(self.axes[name]) for name in names)
                )
            ]
        return [
            SweepPoint(
                index=index,
                name=_point_name(params),
                params=params,
                seed=lineage.issue(index),
            )
            for index, params in enumerate(combos)
        ]

    def point_digest(self, point: SweepPoint) -> str:
        """Content address of one point: everything that shapes its result.

        Covers the kind, the shared base/factory identity, the point's
        parameters, its derived seed, and the event budget — and nothing
        else.  Reordering keys, round-tripping the spec through
        TOML/JSON, renaming the sweep, or changing *other* points leaves
        it fixed; any semantic change to this point moves it.
        """
        return content_digest(point.job_payload(self))

    def digest(self) -> str:
        """Content address of the whole spec (all points + identity)."""
        return content_digest(
            {
                "kind": self.kind,
                "points": [
                    self.point_digest(point) for point in self.points()
                ],
            }
        )

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON/TOML-safe plain form (inverse of :meth:`from_dict`)."""
        payload = {
            "sweep": {
                "name": self.name,
                "kind": self.kind,
                "seed": self.seed,
            }
        }
        if self.max_events is not None:
            payload["sweep"]["max_events"] = self.max_events
        if self.engine != "event":
            payload["sweep"]["engine"] = self.engine
        if self.kind == "config":
            payload["base"] = canonical(self.base)
        else:
            payload["sweep"]["factory"] = self.factory_ref
            if self.factory_kwargs:
                payload["factory_kwargs"] = canonical(self.factory_kwargs)
        if self.grid:
            payload["grid"] = [canonical(entry) for entry in self.grid]
        else:
            payload["axes"] = canonical(self.axes)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Build a spec from the plain form TOML/JSON files decode to."""
        sections = checked(data, _SECTIONS, "", SweepError, {"sweep"})
        head = checked(sections.pop("sweep"), _HEAD, "sweep", SweepError, {"name"})
        return cls(**head, **sections)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        """Read a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        form, decode = "JSON", json.loads
        if path.suffix.lower() == ".toml":
            try:
                from tomllib import loads as decode
            except ImportError as error:  # Python < 3.11
                raise SweepError(
                    "TOML specs need Python 3.11+ (tomllib); "
                    "use the JSON spec form instead"
                ) from error
            form = "TOML"
        try:
            data = decode(path.read_text())
        except ValueError as error:  # not UTF-8, or not TOML/JSON
            raise SweepError(f"{path}: invalid {form}: {error}") from error
        return cls.from_dict(data)

    def __len__(self) -> int:
        return len(self.grid) or math.prod(map(len, self.axes.values()))

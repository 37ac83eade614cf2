"""Fold a cProfile result into per-layer self time.

A *layer* is one of the program's modules, named as the package names it:
``repro/datacenter/server.py`` is ``datacenter.server``.  Code the program
generates at run time (the fast path's unrolled kernels) belongs to the
module that generated it.  Everything else the profiler saw -- C built-ins,
numpy, the standard library -- is *foreign*: its self time is charged to
the layer that called it, through the caller edges ``pstats`` keeps, so
``heappush`` called from ``Server.arrive`` is ``datacenter.server`` time and
the same ``heappush`` called from ``Simulation.schedule_in`` is
``engine.simulation`` time.  The exception is a built-in that blocks
(``poll``, ``sleep``, ``waitpid``): that is time spent waiting for another
process, not work, and goes to the pseudo-layer ``wait`` whoever called it.
Foreign time no layer called (the harness's own frames) is ``other``.

The input is the plain ``pstats.Stats(...).stats`` dictionary::

    {(file, line, name): (primitive_calls, calls, self_s, cumulative_s,
                          {caller: (primitive_calls, calls, self_s,
                                    cumulative_s)})}

so the fold can be tested on a hand-written one.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

OTHER = "other"
WAIT = "wait"

_MODULE = re.compile(r"(?:^|[/\\])repro[/\\]((?:\w+[/\\])*\w+)\.py$")
_GENERATED = {"<fastpath-ggc-kernel": "engine.fastpath"}
_BLOCKING = re.compile(r"select\.|time\.sleep|posix\.waitpid")


def layer_of(func: tuple) -> Optional[str]:
    """The layer a profiled function belongs to, or None when foreign."""
    filename = func[0]
    match = _MODULE.search(filename)
    if match:
        parts = re.split(r"[/\\]", match.group(1))
        if parts[-1] == "__init__":
            parts = parts[:-1] or ["repro"]
        return ".".join(parts)
    for prefix, layer in _GENERATED.items():
        if filename.startswith(prefix):
            return layer
    return None


def fold(stats: dict) -> Dict[str, dict]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for one profile.

    ``calls`` counts calls of the layer's own functions (it repeats
    exactly for a seeded run); ``self_s`` adds the foreign time the layer
    called.  The ``self_s`` values sum to the profile's total self time.
    """
    layers: Dict[str, dict] = {}

    def add(layer: str, seconds: float, calls: int = 0) -> None:
        entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += seconds
        entry["calls"] += calls

    owners: Dict[tuple, Dict[str, float]] = {}

    def split(callers: dict, index: int) -> Dict[str, float]:
        """Shares of a foreign function's time per calling layer, weighted
        by field ``index`` of the caller edges (2 self, 3 cumulative)."""
        weights: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[index] if edge[index] > 0 else 1e-12
            layer = layer_of(caller)
            if layer is not None:
                weights[layer] = weights.get(layer, 0.0) + weight
                continue
            for name, share in owner_shares(caller).items():
                weights[name] = weights.get(name, 0.0) + weight * share
        total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        return {name: weight / total for name, weight in weights.items()}

    def owner_shares(func: tuple) -> Dict[str, float]:
        """Which layers stand behind a foreign caller: its own callers,
        by the cumulative time they spent in it.  A cycle of foreign
        functions is cut where it closes."""
        if func not in owners:
            owners[func] = {}  # cuts cycles while this one is worked out
            callers = stats[func][4] if func in stats else {}
            owners[func] = split(callers, 3)
        return owners[func]

    for func, (_, calls, self_s, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            add(layer, self_s, calls)
        elif _BLOCKING.search(func[2]):
            add(WAIT, self_s)
        else:
            # Each edge's self time says how much of this function's time
            # was spent on behalf of that caller.
            for name, share in split(callers, 2).items():
                add(name, self_s * share)
    return layers


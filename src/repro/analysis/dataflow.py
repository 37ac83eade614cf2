"""Cross-module RNG / wall-clock taint dataflow.

The determinism contract says every random draw flows from the
experiment seed and every timestamp flows from ``Simulation.now``.  The
per-file rules catch *creations* of illegal streams (``global-rng``,
``wall-clock``) in scoped directories; this pass catches what they
structurally cannot: a hazard created in one function or module and
*consumed* in another.

Taint sources
    - unseeded RNG construction: ``np.random.default_rng()`` /
      ``numpy.random.RandomState()`` / ``random.Random()`` with no
      arguments, and any draw from the stdlib ``random`` module stream;
    - host clock reads: ``time.time`` / ``time.time_ns`` /
      ``datetime.now`` and friends.

Propagation
    Through assignments, arithmetic, attribute access, function
    parameters, and return values — across function and module
    boundaries via per-function summaries iterated to a fixpoint, each
    callee resolved through
    :meth:`~repro.analysis.symbols.ProjectIndex.callee`.  Module-level
    bindings propagate too (a tainted module global read by an
    importing module stays tainted).

Sinks
    - sampling: ``.sample`` / ``.sample_many`` / ``.sample_block``;
    - event scheduling: ``.schedule`` / ``.schedule_at``;
    - statistics / merge: ``.observe`` / ``.observe_block`` /
      ``.merge`` / ``.merge_payload`` / ``.insert_block``;
    - seeding: a *clock*-tainted value used to seed any generator
      (``seeded_rng`` / ``default_rng(x)`` / ``RandomState(x)``) —
      host time laundered into a "seeded" stream is still host time.

A tainted value reaching a sink yields an ``rng-taint`` or
``clock-taint`` finding at the sink call site, with the origin
location in the message so the cross-module path is actionable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.analysis.linter import Finding
from repro.analysis.symbols import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
)

#: Fully-resolved callables that create an *unseeded* stream when
#: called with no arguments.
UNSEEDED_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: The stdlib ``random`` module: any draw is the hidden global stream.
GLOBAL_STREAM_PREFIX = "random."

#: Fully-resolved callables that read the host clock.
CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "time.monotonic",
        "time.monotonic_ns",
    }
)

#: Sink method names -> human description of the protected path.
SINK_METHODS = {
    "sample": "sampling",
    "sample_many": "sampling",
    "sample_block": "sampling",
    "schedule": "event-scheduling",
    "schedule_at": "event-scheduling",
    "observe": "statistics",
    "observe_block": "statistics",
    "merge": "merge",
    "merge_payload": "merge",
    "insert_block": "statistics",
}

#: Callables whose argument becomes a seed; clock taint here means the
#: "seeded" stream is actually keyed on host time.
SEED_CONSTRUCTORS = frozenset(
    {
        "seeded_rng",
        "default_rng",
        "RandomState",
        "derive_seed",
    }
)

#: Taint kinds and their rule ids.
RULE_FOR_KIND = {"rng": "rng-taint", "clock": "clock-taint"}

#: Fixpoint bound; summaries over acyclic call chains converge in the
#: chain depth, cycles in a handful more rounds.
MAX_ROUNDS = 12


@dataclass(frozen=True)
class Taint:
    """A concrete hazard value: what was created, and where."""

    kind: str  # "rng" | "clock"
    origin_path: str
    origin_line: int
    origin: str  # the expression that created it, e.g. "time.time()"


@dataclass(frozen=True)
class ParamTaint:
    """Summary placeholder: 'whatever flows into parameter i'."""

    index: int


TaintSet = FrozenSet[Union[Taint, ParamTaint]]
EMPTY: TaintSet = frozenset()


@dataclass
class Summary:
    """What one function does with taint, independent of call context."""

    #: taints always present in the return value.
    returns: TaintSet = EMPTY
    #: parameter indexes whose taint reaches the return value.
    returns_params: FrozenSet[int] = frozenset()
    #: parameter index -> sink description its value reaches.
    param_sinks: Tuple[Tuple[int, str], ...] = ()

    def key(self) -> tuple:
        return (self.returns, self.returns_params, self.param_sinks)


class TaintAnalysis:
    """Whole-program taint pass over a built project index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.summaries: Dict[str, Summary] = {}
        self.module_env: Dict[str, Dict[str, TaintSet]] = {}
        self.findings: List[Finding] = []
        self._reported: Set[tuple] = set()

    # -- name resolution ------------------------------------------------------

    def _resolved_call_name(
        self, module: ModuleInfo, func: ast.AST
    ) -> Optional[str]:
        name = dotted_name(func)
        if name is None:
            return None
        head, _, tail = name.partition(".")
        if head in module.imports:
            base = module.imports[head]
            return f"{base}.{tail}" if tail else base
        return name

    def _source_taint(
        self, module: ModuleInfo, node: ast.Call
    ) -> Optional[Taint]:
        resolved = self._resolved_call_name(module, node.func)
        if resolved is None:
            return None
        if resolved in CLOCK_SOURCES:
            return Taint(
                kind="clock",
                origin_path=module.path,
                origin_line=node.lineno,
                origin=f"{resolved}()",
            )
        if (
            resolved in UNSEEDED_CONSTRUCTORS
            and not node.args
            and not node.keywords
        ):
            return Taint(
                kind="rng",
                origin_path=module.path,
                origin_line=node.lineno,
                origin=f"{resolved}()",
            )
        if resolved.startswith(GLOBAL_STREAM_PREFIX) and resolved.count(
            "."
        ) == 1:
            # random.random(), random.randint(...), random.choice(...):
            # draws from the hidden global stream (random.Random with
            # args is handled above as a constructor).
            return Taint(
                kind="rng",
                origin_path=module.path,
                origin_line=node.lineno,
                origin=f"{resolved}()",
            )
        return None

    # -- findings -------------------------------------------------------------

    def _report(
        self,
        module: ModuleInfo,
        node: ast.AST,
        taint: Taint,
        sink_desc: str,
    ) -> None:
        rule = RULE_FOR_KIND[taint.kind]
        what = (
            "unseeded/global RNG"
            if taint.kind == "rng"
            else "host-clock value"
        )
        same_file = taint.origin_path == module.path
        origin = (
            f"line {taint.origin_line}"
            if same_file
            else f"{taint.origin_path}:{taint.origin_line}"
        )
        message = (
            f"{what} from {taint.origin} (created at {origin}) reaches "
            f"the {sink_desc} path; thread a seeded "
            f"numpy.random.Generator / simulated time instead"
        )
        key = (rule, module.path, node.lineno, node.col_offset, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(module.finding(rule, node, message))

    # -- expression evaluation ------------------------------------------------

    def _eval(
        self,
        module: ModuleInfo,
        info: Optional[FunctionInfo],
        node: ast.AST,
        env: Dict[str, TaintSet],
        collect: bool,
    ) -> TaintSet:
        """Taints carried by ``node``; optionally records sink findings."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            # A module global (possibly imported from elsewhere).
            return self._global_taint(module, node.id)
        if isinstance(node, ast.Call):
            return self._eval_call(module, info, node, env, collect)
        if isinstance(node, ast.Attribute):
            return self._eval(module, info, node.value, env, collect)
        result: Set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.operator, ast.cmpop, ast.boolop,
                                  ast.unaryop, ast.expr_context)):
                continue
            result |= self._eval(module, info, child, env, collect)
        return frozenset(result)

    def _global_taint(self, module: ModuleInfo, name: str) -> TaintSet:
        seen: Set[Tuple[str, str]] = set()
        current: Optional[Tuple[ModuleInfo, str]] = (module, name)
        while current is not None:
            mod, local = current
            if (mod.name, local) in seen:
                break
            seen.add((mod.name, local))
            env = self.module_env.get(mod.name, {})
            if local in env:
                return env[local]
            target = mod.imports.get(local)
            if target is None:
                break
            owner, _, attr = target.rpartition(".")
            owner_mod = self.index.modules.get(owner)
            if owner_mod is None or not attr:
                break
            current = (owner_mod, attr)
        return EMPTY

    def _eval_call(
        self,
        module: ModuleInfo,
        info: Optional[FunctionInfo],
        node: ast.Call,
        env: Dict[str, TaintSet],
        collect: bool,
    ) -> TaintSet:
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_taints = [
            self._eval(module, info, arg, env, collect) for arg in args
        ]
        source = self._source_taint(module, node)
        if source is not None:
            return frozenset({source})

        attr = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else (dotted_name(node.func) or "")
        )

        # Sink: a tainted value handed to a protected method.
        if collect and attr in SINK_METHODS:
            for taints in arg_taints:
                for taint in taints:
                    if isinstance(taint, Taint):
                        self._report(
                            module, node, taint, SINK_METHODS[attr]
                        )
        # Sink: host time laundered into a seed.
        if collect and attr.split(".")[-1] in SEED_CONSTRUCTORS:
            for taints in arg_taints:
                for taint in taints:
                    if isinstance(taint, Taint) and taint.kind == "clock":
                        self._report(module, node, taint, "seed-derivation")

        callee = self.index.callee(
            module, info.class_name if info is not None else None, node.func
        )
        if callee is not None:
            summary = self.summaries.get(callee.name, Summary())
            result: Set = set(
                t for t in summary.returns if isinstance(t, Taint)
            )
            # Map call arguments onto parameter indexes (methods: skip
            # the self slot for attribute-style calls).
            offset = 0
            if callee.is_method and isinstance(node.func, ast.Attribute):
                offset = 1
            positional = {
                i + offset: taints
                for i, taints in enumerate(arg_taints[: len(node.args)])
            }
            keyword = {}
            for kw, taints in zip(
                node.keywords, arg_taints[len(node.args):]
            ):
                if kw.arg and kw.arg in callee.params:
                    keyword[callee.params.index(kw.arg)] = taints
            by_index = {**positional, **keyword}
            for index in summary.returns_params:
                result |= {
                    t
                    for t in by_index.get(index, EMPTY)
                    if isinstance(t, Taint)
                } | {
                    t
                    for t in by_index.get(index, EMPTY)
                    if isinstance(t, ParamTaint)
                }
            if collect:
                for index, sink_desc in summary.param_sinks:
                    for taint in by_index.get(index, EMPTY):
                        if isinstance(taint, Taint):
                            self._report(module, node, taint, sink_desc)
            # Param placeholders flowing straight through:
            return frozenset(result)

        # Unknown callee: conservatively propagate argument taints
        # (float(t), math.floor(t), f-string building, …).
        result = set()
        for taints in arg_taints:
            result |= taints
        return frozenset(result)

    # -- per-function analysis ------------------------------------------------

    def _analyze_function(
        self, info: FunctionInfo, collect: bool
    ) -> Summary:
        module = self.index.modules[info.module]
        env: Dict[str, TaintSet] = {
            name: frozenset({ParamTaint(i)})
            for i, name in enumerate(info.params)
        }
        returns: Set = set()
        param_sinks: Dict[int, str] = {}

        def record_param_sink(taints: TaintSet, sink_desc: str) -> None:
            for taint in taints:
                if isinstance(taint, ParamTaint):
                    param_sinks.setdefault(taint.index, sink_desc)

        def walk(node: ast.AST) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return  # nested defs analyzed as their own functions
            if isinstance(node, ast.Assign):
                taints = self._eval(module, info, node.value, env, collect)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = taints
                self._scan_sinks(module, info, node.value, env,
                                 record_param_sink, collect)
                return
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                taints = self._eval(module, info, node.value, env, collect)
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = taints
                self._scan_sinks(module, info, node.value, env,
                                 record_param_sink, collect)
                return
            if isinstance(node, ast.AugAssign):
                taints = self._eval(module, info, node.value, env, collect)
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = env.get(
                        node.target.id, EMPTY
                    ) | taints
                self._scan_sinks(module, info, node.value, env,
                                 record_param_sink, collect)
                return
            if isinstance(node, ast.Return):
                if node.value is not None:
                    returns.update(
                        self._eval(module, info, node.value, env, collect)
                    )
                    self._scan_sinks(module, info, node.value, env,
                                     record_param_sink, collect)
                return
            if isinstance(node, ast.Expr):
                self._eval(module, info, node.value, env, collect)
                self._scan_sinks(module, info, node.value, env,
                                 record_param_sink, collect)
                return
            for child in ast.iter_child_nodes(node):
                walk(child)

        for stmt in info.node.body:
            walk(stmt)

        return Summary(
            returns=frozenset(
                t for t in returns if isinstance(t, Taint)
            ),
            returns_params=frozenset(
                t.index for t in returns if isinstance(t, ParamTaint)
            ),
            param_sinks=tuple(sorted(param_sinks.items())),
        )

    def _scan_sinks(
        self,
        module: ModuleInfo,
        info: FunctionInfo,
        expr: ast.AST,
        env: Dict[str, TaintSet],
        record_param_sink,
        collect: bool,
    ) -> None:
        """Record *parameter* flows into sinks for the summary."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else (dotted_name(node.func) or "")
            )
            args = list(node.args) + [kw.value for kw in node.keywords]
            if attr in SINK_METHODS:
                for arg in args:
                    record_param_sink(
                        self._eval(module, info, arg, env, False),
                        SINK_METHODS[attr],
                    )
            if attr.split(".")[-1] in SEED_CONSTRUCTORS:
                for arg in args:
                    taints = self._eval(module, info, arg, env, False)
                    record_param_sink(
                        frozenset(
                            t
                            for t in taints
                            if isinstance(t, ParamTaint)
                        ),
                        "seed-derivation",
                    )
            callee = self.index.callee(module, info.class_name, node.func)
            if callee is not None:
                summary = self.summaries.get(callee.name)
                if summary is None or not summary.param_sinks:
                    continue
                offset = (
                    1
                    if callee.is_method
                    and isinstance(node.func, ast.Attribute)
                    else 0
                )
                sinky = dict(summary.param_sinks)
                for i, arg in enumerate(node.args):
                    if i + offset in sinky:
                        record_param_sink(
                            self._eval(module, info, arg, env, False),
                            sinky[i + offset],
                        )
                for kw in node.keywords:
                    if kw.arg and kw.arg in callee.params:
                        index = callee.params.index(kw.arg)
                        if index in sinky:
                            record_param_sink(
                                self._eval(
                                    module, info, kw.value, env, False
                                ),
                                sinky[index],
                            )

    def _module_level_env(self, module: ModuleInfo) -> Dict[str, TaintSet]:
        env: Dict[str, TaintSet] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                taints = self._eval(module, None, stmt.value, env, False)
                if taints:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = taints
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                taints = self._eval(module, None, stmt.value, env, False)
                if taints and isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = taints
        return {k: v for k, v in env.items() if v}

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Iterate summaries to a fixpoint, then collect findings."""
        # Module-level bindings first (two rounds so cross-module
        # global-to-global references settle).
        for _ in range(2):
            for module in self.index.modules.values():
                self.module_env[module.name] = self._module_level_env(
                    module
                )
        functions = [
            info
            for info in self.index.functions.values()
            if "<locals>" not in info.name
        ]
        for _ in range(MAX_ROUNDS):
            changed = False
            for info in functions:
                summary = self._analyze_function(info, collect=False)
                previous = self.summaries.get(info.name)
                if previous is None or previous.key() != summary.key():
                    self.summaries[info.name] = summary
                    changed = True
            if not changed:
                break
        # Final pass with findings enabled.
        self.findings = []
        self._reported = set()
        for info in functions:
            self._analyze_function(info, collect=True)
        # Module-level sink calls (rare but legal):
        for module in self.index.modules.values():
            env = dict(self.module_env.get(module.name, {}))
            for stmt in module.tree.body:
                if isinstance(stmt, ast.Expr):
                    self._eval(module, None, stmt.value, env, True)
        self.findings.sort(key=Finding.sort_key)
        return self.findings


def analyze_taint(index: ProjectIndex) -> List[Finding]:
    """Run the cross-module taint pass; returns sorted findings."""
    return TaintAnalysis(index).run()

"""Parallel shared-state race detection.

The parallel protocol's correctness argument (docs/robustness.md) rests
on slaves sharing *nothing*: each slave rebuilds its experiment from a
config document under its own derived seed, and the only channel back
to the master is the pickled report.  Module-level mutable state breaks
that argument twice over — on the fork/serial backends it aliases
between "isolated" slaves, and under the ``spawn`` start method it
silently *doesn't*, so the two diverge.

This pass flags writes to module-level mutable state (and mutations of
closure-captured state) from any function reachable — per the
:mod:`~repro.analysis.callgraph` — from a slave/worker entry point:

- subscript stores / deletes on a module-level dict/list/set
  (``CACHE[key] = …``);
- mutating method calls (``.append`` / ``.update`` / ``.add`` /
  ``.pop`` / …) on a module-level mutable;
- rebinding a module global via ``global`` + assignment;
- attribute stores on an imported module (``othermod.STATE = …``);
- ``nonlocal`` rebinding of a name captured from an enclosing scope
  when the closure is worker-reachable.

Read-only access is fine (workers may consult registries built at
import time); only *mutation* from worker-reachable code fires.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.analysis.linter import Finding
from repro.analysis.symbols import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
)

RULE_ID = "shared-state-race"

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
        "__setitem__",
    }
)


def _local_bindings(node) -> Set[str]:
    """Names bound locally in a function (params, assignments, loops)."""
    bound: Set[str] = set(arg.arg for arg in node.args.args)
    bound.update(arg.arg for arg in node.args.kwonlyargs)
    if node.args.vararg:
        bound.add(node.args.vararg.arg)
    if node.args.kwarg:
        bound.add(node.args.kwarg.arg)
    declared_global: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                for name_node in ast.walk(target):
                    # Only actual binding stores: `x = …` binds x, but
                    # `x[k] = …` / `x.attr = …` leave x a free name.
                    if isinstance(name_node, ast.Name) and isinstance(
                        name_node.ctx, ast.Store
                    ):
                        bound.add(name_node.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(sub.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(sub, ast.With):
            for item in sub.items:
                if item.optional_vars is not None:
                    for name_node in ast.walk(item.optional_vars):
                        if isinstance(name_node, ast.Name):
                            bound.add(name_node.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if sub is not node:
                bound.add(sub.name)
    return bound - declared_global


class RaceDetector:
    """Flag worker-reachable mutation of shared module-level state."""

    def __init__(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        entries: Iterable[str],
    ) -> None:
        self.index = index
        self.entries = list(entries)
        self.reachable = graph.reachable(self.entries)
        self.findings: List[Finding] = []

    # -- helpers --------------------------------------------------------------

    def _entry_label(self) -> str:
        short = [name.rsplit(".", 1)[-1] for name in sorted(self.entries)]
        return "/".join(short) if short else "worker"

    def _finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> None:
        self.findings.append(module.finding(RULE_ID, node, message))

    def _shared_target(
        self, module: ModuleInfo, name: str, local: Set[str]
    ) -> Optional[str]:
        """Resolve ``name`` to a shared mutable global, if it is one.

        Returns a display label ``module.NAME`` or None.  Locals shadow
        globals; imported names resolve into the defining module.
        """
        if name in local:
            return None
        if name in module.mutable_globals:
            return f"{module.name}.{name}"
        target = module.imports.get(name)
        if target is not None:
            owner, _, attr = target.rpartition(".")
            owner_mod = self.index.modules.get(owner)
            if owner_mod is not None and attr in owner_mod.mutable_globals:
                return f"{owner_mod.name}.{attr}"
        return None

    def _resolve_mutable(
        self, module: ModuleInfo, base_name: str, local: Set[str]
    ) -> Optional[str]:
        """Resolve a (possibly dotted) base to a shared mutable label.

        Handles both ``CACHE[...]`` (a local/imported mutable global)
        and ``othermod.CACHE[...]`` (an attribute of an imported
        module, following import aliases to the defining module).
        """
        head, _, rest = base_name.partition(".")
        shared = self._shared_target(module, head, local)
        if shared is not None:
            return shared
        if not rest or head in local:
            return None
        imported = module.imports.get(head, head)
        owner = self.index.modules.get(imported)
        if owner is not None:
            attr = rest.split(".")[0]
            if attr in owner.mutable_globals:
                return f"{owner.name}.{attr}"
        return None

    # -- per-function scan ----------------------------------------------------

    def _scan_function(self, info: FunctionInfo) -> None:
        module = self.index.modules[info.module]
        node = info.node
        local = _local_bindings(node)
        declared_global: Set[str] = set()
        entry_label = self._entry_label()

        for sub in ast.walk(node):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and sub is not node:
                # Nested defs are scanned as their own call-graph nodes.
                continue
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, ast.Nonlocal):
                self._finding(
                    module,
                    sub,
                    f"nonlocal rebinding of {', '.join(sub.names)} in "
                    f"worker-reachable code (via {entry_label}); "
                    "closure state shared across slave invocations "
                    "breaks backend equivalence",
                )
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    self._check_store(
                        module, sub, target, local, declared_global,
                        entry_label,
                    )
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    self._check_store(
                        module, sub, target, local, declared_global,
                        entry_label,
                    )
            elif isinstance(sub, ast.Call):
                self._check_mutating_call(
                    module, sub, local, entry_label
                )

    def _check_store(
        self,
        module: ModuleInfo,
        stmt: ast.AST,
        target: ast.AST,
        local: Set[str],
        declared_global: Set[str],
        entry_label: str,
    ) -> None:
        # CACHE[key] = value  /  del CACHE[key]  /  CACHE[key] += 1
        if isinstance(target, ast.Subscript):
            base = target.value
            base_name = dotted_name(base)
            if base_name is None:
                return
            shared = self._resolve_mutable(module, base_name, local)
            if base_name.split(".")[0] in declared_global:
                shared = shared or f"{module.name}.{base_name}"
            if shared is not None:
                self._finding(
                    module,
                    stmt,
                    f"subscript store into module-level mutable "
                    f"`{shared}` from worker-reachable code (via "
                    f"{entry_label}); shared state diverges across "
                    "parallel backends",
                )
            return
        # global X; X = ...  — rebinding a module global from a worker.
        if isinstance(target, ast.Name) and target.id in declared_global:
            self._finding(
                module,
                stmt,
                f"worker-reachable rebinding of module global "
                f"`{module.name}.{target.id}` (via {entry_label}); "
                "slave-side writes to module state are invisible to "
                "other backends",
            )
            return
        # othermod.STATE = ...  — attribute store on an imported module.
        if isinstance(target, ast.Attribute):
            base_name = dotted_name(target.value)
            if base_name is None:
                return
            head = base_name.split(".")[0]
            if head in local or head == "self":
                return
            imported = module.imports.get(head)
            if imported is not None and imported in self.index.modules:
                self._finding(
                    module,
                    stmt,
                    f"attribute store `{base_name}.{target.attr} = …` "
                    f"mutates module `{imported}` from worker-reachable "
                    f"code (via {entry_label})",
                )

    def _check_mutating_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        local: Set[str],
        entry_label: str,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATING_METHODS:
            return
        base_name = dotted_name(func.value)
        if base_name is None:
            return
        shared = self._resolve_mutable(module, base_name, local)
        if shared is not None:
            self._finding(
                module,
                node,
                f"`.{func.attr}()` mutates module-level mutable "
                f"`{shared}` from worker-reachable code (via "
                f"{entry_label}); shared state diverges across "
                "parallel backends",
            )

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        for name in sorted(self.reachable):
            info = self.index.functions.get(name)
            if info is not None:
                self._scan_function(info)
        # Dedup (a nested def shares source lines with its parent scan).
        unique: Dict[tuple, Finding] = {}
        for finding in self.findings:
            unique[
                (finding.path, finding.line, finding.col, finding.message)
            ] = finding
        self.findings = sorted(unique.values(), key=Finding.sort_key)
        return self.findings


def analyze_races(
    index: ProjectIndex,
    graph: CallGraph,
    entries: Iterable[str],
) -> List[Finding]:
    """Run the shared-state race pass from the given worker entries."""
    return RaceDetector(index, graph, entries).run()

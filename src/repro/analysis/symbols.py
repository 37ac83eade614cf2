"""Project-wide symbol table for the whole-program analysis passes.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time, which is exactly the blind spot the bug classes this package
hunts live in: an unseeded generator constructed in one module and
*consumed* in another, a worker entry point in ``parallel/pool.py``
reaching a module-level dict defined three imports away.  This module
reads and parses every file once (:func:`load_modules`; the package's
only ``ast.parse`` is in :func:`parse_module`) into the
:class:`ModuleInfo` record that the per-file rules check and that the
:mod:`~repro.analysis.callgraph`, :mod:`~repro.analysis.dataflow`, and
:mod:`~repro.analysis.races` passes resolve names against:

- every module's dotted name (derived by walking up ``__init__.py``
  parents, so both ``src/repro`` and fixture packages index naturally);
- every function and method, keyed by its global qualified name
  ``module.dotted.Class.method``;
- every import binding (``alias -> fully.dotted.target``), including
  relative imports and the names a package exports lazily through the
  ``{name: module}`` table it hands ``repro._lazy_exports``;
- every module-level binding of a *mutable* value (dict/list/set/deque
  literals and constructor calls) — the shared-state candidates the
  race detector checks against worker-reachable code.

Like every static pass in the package, this imports only the standard
library and :mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.linter import (
    Finding,
    LintError,
    iter_python_files,
    relative_module_path,
)

#: Constructor names whose module-level result is mutable shared state.
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "defaultdict",
        "deque",
        "OrderedDict",
        "Counter",
    }
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks parent directories while they carry an ``__init__.py``, so
    ``src/repro/engine/simulation.py`` maps to
    ``repro.engine.simulation`` and a fixture package maps from its own
    root.  A free-standing file maps to its stem.
    """
    path = Path(path).resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition anywhere in the project."""

    name: str  # global qualified name: "pkg.mod.func" / "pkg.mod.Cls.meth"
    module: str  # dotted module name
    qualname: str  # module-local: "func" or "Cls.meth"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    params: List[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class definition: its methods and resolvable base names."""

    name: str  # global qualified name
    module: str
    local_name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # as written (dotted)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class MutableGlobal:
    """A module-level name bound to a mutable value."""

    module: str
    name: str
    node: ast.AST  # the binding statement
    kind: str  # "dict" / "list" / "set" / constructor name


@dataclass
class ModuleInfo:
    """One parsed module: what a rule checks and the passes resolve against."""

    name: str  # dotted module name
    path: str  # display path (as given by the caller)
    rel: str  # package-relative path used for scoping
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: every node of ``tree`` in ``ast.walk`` order, walked once.
    nodes: List[ast.AST] = field(default_factory=list)
    #: local alias -> fully dotted target ("np" -> "numpy",
    #: "derive_seed" -> "repro.faults.recovery.derive_seed").
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    mutable_globals: Dict[str, MutableGlobal] = field(default_factory=dict)
    #: every module-level assigned name (mutable or not), for shadowing.
    global_names: set = field(default_factory=set)

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule_id,
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            end_line=getattr(node, "end_lineno", line) or line,
            severity=severity,
        )


def _mutable_kind(value: ast.AST) -> Optional[str]:
    """The mutability class of a bound value, or None if immutable."""
    if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in MUTABLE_CONSTRUCTORS:
            return name
    return None


def _resolve_relative(module: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted form of a (possibly relative) ``from`` import."""
    if not node.level:
        return node.module
    parts = module.split(".")
    # level=1 from inside pkg.mod means pkg; __init__ modules already
    # dropped their suffix in module_name_for, so the same rule holds.
    if node.level > len(parts):
        return node.module
    base = parts[: len(parts) - node.level]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def parse_module(
    source: str, path: str, rel: str, name: Optional[str] = None
) -> ModuleInfo:
    """Parse one module's source into its :class:`ModuleInfo`."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        raise LintError(
            f"{path}:{error.lineno}: syntax error: {error.msg}"
        ) from error
    module = ModuleInfo(
        name=name or module_name_for(Path(path)),
        path=path,
        rel=rel,
        tree=tree,
        lines=source.splitlines(),
        nodes=list(ast.walk(tree)),
    )
    _index_imports(module)
    _index_definitions(module)
    _index_globals(module)
    return module


def load_modules(
    paths: Iterable, project_root: Optional[Path] = None
) -> Iterator[ModuleInfo]:
    """Read and parse every ``*.py`` file under ``paths``, once each.

    ``project_root``, when given, overrides the package-relative path
    computation: ``rel`` becomes the path relative to it.  Fixture
    corpora use this so a tree under ``tests/fixtures`` loads as
    library code rather than test code.
    """
    root = Path(project_root).resolve() if project_root is not None else None
    seen: set = set()
    for path in iter_python_files(paths):
        # Overlapping path arguments (e.g. `src src/repro`) must not
        # double-report a file.
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            source = path.read_text()
        except OSError as error:
            raise LintError(f"cannot read {path}: {error}") from error
        rel = (
            resolved.relative_to(root).as_posix()
            if root is not None
            else relative_module_path(path)
        )
        yield parse_module(source, str(path), rel)


def _index_imports(module: ModuleInfo) -> None:
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(
                    "."
                )[0]
                module.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            origin = _resolve_relative(module.name, node)
            if origin is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = f"{origin}.{alias.name}"
        elif (
            isinstance(node, ast.Call)
            and dotted_name(node.func) == "_lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            for key, value in zip(node.args[1].keys, node.args[1].values):
                if isinstance(key, ast.Constant) and isinstance(
                    value, ast.Constant
                ):
                    module.imports[key.value] = f"{value.value}.{key.value}"


def _index_definitions(module: ModuleInfo) -> None:
    def add_function(node, class_info: Optional[ClassInfo]) -> None:
        qual = (
            f"{class_info.local_name}.{node.name}"
            if class_info is not None
            else node.name
        )
        info = FunctionInfo(
            name=f"{module.name}.{qual}",
            module=module.name,
            qualname=qual,
            node=node,
            class_name=class_info.local_name if class_info else None,
            params=[arg.arg for arg in node.args.args],
        )
        module.functions[qual] = info
        if class_info is not None:
            class_info.methods[node.name] = info

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=f"{module.name}.{node.name}",
                module=module.name,
                local_name=node.name,
                node=node,
                bases=[
                    dotted_name(base)
                    for base in node.bases
                    if dotted_name(base) is not None
                ],
            )
            module.classes[node.name] = info
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(stmt, info)


def _index_globals(module: ModuleInfo) -> None:
    for node in module.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            module.global_names.add(target.id)
            kind = _mutable_kind(value)
            if kind is not None:
                module.mutable_globals[target.id] = MutableGlobal(
                    module=module.name,
                    name=target.id,
                    node=node,
                    kind=kind,
                )


class ProjectIndex:
    """The whole-program symbol table: every module and function by name."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # dotted name -> info
        self.functions: Dict[str, FunctionInfo] = {}  # global name -> info

    def add(self, module: ModuleInfo) -> None:
        self.modules[module.name] = module
        for info in module.functions.values():
            self.functions[info.name] = info

    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve a dotted name as written in ``module`` to a global name.

        Returns the fully qualified target (a key of :attr:`functions`,
        a module name, or a ``module.attr`` string), or None when the
        head of the chain is not a known local/import binding.
        """
        head, _, tail = dotted.partition(".")
        if head in module.functions and not tail:
            return module.functions[head].name
        if head in module.classes:
            target = module.classes[head].name
            return f"{target}.{tail}" if tail else target
        if head in module.imports:
            target = module.imports[head]
            return f"{target}.{tail}" if tail else target
        return None

    def callee(
        self, module: ModuleInfo, class_name: Optional[str], func: ast.AST
    ) -> Optional[FunctionInfo]:
        """The project function a call or reference through ``func`` reaches.

        ``func`` is the expression as written in ``module``, inside
        class ``class_name`` (None outside a class): ``self.method``
        resolves through the class's project-known MRO, anything else
        through :meth:`resolve` and :meth:`function_for`.  None when
        the AST alone cannot tell.
        """
        name = dotted_name(func)
        if name is None:
            return None
        head, _, attr = name.partition(".")
        if head == "self" and class_name is not None:
            if not attr or "." in attr:
                return None
            return self.mro_methods(module, class_name).get(attr)
        resolved = self.resolve(module, name)
        return self.function_for(resolved) if resolved is not None else None

    def function_for(self, global_name: str) -> Optional[FunctionInfo]:
        """Look up a function by global name, following import aliases.

        ``repro.faults.derive_seed`` resolves through the re-exporting
        package ``__init__`` to ``repro.faults.recovery.derive_seed``.
        """
        seen: set = set()
        name: Optional[str] = global_name
        while name is not None and name not in seen:
            seen.add(name)
            if name in self.functions:
                return self.functions[name]
            module_part, _, attr = name.rpartition(".")
            module = self.modules.get(module_part)
            if module is None or not attr:
                return None
            if attr in module.functions:
                return module.functions[attr]
            name = (
                f"{module.imports[attr]}" if attr in module.imports else None
            )
        return None

    def class_for(self, global_name: str) -> Optional[ClassInfo]:
        module_part, _, attr = global_name.rpartition(".")
        module = self.modules.get(module_part)
        if module is not None and attr in module.classes:
            return module.classes[attr]
        return None

    def mro_methods(
        self, module: ModuleInfo, class_name: str
    ) -> Dict[str, FunctionInfo]:
        """Methods visible on a class, following project-known bases."""
        methods: Dict[str, FunctionInfo] = {}
        stack: List[Tuple[ModuleInfo, str]] = [(module, class_name)]
        visited: set = set()
        while stack:
            mod, name = stack.pop()
            info = mod.classes.get(name)
            if info is None or info.name in visited:
                continue
            visited.add(info.name)
            for method_name, fn in info.methods.items():
                methods.setdefault(method_name, fn)
            for base in info.bases:
                resolved = self.resolve(mod, base)
                if resolved is None:
                    continue
                base_info = self.class_for(resolved)
                if base_info is not None:
                    stack.append(
                        (self.modules[base_info.module], base_info.local_name)
                    )
        return methods

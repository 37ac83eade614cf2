"""The simlint rule registry.

Each rule is a tiny object: an ``id`` (the name used in
``# simlint: disable=…`` suppressions and ``--select``/``--disable``),
a one-line ``summary`` shown by ``--list-rules``, an ``applies(ctx)``
path filter, and a ``check(ctx)`` generator yielding findings.  ``ctx``
is the module's :class:`~repro.analysis.symbols.ModuleInfo` — the same
record the whole-program passes index — and ``ctx.finding(...)`` is the
one constructor every finding anchored in source goes through.

Adding a rule is three steps (see docs/analysis.md for a worked
example):

1. subclass :class:`Rule`, set ``id`` and ``summary``, implement
   ``check`` (and ``applies`` if the rule is path-scoped);
2. decorate the class with :func:`register_rule`;
3. add seeded positive/negative cases to ``tests/test_simlint.py``.

The rules below encode the determinism invariants the simulator's
statistics rest on — see each rule's docstring for the failure mode it
prevents.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Set, Tuple

from repro.analysis.linter import Finding
from repro.analysis.symbols import ModuleInfo, dotted_name

#: Registry mapping rule id -> rule instance, in registration order.
RULES: Dict[str, "Rule"] = {}


def register_rule(cls):
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} must define a non-empty id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


class Rule:
    """Base class for simlint rules."""

    id: str = ""
    summary: str = ""

    def applies(self, ctx: ModuleInfo) -> bool:
        """Whether this rule runs on the module at ``ctx.rel``."""
        return True

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def lexical_loops(
    nodes: Iterable[ast.AST], in_loop: bool = False, guards: Tuple = ()
) -> Iterator[Tuple[ast.AST, bool, Tuple, bool]]:
    """Walk statements, tracking "lexically inside a loop".

    Yields ``(node, in_loop, guards, header)`` for every simple
    statement and every header expression of a compound one: ``guards``
    are the tests of the enclosing ``if`` statements (either branch: a
    lexical walk cannot tell ``if x:`` from ``if not x: ... else:``),
    ``header`` marks a loop's iterable / test or a ``with`` item, which
    run in the *enclosing* context.  A nested def or class is a fresh
    scope: where it is *called* from decides its hotness, which a
    lexical walk cannot see.
    """
    for node in nodes:
        if isinstance(node, _SCOPES):
            yield from lexical_loops(node.body)
        elif isinstance(node, _LOOPS):
            header = node.test if isinstance(node, ast.While) else node.iter
            yield header, in_loop, guards, True
            yield from lexical_loops(node.body + node.orelse, True, guards)
        elif isinstance(node, ast.If):
            yield node.test, in_loop, guards, False
            yield from lexical_loops(
                node.body + node.orelse, in_loop, guards + (node.test,)
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                yield item.context_expr, in_loop, guards, True
            yield from lexical_loops(node.body, in_loop, guards)
        elif isinstance(node, ast.Try):
            blocks = [node.body, *(h.body for h in node.handlers),
                      node.orelse, node.finalbody]
            for block in blocks:
                yield from lexical_loops(block, in_loop, guards)
        else:
            yield node, in_loop, guards, False


@register_rule
class GlobalRngRule(Rule):
    """No global RNG: all randomness must flow through spawned Generators.

    ``import random`` and module-level ``np.random.*`` calls (including
    bare ``np.random.default_rng()``) create random streams outside the
    experiment's :meth:`Simulation.spawn_rng` seed plumbing, so adding a
    component silently perturbs every other component's draws and runs
    stop being reproducible from the experiment seed.  The sanctioned
    constructors live in ``engine/simulation.py`` (the whitelist);
    everything else must accept a ``numpy.random.Generator``.

    Scope: library code only — test modules legitimately construct
    fixed-seed generators to drive units under test.  Re-wrapping an
    existing bit generator (``np.random.Generator(bit_gen)``) is allowed
    everywhere: it introduces no new entropy source.
    """

    id = "global-rng"
    summary = (
        "no `import random` / module-level np.random.* calls outside the "
        "seed-plumbing whitelist (engine/simulation.py)"
    )

    #: Files allowed to construct generators from raw seeds.
    whitelist = ("engine/simulation.py",)

    #: np.random attributes that are not entropy sources.
    allowed_calls = ("Generator",)

    def applies(self, ctx: ModuleInfo) -> bool:
        return (
            not ctx.rel.startswith("tests/")
            and ctx.rel not in self.whitelist
        )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield ctx.finding(
                            self.id,
                            node,
                            "stdlib `random` is a hidden global stream; "
                            "use the experiment's spawned "
                            "numpy.random.Generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.finding(
                        self.id,
                        node,
                        "stdlib `random` is a hidden global stream; "
                        "use the experiment's spawned "
                        "numpy.random.Generator",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if dotted.startswith(prefix):
                        attr = dotted[len(prefix):]
                        if attr.split(".")[0] in self.allowed_calls:
                            break
                        yield ctx.finding(
                            self.id,
                            node,
                            f"`{dotted}` constructs an ad-hoc random "
                            "stream; thread a seeded Generator (or "
                            "repro.engine.simulation.seeded_rng) instead",
                        )
                        break


@register_rule
class WallClockRule(Rule):
    """No wall-clock reads inside simulation hot paths.

    Inside ``engine/`` and ``datacenter/`` the only clock is
    ``Simulation.now``; a ``time.time()`` or ``datetime.now()`` read
    makes behaviour depend on host speed and breaks run-to-run
    reproducibility.  ``time.perf_counter`` stays legal: it is used to
    *measure* a run's wall time, never to drive simulated behaviour.
    """

    id = "wall-clock"
    summary = (
        "no wall-clock reads (time.time / datetime.now) inside engine/ "
        "or datacenter/"
    )

    banned = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "date.today",
        }
    )

    def applies(self, ctx: ModuleInfo) -> bool:
        return ctx.rel.startswith(("engine/", "datacenter/"))

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in self.banned:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"`{dotted}()` reads the wall clock in a "
                        "simulation hot path; simulated time must come "
                        "from Simulation.now",
                    )


@register_rule
class PrefetchContractRule(Rule):
    """Distribution subclasses overriding ``sample_many`` must be explicit.

    :class:`~repro.distributions.prefetch.PrefetchSampler` consults
    ``prefetch_safe`` to decide whether block draws may replace per-draw
    sampling.  A subclass that overrides ``sample_many`` but silently
    inherits ``prefetch_safe = True`` is asserting bit-identical
    generator consumption without anyone having thought about it — the
    exact bug class that silently changes seeded runs.  Such classes
    must (a) define both ``sample`` and ``sample_many`` and (b) declare
    ``prefetch_safe`` explicitly (class attribute or property), with a
    comment saying why the vectorized path is (or is not) draw-order
    identical.
    """

    id = "prefetch-contract"
    summary = (
        "Distribution subclasses overriding sample_many must define "
        "sample and declare prefetch_safe explicitly"
    )

    #: Class names treated as distribution roots when used as a base.
    known_bases = frozenset(
        {
            "Distribution",
            "Exponential",
            "Deterministic",
            "Uniform",
            "Gamma",
            "Erlang",
            "LogNormal",
            "Weibull",
            "BoundedPareto",
            "Pareto",
            "HyperExponential",
            "EmpiricalDistribution",
            "Scaled",
            "Shifted",
            "Truncated",
            "Mixture",
        }
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        classes = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        ]
        # Distribution-ness propagates through in-module inheritance:
        # iterate until the recognized set stops growing.
        recognized: Set[str] = set()
        grew = True
        while grew:
            grew = False
            for cls in classes:
                if cls.name in recognized:
                    continue
                base_names = {
                    dotted_name(base) for base in cls.bases
                } | {
                    base.id
                    for base in cls.bases
                    if isinstance(base, ast.Name)
                }
                if base_names & (self.known_bases | recognized):
                    recognized.add(cls.name)
                    grew = True
        for cls in classes:
            if cls.name not in recognized:
                continue
            methods = {
                stmt.name
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "sample_many" not in methods:
                continue
            declares = "prefetch_safe" in methods or any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(target, ast.Name)
                    and target.id == "prefetch_safe"
                    for target in stmt.targets
                )
                or (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "prefetch_safe"
                )
                for stmt in cls.body
            )
            if "sample" not in methods:
                yield ctx.finding(
                    self.id,
                    cls,
                    f"{cls.name} overrides sample_many without defining "
                    "sample; both halves of the draw contract are "
                    "required",
                )
            if not declares:
                yield ctx.finding(
                    self.id,
                    cls,
                    f"{cls.name} overrides sample_many but inherits "
                    "prefetch_safe implicitly; declare it explicitly "
                    "with a one-line why",
                )


@register_rule
class EventMutationRule(Rule):
    """Event records may only be mutated by the engine.

    An event record is a five-slot list ``[time, seq, callback, label,
    state]`` whose lifecycle (PENDING → CANCELLED/FIRED) is owned by
    ``engine/events.py``; the inlined event loop in
    ``engine/simulation.py`` is the one sanctioned fast path.  Any other
    code flipping record slots corrupts heap invariants (lazy-deletion
    accounting, cancellation safety) in ways that only surface as
    wrong statistics much later.
    """

    id = "event-mutation"
    summary = (
        "no mutation of event-record slots (EV_* / PENDING / CANCELLED "
        "/ FIRED) outside engine/events.py"
    )

    #: The engine files that own the record layout.
    whitelist = ("engine/events.py", "engine/simulation.py")

    state_names = frozenset({"PENDING", "CANCELLED", "FIRED"})

    def applies(self, ctx: ModuleInfo) -> bool:
        return ctx.rel not in self.whitelist

    def _is_event_subscript(self, target: ast.AST) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        index = target.slice
        return isinstance(index, ast.Name) and index.id.startswith("EV_")

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                hits = any(
                    self._is_event_subscript(target)
                    for target in node.targets
                )
                value_is_state = (
                    isinstance(node.value, ast.Name)
                    and node.value.id in self.state_names
                    and any(
                        isinstance(target, ast.Subscript)
                        for target in node.targets
                    )
                )
                if hits or value_is_state:
                    yield ctx.finding(
                        self.id,
                        node,
                        "event records may only be mutated inside "
                        "engine/events.py (use EventQueue.cancel)",
                    )
            elif isinstance(node, ast.AugAssign):
                if self._is_event_subscript(node.target):
                    yield ctx.finding(
                        self.id,
                        node,
                        "event records may only be mutated inside "
                        "engine/events.py (use EventQueue.cancel)",
                    )


@register_rule
class FloatTimeEqRule(Rule):
    """No float ``==`` on simulated-time expressions.

    Simulated timestamps are accumulated floats; exact equality between
    two computed times is true only by accident and silently stops
    being true when draw order, prefetching, or arithmetic
    associativity changes.  Compare with a tolerance
    (``pytest.approx`` / ``math.isclose``) or restructure the logic.
    ``== pytest.approx(...)`` is recognized and allowed.
    """

    id = "float-time-eq"
    summary = (
        "no float == / != on simulated-time expressions (now, "
        "arrival_time, start_time, finish_time, sim_time)"
    )

    time_terms = frozenset(
        {"now", "arrival_time", "start_time", "finish_time", "sim_time"}
    )

    def _time_like(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self.time_terms
        if isinstance(node, ast.Name):
            return node.id in self.time_terms
        return False

    def _tolerant(self, node: ast.AST) -> bool:
        """Comparand forms that make exact equality acceptable."""
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted and dotted.split(".")[-1] == "approx":
                return True
        return False

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                lhs, rhs = operands[index], operands[index + 1]
                pair = (lhs, rhs)
                if not any(self._time_like(side) for side in pair):
                    continue
                if any(self._tolerant(side) for side in pair):
                    continue
                yield ctx.finding(
                    self.id,
                    node,
                    "float equality on a simulated-time expression; "
                    "compare with a tolerance (pytest.approx / "
                    "math.isclose) or restructure",
                )


@register_rule
class TraceInHotLoopRule(Rule):
    """Tracer calls in hot loops must be guarded.

    The observability contract is "zero cost when disabled": components
    hold ``tracer = None`` and the event loop folds its emit threshold
    to ``+inf``, so an untraced run pays one comparison per event.  A
    tracer call placed *unguarded* inside a lexical loop in the
    simulation layers (``engine/``, ``datacenter/``, ``core/``) breaks
    that contract twice over — it either crashes on the None default or
    pays attribute-lookup + call overhead per iteration even when
    tracing is off.  Every in-loop emission must sit under an ``if``
    whose test mentions the tracer (``if tracer is not None:``,
    ``if self._tracer ...:``) or its ``enabled`` flag.

    The parallel master and the CLI are boundary layers and exempt:
    their loops run once per merge round, not once per simulated event.
    """

    id = "trace-in-hot-loop"
    summary = (
        "tracer calls inside engine/ datacenter/ core/ loops must be "
        "guarded by a tracer-None/.enabled check"
    )

    #: Variable/attribute names treated as tracer handles.
    tracer_names = frozenset({"tracer", "_tracer"})

    def applies(self, ctx: ModuleInfo) -> bool:
        return ctx.rel.startswith(("engine/", "datacenter/", "core/"))

    def _is_tracer_call(self, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        dotted = dotted_name(func.value)
        if dotted is None:
            return False
        return dotted.split(".")[-1] in self.tracer_names

    def _mentions_tracer(self, test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Name) and sub.id in self.tracer_names:
                return True
            if isinstance(sub, ast.Attribute) and (
                sub.attr in self.tracer_names or sub.attr == "enabled"
            ):
                return True
        return False

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node, in_loop, guards, _ in lexical_loops(ctx.tree.body):
            if not in_loop or any(map(self._mentions_tracer, guards)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and self._is_tracer_call(sub):
                    yield ctx.finding(
                        self.id,
                        sub,
                        "unguarded tracer call inside a loop in a "
                        "simulation layer; wrap it in `if <tracer> "
                        "is not None:` (zero-cost-when-disabled "
                        "contract)",
                    )


@register_rule
class SwallowExceptionRule(Rule):
    """No silently swallowed exceptions in the fault-handling layers.

    The fault-tolerance contract is that every slave death gets a cause
    code and every suppressed error leaves a trace (see
    docs/robustness.md).  A bare ``except:`` — or an over-broad
    ``except Exception`` / ``except BaseException`` — whose handler
    neither re-raises nor *uses* the caught exception turns a real
    failure (a crashed slave, a corrupt checkpoint, a broken pipe) into
    silence, which in this codebase means a statistically degraded run
    that looks healthy.  Narrow handlers (``except OSError: pass``
    around a best-effort close) stay legal: they suppress one
    anticipated failure, not "anything".

    Scope: ``parallel/`` and ``faults/`` — the layers whose whole job
    is attributing failures — plus ``sweep/`` (pool-worker recovery and
    point requeue logic) and ``engine/fastpath.py`` (the auto-engine
    fallback path), which carry the same must-attribute-failures
    contract.  A handler passes by doing any of: re-raising (bare or
    chained ``raise``), binding the exception (``as error``) and
    referencing it (recording it in a cause code, message, or trace),
    or narrowing the caught type.
    """

    id = "swallow-exception"
    summary = (
        "no bare/over-broad except blocks in parallel/, faults/, "
        "sweep/, or engine/fastpath.py that drop the exception without "
        "re-raising or recording it"
    )

    #: Catch types considered over-broad.
    broad = frozenset({"Exception", "BaseException"})

    def applies(self, ctx: ModuleInfo) -> bool:
        return (
            ctx.rel.startswith(("parallel/", "faults/", "sweep/"))
            or ctx.rel == "engine/fastpath.py"
        )

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:  # bare except:
            return True
        types = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            dotted = dotted_name(node)
            if dotted and dotted.split(".")[-1] in self.broad:
                return True
        return False

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        """Whether the handler re-raises or references the exception."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        if handler.name:
            for statement in handler.body:
                for node in ast.walk(statement):
                    if (
                        isinstance(node, ast.Name)
                        and node.id == handler.name
                    ):
                        return True
        return False

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._handles(node):
                continue
            what = (
                "a bare `except:`"
                if node.type is None
                else "an over-broad except"
            )
            yield ctx.finding(
                self.id,
                node,
                f"{what} swallows the exception without re-raising or "
                "recording it; narrow the type, or bind the exception "
                "and attribute it (cause code / trace / message)",
            )


@register_rule
class ScalarSampleLoopRule(Rule):
    """No per-draw ``dist.sample(rng)`` loops where block draws apply.

    Every ``Distribution`` exposes ``sample_block(rng, n)`` (and the
    draw-order-safe ``sample_many``), which amortizes Python dispatch
    across a whole numpy block — the difference between the event
    engine's ~600k events/s and the fastpath engine's tens of millions.
    A ``.sample(rng)`` call lexically inside a loop or comprehension
    re-pays that dispatch per draw; batch consumers should pull a block
    instead.

    Exemptions: ``self.sample(...)`` (a distribution's own per-draw
    fallback *is* the reference implementation the block contracts are
    defined against) and test modules (which legitimately drive scalar
    loops to cross-check the block paths).  Event-driven components that
    genuinely need one draw at a time (one per event) sample outside
    any lexical loop, so they do not trip this rule; a deliberate
    in-loop scalar draw takes a ``# simlint: disable=scalar-sample-loop``
    with a why.
    """

    id = "scalar-sample-loop"
    summary = (
        "no per-draw .sample(rng) calls inside loops/comprehensions; "
        "draw a block with sample_block/sample_many instead"
    )

    def applies(self, ctx: ModuleInfo) -> bool:
        return not ctx.rel.startswith("tests/")

    def _scalar_sample(self, node: ast.Call) -> bool:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "sample"):
            return False
        if not (node.args or node.keywords):
            # Zero-arg .sample() is some other API (e.g. random.sample
            # shadowing would be caught by global-rng anyway).
            return False
        # The per-draw fallback inside a distribution is the contract
        # reference, not a missed vectorization.
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            return False
        return True

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        def flagged(node: ast.AST) -> Iterator[Finding]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and self._scalar_sample(sub):
                    yield ctx.finding(
                        self.id,
                        sub,
                        "per-draw .sample(rng) inside a loop re-pays Python "
                        "dispatch per value; draw a block with "
                        "sample_block(rng, n) (or sample_many for draw-order "
                        "parity) and iterate the array",
                    )

        # Statements inside a lexical loop.  Loop iterables / tests and
        # `with` items are not scanned; a comprehension nested in a loop
        # body is, and is then reported again below.
        for node, in_loop, _, header in lexical_loops(ctx.tree.body):
            if in_loop and not header:
                yield from flagged(node)
        # A comprehension's element, iterables and conditions are
        # per-iteration by definition, loop or no loop.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.DictComp):
                parts = [node.key, node.value]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
            ):
                parts = [node.elt]
            else:
                continue
            parts += [comp.iter for comp in node.generators]
            parts += [cond for comp in node.generators for cond in comp.ifs]
            for part in parts:
                yield from flagged(part)


@register_rule
class ParallelLambdaRule(Rule):
    """No lambdas in objects crossing the pickled parallel protocol.

    The process backend ships factories, commands, and reports through
    ``multiprocessing`` pipes; lambdas are not picklable, so a lambda
    that reaches a pipe fails at runtime — and only on the process
    backend, which the serial-backend tests never exercise.  Inside
    ``parallel/`` every lambda is suspect; everywhere else, lambdas
    passed directly to a ``.send(...)`` call are flagged.
    """

    id = "parallel-lambda"
    summary = (
        "no lambdas inside parallel/ or in .send(...) payloads (they "
        "cannot cross the pickled protocol)"
    )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        if ctx.rel.startswith("parallel/"):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Lambda):
                    yield ctx.finding(
                        self.id,
                        node,
                        "lambda in the parallel package risks crossing "
                        "the pickled protocol; use a module-level "
                        "function",
                    )
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "send"):
                continue
            payload = list(node.args) + [kw.value for kw in node.keywords]
            for arg in payload:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        yield ctx.finding(
                            self.id,
                            sub,
                            "lambda inside a .send(...) payload cannot "
                            "be pickled across the parallel protocol",
                        )


@register_rule
class BlockingSleepInTransportRule(Rule):
    """No blocking ``time.sleep`` on transport or scheduling threads.

    A ``time.sleep`` inside ``parallel/`` freezes the thread that is
    supposed to be multiplexing workers: heartbeats stop being
    answered, injected-fault due-times slip, and a liveness monitor on
    the other side reads the stall as a dead link.  Waiting must ride a
    poll/wait timeout, a condition variable, an ``asyncio.sleep``, or a
    ``threading.Timer`` — anything that keeps the thread responsive.

    The handful of legitimate blocking waits (a respawn barrier with
    nothing else runnable, a worker-side injected hang where blocking
    *is* the fault) carry an explicit
    ``# simlint: disable=blocking-sleep-in-transport``.
    """

    id = "blocking-sleep-in-transport"
    summary = (
        "no blocking time.sleep in parallel/ (use poll timeouts, "
        "condition waits, or timers)"
    )

    def applies(self, ctx: ModuleInfo) -> bool:
        return ctx.rel.startswith("parallel/")

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) == "time.sleep"
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "`time.sleep()` blocks a transport/scheduling "
                    "thread; wait on a poll timeout, condition "
                    "variable, or timer instead",
                )

"""Command-line interface: ``python -m repro <command>``.

Mirrors how the original BigHouse was driven — configuration files plus
a launcher — without writing any Python:

- ``run <config.json>`` — build and run a configured experiment, print
  every metric's estimates;
- ``workloads`` — list the shipped Table-1 workload models;
- ``characterize <trace.txt>`` — distill a two-column
  ``arrival_time size`` trace into empirical distribution files (the
  Fig. 1 "offline benchmarking" path);
- ``theory mm1|mmk|mg1 ...`` — closed-form baselines for quick checks;
- ``sweep <spec.toml|spec.json>`` — run a whole parameter sweep over a
  persistent worker pool with content-addressed caching (see
  ``docs/sweeps.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union


def _config_factory(seed, config=None, **overrides):
    """Module-level (picklable) factory for ``repro run --parallel``.

    The process backend forks one replica per slave; each rebuilds the
    experiment from the same config document under its own seed.
    """
    from repro.config import build_experiment

    return build_experiment({**(config or {}), "seed": seed}, **overrides)


def _start_remote_transport(args):
    """Bring up the agent-registration server for ``--backend remote``.

    Prints the bound address to stderr (essential with ``--listen
    host:0``, where the OS picks the port the agents must dial).
    """
    from repro.parallel.transport import RemoteTransport, parse_address

    host, port = parse_address(args.listen)
    transport = RemoteTransport(
        host=host,
        port=port,
        key=args.transport_key,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
    )
    transport.start()
    print(
        f"repro: listening for agents on "
        f"{transport.address[0]}:{transport.address[1]} "
        f"(start them with 'repro agent "
        f"{transport.address[0]}:{transport.address[1]}')",
        file=sys.stderr,
    )
    return transport


def _build_supervision(args):
    """A SupervisionPolicy from --min-workers/--deadline/--on-degrade.

    Returns None when every flag is at its default, keeping the
    historical (policy-free) degradation semantics.
    """
    if (
        args.min_workers is None
        and args.deadline is None
        and args.on_degrade == "abort"
    ):
        return None
    from repro.faults import SupervisionPolicy

    return SupervisionPolicy(
        min_workers=args.min_workers if args.min_workers is not None else 1,
        deadline=args.deadline,
        on_exhausted=args.on_degrade,
    )


class _Need(NamedTuple):
    """A flag given (off its default), or given one of ``values``."""

    option: str
    values: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.values:
            return self.option
        return f"{self.option} {' or '.join(self.values)}"

    def holds(self, args) -> bool:
        dest = self.option[2:].replace("-", "_")
        if not hasattr(args, dest):
            # The command is always in that mode: a sweep is a fleet.
            return True
        value = getattr(args, dest)
        if self.values:
            return value in self.values
        return value != _per(_FLAG[self.option].default, args.command)


_PARALLEL = _Need("--parallel")
_REMOTE = _Need("--backend", ("remote",))
_LISTEN = _Need("--listen")
_RESPAWN = _Need("--respawn")
_CHECKPOINT = _Need("--checkpoint")
_POOL_OR_REMOTE = _Need("--backend", ("pool", "remote"))

#: The order needs are checked in; when several refusals apply, the
#: first need's wins, and among flags with the same need the first
#: declared.
_NEED_ORDER = (
    _PARALLEL, _REMOTE, _LISTEN, _RESPAWN, _CHECKPOINT, _POOL_OR_REMOTE,
)


class _Flag(NamedTuple):
    """One ``run``/``sweep`` option, declared once for both commands.

    ``help``, ``default`` and ``choices`` may be ``{command: value}``
    where the commands differ; a ``False`` default is a switch.  Each
    entry of ``needs`` is a :class:`_Need` the flag is read under, or a
    ``(subject, need)`` pair when only some of its values need it.
    """

    name: str
    help: Union[str, Dict[str, str]]
    default: Any = None
    type: Optional[Callable] = None
    metavar: Optional[str] = None
    choices: Any = None
    needs: tuple = ()

    def rules(self):
        """``(subject, need)`` for each thing the flag needs."""
        for need in self.needs:
            yield (_Need(self.name), need) if isinstance(need, _Need) else need


def _per(value, command: str):
    """``value``, or its entry for ``command`` if it differs by command."""
    return value[command] if isinstance(value, dict) else value


#: Every ``run``/``sweep`` option; those with needs in the order
#: :func:`_misused_flag` reads them.
_FLAGS = (
    _Flag("--backend",
          choices={"run": ("serial", "process", "remote"),
                   "sweep": ("pool", "serial", "remote")},
          default={"run": "serial", "sweep": "pool"},
          needs=(_PARALLEL, (_REMOTE, _LISTEN)), help={
              "run": "slave backend for --parallel (default: serial); remote "
                     "distributes slaves over 'repro agent' hosts and needs "
                     "--listen",
              "sweep": "pool = persistent workers (default); serial = one "
                       "worker in-process; remote = persistent workers on "
                       "'repro agent' hosts (needs --listen)",
          }),
    _Flag("--round-timeout", type=float, metavar="SECONDS", default=600.0,
          needs=(_PARALLEL,),
          help="per-round report deadline for the process backend; a silent "
               "slave is declared dead instead of stalling the master "
               "(default: 600)"),
    _Flag("--listen", metavar="HOST:PORT", needs=(_REMOTE,),
          help="agent-registration address for --backend remote (port 0 "
               "picks a free port, printed to stderr)"),
    _Flag("--transport-key", metavar="KEY", needs=(_REMOTE,),
          help="shared fleet key agents must present (--backend remote)"),
    _Flag("--heartbeat-interval", type=float, metavar="SECONDS",
          needs=(_REMOTE,),
          help="ping remote agents this often so a half-open link is "
               "declared dead after interval x misses seconds instead of "
               "the round timeout (--backend remote; default: off)"),
    _Flag("--heartbeat-misses", type=int, metavar="N", default=3,
          needs=(_REMOTE,),
          help="missed heartbeats before a silent link is closed with cause "
               "'liveness timeout' (default: 3)"),
    _Flag("--join-timeout", type=float, metavar="SECONDS", default=30.0,
          needs=(_PARALLEL, _REMOTE), help={
              "run": "how long to wait for an agent slot when spawning or "
                     "respawning a remote slave (default: 30)",
              "sweep": "how long an empty remote fleet waits for an agent to "
                       "(re)join before the sweep gives up (default: 30)",
          }),
    _Flag("--checkpoint-interval", type=int, metavar="ROUNDS", default=1,
          needs=(_PARALLEL, _CHECKPOINT),
          help="rounds between checkpoints (default: 1)"),
    _Flag("--chaos", metavar="PLAN", needs=(_PARALLEL,), help={
              "run": "inject a fault plan into a --parallel run: a JSON file "
                     "path or inline JSON; its frame kinds need --backend "
                     "remote (see docs/robustness.md)",
              "sweep": "inject a fault plan into the pool workers (JSON path "
                       "or inline); its frame kinds need --backend remote",
          }),
    _Flag("--respawn", default=False, needs=(_PARALLEL,), help={
              "run": "replace dead slaves (generation-aware seeds, "
                     "exponential backoff) instead of degrading the run",
              "sweep": "replace dead pool workers instead of degrading the "
                       "pool",
          }),
    _Flag("--checkpoint", metavar="PATH", needs=(_PARALLEL,),
          help="write a resumable snapshot to PATH every checkpoint interval"),
    _Flag("--resume", metavar="PATH", needs=(_PARALLEL,),
          help="resume a --parallel run from a checkpoint written by "
               "--checkpoint; the resumed run reproduces the uninterrupted "
               "result bit-for-bit"),
    _Flag("--min-workers", type=int, metavar="N", needs=(_PARALLEL,),
          help="fleet floor: when fewer workers can still contribute, abort "
               "with a typed cause (default) or press on with --on-degrade "
               "continue"),
    _Flag("--deadline", type=float, metavar="SECONDS", needs=(_PARALLEL,),
          help={
              "run": "wall-clock budget for the measurement phase; past it "
                     "the run aborts with a typed cause (default) or, with "
                     "--on-degrade continue, returns the merged-so-far "
                     "result flagged degraded",
              "sweep": "wall-clock budget for the whole sweep; past it the "
                       "sweep always aborts with a typed cause (a partial "
                       "sweep is not a meaningful result)",
          }),
    _Flag("--on-degrade", choices=("abort", "continue"), default="abort",
          needs=(_PARALLEL,),
          help="what a fleet below --min-workers does: abort with a "
               "machine-readable cause (default) or continue with the "
               "survivors and flag the result degraded"),
    _Flag("--max-restarts", type=int, metavar="N", default=2,
          needs=(_RESPAWN,), help={
              "run": "per-slave respawn budget for --respawn (default: 2)",
              "sweep": "per-worker respawn budget for --respawn (default: 2)",
          }),
    _Flag("--jobs", type=int, metavar="N", needs=(_POOL_OR_REMOTE,),
          help="persistent pool width (default: up to 4 workers)"),
    _Flag("--engine", choices=("event", "auto", "fastpath"),
          help="simulation engine: 'event' (default) is the discrete-event "
               "loop, 'fastpath' forces the vectorized Lindley engine "
               "(errors if the model does not qualify), 'auto' picks the "
               "fast path when eligible and falls back otherwise"),
    _Flag("--sanitize", default=False,
          help="run with the determinism sanitizer: verify prefetch blocks "
               "per-draw, hash the event stream, and A/B it against a "
               "prefetch-off twin (exit 4 on mismatch)"),
    _Flag("--parallel", type=int, metavar="N",
          help="distribute measurement over N slave replicas (Fig. 3)"),
    _Flag("--point-timeout", type=float, metavar="SECONDS", default=600.0,
          help="per-point deadline; a silent worker is declared dead and "
               "its point requeued (default: 600)"),
    _Flag("--cache", metavar="DIR",
          help="content-addressed point cache; re-runs serve unchanged "
               "points from here and recompute only edited ones"),
    _Flag("--force", default=False,
          help="recompute every point even on a cache hit"),
    _Flag("--trace", metavar="PATH", help={
              "run": "write a structured JSON-lines trace (engine counters, "
                     "statistic phase transitions, parallel master records) "
                     "to PATH; validate with 'python -m repro.observability "
                     "PATH'",
              "sweep": "write a JSON-lines trace (per-point events, pool "
                       "records)",
          }),
    _Flag("--metrics", default=False,
          help="attach an end-of-run telemetry digest to the JSON output"),
    _Flag("--progress", type=float, metavar="SECONDS", help={
              "run": "report per-metric convergence progress to stderr at "
                     "most every SECONDS seconds",
              "sweep": "report per-point completion to stderr",
          }),
    _Flag("--out", metavar="PATH",
          help="write the sweep result document to PATH instead of stdout"),
    _Flag("--lint", default=False, help={
              "run": "model-lint the config instead of running it: "
                     "offered-load stability, fastpath qualification "
                     "forecast (exit 1 on errors, 0 clean)",
              "sweep": "model-lint the spec instead of running it: unstable "
                       "(rho >= 1) grid points, seed collisions, "
                       "digest-unstable constructs, fastpath forecasts (exit "
                       "1 on errors, 0 clean)",
          }),
)
_FLAG = {flag.name: flag for flag in _FLAGS}

#: Each command's options, in ``--help`` order.
_OPTIONS = {
    "run": (
        "--engine", "--sanitize", "--trace", "--metrics", "--progress",
        "--parallel", "--backend", "--listen", "--transport-key",
        "--join-timeout", "--chaos", "--respawn", "--max-restarts",
        "--round-timeout", "--checkpoint", "--checkpoint-interval",
        "--resume", "--lint", "--heartbeat-interval", "--heartbeat-misses",
        "--min-workers", "--deadline", "--on-degrade",
    ),
    "sweep": (
        "--jobs", "--cache", "--force", "--backend", "--listen",
        "--transport-key", "--join-timeout", "--chaos", "--respawn",
        "--max-restarts", "--point-timeout", "--trace", "--progress",
        "--out", "--lint", "--heartbeat-interval", "--heartbeat-misses",
        "--min-workers", "--deadline", "--on-degrade",
    ),
}


def _add_options(parser, command: str) -> None:
    """Add ``command``'s declared options to its subparser."""
    for name in _OPTIONS[command]:
        flag = _FLAG[name]
        default = _per(flag.default, command)
        if default is False:
            parser.add_argument(
                name, action="store_true", help=_per(flag.help, command)
            )
            continue
        parser.add_argument(
            name, type=flag.type, metavar=flag.metavar,
            choices=_per(flag.choices, command), default=default,
            help=_per(flag.help, command),
        )


def _misused_flag(args):
    """``"FLAG requires NEED"`` for the first flag the chosen mode would
    never read, or None (see ``_NEED_ORDER`` for which comes first)."""
    rules = sorted(
        (
            rule
            for flag in _FLAGS if flag.name in _OPTIONS[args.command]
            for rule in flag.rules()
        ),
        key=lambda rule: _NEED_ORDER.index(rule[1]),
    )
    for subject, need in rules:
        if subject.holds(args) and not need.holds(args):
            return f"{subject} requires {need}"
    return None


def _build_fault_options(args):
    """``(fault_plan, respawn)`` from --chaos/--respawn/--max-restarts,
    or None after saying on one line why the plan is refused: it does
    not load, or it holds frame kinds and there is no wire to act on."""
    fault_plan = respawn = None
    if args.chaos:
        from repro.faults import FaultError, FaultPlan

        try:
            fault_plan = FaultPlan.load(args.chaos)
            if fault_plan.frame_kinds and args.backend != "remote":
                raise FaultError(
                    f"frame faults ({', '.join(fault_plan.frame_kinds)}) "
                    "need --backend remote"
                )
        except (OSError, FaultError) as error:
            print(f"{args.command}: --chaos: {error}", file=sys.stderr)
            return None
    if args.respawn:
        from repro.faults import RespawnPolicy

        respawn = RespawnPolicy(max_restarts_per_slave=args.max_restarts)
    return fault_plan, respawn


def _make_observability(args):
    """Build (tracer, progress) from the run command's flags."""
    tracer = None
    if args.trace:
        import time

        from repro.observability import Tracer

        # The CLI is the boundary: the host clock is injected here, so
        # records carry host_time for profiling while the engine itself
        # never reads a wall clock.
        tracer = Tracer.to_path(args.trace, clock=time.perf_counter)
    progress = None
    if args.progress is not None:
        from repro.observability import ProgressReporter

        progress = ProgressReporter(min_interval=args.progress)
    return tracer, progress


def _report_lint(findings, label: str) -> int:
    """Print model-lint findings; exit 0 clean / 1 any error-severity."""
    from repro.analysis.modellint import has_errors

    for finding in findings:
        print(finding.report_line())
    errors = sum(1 for f in findings if f.severity == "error")
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"lint {label}: {len(findings)} {noun} ({errors} error(s))")
    return 1 if has_errors(findings) else 0


def _load_run_config(args: argparse.Namespace):
    """The document ``repro run`` was given, or None after saying why not.

    Without ``--lint`` (which reports a document that does not build as
    a finding) it is built once here, so a malformed one is refused
    before a trace file, a transport or a slave exists.
    """
    from repro.config import ConfigError, build_experiment, load_config

    try:
        config = load_config(args.config)
        if not args.lint:
            build_experiment(config, engine=args.engine)
        return config
    except (OSError, ConfigError) as error:
        print(f"run: cannot load {args.config}: {error}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.config import build_experiment
    from repro.engine.report import parallel_result_to_dict, result_to_dict

    if args.lint:
        from repro.analysis.modellint import lint_config

        config = _load_run_config(args)
        if config is None:
            return 2
        findings = lint_config(
            config, path=str(args.config), engine=args.engine or None
        )
        return _report_lint(findings, str(args.config))
    if args.sanitize and args.parallel:
        print("--sanitize and --parallel are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.engine and args.engine != "event" and (
        args.parallel or args.sanitize
    ):
        print(
            "--engine auto/fastpath is single-process only "
            "(drop --parallel/--sanitize)",
            file=sys.stderr,
        )
        return 2
    misuse = _misused_flag(args)
    if misuse is not None:
        print(misuse, file=sys.stderr)
        return 2
    config = _load_run_config(args)
    if config is None:
        return 2
    fault_options = _build_fault_options(args)
    if fault_options is None:
        return 2
    fault_plan, respawn = fault_options
    tracer, progress = _make_observability(args)
    transport = None
    try:
        if args.parallel:
            from repro.parallel.master import ParallelSimulation

            if args.backend == "remote":
                transport = _start_remote_transport(args)
            simulation = ParallelSimulation(
                _config_factory,
                factory_kwargs={"config": config},
                n_slaves=args.parallel,
                master_seed=config.get("seed", 0),
                backend=args.backend,
                round_timeout=args.round_timeout,
                respawn=respawn,
                supervision=_build_supervision(args),
                fault_plan=fault_plan,
                checkpoint_path=args.checkpoint,
                checkpoint_interval=args.checkpoint_interval,
                transport=transport,
                join_timeout=args.join_timeout,
            )
            if tracer is not None:
                simulation.attach_tracer(tracer)
            if progress is not None:
                simulation.attach_progress(progress)
            result = simulation.run(resume_from=args.resume)
            if args.metrics and result.telemetry is None:
                from repro.observability import ExperimentTelemetry

                result.telemetry = ExperimentTelemetry.from_parallel(
                    result, dead_slaves=result.dead_slaves
                )
            json.dump(parallel_result_to_dict(result), sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0 if result.converged else 3

        if args.sanitize:
            experiment = build_experiment(config, sanitize=True)
        else:
            experiment = build_experiment(config, engine=args.engine)
        if tracer is not None:
            experiment.attach_tracer(tracer)
        if progress is not None:
            experiment.attach_progress(progress)
        experiment.collect_telemetry = args.metrics
        result = experiment.run()
        if not args.sanitize:
            json.dump(result_to_dict(result), sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0 if result.converged else 3

        # Sanitized run: the event stream was hashed and every prefetch
        # block verified per-draw; now replay the identical config with
        # prefetching disabled and require a bit-identical event stream
        # (see docs/analysis.md).  Exit 4 on any determinism mismatch.
        from repro.analysis.sanitizer import experiment_digest

        twin = experiment_digest(
            lambda seed, **kwargs: build_experiment(
                {**config, "seed": seed}, **kwargs
            ),
            seed=config.get("seed", 0),
            factory_kwargs={"prefetch": False},
        )
        matched = (
            result.sanitizer.event_digest == twin.event_digest
            and result.sanitizer.events_hashed == twin.events_hashed
        )
        payload = result_to_dict(result)
        payload["sanitizer"]["prefetch_off"] = twin.to_dict()
        payload["sanitizer"]["prefetch_determinism"] = (
            "ok" if matched else "FAIL"
        )
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        if not matched:
            print(
                "sanitizer: prefetch-on and prefetch-off event streams "
                "diverge; the run is not reproducible",
                file=sys.stderr,
            )
            return 4
        return 0 if result.converged else 3
    finally:
        if transport is not None:
            transport.close()
        if tracer is not None:
            tracer.close()


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import TABLE1_SPECS

    print(f"{'name':<8} {'ia mean':>10} {'ia Cv':>6} {'svc mean':>10} "
          f"{'svc Cv':>7}  description")
    for spec in TABLE1_SPECS.values():
        print(
            f"{spec.name:<8} {spec.interarrival_mean:>10.6g} "
            f"{spec.interarrival_cv:>6.3g} {spec.service_mean:>10.6g} "
            f"{spec.service_cv:>7.3g}  {spec.description}"
        )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.workloads import workload_from_trace

    trace = []
    path = Path(args.trace)
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                print(f"{path}:{line_number}: expected 'arrival size'",
                      file=sys.stderr)
                return 2
            trace.append((float(parts[0]), float(parts[1])))
    workload = workload_from_trace(trace, name=path.stem)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arr_path = out_dir / f"{path.stem}.arr"
    svc_path = out_dir / f"{path.stem}.svc"
    workload.interarrival.save(arr_path)
    workload.service.save(svc_path)
    print(f"inter-arrival: mean={workload.interarrival.mean():.6g}s "
          f"cv={workload.interarrival.cv():.3g} -> {arr_path}")
    print(f"service:       mean={workload.service.mean():.6g}s "
          f"cv={workload.service.cv():.3g} -> {svc_path}")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro import theory
    from repro.distributions import fit_mean_cv

    if args.model == "mm1":
        print(f"mean_response  {theory.mm1_mean_response(args.lam, args.mu):.6g}")
        print(f"mean_waiting   {theory.mm1_mean_waiting(args.lam, args.mu):.6g}")
        print(f"p95_response   "
              f"{theory.mm1_quantile_response(args.lam, args.mu, 0.95):.6g}")
    elif args.model == "mmk":
        print(f"erlang_c       {theory.erlang_c(args.lam, args.mu, args.k):.6g}")
        print(f"mean_waiting   "
              f"{theory.mmk_mean_waiting(args.lam, args.mu, args.k):.6g}")
        print(f"mean_response  "
              f"{theory.mmk_mean_response(args.lam, args.mu, args.k):.6g}")
    else:  # mg1
        service = fit_mean_cv(1.0 / args.mu, args.cv)
        print(f"mean_waiting   "
              f"{theory.mg1_mean_waiting(args.lam, service):.6g}")
        print(f"mean_response  "
              f"{theory.mg1_mean_response(args.lam, service):.6g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepError, SweepRunner, SweepSpec

    try:
        spec = SweepSpec.load(args.spec)
    except (OSError, SweepError) as error:
        print(f"sweep: cannot load {args.spec}: {error}", file=sys.stderr)
        return 2
    if args.lint:
        from repro.analysis.modellint import lint_spec

        findings = lint_spec(spec, path=str(args.spec))
        return _report_lint(findings, str(args.spec))
    misuse = _misused_flag(args)
    if misuse is not None:
        print(misuse, file=sys.stderr)
        return 2
    fault_options = _build_fault_options(args)
    if fault_options is None:
        return 2
    fault_plan, respawn = fault_options
    tracer, progress = _make_observability(args)

    def on_point(point):
        if progress is not None:
            status = "cached" if point.cached else (
                "ok" if point.converged else "UNCONVERGED"
            )
            print(
                f"sweep {spec.name}: point {point.name} [{status}] "
                f"digest={point.digest}",
                file=sys.stderr,
            )

    transport = None
    if args.backend == "remote":
        transport = _start_remote_transport(args)
    runner = SweepRunner(
        spec,
        backend=args.backend,
        jobs=args.jobs,
        cache=args.cache,
        force=args.force,
        respawn=respawn,
        fault_plan=fault_plan,
        supervision=_build_supervision(args),
        job_timeout=args.point_timeout,
        transport=transport,
        join_timeout=args.join_timeout,
        tracer=tracer,
        on_point=on_point,
    )
    try:
        result = runner.run()
    finally:
        if transport is not None:
            transport.close()
        if tracer is not None:
            tracer.close()
    document = result.to_dict()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(
            f"sweep {spec.name}: {len(result.points)} points "
            f"({result.cache_hits} cached, {result.computed} computed) "
            f"in {result.wall_time:.2f}s -> {args.out}"
        )
    else:
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if result.converged else 3


def _cmd_agent(args: argparse.Namespace) -> int:
    from repro.parallel.agent import run_agent

    return run_agent(args)


def _add_agent_args(parser) -> None:
    """The flags of ``repro agent``; declared here so that building the
    parser does not import :mod:`repro.parallel`."""
    parser.add_argument(
        "address", help="master transport address, HOST:PORT"
    )
    parser.add_argument(
        "--slots", type=int, metavar="N", default=os.cpu_count() or 1,
        help="worker slots to offer (default: CPU count)",
    )
    parser.add_argument(
        "--transport-key", metavar="KEY", default=None,
        help="shared fleet key (must match the master's)",
    )
    parser.add_argument(
        "--context", default="fork",
        help="multiprocessing start method for workers (default: fork)",
    )
    parser.add_argument(
        "--reconnect-delay", type=float, metavar="SECONDS", default=0.2,
        help="base seconds of the re-dial backoff (default: 0.2)",
    )
    parser.add_argument(
        "--reconnect-cap", type=float, metavar="SECONDS", default=30.0,
        help="ceiling of the exponential re-dial backoff (default: 30)",
    )
    parser.add_argument(
        "--backoff-seed", type=int, metavar="SEED", default=0,
        help=(
            "seed for the deterministic re-dial jitter (give each "
            "agent its own so probes spread instead of dialing in "
            "lockstep)"
        ),
    )
    parser.add_argument(
        "--max-redial", type=int, metavar="N", default=None,
        help=(
            "consecutive failed dials a slot tolerates before giving "
            "up (default: retry forever)"
        ),
    )
    parser.add_argument(
        "--idle-exit", type=float, metavar="SECONDS", default=None,
        help=(
            "exit after this many seconds without hosting a worker "
            "(useful in CI; default: run forever)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BigHouse-style stochastic queuing simulation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a JSON-configured experiment")
    run.add_argument("config", help="path to the experiment JSON")
    _add_options(run, "run")
    run.set_defaults(handler=_cmd_run)

    workloads = commands.add_parser(
        "workloads", help="list the shipped Table-1 workload models"
    )
    workloads.set_defaults(handler=_cmd_workloads)

    characterize = commands.add_parser(
        "characterize",
        help="distill an 'arrival size' trace into .arr/.svc distributions",
    )
    characterize.add_argument("trace", help="two-column trace file")
    characterize.add_argument("--output-dir", default=".",
                              help="where to write the distribution files")
    characterize.set_defaults(handler=_cmd_characterize)

    theory = commands.add_parser(
        "theory", help="closed-form queueing baselines"
    )
    theory.add_argument("model", choices=("mm1", "mmk", "mg1"))
    theory.add_argument("--lam", type=float, required=True,
                        help="arrival rate (tasks/s)")
    theory.add_argument("--mu", type=float, required=True,
                        help="per-server service rate (tasks/s)")
    theory.add_argument("--k", type=int, default=1, help="servers (mmk)")
    theory.add_argument("--cv", type=float, default=1.0,
                        help="service Cv (mg1)")
    theory.set_defaults(handler=_cmd_theory)

    sweep = commands.add_parser(
        "sweep",
        help="run a parameter sweep over a persistent worker pool",
    )
    sweep.add_argument("spec", help="sweep spec (.toml or .json)")
    _add_options(sweep, "sweep")
    sweep.set_defaults(handler=_cmd_sweep)

    agent = commands.add_parser(
        "agent",
        help="host remote workers for a '--backend remote' master",
    )
    _add_agent_args(agent)
    agent.set_defaults(handler=_cmd_agent)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""The Experiment: a simulation run that stops at statistical convergence.

This is the user-facing composition layer of BigHouse: describe a queuing
network (sources, servers, balancers), declare output metrics with
accuracy/confidence targets, and :meth:`Experiment.run` exercises the
discrete-event simulation until every metric converges (Section 2.3) —
or a safety bound (event count / virtual time) trips first, in which case
the result is flagged unconverged rather than silently wrong.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Union

from repro.core.collection import StatisticsCollection
from repro.core.statistic import Estimate, Statistic
from repro.datacenter.source import Source, TraceSource
from repro.engine.simulation import Simulation


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    estimates: Dict[str, Estimate]
    converged: bool
    events_processed: int
    sim_time: float
    wall_time: float
    jobs_generated: int = 0
    extras: Dict[str, float] = field(default_factory=dict)
    #: Determinism digest when the run was sanitized (see
    #: repro.analysis.sanitizer), else None.
    sanitizer: Optional[object] = None
    #: repro.observability.ExperimentTelemetry when telemetry was
    #: collected (tracer attached or collect_telemetry set), else None.
    telemetry: Optional[object] = None

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]

    def __contains__(self, name: str) -> bool:
        return name in self.estimates


class MetricBinding(NamedTuple):
    """A declared station metric: which station, which job timing.

    ``track_response_time``/``track_waiting_time`` install opaque
    closures on the station; this record keeps the declarative facts so
    the fast path (:mod:`repro.engine.fastpath`) can tell whether a
    model's observers are exactly the standard timing metrics.
    """

    kind: str  # "response" | "waiting"
    station: object
    name: str


#: Engine selection values accepted by :class:`Experiment`.
ENGINES = ("event", "auto", "fastpath")


class Experiment:
    """A convergence-terminated stochastic queuing simulation.

    Parameters mirror the knobs of the BigHouse statistics package and
    become defaults for every metric tracked through this experiment:

    - ``warmup_samples`` (Nw), ``calibration_samples`` (Nc = 5000),
    - ``confidence`` (1 - alpha, default 95%),
    - ``bins`` / ``max_lag`` for calibration,
    - ``max_events`` / ``max_sim_time`` as safety bounds,
    - ``prefetch`` as the default sampling mode for sources added via
      :meth:`add_source`,
    - ``sanitize`` to attach a determinism probe (see
      :mod:`repro.analysis.sanitizer`): event timestamps are hashed,
      prefetched blocks are verified per-draw, and the resulting digest
      lands in :attr:`ExperimentResult.sanitizer`.
    """

    def __init__(
        self,
        seed: int = 0,
        warmup_samples: int = 1000,
        calibration_samples: int = 5000,
        confidence: float = 0.95,
        bins: int = 1000,
        max_lag: int = 50,
        max_events: int = 50_000_000,
        max_sim_time: Optional[float] = None,
        convergence_check_interval: int = 256,
        prefetch: bool = True,
        sanitize: bool = False,
        engine: str = "event",
    ):
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.simulation = Simulation(seed)
        self.stats = StatisticsCollection()
        self.seed = seed
        self.warmup_samples = warmup_samples
        self.calibration_samples = calibration_samples
        self.confidence = confidence
        self.bins = bins
        self.max_lag = max_lag
        self.max_events = max_events
        self.max_sim_time = max_sim_time
        self.convergence_check_interval = convergence_check_interval
        self.prefetch_default = prefetch
        self.engine = engine
        self.sources: list = []
        self._metric_bindings: list = []
        self._tracer = None
        self._progress = None
        #: Where the fast path's recurrence stands (clock, queue state),
        #: so a repeated run() resumes it; None until the fast path runs.
        self._fastpath_carry = None
        #: Attach an ExperimentTelemetry digest to results even without a
        #: tracer (``repro run --metrics``).
        self.collect_telemetry = False
        if sanitize:
            # Must happen before any add_source: samplers capture the
            # probe at bind time.
            self.simulation.enable_sanitizer()

    # -- topology -----------------------------------------------------------

    def add_source(
        self,
        workload,
        target,
        draw_sizes: bool = True,
        max_jobs: Optional[int] = None,
        name: Optional[str] = None,
        prefetch: Optional[bool] = None,
    ) -> Source:
        """Create and bind an open-loop source feeding ``target``.

        ``prefetch=None`` inherits the experiment-level default.
        """
        source = Source(
            workload,
            target,
            draw_sizes=draw_sizes,
            max_jobs=max_jobs,
            name=name or f"source-{len(self.sources)}",
            prefetch=self.prefetch_default if prefetch is None else prefetch,
        )
        source.bind(self.simulation)
        self.sources.append(source)
        return source

    def add_trace_source(self, trace, target, name: Optional[str] = None) -> TraceSource:
        """Create and bind a trace-replay source feeding ``target``."""
        source = TraceSource(trace, target, name=name or f"trace-{len(self.sources)}")
        source.bind(self.simulation)
        self.sources.append(source)
        return source

    def bind(self, component) -> None:
        """Bind any component (server, balancer, cluster) to the clock."""
        component.bind(self.simulation)

    # -- metrics ----------------------------------------------------------------

    def track(
        self,
        name: str,
        mean_accuracy: Optional[float] = 0.05,
        quantiles: Union[None, Mapping[float, float], Iterable] = None,
        **overrides,
    ) -> Statistic:
        """Declare an output metric with this experiment's defaults.

        Returns the :class:`Statistic`; feed it via :meth:`record`.
        """
        kwargs = dict(
            mean_accuracy=mean_accuracy,
            quantiles=quantiles,
            confidence=self.confidence,
            warmup_samples=self.warmup_samples,
            calibration_samples=self.calibration_samples,
            bins=self.bins,
            max_lag=self.max_lag,
        )
        kwargs.update(overrides)
        return self.stats.add(Statistic(name, **kwargs))

    def record(self, name: str, value: float) -> None:
        """Feed one observation to a tracked metric."""
        self.stats.record(name, value)

    def track_response_time(
        self,
        station,
        name: str = "response_time",
        mean_accuracy: Optional[float] = 0.05,
        quantiles: Union[None, Mapping[float, float], Iterable] = None,
        **overrides,
    ) -> Statistic:
        """Track job response time (finish - arrival) at a server/balancer."""
        statistic = self.track(
            name, mean_accuracy=mean_accuracy, quantiles=quantiles, **overrides
        )
        # Completion hooks fire once per job: bind the metric feed once
        # (recorder) rather than routing each value through a name lookup.
        record = self.stats.recorder(name)
        station.on_complete(
            lambda job, server: record(job.finish_time - job.arrival_time)
        )
        self._metric_bindings.append(MetricBinding("response", station, name))
        return statistic

    def track_waiting_time(
        self,
        station,
        name: str = "waiting_time",
        mean_accuracy: Optional[float] = 0.05,
        quantiles: Union[None, Mapping[float, float], Iterable] = None,
        **overrides,
    ) -> Statistic:
        """Track queueing delay (start - arrival) at a server/balancer."""
        statistic = self.track(
            name, mean_accuracy=mean_accuracy, quantiles=quantiles, **overrides
        )
        record = self.stats.recorder(name)
        station.on_complete(
            lambda job, server: record(job.start_time - job.arrival_time)
        )
        self._metric_bindings.append(MetricBinding("waiting", station, name))
        return statistic

    # -- observability -------------------------------------------------------

    def attach_tracer(self, tracer, emit_interval: int = 4096) -> None:
        """Attach a :class:`repro.observability.Tracer` to the whole run.

        Wires the event loop (periodic ``engine/events`` counters) and
        every tracked metric (phase transitions, convergence gauges) to
        one tracer.  Call before or after :meth:`track` — the collection
        forwards the tracer to future metrics too.
        """
        self._tracer = tracer
        self.simulation.attach_tracer(tracer, emit_interval)
        self.stats.attach_tracer(tracer)

    @property
    def tracer(self):
        """The attached structured tracer, or None."""
        return self._tracer

    def attach_progress(self, reporter) -> None:
        """Attach a :class:`repro.observability.ProgressReporter`.

        The reporter is polled from the convergence-check path (every
        ``convergence_check_interval`` events; once per block on the
        vectorized fast path) and throttles itself by its own wall-clock
        interval, so it costs nothing on the per-event path.
        """
        self._progress = reporter

    def _telemetry(self):
        """ExperimentTelemetry digest, or None when not collecting."""
        if self._tracer is None and not self.collect_telemetry:
            return None
        # Deferred import: the observability package is optional plumage
        # on top of the engine, not a dependency of it.
        from repro.observability.telemetry import ExperimentTelemetry

        return ExperimentTelemetry.from_experiment(self, tracer=self._tracer)

    # -- running -------------------------------------------------------------------

    def _run_until(
        self, stop_when, max_events=None, max_sim_time=None
    ) -> ExperimentResult:
        """Drive the event engine until ``stop_when()`` or a bound trips.

        ``stop_when`` is evaluated every ``convergence_check_interval``
        events, after the attached progress reporter (if any) is polled.
        """
        progress = self._progress
        if progress is None:
            polled = stop_when
        else:
            def polled() -> bool:
                progress.poll(self)
                return stop_when()

        simulation = self.simulation
        budget = max_events if max_events is not None else self.max_events
        horizon = max_sim_time if max_sim_time is not None else self.max_sim_time
        remaining = budget - simulation.events_processed
        started = time.perf_counter()
        if remaining > 0:
            simulation.run(
                until=horizon,
                max_events=remaining,
                stop_when=polled,
                stop_check_interval=self.convergence_check_interval,
            )
        wall = time.perf_counter() - started
        probe = simulation.probe
        return ExperimentResult(
            estimates=self.stats.report(),
            converged=self.stats.all_converged,
            events_processed=simulation.events_processed,
            sim_time=simulation.now,
            wall_time=wall,
            jobs_generated=sum(source.generated for source in self.sources),
            sanitizer=probe.snapshot() if probe is not None else None,
        )

    def progress(self) -> Dict[str, Dict[str, float]]:
        """Live progress snapshot per metric.

        Each entry reports the phase, observation counts, the current
        Eq. 2-3 sample-size requirement, and the achieved relative
        accuracies — what a user polls to see how far a long simulation
        is from terminating.
        """
        snapshot: Dict[str, Dict[str, float]] = {}
        for statistic in self.stats:
            required = statistic.required_sample_size()
            entry = {
                "phase": statistic.phase.value,
                "observed": statistic.observed,
                "accepted": statistic.accepted,
                "required": required,
                "lag": statistic.lag,
            }
            if required not in (0, math.inf):
                entry["fraction_done"] = min(
                    1.0, statistic.accepted / required
                )
            entry.update(statistic.achieved_accuracy())
            snapshot[statistic.name] = entry
        return snapshot

    def run(
        self,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
    ) -> ExperimentResult:
        """Run until every tracked metric converges (or a bound trips).

        With ``engine="fastpath"`` the vectorized Lindley engine is
        required (raises ``FastpathError`` if the model does not
        qualify); ``engine="auto"`` uses it when eligible and otherwise
        falls back to the event engine, bit-identical to
        ``engine="event"``.
        """
        if not len(self.stats):
            raise RuntimeError(
                "experiment has no tracked metrics; call track()/"
                "track_response_time() before run()"
            )
        if self.engine != "event":
            # Deferred import: fastpath pulls in datacenter/numpy layers
            # that this module otherwise only type-references.
            from repro.engine import fastpath

            if self.engine == "fastpath":
                if max_sim_time is not None:
                    raise fastpath.FastpathError(
                        "max_sim_time requires the event engine"
                    )
                return fastpath.run_fastpath(self, max_events=max_events)
            if max_sim_time is None and fastpath.qualifies(self):
                return fastpath.run_fastpath(self, max_events=max_events)
        result = self._run_until(
            lambda: self.stats.all_converged, max_events, max_sim_time
        )
        result.telemetry = self._telemetry()
        return result

    def run_until_calibrated(
        self, max_events: Optional[int] = None
    ) -> ExperimentResult:
        """Run only through warm-up + calibration for every metric.

        This is the master's first step in a parallel simulation (Fig. 3):
        it needs the calibrated histogram bin schemes, nothing more.
        """
        if not len(self.stats):
            raise RuntimeError("experiment has no tracked metrics")
        return self._run_until(lambda: self.stats.all_measuring, max_events)

    def replay_chunks(
        self, chunks: Iterable, max_events: Optional[int] = None
    ) -> None:
        """Fast-forward by replaying a logged chunk schedule.

        A slave's state is a pure function of ``(seed, bin scheme,
        chunk history)`` — nothing else feeds its RNG streams — so a
        checkpoint never serializes live slaves: resume rebuilds each
        one and replays the exact sequence of accepted-observation
        quotas it had completed.  The replay's observations are *not*
        re-merged (they already live in the checkpointed master
        histograms); the caller discards the replayed reports and only
        verifies the landing state.
        """
        for chunk in chunks:
            self.run_until_accepted(chunk, max_events=max_events)

    def run_until_accepted(
        self, additional: int, max_events: Optional[int] = None
    ) -> ExperimentResult:
        """Run until ``additional`` more observations have been accepted
        across all metrics (a slave measurement chunk, Fig. 3).

        Also stops once every metric has locally converged: a converged
        statistic ignores further observations, so past that point the
        quota is unreachable and extra events change nothing about the
        report — they would only burn wall-clock until ``max_events``.
        """
        if additional < 1:
            raise ValueError(f"additional must be >= 1, got {additional}")
        target = self.stats.total_accepted + additional
        return self._run_until(
            lambda: self.stats.total_accepted >= target
            or self.stats.all_converged,
            max_events,
        )

"""Domain model lint: static validation of configs and SweepSpecs.

The AST rules catch determinism hazards in *code*; this pass catches
hazards in *data* — the config documents and sweep specs that drive
experiments.  It cross-checks them against the repository's own domain
facts (``repro.theory``, the seed-derivation lineage, the sweep cache's
content addressing, and the fastpath engine's eligibility test) before
any simulation runs:

``unstable-point``
    A (grid point's) workload offers ``rho >= 1`` to its server pool —
    :func:`repro.theory.utilization` says the queue has no steady
    state, so the acceptance loop would burn its full event budget and
    report garbage.  Near-saturation points (``rho >= 0.95``) get a
    warning: stable, but convergence is painfully slow.

``seed-collision``
    Two points pin the same explicit seed, or an explicit seed equals
    another point's derived lineage seed — their sample streams would
    be identical, silently correlating "independent" replicas.

``seed-override-ignored``
    A ``config``-kind sweep sets a ``seed`` axis/param or a base seed:
    the runner derives each point's seed from the master lineage *after*
    applying params, so the explicit value is silently discarded.  For
    ``factory``/``task`` kinds an explicit ``seed`` param is worse — the
    runner already passes ``seed`` positionally, so the call crashes
    with a duplicate-argument ``TypeError``.

``digest-unstable``
    The spec contains constructs the sweep cache cannot address stably:
    ``__main__:``-anchored factory references (resolve differently per
    entry point, unimportable in slaves) or non-finite floats (NaN
    breaks canonical-JSON equality, so cached results can never hit).

``fastpath-forecast``
    For ``engine = "auto"`` sweeps, a note per point that will *miss*
    the vectorized fastpath and why (``qualifies()``'s reason);
    for ``engine = "fastpath"``, a non-qualifying point is an error —
    the run would die with :class:`~repro.engine.fastpath.FastpathError`.

``spec-error``
    The document cannot be built at all: every config (every point of a
    config sweep) is handed to :func:`repro.config.build_experiment`,
    and its :class:`~repro.config.ConfigError` — unknown key, wrong
    type, unknown distribution, a value a constructor refuses — is the
    finding.

Findings reuse :class:`~repro.analysis.linter.Finding` — same severity
levels, same deterministic ordering, same SARIF emission — but anchor
to the spec/config *file* (line 1: TOML/JSON decoding drops line
information).  Domain imports happen inside functions: the source
passes that import :data:`MODEL_RULES` need none of them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.analysis.linter import Finding

#: Model-lint rule catalog: id -> one-line summary.
MODEL_RULES: Dict[str, str] = {
    "unstable-point": (
        "no grid point may offer rho >= 1 to its server pool "
        "(no steady state; the acceptance loop cannot converge)"
    ),
    "seed-collision": (
        "no two points may share a seed (explicit duplicates, or an "
        "explicit seed shadowing another point's derived lineage seed)"
    ),
    "seed-override-ignored": (
        "explicit seed params are discarded by the derived lineage "
        "(config kind) or crash the factory call (factory/task kinds)"
    ),
    "digest-unstable": (
        "no spec construct the sweep cache cannot content-address "
        "stably (__main__: factory refs, non-finite floats)"
    ),
    "fastpath-forecast": (
        "forecast which points qualify for the vectorized fastpath "
        "engine; forced-fastpath specs must qualify everywhere"
    ),
    "multiserver-misfit": (
        "gang jobs must fit their cluster (max servers_needed <= "
        "cluster servers) and gang workloads need a gang-aware station"
    ),
    "clone-overload": (
        "replicated load must stay stable: clone count x rho < 1, or "
        "the cloned replicas saturate the pool"
    ),
    "spec-error": "the spec/config document must build at all",
}

#: rho at and above which a point is statically hopeless.
RHO_UNSTABLE = 1.0
#: rho at and above which convergence is slow enough to warn about.
RHO_SLOW = 0.95


def _finding(
    path: str, rule: str, message: str, severity: str = "error"
) -> Finding:
    return Finding(
        rule=rule, path=path, line=1, col=1,
        message=message, end_line=1, severity=severity,
    )


def _walk_floats(value, where: str, out: List[str]) -> None:
    """Collect locations of non-finite floats in a plain-data tree."""
    if isinstance(value, float):
        if not math.isfinite(value):
            out.append(f"{where} = {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk_floats(item, f"{where}.{key}", out)
    elif isinstance(value, (list, tuple)):
        for position, item in enumerate(value):
            _walk_floats(item, f"{where}[{position}]", out)


# -- single config ------------------------------------------------------------


def lint_config(
    config: dict,
    path: str = "<config>",
    engine: Optional[str] = None,
    label: str = "",
) -> List[Finding]:
    """Model-lint one experiment config document.

    ``engine`` overrides the document's engine (as ``repro run
    --engine`` and sweep specs do); ``label`` prefixes messages when the
    config is one point of a sweep.
    """
    from repro.config.loader import ConfigError, _pool, build_experiment

    prefix = f"{label}: " if label else ""
    findings: List[Finding] = []
    workload_spec = config.get("workload")
    declared_load = (
        workload_spec.get("load") if isinstance(workload_spec, dict) else None
    )
    overloaded = (
        isinstance(declared_load, (int, float))
        and not isinstance(declared_load, bool)
        and declared_load >= 1.0
    )
    if overloaded:
        # at_load refuses this outright; report it as the model problem
        # it is and check that the rest of the document builds.
        findings.append(_finding(
            path, "unstable-point",
            f"{prefix}workload.load = {declared_load} gives rho = "
            f"{float(declared_load):.3f} >= 1: no steady state, the "
            "acceptance test cannot converge",
        ))
        config = dict(config, workload={
            key: value for key, value in workload_spec.items() if key != "load"
        })
    try:
        experiment = build_experiment(config, engine=engine)
    except ConfigError as error:
        findings.append(_finding(
            path, "spec-error", f"{prefix}experiment does not build: {error}"
        ))
    else:
        if not overloaded:
            findings.extend(
                _check_model(experiment, _pool(config), path, prefix)
            )
    findings.sort(key=Finding.sort_key)
    return findings


def _check_model(experiment, pool, path: str, prefix: str) -> List[Finding]:
    """Stability, gang fit and engine forecast of a document that builds."""
    from repro.theory import utilization

    findings: List[Finding] = []
    workload = experiment.sources[0].workload
    try:
        rho = utilization(
            workload.arrival_rate, workload.peak_qps, pool.cores
        ) / pool.speed * getattr(workload, "mean_servers_needed", 1.0)
    except (ValueError, ZeroDivisionError) as error:
        findings.append(_finding(
            path, "spec-error",
            f"{prefix}cannot evaluate offered load: {error}",
        ))
    else:
        if rho >= RHO_UNSTABLE:
            findings.append(_finding(
                path, "unstable-point",
                f"{prefix}offered load rho = {rho:.3f} >= 1 "
                f"across {pool.cores} core(s): no steady "
                "state, the acceptance test cannot converge",
            ))
        elif rho >= RHO_SLOW:
            findings.append(_finding(
                path, "unstable-point",
                f"{prefix}offered load rho = {rho:.3f} is near "
                "saturation; convergence will be very slow",
                severity="warning",
            ))
        elif pool.clones * rho >= RHO_UNSTABLE:
            # Synchronized clone-to-d multiplies every backend's
            # offered load by d; a stable-looking rho can still
            # saturate the pool once replicated.
            findings.append(_finding(
                path, "clone-overload",
                f"{prefix}clone count {pool.clones} x rho = "
                f"{pool.clones * rho:.3f} >= 1: the replicated "
                "load saturates the pool; lower the clone count "
                "or the offered load",
            ))
    findings.extend(_check_multiserver_fit(workload, pool, path, prefix))
    findings.extend(_forecast_fastpath(experiment, path, prefix))
    return findings


def _check_multiserver_fit(
    workload, pool, path: str, prefix: str
) -> List[Finding]:
    """Gang workloads must have a gang-aware station that fits them."""
    need_dist = getattr(workload, "servers_needed", None)
    if need_dist is None:
        return []
    if not pool.clustered:
        return [_finding(
            path, "multiserver-misfit",
            f"{prefix}workload draws servers_needed but there is no "
            "'cluster' section: plain servers ignore gang needs and "
            "the results silently model single-server jobs",
            severity="warning",
        )]
    max_value = getattr(need_dist, "max_value", None)
    if not callable(max_value):
        return []
    largest = max_value()
    if largest > pool.cores:
        return [_finding(
            path, "multiserver-misfit",
            f"{prefix}servers_needed can draw {largest:g} but the "
            f"cluster has only {pool.cores} server(s): such jobs can "
            "never be placed and the run dies at their first arrival",
        )]
    return []


def _forecast_fastpath(experiment, path: str, prefix: str) -> List[Finding]:
    """Predict ``qualifies()`` for auto/fastpath engines, statically."""
    from repro.engine.fastpath import qualifies

    if experiment.engine not in ("auto", "fastpath"):
        return []
    outcome = qualifies(experiment)
    if outcome.ok:
        return []
    if experiment.engine == "fastpath":
        return [_finding(
            path, "fastpath-forecast",
            f"{prefix}engine = 'fastpath' is forced but the model does "
            f"not qualify ({outcome.reason}); the run will fail with "
            "FastpathError",
        )]
    return [_finding(
        path, "fastpath-forecast",
        f"{prefix}model will take the event engine, not the fastpath "
        f"({outcome.reason})",
        severity="note",
    )]


# -- whole sweep specs --------------------------------------------------------


def lint_spec(spec, path: str = "<spec>") -> List[Finding]:
    """Model-lint a :class:`~repro.sweep.spec.SweepSpec`.

    Static only — nothing is simulated.  Per-point config checks run
    through :func:`lint_config` on the same materialized document the
    runner would execute (params applied, then the derived seed).
    """
    from repro.sweep.spec import SweepError, apply_params

    findings: List[Finding] = []

    # Digest stability of the raw spec payload.
    non_finite: List[str] = []
    _walk_floats(spec.base, "base", non_finite)
    _walk_floats(spec.axes, "axes", non_finite)
    _walk_floats(list(spec.grid), "grid", non_finite)
    _walk_floats(spec.factory_kwargs, "factory_kwargs", non_finite)
    for where in non_finite:
        findings.append(_finding(
            path, "digest-unstable",
            f"non-finite float {where}: NaN/Inf breaks canonical-JSON "
            "equality, so cache digests can never match",
        ))
    ref = None
    try:
        ref = spec.factory_ref
    except SweepError as error:
        findings.append(_finding(path, "spec-error", str(error)))
    if ref is not None and ref.startswith("__main__:"):
        findings.append(_finding(
            path, "digest-unstable",
            f"factory {ref!r} is anchored to __main__: slaves cannot "
            "import it and its digest changes with the entry point; "
            "move the factory into an importable module",
        ))

    try:
        points = spec.points()
    except (SweepError, RuntimeError) as error:
        findings.append(_finding(
            path, "seed-collision",
            f"seed lineage cannot enumerate the grid: {error}",
        ))
        findings.sort(key=Finding.sort_key)
        return findings

    # Seed hygiene across the whole grid.
    derived = {point.seed: point for point in points}
    explicit: Dict[int, List] = {}
    base_seed = spec.base.get("seed") if isinstance(spec.base, dict) else None
    if spec.kind == "config" and base_seed is not None:
        findings.append(_finding(
            path, "seed-override-ignored",
            f"base seed = {base_seed} is replaced by each point's "
            "derived lineage seed; remove it or change the sweep's "
            "master seed instead",
            severity="note",
        ))
    for point in points:
        if "seed" not in point.params:
            continue
        value = point.params["seed"]
        if spec.kind == "config":
            findings.append(_finding(
                path, "seed-override-ignored",
                f"point {point.index} ({point.name}): explicit seed = "
                f"{value!r} is silently discarded — the runner assigns "
                f"the derived lineage seed {point.seed} after applying "
                "params",
                severity="warning",
            ))
        else:
            findings.append(_finding(
                path, "seed-override-ignored",
                f"point {point.index} ({point.name}): 'seed' param "
                "collides with the runner's positional seed argument; "
                "the factory call will crash with TypeError",
            ))
        if isinstance(value, int):
            explicit.setdefault(value, []).append(point)

    for value, holders in sorted(explicit.items()):
        if len(holders) > 1:
            labels = ", ".join(str(p.index) for p in holders)
            findings.append(_finding(
                path, "seed-collision",
                f"points {labels} all pin seed = {value}: their sample "
                "streams would be identical, not independent",
            ))
        other = derived.get(value)
        if other is not None and (
            len(holders) > 1 or other.index != holders[0].index
        ):
            findings.append(_finding(
                path, "seed-collision",
                f"explicit seed = {value} on point "
                f"{holders[0].index} equals the derived seed of point "
                f"{other.index}; streams would correlate",
            ))
    seen_derived: Dict[int, int] = {}
    for point in points:
        if point.seed in seen_derived:
            findings.append(_finding(
                path, "seed-collision",
                f"derived seeds collide: points {seen_derived[point.seed]} "
                f"and {point.index} both map to {point.seed}",
            ))
        else:
            seen_derived[point.seed] = point.index

    # Per-point model checks on the materialized config documents.
    if spec.kind == "config":
        engine = spec.engine
        for point in points:
            try:
                config = apply_params(spec.base, point.params)
            except SweepError as error:
                findings.append(_finding(
                    path, "spec-error",
                    f"point {point.index} ({point.name}): {error}",
                ))
                continue
            config["seed"] = point.seed
            findings.extend(lint_config(
                config,
                path=path,
                engine=engine,
                label=f"point {point.index} ({point.name})",
            ))

    findings.sort(key=Finding.sort_key)
    return findings


def has_errors(findings) -> bool:
    """True when any finding is error-severity (lint exit code 1)."""
    return any(f.severity == "error" for f in findings)

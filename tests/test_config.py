"""Unit tests for the JSON experiment configuration loader."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modellint import lint_config
from repro.cli import main as repro_main
from repro.config import (
    ConfigError,
    build_distribution,
    build_experiment,
    build_workload,
    load_config,
)
from repro.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
)
from repro.engine.experiment import Experiment


class TestBuildDistribution:
    def test_exponential_forms(self):
        assert build_distribution(
            {"type": "exponential", "mean": 0.5}
        ).mean() == pytest.approx(0.5)
        assert build_distribution(
            {"type": "exponential", "rate": 4.0}
        ).mean() == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "spec, expected_type",
        [
            ({"type": "deterministic", "value": 1.0}, Deterministic),
            ({"type": "gamma", "mean": 1.0, "cv": 0.5}, Gamma),
            ({"type": "lognormal", "mean": 1.0, "cv": 2.0}, LogNormal),
            ({"type": "hyperexponential", "mean": 1.0, "cv": 3.0},
             HyperExponential),
            ({"type": "fit", "mean": 1.0, "cv": 1.0}, Exponential),
        ],
    )
    def test_types(self, spec, expected_type):
        assert isinstance(build_distribution(spec), expected_type)

    def test_bounded_pareto_and_weibull_cv(self):
        dist = build_distribution(
            {"type": "bounded_pareto", "alpha": 1.2, "low": 0.01, "high": 10.0}
        )
        assert 0.01 <= dist.mean() <= 10.0
        weibull = build_distribution(
            {"type": "weibull", "mean": 0.5, "cv": 2.0}
        )
        assert weibull.mean() == pytest.approx(0.5, rel=1e-6)

    def test_uniform_weibull_pareto_erlang(self):
        assert build_distribution(
            {"type": "uniform", "low": 0.0, "high": 2.0}
        ).mean() == pytest.approx(1.0)
        assert build_distribution(
            {"type": "erlang", "k": 2, "rate": 4.0}
        ).mean() == pytest.approx(0.5)
        build_distribution({"type": "weibull", "shape": 2.0, "scale": 1.0})
        build_distribution({"type": "pareto", "alpha": 3.0, "xm": 1.0})

    def test_empirical_from_file(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        dist = build_distribution({"type": "empirical", "path": str(path)})
        assert dist.mean() == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_distribution({"mean": 1.0})
        with pytest.raises(ConfigError):
            build_distribution({"type": "nope"})
        with pytest.raises(ConfigError):
            build_distribution({"type": "gamma", "mean": 1.0})  # missing cv


class TestBuildWorkload:
    def test_named(self):
        workload = build_workload({"name": "web"})
        assert workload.name == "web"

    def test_named_with_load(self):
        workload = build_workload({"name": "web", "load": 0.7})
        assert workload.offered_load() == pytest.approx(0.7)

    def test_explicit_distributions(self):
        workload = build_workload(
            {
                "interarrival": {"type": "exponential", "mean": 0.1},
                "service": {"type": "exponential", "mean": 0.05},
            }
        )
        assert workload.offered_load() == pytest.approx(0.5)

    def test_service_scale(self):
        base = build_workload({"name": "google"})
        scaled = build_workload({"name": "google", "service_scale": 2.0})
        assert scaled.service.mean() == pytest.approx(2 * base.service.mean())

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_workload({"label": "incomplete"})
        with pytest.raises(ConfigError):
            build_workload("not-a-dict")


class TestBuildExperiment:
    def base_config(self, **overrides):
        config = {
            "seed": 3,
            "warmup_samples": 200,
            "calibration_samples": 1500,
            "workload": {"name": "dns", "load": 0.5},
            "servers": {"count": 1, "cores": 1},
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
        }
        config.update(overrides)
        return config

    def test_single_server_runs(self):
        result = build_experiment(self.base_config()).run()
        assert result.converged
        assert result["response_time"].mean > 0

    def test_multi_server_with_balancer(self):
        config = self.base_config(
            servers={"count": 3, "cores": 1}, balancer="round_robin"
        )
        result = build_experiment(config).run()
        assert result.converged

    def test_load_scales_by_total_cores(self):
        # With count*cores = 4, load 0.5 must mean rho = 0.5 on the pool.
        config = self.base_config(servers={"count": 2, "cores": 2})
        experiment = build_experiment(config)
        workload = experiment.sources[0].workload
        assert workload.offered_load(cores=4) == pytest.approx(0.5)

    def test_waiting_time_metric(self):
        config = self.base_config(
            metrics=[
                {"kind": "response_time", "mean_accuracy": 0.1},
                {"kind": "waiting_time", "mean_accuracy": 0.2,
                 "name": "queue_wait"},
            ]
        )
        experiment = build_experiment(config)
        assert "queue_wait" in experiment.stats

    def test_quantile_spec_parsed(self):
        config = self.base_config(
            metrics=[{"kind": "response_time", "quantiles": {"0.9": 0.1}}]
        )
        experiment = build_experiment(config)
        assert experiment.stats["response_time"].quantile_targets == {0.9: 0.1}

    def test_config_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.base_config()))
        experiment = build_experiment(path)
        assert experiment.seed == 3

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_experiment({"metrics": [{"kind": "response_time"}]})
        with pytest.raises(ConfigError):
            build_experiment({"workload": {"name": "web"}})
        with pytest.raises(ConfigError):
            build_experiment(self.base_config(balancer="nope",
                                              servers={"count": 2}))
        with pytest.raises(ConfigError):
            build_experiment(
                self.base_config(metrics=[{"kind": "unknown_metric"}])
            )
        with pytest.raises(ConfigError):
            build_experiment(
                self.base_config(servers={"count": 1, "discipline": "nope"})
            )

    def test_disciplines_selectable(self):
        config = self.base_config(
            servers={"count": 1, "cores": 1, "discipline": "sjf"}
        )
        experiment = build_experiment(config)
        from repro.datacenter.disciplines import SJFQueue

        server = experiment.sources[0].target
        assert isinstance(server.queue, SJFQueue)


class TestLoadConfig:
    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestWorkloadClassConfigs:
    """cluster sections, gang workloads, and redundancy balancers."""

    def msj_config(self, **overrides):
        config = {
            "seed": 5,
            "warmup_samples": 200,
            "calibration_samples": 1000,
            "workload": {
                "label": "msj",
                "interarrival": {"type": "exponential", "rate": 4.0},
                "service": {"type": "exponential", "rate": 2.0},
                "servers_needed": {"type": "choice", "values": [1, 2],
                                   "weights": [0.5, 0.5]},
            },
            "cluster": {"servers": 4, "backfill": True},
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
        }
        config.update(overrides)
        return config

    def test_choice_distribution(self):
        from repro.distributions import Choice

        choice = build_distribution(
            {"type": "choice", "values": [1, 2, 4],
             "weights": [0.5, 0.3, 0.2]}
        )
        assert isinstance(choice, Choice)
        assert choice.mean() == pytest.approx(1.9)
        assert choice.max_value() == 4

    def test_workload_servers_needed(self):
        workload = build_workload({
            "interarrival": {"type": "exponential", "rate": 4.0},
            "service": {"type": "exponential", "rate": 2.0},
            "servers_needed": {"type": "choice", "values": [2]},
        })
        assert workload.mean_servers_needed == pytest.approx(2.0)

    def test_load_accounts_for_gang_size(self):
        # load 0.5 over 4 servers with E[k] = 2: the pool, not a single
        # server, carries rho = 0.5 in server-seconds.
        workload = build_workload({
            "interarrival": {"type": "exponential", "rate": 4.0},
            "service": {"type": "exponential", "rate": 2.0},
            "servers_needed": {"type": "choice", "values": [2]},
            "load": 0.5,
            "cores_for_load": 4,
        })
        assert workload.offered_load(cores=4) == pytest.approx(0.5)

    def test_cluster_section_builds_and_runs(self):
        from repro.datacenter.cluster import MultiserverCluster

        experiment = build_experiment(self.msj_config())
        entry = experiment.sources[0].target
        assert isinstance(entry, MultiserverCluster)
        assert entry.n_servers == 4
        assert entry.backfill
        result = experiment.run(max_events=60_000)
        assert result["response_time"].mean > 0

    def test_cluster_conflicts_with_servers(self):
        with pytest.raises(ConfigError, match="replaces"):
            build_experiment(self.msj_config(servers={"count": 2}))
        with pytest.raises(ConfigError, match="replaces"):
            build_experiment(self.msj_config(balancer="jsq"))

    def test_cluster_validates(self):
        with pytest.raises(ConfigError, match="cluster"):
            build_experiment(self.msj_config(cluster={"servers": 0}))
        with pytest.raises(ConfigError, match="object"):
            build_experiment(self.msj_config(cluster="big"))

    def clone_config(self, balancer, servers=None):
        return {
            "seed": 5,
            "warmup_samples": 200,
            "calibration_samples": 1000,
            "workload": {
                "label": "clone",
                "interarrival": {"type": "exponential", "rate": 5.0},
                "service": {"type": "exponential", "rate": 10.0},
            },
            "servers": servers or {"count": 3, "model": "ps"},
            "balancer": balancer,
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
        }

    def test_ps_server_model(self):
        from repro.datacenter.processor_sharing import ProcessorSharingServer

        config = self.clone_config("random")
        experiment = build_experiment(config)
        # 3 PS backends behind a classic balancer.
        balancer = experiment.sources[0].target
        assert all(
            isinstance(server, ProcessorSharingServer)
            for server in balancer.servers
        )

    def test_unknown_server_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            build_experiment(
                self.clone_config("random", servers={"count": 2,
                                                     "model": "quantum"})
            )

    def test_cloning_balancer_builds_and_runs(self):
        from repro.datacenter.balancers import CloningBalancer

        config = self.clone_config({"policy": "cloning", "clones": 2})
        experiment = build_experiment(config)
        balancer = experiment.sources[0].target
        assert isinstance(balancer, CloningBalancer)
        assert balancer.clones == 2
        result = experiment.run(max_events=60_000)
        assert result["response_time"].mean > 0
        assert balancer.cancelled_replicas > 0

    def test_single_server_dict_balancer_still_wraps(self):
        # A dict balancer spec must win over the single-server shortcut.
        from repro.datacenter.balancers import CloningBalancer

        config = self.clone_config({"policy": "cloning", "clones": 1},
                                   servers={"count": 1, "model": "ps"})
        experiment = build_experiment(config)
        assert isinstance(experiment.sources[0].target, CloningBalancer)

    def test_speculative_retry_builds(self):
        from repro.datacenter.balancers import SpeculativeRetryBalancer

        config = self.clone_config(
            {"policy": "spec_retry", "threshold": 0.2, "max_retries": 2}
        )
        balancer = build_experiment(config).sources[0].target
        assert isinstance(balancer, SpeculativeRetryBalancer)
        assert balancer.threshold == 0.2
        assert balancer.max_retries == 2

    def test_balancer_policy_errors(self):
        with pytest.raises(ConfigError, match="policy"):
            build_experiment(self.clone_config({"policy": "mirror"}))
        with pytest.raises(ConfigError, match="threshold"):
            build_experiment(self.clone_config({"policy": "spec_retry"}))
        with pytest.raises(ConfigError, match="does not build"):
            build_experiment(
                self.clone_config({"policy": "cloning", "clones": 9})
            )


# -- the trust boundary -------------------------------------------------------

#: Documents that build, between them reaching every section.
SERVERS_DOC = {
    "seed": 3,
    "warmup_samples": 200,
    "calibration_samples": 1500,
    "confidence": 0.9,
    "max_events": 100_000,
    "prefetch": True,
    "engine": "event",
    "workload": {
        "label": "fuzz",
        "interarrival": {"type": "exponential", "rate": 4.0},
        "service": {"type": "gamma", "mean": 0.1, "cv": 0.5},
        "load": 0.5,
    },
    "servers": {"count": 2, "cores": 2, "speed": 1.0, "discipline": "sjf"},
    "balancer": {"policy": "cloning", "clones": 2, "synchronized": True},
    "metrics": [
        {"kind": "response_time", "mean_accuracy": 0.1,
         "quantiles": {"0.95": 0.1}},
        {"kind": "waiting_time", "name": "wait", "mean_accuracy": 0.2},
    ],
}
CLUSTER_DOC = {
    "workload": {
        "name": "dns",
        "servers_needed": {"type": "choice", "values": [1, 2],
                           "weights": [0.5, 0.5]},
        "qps": 3.0,
    },
    "cluster": {"servers": 4, "speed": 2.0, "backfill": True},
    "metrics": [{"kind": "response_time"}],
}

#: (keys to overlay on BASE_DOC, the key path the error must name).
BASE_DOC = {
    "workload": {"name": "dns", "load": 0.5},
    "servers": {"count": 1, "cores": 1},
    "metrics": [{"kind": "response_time"}],
}
EXPONENTIAL = {"type": "exponential", "rate": 1.0}
MALFORMED = [
    ({"servers": 3}, "servers"),
    ({"metrics": [3]}, "metrics[0]"),
    ({"metrics": [{"kind": "response_time", "quantiles": [0.95]}]},
     "metrics[0].quantiles"),
    ({"metrics": [{"kind": "response_time", "quantiles": {"0.95": "x"}}]},
     "metrics[0].quantiles.0.95"),
    ({"workload": {"name": "dns", "load": "0.5"}}, "workload.load"),
    ({"servers": {"count": "2"}}, "servers.count"),
    ({"workload": {"interarrival": {"type": 3}, "service": EXPONENTIAL}},
     "workload.interarrival.type"),
    ({"seed": "x"}, "seed"),
    ({"seed": True}, "seed"),
    ({"workload": {"name": "nope"}}, "workload"),
    ({"metrics": [{"kind": "response_time", "mean_accuracy": 2}]},
     "metrics[0]"),
    # Unknown keys: refused, not silently ignored.
    ({"warmup_sample": 5}, "warmup_sample"),
    ({"servers": {"count": 1, "core": 4}}, "servers.core"),
    ({"workload": {"name": "dns", "laod": 0.5}}, "workload.laod"),
    ({"servers": None, "cluster": {"server": 4}}, "cluster.server"),
    ({"balancer": {"policy": "cloning", "clone": 2}}, "balancer.clone"),
    ({"metrics": [{"kind": "response_time", "quantile": 0.95}]},
     "metrics[0].quantile"),
    ({"workload": {"interarrival": dict(EXPONENTIAL, mean=1.0, cv=2.0),
                   "service": EXPONENTIAL}}, "workload.interarrival.cv"),
    ({"workload": {"interarrival": dict(EXPONENTIAL, mean=1.0),
                   "service": EXPONENTIAL}}, "workload.interarrival"),
    # Not a finite number: the run used to die mid-way in the histogram.
    ({"servers": {"speed": float("nan")}}, "servers.speed"),
]


def malformed(overlay):
    document = {**BASE_DOC, **overlay}
    return {key: value for key, value in document.items() if value is not None}


class TestTrustBoundary:
    def test_reference_documents_build(self):
        for document in (SERVERS_DOC, CLUSTER_DOC, BASE_DOC):
            assert isinstance(build_experiment(document), Experiment)

    @pytest.mark.parametrize("overlay, where", MALFORMED)
    def test_malformed_document_is_a_config_error(self, overlay, where):
        with pytest.raises(ConfigError) as refusal:
            build_experiment(malformed(overlay))
        assert str(refusal.value).startswith(where)

    @pytest.mark.parametrize("overlay, where", MALFORMED)
    def test_malformed_document_through_the_cli(
        self, overlay, where, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(malformed(overlay)))
        # --lint: a finding and exit 1, not a clean pass.
        (finding,) = lint_config(malformed(overlay))
        assert finding.rule == "spec-error" and where in finding.message
        assert repro_main(["run", str(path), "--lint"]) == 1
        assert "spec-error" in capsys.readouterr().out
        # Without it: one line on stderr and exit 2, no traceback.
        assert repro_main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"run: cannot load {path}: {where}")
        assert captured.err.count("\n") == 1

    def test_non_object_document_is_refused_at_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps("workload.json"))
        with pytest.raises(ConfigError, match="must hold an object"):
            load_config(path)

    def test_lint_agrees_with_the_builder_on_the_pool(self):
        # The pool is cluster.servers x cluster.speed here; a lint that
        # re-derived it from `servers` would call this unstable.
        assert lint_config(CLUSTER_DOC) == []


#: Replacement values, at least one of every JSON kind.
JUNK = [None, True, 0, -1, 3, 0.5, 1e308, "", "x", "0.5", [], [0.95], {},
        {"a": 1}, [{"kind": "response_time"}]]
NEW_KEYS = ["core", "warmup_sample", "rate", "type", "name", "servers", "x"]


def containers(node, path=()):
    """Every dict and list in the document, with the path to it."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from containers(value, path + (key,))


def at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def mutated_documents(draw, documents=(SERVERS_DOC, CLUSTER_DOC),
                      new_keys=NEW_KEYS):
    """One of ``documents`` with a key dropped, added or swapped for
    junk, or a value nested wrongly (tests/test_sweep.py reuses it)."""
    document = copy.deepcopy(draw(st.sampled_from(list(documents))))
    holder = at(document, draw(st.sampled_from(list(containers(document)))))
    keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
    what = draw(st.sampled_from(["drop", "add", "swap", "nest"]))
    if what == "add" and isinstance(holder, dict):
        holder[draw(st.sampled_from(new_keys))] = draw(st.sampled_from(JUNK))
    elif what == "add":
        holder.append(draw(st.sampled_from(JUNK)))
    elif keys:
        key = draw(st.sampled_from(keys))
        if what == "drop":
            del holder[key]
        elif what == "swap":
            holder[key] = draw(st.sampled_from(JUNK))
        else:  # nest wrongly: a level too deep, or a sibling's content
            holder[key] = draw(st.sampled_from([
                [holder[key]], {key: holder[key]},
                copy.deepcopy(at(document, draw(st.sampled_from(
                    list(containers(document))
                )))),
            ]))
    return document


class TestFuzz:
    # The per-example deadline is the time box: a builder that stalls on
    # some document fails here instead of hanging the suite.
    @settings(max_examples=400, deadline=2000, derandomize=True)
    @given(document=mutated_documents())
    def test_mutated_document_builds_or_is_refused(self, document):
        try:
            experiment = build_experiment(document)
        except ConfigError:
            return
        assert isinstance(experiment, Experiment)

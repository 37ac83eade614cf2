"""Tests for result serialization."""

import json

import pytest

from repro.engine.report import estimate_to_dict, result_to_dict


@pytest.fixture
def converged_result(mm1_experiment):
    experiment, server = mm1_experiment
    experiment.track_response_time(
        server, mean_accuracy=0.1, quantiles={0.95: 0.1}
    )
    return experiment.run()


class TestSerialization:
    def test_result_dict_shape(self, converged_result):
        payload = result_to_dict(converged_result)
        assert payload["converged"] is True
        metric = payload["metrics"]["response_time"]
        assert metric["mean"] > 0
        assert "0.95" in metric["quantiles"]
        assert metric["lag"] >= 1
        json.dumps(payload)  # must be JSON-safe end to end

    def test_estimate_dict_unconverged(self):
        from repro.core.statistic import Estimate, Phase

        estimate = Estimate(
            name="x", phase=Phase.WARMUP, converged=False, lag=None,
            accepted=0, observed=10,
        )
        payload = estimate_to_dict(estimate)
        assert payload["mean"] is None
        assert payload["mean_ci"] is None
        json.dumps(payload)

    def test_save_load_roundtrip(self, converged_result):
        # What ``repro run`` writes with json.dump reads back unchanged.
        payload = result_to_dict(converged_result)
        assert json.loads(json.dumps(payload)) == payload

    def test_quantile_cis_serialized(self, converged_result):
        payload = result_to_dict(converged_result)
        ci = payload["metrics"]["response_time"]["quantile_ci"]["0.95"]
        assert ci[0] < ci[1]

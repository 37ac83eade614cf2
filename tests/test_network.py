"""Tests for probabilistic routing networks and the traffic equations
(the Jackson product form is judged by the acceptance grid)."""

import pytest

from repro.datacenter.job import Job
from repro.datacenter.network import NetworkError, RoutingNetwork
from repro.datacenter.server import Server
from repro.distributions import Deterministic
from repro.engine.simulation import Simulation
from repro.theory import TheoryError, traffic_equations


class TestTrafficEquations:
    def test_tandem(self):
        # gamma -> s0 -> s1 -> out
        rates = traffic_equations([5.0, 0.0], [[0.0, 1.0], [0.0, 0.0]])
        assert rates == [pytest.approx(5.0), pytest.approx(5.0)]

    def test_feedback(self):
        # Single station, 50% feedback: lambda = gamma / (1 - 0.5).
        rates = traffic_equations([4.0], [[0.5]])
        assert rates[0] == pytest.approx(8.0)

    def test_split(self):
        rates = traffic_equations(
            [9.0, 0.0, 0.0],
            [[0.0, 2.0 / 3.0, 1.0 / 3.0],
             [0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0]],
        )
        assert rates[1] == pytest.approx(6.0)
        assert rates[2] == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(TheoryError):
            traffic_equations([1.0], [[0.5, 0.5]])
        with pytest.raises(TheoryError):
            traffic_equations([-1.0], [[0.0]])
        with pytest.raises(TheoryError):
            traffic_equations([1.0], [[1.0]])  # never drains


class TestRoutingNetwork:
    def test_validation(self):
        with pytest.raises(NetworkError):
            RoutingNetwork([], [])
        with pytest.raises(NetworkError):
            RoutingNetwork([Server()], [[0.5, 0.5]])
        with pytest.raises(NetworkError):
            RoutingNetwork([Server()], [[1.5]])
        with pytest.raises(NetworkError):
            RoutingNetwork([Server()], [[-0.1]])
        network = RoutingNetwork([Server()], [[0.0]])
        with pytest.raises(NetworkError):
            network.arrive(Job(1, size=1.0))  # not bound

    def test_tandem_routing(self):
        sim = Simulation(seed=1)
        first = Server(service_distribution=Deterministic(0.5), name="a")
        second = Server(service_distribution=Deterministic(0.25), name="b")
        network = RoutingNetwork([first, second], [[0.0, 1.0], [0.0, 0.0]])
        network.bind(sim)
        exits = []
        network.on_exit(lambda job: exits.append(job))
        job = Job(1)
        job.arrival_time = 0.0
        sim.schedule_at(0.0, lambda: network.arrive(job))
        sim.run()
        assert exits and exits[0] is job
        assert job.response_time == pytest.approx(0.75)
        assert job.stages_completed == 1

    def test_feedback_revisits(self):
        sim = Simulation(seed=7)
        station = Server(service_distribution=Deterministic(0.1))
        network = RoutingNetwork([station], [[0.5]])
        network.bind(sim)
        completions = []
        network.on_exit(lambda job: completions.append(job))
        for index in range(200):
            job = Job(index + 1)
            sim.schedule_at(index * 10.0, lambda j=job: network.arrive(j))
        sim.run()
        assert len(completions) == 200
        # Mean visits per job = 1 / (1 - 0.5) = 2.
        mean_visits = station.completed_jobs / 200.0
        assert mean_visits == pytest.approx(2.0, rel=0.2)

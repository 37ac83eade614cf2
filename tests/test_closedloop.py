"""Tests for closed-loop (think-time) clients."""

import pytest

from repro.datacenter.closedloop import ClosedLoopClients
from repro.datacenter.server import Server
from repro.distributions import Deterministic, Exponential
from repro.engine.simulation import Simulation
from repro.theory import interactive_response_time


def make_loop(n_clients, think_mean=1.0, service_mean=0.1, seed=5,
              cores=1):
    sim = Simulation(seed=seed)
    server = Server(cores=cores)
    clients = ClosedLoopClients(
        n_clients,
        think_time=Exponential.from_mean(think_mean),
        service=Exponential.from_mean(service_mean),
        target=server,
    )
    clients.bind(sim)
    return sim, server, clients


class TestMechanics:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopClients(0, Deterministic(1.0), Deterministic(1.0),
                              Server())

    def test_double_bind_rejected(self):
        clients = ClosedLoopClients(
            1, Deterministic(1.0), Deterministic(1.0), Server()
        )
        clients.bind(Simulation(seed=1))
        with pytest.raises(RuntimeError):
            clients.bind(Simulation(seed=2))

    def test_population_conserved(self):
        sim, server, clients = make_loop(5)
        sim.run(until=50.0)
        in_flight = clients.n_clients - clients.thinking
        assert 0 <= in_flight <= 5
        assert in_flight == server.outstanding

    def test_single_client_cycles_deterministically(self):
        sim = Simulation(seed=1)
        server = Server()
        clients = ClosedLoopClients(
            1, Deterministic(1.0), Deterministic(0.5), server
        )
        clients.bind(sim)
        sim.run(until=10.0)
        # Cycle = 1.0 think + 0.5 service: completions at 1.5, 3.0, ...
        assert clients.completed == 6

    def test_cycle_listener(self):
        sim = Simulation(seed=1)
        server = Server()
        clients = ClosedLoopClients(
            2, Deterministic(1.0), Deterministic(0.5), server
        )
        clients.bind(sim)
        responses = []
        clients.on_cycle_complete(lambda job: responses.append(job.response_time))
        sim.run(until=5.0)
        assert responses
        assert all(r >= 0.5 for r in responses)

    def test_ignores_foreign_jobs(self):
        sim = Simulation(seed=1)
        server = Server(cores=2)
        clients = ClosedLoopClients(
            1, Deterministic(10.0), Deterministic(0.1), server
        )
        clients.bind(sim)
        from repro.datacenter.job import Job

        foreign = Job(999_999, size=0.5)
        sim.schedule_at(0.5, lambda: server.arrive(foreign))
        sim.run(until=5.0)
        # Foreign completion did not count as a client cycle.
        assert clients.completed == 0


class TestInteractiveLaw:
    def test_self_throttling(self):
        # Doubling the population less than doubles offered throughput
        # once the server saturates (closed-loop self-throttling).
        _, _, few = make_loop(2, think_mean=0.1, service_mean=0.1, seed=11)
        few_sim = few.sim
        few_sim.run(until=500.0)
        _, _, many = make_loop(16, think_mean=0.1, service_mean=0.1, seed=12)
        many.sim.run(until=500.0)
        assert many.throughput() < 8 * few.throughput()
        # The server's saturation rate (1 / 0.1 = 10/s) bounds throughput.
        assert many.throughput() <= 10.5

    def test_law_validation(self):
        with pytest.raises(ValueError):
            interactive_response_time(5, 0.0, 1.0)
        with pytest.raises(ValueError):
            interactive_response_time(0, 1.0, 1.0)

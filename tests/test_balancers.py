"""Unit tests for load balancers."""

import pytest

from repro.datacenter.balancers import (
    JoinShortestQueue,
    PowerOfTwoChoices,
    RandomBalancer,
    RoundRobinBalancer,
)
from repro.datacenter.job import Job
from repro.datacenter.server import Server
from repro.engine.simulation import Simulation


def make_pool(n=3, cores=1):
    return [Server(cores=cores, name=f"s{i}") for i in range(n)]


def send_jobs(sim, balancer, n, size=100.0):
    for index in range(n):
        job = Job(index + 1, size=size)
        sim.schedule_at(0.0, lambda j=job: balancer.arrive(j))
    sim.run(until=0.1)


class TestCommon:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            RandomBalancer([])

    def test_bind_binds_backends(self):
        sim = Simulation(seed=1)
        servers = make_pool()
        balancer = RoundRobinBalancer(servers)
        balancer.bind(sim)
        assert all(server.sim is sim for server in servers)

    def test_double_bind_rejected(self):
        balancer = RoundRobinBalancer(make_pool())
        balancer.bind(Simulation(seed=1))
        with pytest.raises(RuntimeError):
            balancer.bind(Simulation(seed=2))

    @pytest.mark.parametrize("policy", [RandomBalancer, PowerOfTwoChoices])
    def test_repeat_bind_keeps_the_random_stream(self, policy):
        # Two sources feeding one balancer bind it twice; the second call
        # must not swap in a fresh stream and shift the seed lineage.
        sim = Simulation(seed=1)
        balancer = policy(make_pool())
        balancer.bind(sim)
        rng = balancer._rng
        balancer.bind(sim)
        assert balancer._rng is rng

    def test_on_complete_attaches_everywhere(self):
        sim = Simulation(seed=1)
        balancer = RoundRobinBalancer(make_pool())
        balancer.bind(sim)
        done = []
        balancer.on_complete(lambda job, srv: done.append(srv.name))
        for index, server in enumerate(balancer.servers):
            job = Job(index + 1, size=0.5)
            sim.schedule_at(0.0, lambda j=job, s=server: s.arrive(j))
        sim.run()
        assert sorted(done) == ["s0", "s1", "s2"]


class TestRoundRobin:
    def test_cycles(self):
        sim = Simulation(seed=1)
        balancer = RoundRobinBalancer(make_pool(3))
        balancer.bind(sim)
        send_jobs(sim, balancer, 6)
        assert [s.outstanding for s in balancer.servers] == [2, 2, 2]
        assert balancer.dispatched == 6


class TestRandom:
    def test_spreads_jobs(self):
        sim = Simulation(seed=7)
        balancer = RandomBalancer(make_pool(3))
        balancer.bind(sim)
        send_jobs(sim, balancer, 300)
        counts = [s.outstanding for s in balancer.servers]
        assert sum(counts) == 300
        assert all(count > 50 for count in counts)

    def test_deterministic_under_seed(self):
        def route(seed):
            sim = Simulation(seed=seed)
            balancer = RandomBalancer(make_pool(3))
            balancer.bind(sim)
            send_jobs(sim, balancer, 30)
            return [s.outstanding for s in balancer.servers]

        assert route(5) == route(5)


class TestJSQ:
    def test_picks_least_loaded(self):
        sim = Simulation(seed=1)
        servers = make_pool(3)
        balancer = JoinShortestQueue(servers)
        balancer.bind(sim)
        # Preload server 0 with two jobs, server 1 with one.
        for index, count in enumerate((2, 1, 0)):
            for j in range(count):
                job = Job(100 + index * 10 + j, size=100.0)
                sim.schedule_at(0.0, lambda jb=job, s=servers[index]: s.arrive(jb))
        sim.run(until=0.1)
        job = Job(999, size=100.0)
        balancer.arrive(job)
        assert servers[2].outstanding == 1

    def test_balances_evenly(self):
        sim = Simulation(seed=1)
        balancer = JoinShortestQueue(make_pool(4))
        balancer.bind(sim)
        send_jobs(sim, balancer, 8)
        assert [s.outstanding for s in balancer.servers] == [2, 2, 2, 2]


class TestPowerOfTwoChoices:
    def test_spreads_better_than_random(self):
        def imbalance(balancer_cls, seed=9):
            sim = Simulation(seed=seed)
            balancer = balancer_cls(make_pool(8))
            balancer.bind(sim)
            send_jobs(sim, balancer, 400)
            counts = [s.outstanding for s in balancer.servers]
            return max(counts) - min(counts)

        assert imbalance(PowerOfTwoChoices) < imbalance(RandomBalancer)

    def test_single_server_degenerate(self):
        sim = Simulation(seed=1)
        balancer = PowerOfTwoChoices(make_pool(1))
        balancer.bind(sim)
        send_jobs(sim, balancer, 3)
        assert balancer.servers[0].outstanding == 3

    def test_all_jobs_dispatched(self):
        sim = Simulation(seed=2)
        balancer = PowerOfTwoChoices(make_pool(5))
        balancer.bind(sim)
        send_jobs(sim, balancer, 100)
        assert sum(s.outstanding for s in balancer.servers) == 100

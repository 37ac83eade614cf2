"""Unit tests for queueing disciplines."""

import pytest

from repro.datacenter.disciplines import FCFSQueue, LIFOQueue, SJFQueue
from repro.datacenter.job import Job


def jobs(*sizes):
    return [Job(i, size=s) for i, s in enumerate(sizes)]


class TestFCFS:
    def test_order(self):
        queue = FCFSQueue()
        a, b, c = jobs(3.0, 1.0, 2.0)
        for job in (a, b, c):
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == [a, b, c]

    def test_empty_pop(self):
        assert FCFSQueue().pop() is None

    def test_len(self):
        queue = FCFSQueue()
        assert len(queue) == 0
        queue.push(Job(1, size=1.0))
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_remove(self):
        queue = FCFSQueue()
        a, b, c = jobs(1.0, 2.0, 3.0)
        for job in (a, b):
            queue.push(job)
        assert queue.remove(a)
        assert not queue.remove(a)
        assert not queue.remove(c)
        assert [queue.pop(), queue.pop()] == [b, None]


class TestLIFO:
    def test_order(self):
        queue = LIFOQueue()
        a, b, c = jobs(1.0, 2.0, 3.0)
        for job in (a, b, c):
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == [c, b, a]

    def test_empty_pop(self):
        assert LIFOQueue().pop() is None

    def test_remove(self):
        queue = LIFOQueue()
        a, b, c, d = jobs(1.0, 2.0, 3.0, 4.0)
        for job in (a, b, c):
            queue.push(job)
        assert queue.remove(b)
        assert not queue.remove(b)
        assert not queue.remove(d)
        assert len(queue) == 2
        assert [queue.pop() for _ in range(3)] == [c, a, None]


class TestSJF:
    def test_order_by_size(self):
        queue = SJFQueue()
        a, b, c = jobs(3.0, 1.0, 2.0)
        for job in (a, b, c):
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == [b, c, a]

    def test_ties_by_arrival_order(self):
        queue = SJFQueue()
        a, b = jobs(1.0, 1.0)
        queue.push(a)
        queue.push(b)
        assert queue.pop() is a

    def test_sizeless_rejected(self):
        with pytest.raises(ValueError):
            SJFQueue().push(Job(1))

    def test_empty_pop(self):
        assert SJFQueue().pop() is None

    def test_remove_present_and_absent(self):
        queue = SJFQueue()
        a, b = jobs(1.0, 2.0)
        queue.push(a)
        assert not queue.remove(b)
        assert queue.remove(a)
        assert not queue.remove(a)
        assert len(queue) == 0 and queue.pop() is None

    def test_remove_middle_keeps_size_order(self):
        queue = SJFQueue()
        sized = jobs(5.0, 1.0, 4.0, 2.0, 3.0, 2.0)
        for job in sized:
            queue.push(job)
        middle = sized[4]  # size 3.0: third of six by size
        assert queue.remove(middle)
        popped = [queue.pop() for _ in range(5)]
        # By size, ties by arrival: 1.0, 2.0 (#3), 2.0 (#5), 4.0, 5.0.
        assert popped == [sized[1], sized[3], sized[5], sized[2], sized[0]]
        assert queue.pop() is None

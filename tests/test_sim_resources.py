"""Unit tests for the Resource primitive."""

import pytest

from repro.sim import Environment, Resource, SimulationError


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            starts.append((tag, env.now))
            yield env.timeout(hold)

    env.process(user("a", 5.0))
    env.process(user("b", 5.0))
    env.process(user("c", 5.0))
    env.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(10.0)

    for i, tag in enumerate(["first", "second", "third"]):
        env.process(user(tag, float(i)))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_utilization_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=4)
    checks = []

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    def observer():
        yield env.timeout(0.5)
        checks.append((res.count, res.queue_length, res.utilization))

    for _ in range(6):
        env.process(user())
    env.process(observer())
    env.run()
    assert checks == [(4, 2, 1.0)]


def test_resource_release_while_queued_withdraws():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def quitter():
        req = res.request()
        yield env.timeout(1.0)
        req.release()  # gives up before being granted

    def patient():
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            order.append(env.now)

    env.process(holder())
    env.process(quitter())
    env.process(patient())
    env.run()
    assert order == [10.0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)

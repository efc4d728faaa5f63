"""Tests for load patterns, user populations, and the generator."""

from types import SimpleNamespace

import pytest

from repro.apps import build_app
from repro.cluster import Cluster, TokenBucket
from repro.core import Deployment, simulate
from repro.arch import XEON
from repro.sim import Environment, RandomStreams
from repro.workload import (
    OpenLoopGenerator,
    UserPopulation,
    constant,
    diurnal,
    ramp,
    step,
    trace_replay,
)


# -- patterns -----------------------------------------------------------

def test_constant_pattern():
    fn = constant(100.0)
    assert fn(0.0) == fn(1e6) == 100.0
    with pytest.raises(ValueError):
        constant(0.0)


def test_diurnal_oscillates_between_base_and_peak():
    fn = diurnal(base_qps=10.0, peak_qps=100.0, period=100.0, peak_at=0.5)
    values = [fn(t) for t in range(0, 100, 5)]
    assert min(values) >= 10.0 - 1e-9
    assert max(values) <= 100.0 + 1e-9
    assert fn(50.0) == pytest.approx(100.0)  # peak at half period
    assert fn(0.0) == pytest.approx(10.0)    # trough at start
    with pytest.raises(ValueError):
        diurnal(10.0, 5.0, 100.0)


def test_step_pattern():
    fn = step(10.0, 50.0, at=30.0)
    assert fn(29.9) == 10.0
    assert fn(30.0) == 50.0


def test_ramp_pattern():
    fn = ramp(10.0, 110.0, duration=100.0)
    assert fn(0.0) == pytest.approx(10.0)
    assert fn(50.0) == pytest.approx(60.0)
    assert fn(200.0) == pytest.approx(110.0)


def test_trace_replay_interpolates():
    fn = trace_replay([(0.0, 10.0), (10.0, 30.0), (20.0, 10.0)])
    assert fn(-5.0) == 10.0
    assert fn(5.0) == pytest.approx(20.0)
    assert fn(10.0) == pytest.approx(30.0)
    assert fn(99.0) == 10.0
    with pytest.raises(ValueError):
        trace_replay([(0.0, 10.0)])


# -- user population ------------------------------------------------------

def test_uniform_population_zero_skew():
    pop = UserPopulation(1000, zipf_s=0.0, rng=RandomStreams(1))
    # Uniform: 90% of mass needs 90% of users -> skew = 10.
    assert pop.skew_percent() == pytest.approx(10.0, abs=1.0)


def test_skewed_population_high_skew():
    pop = UserPopulation(1000, zipf_s=2.5, rng=RandomStreams(1))
    assert pop.skew_percent() > 90.0


def test_with_skew_hits_target():
    for target in (30.0, 60.0, 90.0):
        pop = UserPopulation.with_skew(2000, target, rng=RandomStreams(2))
        assert pop.skew_percent() == pytest.approx(target, abs=4.0)


def test_with_skew_zero_is_uniform():
    pop = UserPopulation.with_skew(100, 0.0, rng=RandomStreams(2))
    assert pop.zipf_s == 0.0


def test_next_user_in_range():
    pop = UserPopulation(50, zipf_s=1.0, rng=RandomStreams(3))
    for _ in range(200):
        assert 0 <= pop.next_user() < 50


def test_population_validation():
    with pytest.raises(ValueError):
        UserPopulation(0, 1.0)
    pop = UserPopulation(10, 1.0)
    with pytest.raises(ValueError):
        pop.skew_percent(mass=1.5)
    with pytest.raises(ValueError):
        UserPopulation.with_skew(10, 100.0)


# -- generator ----------------------------------------------------------

def tiny_deployment(seed=0):
    env = Environment()
    app = build_app("social_network")
    cluster = Cluster.homogeneous(env, XEON, 4)
    return Deployment(env, app, cluster, seed=seed)


def test_generator_open_loop_rate():
    dep = tiny_deployment()
    gen = OpenLoopGenerator(dep, constant(200.0), seed=5)
    gen.start(10.0)
    dep.env.run(until=10.0)
    # Poisson(200/s * 10s): issued should be within a few sigma of 2000.
    assert 1700 < gen.issued < 2300


def test_generator_respects_mix():
    dep = tiny_deployment()
    gen = OpenLoopGenerator(dep, constant(300.0),
                            mix={"login": 1.0}, seed=6)
    gen.start(5.0)
    dep.env.run(until=5.0)
    assert set(dep.collector.per_operation.keys()) == {"login"}


def test_generator_unknown_mix_operation():
    dep = tiny_deployment()
    with pytest.raises(ValueError, match="unknown operation"):
        OpenLoopGenerator(dep, constant(10.0), mix={"teleport": 1.0})


def test_generator_rate_limiter_drops():
    dep = tiny_deployment()
    limiter = TokenBucket(dep.env, rate_per_s=50.0, burst=5)
    gen = OpenLoopGenerator(dep, constant(500.0), rate_limiter=limiter,
                            seed=7)
    gen.start(5.0)
    dep.env.run(until=5.0)
    assert gen.dropped > 0
    assert gen.issued < 500 * 5
    assert limiter.drop_fraction > 0.5


def test_generator_user_attribution():
    dep = tiny_deployment()
    users = UserPopulation(100, zipf_s=1.5, rng=RandomStreams(8))
    gen = OpenLoopGenerator(dep, constant(100.0), users=users, seed=8)
    gen.start(3.0)
    dep.env.run(until=3.0)
    seen_users = {t.user for t in dep.collector.traces}
    assert len(seen_users) > 1
    assert all(u is not None for u in seen_users)


def test_generator_validation():
    dep = tiny_deployment()
    gen = OpenLoopGenerator(dep, constant(10.0))
    with pytest.raises(ValueError):
        gen.start(0.0)
    gen.start(1.0)
    with pytest.raises(RuntimeError):
        gen.start(1.0)


# -- a crash on the request path fails the run ----------------------------

class RequestPathBug(RuntimeError):
    """Stands for any defect in deployment or region code."""


@pytest.fixture
def buggy_request_path(monkeypatch):
    def sample_work(self, *args):
        raise RequestPathBug("bug on the request path")
    monkeypatch.setattr(Deployment, "_sample_work", sample_work)


def test_a_crashing_request_fails_simulate(buggy_request_path):
    with pytest.raises(RequestPathBug):
        simulate(build_app("social_network"), qps=20, duration=0.5,
                 n_machines=4, seed=1)


def test_a_crashing_request_fails_a_region_run(buggy_request_path):
    from repro.region import run_region_scenario
    with pytest.raises(RequestPathBug):
        run_region_scenario("social_network", qps=20, duration=0.5,
                            metrics=False)


def test_a_crashing_hedge_loser_fails_the_run():
    """The primary crashes after the backup has won and been collected:
    nothing waits on it any more, and the run must still fail."""
    env = Environment()
    collected = []

    def primary():
        yield env.timeout(1.0)
        raise RequestPathBug("late crash in the losing attempt")

    def backup():
        yield env.timeout(0.01)
        return "backup trace"

    attempts = iter([primary, backup])
    deployment = SimpleNamespace(
        env=env, app=SimpleNamespace(operations={"op": None}),
        collector=SimpleNamespace(
            collect=lambda trace, latency_override: collected.append(
                trace)),
        execute=lambda op, user=None, collect=True: env.process(
            next(attempts)()))
    gen = OpenLoopGenerator(deployment, constant(1.0), mix={"op": 1.0},
                            hedge_after=0.1)
    env.process(gen._hedged("op", None))
    with pytest.raises(RequestPathBug):
        env.run(until=2.0)
    assert collected == ["backup trace"]

"""Tests for the dependency-aware (trace-driven) autoscaler."""

import dataclasses

import pytest

from repro.arch import XEON
from repro.cluster import Cluster, DependencyAwareAutoscaler, UtilizationAutoscaler
from repro.core import Deployment, run_experiment
from repro.services import Application, CallNode, Operation, Protocol, seq
from repro.services.datastores import memcached, nginx
from repro.sim import Environment


def two_tier():
    """HTTP two-tier app where nginx blocks on a slow cache (the
    Fig. 17 case B pathology): finite sync worker pools on both tiers."""
    web = dataclasses.replace(nginx("web", work_mean=2e-3),
                              max_workers=16)
    cache = dataclasses.replace(memcached("cache").scaled(20),
                                max_workers=8)
    return Application(
        name="two-tier",
        services={"web": web, "cache": cache},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        protocol=Protocol.HTTP,
        qos_latency=0.06)


def run_with(scaler_cls, stall=0.04, seed=51, **scaler_kwargs):
    env = Environment()
    deployment = Deployment(env, two_tier(),
                            Cluster.homogeneous(env, XEON, 6),
                            cores={"web": 2, "cache": 4}, seed=seed)
    scaler = scaler_cls(env, deployment, period=3.0, startup_delay=5.0,
                        **scaler_kwargs)
    scaler.start()

    def inject():
        yield env.timeout(20.0)
        if stall > 0:
            deployment.delay_service("cache", stall)

    env.process(inject())
    result = run_experiment(deployment, 300, duration=90.0, warmup=5.0,
                            seed=seed + 1)
    return deployment, scaler, result


def test_depscaler_validation():
    env = Environment()
    deployment = Deployment(env, two_tier(),
                            Cluster.homogeneous(env, XEON, 2))
    with pytest.raises(ValueError):
        DependencyAwareAutoscaler(env, deployment, period=0.0)
    with pytest.raises(ValueError):
        DependencyAwareAutoscaler(env, deployment,
                                  inflation_threshold=0.9)
    scaler = DependencyAwareAutoscaler(env, deployment)
    scaler.start()
    with pytest.raises(RuntimeError):
        scaler.start()


@pytest.fixture(scope="module")
def backpressure_runs():
    """The dependency-aware and the utilization scaler on the same 90 s
    backpressure run.  Both runs are deterministic, so the two tests
    below share one copy instead of simulating each twice."""
    return (run_with(DependencyAwareAutoscaler),
            run_with(UtilizationAutoscaler, scale_out_threshold=0.7,
                     cooldown=5.0))


def test_depscaler_scales_the_culprit_not_the_victim(backpressure_runs):
    """Under backpressure the trace-driven scaler identifies the slow
    cache — the utilization scaler scales blocked nginx instead."""
    (_, dep_scaler, _), (_, util_scaler, _) = backpressure_runs
    scaled = {e.service for e in dep_scaler.events}
    assert "cache" in scaled
    assert "web" not in scaled

    util_scaled = {e.service for e in util_scaler.events
                   if e.action == "scale_out"}
    assert "web" in util_scaled


def test_depscaler_restores_qos_faster_than_utilization(backpressure_runs):
    """Scaling the culprit resolves the violation; scaling the victim
    does not (Fig. 17's case B, with the fix the paper calls for)."""
    (_, _, dep_result), (_, _, util_result) = backpressure_runs
    dep_late = dep_result.collector.end_to_end.tail(0.95, start=70.0)
    util_late = util_result.collector.end_to_end.tail(0.95, start=70.0)
    assert dep_late < util_late


def test_depscaler_idle_when_qos_met():
    _, scaler, _ = run_with(DependencyAwareAutoscaler, stall=0.0)
    assert scaler.events == []


def test_depscaler_respects_max_instances():
    _, scaler, _ = run_with(DependencyAwareAutoscaler, stall=0.2,
                            max_instances=2)
    deployment = scaler.deployment
    for service in deployment.service_names():
        assert len(deployment.instances_of(service)) <= 2

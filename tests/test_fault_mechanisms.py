"""Tests for the fault/behavior mechanisms behind Figs. 15, 17, 19, 20:
kernel congestion, pure-latency stalls, per-operation slowdowns, and
synchronous busy-wait workers."""

import dataclasses

import pytest

from repro.arch import XEON
from repro.cluster import Cluster, Machine, ServiceInstance
from repro.core import Deployment, run_experiment
from repro.net import NetworkFabric, RPC_COSTS
from repro.services import (
    Application,
    CallNode,
    Operation,
    Protocol,
    seq,
)
from repro.services.datastores import memcached, nginx
from repro.sim import Environment


def two_tier(protocol=Protocol.RPC, workers=None):
    web = nginx("web")
    if workers is not None:
        web = dataclasses.replace(web, max_workers=workers)
    return Application(
        name="two-tier",
        services={"web": web, "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        protocol=protocol,
        qos_latency=0.05)


def deploy(app=None, **kwargs):
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 3)
    return Deployment(env, app or two_tier(), cluster, **kwargs)


# -- kernel congestion -------------------------------------------------------

def sender_charge(coeff, loaded):
    """Nominal kernel CPU seconds a transfer charges its sender."""
    env = Environment()
    inst = ServiceInstance(env, nginx("web"), Machine(env, "m", XEON),
                           cores=1)
    peer = ServiceInstance(env, nginx("db"), Machine(env, "n", XEON),
                           cores=1)
    if loaded:
        inst.cpu.service(10.0)  # one job -> instantaneous util 1.0
    fabric = NetworkFabric(env, congestion_coeff=coeff)
    env.process(fabric.transfer(inst, peer, 1.0, RPC_COSTS))
    env.run(until=0.0)  # the charge is made as the send is submitted
    return inst.net_cpu_seconds * inst.cpu.rate


def test_congestion_inflates_cost_with_utilization():
    base = RPC_COSTS.send_cost(1.0)
    # Idle instance: no inflation.
    assert sender_charge(1.5, loaded=False) == pytest.approx(base)
    # Load the CPU and check the multiplier.
    assert sender_charge(1.5, loaded=True) == pytest.approx(base * 2.5)


def test_congestion_disabled_with_zero_coeff():
    base = RPC_COSTS.send_cost(1.0)
    assert sender_charge(0.0, loaded=True) == pytest.approx(base)


# -- pure-latency stalls -----------------------------------------------------

def test_delay_service_adds_latency_without_cpu():
    dep = deploy(seed=111)
    dep.delay_service("cache", 0.05)
    result = run_experiment(dep, 20, duration=6.0, seed=112)
    assert result.mean_latency() > 0.05
    # The stalled tier's CPU stays nearly idle.
    cache_busy = sum(i.cpu.busy_time()
                     for i in dep.instances_of("cache"))
    assert cache_busy < 0.05 * 6.0


def test_delay_service_validation():
    dep = deploy()
    with pytest.raises(ValueError):
        dep.delay_service("cache", -1.0)


def test_delay_service_rejects_unknown_service():
    dep = deploy()
    with pytest.raises(KeyError, match="mongo-cache"):
        dep.delay_service("mongo-cache", 0.01)
    assert "mongo-cache" not in dep.service_names()
    with pytest.raises(KeyError, match="mongo-cache"):
        dep.tier("mongo-cache")


def test_slow_down_service_rejects_unknown_service():
    dep = deploy()
    with pytest.raises(KeyError, match="mongo-cache"):
        dep.slow_down_service("mongo-cache", 2.0)
    assert "mongo-cache" not in dep.service_names()
    with pytest.raises(KeyError, match="mongo-cache"):
        dep.tier("mongo-cache")


# -- per-operation slowdown ----------------------------------------------------

def test_slow_down_operation_targets_one_request_type():
    app = Application(
        name="two-op",
        services={"web": nginx("web"), "cache": memcached("cache")},
        operations={
            "fast": Operation(name="fast", root=CallNode(service="web")),
            "slow": Operation(name="slow", root=CallNode(service="web")),
        },
        qos_latency=0.05)
    dep = deploy(app, seed=113)
    dep.slow_down_operation("slow", 20.0)
    run_experiment(dep, 100, duration=6.0,
                   mix={"fast": 0.5, "slow": 0.5}, seed=114)
    fast = dep.collector.per_operation["fast"].mean(start=1.0)
    slow = dep.collector.per_operation["slow"].mean(start=1.0)
    assert slow > 5.0 * fast


def test_slow_down_operation_validation():
    dep = deploy()
    with pytest.raises(KeyError):
        dep.slow_down_operation("teleport", 2.0)
    with pytest.raises(ValueError):
        dep.slow_down_operation("get", 0.0)


# -- synchronous busy-wait ----------------------------------------------------

def test_busy_wait_burns_cpu_only_for_blocking_worker_tiers():
    """An HTTP tier with workers burns CPU while awaiting downstream;
    the same app over RPC (non-blocking) does not."""
    def front_busy(protocol):
        dep = deploy(two_tier(protocol=protocol, workers=8), seed=115)
        dep.delay_service("cache", 0.02)  # make the wait visible
        run_experiment(dep, 50, duration=6.0, seed=116)
        return sum(i.cpu.busy_time() for i in dep.instances_of("web"))

    http_busy = front_busy(Protocol.HTTP)
    rpc_busy = front_busy(Protocol.RPC)
    assert http_busy > 3.0 * rpc_busy


def test_busy_wait_can_be_disabled():
    dep = deploy(two_tier(protocol=Protocol.HTTP, workers=8), seed=117)
    dep.sync_busy_wait = 0.0
    dep.delay_service("cache", 0.02)
    run_experiment(dep, 50, duration=6.0, seed=118)
    busy = sum(i.cpu.busy_time() for i in dep.instances_of("web"))
    # Only real request processing remains (~80us+net per request).
    assert busy < 0.3


# -- per-instance degradation --------------------------------------------------

def test_set_speed_factor_slows_one_replica():
    dep = deploy(replicas={"cache": 2}, seed=119)
    sick, healthy = dep.instances_of("cache")
    sick.set_speed_factor(0.1)
    assert sick.cpu.rate < 0.2 * healthy.cpu.rate
    sick.set_speed_factor(1.0)
    assert sick.cpu.rate == pytest.approx(healthy.cpu.rate)
    with pytest.raises(ValueError):
        sick.set_speed_factor(0.0)

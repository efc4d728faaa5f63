"""Tests for machine-crash fault injection: drain, freeze, restore."""

from repro.arch import XEON
from repro.chaos import ChaosContext, FaultSchedule, MachineCrash
from repro.cluster import Cluster
from repro.core import Deployment, run_experiment
from repro.services import Application, CallNode, Operation, seq
from repro.services.datastores import memcached, nginx
from repro.sim import Environment


def two_tier():
    return Application(
        name="two-tier",
        services={"web": nginx("web", work_mean=1e-3),
                  "cache": memcached("cache")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        qos_latency=0.05)


def build(replicas_web=3):
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 4)
    deployment = Deployment(env, two_tier(), cluster,
                            replicas={"web": replicas_web, "cache": 1},
                            cores={"web": 1, "cache": 2}, seed=61)
    return env, cluster, deployment


def crash(deployment, machine):
    """Inject a warm-restart crash of ``machine``; returns the fault and
    the context its revert needs."""
    fault = MachineCrash(machine, cold_cache=False)
    ctx = ChaosContext(deployment)
    fault.inject(ctx)
    return fault, ctx


def test_fail_drains_replicated_tier():
    env, cluster, deployment = build()
    victim = deployment.instances_of("web")[0].machine
    fault, ctx = crash(deployment, victim)
    lb = deployment.load_balancer("web")
    assert all(inst.machine is not victim for inst in lb.instances)
    assert not fault.record.frozen or victim.instances
    fault.revert(ctx)
    assert len(lb.instances) == 3


def test_singleton_tier_freezes_machine():
    env, cluster, deployment = build()
    victim = deployment.instances_of("cache")[0].machine
    fault, ctx = crash(deployment, victim)
    assert fault.record.frozen
    assert victim.slow_factor < 0.1
    fault.revert(ctx)
    assert victim.slow_factor == 1.0


def test_freeze_restores_original_slow_factor():
    """A machine already degraded before the outage must come back at
    its degraded speed, not get silently healed by the revert."""
    env, cluster, deployment = build()
    victim = deployment.instances_of("cache")[0].machine
    victim.set_slow_factor(0.5)
    fault, ctx = crash(deployment, victim)
    assert fault.record.frozen
    assert victim.slow_factor < 0.1
    fault.revert(ctx)
    assert victim.slow_factor == 0.5


def test_repair_leaves_unfrozen_machine_untouched():
    """Draining (no freeze) must not touch the machine's speed."""
    env, cluster, deployment = build()
    machines = {inst.machine for inst in deployment.instances_of("web")}
    machines -= {deployment.instances_of("cache")[0].machine}
    victim = next(iter(machines))
    victim.set_slow_factor(0.7)
    fault, ctx = crash(deployment, victim)
    assert not fault.record.frozen
    assert victim.slow_factor == 0.7
    fault.revert(ctx)
    assert victim.slow_factor == 0.7


def test_drained_instances_rejoin_lb():
    env, cluster, deployment = build()
    victim = deployment.instances_of("web")[0].machine
    lb = deployment.load_balancer("web")
    before = set(lb.instances)
    fault, ctx = crash(deployment, victim)
    record = fault.record
    assert set(lb.instances) < before
    fault.revert(ctx)
    # The exact same instance objects return to rotation.
    assert set(lb.instances) == before
    assert record.drained == []


def test_scheduled_outage_degrades_then_recovers():
    env, cluster, deployment = build()
    victim = deployment.instances_of("web")[0].machine
    FaultSchedule([MachineCrash(victim, start=10.0, duration=15.0,
                                cold_cache=False)]).arm(deployment)
    result = run_experiment(deployment, 600, duration=40.0, warmup=2.0,
                            seed=62)
    # During the outage, 2/3 of web capacity remains: latency rises.
    during = result.collector.end_to_end.mean(start=12.0, end=24.0)
    before = result.collector.end_to_end.mean(start=2.0, end=10.0)
    after = result.collector.end_to_end.mean(start=30.0, end=40.0)
    assert during > before
    assert after < during
    assert len(deployment.load_balancer("web").instances) == 3

"""Tests for the chaos fault taxonomy (repro.chaos.faults)."""

import pytest

from repro.arch import XEON
from repro.chaos import (
    ChaosContext,
    CorrelatedCrash,
    DatastoreSlowdown,
    Fault,
    GrayFailure,
    LinkDegradation,
    MachineCrash,
    NetworkPartition,
    ZoneOutage,
)
from repro.cluster import Cluster
from repro.core import Deployment
from repro.net.protocols import RPC_COSTS
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
    return env, deployment, ChaosContext(deployment)


# -- base interface ------------------------------------------------------

def test_timeline_validation_in_constructor():
    with pytest.raises(ValueError):
        MachineCrash(0, start=-1.0)
    with pytest.raises(ValueError):
        MachineCrash(0, duration=0.0)
    with pytest.raises(ValueError):
        MachineCrash(0, duration=-3.0)


def test_end_property():
    assert MachineCrash(0, start=2.0, duration=3.0).end == 5.0
    assert MachineCrash(0, start=2.0).end is None


def test_double_inject_and_revert_rejected():
    env, deployment, ctx = build()
    fault = MachineCrash(deployment.cluster.machines[0])
    fault.inject(ctx)
    with pytest.raises(RuntimeError):
        fault.inject(ctx)
    fault.revert(ctx)
    with pytest.raises(RuntimeError):
        fault.revert(ctx)


# -- machine crash -------------------------------------------------------

def test_crash_drains_replicated_tier_and_restores():
    env, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    lb = deployment.load_balancer("web")
    before = set(lb.instances)
    fault = MachineCrash(victim)
    fault.inject(ctx)
    assert victim.down
    assert all(inst.machine is not victim for inst in lb.instances)
    fault.revert(ctx)
    assert not victim.down
    assert set(lb.instances) == before


def test_crash_freezes_singleton_machine():
    env, deployment, ctx = build()
    victim = deployment.instances_of("cache")[0].machine
    fault = MachineCrash(victim)
    fault.inject(ctx)
    assert victim.down
    assert victim.slow_factor < 0.1
    # The balancer refuses to drop its last replica: traffic still
    # lands on the frozen machine until a replacement exists.
    assert deployment.load_balancer("cache").instances
    fault.revert(ctx)
    assert victim.slow_factor == 1.0


def test_crash_resolves_machine_by_index_and_id():
    env, deployment, ctx = build()
    machine = deployment.cluster.machines[1]
    by_index = MachineCrash(1)
    by_id = MachineCrash(machine.machine_id)
    assert by_index.targets(ctx).machines == [machine.machine_id]
    assert by_id.targets(ctx).machines == [machine.machine_id]
    with pytest.raises(ValueError):
        MachineCrash(99).targets(ctx)
    with pytest.raises(ValueError):
        MachineCrash("no-such-machine").targets(ctx)


def test_cold_cache_restart_chills_then_rewarms():
    env, deployment, ctx = build()
    deployment.set_cache_hit_ratio("cache", 0.9, miss_penalty=5e-4)
    victim = deployment.instances_of("cache")[0].machine
    fault = MachineCrash(victim, cache_warmup=2.0, warmup_steps=4)
    fault.inject(ctx)
    fault.revert(ctx)
    # The singleton's share is 1.0, so the ratio drops all the way cold.
    ratio, penalty = deployment.tier("cache").cache_model
    assert ratio == 0.0
    assert penalty == 5e-4
    env.run(until=1.0)  # two of four warmup steps
    ratio, _ = deployment.tier("cache").cache_model
    assert 0.0 < ratio < 0.9
    env.run(until=3.0)
    ratio, _ = deployment.tier("cache").cache_model
    assert ratio == pytest.approx(0.9)


def test_cold_cache_disabled_leaves_model_warm():
    env, deployment, ctx = build()
    deployment.set_cache_hit_ratio("cache", 0.9, miss_penalty=5e-4)
    victim = deployment.instances_of("cache")[0].machine
    fault = MachineCrash(victim, cold_cache=False)
    fault.inject(ctx)
    fault.revert(ctx)
    assert deployment.tier("cache").cache_model[0] == 0.9


# -- correlated / zone crashes ------------------------------------------

def test_correlated_crash_downs_all_members():
    env, deployment, ctx = build()
    fault = CorrelatedCrash([0, 1])
    fault.inject(ctx)
    assert deployment.cluster.machines[0].down
    assert deployment.cluster.machines[1].down
    fault.revert(ctx)
    assert not any(m.down for m in deployment.cluster.machines)


def test_zone_outage_takes_whole_zone():
    env, deployment, ctx = build()
    fault = ZoneOutage("cloud")
    fault.inject(ctx)
    assert all(m.down for m in deployment.cluster.machines)
    fault.revert(ctx)
    assert not any(m.down for m in deployment.cluster.machines)


def test_zone_outage_unknown_zone_rejected():
    env, deployment, ctx = build()
    with pytest.raises(ValueError):
        ZoneOutage("antarctica").targets(ctx)


# -- network faults ------------------------------------------------------

def test_partition_stalls_messages_until_heal():
    env, deployment, ctx = build()
    fault = NetworkPartition("client", "cloud")
    fault.inject(ctx)
    dst = deployment.instances_of("web")[0]
    done = []

    def xfer():
        timing = yield from deployment.fabric.transfer(
            None, dst, 1.0, RPC_COSTS)
        done.append(timing)

    env.process(xfer(), name="xfer")
    env.run(until=1.0)
    assert done == []  # queued on the cut
    fault.revert(ctx)
    env.run(until=2.0)
    assert len(done) == 1
    assert done[0].wire > 0.9  # the stall is charged to wire time


def test_link_degradation_adds_latency():
    env, deployment, ctx = build()
    fault = LinkDegradation("client", "cloud", extra_latency=5e-3)
    fault.inject(ctx)
    dst = deployment.instances_of("web")[0]
    done = []

    def xfer():
        timing = yield from deployment.fabric.transfer(
            None, dst, 1.0, RPC_COSTS)
        done.append(timing)

    env.process(xfer(), name="xfer")
    env.run(until=1.0)
    assert done and done[0].wire >= 5e-3
    fault.revert(ctx)
    assert deployment.fabric.link_faults == {}


def test_link_degradation_needs_some_degradation():
    with pytest.raises(ValueError):
        LinkDegradation("client", "cloud")
    with pytest.raises(ValueError):
        LinkDegradation("client", "cloud", loss_rate=1.5)


# -- service faults ------------------------------------------------------

def test_datastore_slowdown_composes_and_restores():
    env, deployment, ctx = build()
    deployment.slow_down_service("cache", 2.0)
    deployment.delay_service("cache", 1e-3)
    fault = DatastoreSlowdown("cache", factor=3.0, extra_delay=2e-3)
    fault.inject(ctx)
    tier = deployment.tier("cache")
    assert tier.work_multiplier == pytest.approx(6.0)
    assert tier.extra_delay == pytest.approx(3e-3)
    fault.revert(ctx)
    assert tier.work_multiplier == pytest.approx(2.0)
    assert tier.extra_delay == pytest.approx(1e-3)


def test_datastore_slowdown_unknown_service_rejected():
    env, deployment, ctx = build()
    with pytest.raises(ValueError):
        DatastoreSlowdown("mystery-db").inject(ctx)


def test_gray_failure_slows_one_replica_only():
    env, deployment, ctx = build()
    fault = GrayFailure("web", replica=1, speed_factor=0.25)
    fault.inject(ctx)
    instances = deployment.instances_of("web")
    assert instances[1].speed_factor == pytest.approx(0.25)
    assert instances[0].speed_factor == 1.0
    fault.revert(ctx)
    assert instances[1].speed_factor == 1.0


def test_gray_failure_revert_tolerates_retired_replica():
    env, deployment, ctx = build()
    fault = GrayFailure("web", replica=0)
    fault.inject(ctx)
    slow = deployment.instances_of("web")[0]
    deployment.remove_instance("web", inst=slow)
    fault.revert(ctx)  # must not raise or resurrect the instance
    assert slow not in deployment.instances_of("web")


# -- crash repair guards ---------------------------------------------

def test_repair_after_health_restore_does_not_double_add():
    """Regression: if something else (a health checker) already put a
    drained replica back in rotation, the revert must not add it twice."""
    env, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    lb = deployment.load_balancer("web")
    fault = MachineCrash(victim, cold_cache=False)
    fault.inject(ctx)
    drained = list(fault.record.drained)
    assert drained
    lb.add(drained[0])  # a failover loop restored it first
    fault.revert(ctx)
    assert len(lb.instances) == 3
    assert len(set(lb.instances)) == 3


def test_repair_skips_replicas_retired_while_down():
    """A drained replica the control plane *removed* during the outage
    must stay gone after the revert."""
    env, deployment, ctx = build()
    victim = deployment.instances_of("web")[0].machine
    lb = deployment.load_balancer("web")
    fault = MachineCrash(victim, cold_cache=False)
    fault.inject(ctx)
    dead = fault.record.drained[0]
    deployment.remove_instance("web", inst=dead)
    fault.revert(ctx)
    assert dead not in lb.instances
    assert len(lb.instances) == 2

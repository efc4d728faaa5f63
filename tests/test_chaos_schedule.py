"""Tests for fault schedules and their static validation
(repro.chaos.schedule + repro.analysis_static.faultcheck)."""

import pytest

from repro.analysis_static.faultcheck import (
    FaultScheduleError,
    check_scenarios,
    validate_schedule,
)
from repro.analysis_static.rules import ALL_RULES
from repro.arch import XEON
from repro.chaos import (
    CorrelatedCrash,
    DatastoreSlowdown,
    FaultSchedule,
    GrayFailure,
    MachineCrash,
    NetworkPartition,
)
from repro.cluster import Cluster
from repro.core import Deployment
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
    return env, deployment


def codes(findings):
    return sorted(f.code for f in findings)


# -- schedule mechanics --------------------------------------------------

def test_schedule_drives_faults_on_the_sim_clock():
    env, deployment = build()
    slow = DatastoreSlowdown("cache", factor=4.0, start=1.0,
                             duration=2.0)
    gray = GrayFailure("web", replica=0, start=2.0, duration=1.5)
    schedule = FaultSchedule([slow, gray])
    log = schedule.arm(deployment)
    env.run(until=5.0)
    assert log.injected_at(slow.name) == pytest.approx(1.0)
    assert log.reverted_at(slow.name) == pytest.approx(3.0)
    assert log.injected_at(gray.name) == pytest.approx(2.0)
    assert log.reverted_at(gray.name) == pytest.approx(3.5)
    assert log.first_injection() == pytest.approx(1.0)
    assert not slow.active and not gray.active
    assert deployment.tier("cache").work_multiplier == 1.0


def test_permanent_fault_never_reverts():
    env, deployment = build()
    gray = GrayFailure("web", replica=0, start=1.0)  # no duration
    schedule = FaultSchedule([gray])
    log = schedule.arm(deployment)
    env.run(until=10.0)
    assert gray.active
    assert log.reverted_at(gray.name) is None
    assert schedule.horizon() is None


def test_schedule_rejects_non_faults_and_double_arm():
    env, deployment = build()
    schedule = FaultSchedule()
    with pytest.raises(TypeError):
        schedule.add("not a fault")
    schedule.add(GrayFailure("web", start=1.0, duration=1.0))
    schedule.arm(deployment)
    with pytest.raises(RuntimeError):
        schedule.arm(deployment)


def test_horizon_is_latest_revert():
    schedule = FaultSchedule([
        DatastoreSlowdown("cache", start=1.0, duration=2.0),
        GrayFailure("web", start=0.5, duration=6.0)])
    assert schedule.horizon() == pytest.approx(6.5)
    assert len(schedule) == 2


# -- FAULT001: broken timelines -----------------------------------------

def test_fault001_flagged_and_arm_refuses():
    env, deployment = build()
    fault = GrayFailure("web", start=1.0, duration=1.0)
    fault.start = -2.0  # corrupt it past the constructor guard
    schedule = FaultSchedule([fault])
    findings = validate_schedule(schedule, deployment)
    assert codes(findings) == ["FAULT001"]
    assert findings[0].severity == "error"
    with pytest.raises(FaultScheduleError) as exc:
        schedule.arm(deployment)
    assert "FAULT001" in str(exc.value)


def test_fault001_non_finite_start():
    env, deployment = build()
    fault = GrayFailure("web", start=1.0, duration=1.0)
    fault.start = float("nan")
    findings = validate_schedule(FaultSchedule([fault]), deployment)
    assert codes(findings) == ["FAULT001"]


# -- FAULT002: conflicting compositions ---------------------------------

def test_fault002_same_machine_overlap_is_error():
    env, deployment = build()
    schedule = FaultSchedule([
        MachineCrash(0, start=1.0, duration=10.0),
        MachineCrash(0, start=5.0, duration=10.0)])
    findings = validate_schedule(schedule, deployment)
    assert "FAULT002" in codes(findings)
    assert any(f.severity == "error" for f in findings)
    with pytest.raises(FaultScheduleError):
        schedule.arm(deployment)


def test_fault002_touching_windows_do_not_conflict():
    env, deployment = build()
    schedule = FaultSchedule([
        MachineCrash(0, start=1.0, duration=4.0),
        MachineCrash(0, start=5.0, duration=4.0)])
    assert validate_schedule(schedule, deployment) == []


def test_fault002_joint_tier_wipeout_is_error():
    env, deployment = build(replicas_web=2)
    hosts = sorted({inst.machine.machine_id
                    for inst in deployment.instances_of("web")})
    assert len(hosts) == 2  # spread placement: one replica per machine
    schedule = FaultSchedule([
        MachineCrash(hosts[0], start=1.0, duration=10.0),
        MachineCrash(hosts[1], start=5.0, duration=10.0)])
    findings = validate_schedule(schedule, deployment)
    errors = [f for f in findings if f.severity == "error"]
    assert codes(errors) == ["FAULT002"]
    assert "'web'" in errors[0].message


def test_fault002_single_zone_outage_is_only_a_warning():
    env, deployment = build()
    schedule = FaultSchedule([
        CorrelatedCrash([0, 1, 2, 3], start=1.0, duration=5.0)])
    findings = validate_schedule(schedule, deployment)
    assert findings and all(f.code == "FAULT002" for f in findings)
    assert all(f.severity == "warning" for f in findings)
    # Warnings do not block arming.
    schedule.arm(deployment)


# -- FAULT003: dangling targets -----------------------------------------

def test_fault003_unknown_service():
    env, deployment = build()
    findings = validate_schedule(
        FaultSchedule([DatastoreSlowdown("mystery-db", duration=1.0)]),
        deployment)
    assert codes(findings) == ["FAULT003"]


def test_fault003_unknown_machine():
    env, deployment = build()
    findings = validate_schedule(
        FaultSchedule([MachineCrash("machine-99", duration=1.0)]),
        deployment)
    assert codes(findings) == ["FAULT003"]


def test_fault003_replica_out_of_range():
    env, deployment = build()
    findings = validate_schedule(
        FaultSchedule([GrayFailure("web", replica=7, duration=1.0)]),
        deployment)
    assert codes(findings) == ["FAULT003"]


def test_fault003_unknown_zone_link():
    env, deployment = build()
    findings = validate_schedule(
        FaultSchedule([NetworkPartition("cloud", "narnia",
                                        duration=1.0)]),
        deployment)
    assert codes(findings) == ["FAULT003"]
    # 'client' is always a legal endpoint even with no machines.
    clean = validate_schedule(
        FaultSchedule([NetworkPartition("client", "cloud",
                                        duration=1.0)]),
        deployment)
    assert clean == []


# -- lint integration ----------------------------------------------------

def test_fault_rules_registered_in_rule_catalog():
    for code in ("FAULT001", "FAULT002", "FAULT003"):
        assert code in ALL_RULES


def test_registered_scenarios_validate_clean():
    findings, checked = check_scenarios()
    assert checked >= 7
    assert [f for f in findings if f.severity == "error"] == []


def test_validate_false_skips_the_gate():
    """An explicitly unvalidated arm is allowed (power-user escape
    hatch), even for a schedule the validator would reject."""
    env, deployment = build()
    fault = DatastoreSlowdown("cache", start=1.0, duration=1.0)
    fault.start = -1.0
    schedule = FaultSchedule([fault])
    schedule.arm(deployment, validate=False)  # no raise

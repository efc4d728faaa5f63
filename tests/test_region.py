"""Tests for the multi-region layer (repro.region): topology, the
cross-region deployment, geo front door, async replication,
region-scale chaos, and the FAULT004/TOPO006 lint rules."""

import pytest

from repro.analysis_static import validate_topology
from repro.analysis_static.faultcheck import (
    FaultScheduleError,
    check_region_schedule,
    validate_schedule,
)
from repro.arch import XEON
from repro.chaos import (ChaosContext, DatastoreSlowdown, FaultSchedule,
                          ZoneOutage)
from repro.cluster import Cluster
from repro.core import Deployment
from repro.obs import traces_to_otlp_json
from repro.region import (
    FrontDoor,
    FrontDoorConfig,
    InterRegionPartition,
    MultiRegionDeployment,
    RegionOutage,
    RegionSpec,
    RegionTopology,
    ReplicationManager,
    run_region_scenario,
    two_region_topology,
)
from repro.services import Application, CallNode, Operation, seq
from repro.services.datastores import memcached, mongodb, nginx
from repro.sim import Environment

PRIMARY, SECONDARY = "us-east", "eu-west"


def geo_app(pins=None):
    """Two tiers in two regions; the store is single-primary unless
    ``pins`` overrides."""
    return Application(
        name="geo-web",
        services={"web": nginx("web", work_mean=1e-3),
                  "store": mongodb("store")},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="store"))))},
        qos_latency=0.1,
        regions=[PRIMARY, SECONDARY],
        service_regions={"store": PRIMARY} if pins is None else pins)


def build(app=None, machines=2, rtt=0.02, **kwargs):
    env = Environment()
    topology = two_region_topology(machines=machines, rtt=rtt)
    deployment = MultiRegionDeployment(
        env, app or geo_app(), topology,
        replicas={"web": 2, "store": 1}, seed=3, **kwargs)
    return env, topology, deployment


# -- topology ------------------------------------------------------------

def test_latency_matrix_lookup():
    topo = RegionTopology(
        regions=[RegionSpec("a"), RegionSpec("b"), RegionSpec("c")],
        latency={("a", "b"): 0.03},
        default_latency=0.05)
    assert topo.latency_between("a", "a") == 0.0
    assert topo.latency_between("a", "b") == 0.03
    # Missing direction falls back to the reverse, then the default.
    assert topo.latency_between("b", "a") == 0.03
    assert topo.latency_between("a", "c") == 0.05
    assert topo.names == ["a", "b", "c"]
    with pytest.raises(ValueError):
        topo.spec("nope")


def test_topology_validation():
    with pytest.raises(ValueError):
        RegionTopology(regions=[])
    with pytest.raises(ValueError):
        RegionTopology(regions=[RegionSpec("a"), RegionSpec("a")])
    with pytest.raises(ValueError):
        RegionTopology(regions=[RegionSpec("a")],
                       latency={("a", "ghost"): 0.01})
    with pytest.raises(ValueError):
        RegionTopology(regions=[RegionSpec("a"), RegionSpec("b")],
                       loss={("a", "b"): 1.5})
    with pytest.raises(ValueError):
        RegionSpec("a", machines=0)
    with pytest.raises(ValueError):
        RegionSpec("")
    with pytest.raises(ValueError):
        RegionSpec("a", population_share=-0.1)


def test_build_fabric_zones_and_loss():
    from repro.sim.rng import RandomStreams

    env = Environment()
    topo = RegionTopology(
        regions=[RegionSpec("a"), RegionSpec("b")],
        latency={("a", "b"): 0.03},
        loss={("a", "b"): 0.1, ("b", "a"): 0.0})
    fabric = topo.build_fabric(env, RandomStreams(1))
    # Only the lossy direction gets a standing link fault.
    assert ("a", "b") in fabric.link_faults
    assert ("b", "a") not in fabric.link_faults


# -- MultiRegionDeployment ----------------------------------------------

def test_deployment_per_region_clusters():
    env, topo, deployment = build(machines=2)
    assert deployment.region_names == [PRIMARY, SECONDARY]
    assert len(deployment.cluster.machines) == 4
    assert len(deployment.region(PRIMARY).cluster.machines) == 2
    # Replicas concatenate across regions.
    assert len(deployment.instances_of("web")) == 4
    assert len(deployment.region(SECONDARY).instances_of("web")) == 2
    machine = deployment.region(SECONDARY).cluster.machines[0]
    assert deployment.region_of_machine(machine.machine_id) == SECONDARY
    assert deployment.region_of_machine("ghost") is None
    with pytest.raises(ValueError):
        deployment.region("ap-south")
    with pytest.raises(NotImplementedError):
        deployment.load_balancer("web")


def test_deployment_rejects_undeclared_app_regions():
    env = Environment()
    topo = RegionTopology(regions=[RegionSpec("ap-south")])
    with pytest.raises(ValueError, match="absent from the topology"):
        MultiRegionDeployment(env, geo_app(), topo)


def test_deployment_rejects_pin_outside_topology():
    app = geo_app()
    app.regions = []  # region-agnostic footprint, but a pin remains
    env = Environment()
    topo = RegionTopology(regions=[RegionSpec("ap-south")])
    with pytest.raises(ValueError, match="pinned to region"):
        MultiRegionDeployment(env, app, topo)


def test_service_setters_and_datastore_slowdown_reach_every_region():
    """The region forwarders fan out, and ``tier`` reads region 0: a
    ``DatastoreSlowdown`` slows every region and its revert restores
    every region."""
    env, _, deployment = build()
    deployment.set_cache_hit_ratio("store", 0.8)
    deployment.set_cache_hit_ratio("store", 0.7, miss_penalty=3.0)
    deployment.slow_down_service("store", 2.0)
    tiers = [deployment.region(name).tier("store")
             for name in deployment.region_names]
    assert deployment.tier("store") is tiers[0]
    fault = DatastoreSlowdown("store", factor=3.0, extra_delay=2e-3)
    fault.inject(ChaosContext(deployment))
    for tier in tiers:
        assert tier.cache_model == (0.7, 3.0)
        assert tier.work_multiplier == pytest.approx(6.0)
        assert tier.extra_delay == pytest.approx(2e-3)
    fault.revert(ChaosContext(deployment))
    for tier in tiers:
        assert tier.work_multiplier == pytest.approx(2.0)
        assert tier.extra_delay == 0.0


# -- front door ----------------------------------------------------------

def test_frontdoor_config_validation():
    with pytest.raises(ValueError):
        FrontDoorConfig(probe_interval=0.0)
    with pytest.raises(ValueError):
        FrontDoorConfig(probe_timeout=-1.0)
    with pytest.raises(ValueError):
        FrontDoorConfig(unhealthy_threshold=0)
    with pytest.raises(ValueError):
        FrontDoorConfig(mode="random")


def test_frontdoor_ejects_dead_region_and_rehomes():
    env, topo, deployment = build()
    frontdoor = FrontDoor(deployment, config=FrontDoorConfig(
        probe_interval=0.5, unhealthy_threshold=2,
        healthy_threshold=2)).start()
    with pytest.raises(RuntimeError):
        frontdoor.start()
    with pytest.raises(ValueError):
        frontdoor.client("ap-south")

    env.run(until=2.0)
    assert frontdoor.serving_region(PRIMARY) == PRIMARY
    assert frontdoor.healthy(PRIMARY, PRIMARY)

    outage = RegionOutage(PRIMARY, start=0.0)
    outage.inject(ChaosContext(deployment))
    env.run(until=4.0)
    # Two consecutive probe failures eject the dead region for every
    # population; the primary's users are re-homed to the secondary.
    assert not frontdoor.healthy(PRIMARY, PRIMARY)
    assert frontdoor.serving_region(PRIMARY) == SECONDARY
    assert frontdoor.serving_region(SECONDARY) == SECONDARY
    assert any(e.kind == "ejected" and e.population == PRIMARY
               for e in frontdoor.events)

    outage.revert(ChaosContext(deployment))
    env.run(until=6.0)
    assert frontdoor.healthy(PRIMARY, PRIMARY)
    assert frontdoor.serving_region(PRIMARY) == PRIMARY
    assert any(e.kind == "restored" for e in frontdoor.events)


def test_sticky_mode_never_reroutes():
    env, topo, deployment = build()
    frontdoor = FrontDoor(deployment, config=FrontDoorConfig(
        mode="sticky")).start()
    RegionOutage(PRIMARY, start=0.0).inject(ChaosContext(deployment))
    env.run(until=4.0)
    # Probes still observe the outage, but routing ignores it.
    assert not frontdoor.healthy(PRIMARY, PRIMARY)
    assert frontdoor.serving_region(PRIMARY) == PRIMARY


def test_partition_times_out_cross_region_probes_only():
    env, topo, deployment = build()
    frontdoor = FrontDoor(deployment, config=FrontDoorConfig(
        probe_interval=0.5, probe_timeout=0.5)).start()
    partition = InterRegionPartition(PRIMARY, SECONDARY, start=0.0)
    partition.inject(ChaosContext(deployment))
    env.run(until=4.0)
    # The long-haul pairs go dark; each population's home stays
    # healthy, so nobody is re-routed (both regions are fine).
    assert not frontdoor.healthy(PRIMARY, SECONDARY)
    assert not frontdoor.healthy(SECONDARY, PRIMARY)
    assert frontdoor.healthy(PRIMARY, PRIMARY)
    assert frontdoor.serving_region(PRIMARY) == PRIMARY
    partition.revert(ChaosContext(deployment))
    env.run(until=8.0)
    assert frontdoor.healthy(PRIMARY, SECONDARY)


# -- replication ---------------------------------------------------------

def test_replication_validation():
    env, topo, deployment = build()
    with pytest.raises(ValueError):
        ReplicationManager(deployment, interval=0.0)
    with pytest.raises(ValueError):
        ReplicationManager(deployment, staleness_bound=0.0)
    repl = ReplicationManager(deployment).start()
    with pytest.raises(RuntimeError):
        repl.start()


def test_replication_bounded_staleness_when_healthy():
    env, topo, deployment = build(rtt=0.02)
    repl = ReplicationManager(deployment, interval=0.25,
                              staleness_bound=1.0).start()
    env.run(until=5.0)
    # Healthy link: staleness stays near interval + one-way RTT.
    lag = repl.staleness("store", served=SECONDARY, home=PRIMARY)
    assert 0.0 < lag < 0.5
    # Reads in the primary region are never stale for its own store.
    assert repl.staleness("store", served=PRIMARY,
                          home=SECONDARY) == 0.0
    assert repl.observe_read(SECONDARY, PRIMARY) is None
    assert repl.stale_reads == 0
    assert repl.batches_shipped > 0
    assert repl.applied_through(PRIMARY, PRIMARY) == env.now


def test_replication_lag_grows_under_outage():
    env, topo, deployment = build()
    repl = ReplicationManager(deployment, interval=0.25,
                              staleness_bound=1.0).start()
    env.run(until=2.0)
    RegionOutage(PRIMARY, start=0.0).inject(ChaosContext(deployment))
    env.run(until=6.0)
    # The dead primary ships nothing: survivors serve ever-staler data.
    lag = repl.staleness("store", served=SECONDARY, home=PRIMARY)
    assert lag > 3.0
    worst = repl.observe_read(SECONDARY, PRIMARY)
    assert worst == pytest.approx(lag, rel=1e-6)
    assert repl.stale_reads == 1
    assert repl.stale_reads_by_region[SECONDARY] == 1
    assert repl.batches_skipped > 0


def test_unpinned_store_is_multi_primary():
    app = geo_app(pins={})
    env, topo, deployment = build(app=app)
    repl = ReplicationManager(deployment, interval=0.25).start()
    env.run(until=3.0)
    # Multi-primary: lag is measured from the *user's home* region, so
    # a read served at home is always fresh.
    assert repl.staleness("store", served=PRIMARY, home=PRIMARY) == 0.0
    assert repl.staleness("store", served=SECONDARY, home=PRIMARY) > 0.0


# -- region-scale chaos --------------------------------------------------

def test_region_outage_downs_one_region_and_repairs():
    env, topo, deployment = build()
    primary = deployment.region(PRIMARY)
    secondary = deployment.region(SECONDARY)
    rates_before = [inst.cpu.rate
                    for inst in primary.instances_of("web")]
    fault = RegionOutage(PRIMARY, start=0.0)
    ctx = ChaosContext(deployment)
    targets = fault.targets(ctx)
    assert targets.regions == [PRIMARY]
    assert set(targets.services) == {"web", "store"}

    fault.inject(ctx)
    assert all(m.down for m in primary.cluster.machines)
    assert not any(m.down for m in secondary.cluster.machines)

    fault.revert(ctx)
    assert not any(m.down for m in primary.cluster.machines)
    # Repair re-bakes CPU rates: no replica is left at the frozen crawl.
    rates_after = [inst.cpu.rate
                   for inst in primary.instances_of("web")]
    assert rates_after == rates_before


def test_region_outage_graceful_on_non_region_deployment():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2)
    deployment = Deployment(env, geo_app(), cluster,
                            replicas={"web": 1, "store": 1}, seed=5)
    fault = RegionOutage(PRIMARY)
    # No region_names attribute: targets degrade to the dangling
    # region instead of raising, so lint can attribute it (FAULT004).
    targets = fault.targets(ChaosContext(deployment))
    assert targets.regions == [PRIMARY]
    assert targets.machines == []


def test_inter_region_partition_stalls_and_flushes():
    env, topo, deployment = build(rtt=0.02)
    fabric = deployment.fabric

    def crossing(out):
        delay = yield from fabric.wire_delay(PRIMARY, SECONDARY)
        out.append((env.now, delay))

    done = []
    env.process(crossing(done), name="warm")
    env.run(until=1.0)
    assert len(done) == 1 and done[0][1] == pytest.approx(0.02)

    fault = InterRegionPartition(PRIMARY, SECONDARY, start=0.0)
    assert fault.targets(ChaosContext(deployment)).regions == \
        sorted([PRIMARY, SECONDARY])
    fault.inject(ChaosContext(deployment))
    env.process(crossing(done), name="stalled")
    env.run(until=3.0)
    assert len(done) == 1  # queued on the cut
    fault.revert(ChaosContext(deployment))
    env.run(until=3.1)
    assert len(done) == 2  # flushed at heal
    with pytest.raises(ValueError):
        InterRegionPartition(PRIMARY, PRIMARY)


def test_zone_outage_restores_per_replica_speed_factors():
    """Regression: group repair restores a surviving replica's
    *per-replica* slow factor (e.g. one set by a gray-failure overlap)
    and re-bakes rates for everything hosted on member machines."""
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2)
    deployment = Deployment(env, geo_app(), cluster,
                            replicas={"web": 2, "store": 1}, seed=5)
    ctx = ChaosContext(deployment)
    replica = deployment.instances_of("web")[0]
    replica.set_speed_factor(0.5)
    rate_degraded = replica.cpu.rate

    fault = ZoneOutage("cloud", start=0.0)
    fault.inject(ctx)
    # Outage-era mutation (an overlapping fault's revert, say) must
    # not leak through the repair.
    replica.set_speed_factor(0.05)
    fault.revert(ctx)

    assert replica.speed_factor == 0.5
    assert replica.cpu.rate == pytest.approx(rate_degraded)
    others = deployment.instances_of("web")[1:]
    assert all(inst.speed_factor == 1.0 for inst in others)


# -- lint: FAULT004 / TOPO006 -------------------------------------------

def _codes(findings):
    return sorted(f.code for f in findings)


def test_fault004_dangling_region_target():
    env, topo, deployment = build()
    schedule = FaultSchedule([RegionOutage("mars", start=1.0)])
    findings = validate_schedule(schedule, deployment)
    assert "FAULT004" in _codes(findings)
    assert any("mars" in f.message for f in findings)
    with pytest.raises(FaultScheduleError):
        schedule.arm(deployment)


def test_fault004_region_fault_on_region_blind_deployment():
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2)
    deployment = Deployment(env, geo_app(), cluster,
                            replicas={"web": 1, "store": 1}, seed=5)
    schedule = FaultSchedule([RegionOutage(PRIMARY, start=1.0)])
    findings = validate_schedule(schedule, deployment)
    assert "FAULT004" in _codes(findings)
    assert any("not region-aware" in f.message for f in findings)


def test_valid_region_schedule_is_clean():
    env, topo, deployment = build()
    schedule = FaultSchedule([
        RegionOutage(PRIMARY, start=1.0, duration=2.0),
        InterRegionPartition(PRIMARY, SECONDARY, start=4.0,
                             duration=1.0),
    ])
    assert validate_schedule(schedule, deployment) == []
    findings, checked = check_region_schedule()
    assert findings == []
    assert checked == 1


def test_topo006_pin_outside_declared_footprint():
    app = geo_app()
    findings = validate_topology(
        app.services, app.operations,
        regions=["ap-south"],
        service_regions={"store": PRIMARY})
    assert "TOPO006" in _codes(findings)
    # No regions declared at all is also a finding.
    findings = validate_topology(
        app.services, app.operations,
        regions=[], service_regions={"store": PRIMARY})
    assert "TOPO006" in _codes(findings)
    # The declared footprint is clean.
    assert validate_topology(
        app.services, app.operations,
        regions=app.regions,
        service_regions=app.service_regions) == []


# -- harness integration -------------------------------------------------

def test_run_region_scenario_end_to_end():
    faults = [RegionOutage(PRIMARY, start=2.0, duration=4.0)]
    run = run_region_scenario(
        geo_app(), faults,
        topology=two_region_topology(machines=2, rtt=0.02,
                                     primary_share=0.6),
        qps=30.0, duration=10.0, mode="failover", seed=11,
        replicas={"web": 2, "store": 1})
    card = run.scorecard
    assert card.mode == "failover"
    assert card.fault_count == 1
    assert sorted(card.region_blast) == [SECONDARY, PRIMARY]
    assert card.frontdoor_ejections >= 1
    assert card.cross_region_mttr is not None
    assert card.cross_region_mttr > 4.0
    assert run.frontdoor.requests_served_away() > 0
    assert run.post_fault_goodput() > 0.0
    # The global card serializes/renders its extension fields.
    data = card.to_dict()
    assert data["mode"] == "failover"
    assert "cross_region_mttr" in data
    assert "global extension" in card.render()
    # Per-region cards exist for both regions.
    assert sorted(run.region_cards) == [SECONDARY, PRIMARY]

    # Failed-over requests carry region/staleness annotations into the
    # OTLP export.
    otlp = traces_to_otlp_json(run.frontdoor.collector.traces)
    assert "repro.home_region" in otlp
    assert "repro.served_region" in otlp
    if card.stale_reads:
        assert "repro.stale_read" in otlp


def test_run_region_scenario_sticky_never_serves_away():
    faults = [RegionOutage(PRIMARY, start=2.0, duration=3.0)]
    run = run_region_scenario(
        geo_app(), faults,
        topology=two_region_topology(machines=2),
        qps=20.0, duration=8.0, mode="sticky", seed=11,
        replicas={"web": 2, "store": 1}, metrics=False)
    assert run.scorecard.mode == "sticky"
    assert run.frontdoor.requests_served_away() == 0
    assert run.scorecard.stale_reads == 0

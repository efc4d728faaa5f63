"""Deployment-runtime tests: placement, routing, blocking, offload."""

import dataclasses
from itertools import islice

import pytest

from repro.arch import DRONE_SOC, XEON
from repro.cluster import Cluster
from repro.core import Deployment, run_experiment
from repro.net import FpgaOffload
from repro.services import (
    Application,
    CallNode,
    Operation,
    Protocol,
    seq,
)
from repro.services.datastores import memcached, nginx
from repro.sim import Environment, RandomStreams


def two_tier(protocol=Protocol.RPC, workers=None, cache_scale=1.0):
    web = nginx("web")
    if workers is not None:
        web = dataclasses.replace(web, max_workers=workers)
    return Application(
        name="two-tier",
        services={"web": web,
                  "cache": memcached("cache").scaled(cache_scale)},
        operations={"get": Operation(name="get", root=CallNode(
            service="web", groups=seq(CallNode(service="cache"))))},
        protocol=protocol,
        qos_latency=0.05,
    )


def deploy(app, n_machines=3, **kwargs):
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, n_machines)
    return Deployment(env, app, cluster, **kwargs)


def test_placement_spreads_replicas():
    dep = deploy(two_tier(), n_machines=4, replicas={"web": 4})
    machines = {inst.machine.machine_id
                for inst in dep.instances_of("web")}
    assert len(machines) == 4


def test_unknown_operation_rejected():
    dep = deploy(two_tier())
    with pytest.raises(KeyError):
        dep.execute("teleport")


def test_zero_replicas_rejected():
    with pytest.raises(ValueError):
        deploy(two_tier(), replicas={"web": 0})


def test_unknown_lb_policy_rejected():
    with pytest.raises(ValueError):
        deploy(two_tier(), lb_policy="tarot")


def test_missing_zone_machines_rejected():
    app = two_tier()
    app.service_zones = {"cache": "edge"}
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2)  # no edge machines
    with pytest.raises(ValueError, match="edge"):
        Deployment(env, app, cluster)


def test_zone_placement_lands_on_edge_machines():
    app = two_tier()
    app.service_zones = {"cache": "edge"}
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, 2).merge(
        Cluster.homogeneous(env, DRONE_SOC, 2, zone="edge",
                            name_prefix="d"))
    dep = Deployment(env, app, cluster)
    assert all(i.machine.zone == "edge"
               for i in dep.instances_of("cache"))
    assert all(i.machine.zone == "cloud"
               for i in dep.instances_of("web"))


def test_sharded_service_routes_by_user():
    app = two_tier()
    app.sharded_services = ["cache"]
    dep = deploy(app, replicas={"cache": 3})
    done = []

    def issue(user):
        trace = yield dep.execute("get", user=user)
        done.append(trace)

    for user in (0, 3, 6, 1):
        dep.env.process(issue(user))
    dep.env.run()
    # Users 0, 3, 6 hash to replica 0; their cache spans share one
    # instance's outcomes.  We can't observe the instance from the
    # span, but stable routing is observable via the LB directly.
    lb = dep.load_balancer("cache")
    assert lb.pick(key=0) is lb.pick(key=3) is lb.pick(key=6)
    assert lb.pick(key=1) is not lb.pick(key=0)


def test_http_connection_blocking_creates_backpressure():
    """With a slow cache, HTTP (blocking connections + finite workers)
    queues at the web tier while RPC does not suffer as much."""
    def run(protocol):
        app = two_tier(protocol=protocol, workers=4, cache_scale=60.0)
        dep = deploy(app, cores={"web": 4, "cache": 1}, seed=5)
        result = run_experiment(dep, 400, duration=8.0, seed=6)
        traces = [t for t in result.collector.traces
                  if t.start >= result.warmup]
        block = sum(s.block_time for t in traces
                    for s in t.root.walk())
        return block / max(1, len(traces))

    http_block = run(Protocol.HTTP)
    rpc_block = run(Protocol.RPC)
    assert http_block > rpc_block


def test_worker_pool_limits_concurrency():
    app = two_tier(workers=2)
    dep = deploy(app, seed=7)
    inst = dep.instances_of("web")[0]
    assert inst.workers is not None
    assert inst.workers.capacity == 2


def test_fpga_deployment_speeds_up_and_frees_cpu():
    app = two_tier()
    plain = deploy(app, seed=8)
    res_plain = run_experiment(plain, 500, duration=6.0, seed=9)

    offloaded = deploy(app, seed=8)
    offloaded.fabric.fpga = FpgaOffload()
    res_fpga = run_experiment(offloaded, 500, duration=6.0, seed=9)

    assert res_fpga.mean_latency() < res_plain.mean_latency()
    net_cpu = sum(i.net_cpu_seconds
                  for i in offloaded.instances_of("web"))
    assert net_cpu == 0.0


def test_total_cpu_seconds_accounting():
    dep = deploy(two_tier(), seed=10)
    run_experiment(dep, 200, duration=5.0, seed=11)
    cpu = dep.total_cpu_seconds()
    assert cpu["web"]["app"] > 0
    assert cpu["web"]["net"] > 0
    assert cpu["cache"]["app"] > 0


def test_slow_down_service_validation():
    dep = deploy(two_tier())
    with pytest.raises(ValueError):
        dep.slow_down_service("cache", 0.0)


def test_operation_mix_reaches_all_tiers():
    """Each completed trace touches web then cache exactly once."""
    dep = deploy(two_tier(), seed=12)
    result = run_experiment(dep, 100, duration=4.0, seed=13)
    for trace in islice(result.collector.traces, 100):
        assert trace.services() == ["web", "cache"]


def test_cached_work_draws_follow_a_mid_run_slowdown():
    """Work draws go through a per-service handle resolved once, yet a
    ``slow_down_service`` issued mid-run reaches them: each sequential
    request's app time is exactly its reference draw, at the mean in
    force when it ran, over the tier's rate."""
    app = Application(
        name="one-tier", services={"web": nginx("web")},
        operations={"get": Operation(name="get",
                                     root=CallNode(service="web"))},
        qos_latency=0.05)
    dep = deploy(app, seed=17)
    roots = []

    def driver():
        for i in range(6):
            if i == 3:
                dep.slow_down_service("web", 4.0)
            trace = yield dep.execute("get")
            roots.append(trace.root)

    dep.env.process(driver())
    dep.env.run()
    web = app.services["web"]
    rate = dep.instances_of("web")[0].cpu.rate
    reference = RandomStreams(17)
    for i, root in enumerate(roots):
        mean = web.work_mean * (4.0 if i >= 3 else 1.0)
        work = reference.lognormal("work.web", mean, web.work_cv)
        assert root.app_time == pytest.approx(work / rate, rel=1e-9)


def test_cached_jitter_draw_follows_a_changed_cv():
    """``fabric.jitter_cv`` set after the deployment is built (to zero,
    or to a new spread) takes effect on the next wire leg, drawing
    exactly what ``RandomStreams.lognormal`` draws at that cv."""
    dep = deploy(two_tier(), seed=17)
    fabric = dep.fabric
    cvs = [0.1, 0.1, 0.0, 0.6, 0.6, 0.1]
    seen = []

    def driver():
        for cv in cvs:
            fabric.jitter_cv = cv
            seen.append((yield from fabric.wire_delay("cloud", "cloud")))

    dep.env.process(driver())
    dep.env.run()
    base = fabric.latency("cloud", "cloud")
    reference = RandomStreams(17)
    assert seen == [reference.lognormal("fabric.jitter", base, cv)
                    for cv in cvs]

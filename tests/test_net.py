"""Tests for protocol costs, the network fabric, and FPGA offload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import XEON
from repro.cluster import Machine, ServiceInstance
from repro.net import (
    DEFAULT_ZONE_LATENCY,
    FpgaOffload,
    HTTP_COSTS,
    IPC_COSTS,
    NetworkFabric,
    RPC_COSTS,
    costs_for,
)
from repro.net.fabric import TransferTiming
from repro.net.nic import VirtualClockNic
from repro.services.datastores import nginx
from repro.sim import Environment, Resource
from repro.sim.rng import RandomStreams


def make_pair(env, zone_a="cloud", zone_b="cloud"):
    m1 = Machine(env, "m1", XEON, zone=zone_a)
    m2 = Machine(env, "m2", XEON, zone=zone_b)
    a = ServiceInstance(env, nginx("a"), m1, cores=2)
    b = ServiceInstance(env, nginx("b"), m2, cores=2)
    return a, b


def run_transfer(fabric, src, dst, size_kb, costs):
    env = fabric.env
    out = {}

    def proc():
        timing = yield from fabric.transfer(src, dst, size_kb, costs)
        out["timing"] = timing

    env.process(proc())
    env.run()
    return out["timing"]


# -- protocol costs --------------------------------------------------------

def test_rpc_cheaper_than_http():
    """Sec. 7: RPCs introduce considerably lower latency than HTTP."""
    for size in (0.5, 2.0, 16.0):
        assert RPC_COSTS.send_cost(size) < HTTP_COSTS.send_cost(size)
        assert RPC_COSTS.recv_cost(size) < HTTP_COSTS.recv_cost(size)
    assert IPC_COSTS.send_cost(1.0) < RPC_COSTS.send_cost(1.0)


def test_http_connections_blocking():
    assert HTTP_COSTS.blocking_connections
    assert not RPC_COSTS.blocking_connections


def test_costs_for_lookup():
    assert costs_for("rpc") is RPC_COSTS
    assert costs_for("http") is HTTP_COSTS
    with pytest.raises(ValueError):
        costs_for("smoke-signals")


def test_costs_scale_with_size():
    assert RPC_COSTS.send_cost(100.0) > RPC_COSTS.send_cost(1.0)


# -- fabric ----------------------------------------------------------------

def test_transfer_includes_wire_and_cpu():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env)
    timing = run_transfer(fabric, a, b, 1.0, RPC_COSTS)
    assert timing.wire == DEFAULT_ZONE_LATENCY[("cloud", "cloud")]
    assert timing.cpu_send > 0
    assert timing.cpu_recv > 0
    assert timing.total >= timing.wire + timing.cpu_send + timing.cpu_recv


def test_transfer_consumes_host_cpu_on_both_sides():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env)
    run_transfer(fabric, a, b, 4.0, RPC_COSTS)
    assert a.net_cpu_seconds > 0
    assert b.net_cpu_seconds > 0
    assert a.app_cpu_seconds == 0


def test_same_machine_uses_ipc_and_skips_wire():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    machine = Machine(env, "m", XEON)
    a = ServiceInstance(env, nginx("a"), machine, cores=2)
    b = ServiceInstance(env, nginx("b"), machine, cores=2)
    timing = run_transfer(fabric, a, b, 1.0, HTTP_COSTS)
    assert timing.wire == 0.0
    assert timing.nic == 0.0
    # IPC costs, not HTTP costs, despite the HTTP protocol.
    assert timing.host_cpu_work == pytest.approx(
        IPC_COSTS.send_cost(1.0) + IPC_COSTS.recv_cost(1.0))


def test_edge_cloud_latency_much_higher():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env, zone_a="edge", zone_b="cloud")
    timing = run_transfer(fabric, a, b, 1.0, HTTP_COSTS)
    assert timing.wire == DEFAULT_ZONE_LATENCY[("edge", "cloud")]
    assert timing.wire > 100 * DEFAULT_ZONE_LATENCY[("cloud", "cloud")]


def test_external_client_transfer():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    _, b = make_pair(env)
    timing = run_transfer(fabric, None, b, 1.0, RPC_COSTS)
    assert timing.cpu_send == 0.0
    assert timing.cpu_recv > 0
    assert timing.wire == DEFAULT_ZONE_LATENCY[("client", "cloud")]


def test_large_payload_pays_nic_serialization():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env)
    small = run_transfer(NetworkFabric(env, jitter_cv=0.0), a, b, 1.0,
                         RPC_COSTS)
    big = run_transfer(NetworkFabric(env, jitter_cv=0.0), a, b, 2048.0,
                       RPC_COSTS)
    assert big.nic > small.nic
    # 2 MB over 10 GbE through two NICs ~ 3.3 ms of serialization.
    assert big.nic == pytest.approx(2 * 2048.0 / 1.25e6, rel=0.01)


def test_unknown_zone_pair_raises():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0, zone_latency={})
    a, b = make_pair(env)
    with pytest.raises(ValueError):
        run_transfer(fabric, a, b, 1.0, RPC_COSTS)


def test_negative_size_rejected():
    env = Environment()
    fabric = NetworkFabric(env)
    a, b = make_pair(env)
    with pytest.raises(ValueError):
        run_transfer(fabric, a, b, -1.0, RPC_COSTS)


# -- virtual-clock NIC -----------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_virtual_clock_nic_matches_a_fifo_resource(seed):
    """The oracle: a capacity-1 Resource held for each message's
    serialization time.  Both queues see the same seeded arrivals
    (some at identical instants) and sizes, at ~90% load; finish times
    and occupancy at sampled instants must agree."""
    env = Environment()
    rng = RandomStreams(seed)
    reference = Resource(env, capacity=1)
    nic = VirtualClockNic(env)
    finishes = {"resource": [], "nic": []}

    def message(arrival, service):
        yield env.timeout(arrival)
        finishes["nic"].append(nic.reserve(service))
        with reference.request() as req:
            yield req
            yield env.timeout(service)
        finishes["resource"].append(env.now)

    arrival = 0.0
    for _ in range(400):
        if rng.uniform("tie", 0.0, 1.0) >= 0.1:
            arrival += rng.exponential("gap", 1e-3)
        env.process(message(arrival, rng.exponential("size", 0.9e-3)))

    samples = []

    def sampler():
        while True:
            yield env.timeout(rng.uniform("sample", 0.0, 2e-3))
            samples.append((reference.queue_length + reference.count,
                            nic.depth))

    env.process(sampler())
    env.run(until=arrival + 1.0)
    assert len(finishes["nic"]) == len(finishes["resource"]) == 400
    for got, want in zip(finishes["nic"], finishes["resource"]):
        assert got == pytest.approx(want, abs=1e-12)
    assert len(samples) > 100
    assert max(want for want, _ in samples) >= 3, "no queue built up"
    assert all(got == want for want, got in samples)


def test_virtual_clock_nic_idles_between_messages():
    env = Environment()
    nic = VirtualClockNic(env)
    assert nic.reserve(2.0) == 2.0
    assert nic.reserve(1.0) == 3.0
    assert nic.depth == 2
    env.run(until=10.0)
    assert nic.depth == 0
    assert nic.reserve(1.0) == 11.0


@pytest.mark.parametrize("fault", ["partition", "lossy"])
def test_faulty_link_pays_tx_serialization_once(fault):
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env)
    size_kb = 1250.0  # 1 ms at 10 GbE
    serialization = size_kb / a.machine.nic_bandwidth_kb_s
    if fault == "partition":
        fabric.partition("cloud", "cloud")
    else:
        fabric.degrade_link("cloud", "cloud", loss_rate=0.9, rto=0.05)
    done = []

    def proc():
        done.append((yield from fabric.transfer(a, b, size_kb,
                                                RPC_COSTS)))

    env.process(proc())
    env.run(until=0.5)
    if fault == "partition":
        assert done == []
        # Serialized and off the NIC; the cut holds it on the wire.
        assert a.machine.nic_tx.depth == 0
        assert b.machine.nic_rx.depth == 0
        fabric.heal("cloud", "cloud")
    env.run()
    (timing,) = done
    assert timing.nic == pytest.approx(2 * serialization, rel=1e-9)
    assert a.machine.nic_tx.free_at == pytest.approx(
        timing.cpu_send + serialization, rel=1e-9)
    base = DEFAULT_ZONE_LATENCY[("cloud", "cloud")]
    if fault == "partition":
        assert timing.wire == pytest.approx(
            0.5 - timing.cpu_send - serialization + base, rel=1e-9)
    else:
        retransmits = round((timing.wire - base) / 0.05)
        assert retransmits >= 1
        assert timing.wire == pytest.approx(base + retransmits * 0.05)
    assert timing.total == pytest.approx(
        timing.cpu_send + timing.nic + timing.wire + timing.cpu_recv)


def test_healthy_link_fuses_tx_and_wire_into_one_timeout():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0)
    a, b = make_pair(env)
    run_transfer(fabric, a, b, 1.0, RPC_COSTS)
    healthy = env.events_scheduled
    env2 = Environment()
    fabric2 = NetworkFabric(env2, jitter_cv=0.0)
    a2, b2 = make_pair(env2)
    fabric2.degrade_link("cloud", "cloud", extra_latency=0.0)
    run_transfer(fabric2, a2, b2, 1.0, RPC_COSTS)
    # The faulty path takes one extra timeout for the separate tx leg.
    assert env2.events_scheduled == healthy + 1


# -- reference property --------------------------------------------------------

def reference_transfer(fabric, src, dst, size_kb, costs):
    """The fabric's transfer as stepwise helpers: protocol cost, the
    congestion factor ``1 + coeff * min(1, jobs / cores) ** 2`` read
    through the CPU's public interface, the ``net_cpu_seconds`` charge,
    ``env.timeout`` per wait and the record filled field by field."""
    env = fabric.env
    if size_kb < 0:
        raise ValueError("size_kb must be >= 0")
    timing = TransferTiming()
    start = env.now
    same_machine = (src is not None and dst is not None
                    and src.machine is dst.machine)
    if same_machine:
        costs = IPC_COSTS

    def congested(cost, instance):
        if fabric.congestion_coeff <= 0:
            return cost
        util = instance.cpu.instantaneous_utilization()
        return cost * (1.0 + fabric.congestion_coeff * util * util)

    def network_compute(instance, work):
        instance.net_cpu_seconds += work / instance.cpu.rate
        return instance.cpu.service(work)

    if src is not None:
        cost = congested(costs.send_cost(size_kb), src)
        if fabric.fpga is not None and not same_machine:
            delay = fabric.fpga.offload_latency(cost, size_kb)
            yield env.timeout(delay)
            timing.offload += delay
        else:
            t0 = env.now
            yield network_compute(src, cost)
            timing.cpu_send = env.now - t0
            timing.host_cpu_work += cost
    if not same_machine:
        src_zone = src.machine.zone if src is not None else "client"
        dst_zone = dst.machine.zone if dst is not None else "client"
        tx = 0.0
        if src is not None:
            tx = src.machine.nic_tx.reserve(
                size_kb / src.machine.nic_bandwidth_kb_s) - env.now
            timing.nic += tx
        if (src_zone, dst_zone) in fabric.link_faults:
            if src is not None:
                yield env.timeout(tx)
            timing.wire += yield from fabric.wire_delay(src_zone, dst_zone)
        else:
            wire = fabric._jittered(fabric.latency(src_zone, dst_zone))
            yield env.timeout(tx + wire)
            timing.wire += wire
        if dst is not None:
            rx = dst.machine.nic_rx.reserve(
                size_kb / dst.machine.nic_bandwidth_kb_s) - env.now
            yield env.timeout(rx)
            timing.nic += rx
    if dst is not None:
        cost = congested(costs.recv_cost(size_kb), dst)
        if fabric.fpga is not None and not same_machine:
            delay = fabric.fpga.offload_latency(cost, size_kb)
            yield env.timeout(delay)
            timing.offload += delay
        else:
            t0 = env.now
            yield network_compute(dst, cost)
            timing.cpu_recv = env.now - t0
            timing.host_cpu_work += cost
    timing.total = env.now - start
    return timing


def fabric_world(case, transfer):
    """Build one world for ``case``, send its messages with
    ``transfer`` and run it dry; returns what the property compares."""
    env = Environment()
    fabric = NetworkFabric(
        env, rng=RandomStreams(case["seed"]), jitter_cv=case["jitter_cv"],
        congestion_coeff=case["coeff"],
        fpga=FpgaOffload() if case["fpga"] else None)
    m1 = Machine(env, "m1", XEON)
    m2 = Machine(env, "m2", XEON, zone=case["dst_zone"])
    shared = case["shared"]
    # Three cores: a load of 1/3 or 2/3 rounds, so the congestion
    # factor's float operations are checked, not just their algebra.
    a = ServiceInstance(env, nginx("a"), m1, cores=3,
                        share_machine_cpu=shared)
    b = ServiceInstance(env, nginx("b"), m2, cores=3,
                        share_machine_cpu=shared)
    c = ServiceInstance(env, nginx("c"), m1, cores=3,
                        share_machine_cpu=shared)
    for inst, works in ((a, case["src_jobs"]), (b, case["dst_jobs"]),
                        (c, case["dst_jobs"])):
        for work in works:
            inst.cpu.service(work)
    if case["degraded"]:
        fabric.degrade_link("cloud", case["dst_zone"], extra_latency=1e-4,
                            loss_rate=0.5, rto=0.01)
        fabric.degrade_link("client", "cloud", extra_latency=2e-4,
                            bidirectional=True)
    src, dst = {"same": (a, c), "cross": (a, b), "client-src": (None, a),
                "client-dst": (b, None)}[case["route"]]
    timings = []

    def send(size_kb, at):
        yield env.timeout(at)
        timings.append((yield from transfer(fabric, src, dst, size_kb,
                                            RPC_COSTS)))

    for size_kb, at in case["messages"]:
        env.process(send(size_kb, at))
    env.run()
    return ([tuple(getattr(t, f) for f in TransferTiming.__slots__)
             for t in timings],
            [i.net_cpu_seconds for i in (a, b, c)],
            env.events_scheduled, env.now)


def _jobs():
    return st.lists(st.floats(1e-6, 2e-3), max_size=3)


fabric_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "route": st.sampled_from(["same", "cross", "client-src", "client-dst"]),
    "dst_zone": st.sampled_from(["cloud", "edge"]),
    "jitter_cv": st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    "coeff": st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
    "src_jobs": _jobs(),
    "dst_jobs": _jobs(),
    "degraded": st.booleans(),
    "fpga": st.booleans(),
    "shared": st.booleans(),
    "messages": st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 64.0),
                            st.floats(1e3, 1e5)),
                  st.sampled_from([0.0, 1e-5, 3e-4])),
        min_size=1, max_size=5),
})


@settings(max_examples=200, deadline=None)
@given(case=fabric_cases)
def test_property_transfer_matches_the_stepwise_reference(case):
    """Bit for bit: every timing field, both sides' ``net_cpu_seconds``,
    the events scheduled and the final clock."""
    got = fabric_world(case, NetworkFabric.transfer)
    want = fabric_world(case, reference_transfer)
    assert got == want


# -- FPGA offload ------------------------------------------------------------

def test_fpga_speedup_within_paper_band():
    """Fig. 16: network processing accelerates 10-68x."""
    fpga = FpgaOffload()
    assert fpga.speedup(0.0) == pytest.approx(10.0)
    assert fpga.speedup(64.0) == pytest.approx(68.0)
    assert fpga.speedup(1e9) == pytest.approx(68.0)
    assert 10.0 <= fpga.speedup(8.0) <= 68.0


def test_fpga_offload_removes_host_cpu_work():
    env = Environment()
    fabric = NetworkFabric(env, jitter_cv=0.0, fpga=FpgaOffload())
    a, b = make_pair(env)
    timing = run_transfer(fabric, a, b, 1.0, RPC_COSTS)
    assert timing.host_cpu_work == 0.0
    assert a.net_cpu_seconds == 0.0
    assert timing.offload > 0


def test_fpga_faster_than_native():
    env1 = Environment()
    native = NetworkFabric(env1, jitter_cv=0.0)
    a1, b1 = make_pair(env1)
    t_native = run_transfer(native, a1, b1, 1.0, RPC_COSTS)

    env2 = Environment()
    offloaded = NetworkFabric(env2, jitter_cv=0.0, fpga=FpgaOffload())
    a2, b2 = make_pair(env2)
    t_fpga = run_transfer(offloaded, a2, b2, 1.0, RPC_COSTS)
    # Processing is 10x+ faster; wire latency is untouched.
    native_proc = t_native.cpu_send + t_native.cpu_recv
    assert t_fpga.offload < native_proc / 9.0
    assert t_fpga.wire == t_native.wire


def test_fpga_validation():
    with pytest.raises(ValueError):
        FpgaOffload(min_speedup=0.5)
    with pytest.raises(ValueError):
        FpgaOffload(min_speedup=70, max_speedup=60)
    with pytest.raises(ValueError):
        FpgaOffload(saturation_kb=0)
    with pytest.raises(ValueError):
        FpgaOffload().offload_latency(-1.0, 1.0)

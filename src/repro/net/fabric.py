"""The network fabric: what happens between two service instances.

One message traverses: sender kernel TCP processing (CPU work on the
sender's cores — or the FPGA offload path), the sender NIC transmission
queue, the wire/switch latency for the zone pair, the receiver NIC, and
receiver kernel TCP processing.  Same-machine calls short-circuit to
IPC (Swarm-Edge services on one drone communicate over IPC — Sec. 3.6).

Because TCP processing runs on the same processor-sharing cores as
application logic, a saturated tier's *network* time inflates along
with its compute — which is exactly the Fig. 15 observation that network
processing grows from ~18 % of tail latency at low load to dominating it
at high load, and the Fig. 3 observation that microservices spend ~36 %
of time in network processing vs. 5-20 % for monolithic services.

Event budget.  Messages dominate a run's event count, so each stage
costs as few heap events as exactness allows.  The NICs are virtual
clocks (:mod:`repro.net.nic`): reserving one is arithmetic, with no
grant event or release.  On a link with no :class:`LinkFault`, the
sender NIC's queueing and serialization and the jittered propagation
are one timeout; the receiver NIC is reserved when the message arrives
(only then is the arrival order across senders known) and is a second
one.  A degraded or partitioned link keeps the stepwise path: a tx
timeout, then :meth:`NetworkFabric.wire_delay`, which reads the fault
when the message reaches the wire.

Frame budget.  :meth:`NetworkFabric.transfer` computes each stage in
its own frame: the protocol cost, the congestion factor, the
``net_cpu_seconds`` charge, the two hot timeouts (built as
``Timeout.__init__`` builds them) and the :class:`TransferTiming`
record, with the float operations of the stepwise helpers in the same
order, so no simulated bit depends on the inlining.  Each job still
goes through ``cpu.service``, the one entry point every PS job shares.
The rare stages (FPGA offload, a faulty link) call ``env.timeout``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.engine import Environment, Event, SimulationError, Timeout, _new
from ..sim.rng import RandomStreams
from .protocols import IPC_COSTS, ProtocolCosts

if TYPE_CHECKING:
    from .fpga import FpgaOffload

__all__ = ["NetworkFabric", "TransferTiming", "LinkFault",
           "DEFAULT_ZONE_LATENCY"]

#: One-way propagation+switching latency per (src_zone, dst_zone), seconds.
DEFAULT_ZONE_LATENCY: Dict[Tuple[str, str], float] = {
    ("cloud", "cloud"): 25e-6,     # same ToR switch
    ("client", "cloud"): 100e-6,   # load generator to cluster
    ("cloud", "client"): 100e-6,
    ("edge", "cloud"): 10e-3,      # drone wifi over tens of meters
    ("cloud", "edge"): 10e-3,
    ("edge", "edge"): 2.5e-3,      # drone to drone via wireless router
    ("client", "edge"): 2.5e-3,
    ("edge", "client"): 2.5e-3,
}


class TransferTiming:
    """Where one message's latency went (seconds of wall time), plus the
    host CPU work it consumed (nominal seconds), for attribution."""

    __slots__ = ("cpu_send", "cpu_recv", "nic", "wire", "offload",
                 "total", "host_cpu_work")

    def __init__(self):
        self.cpu_send = self.cpu_recv = self.nic = self.wire = 0.0
        self.offload = self.total = self.host_cpu_work = 0.0


@dataclass
class LinkFault:
    """Degradation of one directed zone link (chaos injection).

    ``loss_rate`` models per-message packet loss as TCP retransmission:
    each lost transmission costs one ``rto`` before the retry, with up
    to ``max_retransmits`` attempts (the draw is geometric and comes
    from the fabric's seeded RNG, so faulty runs stay deterministic and
    healthy links draw nothing).  ``partition_heal`` is an untriggered
    event while the link is cut: messages queue on it and deliver only
    after the partition heals — upstream RPC timeouts, not the fabric,
    decide what that silence means."""

    extra_latency: float = 0.0
    loss_rate: float = 0.0
    rto: float = 0.2
    max_retransmits: int = 6
    partition_heal: Optional[Event] = None

    @property
    def partitioned(self) -> bool:
        return (self.partition_heal is not None
                and not self.partition_heal.triggered)


@dataclass
class NetworkFabric:
    """Shared network model for one deployment."""

    env: Environment
    rng: RandomStreams = field(default_factory=lambda: RandomStreams(0))
    zone_latency: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: dict(DEFAULT_ZONE_LATENCY))
    #: Active per-directed-link degradations, keyed by (src, dst) zone.
    link_faults: Dict[Tuple[str, str], LinkFault] = field(
        default_factory=dict)
    #: Coefficient of variation of multiplicative wire-latency jitter
    #: (serverless placements crank this up).
    jitter_cv: float = 0.1
    #: Kernel network processing gets superlinearly more expensive as a
    #: host loads up (interrupt-coalescing breakdown, softirq
    #: contention, socket-buffer pressure): per-message CPU cost is
    #: multiplied by ``1 + coeff * utilization^2``.  This is the
    #: mechanism behind Fig. 15's "network processing becomes a much
    #: more pronounced factor of tail latency at high load".
    congestion_coeff: float = 1.5
    fpga: Optional[FpgaOffload] = None
    #: (cv, draw): the ``fabric.jitter`` handle and the cv it is for.
    _jitter = (0.0, None)

    # -- fault injection -------------------------------------------------
    def degrade_link(self, src_zone: str, dst_zone: str,
                     extra_latency: float = 0.0, loss_rate: float = 0.0,
                     rto: float = 0.2, bidirectional: bool = True,
                     ) -> List[Tuple[str, str]]:
        """Degrade a zone link: added propagation delay and/or packet
        loss (paid as retransmission timeouts).  Returns the directed
        link keys touched so a fault injector can heal exactly those."""
        if extra_latency < 0:
            raise ValueError("extra_latency must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        keys = [(src_zone, dst_zone)]
        if bidirectional and dst_zone != src_zone:
            keys.append((dst_zone, src_zone))
        for key in keys:
            self.link_faults[key] = LinkFault(
                extra_latency=extra_latency, loss_rate=loss_rate,
                rto=rto)
        return keys

    def partition(self, zone_a: str, zone_b: str,
                  bidirectional: bool = True) -> List[Tuple[str, str]]:
        """Cut the link between two zones: messages stall until
        :meth:`heal` releases them (callers see silence, then delivery
        — the classic partition-heal reordering)."""
        keys = [(zone_a, zone_b)]
        if bidirectional and zone_a != zone_b:
            keys.append((zone_b, zone_a))
        for key in keys:
            self.link_faults[key] = LinkFault(
                partition_heal=self.env.event())
        return keys

    def heal(self, src_zone: str, dst_zone: str,
             bidirectional: bool = True) -> None:
        """Remove any fault on a link, releasing partitioned traffic."""
        keys = [(src_zone, dst_zone)]
        if bidirectional and dst_zone != src_zone:
            keys.append((dst_zone, src_zone))
        for key in keys:
            fault = self.link_faults.pop(key, None)
            if fault is not None and fault.partitioned:
                fault.partition_heal.succeed()

    def _retransmit_delay(self, fault: LinkFault) -> float:
        """Seconds of RTO stalls for one message on a lossy link."""
        delay = 0.0
        for _ in range(fault.max_retransmits):
            if self.rng.uniform("fabric.loss", 0.0, 1.0) >= \
                    fault.loss_rate:
                break
            delay += fault.rto
        return delay

    def latency(self, src_zone: str, dst_zone: str) -> float:
        """Base one-way latency for a zone pair."""
        try:
            return self.zone_latency[(src_zone, dst_zone)]
        except KeyError:
            raise ValueError(
                f"no latency configured for {src_zone!r}->{dst_zone!r}"
            ) from None

    def _jittered(self, base: float) -> float:
        cv = self.jitter_cv
        if cv <= 0 or base <= 0:
            return base
        resolved, draw = self._jitter
        if resolved != cv:
            # Resolved once per cv: ``jitter_cv`` may be set after build.
            draw = self.rng.lognormal_handle("fabric.jitter", cv)
            self._jitter = (cv, draw)
        return draw(base)

    def wire_delay(self, src_zone: str, dst_zone: str):
        """The wire leg of one message between two zones: partition
        stall (if the link is cut), jittered propagation, injected
        extra latency, and loss paid as RTO retransmits.

        A generator to be driven with ``yield from``; returns the
        seconds spent.  :meth:`transfer` uses it for the intra-cluster
        hop over a faulty link, and the cross-region layer
        (:mod:`repro.region`) reuses it for front-door legs, health
        probes, and replication shipping so every path over a link
        shares one fault model."""
        total = 0.0
        fault = self.link_faults.get((src_zone, dst_zone))
        if fault is not None and fault.partitioned:
            # The cut holds the message; it delivers after heal.
            t0 = self.env.now
            yield fault.partition_heal
            total += self.env.now - t0
        wire = self._jittered(self.latency(src_zone, dst_zone))
        if fault is not None:
            wire += fault.extra_latency
            if fault.loss_rate > 0.0:
                wire += self._retransmit_delay(fault)
        yield self.env.timeout(wire)
        return total + wire

    def transfer(self, src, dst, size_kb: float, costs: ProtocolCosts):
        """Move one message from ``src`` to ``dst`` (either may be None
        for the external client).  A generator to be driven with
        ``yield from``; returns a :class:`TransferTiming`.  Every stage
        is computed in this frame (see the module notes)."""
        if not size_kb >= 0:
            raise ValueError("size_kb must be >= 0")
        env = self.env
        start = env.now
        same_machine = (src is not None and dst is not None
                        and src.machine is dst.machine)
        if same_machine:
            costs = IPC_COSTS
        fpga = None if same_machine else self.fpga
        coeff = self.congestion_coeff
        per_kb = costs.per_kb_s * size_kb
        cpu_send = cpu_recv = nic = wire = offload = host_cpu_work = 0.0

        # Sender-side protocol processing, inflated by the host's load
        # as ``cost * (1 + coeff * min(1, jobs / cores) ** 2)``; an idle
        # host multiplies by exactly 1.
        if src is not None:
            cost = costs.send_overhead_s + per_kb
            cpu = src.cpu
            jobs = len(cpu._heap)
            if jobs and coeff > 0:
                util = jobs / cpu.cores
                if util > 1.0:
                    util = 1.0
                cost = cost * (1.0 + coeff * util * util)
            if fpga is not None:
                delay = fpga.offload_latency(cost, size_kb)
                yield env.timeout(delay)
                offload += delay
            else:
                src.net_cpu_seconds += cost / cpu.rate
                yield cpu.service(cost)
                cpu_send = env.now - start
                host_cpu_work += cost

        if not same_machine:
            src_zone = src.machine.zone if src is not None else "client"
            dst_zone = dst.machine.zone if dst is not None else "client"
            tx = 0.0
            if src is not None:
                machine = src.machine
                tx = machine.nic_tx.reserve(
                    size_kb / machine.nic_bandwidth_kb_s) - env.now
                nic += tx
            if (src_zone, dst_zone) in self.link_faults:
                # A faulty link keeps the stepwise path: the fault is
                # read when the message reaches the wire.
                if src is not None:
                    yield env.timeout(tx)
                wire += yield from self.wire_delay(src_zone, dst_zone)
            else:
                # Healthy link: sender NIC queueing plus serialization
                # and the jittered propagation are one timeout.
                hop = self._jittered(self.latency(src_zone, dst_zone))
                delay = tx + hop
                if not delay >= 0:
                    raise SimulationError(
                        f"timeout delay must be >= 0, got {delay!r}")
                ev = _new(Timeout)  # Timeout(env, delay), in this frame
                ev.env = env
                ev.callbacks = []
                ev._value = None
                ev._ok = True
                ev._triggered = False
                ev._processed = False
                ev.delay = delay
                seq = env._seq
                env._seq = seq + 1
                heappush(env._heap, [env.now + delay, seq, ev])
                yield ev
                wire += hop
            # Receiver NIC: reserved on arrival, because only then is
            # the arrival order across senders known.
            if dst is not None:
                machine = dst.machine
                rx = machine.nic_rx.reserve(
                    size_kb / machine.nic_bandwidth_kb_s) - env.now
                ev = _new(Timeout)  # Timeout(env, rx); rx >= 0
                ev.env = env
                ev.callbacks = []
                ev._value = None
                ev._ok = True
                ev._triggered = False
                ev._processed = False
                ev.delay = rx
                seq = env._seq
                env._seq = seq + 1
                heappush(env._heap, [env.now + rx, seq, ev])
                yield ev
                nic += rx

        # Receiver-side protocol processing.
        if dst is not None:
            cost = costs.recv_overhead_s + per_kb
            cpu = dst.cpu
            jobs = len(cpu._heap)
            if jobs and coeff > 0:
                util = jobs / cpu.cores
                if util > 1.0:
                    util = 1.0
                cost = cost * (1.0 + coeff * util * util)
            if fpga is not None:
                delay = fpga.offload_latency(cost, size_kb)
                yield env.timeout(delay)
                offload += delay
            else:
                t0 = env.now
                dst.net_cpu_seconds += cost / cpu.rate
                yield cpu.service(cost)
                cpu_recv = env.now - t0
                host_cpu_work += cost

        timing = _new(TransferTiming)  # the record, in this frame
        timing.cpu_send = cpu_send
        timing.cpu_recv = cpu_recv
        timing.nic = nic
        timing.wire = wire
        timing.offload = offload
        timing.total = env.now - start
        timing.host_cpu_work = host_cpu_work
        return timing

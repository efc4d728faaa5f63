"""The fault taxonomy: composable, seedable failure injectors.

Every injector implements one tiny interface — :class:`Fault` — with an
``inject``/``revert`` pair operating through a :class:`ChaosContext`
(the deployment plus its cluster, fabric and RNG).  Faults carry their
own timeline (``start``, optional ``duration``) so a
:class:`~repro.chaos.schedule.FaultSchedule` can compose them on the
simulation clock, validate the composition up front, and replay it
byte-identically from a seed.

The taxonomy mirrors the failure modes the paper's Sec. 6-7 experiments
probe and the ones production postmortems name most often:

=====================  ==================================================
injector               what it models
=====================  ==================================================
:class:`MachineCrash`  a server dies and later restarts; replicated
                       tiers drain, singletons freeze at a crawl, and
                       restarted cache tiers come back *cold* and
                       re-warm along the hit-ratio model
:class:`ZoneOutage`    correlated crash of every machine in a placement
                       zone (the classic AZ failure)
:class:`CorrelatedCrash`  the same, for an explicit machine set
:class:`NetworkPartition` a zone pair stops delivering; messages queue
                       and flush on heal
:class:`LinkDegradation`  packet loss (paid as RTO retransmits) and/or
                       added latency on a zone link
:class:`DatastoreSlowdown` a backing store browns out: per-request work
                       inflates, optionally plus a pure-latency stall
:class:`GrayFailure`   one replica silently runs slow while still
                       answering health probes that only check liveness
=====================  ==================================================

All randomness any injector needs is drawn from the deployment's named
RNG streams, and only while a fault is active — a schedule with no
faults perturbs nothing, so healthy runs stay byte-identical to runs
without a chaos layer at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..cluster.cluster import Cluster
from ..cluster.faults import CrashRecord, crash_machine, restore_machine
from ..cluster.machine import Machine, ServiceInstance

__all__ = ["ChaosContext", "Fault", "FaultTargets", "MachineCrash",
           "CorrelatedCrash", "ZoneOutage", "NetworkPartition",
           "LinkDegradation", "DatastoreSlowdown", "GrayFailure"]

MachineSpec = Union[Machine, int, str]


class ChaosContext:
    """Everything an injector may touch, resolved from one deployment."""

    def __init__(self, deployment):
        self.deployment = deployment
        self.env = deployment.env
        self.cluster: Cluster = deployment.cluster
        self.fabric = deployment.fabric
        self.rng = deployment.rng


@dataclass
class FaultTargets:
    """What one fault touches — the vocabulary of schedule validation."""

    services: List[str] = field(default_factory=list)
    machines: List[str] = field(default_factory=list)
    zones: List[str] = field(default_factory=list)
    #: Region names a region-scale fault touches (``RegionOutage``,
    #: ``InterRegionPartition``); validated by FAULT004.
    regions: List[str] = field(default_factory=list)


def _resolve_machine(ctx: ChaosContext, spec: MachineSpec) -> Machine:
    """A machine by object, index, or id (raises ValueError if unknown)."""
    machines = ctx.cluster.machines
    if isinstance(spec, Machine):
        if spec not in machines:
            raise ValueError(
                f"machine {spec.machine_id} is not in this cluster")
        return spec
    if isinstance(spec, int):
        if not 0 <= spec < len(machines):
            raise ValueError(f"machine index {spec} out of range "
                             f"(cluster has {len(machines)})")
        return machines[spec]
    for machine in machines:
        if machine.machine_id == spec:
            return machine
    raise ValueError(f"unknown machine {spec!r}")


class Fault:
    """One injectable failure with its place on the schedule timeline.

    ``start`` is seconds after the schedule is armed; ``duration`` is
    how long the fault holds before it reverts (``None`` = never —
    the fault persists to the end of the run).  Subclasses implement
    ``_inject``/``_revert`` and ``targets``; the base class guards the
    state machine so double-injection is an error, not silent
    corruption.
    """

    kind = "fault"

    def __init__(self, start: float = 0.0,
                 duration: Optional[float] = None,
                 name: Optional[str] = None):
        if start < 0:
            raise ValueError("fault start must be >= 0")
        if duration is not None and duration <= 0:
            raise ValueError("fault duration must be > 0 (or None)")
        self.start = start
        self.duration = duration
        self.name = name or self.kind
        self.active = False

    @property
    def end(self) -> Optional[float]:
        """When the fault reverts on the schedule clock, or None."""
        if self.duration is None:
            return None
        return self.start + self.duration

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        """What this fault touches (for validation and scorecards)."""
        return FaultTargets()

    def inject(self, ctx: ChaosContext) -> None:
        """Apply the fault (idempotence is an error by design)."""
        if self.active:
            raise RuntimeError(f"fault {self.name!r} is already active")
        self._inject(ctx)
        self.active = True

    def revert(self, ctx: ChaosContext) -> None:
        """Undo the fault, restoring pre-injection state."""
        if not self.active:
            raise RuntimeError(f"fault {self.name!r} is not active")
        self._revert(ctx)
        self.active = False

    def _inject(self, ctx: ChaosContext) -> None:
        raise NotImplementedError

    def _revert(self, ctx: ChaosContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = "forever" if self.duration is None \
            else f"{self.duration:g}s"
        return f"<{type(self).__name__} {self.name} @{self.start:g}s {window}>"


class MachineCrash(Fault):
    """One machine crashes, then (if ``duration`` is set) restarts.

    Replicated tiers lose the replicas on this machine (drained from
    their balancers); a tier whose *only* replica lives here freezes at
    a crawl instead — the singleton-outage regime where a microservice
    graph's blast radius dwarfs a monolith's.

    On restart, any cache tier hosted on the machine comes back *cold*:
    its hit ratio drops toward ``cache_cold_ratio`` (scaled by how much
    of the tier this machine hosted) and ramps back to the configured
    warm ratio over ``cache_warmup`` seconds — the miss-storm a cache
    restart sends into the backing store.
    """

    kind = "machine_crash"

    def __init__(self, machine: MachineSpec, start: float = 0.0,
                 duration: Optional[float] = None,
                 cold_cache: bool = True,
                 cache_cold_ratio: float = 0.0,
                 cache_warmup: float = 5.0,
                 warmup_steps: int = 8,
                 name: Optional[str] = None):
        if not 0.0 <= cache_cold_ratio <= 1.0:
            raise ValueError("cache_cold_ratio must be in [0, 1]")
        if cache_warmup <= 0:
            raise ValueError("cache_warmup must be > 0")
        self.machine_spec = machine
        self.cold_cache = cold_cache
        self.cache_cold_ratio = cache_cold_ratio
        self.cache_warmup = cache_warmup
        self.warmup_steps = max(1, warmup_steps)
        #: The undo record while active (what was drained or frozen).
        self.record: Optional[CrashRecord] = None
        label = machine.machine_id if isinstance(machine, Machine) \
            else str(machine)
        super().__init__(start, duration,
                         name or f"{self.kind}:{label}")

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        machine = _resolve_machine(ctx, self.machine_spec)
        services = sorted({inst.definition.name
                           for inst in machine.instances})
        return FaultTargets(services=services,
                            machines=[machine.machine_id],
                            zones=[machine.zone])

    def _inject(self, ctx: ChaosContext) -> None:
        machine = _resolve_machine(ctx, self.machine_spec)
        self.record = crash_machine(ctx.deployment, machine)

    def _revert(self, ctx: ChaosContext) -> None:
        record = self.record
        machine = record.machine
        restore_machine(ctx.deployment, record)
        self.record = None
        if self.cold_cache:
            self._chill_caches(ctx, machine)

    # -- cold-restart cache model --------------------------------------
    def _chill_caches(self, ctx: ChaosContext, machine: Machine) -> None:
        deployment = ctx.deployment
        for service in sorted({inst.definition.name
                               for inst in machine.instances}):
            model = deployment.tier(service).cache_model
            if model is None:
                continue
            warm_ratio, penalty = model
            total = len(deployment.instances_of(service))
            local = sum(1 for inst in machine.instances
                        if inst.definition.name == service)
            share = local / max(total, 1)
            cold = warm_ratio - (warm_ratio - self.cache_cold_ratio) * share
            if cold >= warm_ratio:
                continue
            deployment.set_cache_hit_ratio(service, max(cold, 0.0),
                                           penalty)
            ctx.env.process(
                self._warmup(ctx, service, cold, warm_ratio, penalty),
                name=f"cache-warmup:{service}")

    def _warmup(self, ctx: ChaosContext, service: str, cold: float,
                warm: float, penalty: float):
        """Ramp the hit ratio back up in deterministic steps."""
        steps = self.warmup_steps
        for k in range(1, steps + 1):
            yield ctx.env.timeout(self.cache_warmup / steps)
            ratio = cold + (warm - cold) * (k / steps)
            ctx.deployment.set_cache_hit_ratio(service, min(ratio, warm),
                                               penalty)


class CorrelatedCrash(Fault):
    """Several machines crash together (shared rack/PDU/hypervisor).

    This is the shared group-crash machinery: :class:`ZoneOutage` is a
    thin shim resolving members from a placement zone, and
    :class:`~repro.region.RegionOutage` resolves them from one region's
    cluster.  Beyond reverting each member crash, the group repair
    restores every surviving replica's *per-replica* speed factor to
    its pre-outage value and re-bakes the cached CPU rate of every
    instance currently hosted on a member machine — replicas
    provisioned mid-outage (health-checker replacements placed against
    frozen/slowed machine state) come out of repair at full speed
    instead of inheriting outage-era rates.
    """

    kind = "correlated_crash"

    def __init__(self, machines: Sequence[MachineSpec],
                 start: float = 0.0, duration: Optional[float] = None,
                 cold_cache: bool = True,
                 cache_cold_ratio: float = 0.0,
                 cache_warmup: float = 5.0,
                 name: Optional[str] = None):
        if not machines:
            raise ValueError("correlated crash needs at least one machine")
        self._crash_kwargs = dict(cold_cache=cold_cache,
                                  cache_cold_ratio=cache_cold_ratio,
                                  cache_warmup=cache_warmup)
        self.machine_specs = list(machines)
        self._crashes: List[MachineCrash] = []
        self._speed_factors: List[tuple] = []
        super().__init__(start, duration, name or self.kind)

    def _members(self, ctx: ChaosContext) -> List[Machine]:
        return [_resolve_machine(ctx, spec)
                for spec in self.machine_specs]

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        machines = self._members(ctx)
        services = sorted({inst.definition.name
                           for machine in machines
                           for inst in machine.instances})
        return FaultTargets(
            services=services,
            machines=[m.machine_id for m in machines],
            zones=sorted({m.zone for m in machines}))

    def _inject(self, ctx: ChaosContext) -> None:
        members = self._members(ctx)
        # Snapshot per-replica speed factors before any member crashes:
        # the group repair restores them for replicas that survive the
        # outage (mirroring the guarded restore MachineCrash does for
        # machine-level slow factors).
        self._speed_factors = [
            (inst, inst.definition.name, inst.speed_factor)
            for machine in members for inst in machine.instances]
        self._crashes = [
            MachineCrash(machine, **self._crash_kwargs)
            for machine in members
        ]
        for crash in self._crashes:
            crash.inject(ctx)

    def _revert(self, ctx: ChaosContext) -> None:
        members = [crash.record.machine for crash in self._crashes]
        for crash in self._crashes:
            crash.revert(ctx)
        self._crashes = []
        # A replica may have been retired mid-outage (health-checker
        # replacement); restoring a detached instance is moot — the
        # same guard GrayFailure's revert applies.
        for inst, service, factor in self._speed_factors:
            if inst in ctx.deployment.instances_of(service):
                inst.set_speed_factor(factor)
        self._speed_factors = []
        # Replacements provisioned mid-outage baked their CPU rate
        # against in-outage machine state (a frozen machine's crawl
        # factor); with the machines restored, re-derive every hosted
        # instance's effective rate.
        for machine in members:
            for inst in machine.instances:
                inst.refresh_rate()


class ZoneOutage(CorrelatedCrash):
    """Every machine in one placement zone goes down together.

    A thin shim over the :class:`CorrelatedCrash` group-crash
    machinery — the same machinery :class:`~repro.region.RegionOutage`
    generalizes to a whole region's cluster — so repair semantics
    (per-replica speed-factor restore, rate re-bake for mid-outage
    replacements, cold caches) are defined once."""

    kind = "zone_outage"

    def __init__(self, zone: str, start: float = 0.0,
                 duration: Optional[float] = None,
                 cold_cache: bool = True,
                 cache_cold_ratio: float = 0.0,
                 cache_warmup: float = 5.0,
                 name: Optional[str] = None):
        self.zone = zone
        # The member list resolves lazily against the cluster.
        super().__init__(machines=["<zone>"], start=start,
                         duration=duration, cold_cache=cold_cache,
                         cache_cold_ratio=cache_cold_ratio,
                         cache_warmup=cache_warmup,
                         name=name or f"{self.kind}:{zone}")

    def _members(self, ctx: ChaosContext) -> List[Machine]:
        machines = ctx.cluster.zone(self.zone)
        if not machines:
            raise ValueError(f"no machines in zone {self.zone!r}")
        return machines


class NetworkPartition(Fault):
    """A zone pair stops delivering until the fault reverts.

    Messages queue on the cut and flush on heal — the classic
    partition-heal burst.  What the silence *means* is decided by the
    resilience layer above (timeouts, breakers), not the fabric.
    """

    kind = "partition"

    def __init__(self, zone_a: str, zone_b: str, start: float = 0.0,
                 duration: Optional[float] = None,
                 bidirectional: bool = True,
                 name: Optional[str] = None):
        self.zone_a = zone_a
        self.zone_b = zone_b
        self.bidirectional = bidirectional
        super().__init__(start, duration,
                         name or f"{self.kind}:{zone_a}|{zone_b}")

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        return FaultTargets(zones=sorted({self.zone_a, self.zone_b}))

    def _inject(self, ctx: ChaosContext) -> None:
        ctx.fabric.partition(self.zone_a, self.zone_b,
                             bidirectional=self.bidirectional)

    def _revert(self, ctx: ChaosContext) -> None:
        ctx.fabric.heal(self.zone_a, self.zone_b,
                        bidirectional=self.bidirectional)


class LinkDegradation(Fault):
    """Packet loss and/or added latency on one zone link.

    Loss is paid as TCP retransmission timeouts (``rto`` per lost
    transmission, geometric in ``loss_rate``), drawn from the fabric's
    seeded RNG only while the fault is active.
    """

    kind = "link_degradation"

    def __init__(self, zone_a: str, zone_b: str,
                 extra_latency: float = 0.0, loss_rate: float = 0.0,
                 rto: float = 0.2, start: float = 0.0,
                 duration: Optional[float] = None,
                 bidirectional: bool = True,
                 name: Optional[str] = None):
        if extra_latency < 0:
            raise ValueError("extra_latency must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if extra_latency == 0.0 and loss_rate == 0.0:
            raise ValueError(
                "link degradation needs extra_latency or loss_rate")
        self.zone_a = zone_a
        self.zone_b = zone_b
        self.extra_latency = extra_latency
        self.loss_rate = loss_rate
        self.rto = rto
        self.bidirectional = bidirectional
        super().__init__(start, duration,
                         name or f"{self.kind}:{zone_a}|{zone_b}")

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        return FaultTargets(zones=sorted({self.zone_a, self.zone_b}))

    def _inject(self, ctx: ChaosContext) -> None:
        ctx.fabric.degrade_link(self.zone_a, self.zone_b,
                                extra_latency=self.extra_latency,
                                loss_rate=self.loss_rate, rto=self.rto,
                                bidirectional=self.bidirectional)

    def _revert(self, ctx: ChaosContext) -> None:
        ctx.fabric.heal(self.zone_a, self.zone_b,
                        bidirectional=self.bidirectional)


class DatastoreSlowdown(Fault):
    """A backing store browns out: per-request work inflates by
    ``factor`` (composing with any existing multiplier), optionally
    plus a pure-latency ``extra_delay`` stall per request (a sick disk
    that waits without burning CPU — Fig. 17's case B)."""

    kind = "datastore_slowdown"

    def __init__(self, service: str, factor: float = 4.0,
                 extra_delay: float = 0.0, start: float = 0.0,
                 duration: Optional[float] = None,
                 name: Optional[str] = None):
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        self.service = service
        self.factor = factor
        self.extra_delay = extra_delay
        self._prior_multiplier: Optional[float] = None
        self._prior_delay: Optional[float] = None
        super().__init__(start, duration,
                         name or f"{self.kind}:{service}")

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        return FaultTargets(services=[self.service])

    def _inject(self, ctx: ChaosContext) -> None:
        deployment = ctx.deployment
        if self.service not in deployment.app.services:
            raise ValueError(f"unknown service {self.service!r}")
        tier = deployment.tier(self.service)
        self._prior_multiplier = tier.work_multiplier
        self._prior_delay = tier.extra_delay
        deployment.slow_down_service(
            self.service, self._prior_multiplier * self.factor)
        if self.extra_delay > 0:
            deployment.delay_service(
                self.service, self._prior_delay + self.extra_delay)

    def _revert(self, ctx: ChaosContext) -> None:
        deployment = ctx.deployment
        deployment.slow_down_service(self.service, self._prior_multiplier)
        deployment.delay_service(self.service, self._prior_delay)
        self._prior_multiplier = None
        self._prior_delay = None


class GrayFailure(Fault):
    """One replica silently runs at ``speed_factor`` of its healthy
    speed — no crash, no error, just slow answers from one of N.

    This is the failure mode that separates liveness probes from
    latency-aware ones: a liveness check sees a responsive replica and
    keeps it in rotation, while every 1/N-th request eats the slow
    path.
    """

    kind = "gray_failure"

    def __init__(self, service: str, replica: int = 0,
                 speed_factor: float = 0.25, start: float = 0.0,
                 duration: Optional[float] = None,
                 name: Optional[str] = None):
        if not 0.0 < speed_factor < 1.0:
            raise ValueError("speed_factor must be in (0, 1)")
        if replica < 0:
            raise ValueError("replica must be >= 0")
        self.service = service
        self.replica = replica
        self.speed_factor = speed_factor
        self._inst: Optional[ServiceInstance] = None
        self._prior: Optional[float] = None
        super().__init__(start, duration,
                         name or f"{self.kind}:{service}#{replica}")

    def targets(self, ctx: ChaosContext) -> FaultTargets:
        return FaultTargets(services=[self.service])

    def _inject(self, ctx: ChaosContext) -> None:
        instances = ctx.deployment.instances_of(self.service)
        if self.replica >= len(instances):
            raise ValueError(
                f"{self.service!r} has {len(instances)} replicas, "
                f"no #{self.replica}")
        inst = instances[self.replica]
        self._inst = inst
        self._prior = inst.speed_factor
        inst.set_speed_factor(self._prior * self.speed_factor)

    def _revert(self, ctx: ChaosContext) -> None:
        inst = self._inst
        # The replica may have been retired mid-fault (failover); a
        # detached instance no longer routes, so restoring is moot.
        if inst is not None and inst in ctx.deployment.instances_of(
                self.service):
            inst.set_speed_factor(self._prior)
        self._inst = None
        self._prior = None

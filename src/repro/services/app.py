"""End-to-end application model.

An :class:`Application` bundles the service definitions, the operations
(call trees) users can invoke, the default request mix, the wire
protocol between tiers, and the end-to-end QoS target.  It is the unit
the cluster deploys, the workload generator drives, and the benchmark
harness measures — the simulation analogue of one DeathStarBench app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..resilience.criticality import CRIT_CRITICAL, CRITICALITIES, \
    DegradationPolicy
from .calltree import CallNode
from .definition import ServiceDefinition, ServiceKind

__all__ = ["Application", "Operation", "Protocol"]


class Protocol:
    """Inter-tier wire protocols (Sec. 7 compares them)."""

    RPC = "rpc"    # Apache-Thrift-like binary RPC
    HTTP = "http"  # REST over HTTP/1 with blocking connections

    ALL = (RPC, HTTP)


@dataclass
class Operation:
    """One user-visible request type: a named call tree plus mix weight."""

    name: str
    root: CallNode
    weight: float = 1.0
    #: Criticality class of this request type ("critical" /
    #: "degradable" / "sheddable"); the degradation layer sheds and
    #: degrades the least critical classes first.
    criticality: str = CRIT_CRITICAL

    def __post_init__(self):
        if not self.name:
            raise ValueError("operation name must be non-empty")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if self.criticality not in CRITICALITIES:
            raise ValueError(
                f"unknown criticality {self.criticality!r} "
                f"(choose from: {', '.join(CRITICALITIES)})")


@dataclass
class Application:
    """A complete end-to-end microservices application."""

    name: str
    services: Dict[str, ServiceDefinition]
    operations: Dict[str, Operation]
    protocol: str = Protocol.RPC
    #: End-to-end p99 target in seconds (QoS for goodput measurements).
    qos_latency: float = 0.1
    #: Which service handles external clients (the load balancer target).
    entry_service: Optional[str] = None
    #: Services sharded by user key (timeline stores etc.) — routed by
    #: consistent hashing instead of round-robin; the skew experiments
    #: (Fig. 22b) rely on this.
    sharded_services: List[str] = field(default_factory=list)
    #: Service → placement zone ("cloud"/"edge"); unlisted services run
    #: in the cloud.  Swarm-Edge pins its on-drone services to "edge".
    service_zones: Dict[str, str] = field(default_factory=dict)
    #: Declared multi-region footprint: the region names this
    #: application may be deployed across.  Empty means the app is
    #: region-agnostic (any :class:`~repro.region.RegionTopology`
    #: works); non-empty names constrain :attr:`service_regions`.
    regions: List[str] = field(default_factory=list)
    #: Datastore service → *primary* region.  Every tier is deployed in
    #: every region; a pinned datastore's writes originate in its
    #: primary, so reads elsewhere see that region's replication lag.
    #: Unpinned datastores are multi-primary (lag measured from the
    #: requesting user's home region).
    service_regions: Dict[str, str] = field(default_factory=dict)
    #: Callee service → what it may sacrifice under brownout (optional
    #: subtrees, fallbacks, fan-out reduction).  Consumed by the
    #: degradation layer when ``repro simulate --degradation`` (or a
    #: :class:`~repro.resilience.DegradationManager`) is armed; inert
    #: otherwise.
    degradation_policies: Dict[str, DegradationPolicy] = field(
        default_factory=dict)
    #: Free-form metadata mirrored from the paper's Table 1.
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.protocol not in Protocol.ALL:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.qos_latency <= 0:
            raise ValueError("qos_latency must be > 0")
        if not self.operations:
            raise ValueError("application needs at least one operation")
        self.validate()

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Check every call-tree target resolves to a defined service."""
        for op in self.operations.values():
            for node in op.root.walk():
                if node.service not in self.services:
                    raise ValueError(
                        f"operation {op.name!r} calls undefined service "
                        f"{node.service!r}")
        for name in self.sharded_services:
            if name not in self.services:
                raise ValueError(f"sharded service {name!r} undefined")
        if self.entry_service is not None and \
                self.entry_service not in self.services:
            raise ValueError(f"entry service {self.entry_service!r} undefined")
        for name in self.service_zones:
            if name not in self.services:
                raise ValueError(f"zoned service {name!r} undefined")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError("duplicate region names in regions")
        for name, region in self.service_regions.items():
            if name not in self.services:
                raise ValueError(
                    f"region-pinned service {name!r} undefined")
            if region not in self.regions:
                raise ValueError(
                    f"service {name!r} pinned to undeclared region "
                    f"{region!r}")
        for name, pol in self.degradation_policies.items():
            if name not in self.services:
                raise ValueError(
                    f"degradation policy names undefined service "
                    f"{name!r}")
            if pol.service != name:
                raise ValueError(
                    f"degradation policy for {name!r} names "
                    f"{pol.service!r}")

    def zone_of(self, service: str) -> str:
        """Placement zone for a service (default: cloud)."""
        return self.service_zones.get(service, "cloud")

    def region_of(self, service: str) -> Optional[str]:
        """Primary region of a pinned service, or None (multi-primary)."""
        return self.service_regions.get(service)

    # -- introspection -----------------------------------------------------
    @property
    def unique_microservices(self) -> int:
        """Number of distinct services (the Table 1 column)."""
        return len(self.services)

    def default_mix(self) -> Dict[str, float]:
        """Operation name → normalized mix probability."""
        total = sum(op.weight for op in self.operations.values())
        if total <= 0:
            raise ValueError("all operation weights are zero")
        return {name: op.weight / total
                for name, op in self.operations.items()}

    def operation_work(self, op_name: str) -> float:
        """Total nominal CPU seconds an operation consumes (no network)."""
        op = self.operations[op_name]
        return sum(self.services[node.service].work_mean * node.work_scale
                   for node in op.root.walk())

    def language_breakdown(self) -> Dict[str, float]:
        """Language → share of services (the Table 1 per-language mix)."""
        counts: Dict[str, int] = {}
        for svc in self.services.values():
            counts[svc.language] = counts.get(svc.language, 0) + 1
        total = len(self.services)
        return {lang: n / total for lang, n in
                sorted(counts.items(), key=lambda kv: -kv[1])}

    def with_work_scaled(self, factor: float) -> "Application":
        """A copy with every service's CPU demand (and the QoS target)
        multiplied by ``factor``.

        Useful for *time-dilated* experiment configurations: scaling
        work and QoS together preserves every utilization and relative
        latency while lowering the request rates (and hence simulation
        cost) needed to reach a given operating point."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        return Application(
            name=f"{self.name}-x{factor:g}",
            services={name: svc.scaled(factor)
                      for name, svc in self.services.items()},
            operations=self.operations,
            protocol=self.protocol,
            qos_latency=self.qos_latency * factor,
            entry_service=self.entry_service,
            sharded_services=list(self.sharded_services),
            service_zones=dict(self.service_zones),
            regions=list(self.regions),
            service_regions=dict(self.service_regions),
            degradation_policies=dict(self.degradation_policies),
            metadata=dict(self.metadata),
        )

    def datastore_services(self) -> List[str]:
        """Names of cache/database/queue tiers."""
        backends = (ServiceKind.CACHE, ServiceKind.DATABASE,
                    ServiceKind.QUEUE)
        return [name for name, svc in self.services.items()
                if svc.kind in backends]

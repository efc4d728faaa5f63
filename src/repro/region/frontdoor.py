"""Geo front door: latency-aware routing with health-probe failover.

Each user population is *homed* in the region nearest to it.  The front
door steers a population's requests to its home region while the home
is healthy, and — in ``failover`` mode — re-routes to the nearest
healthy region when probes say otherwise, re-homing back once the home
passes ``healthy_threshold`` consecutive probes.  ``sticky`` mode is
the ablation baseline: requests always go home, outage or not.

Health is observed the way a real global load balancer observes it:
synthetic probes over the same cross-region fabric user traffic rides.
A probe fails when it exceeds ``probe_timeout`` (an
:class:`~repro.region.InterRegionPartition` stalls it on the cut) or
when it lands in a region with no machine up (a
:class:`~repro.region.RegionOutage`).  Detection is therefore never
instant — the front door pays ``unhealthy_threshold`` probe intervals
of misrouted traffic before ejecting a region, which is exactly the
detection-time component of cross-region MTTR in the scorecard.

Requests served away from home carry ``repro.home_region`` /
``repro.served_region`` span annotations, and — when a
:class:`~repro.region.ReplicationManager` is attached — stale reads
(replication lag beyond the bound) are flagged on the trace too, so
the consistency cost of failover is visible in the OTLP export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..tracing.collector import TraceCollector
from .deployment import MultiRegionDeployment
from .replication import ReplicationManager

__all__ = ["FrontDoor", "FrontDoorConfig", "FrontDoorEvent",
           "PopulationClient"]

_MODES = ("failover", "sticky")


@dataclass
class FrontDoorConfig:
    """Probing cadence and routing mode of the front door."""

    #: Seconds between health probes per (population, region) pair.
    probe_interval: float = 0.5
    #: A probe slower than this is a failure (partitions stall probes
    #: indefinitely; this bounds how long the front door waits).
    probe_timeout: float = 1.0
    #: Consecutive probe failures before a region is ejected.
    unhealthy_threshold: int = 2
    #: Consecutive probe successes before an ejected region is re-homed.
    healthy_threshold: int = 2
    #: ``failover`` re-routes away from unhealthy regions; ``sticky``
    #: always serves from the home region (the ablation baseline).
    mode: str = "failover"

    def __post_init__(self):
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be > 0")
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be > 0")
        if self.unhealthy_threshold < 1 or self.healthy_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


@dataclass
class FrontDoorEvent:
    """One routing-table change: a region ejected or restored for a
    population."""

    time: float
    population: str
    region: str
    kind: str  # "ejected" | "restored"
    detail: str = ""

    def as_tuple(self) -> Tuple[float, str, str, str]:
        return (self.time, self.population, self.region, self.kind)


class PopulationClient:
    """One population's view of the front door.

    Duck-types the slice of ``Deployment`` that
    :class:`~repro.workload.generator.OpenLoopGenerator` consumes
    (``env`` / ``app`` / ``collector`` / ``execute``), so the existing
    open-loop generator drives multi-region traffic unchanged."""

    def __init__(self, frontdoor: "FrontDoor", population: str):
        self._fd = frontdoor
        self.population = population
        self.env = frontdoor.env
        self.app = frontdoor.deployment.app
        self.collector = frontdoor.collector

    def execute(self, op_name: str, user: Optional[int] = None,
                collect: bool = True):
        return self.env.process(
            self._fd._route(self.population, op_name, user, collect),
            name=f"frontdoor.{self.population}.{op_name}")


class FrontDoor:
    """Global request router over a :class:`MultiRegionDeployment`."""

    def __init__(self, deployment: MultiRegionDeployment,
                 replication: Optional[ReplicationManager] = None,
                 config: Optional[FrontDoorConfig] = None):
        self.deployment = deployment
        self.env = deployment.env
        self.replication = replication
        self.config = config or FrontDoorConfig()
        #: Client-visible (end-to-end, including wide-area legs) traces.
        #: Per-region server-side traces stay in each region's own
        #: deployment collector.
        self.collector = TraceCollector()
        self.events: List[FrontDoorEvent] = []
        #: Requests routed per (home, served) region pair.
        self.requests: Dict[Tuple[str, str], int] = {}
        names = deployment.region_names
        self._healthy: Dict[Tuple[str, str], bool] = {
            (pop, region): True for pop in names for region in names}
        self._fail_streak: Dict[Tuple[str, str], int] = {
            key: 0 for key in self._healthy}
        self._ok_streak: Dict[Tuple[str, str], int] = {
            key: 0 for key in self._healthy}
        self._metrics = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "FrontDoor":
        """Spawn one probe loop per (population, region) pair."""
        if self._started:
            raise RuntimeError("front door already started")
        self._started = True
        for pop in self.deployment.region_names:
            for region in self.deployment.region_names:
                self.env.process(
                    self._probe_loop(pop, region),
                    name=f"frontdoor.probe.{pop}->{region}")
        return self

    def client(self, population: str) -> PopulationClient:
        """The generator-facing client for one homed population."""
        if population not in self.deployment.region_names:
            raise ValueError(f"unknown population/region "
                             f"{population!r}")
        return PopulationClient(self, population)

    def set_metrics(self, registry) -> None:
        """Attach a metrics registry for routing/health/stale counters
        (see :func:`repro.obs.instrument.instrument_frontdoor`)."""
        self._metrics = registry
        for (pop, region), healthy in sorted(self._healthy.items()):
            self._health_gauge(pop, region, healthy)

    # -- health probing ----------------------------------------------------
    def healthy(self, population: str, region: str) -> bool:
        return self._healthy[(population, region)]

    def _region_live(self, region: str) -> bool:
        cluster = self.deployment.region(region).cluster
        return any(not m.down for m in cluster.machines)

    def _probe_once(self, population: str, region: str):
        """One synthetic health probe: client leg, wide-area round
        trip, and a liveness check where it lands."""
        spec = self.deployment.topology.spec(population)
        yield self.env.timeout(spec.client_latency)
        if region != population:
            fabric = self.deployment.fabric
            yield from fabric.wire_delay(population, region)
            alive = self._region_live(region)
            yield from fabric.wire_delay(region, population)
        else:
            alive = self._region_live(region)
        yield self.env.timeout(spec.client_latency)
        return alive

    def _probe_loop(self, population: str, region: str):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.probe_interval)
            probe = self.env.process(
                self._probe_once(population, region),
                name=f"frontdoor.probe1.{population}->{region}")
            timeout = self.env.timeout(cfg.probe_timeout)
            yield self.env.any_of([probe, timeout])
            # A probe still in flight past the timeout (stalled on a
            # partition) is a failure; it finishes harmlessly later.
            ok = probe.processed and bool(probe.value)
            self._record_probe(population, region, ok)

    def _record_probe(self, population: str, region: str,
                      ok: bool) -> None:
        key = (population, region)
        cfg = self.config
        if ok:
            self._ok_streak[key] += 1
            self._fail_streak[key] = 0
            if (not self._healthy[key]
                    and self._ok_streak[key] >= cfg.healthy_threshold):
                self._healthy[key] = True
                self._transition(population, region, "restored",
                                 f"{self._ok_streak[key]} consecutive "
                                 f"probe successes")
        else:
            self._fail_streak[key] += 1
            self._ok_streak[key] = 0
            if (self._healthy[key]
                    and self._fail_streak[key] >= cfg.unhealthy_threshold):
                self._healthy[key] = False
                self._transition(population, region, "ejected",
                                 f"{self._fail_streak[key]} consecutive "
                                 f"probe failures")

    def _transition(self, population: str, region: str, kind: str,
                    detail: str) -> None:
        self.events.append(FrontDoorEvent(
            time=self.env.now, population=population, region=region,
            kind=kind, detail=detail))
        self._health_gauge(population, region,
                           self._healthy[(population, region)])

    def _health_gauge(self, population: str, region: str,
                      healthy: bool) -> None:
        if self._metrics is not None:
            self._metrics.gauge(
                "repro_region_healthy",
                "Front-door health verdict per (population, region)",
                ("population", "region")).labels(
                population=population, region=region).set(
                1.0 if healthy else 0.0)

    # -- routing -----------------------------------------------------------
    def serving_region(self, home: str) -> str:
        """Where a request homed in ``home`` is served right now."""
        if self.config.mode == "sticky":
            return home
        if self._healthy[(home, home)]:
            return home
        topo = self.deployment.topology
        candidates = [r for r in self.deployment.region_names
                      if r != home and self._healthy[(home, r)]]
        if not candidates:
            # Nowhere better to go: keep trying home.
            return home
        return min(candidates,
                   key=lambda r: (topo.latency_between(home, r), r))

    def _route(self, home: str, op_name: str, user: Optional[int],
               collect: bool):
        """One end-to-end request from a homed user: client leg, any
        wide-area legs, the serving region's full call tree, and the
        way back."""
        start = self.env.now
        spec = self.deployment.topology.spec(home)
        served = self.serving_region(home)
        fabric = self.deployment.fabric
        yield self.env.timeout(spec.client_latency)
        if served != home:
            yield from fabric.wire_delay(home, served)
        proc = self.deployment.region(served).execute(op_name, user=user)
        yield proc
        trace = proc.value
        if served != home:
            yield from fabric.wire_delay(served, home)
        yield self.env.timeout(spec.client_latency)
        if served != home:
            root = trace.root
            root.annotate("home_region", home)
            root.annotate("served_region", served)
            if self.replication is not None:
                staleness = self.replication.observe_read(served, home)
                if staleness is not None:
                    root.annotate("stale_read", True)
                    root.annotate("staleness_seconds", staleness)
                    self._stale_metric(served)
        self.requests[(home, served)] = \
            self.requests.get((home, served), 0) + 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_region_requests_total",
                "Front-door requests by home and serving region",
                ("home", "served")).labels(
                home=home, served=served).inc()
        if collect:
            self.collector.collect(
                trace, latency_override=self.env.now - start)
        return trace

    def _stale_metric(self, served: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "repro_region_stale_reads_total",
                "Failed-over reads that exceeded the staleness bound",
                ("region",)).labels(region=served).inc()

    # -- reporting ---------------------------------------------------------
    def requests_served_away(self) -> int:
        """Requests served outside their home region."""
        return sum(count for (home, served), count in
                   self.requests.items() if home != served)

    def event_tuples(self) -> List[Tuple[float, str, str, str]]:
        """Deterministic event log for byte-identity comparisons."""
        return [event.as_tuple() for event in self.events]

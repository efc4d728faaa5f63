"""The multi-region experiment harness: topology in, global scorecard out.

``run_region_scenario`` builds one simulation universe containing a
:class:`MultiRegionDeployment`, async replication, and the geo front
door; arms a (validated) fault schedule; drives one open-loop workload
per user population — each region's diurnal curve shifted by its
timezone — and grades the outcome into a :class:`GlobalScorecard`:
the single-cluster resilience scorecard extended with

* **global blast radius** — attributed tier-seconds *per region*, so a
  region outage shows damage concentrated in one region while a bad
  config shows it everywhere;
* **cross-region MTTR** — first injection until the front door's last
  routing restoration: how long the *global* routing plane took to
  converge back, a different clock from any one region's QoS episodes;
* **stale reads** — failed-over requests that observed replication lag
  beyond the bound, the consistency bill for the availability win.

The common-random-numbers discipline carries over: a ``sticky`` run and
a ``failover`` run with the same seed differ only in routing decisions,
which is what makes the ablation's goodput ratio meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..chaos.faults import Fault
from ..chaos.schedule import ChaosLog, FaultSchedule
from ..chaos.scorecard import (Scorecard, SteadyStateHypothesis,
                               build_scorecard)
from ..core.experiment import monitor_utilization
from ..services.app import Application
from ..stats.tables import format_table
from ..stats.timeseries import TimeSeries
from ..workload.generator import OpenLoopGenerator
from ..workload.patterns import RateFn, constant, scaled, shifted
from .deployment import MultiRegionDeployment
from .frontdoor import FrontDoor, FrontDoorConfig
from .replication import ReplicationManager
from .topology import RegionTopology, two_region_topology

__all__ = ["RegionResult", "GlobalScorecard", "RegionRun",
           "run_region_scenario"]


@dataclass
class RegionResult:
    """An :class:`~repro.core.experiment.ExperimentResult`-shaped view
    of one region (or of the whole globe through the front door's
    collector) — the duck type the scorecard/attribution layer reads."""

    deployment: object
    collector: object
    utilization: Dict[str, TimeSeries]
    duration: float
    warmup: float
    metrics: object = None


@dataclass
class GlobalScorecard(Scorecard):
    """A resilience scorecard graded at planetary scope."""

    #: Routing mode the run used (``failover`` or ``sticky``).
    mode: str = "failover"
    #: Attributed blast radius per region (tier-seconds).
    region_blast: Dict[str, float] = field(default_factory=dict)
    #: First injection until the front door's last routing restoration
    #: (None when routing never converged back — or never moved).
    cross_region_mttr: Optional[float] = None
    #: Front-door ejections (populations losing a region).
    frontdoor_ejections: int = 0
    #: Front-door restorations (re-homing after recovery).
    frontdoor_restorations: int = 0
    #: Failed-over reads beyond the staleness bound.
    stale_reads: int = 0
    stale_reads_by_region: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data.update({
            "mode": self.mode,
            "region_blast_tier_seconds": dict(self.region_blast),
            "cross_region_mttr": self.cross_region_mttr,
            "frontdoor_ejections": self.frontdoor_ejections,
            "frontdoor_restorations": self.frontdoor_restorations,
            "stale_reads": self.stale_reads,
            "stale_reads_by_region": dict(self.stale_reads_by_region),
        })
        return data

    def render(self) -> str:
        cross = "-" if self.cross_region_mttr is None \
            else f"{self.cross_region_mttr:.2f}s"
        blast = ", ".join(
            f"{region}={self.region_blast[region]:.1f}"
            for region in sorted(self.region_blast)) or "none"
        stale = ", ".join(
            f"{region}={count}"
            for region, count in sorted(
                self.stale_reads_by_region.items()) if count) or "none"
        rows = [
            ["routing mode", self.mode],
            ["cross-region MTTR", cross],
            ["front-door ejections",
             str(self.frontdoor_ejections)],
            ["front-door restorations",
             str(self.frontdoor_restorations)],
            ["blast by region (tier-s)", blast],
            ["stale reads", f"{self.stale_reads} ({stale})"],
        ]
        return super().render() + "\n" + format_table(
            ["metric", "value"], rows,
            title="global extension")


@dataclass
class RegionRun:
    """Everything one multi-region scenario run produced."""

    scenario: str
    deployment: MultiRegionDeployment
    topology: RegionTopology
    frontdoor: FrontDoor
    replication: ReplicationManager
    schedule: FaultSchedule
    log: ChaosLog
    scorecard: GlobalScorecard
    region_cards: Dict[str, Scorecard]
    result: RegionResult
    region_results: Dict[str, RegionResult]
    generators: Dict[str, OpenLoopGenerator]
    seed: int
    duration: float
    warmup: float

    def post_fault_goodput(self,
                           qos_latency: Optional[float] = None) -> float:
        """Within-QoS completions per second from the first injection to
        the end of the run (whole post-warmup window when fault-free) —
        the ablation's headline number."""
        qos = qos_latency if qos_latency is not None \
            else self.deployment.app.qos_latency
        first = self.log.first_injection()
        start = first if first is not None else self.warmup
        if self.duration <= start:
            return 0.0
        samples = self.frontdoor.collector.end_to_end.samples(
            start=start, end=self.duration)
        return sum(1 for s in samples if s <= qos) \
            / (self.duration - start)


def _resolve_schedule(faults, deployment: MultiRegionDeployment,
                      duration: float) -> FaultSchedule:
    if faults is None:
        return FaultSchedule()
    if isinstance(faults, FaultSchedule):
        return faults
    if callable(faults):
        return faults(deployment, duration)
    return FaultSchedule(list(faults))


def run_region_scenario(app: Union[Application, str],
                        faults: Union[FaultSchedule, Callable,
                                      Sequence[Fault], None] = None,
                        *,
                        topology: Optional[RegionTopology] = None,
                        qps: float = 60.0,
                        duration: float = 30.0,
                        warmup: Optional[float] = None,
                        mode: str = "failover",
                        seed: int = 0,
                        replicas: Optional[Dict[str, int]] = None,
                        cores: Optional[Dict[str, int]] = None,
                        policies: Optional[dict] = None,
                        default_policy=None,
                        frontdoor_config: Optional[FrontDoorConfig]
                        = None,
                        replication_interval: float = 0.25,
                        staleness_bound: float = 1.0,
                        pattern: Optional[RateFn] = None,
                        hypothesis: Optional[SteadyStateHypothesis]
                        = None,
                        metrics: Union[bool, object] = True,
                        sample_period: float = 1.0,
                        scenario: str = "region",
                        validate: bool = True) -> RegionRun:
    """Run one multi-region scenario and grade it globally.

    ``faults`` may be a :class:`FaultSchedule`, a list of faults, a
    builder ``(deployment, duration) -> FaultSchedule``, or None for
    the no-fault baseline.  ``qps`` is the *global* arrival rate; each
    population gets its normalized ``population_share`` of it, and
    ``pattern`` (a rate function of time, e.g. a diurnal curve summing
    to ``qps``-scale) is shifted per region by its ``time_offset``."""
    from ..chaos.harness import _resolve_app
    from ..sim.engine import Environment

    application = _resolve_app(app)
    topology = topology or two_region_topology()
    if warmup is None:
        warmup = 0.2 * duration
    env = Environment()
    deployment = MultiRegionDeployment(
        env, application, topology, replicas=replicas, cores=cores,
        seed=seed, policies=policies, default_policy=default_policy)
    replication = ReplicationManager(
        deployment, interval=replication_interval,
        staleness_bound=staleness_bound).start()
    config = frontdoor_config or FrontDoorConfig(mode=mode)
    frontdoor = FrontDoor(deployment, replication=replication,
                          config=config).start()
    schedule = _resolve_schedule(faults, deployment, duration)
    log = schedule.arm(deployment, validate=validate)

    registry = None
    if metrics is not None and metrics is not False:
        from ..obs import MetricsRegistry, instrument_frontdoor
        registry = MetricsRegistry() if metrics is True else metrics
        frontdoor.collector.set_metrics(registry)
        instrument_frontdoor(registry, frontdoor)
        registry.start(env)

    names = deployment.region_names
    shares = {name: topology.spec(name).population_share
              for name in names}
    total_share = sum(shares.values())
    if total_share <= 0:
        raise ValueError("population shares sum to zero")
    base_rate = pattern if pattern is not None else constant(float(qps))
    generators: Dict[str, OpenLoopGenerator] = {}
    for idx, name in enumerate(names):
        share = shares[name] / total_share
        if share <= 0:
            continue
        spec = topology.spec(name)
        rate_fn = shifted(scaled(base_rate, share), spec.time_offset)
        gen = OpenLoopGenerator(frontdoor.client(name), rate_fn,
                                seed=seed + 10 * (idx + 1))
        gen.start(duration)
        generators[name] = gen

    utilization: Dict[str, Dict[str, TimeSeries]] = {}
    for name in names:
        regional = deployment.region(name)
        utilization[name] = {
            service: TimeSeries(f"{name}:{service}")
            for service in regional.service_names()}
        env.process(
            monitor_utilization(regional, utilization[name],
                                sample_period),
            name=f"monitor:{name}")

    env.run(until=duration)

    region_results = {
        name: RegionResult(
            deployment=deployment.region(name),
            collector=deployment.region(name).collector,
            utilization=utilization[name],
            duration=duration, warmup=warmup)
        for name in names}
    global_result = RegionResult(
        deployment=deployment, collector=frontdoor.collector,
        utilization={}, duration=duration, warmup=warmup,
        metrics=registry)

    region_cards = {
        name: build_scorecard(region_results[name], log,
                              scenario=f"{scenario}:{name}",
                              hypothesis=hypothesis, seed=seed)
        for name in names}
    base = build_scorecard(global_result, log, scenario=scenario,
                           hypothesis=hypothesis, seed=seed)
    card = GlobalScorecard(**{
        f.name: getattr(base, f.name)
        for f in dataclasses.fields(Scorecard)})
    card.mode = config.mode
    card.region_blast = {
        name: region_cards[name].blast_radius for name in names}
    card.stale_reads = replication.stale_reads
    card.stale_reads_by_region = {
        name: count
        for name, count in replication.stale_reads_by_region.items()
        if count}
    card.frontdoor_ejections = sum(
        1 for e in frontdoor.events if e.kind == "ejected")
    card.frontdoor_restorations = sum(
        1 for e in frontdoor.events if e.kind == "restored")
    first = log.first_injection()
    if first is not None:
        ejected = [e.time for e in frontdoor.events
                   if e.kind == "ejected" and e.time >= first]
        if ejected and card.detection_time is None:
            # The routing plane noticing is the global detection clock.
            card.detection_time = min(ejected) - first
        restored = [e.time for e in frontdoor.events
                    if e.kind == "restored" and e.time >= first]
        if restored:
            card.cross_region_mttr = max(restored) - first

    return RegionRun(
        scenario=scenario, deployment=deployment, topology=topology,
        frontdoor=frontdoor, replication=replication,
        schedule=schedule, log=log, scorecard=card,
        region_cards=region_cards, result=global_result,
        region_results=region_results, generators=generators,
        seed=seed, duration=duration, warmup=warmup)

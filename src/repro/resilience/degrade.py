"""Graceful degradation: criticality tiers, brownout, utility.

Every defense in the base resilience stack is binary — a request gets
the full call tree or an error.  Real deployments *brown out* instead:
under overload they keep answering, at reduced fidelity, shedding the
least valuable work first.  The vocabulary (criticality tiers,
fallbacks, degradation policies) is declared in the leaf module
:mod:`repro.resilience.criticality` and re-exported here; this module
supplies the control loop:

* **Criticality tiers** — each operation in an application's query mix
  declares whether its requests are ``critical`` (a purchase, a post),
  ``degradable`` (a timeline read that tolerates missing ads), or
  ``sheddable`` (search, analytics).  The class rides down the call
  tree on the :class:`~repro.resilience.RequestContext`.

* **Degradation policies** — per callee-service declarations of what
  may be sacrificed: an *optional* subtree that can be dropped under
  brownout (recommendations, ads), a *fallback* (``default`` payload or
  ``stale_cache`` read) served instead of a terminal failure, or a
  reduced *fan-out* for shardable reads.  Each sacrifice costs the
  request a declared slice of fidelity.

* **Brownout controller** — a deterministic feedback loop (no RNG; the
  same seed replays the same level trajectory byte-for-byte) that moves
  an integer degradation level from three windowed signals — p95
  latency of completed requests, the failure fraction (failures are
  often *fast*, so a latency-only loop goes blind during a collapse),
  and front-door occupancy — with hysteresis so the level does not
  flap.  Classes see
  *staggered* levels — sheddable degrades first and recovers last,
  critical the reverse — and the front-door shedder's per-class
  headroom tightens as the level climbs.

* **Utility accounting** — responses carry a fidelity score in [0, 1];
  goodput weighted by fidelity is *utility*, the quantity scorecards
  report in utility-seconds per criticality class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from .criticality import (CRIT_CRITICAL, CRIT_DEGRADABLE, CRIT_SHEDDABLE,
                          CRITICALITIES, FALLBACK_DEFAULT,
                          FALLBACK_STALE_CACHE, FALLBACKS,
                          DegradationPolicy)

__all__ = [
    "CRIT_CRITICAL",
    "CRIT_DEGRADABLE",
    "CRIT_SHEDDABLE",
    "CRITICALITIES",
    "FALLBACK_DEFAULT",
    "FALLBACK_STALE_CACHE",
    "FALLBACKS",
    "DegradationPolicy",
    "BrownoutConfig",
    "BrownoutEvent",
    "DegradationManager",
    "arm_degradation",
]

#: Per-class shedder headroom lost per degradation level (critical
#: traffic never loses headroom; see :meth:`DegradationManager._apply_headroom`).
_HEADROOM_STEP = {
    CRIT_CRITICAL: 0.0,
    CRIT_DEGRADABLE: 0.15,
    CRIT_SHEDDABLE: 0.25,
}
_HEADROOM_FLOOR = 0.25


@dataclass(frozen=True)
class BrownoutConfig:
    """Feedback law parameters for the brownout controller.

    Only types and positivity are validated here; *semantic* mistakes
    (inverted thresholds, a drop level out of reach) are the static
    analyzer's job (DEG003) so they surface at lint time with a file
    location rather than mid-simulation.
    """

    #: Controller tick period in sim seconds.
    interval: float = 1.0
    #: Raise the level when windowed request p95 exceeds this.
    p95_high: float = 0.5
    #: Candidate to lower the level while p95 stays below this.
    p95_low: float = 0.25
    #: ...or when front-door occupancy (in-flight / bound) exceeds this.
    inflight_high: float = 0.9
    #: Lowering also requires occupancy at or below this.
    inflight_low: float = 0.6
    #: Consecutive calm ticks required before each step down.
    hold_ticks: int = 3
    #: ...or when the windowed request *failure fraction* exceeds this.
    #: Failures matter because they can be arbitrarily fast (a breaker
    #: rejection takes zero time): a latency-only controller reads a
    #: fast-failing system as calm exactly when it is collapsing.
    err_high: float = 0.1
    #: Lowering also requires the failure fraction below this.
    err_low: float = 0.02
    #: Degradation level ceiling.
    max_level: int = 3
    #: Minimum terminal requests in a tick window to trust its signals.
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        for name in ("p95_high", "p95_low", "inflight_high",
                     "inflight_low"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.err_high <= 1.0:
            raise ValueError("err_high must be in (0, 1]")
        if not 0.0 <= self.err_low <= 1.0:
            raise ValueError("err_low must be in [0, 1]")
        if self.hold_ticks < 1:
            raise ValueError("hold_ticks must be >= 1")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class BrownoutEvent:
    """One deterministic level transition, for logs and scorecards."""

    time: float
    level_from: int
    level_to: int
    #: Windowed p95 that drove the decision (None = too few samples).
    p95: Optional[float]
    #: Front-door occupancy fraction at the tick.
    occupancy: float
    #: Windowed failure fraction (None = too few samples).
    error_rate: Optional[float] = None


def _p95(window: List[float]) -> float:
    """Deterministic p95 (nearest-rank) of a non-empty window."""
    ordered = sorted(window)
    rank = math.ceil(0.95 * len(ordered)) - 1
    return ordered[max(rank, 0)]


class DegradationManager:
    """Policies + brownout level + utility counters for one deployment.

    The manager is the single point the runtime consults: *should this
    optional subtree go?  how many shards survive?  is there a fallback
    for this failure?*  It also runs the brownout tick process once
    :meth:`bind` attaches it to an environment, and keeps the counters
    the obs layer and scorecards export.
    """

    def __init__(self,
                 policies: Optional[Dict[str, DegradationPolicy]] = None,
                 config: Optional[BrownoutConfig] = None):
        self.policies: Dict[str, DegradationPolicy] = dict(
            policies or {})
        for service, pol in self.policies.items():
            if pol.service != service:
                raise ValueError(
                    f"policy for {service!r} names {pol.service!r}")
        self.config = config or BrownoutConfig()
        self.level = 0
        self.events: List[BrownoutEvent] = []
        #: service -> dropped-subtree count.
        self.drops: Counter = Counter()
        #: fallback type ("default"/"stale_cache") -> count served.
        self.fallbacks: Counter = Counter()
        #: service -> shards trimmed from parallel fan-outs.
        self.fanout_cuts: Counter = Counter()
        self._env = None
        self._shedder = None
        self._calm_ticks = 0
        self._window: List[float] = []
        self._window_failures = 0

    # -- wiring --------------------------------------------------------
    def bind(self, env, shedder=None) -> None:
        """Attach to a simulation and start the brownout tick loop."""
        self._env = env
        self._shedder = shedder
        if shedder is not None:
            self._apply_headroom()
        env.process(self._tick_loop(), name="brownout")

    def observe_latency(self, latency: float) -> None:
        """Feed one completed request latency into the tick window."""
        self._window.append(latency)

    def observe_failure(self) -> None:
        """Feed one failed terminal request into the tick window.

        Failures are counted, not timed: a breaker rejection or a
        deadline kill finishes in near-zero wall time, and letting it
        into the latency window would drag the p95 *down* during a
        collapse.  They drive the window's failure fraction instead."""
        self._window_failures += 1

    # -- feedback law --------------------------------------------------
    def _occupancy(self) -> float:
        shedder = self._shedder
        if shedder is None:
            return 0.0
        return shedder.in_flight / shedder.max_concurrent

    def _tick_loop(self):
        cfg = self.config
        while True:
            yield self._env.timeout(cfg.interval)
            window, self._window = self._window, []
            failures, self._window_failures = self._window_failures, 0
            p95 = _p95(window) if len(window) >= cfg.min_samples \
                else None
            total = len(window) + failures
            err = failures / total if total >= cfg.min_samples else None
            occupancy = self._occupancy()
            hot = ((p95 is not None and p95 > cfg.p95_high)
                   or (err is not None and err > cfg.err_high)
                   or occupancy >= cfg.inflight_high)
            calm = ((p95 is None or p95 < cfg.p95_low)
                    and (err is None or err < cfg.err_low)
                    and occupancy <= cfg.inflight_low)
            if hot:
                self._calm_ticks = 0
                self._step(+1, p95, occupancy, err)
            elif calm:
                self._calm_ticks += 1
                if self._calm_ticks >= cfg.hold_ticks:
                    self._calm_ticks = 0
                    self._step(-1, p95, occupancy, err)
            else:
                # Neither hot nor calm: hold the level, reset the
                # calm streak so recovery needs sustained quiet.
                self._calm_ticks = 0

    def _step(self, direction: int, p95: Optional[float],
              occupancy: float,
              error_rate: Optional[float] = None) -> None:
        new = min(max(self.level + direction, 0), self.config.max_level)
        if new == self.level:
            return
        self.events.append(BrownoutEvent(
            time=self._env.now, level_from=self.level, level_to=new,
            p95=p95, occupancy=occupancy, error_rate=error_rate))
        self.level = new
        self._apply_headroom()

    def _apply_headroom(self) -> None:
        """Tighten per-class front-door headroom as the level climbs."""
        if self._shedder is None:
            return
        for criticality in CRITICALITIES:
            fraction = max(_HEADROOM_FLOOR,
                           1.0 - _HEADROOM_STEP[criticality]
                           * self.level)
            self._shedder.set_class_headroom(criticality, fraction)

    # -- decisions the runtime consults --------------------------------
    def level_for(self, criticality: str) -> int:
        """Class-effective level: sheddable feels the full brownout,
        critical lags two steps behind ("critical last")."""
        lag = CRITICALITIES.index(criticality) \
            if criticality in CRITICALITIES else 0
        return max(0, self.level - (len(CRITICALITIES) - 1 - lag))

    def maybe_drop(self, service: str, criticality: str) -> bool:
        """True (and counted) when this optional subtree goes."""
        pol = self.policies.get(service)
        if pol is None or not pol.optional:
            return False
        if self.level_for(criticality) < pol.drop_level:
            return False
        self.drops[service] += 1
        return True

    def can_trim(self, service: str, criticality: str) -> bool:
        """True when this shard is trimmable at the current level."""
        pol = self.policies.get(service)
        return (pol is not None and pol.fanout_keep is not None
                and self.level_for(criticality) >= pol.fanout_level)

    def fanout_keep(self, services: List[str],
                    criticality: str) -> Optional[int]:
        """How many of a parallel group's trimmable shards survive.

        ``services`` are the members of one parallel call group;
        returns None when no reduction applies (level too low for
        every member, or nothing declared)."""
        keeps = [self.policies[service].fanout_keep
                 for service in services
                 if self.can_trim(service, criticality)]
        if not keeps:
            return None
        # The least aggressive declaration wins: keep the most shards.
        return max(keeps)

    def note_fanout_cut(self, service: str) -> None:
        self.fanout_cuts[service] += 1

    def fallback_for(self, service: str) -> Optional[DegradationPolicy]:
        """The fallback policy masking a terminal failure, if any."""
        pol = self.policies.get(service)
        if pol is not None and pol.fallback is not None:
            return pol
        return None

    def note_fallback(self, fallback: str) -> None:
        self.fallbacks[fallback] += 1

    # -- reporting -----------------------------------------------------
    @property
    def degradation_events(self) -> int:
        """Total sacrifices made (drops + fallbacks + fan-out cuts)."""
        return (sum(self.drops.values()) + sum(self.fallbacks.values())
                + sum(self.fanout_cuts.values()))

    def event_log(self) -> List[Dict[str, object]]:
        """The level trajectory as plain dicts (JSON-friendly)."""
        return [
            {"time": round(ev.time, 6), "from": ev.level_from,
             "to": ev.level_to,
             "p95": None if ev.p95 is None else round(ev.p95, 6),
             "occupancy": round(ev.occupancy, 4),
             "error_rate": None if ev.error_rate is None
             else round(ev.error_rate, 4)}
            for ev in self.events
        ]


def arm_degradation(app, qps: Optional[float] = None) -> tuple:
    """(DegradationManager, LoadShedder) wired to one application.

    The brownout thresholds come from the app's QoS target: raise the
    level once the windowed p95 passes *half* the target, recover
    below 0.3x of it.  Half, not the full target: QoS budgets carry
    headroom over the healthy p95, and with deadline policies armed
    the requests that *would* blow the target are killed at the
    deadline — so a p95 sitting at the target means the collapse
    already happened.  Tripping at half the budget leaves the
    controller a regime where degrading still helps.  Policies come
    from the app's declared ``degradation_policies``.  The front-door
    bound follows Little's
    law at the offered load — in-flight at the QoS target times a 4x
    headroom factor — so shedding engages only once queues build well
    past the healthy operating point.  Pass both to
    :func:`repro.core.experiment.simulate` (``shedder=`` /
    ``degradation=``)."""
    from .shedder import LoadShedder

    qos = app.qos_latency
    config = BrownoutConfig(p95_high=0.5 * qos, p95_low=0.3 * qos)
    manager = DegradationManager(
        policies=getattr(app, "degradation_policies", None) or {},
        config=config)
    bound = 64 if qps is None else max(16, math.ceil(qps * qos * 4))
    return manager, LoadShedder(max_concurrent=bound)

"""Proactive mitigation: act on a prediction before the violation.

The whole point of predicting a violation is doing something about it
while there is still lead time.  :class:`ProactiveMitigator` receives
:class:`~repro.predict.predictor.PredictionEvent`\\ s and drives the
*existing* control machinery — nothing here invents a new actuator:

* **pre-scale** — scale the predicted culprit out through the same
  :class:`~repro.cluster.scaling.ScalingBookkeeper` the reactive
  autoscalers use (same provisioning delay, same event log), but
  triggered by the forecast instead of by an already-saturated gauge.
  Under blocking-connection protocols (HTTP/1, Fig. 17 case B) the
  culprit's direct upstream callers are pre-scaled too: connection
  pools are keyed on the *caller* instance, so replicas behind a
  starved edge are useless until the edge itself is widened;
* **pre-trip** — force the circuit breakers on edges *into* the
  predicted culprit open (``CircuitBreaker.trip``): callers start
  failing fast through the normal open → half-open → probe cycle
  instead of parking workers on a tier forecast to drown;
* **shed** — tighten the front-door
  :class:`~repro.resilience.shedder.LoadShedder` to a fraction of its
  limit for a hold period, then restore it — targeted, temporary
  admission control while capacity catches up.

Every action lands in :attr:`events` as a :class:`MitigationEvent`,
so the ablation harness can line actions up against episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cluster.scaling import ScalingBookkeeper

__all__ = ["MitigationEvent", "ProactiveMitigator"]

#: Actions the mitigator can take, in the order they are attempted.
ACTIONS: Tuple[str, ...] = ("prescale", "pretrip", "shed")


@dataclass(frozen=True)
class MitigationEvent:
    """One proactive action taken on a prediction."""

    time: float
    service: str
    action: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"time": self.time, "service": self.service,
                "action": self.action, "detail": self.detail}


class ProactiveMitigator:
    """Turns prediction events into control actions.

    ``actions`` selects which levers to pull (subset of
    ``("prescale", "pretrip", "shed")``).  ``prescale_step`` replicas
    are added per alert through the shared bookkeeper;
    ``shed_fraction``/``shed_hold`` bound the temporary front-door
    tightening.  Shedding applies to the deployment's front-door
    shedder, never at the culprit itself — shedding *at* the culprit
    would starve the probes that let its breakers close again."""

    def __init__(self, env, deployment,
                 actions: Tuple[str, ...] = ("prescale",),
                 startup_delay: float = 10.0,
                 prescale_step: int = 1,
                 shed_fraction: float = 0.5,
                 shed_hold: float = 10.0):
        for action in actions:
            if action not in ACTIONS:
                raise ValueError(f"unknown mitigation action "
                                 f"{action!r}")
        if prescale_step < 1:
            raise ValueError("prescale_step must be >= 1")
        if not 0.0 < shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        if shed_hold <= 0:
            raise ValueError("shed_hold must be > 0")
        self.env = env
        self.deployment = deployment
        self.actions = tuple(actions)
        self.bookkeeper = ScalingBookkeeper(
            env, deployment, startup_delay=startup_delay)
        self.prescale_step = prescale_step
        self.shed_fraction = shed_fraction
        self.shed_hold = shed_hold
        self.events: List[MitigationEvent] = []
        self._shed_restore: Optional[float] = None
        self._shed_until = 0.0

    def on_prediction(self, event) -> None:
        """Apply every configured action to one prediction event."""
        if "prescale" in self.actions:
            self._prescale(event)
        if "pretrip" in self.actions:
            self._pretrip(event)
        if "shed" in self.actions:
            self._shed(event)

    # -- actions --------------------------------------------------------
    def _upstream_callers(self, service: str) -> List[str]:
        """Services that call ``service`` directly in any operation."""
        callers = set()
        for op in self.deployment.app.operations.values():
            for node in op.root.walk():
                for group in node.groups:
                    for child in group:
                        if child.service == service:
                            callers.add(node.service)
        return sorted(callers)

    def _prescale_one(self, service: str, detail_suffix: str = "") -> None:
        for _ in range(self.prescale_step):
            if not self.bookkeeper.can_scale_out(service):
                break
            scaled = self.bookkeeper.scale_out(
                service, self.deployment.utilization(service),
                action="prescale")
            if scaled is None:
                break
            self.events.append(MitigationEvent(
                time=self.env.now, service=service, action="prescale",
                detail=f"replicas -> {scaled.instances}{detail_suffix}"))

    def _prescale(self, event) -> None:
        service = event.service
        self._prescale_one(service)
        if self.deployment.costs.blocking_connections:
            # Connection pools live on the caller side of each edge:
            # new culprit replicas sit idle until the pools feeding the
            # edge are widened by scaling the callers too.
            for caller in self._upstream_callers(service):
                self._prescale_one(caller, " (widen edge)")

    def _pretrip(self, event) -> None:
        service = event.service
        tripped = 0
        breakers = self.deployment.breakers()
        for key in sorted(breakers, key=lambda k: tuple(map(str, k))):
            if len(key) < 2 or key[1] != service:
                continue
            breaker = breakers[key]
            if breaker.state != "open":
                breaker.trip()
                tripped += 1
        if tripped:
            self.events.append(MitigationEvent(
                time=self.env.now, service=service, action="pretrip",
                detail=f"{tripped} edge(s) opened"))

    def _shed(self, event) -> None:
        shedder = getattr(self.deployment, "shedder", None)
        if shedder is None:
            return
        if self._shed_restore is not None:
            # Already tightened: extend the hold instead of stacking
            # multiplicative reductions into a self-inflicted outage.
            self._shed_until = self.env.now + self.shed_hold
            return
        original = shedder.max_concurrent
        tightened = max(1, int(original * self.shed_fraction))
        shedder.set_limit(tightened)
        self._shed_restore = float(original)
        self._shed_until = self.env.now + self.shed_hold
        self.events.append(MitigationEvent(
            time=self.env.now, service=event.service, action="shed",
            detail=f"front-door limit {original} -> {tightened} "
                   f"for {self.shed_hold:g}s"))
        self.env.process(self._restore_shedder(shedder),
                         name="predict-shed-restore")

    def _restore_shedder(self, shedder):
        while True:
            remaining = self._shed_until - self.env.now
            if remaining <= 0:
                break
            yield self.env.timeout(remaining)
        shedder.set_limit(int(self._shed_restore))
        self.events.append(MitigationEvent(
            time=self.env.now, service="", action="shed_restore",
            detail=f"front-door limit restored to "
                   f"{int(self._shed_restore)}"))
        self._shed_restore = None

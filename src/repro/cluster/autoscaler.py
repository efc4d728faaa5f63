"""Utilization-threshold autoscaling.

This is the autoscaler the paper argues is *insufficient* for
microservices (Sec. 6): it watches per-tier CPU utilization and scales
out any tier above a threshold (70 % by default, matching the EC2
default the paper cites).  It has no notion of inter-tier dependencies,
so under backpressure it scales the busy-waiting victim instead of the
culprit (Fig. 17 case B, Fig. 20).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import Environment
from ..stats.timeseries import StepSeries
from .scaling import AutoscalerEvent, ScalingBookkeeper, UtilizationWindow

__all__ = ["UtilizationAutoscaler", "AutoscalerEvent"]


class UtilizationAutoscaler:
    """Periodic per-service scale-out/in on mean CPU utilization.

    Parameters mirror real cloud autoscalers: a sampling ``period``, a
    ``scale_out_threshold`` (default 0.7 per the EC2 default), a
    ``scale_in_threshold``, a provisioning ``startup_delay`` before new
    capacity is live, and per-service instance bounds.
    """

    def __init__(self, env: Environment, deployment,
                 period: float = 5.0,
                 scale_out_threshold: float = 0.7,
                 scale_in_threshold: float = 0.2,
                 startup_delay: float = 10.0,
                 max_instances: int = 64,
                 cooldown: float = 10.0,
                 services: Optional[List[str]] = None):
        if not 0 < scale_in_threshold < scale_out_threshold <= 1.0:
            raise ValueError("need 0 < scale_in < scale_out <= 1")
        if period <= 0 or startup_delay < 0 or cooldown < 0:
            raise ValueError("period must be > 0; delays must be >= 0")
        self.env = env
        self.deployment = deployment
        self.period = period
        self.scale_out_threshold = scale_out_threshold
        self.scale_in_threshold = scale_in_threshold
        self.cooldown = cooldown
        self.services = services
        self.bookkeeper = ScalingBookkeeper(
            env, deployment, startup_delay=startup_delay,
            max_instances=max_instances)
        self._last_action: Dict[str, float] = {}
        self._window = UtilizationWindow()
        self._last_sample = env.now
        self._process = None

    # Shared bookkeeping, exposed under the historical names.
    @property
    def events(self) -> List[AutoscalerEvent]:
        """Scaling actions taken so far, oldest first."""
        return self.bookkeeper.events

    @property
    def instance_counts(self) -> Dict[str, StepSeries]:
        """Per-service replica-count step series."""
        return self.bookkeeper.instance_counts

    @property
    def startup_delay(self) -> float:
        return self.bookkeeper.startup_delay

    @property
    def max_instances(self) -> int:
        return self.bookkeeper.max_instances

    def start(self) -> None:
        """Begin the control loop."""
        if self._process is not None:
            raise RuntimeError("autoscaler already started")
        self.bookkeeper.watch(self._watched())
        self._process = self.env.process(self._loop(), name="autoscaler")

    def _watched(self) -> List[str]:
        if self.services is not None:
            return self.services
        return list(self.deployment.service_names())

    def _utilization(self, service: str, dt: float) -> float:
        """Mean tier CPU utilization over the last control period
        (0.0 for an empty window).

        CPU is what real utilization autoscalers watch — and because
        synchronous worker pools *busy-wait* on blocked downstream
        calls (see Deployment's sync busy-wait model), a backpressured
        front tier looks genuinely CPU-saturated here, which is exactly
        how Fig. 17's case B tricks this policy."""
        util = self._window.sample(self.deployment.instances_of(service),
                                   dt)
        return 0.0 if util is None else util

    def _loop(self):
        while True:
            yield self.env.timeout(self.period)
            dt = self.env.now - self._last_sample
            self._last_sample = self.env.now
            for service in self._watched():
                util = self._utilization(service, dt)
                now = self.env.now
                if now - self._last_action.get(service, -1e18) < self.cooldown:
                    continue
                n = self.bookkeeper.planned_instances(service)
                if util > self.scale_out_threshold \
                        and self.bookkeeper.can_scale_out(service):
                    self._last_action[service] = now
                    self.bookkeeper.scale_out(service, util)
                elif util < self.scale_in_threshold and n > 1:
                    self._last_action[service] = now
                    self.bookkeeper.scale_in(service, util)

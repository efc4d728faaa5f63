"""Shared scaling-action bookkeeping for every scaling controller.

Three controllers change replica counts at runtime — the
utilization-threshold autoscaler (the paper's insufficient baseline),
the trace-driven dependency-aware autoscaler (the Sec. 6 fix), and the
proactive mitigator of :mod:`repro.predict` (which scales *before* the
violation).  They all need the same bookkeeping: an event log for
post-hoc inspection, per-service replica-count step series, pending
scale-outs that must count against instance bounds while provisioning,
and the startup-delay process that makes new capacity live only after
a realistic provisioning lag.  This module holds that machinery once so
policy modules contain nothing but policy, plus the windowed CPU
utilization every observer of a tier (the autoscaler, the harness
monitor, the metrics scrape) computes the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import Environment
from ..stats.timeseries import StepSeries

__all__ = ["AutoscalerEvent", "ScalingBookkeeper", "UtilizationWindow"]


class AutoscalerEvent:
    """One scaling action, for post-hoc inspection."""

    def __init__(self, time: float, service: str, action: str,
                 utilization: float, instances: int):
        self.time = time
        self.service = service
        self.action = action
        self.utilization = utilization
        self.instances = instances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{self.action} {self.service} at t={self.time:.1f} "
                f"util={self.utilization:.2f} n={self.instances}>")


class ScalingBookkeeper:
    """Event log + replica accounting + provisioning for one policy.

    The policy decides *what* to scale; the bookkeeper owns everything
    that follows: it appends an :class:`AutoscalerEvent`, tracks the
    scale-out as pending until the ``startup_delay`` elapses (so bounds
    checks see in-flight capacity), adds/removes the instance on the
    deployment, and steps the per-service replica-count series.
    """

    def __init__(self, env: Environment, deployment,
                 startup_delay: float = 10.0,
                 max_instances: int = 64):
        if startup_delay < 0:
            raise ValueError("startup_delay must be >= 0")
        if max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        self.env = env
        self.deployment = deployment
        self.startup_delay = startup_delay
        self.max_instances = max_instances
        self.events: List[AutoscalerEvent] = []
        self.instance_counts: Dict[str, StepSeries] = {}
        self._pending: Dict[str, int] = {}

    def watch(self, services) -> None:
        """Start replica-count step series for ``services`` at now."""
        for name in services:
            self.instance_counts[name] = StepSeries(
                initial=len(self.deployment.instances_of(name)),
                start=self.env.now)

    def planned_instances(self, service: str) -> int:
        """Live replicas plus scale-outs still provisioning."""
        return (len(self.deployment.instances_of(service))
                + self._pending.get(service, 0))

    def can_scale_out(self, service: str) -> bool:
        """True while the planned count is under ``max_instances``."""
        return self.planned_instances(service) < self.max_instances

    def scale_out(self, service: str, utilization: float,
                  action: str = "scale_out") -> Optional[AutoscalerEvent]:
        """Begin one scale-out (new capacity live after the delay)."""
        if not self.can_scale_out(service):
            return None
        n = self.planned_instances(service)
        self._pending[service] = self._pending.get(service, 0) + 1
        event = AutoscalerEvent(self.env.now, service, action,
                                utilization, n + 1)
        self.events.append(event)
        self.env.process(self._provision(service),
                         name=f"provision-{service}")
        return event

    def scale_in(self, service: str, utilization: float,
                 action: str = "scale_in") -> AutoscalerEvent:
        """Remove one replica immediately and log the action."""
        self.deployment.remove_instance(service)
        count = len(self.deployment.instances_of(service))
        event = AutoscalerEvent(self.env.now, service, action,
                                utilization, count)
        self.events.append(event)
        series = self.instance_counts.get(service)
        if series is not None:
            series.set(self.env.now, count)
        return event

    def _provision(self, service: str):
        """Model instance startup latency before capacity goes live."""
        yield self.env.timeout(self.startup_delay)
        self.deployment.add_instance(service)
        self._pending[service] -= 1
        count = len(self.deployment.instances_of(service))
        series = self.instance_counts.get(service)
        if series is not None:
            series.set(self.env.now, count)


class UtilizationWindow:
    """Windowed tier CPU utilization from cumulative busy-time deltas.

    Sampling the busy fraction at an instant would read ~0 at low load,
    so each sample covers the time since the previous one.  Every
    observer owns its window: the busy-time marks are per window, so
    no observer perturbs another's sampling."""

    def __init__(self):
        self._prev_busy: Dict[int, float] = {}

    def sample(self, instances, dt: float) -> Optional[float]:
        """Busy fraction of ``instances``' cores over the last ``dt``
        seconds, or None when ``dt <= 0`` or the tier has no cores.

        The busy-time marks advance either way."""
        delta = 0.0
        cores = 0
        for inst in instances:
            busy = inst.cpu.busy_time()
            delta += busy - self._prev_busy.get(id(inst), 0.0)
            self._prev_busy[id(inst)] = busy
            cores += inst.cores
        if dt <= 0 or cores == 0:
            return None
        return min(1.0, delta / (dt * cores))

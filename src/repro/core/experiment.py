"""The experiment harness: run a deployment under load and measure.

This is the public entry point the examples and every benchmark build
on: construct a deployment (or let :func:`simulate` do it), drive it
with an open-loop generator, sample per-tier utilization over time, and
return an :class:`ExperimentResult` with the latency distribution,
throughput, per-service statistics, and time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Union

from ..arch.platform import XEON
from ..cluster.cluster import Cluster
from ..cluster.scaling import UtilizationWindow
from ..services.app import Application
from ..sim.engine import Environment
from ..stats.timeseries import TimeSeries
from ..tracing.collector import TraceCollector
from ..workload.generator import OpenLoopGenerator
from ..workload.patterns import constant
from .deployment import Deployment

if TYPE_CHECKING:
    import numpy as np

    from ..cluster.ratelimit import TokenBucket

__all__ = ["ExperimentResult", "monitor_utilization", "run_experiment",
           "simulate"]

RateFn = Callable[[float], float]

#: Seconds between the utilization monitor's samples.
SAMPLE_PERIOD = 1.0


def monitor_utilization(deployment, utilization: Dict[str, TimeSeries]):
    """Process body: every :data:`SAMPLE_PERIOD` record each tier's busy
    fraction into ``utilization[tier]``.

    The monitor owns its
    :class:`~repro.cluster.scaling.UtilizationWindow`, so it never
    perturbs the autoscaler's own sampling."""
    env = deployment.env
    window = UtilizationWindow()
    last_t = env.now
    while True:
        yield env.timeout(SAMPLE_PERIOD)
        dt = env.now - last_t
        last_t = env.now
        for name, series in utilization.items():
            util = window.sample(deployment.instances_of(name), dt)
            series.record(env.now, 0.0 if util is None else util)


@dataclass
class ExperimentResult:
    """Everything measured during one experiment run."""

    deployment: Deployment
    generator: OpenLoopGenerator
    collector: TraceCollector
    utilization: Dict[str, TimeSeries]
    duration: float
    warmup: float
    extras: Dict[str, object] = field(default_factory=dict)
    #: The sim-time metrics registry, when the run was instrumented
    #: (``metrics=True`` / a registry passed to :func:`run_experiment`).
    metrics: Optional[object] = None

    # -- latency ---------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """Post-warmup end-to-end latency samples (seconds)."""
        return self.collector.end_to_end.samples(start=self.warmup)

    def tail(self, p: float = 0.99) -> float:
        """Post-warmup end-to-end tail latency."""
        return self.collector.end_to_end.tail(p, start=self.warmup)

    def mean_latency(self) -> float:
        """Post-warmup mean end-to-end latency."""
        return self.collector.end_to_end.mean(start=self.warmup)

    def service_tail(self, service: str, p: float = 0.99) -> float:
        """Post-warmup tail latency of one tier's spans."""
        return self.collector.per_service[service].tail(p, start=self.warmup)

    # -- throughput -------------------------------------------------------
    def throughput(self) -> float:
        """Completed end-to-end requests per second post-warmup.

        Routed through the collector so the estimate is weight-corrected
        when a trace sampler is attached."""
        return self.collector.throughput(
            start=self.warmup, end=self.duration)

    def completion_ratio(self) -> float:
        """Completed / issued — below ~0.95 means the system never
        drained its queues (a saturation signal in its own right)."""
        if self.generator.issued == 0:
            return 0.0
        return self.collector.total_collected / self.generator.issued

    def success_ratio(self) -> float:
        """Successful completions / issued.  With a resilience policy
        in place requests can finish fast-but-failed (timeout, open
        breaker, shed); this is the end-to-end availability number."""
        if self.generator.issued == 0:
            return 0.0
        return self.collector.ok_count / self.generator.issued

    def goodput(self, qos_latency: Optional[float] = None,
                p: float = 0.99,
                min_completion: float = 0.9) -> float:
        """Throughput if QoS holds (and the system keeps up), else 0."""
        bound = qos_latency if qos_latency is not None \
            else self.deployment.app.qos_latency
        if self.completion_ratio() < min_completion:
            return 0.0
        if len(self.latencies()) == 0:
            return 0.0
        if self.tail(p) > bound:
            return 0.0
        return self.throughput()

    def qos_met(self, qos_latency: Optional[float] = None,
                p: float = 0.99) -> bool:
        """True when the post-warmup tail satisfies the QoS bound."""
        return self.goodput(qos_latency, p) > 0.0


def run_experiment(deployment: Deployment,
                   rate: Union[float, RateFn],
                   duration: float,
                   warmup: Optional[float] = None,
                   mix: Optional[Mapping[str, float]] = None,
                   rate_limiter: Optional[TokenBucket] = None,
                   seed: int = 1,
                   run_env: bool = True,
                   metrics: Union[bool, object, None] = None,
                   ) -> ExperimentResult:
    """Drive ``deployment`` with open-loop load and measure.

    ``rate`` is either a fixed QPS or a pattern function.  The
    environment is run to ``duration`` unless ``run_env=False`` (callers
    who schedule extra processes — autoscalers, fault injectors — can
    run the clock themselves and still get the monitoring plumbing).

    ``metrics`` attaches the observability layer: pass ``True`` for a
    default :class:`~repro.obs.MetricsRegistry` (1 s scrape cadence) or
    a pre-configured registry; the deployment, collector, and generator
    are instrumented and the sim-time scraper started, with the
    registry returned on ``result.metrics``."""
    env = deployment.env
    if warmup is None:
        warmup = 0.2 * duration
    rate_fn: RateFn = rate if callable(rate) else constant(float(rate))
    generator = OpenLoopGenerator(deployment, rate_fn, mix=mix,
                                  rate_limiter=rate_limiter, seed=seed)
    # Serverless deployments have no provisioned instances to watch.
    monitorable = hasattr(deployment, "instances_of")
    utilization: Dict[str, TimeSeries] = {
        name: TimeSeries(name) for name in deployment.service_names()
    } if monitorable else {}

    if monitorable:
        env.process(monitor_utilization(deployment, utilization),
                    name="monitor")
    registry = None
    if metrics is not None and metrics is not False:
        from ..obs import MetricsRegistry, instrument_experiment
        registry = MetricsRegistry() if metrics is True else metrics
        if monitorable:
            instrument_experiment(registry, deployment,
                                  generator=generator, env=env)
        else:
            # Serverless-style deployments: no per-tier instances to
            # watch, but request metrics and the scraper still apply.
            from ..obs import instrument_generator
            collector = getattr(deployment, "collector", None)
            if collector is not None \
                    and hasattr(collector, "set_metrics"):
                collector.set_metrics(registry)
            instrument_generator(registry, generator)
            registry.start(env)
    generator.start(duration)
    result = ExperimentResult(
        deployment=deployment, generator=generator,
        collector=deployment.collector, utilization=utilization,
        duration=duration, warmup=warmup, metrics=registry)
    if run_env:
        env.run(until=duration)
    return result


def simulate(app: Application,
             qps: Union[float, RateFn],
             duration: float = 30.0,
             n_machines: int = 4,
             replicas: Optional[Dict[str, int]] = None,
             cores: Optional[Dict[str, int]] = None,
             seed: int = 0,
             freq_ghz: Optional[float] = None,
             edge_machines: int = 0,
             policies: Optional[Dict[str, object]] = None,
             default_policy: Optional[object] = None,
             shedder: Optional[object] = None,
             degradation: Optional[object] = None,
             setup: Optional[Callable[[Deployment], None]] = None,
             sampler: Optional[object] = None,
             **kwargs) -> ExperimentResult:
    """One-call convenience: build env + cluster + deployment and run.

    ``policies``/``default_policy``/``shedder`` pass resilience
    configuration (:mod:`repro.resilience`) through to the deployment,
    and ``degradation`` (a :class:`~repro.resilience.DegradationManager`)
    arms graceful degradation on top of it.
    ``setup`` runs against the fresh deployment before load starts —
    the hook for fault injection (``slow_down_service``, ``delay_
    service``, ...) and for scheduling mid-run events on its env.

    ``sampler`` (a :class:`~repro.tracing.sampling.TraceSampler`)
    configures deterministic head sampling of the deployment's trace
    collector: span storage, recorders and metric histograms.

    The cluster is ``n_machines`` Xeon servers plus ``edge_machines``
    drone SoCs in the ``edge`` zone."""
    env = Environment()
    cluster = Cluster.homogeneous(env, XEON, n_machines)
    if edge_machines > 0:
        from ..arch.platform import DRONE_SOC
        edge = Cluster.homogeneous(env, DRONE_SOC, edge_machines,
                                   zone="edge", name_prefix="drone")
        cluster = cluster.merge(edge)
    if freq_ghz is not None:
        cluster.set_frequency(freq_ghz)
    collector = None if sampler is None else TraceCollector(sampler=sampler)
    deployment = Deployment(env, app, cluster, replicas=replicas,
                            cores=cores, seed=seed, policies=policies,
                            default_policy=default_policy,
                            shedder=shedder, collector=collector,
                            degradation=degradation)
    if setup is not None:
        setup(deployment)
    return run_experiment(deployment, qps, duration, seed=seed + 1,
                          **kwargs)

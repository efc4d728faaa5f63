"""Standard instrumentation over the simulation stack.

One call — :func:`instrument_experiment` — registers the fleet-wide
metric surface the paper's cluster-management analysis depends on
(Sec. 7): per-tier CPU utilization and run-queue depth, RPC rates and
outcomes, retry/shed/timeout counters, circuit-breaker state as gauge
steps, NIC queue depths and kernel-TCP CPU share, cache hit ratios,
and autoscaler actions.  Everything is exposed through the central
:class:`~repro.obs.registry.MetricsRegistry` and sampled by its
sim-time scraper, so the QoS-attribution engine and the dashboard read
one store instead of recomputing ad hoc per benchmark.

Metric names (Prometheus conventions, ``repro_`` prefix)
--------------------------------------------------------
=================================== ======= =============================
name                                kind    labels
=================================== ======= =============================
repro_cpu_utilization               gauge   service
repro_run_queue_depth               gauge   service
repro_outstanding_requests          gauge   service
repro_worker_queue_depth            gauge   service
repro_replicas                      gauge   service
repro_net_cpu_share                 gauge   service
repro_nic_queue_depth               gauge   machine, direction
repro_breaker_state                 gauge   caller, callee, instance
repro_breaker_opened_total          counter caller, callee, instance
repro_resilience_events_total       counter event
repro_shed_requests_total           counter (none)
repro_shed_requests_by_class_total  counter criticality
repro_admitted_requests_total       counter (none)
repro_inflight_requests             gauge   (none)
repro_retry_budget_tokens           gauge   service
repro_degradation_level             gauge   criticality
repro_degradation_events_total      counter kind, target
repro_brownout_transitions_total    counter (none)
repro_cache_requests_total          counter service, outcome
repro_cache_hit_ratio               gauge   service
repro_offered_requests_total        counter (none)
repro_autoscaler_actions_total      counter action
repro_health_events_total           counter kind
repro_unhealthy_replicas            gauge   (none)
repro_requests_total                counter operation, status
repro_rpc_total                     counter service, status
repro_request_latency_seconds       histo   operation
repro_span_latency_seconds          histo   service
repro_retries_total                 counter (none)
repro_dropped_traces_total          counter (none)
=================================== ======= =============================

The ``repro_requests_total`` block at the bottom is fed by the
:class:`~repro.tracing.collector.TraceCollector` (push-side); the rest
are collect hooks that mirror live objects at each scrape.

Breaker state encoding: 0 = closed, 1 = half-open, 2 = open — scraped
into the ring buffers, breaker flips appear as gauge steps.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.scaling import UtilizationWindow
from ..resilience.breaker import CLOSED, HALF_OPEN
from ..resilience.degrade import CRITICALITIES
from .registry import MetricsRegistry

__all__ = [
    "instrument_deployment",
    "instrument_generator",
    "instrument_autoscaler",
    "instrument_health",
    "instrument_frontdoor",
    "instrument_experiment",
    "BREAKER_STATE_CODES",
]

#: Gauge encoding of circuit-breaker states.
BREAKER_STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, "open": 2.0}


def instrument_deployment(registry: MetricsRegistry, deployment) -> None:
    """Register the per-tier / per-machine / resilience metric surface
    of one deployment, refreshed by a collect hook at each scrape."""
    util = registry.gauge(
        "repro_cpu_utilization",
        "CPU busy fraction per tier over the last scrape window",
        ("service",))
    runq = registry.gauge(
        "repro_run_queue_depth",
        "Jobs resident on a tier's processor-sharing CPUs", ("service",))
    outstanding = registry.gauge(
        "repro_outstanding_requests",
        "RPCs admitted or queued at a tier", ("service",))
    workq = registry.gauge(
        "repro_worker_queue_depth",
        "Requests waiting for a worker thread", ("service",))
    replicas = registry.gauge(
        "repro_replicas", "Live replicas per tier", ("service",))
    net_share = registry.gauge(
        "repro_net_cpu_share",
        "Kernel-TCP share of a tier's cumulative CPU seconds",
        ("service",))
    nicq = registry.gauge(
        "repro_nic_queue_depth",
        "Messages queued or serializing on a NIC",
        ("machine", "direction"))
    breaker_state = registry.gauge(
        "repro_breaker_state",
        "Circuit breaker state (0 closed, 1 half-open, 2 open)",
        ("caller", "callee", "instance"))
    breaker_opened = registry.counter(
        "repro_breaker_opened_total",
        "Times a breaker tripped open",
        ("caller", "callee", "instance"))
    resilience = registry.counter(
        "repro_resilience_events_total",
        "Resilience events by type (retries, timeouts, shed, ...)",
        ("event",))
    shed_total = registry.counter(
        "repro_shed_requests_total",
        "Requests refused admission at the front tier")
    shed_by_class = registry.counter(
        "repro_shed_requests_by_class_total",
        "Front-tier rejections by criticality class",
        ("criticality",))
    admitted_total = registry.counter(
        "repro_admitted_requests_total",
        "Requests admitted past the front tier")
    inflight = registry.gauge(
        "repro_inflight_requests",
        "End-to-end requests currently admitted")
    budget_tokens = registry.gauge(
        "repro_retry_budget_tokens",
        "Retry-budget tokens available per callee service",
        ("service",))
    degradation_level = registry.gauge(
        "repro_degradation_level",
        "Brownout degradation level effective per criticality class",
        ("criticality",))
    degradation_events = registry.counter(
        "repro_degradation_events_total",
        "Degradation sacrifices by kind and target (dropped subtrees, "
        "fallbacks served, fan-out cuts)", ("kind", "target"))
    brownout_transitions = registry.counter(
        "repro_brownout_transitions_total",
        "Brownout controller level changes")
    cache_reqs = registry.counter(
        "repro_cache_requests_total",
        "Cache lookups by outcome", ("service", "outcome"))
    cache_ratio = registry.gauge(
        "repro_cache_hit_ratio",
        "Observed cache hit ratio per cache tier", ("service",))

    # The scrape's own utilization window: an empty window (dt <= 0)
    # leaves the gauge at its last value.
    window = UtilizationWindow()
    last_t = [None]

    def hook(now: float) -> None:
        dt = now - last_t[0] if last_t[0] is not None else now
        for service in deployment.service_names():
            instances = deployment.instances_of(service)
            sampled = window.sample(instances, dt)
            if sampled is not None:
                util.labels(service=service).set(sampled)
            runq.labels(service=service).set(
                sum(inst.cpu.active_jobs for inst in instances))
            outstanding.labels(service=service).set(
                sum(inst.outstanding for inst in instances))
            workq.labels(service=service).set(
                sum(inst.workers.queue_length for inst in instances
                    if inst.workers is not None))
            replicas.labels(service=service).set(len(instances))
            app_cpu = sum(inst.app_cpu_seconds for inst in instances)
            net_cpu = sum(inst.net_cpu_seconds for inst in instances)
            total = app_cpu + net_cpu
            net_share.labels(service=service).set(
                net_cpu / total if total > 0 else 0.0)
        for machine in deployment.cluster.machines:
            for direction, nic in (("tx", machine.nic_tx),
                                   ("rx", machine.nic_rx)):
                nicq.labels(machine=machine.machine_id,
                            direction=direction).set(nic.depth)
        for key in sorted(deployment.breakers(), key=lambda k: k + ("",)):
            breaker = deployment.breakers()[key]
            caller, callee = key[0], key[1]
            instance = key[2] if len(key) > 2 else ""
            labels = dict(caller=caller, callee=callee,
                          instance=instance)
            breaker_state.labels(**labels).set(
                BREAKER_STATE_CODES[breaker.state])
            breaker_opened.labels(**labels).set_total(
                breaker.opened_count)
        for event in sorted(deployment.resilience_stats):
            resilience.labels(event=event).set_total(
                deployment.resilience_stats[event])
        if deployment.shedder is not None:
            shedder = deployment.shedder
            shed_total.labels().set_total(shedder.shed)
            admitted_total.labels().set_total(shedder.admitted)
            inflight.labels().set(shedder.in_flight)
            for crit in sorted(shedder.shed_by_class):
                shed_by_class.labels(criticality=crit).set_total(
                    shedder.shed_by_class[crit])
        for service in sorted(deployment.retry_budgets()):
            budget = deployment.retry_budgets()[service]
            budget_tokens.labels(service=service).set(budget.tokens)
        manager = getattr(deployment, "degradation", None)
        if manager is not None:
            for crit in CRITICALITIES:
                degradation_level.labels(criticality=crit).set(
                    manager.level_for(crit))
            for service in sorted(manager.drops):
                degradation_events.labels(
                    kind="drop", target=service).set_total(
                    manager.drops[service])
            for fallback in sorted(manager.fallbacks):
                degradation_events.labels(
                    kind="fallback", target=fallback).set_total(
                    manager.fallbacks[fallback])
            for service in sorted(manager.fanout_cuts):
                degradation_events.labels(
                    kind="fanout", target=service).set_total(
                    manager.fanout_cuts[service])
            brownout_transitions.labels().set_total(
                len(manager.events))
        for service in sorted(deployment.cache_stats):
            stats = deployment.cache_stats[service]
            hits = stats.get("hit", 0)
            misses = stats.get("miss", 0)
            cache_reqs.labels(service=service, outcome="hit").set_total(
                hits)
            cache_reqs.labels(service=service, outcome="miss").set_total(
                misses)
            lookups = hits + misses
            cache_ratio.labels(service=service).set(
                hits / lookups if lookups else 0.0)
        last_t[0] = now

    registry.add_collect_hook(hook)


def instrument_generator(registry: MetricsRegistry, generator) -> None:
    """Mirror the load generator's offered-request counter."""
    offered = registry.counter(
        "repro_offered_requests_total",
        "End-to-end requests issued by the load generator")

    def hook(now: float) -> None:
        offered.labels().set_total(generator.issued)

    registry.add_collect_hook(hook)


def instrument_autoscaler(registry: MetricsRegistry, scaler) -> None:
    """Mirror autoscaler actions (scale_out / scale_in) as counters."""
    actions = registry.counter(
        "repro_autoscaler_actions_total",
        "Autoscaler scaling actions by direction", ("action",))

    def hook(now: float) -> None:
        out = sum(1 for e in scaler.events if e.action == "scale_out")
        in_ = sum(1 for e in scaler.events if e.action == "scale_in")
        actions.labels(action="scale_out").set_total(out)
        actions.labels(action="scale_in").set_total(in_)

    registry.add_collect_hook(hook)


def instrument_health(registry: MetricsRegistry, checker) -> None:
    """Mirror a health checker's control-plane actions as metrics.

    ``repro_health_events_total{kind}`` counts detections, ejections,
    replacements, and recoveries; ``repro_unhealthy_replicas`` gauges
    how many replicas are currently confirmed down — the series a
    chaos scorecard's detection-time number should visibly step on."""
    events = registry.counter(
        "repro_health_events_total",
        "Health-checker actions by kind (detected, ejected, "
        "replacement_started, replacement_live, retired, recovered, "
        "restored)", ("kind",))
    unhealthy = registry.gauge(
        "repro_unhealthy_replicas",
        "Replicas currently confirmed unhealthy")

    def hook(now: float) -> None:
        counts = {}
        for event in checker.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        for kind in sorted(counts):
            events.labels(kind=kind).set_total(counts[kind])
        unhealthy.labels().set(checker.unhealthy_count())

    registry.add_collect_hook(hook)


def instrument_frontdoor(registry: MetricsRegistry, frontdoor) -> None:
    """Mirror the geo front door's routing plane as metrics.

    ``repro_region_requests_total{home, served}`` labels every request
    with where it was homed vs. where it was served — failover shows up
    as off-diagonal mass; ``repro_region_healthy{population, region}``
    gauges the routing table itself; ``repro_region_stale_reads_total``
    counts failed-over reads beyond the staleness bound; and
    ``repro_frontdoor_events_total{kind}`` counts ejections and
    restorations, the steps a cross-region MTTR is read off of."""
    frontdoor.set_metrics(registry)
    events = registry.counter(
        "repro_frontdoor_events_total",
        "Front-door routing transitions by kind (ejected, restored)",
        ("kind",))

    def hook(now: float) -> None:
        counts = {}
        for event in frontdoor.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        for kind in sorted(counts):
            events.labels(kind=kind).set_total(counts[kind])

    registry.add_collect_hook(hook)


def instrument_experiment(registry: MetricsRegistry, deployment,
                          generator=None, env=None) -> None:
    """Wire the full metric surface for one experiment.

    Registers deployment/collector/generator instrumentation and starts
    the registry's sim-time scraper on ``env`` (default: the
    deployment's environment)."""
    instrument_deployment(registry, deployment)
    collector = getattr(deployment, "collector", None)
    if collector is not None and hasattr(collector, "set_metrics"):
        collector.set_metrics(registry)
    if generator is not None:
        instrument_generator(registry, generator)
    registry.start(env if env is not None else deployment.env)

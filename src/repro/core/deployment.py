"""Deployment runtime: an application bound to a cluster.

A :class:`Deployment` places service replicas on machines, routes
requests through per-service load balancers, and executes operation
call trees as simulation processes: request transfer → worker admission
→ compute → downstream groups (sequential groups of parallel calls) →
compute → response transfer, producing a full distributed trace per
end-to-end request.

RPCs have failure semantics (see :mod:`repro.resilience`): a call can
time out at the caller, fail at the callee (injected error rate or a
failed downstream), be rejected fast by an open circuit breaker, or be
cancelled once its end-to-end deadline expires.  Per-service
:class:`~repro.resilience.ResiliencePolicy` objects configure timeouts,
bounded retries with backoff and retry budgets, deadline propagation,
and per-edge breakers; a front-tier :class:`~repro.resilience.LoadShedder`
bounds admitted concurrency.  Without policies the execution path is
byte-for-byte the historical infallible one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.loadbalancer import KeyHash, LeastOutstanding, LoadBalancer, RoundRobin
from ..cluster.machine import ServiceInstance
from ..cluster.placement import BinPackPlacer, SpreadPlacer
from ..net.fabric import NetworkFabric
from ..net.protocols import costs_for
from ..resilience import (
    FALLBACK_STALE_CACHE,
    STATUS_DEADLINE,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OPEN,
    STATUS_SHED,
    STATUS_TIMEOUT,
    CircuitBreaker,
    DegradationManager,
    LoadShedder,
    RequestContext,
    ResiliencePolicy,
    RetryBudget,
)
from ..services.app import Application
from ..services.calltree import CallNode
from ..sim.engine import Environment, Process
from ..sim.resources import Resource
from ..sim.rng import RandomStreams
from ..tracing.collector import TraceCollector
from ..tracing.span import Span, Trace

__all__ = ["Deployment"]

_LB_POLICIES = {
    "round_robin": RoundRobin,
    "least_outstanding": LeastOutstanding,
    "key_hash": KeyHash,
}


class _Draws:
    """One service's draws: ``work(mean)``, ``stall(mean)``, ``error()``
    and ``cache()``, each resolved on first use (a healthy tier holds no
    fault stream) and then cached as an attribute, never looked up by
    name per draw.  Each is bit-identical to the ``RandomStreams`` call
    it replaces (``uniform(0, 1)`` is exactly ``random()``)."""

    def __init__(self, rng: RandomStreams, service: str, work_cv: float):
        self._rng, self._service, self._work_cv = rng, service, work_cv

    def __getattr__(self, kind: str) -> Callable[..., float]:
        if kind not in ("work", "stall", "error", "cache"):
            raise AttributeError(kind)
        name = f"{kind}.{self._service}"
        if kind in ("error", "cache"):
            draw = self._rng.stream(name).random
        else:
            draw = self._rng.lognormal_handle(
                name, self._work_cv if kind == "work" else 0.2)
        setattr(self, kind, draw)
        return draw


class Deployment:
    """A running instance of an application on a cluster."""

    def __init__(self, env: Environment, app: Application, cluster: Cluster,
                 replicas: Optional[Dict[str, int]] = None,
                 cores: Optional[Dict[str, int]] = None,
                 seed: int = 0,
                 collector: Optional[TraceCollector] = None,
                 lb_policy: str = "round_robin",
                 placement: str = "spread",
                 share_machine_cpu: bool = False,
                 policies: Optional[Dict[str, ResiliencePolicy]] = None,
                 default_policy: Optional[ResiliencePolicy] = None,
                 shedder: Optional[LoadShedder] = None,
                 degradation: Optional[DegradationManager] = None):
        if lb_policy not in _LB_POLICIES:
            raise ValueError(f"unknown lb policy {lb_policy!r}")
        if placement not in ("spread", "binpack"):
            raise ValueError(f"unknown placement policy {placement!r}")
        self.env = env
        self.app = app
        self.cluster = cluster
        self.rng = RandomStreams(seed)
        self.fabric = NetworkFabric(env, rng=self.rng)
        self.collector = collector or TraceCollector()
        self.costs = costs_for(app.protocol)
        self.replicas = dict(replicas or {})
        self.cores = dict(cores or {})
        #: Replicas and cores per replica of tiers absent from
        #: ``replicas``/``cores``.
        self.default_replicas = 1
        self.default_cores = 2
        self.lb_policy = lb_policy
        #: Colocation mode: instances share their machine's core pool
        #: instead of owning pinned cores (interference between
        #: bin-packed neighbours becomes visible).
        self.share_machine_cpu = share_machine_cpu
        #: Runtime work multipliers for fault injection (Fig. 19): a
        #: value of 5.0 makes the tier 5x slower without restarts.
        self.work_multiplier: Dict[str, float] = defaultdict(lambda: 1.0)
        #: Per-operation multipliers: a code-level bug confined to one
        #: request type (the fair way to inject the same fault into a
        #: monolith, where the buggy function is one slice of the
        #: binary's work on that operation).
        self.op_work_multiplier: Dict[str, float] = defaultdict(
            lambda: 1.0)
        #: Pure-latency stalls per service (seconds): the tier waits —
        #: a sick disk, a lock, a colocated antagonist — WITHOUT
        #: burning its own CPU.  This is how a tier can be slow while
        #: its utilization stays low (Fig. 17 case B, Fig. 19).
        self.extra_delay: Dict[str, float] = defaultdict(lambda: 0.0)
        #: Synchronous worker threads busy-wait while blocked on
        #: downstream calls (polling/spinning), burning this fraction
        #: of a core each.  Applies to tiers with a worker pool under a
        #: blocking protocol — it is why a backpressured front tier
        #: *looks* CPU-saturated to a utilization autoscaler.
        self.sync_busy_wait = 0.8
        #: Per-service probability that one RPC attempt fails after its
        #: pre-compute (fault injection for the resilience experiments).
        self.error_rate: Dict[str, float] = defaultdict(lambda: 0.0)
        #: Per-cache-tier hit/miss tallies (``Counter`` with ``hit`` /
        #: ``miss`` keys), populated once :meth:`set_cache_hit_ratio`
        #: arms a tier.  The observability layer exports these as
        #: ``repro_cache_requests_total`` / ``repro_cache_hit_ratio``.
        self.cache_stats: Dict[str, Counter] = {}
        self._cache_model: Dict[str, Tuple[float, float]] = {}
        #: Resilience policies keyed by *callee* service; the default
        #: applies to every service without an explicit entry.
        self.policies: Dict[str, ResiliencePolicy] = dict(policies or {})
        self.default_policy = default_policy
        #: Front-tier admission control; ``None`` admits everything.
        self.shedder = shedder
        #: Graceful-degradation manager (criticality-aware shedding,
        #: subtree drops, fallbacks, brownout); ``None`` = full
        #: fidelity or error, the historical binary behaviour.
        self.degradation = degradation
        if degradation is not None:
            degradation.bind(self.env, shedder)
        #: Counters for retry/timeout/breaker/shed/deadline events.
        self.resilience_stats: Counter = Counter()
        self._breakers: Dict[Tuple, CircuitBreaker] = {}
        self._retry_budgets: Dict[str, RetryBudget] = {}
        self._instances: Dict[str, List[ServiceInstance]] = {}
        self._lbs: Dict[str, LoadBalancer] = {}
        self._conn_pools: Dict[tuple, Resource] = {}
        self._draws = {name: _Draws(self.rng, name, definition.work_cv)
                       for name, definition in app.services.items()}
        placer_cls = SpreadPlacer if placement == "spread" \
            else BinPackPlacer
        self._placers = {}
        for zone in sorted({self.app.zone_of(s) for s in app.services}):
            machines = cluster.zone(zone)
            if machines:
                self._placers[zone] = placer_cls(machines)
        self._place_all()

    # -- placement ----------------------------------------------------------
    def _place_one(self, service: str) -> ServiceInstance:
        zone = self.app.zone_of(service)
        placer = self._placers.get(zone)
        if placer is None:
            raise ValueError(
                f"no machines in zone {zone!r} for service {service!r}")
        definition = self.app.services[service]
        cores = self.cores.get(service, self.default_cores)
        machine = placer.place(definition, cores)
        inst = ServiceInstance(self.env, definition, machine, cores=cores,
                               share_machine_cpu=self.share_machine_cpu)
        if definition.max_workers is not None:
            inst.set_workers(definition.max_workers)
        return inst

    def _place_all(self) -> None:
        for service in self.app.services:
            count = self.replicas.get(service, self.default_replicas)
            if count < 1:
                raise ValueError(f"replicas for {service!r} must be >= 1")
            instances = [self._place_one(service) for _ in range(count)]
            self._instances[service] = instances
            sharded = service in self.app.sharded_services
            policy = KeyHash if sharded else _LB_POLICIES[self.lb_policy]
            self._lbs[service] = policy(instances)

    # -- management API (used by the autoscaler and fault injectors) -------
    def service_names(self) -> List[str]:
        """All deployed services."""
        return list(self._instances.keys())

    def instances_of(self, service: str) -> List[ServiceInstance]:
        """Current replicas of a service."""
        return self._instances[service]

    def load_balancer(self, service: str) -> LoadBalancer:
        """The balancer routing to a service's replicas."""
        return self._lbs[service]

    def add_instance(self, service: str) -> ServiceInstance:
        """Scale a tier out by one replica."""
        inst = self._place_one(service)
        self._instances[service].append(inst)
        self._lbs[service].add(inst)
        return inst

    def remove_instance(self, service: str,
                        inst: Optional[ServiceInstance] = None) -> None:
        """Scale a tier in by one replica (never below one).

        Without ``inst`` the newest replica goes (autoscaler scale-in);
        with it, that specific replica is decommissioned — how failover
        retires a dead replica once its replacement is live."""
        instances = self._instances[service]
        if len(instances) <= 1:
            raise ValueError(f"cannot scale {service!r} below one replica")
        if inst is None:
            inst = instances.pop()
        else:
            if inst not in instances:
                raise ValueError(
                    f"{inst.instance_id} is not a replica of {service!r}")
            instances.remove(inst)
        lb = self._lbs[service]
        if inst in lb.instances:
            lb.remove(inst)
        inst.detach()

    def slow_down_service(self, service: str, factor: float) -> None:
        """Inflate one tier's compute cost by ``factor`` (Fig. 19)."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        if service not in self.app.services:
            raise KeyError(f"unknown service {service!r}")
        self.work_multiplier[service] = factor

    def slow_down_operation(self, op_name: str, factor: float) -> None:
        """Inflate all compute of one request type by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        if op_name not in self.app.operations:
            raise KeyError(f"unknown operation {op_name!r}")
        self.op_work_multiplier[op_name] = factor

    def delay_service(self, service: str, extra_seconds: float) -> None:
        """Add a pure-latency stall to every request at one tier.

        Unlike :meth:`slow_down_service`, the stall burns no CPU: the
        tier's utilization stays low while its latency grows — the
        'seemingly negligible bottleneck' of Fig. 17 case B."""
        if extra_seconds < 0:
            raise ValueError("extra_seconds must be >= 0")
        if service not in self.app.services:
            raise KeyError(f"unknown service {service!r}")
        self.extra_delay[service] = extra_seconds

    def inject_error_rate(self, service: str, rate: float) -> None:
        """Make a fraction of one tier's RPC attempts fail outright."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if service not in self.app.services:
            raise KeyError(f"unknown service {service!r}")
        self.error_rate[service] = rate

    def set_cache_hit_ratio(self, service: str, ratio: float,
                            miss_penalty: float = 4.0) -> None:
        """Arm per-request hit/miss sampling at one cache tier.

        Each request to ``service`` draws a Bernoulli(``ratio``) hit
        from the tier's own RNG stream; a miss inflates that request's
        sampled work by ``miss_penalty`` (the backend fetch the cache
        performs on your behalf).  Pick ``ratio`` with the Che
        approximation (:mod:`repro.analytic.cache`).  Unarmed tiers
        draw no extra randomness, so existing runs stay byte-identical.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        if miss_penalty <= 0:
            raise ValueError("miss_penalty must be > 0")
        if service not in self.app.services:
            raise KeyError(f"unknown service {service!r}")
        self._cache_model[service] = (ratio, miss_penalty)
        self.cache_stats.setdefault(service, Counter())

    def cache_model_of(self, service: str) -> Optional[Tuple[float, float]]:
        """The ``(hit_ratio, miss_penalty)`` armed at a cache tier, or
        None.  Chaos cold-restart faults read this to ramp a restarted
        cache from cold back to its configured warm ratio."""
        return self._cache_model.get(service)

    # -- resilience configuration ------------------------------------------
    def set_policy(self, policy: Optional[ResiliencePolicy],
                   service: Optional[str] = None) -> None:
        """Install a resilience policy for one callee service, or (with
        ``service=None``) as the default for every service."""
        if service is None:
            self.default_policy = policy
            return
        if service not in self.app.services:
            raise KeyError(f"unknown service {service!r}")
        if policy is None:
            self.policies.pop(service, None)
        else:
            self.policies[service] = policy

    def policy_for(self, service: str) -> Optional[ResiliencePolicy]:
        """The policy callers apply to RPCs into ``service``."""
        return self.policies.get(service, self.default_policy)

    def breakers(self) -> Dict[Tuple, CircuitBreaker]:
        """All instantiated breakers, keyed by edge."""
        return dict(self._breakers)

    def retry_budgets(self) -> Dict[str, RetryBudget]:
        """All instantiated retry budgets, keyed by callee service."""
        return dict(self._retry_budgets)

    def utilization(self, service: str) -> float:
        """Mean instantaneous CPU utilization across a tier's replicas."""
        instances = self._instances[service]
        return sum(i.utilization() for i in instances) / len(instances)

    def total_cpu_seconds(self) -> Dict[str, Dict[str, float]]:
        """service -> {app, net} nominal CPU seconds consumed so far."""
        out: Dict[str, Dict[str, float]] = {}
        for service, instances in self._instances.items():
            out[service] = {
                "app": sum(i.app_cpu_seconds for i in instances),
                "net": sum(i.net_cpu_seconds for i in instances),
            }
        return out

    # -- execution ---------------------------------------------------------
    def _conn_pool(self, client: ServiceInstance, service: str) -> Resource:
        key = (client.instance_id, service)
        pool = self._conn_pools.get(key)
        if pool is None:
            pool = Resource(self.env,
                            capacity=self.costs.connections_per_pair)
            self._conn_pools[key] = pool
        return pool

    def _sample_work(self, node: CallNode, operation: str,
                     draws: _Draws) -> float:
        service = node.service
        mean = (self.app.services[service].work_mean * node.work_scale
                * self.work_multiplier[service]
                * self.op_work_multiplier[operation])
        cache = self._cache_model.get(service)
        if cache is not None:
            ratio, penalty = cache
            stats = self.cache_stats[service]
            if draws.cache() < ratio:
                stats["hit"] += 1
            else:
                stats["miss"] += 1
                mean *= penalty
        if mean <= 0:
            return 0.0
        return draws.work(mean)

    def _expired(self, ctx: Optional[RequestContext]) -> bool:
        """Deadline check at a tier's scheduling points."""
        return (ctx is not None and ctx.propagate
                and ctx.expired(self.env.now))

    def _abort(self, span: Span, status: str) -> Span:
        """Finish a span in a failure state."""
        span.status = status
        span.end = self.env.now
        if status == STATUS_DEADLINE:
            self.resilience_stats["deadline_aborts"] += 1
        return span

    def _run_node(self, node: CallNode, caller: Optional[ServiceInstance],
                  operation: str, user: Optional[int],
                  ctx: Optional[RequestContext] = None,
                  inst: Optional[ServiceInstance] = None):
        draws = self._draws[node.service]
        if inst is None:
            key = user if node.service in self.app.sharded_services else None
            inst = self._lbs[node.service].pick(key=key)
        span = Span(service=node.service, operation=operation,
                    start=self.env.now)
        # Injected application error for this attempt (sampled only when
        # a fault is configured, so healthy runs draw no extra RNG).
        rate = self.error_rate[node.service]
        will_fail = rate > 0.0 and draws.error() < rate
        inst.outstanding += 1
        conn = None
        worker = None
        try:
            # HTTP/1 blocking connection between caller and this tier.
            if self.costs.blocking_connections and caller is not None:
                pool = self._conn_pool(caller, node.service)
                t0 = self.env.now
                conn = pool.request()
                yield conn
                span.block_time += self.env.now - t0

            timing_req = yield from self.fabric.transfer(
                caller, inst, node.request_kb, self.costs)

            if inst.workers is not None:
                t0 = self.env.now
                worker = inst.workers.request()
                yield worker
                span.block_time += self.env.now - t0

            if self._expired(ctx):
                return self._abort(span, STATUS_DEADLINE)

            work = self._sample_work(node, operation, draws)
            pre = work * node.pre_fraction
            if pre > 0:
                t0 = self.env.now
                yield inst.compute(pre)
                span.app_time += self.env.now - t0

            stall = self.extra_delay[node.service]
            if stall > 0:
                t0 = self.env.now
                yield self.env.timeout(draws.stall(stall))
                span.app_time += self.env.now - t0

            if will_fail:
                # The error surfaces after the pre-compute: a failed
                # request still cost the tier real CPU.
                self.resilience_stats["errors_injected"] += 1
                return self._abort(span, STATUS_ERROR)

            if self._expired(ctx):
                return self._abort(span, STATUS_DEADLINE)

            heater_stop = None
            if (node.groups and worker is not None
                    and self.costs.blocking_connections
                    and self.sync_busy_wait > 0):
                heater_stop = self.env.event()
                self.env.process(
                    self._busy_wait(inst, heater_stop),
                    name="busy-wait")
            failed: Optional[str] = None
            try:
                for group in node.groups:
                    if self._expired(ctx):
                        failed = STATUS_DEADLINE
                        break
                    if self.degradation is not None and ctx is not None:
                        group = self._degrade_group(group, span, ctx)
                        if not group:
                            continue
                    if len(group) == 1:
                        child = yield from self._dispatch(
                            group[0], inst, operation, user, ctx)
                        span.children.append(child)
                        if child.status not in (STATUS_OK,
                                                STATUS_DEGRADED):
                            failed = child.status
                            break
                    else:
                        procs = [
                            self.env.process(
                                self._dispatch(child, inst, operation,
                                               user, ctx))
                            for child in group
                        ]
                        results = yield self.env.all_of(procs)
                        children = [results[i] for i in range(len(procs))]
                        span.children.extend(children)
                        bad = next((c for c in children
                                    if c.status not in (STATUS_OK,
                                                        STATUS_DEGRADED)),
                                   None)
                        if bad is not None:
                            failed = bad.status
                            break
            finally:
                if heater_stop is not None:
                    heater_stop.succeed()

            if failed is not None:
                # A downstream call failed terminally: propagate upward
                # (the caller's own policy may retry this whole node).
                status = STATUS_DEADLINE if failed == STATUS_DEADLINE \
                    else STATUS_ERROR
                return self._abort(span, status)

            post = work - work * node.pre_fraction
            if post > 0:
                t0 = self.env.now
                yield inst.compute(post)
                span.app_time += self.env.now - t0

            if self._expired(ctx):
                return self._abort(span, STATUS_DEADLINE)

            timing_resp = yield from self.fabric.transfer(
                inst, caller, node.response_kb, self.costs)
            span.net_time += timing_req.total + timing_resp.total
            for timing in (timing_req, timing_resp):
                span.net_process_time += (timing.cpu_send
                                          + timing.cpu_recv
                                          + timing.offload)
        finally:
            if worker is not None:
                worker.release()
            if conn is not None:
                conn.release()
            inst.outstanding -= 1
        span.end = self.env.now
        return span

    # -- graceful degradation ----------------------------------------------
    def _degrade_group(self, group, span: Span,
                       ctx: RequestContext) -> List[CallNode]:
        """Apply subtree drops and fan-out reduction to one call group.

        Deterministic (no RNG): drops are level-gated per policy, and
        fan-out trimming keeps the *first* k trimmable shards in
        declaration order.  Sacrificed services are recorded on the
        parent span's ``dropped`` annotation and cost the request
        fidelity."""
        mgr = self.degradation
        crit = ctx.criticality
        kept: List[CallNode] = []
        dropped: List[str] = []
        for child in group:
            if mgr.maybe_drop(child.service, crit):
                dropped.append(child.service)
                ctx.degrade(mgr.policies[child.service].fidelity_cost)
                self.resilience_stats["subtrees_dropped"] += 1
            else:
                kept.append(child)
        if len(kept) > 1:
            keep = mgr.fanout_keep([c.service for c in kept], crit)
            if keep is not None:
                trimmable = [c for c in kept
                             if mgr.can_trim(c.service, crit)]
                for child in trimmable[keep:]:
                    mgr.note_fanout_cut(child.service)
                    ctx.degrade(
                        mgr.policies[child.service].fidelity_cost)
                    self.resilience_stats["fanout_trimmed"] += 1
                    dropped.append(child.service)
                    kept.remove(child)
        if dropped:
            prev = span.annotations.get("dropped")
            joined = ",".join(dropped)
            span.annotations["dropped"] = \
                f"{prev},{joined}" if prev else joined
        return kept

    def _apply_fallback(self, node: CallNode, span: Span,
                        ctx: Optional[RequestContext]) -> Span:
        """Mask a terminal RPC failure with the callee's declared
        fallback: the span keeps its (real) cost but finishes
        ``degraded`` instead of failing the parent."""
        mgr = self.degradation
        if (mgr is None or ctx is None
                or span.status not in (STATUS_TIMEOUT, STATUS_ERROR,
                                       STATUS_OPEN)):
            return span
        pol = mgr.fallback_for(node.service)
        if pol is None:
            return span
        span.annotations["fallback"] = pol.fallback
        span.annotations["fallback_from"] = span.status
        if pol.fallback == FALLBACK_STALE_CACHE:
            # Compose with the region layer's staleness accounting:
            # a stale answer is honestly labelled wherever it comes
            # from (replication lag or a degradation fallback).
            span.annotations["stale_read"] = True
        span.status = STATUS_DEGRADED
        span.end = self.env.now
        ctx.degrade(pol.fidelity_cost)
        mgr.note_fallback(pol.fallback)
        self.resilience_stats["fallbacks_served"] += 1
        return span

    # -- resilience wrapper ------------------------------------------------
    def _dispatch(self, node: CallNode,
                  caller: Optional[ServiceInstance], operation: str,
                  user: Optional[int], ctx: Optional[RequestContext]):
        """Route one call through its callee's policy (if any)."""
        policy = self.policies.get(node.service, self.default_policy)
        if policy is None:
            span = yield from self._run_node(node, caller, operation,
                                             user, ctx)
        else:
            span = yield from self._call_with_policy(
                node, caller, operation, user, ctx, policy)
        return self._apply_fallback(node, span, ctx)

    def _fast_span(self, service: str, operation: str, status: str,
                   retries: int) -> Span:
        """A zero-duration client-side failure (shed/open/deadline)."""
        span = Span(service=service, operation=operation,
                    start=self.env.now, end=self.env.now, status=status,
                    retries=retries)
        return span

    def _breaker(self, key: Tuple, config) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.env, config)
            self._breakers[key] = breaker
        return breaker

    def _budget_for(self, service: str,
                    policy: ResiliencePolicy) -> Optional[RetryBudget]:
        if policy.retry_budget_ratio is None:
            return None
        budget = self._retry_budgets.get(service)
        if budget is None:
            budget = policy.make_budget()
            self._retry_budgets[service] = budget
        return budget

    def _admit_through_breaker(self, caller_name: str, node: CallNode,
                               user: Optional[int],
                               policy: ResiliencePolicy):
        """Pick an instance (if per-instance) and consult its breaker.

        Returns ``(admitted, instance, breaker)``; ``instance`` is None
        for service-level breakers (the node picks its own replica)."""
        service = node.service
        cfg = policy.breaker
        if cfg.per_instance:
            key = user if service in self.app.sharded_services else None
            lb = self._lbs[service]
            inst = lb.pick(key=key)
            breaker = self._breaker(
                (caller_name, service, inst.instance_id), cfg)
            if breaker.allow():
                return True, inst, breaker
            # Outlier ejection: the chosen replica's breaker is open —
            # take any replica whose breaker still admits.
            for cand in lb.instances:
                if cand is inst:
                    continue
                alt = self._breaker(
                    (caller_name, service, cand.instance_id), cfg)
                if alt.allow():
                    return True, cand, alt
            return False, None, None
        breaker = self._breaker((caller_name, service), cfg)
        if breaker.allow():
            return True, None, breaker
        return False, None, None

    def _call_with_policy(self, node: CallNode,
                          caller: Optional[ServiceInstance],
                          operation: str, user: Optional[int],
                          ctx: Optional[RequestContext],
                          policy: ResiliencePolicy):
        """One logical call = up to ``1 + max_retries`` attempts, each
        raced against the per-RPC timeout, gated by breakers and the
        retry budget.  Always returns a span; never raises."""
        service = node.service
        caller_name = caller.definition.name if caller is not None \
            else "client"
        budget = self._budget_for(service, policy)
        if budget is not None:
            budget.on_request()
        retries = 0
        while True:
            if ctx is not None and ctx.expired(self.env.now):
                span = self._fast_span(service, operation,
                                       STATUS_DEADLINE, retries)
                self.resilience_stats["deadline_aborts"] += 1
                return span
            inst = None
            breaker = None
            if policy.breaker is not None:
                admitted, inst, breaker = self._admit_through_breaker(
                    caller_name, node, user, policy)
                if not admitted:
                    self.resilience_stats["breaker_rejected"] += 1
                    return self._fast_span(service, operation,
                                           STATUS_OPEN, retries)
            start = self.env.now
            attempt = self.env.process(
                self._run_node(node, caller, operation, user, ctx,
                               inst=inst),
                name=f"rpc.{service}")
            if policy.rpc_timeout is not None:
                yield self.env.any_of(
                    [attempt, self.env.timeout(policy.rpc_timeout)])
            else:
                yield attempt
            if attempt.triggered:
                span = attempt.value
                if breaker is not None and span.status != STATUS_DEADLINE:
                    breaker.record(span.status == STATUS_OK)
                if span.status in (STATUS_OK, STATUS_DEADLINE):
                    span.retries = retries
                    return span
            else:
                # Client-side timeout.  The attempt is *abandoned*, not
                # cancelled: the server keeps consuming CPU for it
                # unless deadline propagation stops the work — the
                # wasted-work feedback loop behind metastable failure.
                self.resilience_stats["timeouts"] += 1
                span = Span(service=service, operation=operation,
                            start=start, end=self.env.now,
                            status=STATUS_TIMEOUT)
                if breaker is not None:
                    breaker.record(False)
            span.retries = retries
            if retries >= policy.max_retries:
                return span
            if ctx is not None and ctx.expired(self.env.now):
                return span
            if budget is not None and not budget.try_retry():
                self.resilience_stats["retry_budget_exhausted"] += 1
                return span
            retries += 1
            self.resilience_stats["retries"] += 1
            delay = policy.backoff_delay(retries, self.rng)
            if delay > 0:
                yield self.env.timeout(delay)

    def _busy_wait(self, inst: ServiceInstance, stop):
        """A synchronous worker spinning while its downstream call is
        outstanding: burn ``sync_busy_wait`` of a core in small quanta
        until ``stop`` triggers."""
        quantum = 1e-3
        frac = self.sync_busy_wait
        while not stop.triggered:
            yield inst.cpu.service(quantum * frac)
            if stop.triggered:
                break
            yield self.env.timeout(quantum * (1.0 - frac))

    def _run_operation(self, op_name: str, user: Optional[int],
                       collect: bool = True):
        op = self.app.operations[op_name]
        entry_service = op.root.service
        degrading = self.degradation is not None
        criticality = op.criticality if degrading else None
        if self.shedder is not None \
                and not self.shedder.try_admit(criticality):
            # Admission control at the front tier: reject in O(1)
            # before the request consumes any cluster resources.
            # With degradation armed the admission is class-aware —
            # sheddable traffic loses headroom first.
            self.resilience_stats["shed"] += 1
            span = self._fast_span(entry_service, op_name, STATUS_SHED, 0)
            if degrading:
                span.annotations["criticality"] = op.criticality
            trace = Trace(operation=op_name, root=span, user=user)
            if collect:
                self.collector.collect(trace)
            return trace
        try:
            ctx = None
            entry_policy = self.policies.get(entry_service,
                                             self.default_policy)
            deadline = None
            propagate = True
            if entry_policy is not None and entry_policy.deadline \
                    is not None:
                deadline = self.env.now + entry_policy.deadline
                propagate = entry_policy.propagate_deadline
            if deadline is not None or degrading:
                # Degradation always needs a context: the criticality
                # class and fidelity score ride it down the tree.
                ctx = RequestContext(deadline=deadline,
                                     propagate=propagate,
                                     criticality=op.criticality)
            root_span = yield from self._dispatch(op.root, None, op_name,
                                                  user, ctx)
            if degrading:
                ann = root_span.annotations
                ann["criticality"] = op.criticality
                ann["fidelity"] = round(ctx.fidelity, 4)
                ann["degraded"] = ctx.degraded
                # Every terminal outcome feeds the brownout signal —
                # success-only sampling is survivor-biased and goes
                # *quiet* during a collapse.  Completions feed the
                # latency window; failures feed the failure fraction
                # (a breaker rejection or deadline kill can finish in
                # near-zero time, so timing it would read as calm).
                # Shed requests return earlier and never reach here.
                if root_span.status in (STATUS_OK, STATUS_DEGRADED):
                    self.degradation.observe_latency(
                        root_span.end - root_span.start)
                else:
                    self.degradation.observe_failure()
            trace = Trace(operation=op_name, root=root_span, user=user)
            if collect:
                self.collector.collect(trace)
            return trace
        finally:
            if self.shedder is not None:
                self.shedder.release()

    def execute(self, op_name: str, user: Optional[int] = None,
                collect: bool = True) -> Process:
        """Launch one end-to-end request; the returned process event's
        value is the finished :class:`~repro.tracing.span.Trace`.

        ``collect=False`` skips the trace collector — used by callers
        that do their own accounting (e.g. hedged requests, where only
        the winning attempt should count)."""
        if op_name not in self.app.operations:
            raise KeyError(f"unknown operation {op_name!r}")
        return self.env.process(self._run_operation(op_name, user,
                                                    collect),
                                name=f"{self.app.name}.{op_name}")

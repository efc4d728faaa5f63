"""AWS-Lambda-style serverless deployment model (Sec. 7, Fig. 21).

Each call-tree node becomes a *function invocation* instead of an RPC to
a provisioned replica.  The model captures the four effects the paper
identifies:

* **State indirection** — functions are ephemeral, so state between
  dependent functions passes through persistent storage.  With S3 this
  costs tens of milliseconds per hop plus rate limiting; with remote
  memory (the paper's four extra EC2 instances) ~1 ms.
* **Cold starts** — an invocation exceeding the warm-container pool
  pays container-start latency; the pool grows on demand and decays
  when idle.
* **Placement jitter** — functions land anywhere in the datacenter and
  share machines with external tenants, so compute time carries much
  higher variance than dedicated instances.
* **Per-request billing** — cost scales with invocations and GB-seconds
  rather than provisioned instance-hours, which is why Lambda lands
  almost an order of magnitude cheaper in Fig. 21 despite being slower.

No CPU queueing is modeled: the provider's fleet is effectively
infinite, which is precisely serverless's elasticity advantage in the
diurnal experiment (Fig. 21 bottom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..net.fabric import DEFAULT_ZONE_LATENCY
from ..services.app import Application
from ..services.calltree import CallNode
from ..sim.engine import Environment, Process
from ..sim.resources import Resource
from ..sim.rng import RandomStreams
from ..tracing.collector import TraceCollector
from ..tracing.span import Span, Trace

__all__ = ["LambdaConfig", "LambdaDeployment", "LambdaUsage"]


@dataclass(frozen=True)
class LambdaConfig:
    """Knobs of the serverless platform."""

    #: 's3' (default persistent storage) or 'memory' (remote-memory
    #: state passing through dedicated instances).
    state_backend: str = "s3"
    memory_gb: float = 1.0
    cold_start_s: float = 0.18
    invoke_overhead_s: float = 0.003
    #: S3 object put/get latency and aggregate op concurrency.
    s3_put_s: float = 0.022
    s3_get_s: float = 0.014
    s3_concurrency: int = 64
    #: Remote-memory state-passing latency per hop.
    memory_state_s: float = 0.0012
    #: Compute-speed factor vs. the nominal Xeon core.
    compute_speed: float = 0.9
    #: Placement/interference jitter (CV of a lognormal multiplier).
    jitter_cv: float = 0.35
    #: Warm-pool decay time constant (idle containers reclaimed).
    warm_expiry_s: float = 120.0
    #: Billing.
    price_per_million_requests: float = 0.20
    price_per_gb_s: float = 0.0000166667
    s3_price_per_1k_put: float = 0.005
    s3_price_per_1k_get: float = 0.0004

    def __post_init__(self):
        if self.state_backend not in ("s3", "memory"):
            raise ValueError("state_backend must be 's3' or 'memory'")
        if self.memory_gb <= 0 or self.compute_speed <= 0:
            raise ValueError("memory_gb and compute_speed must be > 0")


@dataclass
class _FunctionPool:
    """Warm-container accounting for one function."""

    warm: int = 0
    in_flight: int = 0
    last_decay: float = 0.0


@dataclass
class LambdaUsage:
    """Accumulated billable usage."""

    invocations: int = 0
    gb_seconds: float = 0.0
    s3_puts: int = 0
    s3_gets: int = 0
    cold_starts: int = 0
    state_hops: int = 0
    extra_hourly_usd: float = 0.0  # e.g. the remote-memory instances

    def cost_usd(self, config: LambdaConfig, duration_s: float) -> float:
        """Total bill for a run of ``duration_s`` seconds."""
        return (self.invocations / 1e6 * config.price_per_million_requests
                + self.gb_seconds * config.price_per_gb_s
                + self.s3_puts / 1e3 * config.s3_price_per_1k_put
                + self.s3_gets / 1e3 * config.s3_price_per_1k_get
                + self.extra_hourly_usd * duration_s / 3600.0)


class LambdaDeployment:
    """An application executed as serverless functions.

    Mirrors :class:`repro.core.deployment.Deployment`'s ``execute`` API
    so the same workload generators and collectors drive it."""

    #: Hourly price of one remote-memory state instance (m5.12xlarge
    #: class); the paper uses four of them for the Lambda(mem) config.
    REMOTE_MEMORY_INSTANCES = 4
    REMOTE_MEMORY_HOURLY_USD = 2.304

    def __init__(self, env: Environment, app: Application,
                 config: Optional[LambdaConfig] = None,
                 seed: int = 0,
                 collector: Optional[TraceCollector] = None):
        self.env = env
        self.app = app
        self.config = config or LambdaConfig()
        self.rng = RandomStreams(seed)
        self.collector = collector or TraceCollector()
        self.usage = LambdaUsage()
        if self.config.state_backend == "memory":
            self.usage.extra_hourly_usd = (self.REMOTE_MEMORY_INSTANCES
                                           * self.REMOTE_MEMORY_HOURLY_USD)
        self._pools: Dict[str, _FunctionPool] = {}
        self._s3 = Resource(env, capacity=self.config.s3_concurrency)

    # -- compatibility shims so monitors can be shared -----------------
    def service_names(self):
        """Function names (one function per service)."""
        return list(self.app.services.keys())

    # -- warm pool ---------------------------------------------------------
    def _pool(self, service: str) -> _FunctionPool:
        pool = self._pools.get(service)
        if pool is None:
            pool = _FunctionPool(last_decay=self.env.now)
            self._pools[service] = pool
        return pool

    def _decay_pool(self, pool: _FunctionPool) -> None:
        """Exponentially reclaim idle warm containers."""
        now = self.env.now
        elapsed = now - pool.last_decay
        if elapsed <= 0:
            return
        keep = math.exp(-elapsed / self.config.warm_expiry_s)
        idle = max(0, pool.warm - pool.in_flight)
        pool.warm = pool.in_flight + int(round(idle * keep))
        pool.last_decay = now

    def _acquire_container(self, service: str) -> bool:
        """Returns True on a warm hit, False when a cold start is due."""
        pool = self._pool(service)
        self._decay_pool(pool)
        pool.in_flight += 1
        if pool.in_flight <= pool.warm:
            return True
        pool.warm = pool.in_flight
        self.usage.cold_starts += 1
        return False

    def _release_container(self, service: str) -> None:
        self._pool(service).in_flight -= 1

    # -- state passing ------------------------------------------------------
    def _state_hop(self, span: Span):
        """Persist this function's output for its successor."""
        self.usage.state_hops += 1
        if self.config.state_backend == "s3":
            self.usage.s3_puts += 1
            self.usage.s3_gets += 1
            with self._s3.request() as req:
                t0 = self.env.now
                yield req
                put = self.rng.lognormal("lambda.s3", self.config.s3_put_s,
                                         0.4)
                get = self.rng.lognormal("lambda.s3", self.config.s3_get_s,
                                         0.4)
                yield self.env.timeout(put + get)
                span.net_time += self.env.now - t0
        else:
            t0 = self.env.now
            delay = self.rng.lognormal("lambda.mem",
                                       self.config.memory_state_s, 0.3)
            yield self.env.timeout(delay)
            span.net_time += self.env.now - t0

    # -- execution ---------------------------------------------------------
    def _zone_hop(self, parent_zone: str, zone: str) -> float:
        """One-way latency when an invocation crosses zones.

        Edge-pinned tiers (drone sensors/controllers) stay on their
        devices even under a serverless backend — the wifi round trip
        to cloud-hosted functions is not optional."""
        if parent_zone == zone:
            return 0.0
        return DEFAULT_ZONE_LATENCY.get((parent_zone, zone), 100e-6)

    def _run_node(self, node: CallNode, operation: str,
                  user: Optional[int], depth: int,
                  parent_zone: str = "client"):
        service = node.service
        definition = self.app.services[service]
        zone = self.app.zone_of(service)
        span = Span(service=service, operation=operation,
                    start=self.env.now)
        hop = self._zone_hop(parent_zone, zone)
        if hop > 0:
            yield self.env.timeout(hop)
            span.net_time += hop
        warm = self._acquire_container(service)
        try:
            self.usage.invocations += 1
            if not warm:
                yield self.env.timeout(self.rng.lognormal(
                    "lambda.cold", self.config.cold_start_s, 0.3))
            yield self.env.timeout(self.config.invoke_overhead_s)

            work = (definition.work_mean * node.work_scale
                    / self.config.compute_speed)
            if work > 0:
                work = self.rng.lognormal(f"lambda.work.{service}", work,
                                          definition.work_cv)
                jitter = self.rng.lognormal("lambda.jitter", 1.0,
                                            self.config.jitter_cv)
                t0 = self.env.now
                yield self.env.timeout(work * jitter)
                span.app_time += self.env.now - t0

            for group in node.groups:
                # State must be externalized before dependents read it.
                yield from self._state_hop(span)
                if len(group) == 1:
                    child = yield from self._run_node(group[0], operation,
                                                      user, depth + 1,
                                                      zone)
                    span.add_child(child)
                else:
                    procs = [self.env.process(
                        self._run_node(child, operation, user, depth + 1,
                                       zone))
                        for child in group]
                    results = yield self.env.all_of(procs)
                    span.add_children(results[i]
                                      for i in range(len(procs)))
            if hop > 0:
                # The response crosses back.
                yield self.env.timeout(hop)
                span.net_time += hop
        finally:
            self._release_container(service)
        span.end = self.env.now
        # Chained (step-function-style) invocation: each function bills
        # its own lifetime, not the downstream functions it triggered —
        # but it does pay for its own S3 waits and cold start.
        self.usage.gb_seconds += self.config.memory_gb * span.exclusive_time()
        return span

    def _run_operation(self, op_name: str, user: Optional[int]):
        op = self.app.operations[op_name]
        root = yield from self._run_node(op.root, op_name, user, 0)
        trace = Trace(operation=op_name, root=root, user=user)
        self.collector.collect(trace)
        return trace

    def execute(self, op_name: str,
                user: Optional[int] = None) -> Process:
        """Launch one end-to-end request through the function graph."""
        if op_name not in self.app.operations:
            raise KeyError(f"unknown operation {op_name!r}")
        return self.env.process(self._run_operation(op_name, user),
                                name=f"lambda.{op_name}")

    def cost_usd(self, duration_s: float) -> float:
        """The bill for a run of ``duration_s`` seconds."""
        return self.usage.cost_usd(self.config, duration_s)

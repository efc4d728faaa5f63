"""Resilience layer: deadlines, retries, circuit breakers, shedding.

The paper's Sec. 6 headline results show how a microservice graph
amplifies one tier's degradation into suite-wide QoS collapse.  The
dominant real-world amplifier of that collapse — and the mitigation
stack that contains it — is traffic-management policy:

* per-RPC **timeouts** so a caller stops waiting on a sick tier;
* bounded **retries** with exponential backoff and jitter, throttled by
  a **retry budget** (unbounded retries turn a brownout into a retry
  storm — the metastable-failure regime);
* end-to-end **deadline propagation** so a request that has already
  blown its QoS stops consuming downstream CPU;
* per-edge **circuit breakers** (closed/open/half-open on a rolling
  error rate) that fail fast instead of queueing on a dead tier;
* front-tier **load shedding** so the system serves fewer requests
  well rather than all requests badly;
* **graceful degradation** (:mod:`repro.resilience.degrade`) so
  overload browns the system out instead of blacking it out: requests
  carry criticality classes, optional subtrees are dropped and
  fallbacks served under a deterministic brownout controller, and
  responses carry fidelity scores for utility accounting.

:mod:`repro.core.deployment` consumes these policies in its RPC
execution path; :mod:`repro.tracing` records the outcomes (span status,
retry counts); ``benchmarks/bench_ablation_resilience.py`` measures the
goodput consequences under the Fig. 19/22 fault scenarios.
"""

from .. import _lazy

_EXPORTS = {
    "BreakerConfig": ".breaker",
    "CircuitBreaker": ".breaker",
    "RequestContext": ".context",
    "CRIT_CRITICAL": ".criticality",
    "CRIT_DEGRADABLE": ".criticality",
    "CRIT_SHEDDABLE": ".criticality",
    "CRITICALITIES": ".criticality",
    "FALLBACK_DEFAULT": ".criticality",
    "FALLBACK_STALE_CACHE": ".criticality",
    "FALLBACKS": ".criticality",
    "BrownoutConfig": ".degrade",
    "BrownoutEvent": ".degrade",
    "DegradationManager": ".degrade",
    "DegradationPolicy": ".criticality",
    "arm_degradation": ".degrade",
    "ResiliencePolicy": ".policy",
    "RetryBudget": ".policy",
    "LoadShedder": ".shedder",
    "ShedderUnderflowError": ".shedder",
    "STATUS_DEADLINE": ".status",
    "STATUS_DEGRADED": ".status",
    "STATUS_ERROR": ".status",
    "STATUS_OK": ".status",
    "STATUS_OPEN": ".status",
    "STATUS_SHED": ".status",
    "STATUS_TIMEOUT": ".status",
    "STATUSES": ".status",
    "is_failure": ".status",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

"""The centralized trace collector.

Plays the role of the paper's Zipkin-like Trace Collector backed by
Cassandra: every finished end-to-end request deposits its trace here;
per-service latency recorders are maintained incrementally so the
cluster-management experiments can read per-tier tail latency over time
without re-walking every trace.

With the resilience layer, requests can finish in states other than
``ok`` (timeout, error, deadline, open, shed).  Failed traces are kept
and counted per status, but **only successful completions feed the
latency recorders**: a request that was shed in 50 microseconds was not
served, and letting it into the percentile stream would make a melting
system look fast.

Two orthogonal mechanisms bound the collector's cost:

* ``keep_traces`` is a **ring buffer** cap on stored span trees: once
  full, storing a new trace evicts the oldest.  Evictions only affect
  trace-derived analyses (attribution, critical paths, exports); the
  exact counters and every latency recorder keep working at
  ``keep_traces=0``.
* An optional :class:`~repro.tracing.sampling.TraceSampler` applies
  deterministic head sampling to everything whose cost is per-trace:
  storage, latency recorders, and per-span metric pushes.  Exact
  counters (``total_collected``, ``status_counts``, ``total_retries``)
  are never sampled, and rate-derived quantities such as
  :meth:`throughput` are weight-corrected.  Head-dropped traces that
  match a tail rule (failed / outlier) are still *stored* — annotated
  with ``repro.sample.rescued`` — but excluded from the recorders so
  percentiles stay unbiased.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from ..stats.percentiles import LatencyRecorder
from .sampling import TraceSampler
from .span import Trace

__all__ = ["TraceCollector"]


class TraceCollector:
    """Accumulates traces and per-service/per-operation statistics."""

    def __init__(self, keep_traces: int = 200_000,
                 sampler: Optional[TraceSampler] = None):
        if keep_traces < 0:
            raise ValueError("keep_traces must be >= 0")
        self.keep_traces = keep_traces
        #: The recorders keep every completion; analyses slice off the
        #: run's warmup themselves.
        self.warmup = 0.0
        self.sampler = sampler
        #: Multiplier turning sampled counts into population estimates.
        self.sample_weight = 1.0 if sampler is None else sampler.weight
        self.traces: Deque[Trace] = deque(maxlen=keep_traces)
        self.total_collected = 0
        #: Traces ever handed to the ring buffer (kept or since evicted).
        self.total_stored = 0
        #: Head-sampled-out traces that no tail rule rescued; these were
        #: counted but never stored.
        self.unsampled_traces = 0
        #: Head-dropped traces stored anyway by a tail rule.
        self.tail_rescued = 0
        #: Completions per terminal status (``ok``, ``timeout``, ...).
        self.status_counts: Counter = Counter()
        #: Total retries observed across all collected traces.
        self.total_retries = 0
        #: Criticality class -> per-status completion counts (exact;
        #: populated only when the degradation layer annotates roots).
        self.by_criticality: Dict[str, Counter] = {}
        #: Successful completions that carried >= 1 degradation event
        #: (dropped subtree, fallback, trimmed fan-out).
        self.degraded_count = 0
        #: Successful completions served at full fidelity under an
        #: armed degradation layer (zero when the layer is off).
        self.full_fidelity_count = 0
        #: Criticality class -> [(finish_time, fidelity)] of successful
        #: completions — the utility log scorecards integrate over.
        self.utility_log: Dict[str, List[Tuple[float, float]]] = {}
        self.end_to_end = LatencyRecorder()
        self.per_service: Dict[str, LatencyRecorder] = defaultdict(
            LatencyRecorder)
        self.per_operation: Dict[str, LatencyRecorder] = defaultdict(
            LatencyRecorder)
        self.set_metrics(None)

    def set_metrics(self, registry) -> None:
        """Attach a :class:`~repro.obs.registry.MetricsRegistry`: every
        collected trace then feeds request/RPC counters and latency
        histograms alongside the recorders."""
        self._metrics = registry
        # The pushes' metric children, cached per label values; a family
        # is looked up only to create a missing child.  Families
        # register and children appear where a push first needs them,
        # the order the Prometheus text follows.
        self._requests: Dict[Tuple[str, str], object] = {}
        self._request_latency: Dict[str, object] = {}
        self._rpc: Dict[Tuple[str, str], object] = {}
        self._span_latency: Dict[str, object] = {}
        self._retries = self._dropped = None
        self._rpc_family = self._span_family = None

    @property
    def dropped_traces(self) -> int:
        """Traces stored and later evicted by the ring buffer (plus
        stores refused outright at ``keep_traces=0``).

        Trace-derived analyses — attribution, critical paths, exports —
        only see the retained window; a non-zero value here means they
        run on truncated inputs.  Deliberately head-sampled-out traces
        are *not* drops; they are in :attr:`unsampled_traces`."""
        return self.total_stored - len(self.traces)  # simlint: disable=SIM007

    @property
    def effective_sample_size(self) -> int:
        """Successful completions actually feeding the percentile
        estimators.  Equal to :attr:`ok_count` when unsampled; under
        head sampling it is the number of head-kept ok traces, the
        honest ``n`` for any confidence statement about the tables."""
        return self.end_to_end.count

    def sampling_description(self) -> dict:
        """JSON-safe sampling provenance for reports and artifacts."""
        if self.sampler is None:
            return {"mode": "unsampled", "rate": 1.0}
        desc = self.sampler.describe()
        desc["mode"] = "head-sampled"
        desc["effective_sample_size"] = self.effective_sample_size
        desc["unsampled_traces"] = self.unsampled_traces
        desc["tail_rescued"] = self.tail_rescued
        return desc

    def traces_since(self, cursor: int) -> Tuple[List[Trace], int]:
        """Stored traces the caller has not consumed yet.

        ``cursor`` is the value returned by the previous call (start at
        0).  Returns ``(new_traces, next_cursor)``.  Traces evicted by
        the ring before being consumed are silently skipped — callers
        doing incremental analysis get the freshest window, which is
        what a bounded buffer can honestly provide."""
        stored = self.total_stored
        unseen = stored - cursor
        if unseen <= 0:
            return [], stored
        if unseen > len(self.traces):  # simlint: disable=SIM007
            unseen = len(self.traces)  # simlint: disable=SIM007
        # Walk from the right so the cost is O(new), not O(buffer).
        fresh = list(islice(reversed(self.traces), unseen))
        fresh.reverse()
        return fresh, stored

    def _store(self, trace: Trace) -> None:
        self.total_stored += 1
        self.traces.append(trace)

    def collect(self, trace: Trace,
                latency_override: Optional[float] = None) -> None:
        """Record one finished end-to-end request.

        ``latency_override`` substitutes the client-visible latency for
        the trace's own duration in the end-to-end/per-operation
        recorders — hedged requests report the *first* completion even
        when the winning attempt started late."""
        trace_number = self.total_collected
        self.total_collected = trace_number + 1
        self.status_counts[trace.status] += 1
        self.total_retries += trace.retry_count()

        criticality = trace.root.annotations.get("criticality")
        if criticality is not None:
            # Utility accounting (exact, never sampled): only present
            # when the degradation layer stamped the root span.
            per_class = self.by_criticality.setdefault(
                criticality, Counter())
            per_class[trace.status] += 1
            if trace.status == "ok":
                fidelity = float(
                    trace.root.annotations.get("fidelity", 1.0))
                if trace.root.annotations.get("degraded"):
                    self.degraded_count += 1
                else:
                    self.full_fidelity_count += 1
                self.utility_log.setdefault(criticality, []).append(
                    (trace.root.end, fidelity))

        latency = trace.latency if latency_override is None \
            else latency_override
        sampler = self.sampler
        if sampler is not None and not sampler.head_keep(trace_number):
            reason = sampler.tail_reason(trace.status, latency)
            if reason is not None:
                trace.root.annotations["repro.sample.rescued"] = reason
                self.tail_rescued += 1
                self._store(trace)
            else:
                self.unsampled_traces += 1
            if self._metrics is not None:
                self._push_exact_metrics(trace)
            return

        self._store(trace)
        if self._metrics is not None:
            self._push_metrics(trace, latency)
        if trace.status != "ok":
            # Failed/shed requests are counted, not timed: their spans
            # still feed per-service recorders when they individually
            # succeeded (real server-side latencies).
            for span in trace.root.walk():
                if span.ok and span.duration > 0:
                    self.per_service[span.service].record(span.end,
                                                          span.duration)
            return
        finish = trace.root.end
        self.end_to_end.record(finish, latency)
        self.per_operation[trace.operation].record(finish, latency)
        for span in trace.root.walk():
            self.per_service[span.service].record(span.end, span.duration)

    def _push_exact_metrics(self, trace: Trace) -> None:
        """The never-sampled counter pushes: completion/retry totals.

        This is the whole cost of a head-dropped trace — no span walk,
        no histogram observations."""
        key = (trace.operation, trace.status)
        requests = self._requests.get(key)
        if requests is None:
            requests = self._requests[key] = self._metrics.counter(
                "repro_requests_total",
                "End-to-end completions by operation and status",
                ("operation", "status")).labels(
                operation=key[0], status=key[1])
        requests.inc()
        if self._retries is None:
            self._retries = self._metrics.counter(
                "repro_retries_total",
                "Retries spent across all call trees").labels()
        self._retries.inc(trace.retry_count())

    def _push_metrics(self, trace: Trace, latency: float) -> None:
        """Feed one head-kept trace into the attached metrics registry."""
        self._push_exact_metrics(trace)
        reg = self._metrics
        if self._dropped is None:
            self._dropped = reg.counter(
                "repro_dropped_traces_total",
                "Traces evicted by the keep_traces ring").labels()
        self._dropped.set_total(self.dropped_traces)
        if trace.ok:
            operation = trace.operation
            observed = self._request_latency.get(operation)
            if observed is None:
                observed = self._request_latency[operation] = \
                    reg.histogram(
                        "repro_request_latency_seconds",
                        "End-to-end latency of successful requests "
                        "(head-sampled when a sampler is attached)",
                        ("operation",)).labels(operation=operation)
            observed.observe(latency)
        if self._rpc_family is None:
            # Both register on the first head-kept trace, before any
            # span latency may have been observed.
            self._rpc_family = reg.counter(
                "repro_rpc_total",
                "Server-side RPC spans by tier and status "
                "(head-sampled when a sampler is attached)",
                ("service", "status"))
            self._span_family = reg.histogram(
                "repro_span_latency_seconds", "Per-tier span durations",
                ("service",))
        rpc = self._rpc
        span_latency = self._span_latency
        for span in trace.root.walk():
            key = (span.service, span.status)
            counted = rpc.get(key)
            if counted is None:
                counted = rpc[key] = self._rpc_family.labels(
                    service=key[0], status=key[1])
            counted.inc()
            if span.ok and span.duration > 0:
                observed = span_latency.get(span.service)
                if observed is None:
                    observed = span_latency[span.service] = \
                        self._span_family.labels(service=span.service)
                observed.observe(span.duration)

    @property
    def ok_count(self) -> int:
        """Successful end-to-end completions (exact, never sampled)."""
        return self.status_counts["ok"]

    @property
    def failure_count(self) -> int:
        """Unsuccessful completions (any non-``ok`` status; exact)."""
        return self.total_collected - self.status_counts["ok"]

    def service_tail(self, service: str, p: float = 0.99,
                     start: Optional[float] = None,
                     end: Optional[float] = None) -> float:
        """Tail latency of one tier over a time window."""
        return self.per_service[service].tail(p, start, end)

    def tail(self, p: float = 0.99, start: Optional[float] = None,
             end: Optional[float] = None) -> float:
        """End-to-end tail latency over a time window.

        Under head sampling this is the percentile of a uniform random
        subset — unbiased, with sampling error shrinking as
        :attr:`effective_sample_size` grows."""
        return self.end_to_end.tail(p, start, end)

    def throughput(self, start: Optional[float] = None,
                   end: Optional[float] = None) -> float:
        """Successfully completed end-to-end requests per second.

        Weight-corrected under sampling: each recorded completion
        stands for ``1/rate`` requests."""
        return self.end_to_end.throughput(start, end) * self.sample_weight

    def services(self) -> List[str]:
        """All services seen so far."""
        return list(self.per_service.keys())

    # -- utility accounting (graceful degradation) ----------------------
    def ok_by_class(self, start: Optional[float] = None,
                    end: Optional[float] = None) -> Dict[str, int]:
        """Successful completions per criticality class in a window."""
        return {
            crit: sum(1 for t, _ in entries
                      if (start is None or t >= start)
                      and (end is None or t <= end))
            for crit, entries in self.utility_log.items()
        }

    def utility_by_class(self, start: Optional[float] = None,
                         end: Optional[float] = None) -> Dict[str, float]:
        """Summed fidelity of successful completions per class.

        A full-fidelity response contributes 1.0, a degraded one its
        (lower) fidelity score; divided by the window length this is
        the *utility rate* — goodput weighted by how much of each
        response actually got served."""
        return {
            crit: sum(f for t, f in entries
                      if (start is None or t >= start)
                      and (end is None or t <= end))
            for crit, entries in self.utility_log.items()
        }

"""The collector's cached metric pushes against per-call lookups.

``TraceCollector`` resolves each metric family once and caches the
children per label values.  ``ReferenceCollector`` keeps the pushes
that looked every family and child up again on every trace; feeding the
same trace sequence through both must render the same Prometheus text
byte for byte, family and child order included.
"""

import random

from repro.obs import MetricsRegistry, to_prometheus_text
from repro.tracing.collector import TraceCollector
from repro.tracing.sampling import TraceSampler
from repro.tracing.span import Span, Trace


class ReferenceCollector(TraceCollector):
    """The collector with the per-call-lookup metric pushes."""

    def _push_exact_metrics(self, trace: Trace) -> None:
        reg = self._metrics
        reg.counter("repro_requests_total",
                    "End-to-end completions by operation and status",
                    ("operation", "status")).labels(
            operation=trace.operation, status=trace.status).inc()
        reg.counter("repro_retries_total",
                    "Retries spent across all call trees").labels(
        ).inc(trace.retry_count())

    def _push_metrics(self, trace: Trace, latency: float) -> None:
        self._push_exact_metrics(trace)
        reg = self._metrics
        reg.counter("repro_dropped_traces_total",
                    "Traces evicted by the keep_traces ring").labels(
        ).set_total(self.dropped_traces)
        if trace.ok:
            reg.histogram(
                "repro_request_latency_seconds",
                "End-to-end latency of successful requests (head-sampled "
                "when a sampler is attached)",
                ("operation",)).labels(
                operation=trace.operation).observe(latency)
        rpc = reg.counter("repro_rpc_total",
                          "Server-side RPC spans by tier and status "
                          "(head-sampled when a sampler is attached)",
                          ("service", "status"))
        span_hist = reg.histogram("repro_span_latency_seconds",
                                  "Per-tier span durations",
                                  ("service",))
        for span in trace.root.walk():
            rpc.labels(service=span.service, status=span.status).inc()
            if span.ok and span.duration > 0:
                span_hist.labels(service=span.service).observe(
                    span.duration)


SERVICES = ("nginx", "compose-post", "text", "user", "mongo-posts")
OPERATIONS = ("composePost", "readTimeline", "login")
FAILURES = ("timeout", "error", "shed")


def make_trace(rng: random.Random, start: float, status: str) -> Trace:
    """A random call tree whose root ends with ``status``."""
    def span(depth: int, begin: float) -> Span:
        node = Span(service=rng.choice(SERVICES),
                    operation=rng.choice(OPERATIONS), start=begin,
                    end=begin + rng.choice((0.0, 1e-4, 3e-3, 0.2, 2.0)),
                    status="ok" if rng.random() < 0.8
                    else rng.choice(FAILURES),
                    retries=rng.choice((0, 0, 0, 1, 2)))
        if depth < 2:
            node.children = [span(depth + 1, begin)
                             for _ in range(rng.randrange(3))]
        return node

    root = span(0, start)
    root.status = status
    return Trace(operation=root.operation, root=root,
                 user=rng.randrange(100))


def trace_sequence(seed: int, n: int, failed_first: bool = False):
    """``n`` traces, about a fifth failed.  With ``failed_first`` the
    first is a lone timed-out span, so it observes no latency at all.
    Returns a factory so each collector gets fresh span objects (the
    sampler annotates rescued roots in place)."""
    def build():
        rng = random.Random(seed)
        traces = [make_trace(rng, i * 0.01,
                             "ok" if rng.random() < 0.8
                             else rng.choice(FAILURES))
                  for i in range(n)]
        if failed_first:
            traces[0] = Trace(operation="login", root=Span(
                service="nginx", operation="login", start=0.0, end=0.5,
                status="timeout", retries=1))
        return traces
    return build


def feed(collector_type, build, swap_at=None, **kwargs):
    """Collect every trace of ``build()``; attach a second registry
    before trace ``swap_at``.  Returns the collector, its registries and
    the first registry's text at the swap."""
    collector = collector_type(**kwargs)
    registries = [MetricsRegistry()]
    collector.set_metrics(registries[0])
    at_swap = None
    for i, trace in enumerate(build()):
        if i == swap_at:
            at_swap = to_prometheus_text(registries[0])
            registries.append(MetricsRegistry())
            collector.set_metrics(registries[-1])
        collector.collect(trace)
    return collector, registries, at_swap


def texts(registries):
    return [to_prometheus_text(reg) for reg in registries]


def test_failed_first_trace_pins_family_order():
    build = trace_sequence(seed=3, n=60, failed_first=True)
    cached, cached_regs, _ = feed(TraceCollector, build, keep_traces=20)
    ref, ref_regs, _ = feed(ReferenceCollector, build, keep_traces=20)
    assert texts(cached_regs) == texts(ref_regs)
    families = [family.name for family in cached_regs[0].families()]
    assert families == ["repro_requests_total", "repro_retries_total",
                        "repro_dropped_traces_total",
                        "repro_rpc_total", "repro_span_latency_seconds",
                        "repro_request_latency_seconds"]
    assert cached.dropped_traces == ref.dropped_traces == 40


def test_sampled_run_with_rescued_and_unsampled_traces():
    build = trace_sequence(seed=11, n=400)
    kwargs = dict(sampler=TraceSampler(0.3, seed=5, keep_slower_than=1.5))
    cached, cached_regs, _ = feed(TraceCollector, build, **kwargs)
    ref, ref_regs, _ = feed(ReferenceCollector, build, **kwargs)
    assert cached.tail_rescued == ref.tail_rescued > 0
    assert cached.unsampled_traces == ref.unsampled_traces > 0
    assert texts(cached_regs) == texts(ref_regs)


def test_set_metrics_swap_moves_every_push_to_the_new_registry():
    build = trace_sequence(seed=7, n=120)
    kwargs = dict(sampler=TraceSampler(0.5, seed=2))
    _, cached_regs, cached_at_swap = feed(TraceCollector, build,
                                          swap_at=50, **kwargs)
    _, ref_regs, ref_at_swap = feed(ReferenceCollector, build,
                                    swap_at=50, **kwargs)
    assert texts(cached_regs) == texts(ref_regs)
    # Nothing reached the old registry after the swap.
    assert to_prometheus_text(cached_regs[0]) == cached_at_swap \
        == ref_at_swap
    assert "repro_rpc_total" in to_prometheus_text(cached_regs[1])

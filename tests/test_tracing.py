"""Tests for spans, traces, the collector, and latency attribution."""

import pytest

from repro.tracing import (
    Span,
    Trace,
    TraceCollector,
    critical_path_services,
    network_share,
    per_service_breakdown,
    per_service_exclusive,
)


def make_trace():
    """front [0,10] -> {cache [1,3], db [2,9]} with db -> disk [4,8]."""
    disk = Span(service="disk", operation="op", start=4.0, end=8.0,
                app_time=4.0)
    db = Span(service="db", operation="op", start=2.0, end=9.0,
              app_time=2.0, net_time=1.0, children=[disk])
    cache = Span(service="cache", operation="op", start=1.0, end=3.0,
                 app_time=1.0, net_time=0.5)
    front = Span(service="front", operation="op", start=0.0, end=10.0,
                 app_time=1.5, net_time=1.0, children=[cache, db])
    return Trace(operation="op", root=front)


def test_span_duration_and_walk():
    trace = make_trace()
    assert trace.latency == 10.0
    assert [s.service for s in trace.root.walk()] == \
        ["front", "cache", "db", "disk"]
    assert trace.services() == ["front", "cache", "db", "disk"]


def test_exclusive_time_subtracts_child_union():
    trace = make_trace()
    # front: children cover [1,3] u [2,9] = [1,9] -> 8; 10 - 8 = 2.
    assert trace.root.exclusive_time() == pytest.approx(2.0)
    # db: child covers [4,8] -> 7 - 4 = 3.
    db = trace.root.children[1]
    assert db.exclusive_time() == pytest.approx(3.0)
    # leaves keep their whole duration.
    assert db.children[0].exclusive_time() == pytest.approx(4.0)


def test_exclusive_time_disjoint_children():
    a = Span(service="a", operation="op", start=1.0, end=2.0)
    b = Span(service="b", operation="op", start=3.0, end=4.0)
    parent = Span(service="p", operation="op", start=0.0, end=10.0,
                  children=[a, b])
    assert parent.exclusive_time() == pytest.approx(8.0)


def test_critical_path_follows_latest_child():
    trace = make_trace()
    assert [s.service for s in trace.critical_path()] == \
        ["front", "db", "disk"]


def test_collector_aggregates():
    collector = TraceCollector()
    for _ in range(3):
        collector.collect(make_trace())
    assert collector.total_collected == 3
    assert collector.tail(0.5) == pytest.approx(10.0)
    assert collector.service_tail("db", 0.5) == pytest.approx(7.0)
    assert set(collector.services()) == {"front", "cache", "db", "disk"}


def test_collector_trace_cap():
    collector = TraceCollector(keep_traces=2)
    for _ in range(5):
        collector.collect(make_trace())
    assert len(collector.traces) == 2
    assert collector.total_collected == 5


def make_failed_trace(status="timeout", retries=2):
    """front [0,5] fails; its cache child [1,2] succeeded server-side."""
    cache = Span(service="cache", operation="op", start=1.0, end=2.0)
    front = Span(service="front", operation="op", start=0.0, end=5.0,
                 status=status, retries=retries, children=[cache])
    return Trace(operation="op", root=front)


def test_span_status_defaults_ok():
    span = Span(service="a", operation="op", start=0.0, end=1.0)
    assert span.status == "ok" and span.ok
    trace = make_trace()
    assert trace.status == "ok" and trace.ok
    assert trace.retry_count() == 0


def test_trace_status_and_retry_count():
    trace = make_failed_trace(status="error", retries=3)
    assert trace.status == "error"
    assert not trace.ok
    trace.root.children[0].retries = 1
    assert trace.retry_count() == 4


def test_collector_counts_statuses():
    collector = TraceCollector()
    collector.collect(make_trace())
    collector.collect(make_failed_trace(status="timeout"))
    collector.collect(make_failed_trace(status="shed", retries=0))
    assert collector.total_collected == 3
    assert collector.ok_count == 1
    assert collector.failure_count == 2
    assert collector.status_counts["timeout"] == 1
    assert collector.status_counts["shed"] == 1
    assert collector.total_retries == 2


def test_collector_failed_traces_not_timed():
    collector = TraceCollector()
    collector.collect(make_failed_trace())
    # Failed requests stay out of the end-to-end latency stream...
    assert len(collector.end_to_end.samples()) == 0
    # ...but their individually-successful spans still time their tier.
    assert len(collector.per_service["cache"].samples()) == 1
    assert len(collector.per_service["front"].samples()) == 0


def test_collector_latency_override():
    collector = TraceCollector()
    collector.collect(make_trace(), latency_override=3.5)
    assert collector.end_to_end.samples()[0] == pytest.approx(3.5)


def test_export_round_trips_status_and_retries():
    from repro.obs import otlp_json_to_traces, traces_to_otlp_json
    original = [make_trace(), make_failed_trace(status="deadline",
                                                retries=1)]
    rebuilt = otlp_json_to_traces(traces_to_otlp_json(original))
    assert rebuilt[0].status == "ok"
    assert rebuilt[1].status == "deadline"
    assert rebuilt[1].root.retries == 1
    assert rebuilt[1].retry_count() == 1


def test_network_share():
    traces = [make_trace()]
    # net = 1 + 0.5 + 1 = 2.5; app = 1.5 + 1 + 2 + 4 = 8.5.
    assert network_share(traces) == pytest.approx(2.5 / 11.0)
    with pytest.raises(ValueError):
        network_share([Trace(operation="x",
                             root=Span(service="a", operation="x",
                                       start=0.0, end=0.0))])


def test_per_service_breakdown():
    out = per_service_breakdown([make_trace(), make_trace()])
    assert out["cache"]["count"] == 2
    assert out["cache"]["app"] == pytest.approx(1.0)
    assert out["cache"]["net"] == pytest.approx(0.5)
    assert out["front"]["span_p99"] == pytest.approx(10.0)


def test_per_service_exclusive():
    out = per_service_exclusive([make_trace()])
    assert out["front"] == pytest.approx(2.0)
    assert out["disk"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        per_service_exclusive([])


def test_critical_path_services_fractions():
    out = critical_path_services([make_trace()])
    assert out["front"] == 1.0
    assert out["db"] == 1.0
    assert "cache" not in out
    with pytest.raises(ValueError):
        critical_path_services([])

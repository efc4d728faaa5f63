"""Tests for the OTLP trace export/import (the one trace wire format)."""

import json
from itertools import islice

import pytest

from repro.apps import build_app
from repro.core import simulate
from repro.obs import otlp_json_to_traces, traces_to_otlp_json
from repro.tracing import Span, Trace


def make_trace(user=7):
    child = Span(service="cache", operation="get", start=1.0, end=2.0,
                 app_time=0.5, net_time=0.2)
    root = Span(service="web", operation="get", start=0.0, end=3.0,
                app_time=1.0, net_time=0.3, block_time=0.1,
                children=[child])
    return Trace(operation="get", root=root, user=user)


def _otlp_spans(payload):
    return [span for rs in json.loads(payload)["resourceSpans"]
            for ss in rs["scopeSpans"] for span in ss["spans"]]


def test_span_records_flatten_with_parent_links():
    root, child = _otlp_spans(traces_to_otlp_json(
        [make_trace(), make_trace()]))[1::2]
    assert root["parentSpanId"] == ""
    assert child["parentSpanId"] == root["spanId"]
    assert root["traceId"] == child["traceId"] == f"{1:032x}"
    assert int(root["endTimeUnixNano"]) \
        - int(root["startTimeUnixNano"]) == 3_000_000_000


def test_round_trip_preserves_structure_and_times():
    original = [make_trace(user=1), make_trace(user=2)]
    payload = traces_to_otlp_json(original)
    restored = otlp_json_to_traces(payload)
    assert len(restored) == 2
    for orig, back in zip(original, restored):
        assert back.operation == orig.operation
        assert back.user == orig.user
        assert back.latency == pytest.approx(orig.latency, abs=1e-5)
        assert [s.service for s in back.root.walk()] == \
            [s.service for s in orig.root.walk()]
        assert back.root.children[0].app_time == pytest.approx(
            orig.root.children[0].app_time, abs=1e-5)


def test_retry_count_and_status_round_trip():
    child = Span(service="cache", operation="get", start=1.0, end=1.5,
                 app_time=0.1, retries=3, status="timeout")
    root = Span(service="web", operation="get", start=0.0, end=2.0,
                app_time=0.5, retries=1, children=[child])
    trace = Trace(operation="get", root=root, user=9)
    restored = otlp_json_to_traces(traces_to_otlp_json([trace]))[0]
    back_root = restored.root
    assert back_root.retries == 1
    assert back_root.status == "ok"
    assert back_root.children[0].retries == 3
    assert back_root.children[0].status == "timeout"
    assert restored.retry_count() == trace.retry_count() == 4


def test_real_simulation_traces_round_trip():
    result = simulate(build_app("banking"), qps=20, duration=4.0,
                      n_machines=3, seed=41)
    traces = list(islice(result.collector.traces, 20))
    restored = otlp_json_to_traces(traces_to_otlp_json(traces))
    assert len(restored) == 20
    for orig, back in zip(traces, restored):
        assert back.latency == pytest.approx(orig.latency, abs=2e-6)
        assert len(back.spans()) == len(orig.spans())

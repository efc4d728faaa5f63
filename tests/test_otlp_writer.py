"""The streaming OTLP writer against the dict-tree exporter it replaced.

``traces_to_otlp_json`` formats each span straight into text.  Its
contract is the old exporter's bytes: ``reference_otlp_json`` below is
that exporter, kept verbatim, and the property compares the two with
``==`` over random span trees that exercise every formatting branch.
"""

import json
import math
from typing import Iterable, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import traces_to_otlp_json
from repro.tracing.span import Span, Trace

STATUS_OK = "ok"

_OTLP_STATUS = {
    STATUS_OK: 1,  # STATUS_CODE_OK
}


def _attr(key: str, value) -> dict:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def reference_otlp_json(traces: Iterable[Trace],
                        service_namespace: str = "repro",
                        indent: int = None) -> str:
    """Serialize traces as an OTLP/Jaeger-style JSON document.

    Spans are grouped into one ``resourceSpans`` entry per service (the
    OTLP resource = the emitting process), with deterministic hex ids
    derived from trace/span indices and sim-time nanosecond stamps.
    """
    by_service: dict = {}

    def visit(span: Span, trace: Trace, trace_idx: int,
              counter: List[int], parent_hex: str) -> None:
        span_hex = f"{trace_idx:08x}{counter[0]:08x}"
        counter[0] += 1
        record = {
            "traceId": f"{trace_idx:032x}",
            "spanId": span_hex,
            "parentSpanId": parent_hex,
            "name": span.operation,
            "kind": 2,  # SPAN_KIND_SERVER
            "startTimeUnixNano": str(round(span.start * 1e9)),
            "endTimeUnixNano": str(round(span.end * 1e9)),
            "attributes": [
                _attr("repro.status", span.status),
                _attr("repro.retry_count", span.retries),
                _attr("repro.app_time_us",
                      round(span.app_time * 1e6)),
                _attr("repro.net_time_us",
                      round(span.net_time * 1e6)),
                _attr("repro.net_process_time_us",
                      round(span.net_process_time * 1e6)),
                _attr("repro.block_time_us",
                      round(span.block_time * 1e6)),
            ],
            "status": {"code": _OTLP_STATUS.get(span.status, 2)},
        }
        if trace.user is not None:
            record["attributes"].append(_attr("repro.user", trace.user))
        # After-the-fact marks (e.g. the geo front door's failover /
        # stale-read tags); sorted so exports stay byte-identical.
        for key in sorted(span.annotations):
            record["attributes"].append(
                _attr(f"repro.{key}", span.annotations[key]))
        by_service.setdefault(span.service, []).append(record)
        for child in span.children:
            visit(child, trace, trace_idx, counter, span_hex)

    for i, trace in enumerate(traces):
        visit(trace.root, trace, i, [0], "")

    resource_spans = [{
        "resource": {"attributes": [
            _attr("service.name", service),
            _attr("service.namespace", service_namespace),
        ]},
        "scopeSpans": [{
            "scope": {"name": "repro.obs", "version": "1"},
            "spans": spans,
        }],
    } for service, spans in by_service.items()]
    return json.dumps({"resourceSpans": resource_spans}, indent=indent)


# -- random span trees ------------------------------------------------------

#: Few services, drawn per span, so services interleave within and
#: across traces and the first-seen resource order matters.
SERVICES = st.sampled_from(
    ["web", "cache", "mongo-posts", 'quo"te', "café", "服务"])
#: Names with non-ASCII characters, quotes, backslashes and controls.
NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12) | \
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ",
                     "\U0001f600", "\ud800", "readPost"])
STATUSES = st.sampled_from(
    ["ok", "timeout", "error", "deadline", "open", "shed"])
SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e-7, 0.1, 1e300])
ANNOTATION_VALUES = st.one_of(
    st.booleans(), st.integers(), NAMES,
    st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
ANNOTATIONS = st.dictionaries(
    st.sampled_from(["home_region", "stale_read", "fidelity", "sample.x",
                     "über", "k\"ey"]) | NAMES,
    ANNOTATION_VALUES, max_size=3)
#: Retry counts are ints on the hot path; bools and floats take the
#: generic attribute path.
RETRIES = st.integers(min_value=0, max_value=7) | st.booleans() | \
    st.floats(min_value=0, max_value=3)
TIMES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False) | \
    st.sampled_from([0.0, -0.0, 1e-7, 2.5e-10, 123.4567891234])
USERS = st.none() | st.integers(min_value=-5, max_value=10**12)


@st.composite
def span_trees(draw, depth: int = 0) -> Span:
    span = Span(service=draw(SERVICES), operation=draw(NAMES),
                start=draw(TIMES), end=draw(TIMES),
                app_time=draw(TIMES), net_time=draw(TIMES),
                net_process_time=draw(TIMES), block_time=draw(TIMES),
                status=draw(STATUSES), retries=draw(RETRIES),
                annotations=draw(ANNOTATIONS))
    if depth < 3:
        span.children = draw(st.lists(span_trees(depth=depth + 1),
                                      max_size=3))
    return span


@st.composite
def traces(draw) -> Trace:
    root = draw(span_trees())
    return Trace(operation=root.operation, root=root, user=draw(USERS))


# -- properties ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@example(batch=[], namespace="repro")
@given(batch=st.lists(traces(), max_size=4),
       namespace=st.sampled_from(["repro", "ns-é", 'q"s']))
def test_writer_matches_the_dict_tree_exporter(batch, namespace):
    assert traces_to_otlp_json(batch, namespace) == \
        reference_otlp_json(batch, namespace)


def test_empty_export_is_an_empty_resource_list():
    assert traces_to_otlp_json([]) == reference_otlp_json([]) == \
        '{"resourceSpans": []}'


def test_writer_accepts_any_iterable_of_traces():
    batch = [Trace(operation="get", user=3, root=Span(
        service="web", operation="get", start=0.5, end=1.25,
        children=[Span(service="cache", operation="get", start=0.75,
                       end=1.0, status="timeout", retries=2)]))]
    assert traces_to_otlp_json(iter(batch)) == reference_otlp_json(batch)

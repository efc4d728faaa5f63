"""Standard telemetry exports: Prometheus text and OTLP-style JSON.

Two portable artifacts so a run's telemetry can be archived, diffed
between configurations, or loaded into external tooling:

* :func:`to_prometheus_text` — the Prometheus/OpenMetrics text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), rendering
  the registry's current counter, gauge, and histogram values.
* :func:`traces_to_otlp_json` — an OTLP-shaped JSON trace dump
  (``resourceSpans`` → ``scopeSpans`` → spans with hex trace/span ids,
  nanosecond sim timestamps, attributes, and a status code) that
  Jaeger imports and :func:`otlp_json_to_traces` reads back — the
  suite's one trace wire format.  It is written as text, one string
  per span grouped per service, never as a dict tree: the bytes are
  those ``json.dumps`` gives for the tree, at about a fifth of the
  tree's peak memory.

Both renderings iterate insertion-ordered structures only and contain
no wall-clock values, so two same-seed runs export byte-identical
artifacts (the determinism regression relies on this).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, List

from ..resilience.status import STATUS_OK
from ..tracing.span import Span, Trace
from .registry import MetricsRegistry

__all__ = ["to_prometheus_text", "traces_to_otlp_json",
           "otlp_json_to_traces"]


def _fmt(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(text: str) -> str:
    return (text.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_text(labels, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def to_prometheus_text(registry: MetricsRegistry,
                       now: float = None) -> str:
    """Render the registry in Prometheus text exposition format.

    ``now`` (sim seconds) refreshes collect hooks before rendering so
    mirrored gauges are current; pass ``env.now`` at the end of a run.
    """
    if now is not None:
        registry.run_collect_hooks(now)
    lines: List[str] = []
    for family in registry.families():
        if not family.children:
            continue
        if family.help:
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in family.children.values():
            if family.kind == "histogram":
                cumulative = 0
                bounds = [_fmt(b) for b in child.bounds] + ["+Inf"]
                for le, count in zip(bounds, child.counts):
                    cumulative += count
                    le_attr = 'le="' + le + '"'
                    lines.append(
                        family.name + "_bucket"
                        + _label_text(child.labels, le_attr)
                        + " " + str(cumulative))
                lines.append(f"{family.name}_sum"
                             f"{_label_text(child.labels)}"
                             f" {_fmt(child.total)}")
                lines.append(f"{family.name}_count"
                             f"{_label_text(child.labels)}"
                             f" {child.count}")
            else:
                lines.append(f"{family.name}"
                             f"{_label_text(child.labels)}"
                             f" {_fmt(child.value)}")
    lines.append("")
    return "\n".join(lines)


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


def _resource_head(service, service_namespace: str) -> str:
    """One ``resourceSpans`` entry up to the opening of its span list."""
    resource = json.dumps(
        {"attributes": [_attr("service.name", service),
                        _attr("service.namespace", service_namespace)]})
    return ('{"resource": ' + resource + ', "scopeSpans": [{"scope": '
            '{"name": "repro.obs", "version": "1"}, "spans": [')


def traces_to_otlp_json(traces: Iterable[Trace],
                        service_namespace: str = "repro") -> str:
    """Serialize traces as an OTLP/Jaeger-style JSON document.

    Spans are grouped into one ``resourceSpans`` entry per service (the
    OTLP resource = the emitting process), with deterministic hex ids
    derived from trace/span indices and sim-time nanosecond stamps.

    The document is written, not built: each span is formatted straight
    into one string, the strings are grouped per service in first-seen
    preorder order, and one join assembles the document.  The text is
    exactly what ``json.dumps`` gives for the equivalent dict tree
    (default separators, ASCII escapes, the same key order), at a peak
    of about twice the output's size.
    """
    groups: dict = {}
    for trace_idx, trace in enumerate(traces):
        trace_hex = f"{trace_idx:032x}"
        id_prefix = f"{trace_idx:08x}"
        user = "" if trace.user is None else \
            ", " + json.dumps(_attr("repro.user", trace.user))
        span_idx = 0
        stack = [(trace.root, "")]
        while stack:
            span, parent_hex = stack.pop()
            span_hex = f"{id_prefix}{span_idx:08x}"
            span_idx += 1
            status = span.status
            retries = span.retries
            if type(retries) is int:
                retry_attr = ('{"key": "repro.retry_count", "value": '
                              '{"intValue": "' + str(retries) + '"}}')
            else:
                retry_attr = json.dumps(_attr("repro.retry_count",
                                              retries))
            extra = user
            annotations = span.annotations
            if annotations:
                # After-the-fact marks (e.g. the geo front door's
                # failover / stale-read tags); sorted so exports stay
                # byte-identical.
                extra += "".join(
                    ", " + json.dumps(_attr(f"repro.{key}",
                                            annotations[key]))
                    for key in sorted(annotations))
            # kind 2 is SPAN_KIND_SERVER.
            text = (
                f'{{"traceId": "{trace_hex}", "spanId": "{span_hex}", '
                f'"parentSpanId": "{parent_hex}", '
                f'"name": {_json_str(span.operation)}, "kind": 2, '
                f'"startTimeUnixNano": "{round(span.start * 1e9)}", '
                f'"endTimeUnixNano": "{round(span.end * 1e9)}", '
                f'"attributes": [{{"key": "repro.status", "value": '
                f'{{"stringValue": {_json_str(status)}}}}}, {retry_attr}, '
                f'{{"key": "repro.app_time_us", "value": '
                f'{{"intValue": "{round(span.app_time * 1e6)}"}}}}, '
                f'{{"key": "repro.net_time_us", "value": '
                f'{{"intValue": "{round(span.net_time * 1e6)}"}}}}, '
                f'{{"key": "repro.net_process_time_us", "value": '
                f'{{"intValue": "{round(span.net_process_time * 1e6)}"}}}}, '
                f'{{"key": "repro.block_time_us", "value": '
                f'{{"intValue": "{round(span.block_time * 1e6)}"}}}}'
                f'{extra}], '
                f'"status": {{"code": {_OTLP_STATUS.get(status, 2)}}}}}')
            group = groups.get(span.service)
            if group is None:
                group = groups[span.service] = []
            group.append(text)
            group.append(", ")
            children = span.children
            if children:
                stack.extend([(child, span_hex)
                              for child in reversed(children)])

    pieces = ['{"resourceSpans": [']
    for service, group in groups.items():
        if len(pieces) > 1:
            pieces.append(", ")
        pieces.append(_resource_head(service, service_namespace))
        group[-1] = "]}]}"  # the last span's separator closes the entry
        pieces += group
    pieces.append("]}")
    return "".join(pieces)


def _attr_value(encoded: dict):
    """Decode one OTLP ``AnyValue`` produced by :func:`_attr`."""
    if "boolValue" in encoded:
        return bool(encoded["boolValue"])
    if "intValue" in encoded:
        return int(encoded["intValue"])
    if "doubleValue" in encoded:
        return float(encoded["doubleValue"])
    return encoded.get("stringValue", "")


#: ``repro.*`` span attributes that map to first-class Span fields
#: rather than free-form annotations.
_CORE_ATTRS = frozenset({
    "repro.status", "repro.retry_count", "repro.app_time_us",
    "repro.net_time_us", "repro.net_process_time_us",
    "repro.block_time_us", "repro.user",
})


def _required(record: dict, key: str):
    """``record[key]``, or a ValueError naming the span and the gap."""
    if key not in record:
        raise ValueError(
            f"span {record.get('spanId', '?')} of trace "
            f"{record.get('traceId', '?')} has no {key}")
    return record[key]


def otlp_json_to_traces(payload: str) -> List[Trace]:
    """Rebuild traces from :func:`traces_to_otlp_json` output.

    The inverse mapping: span ids are ``{trace_idx:08x}{preorder:08x}``
    so sorting children by id restores dispatch order, and traces sort
    by their 32-hex trace id back into export order.  ``repro.*``
    attributes beyond the core timing/status set become
    :attr:`~repro.tracing.span.Span.annotations` again (prefix
    stripped); microsecond-rounded timing attributes come back as
    exported, so re-exporting is byte-identical while sub-microsecond
    residue stays lost (documented one-way rounding).

    Malformed input raises :class:`ValueError` naming the defect and
    the trace or span it sits in: not JSON, no ``resourceSpans``, a
    span without ids or timestamps, a duplicate span id, a parent id
    absent from its trace, or a trace without exactly one root that
    reaches all of its spans.
    """
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise ValueError(f"trace export is not JSON ({exc})") from None
    if not isinstance(data, dict) or "resourceSpans" not in data:
        raise ValueError("trace export has no resourceSpans")
    spans: dict = {}
    parents: dict = {}
    for resource in data["resourceSpans"]:
        service = ""
        for attr in resource.get("resource", {}).get("attributes", []):
            if attr.get("key") == "service.name":
                service = _attr_value(attr.get("value", {}))
        for scope in resource.get("scopeSpans", []):
            for record in scope.get("spans", []):
                ids = (_required(record, "traceId"),
                       _required(record, "spanId"))
                if ids in spans:
                    raise ValueError(f"span {ids[1]} appears twice in "
                                     f"trace {ids[0]}")
                attrs = {a["key"]: _attr_value(a.get("value", {}))
                         for a in record.get("attributes", [])}
                span = Span(
                    service=service,
                    operation=record.get("name", ""),
                    start=int(_required(record,
                                        "startTimeUnixNano")) / 1e9,
                    end=int(_required(record, "endTimeUnixNano")) / 1e9,
                    app_time=attrs.get("repro.app_time_us", 0) / 1e6,
                    net_time=attrs.get("repro.net_time_us", 0) / 1e6,
                    net_process_time=attrs.get(
                        "repro.net_process_time_us", 0) / 1e6,
                    block_time=attrs.get("repro.block_time_us",
                                         0) / 1e6,
                    status=attrs.get("repro.status", "ok"),
                    retries=attrs.get("repro.retry_count", 0),
                )
                for key, value in attrs.items():
                    if key.startswith("repro.") \
                            and key not in _CORE_ATTRS:
                        span.annotate(key[len("repro."):], value)
                spans[ids] = (span, attrs.get("repro.user"))
                parents[ids] = record.get("parentSpanId", "")

    children: dict = {}
    roots: dict = {trace_id: [] for trace_id, _ in parents}
    for (trace_id, span_id), parent in parents.items():
        if not parent:
            roots[trace_id].append(span_id)
        elif (trace_id, parent) in spans:
            children.setdefault((trace_id, parent), []).append(span_id)
        else:
            raise ValueError(f"span {span_id} of trace {trace_id} has "
                             f"parent {parent}, which is not in the "
                             f"trace")

    def attach(trace_id: str, span_id: str) -> Span:
        span, _ = spans[(trace_id, span_id)]
        for child in sorted(children.get((trace_id, span_id), ())):
            span.add_child(attach(trace_id, child))
        return span

    sizes = Counter(trace_id for trace_id, _ in spans)
    traces = []
    for trace_id in sorted(roots):
        if len(roots[trace_id]) != 1:
            raise ValueError(f"trace {trace_id} has "
                             f"{len(roots[trace_id])} root spans, "
                             f"expected 1")
        root_id = roots[trace_id][0]
        root, user = spans[(trace_id, root_id)]
        trace = Trace(operation=root.operation,
                      root=attach(trace_id, root_id), user=user)
        if len(trace.spans()) != sizes[trace_id]:
            raise ValueError(f"trace {trace_id} has spans unreachable "
                             f"from its root (a parent cycle)")
        traces.append(trace)
    return traces

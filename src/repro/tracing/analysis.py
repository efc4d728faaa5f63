"""Trace analysis: latency attribution across tiers and categories.

These functions regenerate the paper's attribution results: network vs.
application processing (Figs. 3, 15), per-tier latency contributions at
low vs. high load (Sec. 7), and critical-path statistics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Tuple

from .span import Trace

__all__ = [
    "network_share",
    "per_service_breakdown",
    "per_service_exclusive",
    "cascade_span_seconds",
    "critical_path_services",
    "critical_path_breakdown",
]


def network_share(traces: Iterable[Trace]) -> float:
    """Fraction of total execution time spent on network processing.

    Sums each span's network vs. application wall time over all tiers —
    the quantity behind Fig. 3's "36.3 % of total execution time" for
    the Social Network vs. 5-20 % for single-tier monoliths."""
    net = 0.0
    app = 0.0
    for trace in traces:
        for span in trace.root.walk():
            net += span.net_time
            app += span.app_time
    total = net + app
    if total <= 0:
        raise ValueError("traces carry no timing information")
    return net / total


def per_service_breakdown(traces: Iterable[Trace]) -> Dict[str, dict]:
    """Per-tier mean application/network/blocked time (Fig. 15a).

    Returns service -> {app, net, block, count, span_p99}."""
    acc: Dict[str, dict] = defaultdict(
        lambda: {"app": 0.0, "net": 0.0, "net_process": 0.0,
                 "block": 0.0, "count": 0, "durations": []})
    for trace in traces:
        for span in trace.root.walk():
            slot = acc[span.service]
            slot["app"] += span.app_time
            slot["net"] += span.net_time
            slot["net_process"] += span.net_process_time
            slot["block"] += span.block_time
            slot["count"] += 1
            slot["durations"].append(span.duration)
    import numpy as np
    out: Dict[str, dict] = {}
    for service, slot in acc.items():
        n = slot["count"]
        durations = np.asarray(slot["durations"])
        out[service] = {
            "app": slot["app"] / n,
            "net": slot["net"] / n,
            "net_process": slot["net_process"] / n,
            "block": slot["block"] / n,
            "count": n,
            "span_p99": float(np.quantile(durations, 0.99)),
        }
    return out


def per_service_exclusive(traces: Iterable[Trace]) -> Dict[str, float]:
    """Service -> mean exclusive latency contribution per request.

    Exclusive time removes downstream waiting, so the values identify
    which tier is *itself* responsible for end-to-end latency (the
    Sec. 7 imbalance analysis)."""
    totals: Dict[str, float] = defaultdict(float)
    count = 0
    for trace in traces:
        count += 1
        for span in trace.root.walk():
            totals[span.service] += span.exclusive_time()
    if count == 0:
        raise ValueError("no traces")
    return {service: total / count for service, total in totals.items()}


def cascade_span_seconds(traces: Iterable[Trace]) -> Tuple[
        Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per-service (exclusive, blocked, span) seconds, cascade-aware.

    A non-leaf span's block time is admission wait while its tier's
    workers sit on downstream calls: the tier is a *victim* of whatever
    is below it.  That wait is re-charged to the children in
    proportion to their durations, so the cascade is attributed to
    where it started, not to the front tier whose queue it inflated
    (Fig. 17 case B).  Leaf spans keep their block time — an exhausted
    pool there is the tier's own slowness.  QoS attribution and the
    predictor's features share this accounting, so both name the
    culprit rather than the victim."""
    exclusive: Dict[str, float] = {}
    block: Dict[str, float] = {}
    span_time: Dict[str, float] = {}
    for trace in traces:
        for span in trace.root.walk():
            excl = span.exclusive_time()
            blk = span.block_time
            if span.children and blk > 0:
                excl = max(0.0, excl - blk)
                child_total = sum(c.duration for c in span.children)
                for child in span.children:
                    share = (blk * child.duration / child_total
                             if child_total > 0
                             else blk / len(span.children))
                    exclusive[child.service] = (
                        exclusive.get(child.service, 0.0) + share)
            exclusive[span.service] = (
                exclusive.get(span.service, 0.0) + excl)
            block[span.service] = block.get(span.service, 0.0) + blk
            span_time[span.service] = (
                span_time.get(span.service, 0.0) + span.duration)
    return exclusive, block, span_time


def critical_path_services(traces: Iterable[Trace]) -> Dict[str, float]:
    """Service -> fraction of traces whose critical path includes it."""
    hits: Dict[str, int] = defaultdict(int)
    count = 0
    for trace in traces:
        count += 1
        for service in sorted({span.service
                               for span in trace.critical_path()}):
            hits[service] += 1
    if count == 0:
        raise ValueError("no traces")
    return {service: n / count for service, n in hits.items()}


def critical_path_breakdown(traces: Iterable[Trace]) -> Dict[str, dict]:
    """Aggregated per-tier critical-path attribution.

    Answers "which tier's speedup moves the tail" the way Ditto builds
    its dependency clones: walk each trace's critical path root→leaf
    and charge every tier its **self time on the path** — the stretch
    of its span not covered by the next critical child (the leaf keeps
    its whole duration).  Self times along one path sum to the trace's
    end-to-end latency, so per-tier *shares* are true fractions of the
    user-visible latency.

    Returns ``service -> dict`` with:

    * ``presence`` — fraction of traces whose critical path touches the
      tier (exactly :func:`critical_path_services`);
    * ``share_p50`` / ``share_p95`` / ``share_p99`` — percentiles of
      the tier's share of end-to-end latency, over the traces where it
      is on the path;
    * ``mean_self`` — mean self time on the path (seconds, over traces
      where present);
    * ``mean_exclusive`` / ``mean_blocked`` — the split of that self
      time into work the tier did itself vs. time its critical span
      sat queued for a worker slot or connection.  A tier with a high
      share but mostly *blocked* self time is a victim of backpressure,
      not a culprit — the distinction every capacity decision needs.
    """
    shares: Dict[str, list] = defaultdict(list)
    self_times: Dict[str, list] = defaultdict(list)
    exclusive: Dict[str, float] = defaultdict(float)
    blocked: Dict[str, float] = defaultdict(float)
    presence: Dict[str, int] = defaultdict(int)
    count = 0
    for trace in traces:
        count += 1
        path = trace.critical_path()
        total = path[0].duration
        per_service_self: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(path):
            nxt = path[i + 1].duration if i + 1 < len(path) else 0.0
            self_time = max(0.0, span.duration - nxt)
            per_service_self[span.service] += self_time
            # The blocked part of the critical span cannot exceed its
            # self time on the path (block precedes the downstream
            # call, so it is never covered by the critical child).
            blk = min(span.block_time, self_time)
            blocked[span.service] += blk
            exclusive[span.service] += self_time - blk
        for service, self_time in per_service_self.items():
            presence[service] += 1
            self_times[service].append(self_time)
            shares[service].append(
                self_time / total if total > 0 else 0.0)
    if count == 0:
        raise ValueError("no traces")
    import numpy as np
    out: Dict[str, dict] = {}
    for service, values in shares.items():
        arr = np.asarray(values, dtype=float)
        n = presence[service]
        out[service] = {
            "presence": n / count,
            "share_p50": float(np.quantile(arr, 0.50)),
            "share_p95": float(np.quantile(arr, 0.95)),
            "share_p99": float(np.quantile(arr, 0.99)),
            "mean_self": float(np.mean(self_times[service])),
            "mean_exclusive": exclusive[service] / n,
            "mean_blocked": blocked[service] / n,
            "count": n,
        }
    return out

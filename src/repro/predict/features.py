"""Sliding-window feature extraction on the scrape cadence.

The predictor sees exactly what a production early-warning system
would: the scraped metric series and the trace stream, nothing else.
A :class:`FeatureTracker` registers as a scrape listener on the
:class:`~repro.obs.registry.MetricsRegistry`; at every scrape it
consumes the traces collected since the previous tick, reads the
freshly sampled gauges, and appends one :class:`FeatureRow` per
watched tier.

The feature set encodes the early symptoms the Sec. 7 walkthroughs
diagnose *post hoc*:

* ``exclusive_rate`` — the tier's exclusive span seconds (downstream
  wait removed) completed per sim second this tick: the tier itself
  holding latency, the attribution engine's primary evidence;
* ``exclusive_ratio`` / ``queue_ratio`` — the same signals divided by
  the tier's *own* trailing-window mean: scale-free, so a model
  trained on one tier transfers to tiers whose absolute numbers
  differ by orders of magnitude;
* ``exclusive_share`` — the tier's fraction of the whole fleet's
  exclusive time this tick, the attribution engine's primary culprit
  evidence: block time and queues rise at a cascade's *victims* too,
  but only the culprit's share of held latency climbs toward 1;
* ``block_share`` — fraction of the tier's span time spent blocked on
  connections/worker slots (the HTTP/1 head-of-line signal that
  precedes a Fig. 17 backpressure collapse);
* ``queue_depth`` / ``queue_slope`` — worker-queue depth and its
  least-squares slope over the sliding window: queues integrate
  overload, so their *slope* goes positive before the tail does;
* ``cpu_util`` — scraped busy fraction;
* ``breaker_open_frac`` — fraction of breaker edges into the tier
  currently open or half-open;
* ``cache_hit_ratio`` — observed hit ratio (1.0 for cacheless tiers:
  "no misses");
* ``arrival_rate`` / ``arrival_trend`` — offered load per second and
  its windowed slope (cluster-wide, shared across tiers): ramps in
  demand predict saturation before any per-tier symptom.

All windows are deques of fixed length over scrape ticks; all
iteration orders are fixed at construction.  Two same-seed runs
produce byte-identical feature matrices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..tracing.analysis import cascade_span_seconds

__all__ = ["FEATURE_NAMES", "FeatureRow", "FeatureTracker", "slope"]

#: Feature vector layout, fixed across training and inference.
FEATURE_NAMES: Tuple[str, ...] = (
    "exclusive_rate",
    "exclusive_ratio",
    "exclusive_share",
    "block_share",
    "queue_depth",
    "queue_ratio",
    "queue_slope",
    "cpu_util",
    "breaker_open_frac",
    "cache_hit_ratio",
    "arrival_rate",
    "arrival_trend",
)

#: Codes >= this on ``repro_breaker_state`` count as not-closed
#: (half-open probes included: the edge already judged the tier sick).
_BREAKER_NOT_CLOSED = 1.0


def slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``(t, v)`` points (0.0 under 2 points).

    Plain closed-form regression: deterministic, allocation-free, and
    robust to the uneven spacing a paused scraper can produce."""
    n = len(points)
    if n < 2:
        return 0.0
    mean_t = sum(t for t, _ in points) / n
    mean_v = sum(v for _, v in points) / n
    num = sum((t - mean_t) * (v - mean_v) for t, v in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    if den <= 0.0:
        return 0.0
    return num / den


@dataclass(frozen=True)
class FeatureRow:
    """One tier's feature vector at one scrape tick."""

    time: float
    service: str
    values: Tuple[float, ...]

    def to_dict(self) -> dict:
        row = {"time": self.time, "service": self.service}
        for name, value in zip(FEATURE_NAMES, self.values):
            row[name] = value
        return row


class FeatureTracker:
    """Builds the feature matrix incrementally, one scrape at a time.

    Attach with :meth:`attach`; the tracker then runs inside the
    scraper's turn (see ``MetricsRegistry.add_scrape_listener``), so
    it never races other processes at the same timestamp.  ``window``
    is the sliding-window length in scrape ticks for slope features.
    """

    def __init__(self, registry, collector, services: Sequence[str],
                 window: int = 8):
        if window < 2:
            raise ValueError("window must be >= 2 scrape ticks")
        self.registry = registry
        self.collector = collector
        #: Watched tiers, order fixed at construction.
        self.services: List[str] = list(services)
        self.window = window
        self.rows: List[FeatureRow] = []
        self.ticks = 0
        self._seen_traces = 0
        self._last_tick: Optional[float] = None
        self._last_offered = 0.0
        self._queue_hist: Dict[str, Deque[Tuple[float, float]]] = {
            s: deque(maxlen=window) for s in self.services}
        self._excl_hist: Dict[str, Deque[float]] = {
            s: deque(maxlen=window) for s in self.services}
        self._arrival_hist: Deque[Tuple[float, float]] = deque(
            maxlen=window)
        self._latest: Dict[str, FeatureRow] = {}

    def attach(self) -> "FeatureTracker":
        """Register on the registry's scrape cycle; returns self."""
        self.registry.add_scrape_listener(self.on_scrape)
        return self

    # -- per-tick extraction -------------------------------------------
    def _gauge(self, name: str, service: str) -> float:
        try:
            return self.registry.value(name, service=service)
        except KeyError:
            return 0.0

    def _consume_traces(self) -> Tuple[Dict[str, float],
                                       Dict[str, float],
                                       Dict[str, float]]:
        """Per-service exclusive/block/span seconds of new traces.

        The attribution engine's cascade-aware accounting
        (:func:`~repro.tracing.analysis.cascade_span_seconds`): a front
        tier whose workers sit blocked on a slow backend must not look
        like it is holding latency itself, or the predictor names the
        victim instead of the culprit."""
        fresh, self._seen_traces = self.collector.traces_since(
            self._seen_traces)
        return cascade_span_seconds(fresh)

    def _breaker_open_frac(self, service: str) -> float:
        family = None
        for candidate in self.registry.families():
            if candidate.name == "repro_breaker_state":
                family = candidate
                break
        if family is None:
            return 0.0
        total = 0
        not_closed = 0
        for child in family.children.values():
            labels = dict(child.labels)
            if labels.get("callee") != service:
                continue
            total += 1
            if child.value >= _BREAKER_NOT_CLOSED:
                not_closed += 1
        if total == 0:
            return 0.0
        return not_closed / total

    def on_scrape(self, now: float) -> None:
        """Append one FeatureRow per watched tier for this tick."""
        if self._last_tick is None:
            dt = max(self.registry.scrape_period, 1e-9)
        else:
            dt = max(now - self._last_tick, 1e-9)
        exclusive, block, span_time = self._consume_traces()

        try:
            offered = self.registry.value("repro_offered_requests_total")
        except KeyError:
            offered = self._last_offered
        arrival_rate = max(0.0, offered - self._last_offered) / dt
        self._arrival_hist.append((now, arrival_rate))
        arrival_trend = slope(list(self._arrival_hist))
        self._last_offered = offered
        self._last_tick = now
        self.ticks += 1
        total_exclusive = sum(exclusive.values())

        for service in self.services:
            queue_depth = (
                self._gauge("repro_worker_queue_depth", service)
                + self._gauge("repro_outstanding_requests", service))
            exclusive_rate = exclusive.get(service, 0.0) / dt
            # Ratios divide by the tier's own trailing mean (before
            # this tick), making the signal scale-free across tiers.
            queue_hist = self._queue_hist[service]
            excl_hist = self._excl_hist[service]
            queue_ratio = queue_depth / max(
                sum(v for _, v in queue_hist) / len(queue_hist)
                if queue_hist else queue_depth, 1.0)
            excl_ratio = exclusive_rate / max(
                sum(excl_hist) / len(excl_hist)
                if excl_hist else exclusive_rate, 1e-3)
            queue_hist.append((now, queue_depth))
            excl_hist.append(exclusive_rate)
            spent = span_time.get(service, 0.0)
            try:
                hit_ratio = self.registry.value(
                    "repro_cache_hit_ratio", service=service)
            except KeyError:
                hit_ratio = 1.0
            row = FeatureRow(
                time=now,
                service=service,
                values=(
                    exclusive_rate,
                    excl_ratio,
                    (exclusive.get(service, 0.0) / total_exclusive
                     if total_exclusive > 0.0 else 0.0),
                    (block.get(service, 0.0) / spent
                     if spent > 0.0 else 0.0),
                    queue_depth,
                    queue_ratio,
                    slope(list(queue_hist)),
                    self._gauge("repro_cpu_utilization", service),
                    self._breaker_open_frac(service),
                    hit_ratio,
                    arrival_rate,
                    arrival_trend,
                ),
            )
            self.rows.append(row)
            self._latest[service] = row

    # -- access ---------------------------------------------------------
    def latest(self, service: str) -> Optional[FeatureRow]:
        """The most recent row for one tier (None before first tick)."""
        return self._latest.get(service)

    def matrix(self) -> List[FeatureRow]:
        """All rows, in (tick, service) order."""
        return list(self.rows)

    def export_lines(self) -> List[str]:
        """Byte-stable text form of the matrix (determinism tests)."""
        header = "time\tservice\t" + "\t".join(FEATURE_NAMES)
        lines = [header]
        for row in self.rows:
            values = "\t".join(repr(v) for v in row.values)
            lines.append(f"{row.time!r}\t{row.service}\t{values}")
        return lines

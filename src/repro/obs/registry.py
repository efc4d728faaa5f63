"""The sim-time metrics registry.

The paper's diagnostic method (Sec. 7) rests on fleet-wide monitoring:
per-tier utilization, queue depths, breaker flips, and tail latency
*over time* are what make the backpressure and cascading-QoS-violation
figures legible.  This module is the simulation analogue of a
Prometheus client library plus its scraper:

* :class:`CounterFamily` / :class:`GaugeFamily` /
  :class:`HistogramFamily` — named metric families with label children,
  held in a central :class:`MetricsRegistry`.
* A **scraper**: a simulation process that, on a configurable sim-time
  cadence, snapshots every counter and gauge child into a bounded
  per-series ring buffer — the time-series store the dashboard and the
  QoS-attribution engine read.
* **Collect hooks**: callables run immediately before each scrape (and
  before an export) so gauges mirroring live objects — run-queue
  depth, breaker state, NIC queues — are refreshed at the sampling
  instant rather than at mutation time.

Everything is keyed on sim time (``env.now``); there is no wall-clock
anywhere, so two same-seed runs produce byte-identical exports.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Histogram bucket upper bounds (seconds) tuned for RPC latencies:
#: 100 us up to 10 s, roughly log-spaced like Prometheus defaults.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labelnames: Tuple[str, ...], values: Dict[str, str]) -> LabelSet:
    if tuple(sorted(values)) != tuple(sorted(labelnames)):
        raise ValueError(
            f"labels {sorted(values)} != declared {sorted(labelnames)}")
    return tuple((k, str(values[k])) for k in labelnames)


class _Child:
    """One (family, label-set) series."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelSet):
        self.labels = labels
        self.value = 0.0


class _Counter(_Child):
    """A monotonically non-decreasing total."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Mirror an externally maintained monotone total.

        Used by collect hooks that read counters owned by live objects
        (e.g. ``deployment.resilience_stats``) instead of instrumenting
        every increment site."""
        if total < self.value:
            raise ValueError(
                f"counter went backwards: {total} < {self.value}")
        self.value = total


class _Gauge(_Child):
    """An instantaneous value that can go up or down."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _Histogram(_Child):
    """Cumulative bucket counts plus sum/count."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, labels: LabelSet, bounds: Tuple[float, ...]):
        super().__init__(labels)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class _Family:
    """A named metric with labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.children: Dict[LabelSet, _Child] = {}

    def _make(self, labels: LabelSet) -> _Child:
        raise NotImplementedError

    def labels(self, **values: str) -> _Child:
        """The child for one label combination (created on first use)."""
        key = _labelset(self.labelnames, values)
        child = self.children.get(key)
        if child is None:
            child = self._make(key)
            self.children[key] = child
        return child


class CounterFamily(_Family):
    kind = "counter"

    def _make(self, labels: LabelSet) -> _Counter:
        return _Counter(labels)


class GaugeFamily(_Family):
    kind = "gauge"

    def _make(self, labels: LabelSet) -> _Gauge:
        return _Gauge(labels)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = (),
                 buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))

    def _make(self, labels: LabelSet) -> _Histogram:
        return _Histogram(labels, self.buckets)


class MetricsRegistry:
    """Central registry: metric families, collect hooks, scraped series.

    ``scrape_period`` is the sim-time cadence (seconds) at which
    :meth:`start` samples counters and gauges into per-series ring
    buffers of ``series_capacity`` points.  Families and children are
    kept in insertion order, which is deterministic under a fixed seed,
    so exports are byte-stable across same-seed runs.
    """

    def __init__(self, scrape_period: float = 1.0,
                 series_capacity: int = 4096):
        if scrape_period <= 0:
            raise ValueError("scrape_period must be > 0")
        if series_capacity < 1:
            raise ValueError("series_capacity must be >= 1")
        self.scrape_period = scrape_period
        self.series_capacity = series_capacity
        self._families: Dict[str, _Family] = {}
        self._series: Dict[Tuple[str, LabelSet],
                           Deque[Tuple[float, float]]] = {}
        self._hooks: List[Callable[[float], None]] = []
        self._listeners: List[Callable[[float], None]] = []
        self._scraper = None
        self.scrape_count = 0
        self.last_scrape = float("nan")

    # -- family construction ------------------------------------------
    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise ValueError(
                    f"metric {family.name!r} re-registered as a "
                    f"different kind")
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> CounterFamily:
        """Get or create a counter family."""
        return self._register(CounterFamily(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> GaugeFamily:
        """Get or create a gauge family."""
        return self._register(GaugeFamily(name, help_text, labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                  ) -> HistogramFamily:
        """Get or create a histogram family."""
        return self._register(
            HistogramFamily(name, help_text, labelnames, buckets))

    def families(self) -> List[_Family]:
        """All families in registration order."""
        return list(self._families.values())

    # -- collect hooks --------------------------------------------------
    def add_collect_hook(self, hook: Callable[[float], None]) -> None:
        """Run ``hook(now)`` before every scrape and export.

        Hooks refresh gauges that mirror live simulation objects; they
        must be deterministic and must not advance simulation state."""
        self._hooks.append(hook)

    def run_collect_hooks(self, now: float) -> None:
        """Refresh all mirrored gauges at time ``now``."""
        for hook in self._hooks:
            hook(now)

    def add_scrape_listener(self, listener: Callable[[float], None]) -> None:
        """Run ``listener(now)`` after every scrape completes.

        Listeners see the freshly sampled values via :meth:`value` and
        :meth:`series`; they run inside the scraper's turn, so anything
        reacting on the scrape cadence (the online predictor, a
        dashboard refresh) stays on the same heap event as the scrape
        itself instead of racing it from a second process at the same
        timestamp."""
        self._listeners.append(listener)

    # -- scraping --------------------------------------------------------
    def scrape(self, now: float) -> None:
        """Snapshot every counter/gauge child into its ring buffer."""
        self.run_collect_hooks(now)
        self.scrape_count += 1
        self.last_scrape = now
        for family in self._families.values():
            if family.kind == "histogram":
                continue
            for child in family.children.values():
                key = (family.name, child.labels)
                buf = self._series.get(key)
                if buf is None:
                    buf = deque(maxlen=self.series_capacity)
                    self._series[key] = buf
                buf.append((now, child.value))
        for listener in self._listeners:
            listener(now)

    def start(self, env) -> None:
        """Launch the scraper as a simulation process on ``env``."""
        if self._scraper is not None:
            raise RuntimeError("scraper already started")

        def loop():
            while True:
                yield env.timeout(self.scrape_period)
                self.scrape(env.now)

        self._scraper = env.process(loop(), name="metrics-scraper")

    # -- series access ---------------------------------------------------
    def series(self, name: str,
               **labels: str) -> List[Tuple[float, float]]:
        """The scraped (sim_time, value) points of one series."""
        family = self._families.get(name)
        if family is None:
            raise KeyError(f"unknown metric {name!r}")
        key = (name, _labelset(family.labelnames, labels))
        return list(self._series.get(key, ()))

    def series_in(self, name: str, start: float, end: float,
                  **labels: str) -> List[Tuple[float, float]]:
        """Series points with ``start <= t < end``."""
        return [(t, v) for t, v in self.series(name, **labels)
                if start <= t < end]

    def mean_in(self, name: str, start: float, end: float,
                **labels: str) -> Optional[float]:
        """Mean of one series over a window, or ``None`` when empty.

        Returning ``None`` (not ``nan``) forces callers to handle the
        no-samples case explicitly: a ``nan`` here once propagated
        silently through the QoS-attribution evidence arithmetic."""
        window = self.series_in(name, start, end, **labels)
        if not window:
            return None
        return sum(v for _, v in window) / len(window)

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge child."""
        family = self._families.get(name)
        if family is None:
            raise KeyError(f"unknown metric {name!r}")
        key = _labelset(family.labelnames, labels)
        child = family.children.get(key)
        if child is None:
            raise KeyError(f"{name!r} has no child {labels!r}")
        return child.value

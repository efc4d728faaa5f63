"""Latency-distribution recording and tail statistics.

Everything in the paper is reported as tail latency (p95/p99), goodput
under a QoS target, or percentile box plots, so this module is the
numeric backbone of the benchmark harness.

numpy computes every quantile and mean, but it is imported inside the
functions that use it: a run that never asks for a percentile does not
pay numpy's start-up CPU and resident memory.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LatencyRecorder", "percentile", "summarize"]


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-quantile (``p`` in [0, 1]) of ``samples``.

    Uses linear interpolation; raises on an empty sample set because a
    silent NaN would poison downstream QoS checks.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if len(samples) == 0:
        raise ValueError("percentile of empty sample set")
    import numpy as np
    return float(np.quantile(np.asarray(samples, dtype=float), p))


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean plus the percentile set used in the paper's box plots."""
    if len(samples) == 0:
        raise ValueError("summarize of empty sample set")
    import numpy as np
    arr = np.asarray(samples, dtype=float)
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "p5": float(np.quantile(arr, 0.05)),
        "p25": float(np.quantile(arr, 0.25)),
        "p50": float(np.quantile(arr, 0.50)),
        "p75": float(np.quantile(arr, 0.75)),
        "p95": float(np.quantile(arr, 0.95)),
        "p99": float(np.quantile(arr, 0.99)),
    }


class LatencyRecorder:
    """Accumulates (timestamp, latency) observations for one measurement.

    Latencies are in seconds.  A warm-up cutoff can exclude the initial
    transient; time-windowed queries support the time-series figures.
    """

    def __init__(self, warmup: float = 0.0):
        self.warmup = warmup
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, timestamp: float, latency: float) -> None:
        """Add one completed-request observation."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._times.append(timestamp)
        self._values.append(latency)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        """Number of recorded observations (including warm-up)."""
        return len(self._values)

    def samples(self, start: Optional[float] = None,
                end: Optional[float] = None) -> np.ndarray:
        """Latency samples with timestamp >= max(start, warmup), < end."""
        lo = self.warmup if start is None else max(start, self.warmup)
        hi = math.inf if end is None else end
        import numpy as np
        return np.asarray(
            [v for t, v in zip(self._times, self._values) if lo <= t < hi],
            dtype=float,
        )

    def tail(self, p: float = 0.99, start: Optional[float] = None,
             end: Optional[float] = None) -> float:
        """Tail latency at quantile ``p`` over the selected window."""
        return percentile(self.samples(start, end), p)

    def mean(self, start: Optional[float] = None,
             end: Optional[float] = None) -> float:
        """Mean latency over the selected window."""
        samples = self.samples(start, end)
        if samples.size == 0:
            raise ValueError("mean of empty window")
        return float(samples.mean())

    def throughput(self, start: Optional[float] = None,
                   end: Optional[float] = None) -> float:
        """Completed requests per second over the selected window."""
        lo = self.warmup if start is None else max(start, self.warmup)
        hi = (max(self._times) if self._times else lo) if end is None else end
        span = hi - lo
        if span <= 0:
            return 0.0
        n = sum(1 for t in self._times if lo <= t < hi)
        return n / span

    def timeseries(self, bucket: float, p: float = 0.99,
                   start: float = 0.0,
                   end: Optional[float] = None) -> List[tuple]:
        """Per-bucket ``(bucket_start, tail_latency)`` pairs.

        Buckets with no observations are emitted with ``nan`` so time
        axes stay aligned across services.
        """
        if bucket <= 0:
            raise ValueError("bucket must be > 0")
        if not self._times:
            return []
        stop = (max(self._times) if end is None else end)
        out = []
        t = start
        while t < stop:
            window = [v for ts, v in zip(self._times, self._values)
                      if t <= ts < t + bucket]
            value = percentile(window, p) if window else float("nan")
            out.append((t, value))
            t += bucket
        return out

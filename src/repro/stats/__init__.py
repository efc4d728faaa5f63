"""Statistics substrate: latency distributions, time series, tables."""

from .. import _lazy

_EXPORTS = {
    "render_dashboard": ".dashboard",
    "sparkline": ".dashboard",
    "LatencyRecorder": ".percentiles",
    "percentile": ".percentiles",
    "summarize": ".percentiles",
    "format_heatmap": ".tables",
    "format_series": ".tables",
    "format_table": ".tables",
    "StepSeries": ".timeseries",
    "TimeSeries": ".timeseries",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

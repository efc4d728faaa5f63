"""Sim-time observability: metrics registry, instrumentation, QoS
attribution, and standard exporters (Sec. 7's monitoring surface)."""

from .. import _lazy

_EXPORTS = {
    "otlp_json_to_traces": ".exporters",
    "to_prometheus_text": ".exporters",
    "traces_to_otlp_json": ".exporters",
    "FlightRecorder": ".profile",
    "profile_simulation": ".profile",
    "instrument_autoscaler": ".instrument",
    "instrument_deployment": ".instrument",
    "instrument_experiment": ".instrument",
    "instrument_frontdoor": ".instrument",
    "instrument_generator": ".instrument",
    "instrument_health": ".instrument",
    "QoSReport": ".qos",
    "TierEvidence": ".qos",
    "ViolationEpisode": ".qos",
    "attribute_qos_violations": ".qos",
    "detect_violation_windows": ".qos",
    "DEFAULT_LATENCY_BUCKETS": ".registry",
    "CounterFamily": ".registry",
    "GaugeFamily": ".registry",
    "HistogramFamily": ".registry",
    "MetricsRegistry": ".registry",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

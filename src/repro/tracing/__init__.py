"""Distributed tracing substrate (Sec. 3.7 of the paper)."""

from .analysis import (
    critical_path_breakdown,
    critical_path_services,
    network_share,
    per_service_breakdown,
    per_service_exclusive,
)
from .collector import TraceCollector
from .sampling import TraceSampler
from .span import Span, Trace

__all__ = [
    "Span",
    "Trace",
    "TraceCollector",
    "TraceSampler",
    "critical_path_breakdown",
    "critical_path_services",
    "network_share",
    "per_service_breakdown",
    "per_service_exclusive",
]

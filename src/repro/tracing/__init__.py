"""Distributed tracing substrate (Sec. 3.7 of the paper)."""

from .. import _lazy

_EXPORTS = {
    "critical_path_breakdown": ".analysis",
    "critical_path_services": ".analysis",
    "network_share": ".analysis",
    "per_service_breakdown": ".analysis",
    "per_service_exclusive": ".analysis",
    "TraceCollector": ".collector",
    "TraceSampler": ".sampling",
    "Span": ".span",
    "Trace": ".span",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

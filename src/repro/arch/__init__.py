"""Architectural models: platforms, DVFS, and the top-down core model."""

from .. import _lazy

_EXPORTS = {
    "ExecutionBreakdown": ".attribution",
    "instruction_breakdown": ".attribution",
    "service_breakdown": ".attribution",
    "weighted_breakdown": ".attribution",
    "LANGUAGE_TRAITS": ".core_model",
    "ArchTraits": ".core_model",
    "CoreModel": ".core_model",
    "CycleBreakdown": ".core_model",
    "FrequencyModel": ".frequency",
    "scaled_time": ".frequency",
    "DRONE_SOC": ".platform",
    "EC2_C5": ".platform",
    "EC2_M5": ".platform",
    "PLATFORMS": ".platform",
    "THUNDERX": ".platform",
    "XEON": ".platform",
    "XEON_1P8": ".platform",
    "Platform": ".platform",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

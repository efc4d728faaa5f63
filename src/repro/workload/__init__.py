"""Workload substrate: open-loop generators, patterns, user skew."""

from .. import _lazy

_EXPORTS = {
    "ClosedLoopGenerator": ".closed_loop",
    "OpenLoopGenerator": ".generator",
    "constant": ".patterns",
    "diurnal": ".patterns",
    "ramp": ".patterns",
    "scaled": ".patterns",
    "shifted": ".patterns",
    "step": ".patterns",
    "trace_replay": ".patterns",
    "UserPopulation": ".users",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

"""Analytic queueing-network backend for fast parameter sweeps."""

from .. import _lazy

_EXPORTS = {
    "aggregate_hit_ratio": ".cache",
    "cache_size_for_hit_ratio": ".cache",
    "che_characteristic_time": ".cache",
    "hit_ratios": ".cache",
    "zipf_weights": ".cache",
    "TierBudget": ".budgets",
    "binding_constraints": ".budgets",
    "latency_budgets": ".budgets",
    "ServiceDemand": ".demand",
    "compute_demands": ".demand",
    "AnalyticModel": ".model",
    "clark_max": ".model",
    "StationResult": ".queueing",
    "analyze_station": ".queueing",
    "erlang_c": ".queueing",
    "mgc_wait_time": ".queueing",
    "tail_from_moments": ".queueing",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

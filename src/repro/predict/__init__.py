"""Online QoS-violation prediction and proactive mitigation.

The observability stack (PR 3) can say *which* tier caused a violation
— after users already felt it.  The chaos layer (PR 4) grades how fast
the system recovers — after the fault landed.  This package closes the
loop from observability back to control: it watches the same scraped
metric series and trace stream the attribution engine reads, but
*during* the run, and raises a predicted-violation event with a named
culprit tier **before** the end-to-end tail crosses the QoS target —
early enough for proactive action (pre-scaling the culprit,
pre-tripping breakers into it, shedding at the front door) to beat the
reactive autoscalers.

Layers
------
:mod:`features`
    Deterministic sliding-window feature extraction on the scrape
    cadence (per-tier exclusive latency, queue-depth slope, CPU
    utilization, breaker-open fraction, cache hit ratio, arrival-rate
    trend).
:mod:`labels`
    Training labels derived from the QoS-attribution episodes at a
    configurable lead-time horizon.
:mod:`models`
    Pure-python, seeded online learners: SGD logistic regression, a
    threshold heuristic, and a majority-class floor.
:mod:`predictor`
    The in-sim online predictor: runs the model on every scrape,
    emits :class:`~repro.predict.predictor.PredictionEvent`\\ s.
:mod:`mitigation`
    Proactive actions wired into the existing control machinery.
:mod:`harness`
    Train-on-one-seed / evaluate-on-held-out-seeds workflow behind
    ``repro predict``.

Everything is keyed on sim time and seeded RNG streams: the same seed
produces byte-identical feature matrices, model weights, and
prediction event logs.
"""

from .. import _lazy

_EXPORTS = {
    "FEATURE_NAMES": ".features",
    "FeatureRow": ".features",
    "FeatureTracker": ".features",
    "LabeledExample": ".labels",
    "episodes_for_labeling": ".labels",
    "label_rows": ".labels",
    "MajorityClassModel": ".models",
    "OnlineLogisticModel": ".models",
    "ThresholdHeuristicModel": ".models",
    "OnlinePredictor": ".predictor",
    "PredictionEvent": ".predictor",
    "MitigationEvent": ".mitigation",
    "ProactiveMitigator": ".mitigation",
    "EvalReport": ".harness",
    "ScenarioSpec": ".harness",
    "predict_scenario": ".harness",
    "predict_scenario_names": ".harness",
    "run_predict_pipeline": ".harness",
    "run_scenario": ".harness",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

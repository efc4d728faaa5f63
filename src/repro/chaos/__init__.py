"""Chaos engineering for the simulator: deterministic fault schedules,
health-check-driven failover, and resilience scorecards.

The layer has four pieces that compose bottom-up:

* :mod:`.faults` — the injector taxonomy behind one :class:`Fault`
  interface (machine crash with cold-cache restart, zone outage,
  network partition, link degradation, datastore brownout, gray
  failure);
* :mod:`.schedule` — :class:`FaultSchedule` places injectors on the
  simulation clock, validates the composition statically, and logs
  what actually fired;
* :mod:`.scenarios` — named recipes resolving targets from any
  deployment (the ``repro chaos`` suite);
* :mod:`.harness` / :mod:`.scorecard` — run a scenario against a
  steady-state hypothesis and grade detection time, MTTR, blast
  radius, and goodput lost.

Failure *detection and recovery* is deliberately not here: it lives in
:mod:`repro.cluster.health`, because how fast a system notices and
replaces a dead replica is a property of the system under test.
"""

from .. import _lazy

_EXPORTS = {
    "ChaosContext": ".faults",
    "CorrelatedCrash": ".faults",
    "DatastoreSlowdown": ".faults",
    "Fault": ".faults",
    "FaultTargets": ".faults",
    "GrayFailure": ".faults",
    "LinkDegradation": ".faults",
    "MachineCrash": ".faults",
    "NetworkPartition": ".faults",
    "ZoneOutage": ".faults",
    "ChaosRun": ".harness",
    "run_chaos_scenario": ".harness",
    "run_chaos_suite": ".harness",
    "DEFAULT_SUITE": ".scenarios",
    "SCENARIOS": ".scenarios",
    "ChaosScenario": ".scenarios",
    "register_scenario": ".scenarios",
    "scenario": ".scenarios",
    "scenario_names": ".scenarios",
    "ChaosEvent": ".schedule",
    "ChaosLog": ".schedule",
    "FaultSchedule": ".schedule",
    "Scorecard": ".scorecard",
    "SteadyStateHypothesis": ".scorecard",
    "build_scorecard": ".scorecard",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

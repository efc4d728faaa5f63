"""The chaos experiment harness: scenario in, scorecard out.

``run_chaos_scenario`` runs :func:`~repro.core.experiment.simulate`
with a setup hook that arms the scenario's fault schedule (validated
first) and optionally starts a health-checked failover loop; load runs
with the observability layer attached, and the outcome is graded into
a :class:`~repro.chaos.scorecard.Scorecard`.  ``run_chaos_suite`` runs a
list of scenarios, each in its own simulation universe with the same
seed — so runs differ only by their fault schedule, the
common-random-numbers discipline that makes scorecards comparable
across scenarios and the ``repro chaos`` CLI's tables meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..arch.platform import XEON, Platform
from ..cluster.health import HealthCheckConfig, HealthChecker
from ..core.deployment import Deployment
from ..core.experiment import ExperimentResult, simulate
from ..services.app import Application
from .scenarios import ChaosScenario, scenario as lookup_scenario
from .schedule import ChaosLog, FaultSchedule
from .scorecard import Scorecard, SteadyStateHypothesis, build_scorecard

__all__ = ["ChaosRun", "run_chaos_scenario", "run_chaos_suite"]


@dataclass
class ChaosRun:
    """Everything one scenario run produced."""

    scenario: str
    scorecard: Scorecard
    result: ExperimentResult
    schedule: FaultSchedule
    log: ChaosLog
    health: Optional[HealthChecker] = None


def _resolve_app(app: Union[Application, str]) -> Application:
    if isinstance(app, Application):
        return app
    from ..apps.registry import build_app
    return build_app(app)


def _resolve_failover(failover) -> Optional[HealthCheckConfig]:
    if failover is True:
        return HealthCheckConfig()
    if failover is None or failover is False:
        return None
    return failover


def run_chaos_scenario(app: Union[Application, str],
                       scn: Union[ChaosScenario, str],
                       qps: float,
                       duration: float = 30.0,
                       platform: Platform = XEON,
                       n_machines: int = 6,
                       replicas: Optional[Dict[str, int]] = None,
                       cores: Optional[Dict[str, int]] = None,
                       seed: int = 0,
                       edge_machines: int = 0,
                       edge_platform: Optional[Platform] = None,
                       failover: Union[bool, HealthCheckConfig,
                                       None] = True,
                       policies: Optional[dict] = None,
                       default_policy=None,
                       hypothesis: Optional[SteadyStateHypothesis]
                       = None,
                       metrics: Union[bool, object] = True,
                       validate: bool = True) -> ChaosRun:
    """Run one scenario against a fresh deployment and grade it.

    ``failover=True`` runs a default :class:`HealthChecker`; pass a
    :class:`HealthCheckConfig` to tune detection/replacement, or
    ``False`` for the drain-only world where recovery waits for the
    fault script to revert."""
    if isinstance(scn, str):
        scn = lookup_scenario(scn)
    config = _resolve_failover(failover)
    registry = None
    if config is not None and metrics is True:
        from ..obs import MetricsRegistry, instrument_health
        metrics = registry = MetricsRegistry()
    schedule = log = health = None

    def arm(deployment: Deployment) -> None:
        nonlocal schedule, log, health
        schedule = scn.build(deployment, duration)
        log = schedule.arm(deployment, validate=validate)
        if config is not None:
            health = HealthChecker(deployment, config).start()
            if registry is not None:
                instrument_health(registry, health)

    result = simulate(_resolve_app(app), qps, duration,
                      platform=platform, n_machines=n_machines,
                      replicas=replicas, cores=cores, seed=seed,
                      edge_machines=edge_machines,
                      edge_platform=edge_platform, policies=policies,
                      default_policy=default_policy, setup=arm,
                      metrics=metrics)
    card = build_scorecard(
        result, log,
        health_events=health.events if health else (),
        scenario=scn.name, hypothesis=hypothesis, seed=seed)
    return ChaosRun(scenario=scn.name, scorecard=card, result=result,
                    schedule=schedule, log=log, health=health)


def run_chaos_suite(app: Union[Application, str],
                    scenarios: Sequence[Union[ChaosScenario, str]],
                    qps: float,
                    duration: float = 30.0,
                    **kwargs) -> List[ChaosRun]:
    """Run several scenarios, one isolated simulation each, same seed.

    Keyword arguments pass through to :func:`run_chaos_scenario`."""
    return [run_chaos_scenario(app, scn, qps, duration, **kwargs)
            for scn in scenarios]

"""Train / evaluate workflow behind ``repro predict``.

The pipeline mirrors how a production early-warning model would be
validated:

1. **Train** on one (or a few) seeded runs of a scenario: run the
   simulation with a :class:`~repro.predict.features.FeatureTracker`
   attached, attribute QoS violations *post hoc*, label the feature
   matrix at the lead-time horizon, fit the model.
2. **Evaluate** on held-out seeds: fresh runs the model never saw,
   scored on alert precision, episode recall, and measured lead time
   (alert to episode start).
3. Optionally **mitigate**: re-run the held-out seeds with the
   predictor driving a
   :class:`~repro.predict.mitigation.ProactiveMitigator` and compare
   violation tier-seconds against the unmitigated run — the
   violations-avoided scorecard.

Scenarios are **ramped** versions of the paper's Sec. 7 case studies:
a step fault violates the instant it lands, leaving nothing to
predict, so the fault ramps up over several scrape ticks — the window
where queue slopes and block shares rise but the tail has not crossed
the target yet is exactly the predictor's opportunity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch import XEON
from ..cluster import Cluster
from ..core.deployment import Deployment
from ..core.experiment import run_experiment
from ..obs import MetricsRegistry, attribute_qos_violations
from ..resilience import BreakerConfig, LoadShedder, ResiliencePolicy
from ..services import Application, CallNode, Operation, Protocol, seq
from ..services.datastores import memcached, nginx
from ..sim import Environment
from ..stats.tables import format_table
from .features import FeatureTracker
from .labels import episodes_for_labeling, label_rows, split_xy
from .mitigation import ProactiveMitigator
from .models import build_model
from .predictor import OnlinePredictor

__all__ = [
    "ScenarioSpec",
    "ScenarioRun",
    "EvalReport",
    "MitigationComparison",
    "PipelineReport",
    "predict_scenario",
    "predict_scenario_names",
    "run_predict_pipeline",
    "run_scenario",
    "violation_tier_seconds",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One ramped-fault scenario the pipeline can train/evaluate on."""

    name: str
    description: str
    qps: float
    duration: float
    warmup: float
    #: QoS-attribution window (seconds).
    window: float
    #: The tier the ramp degrades (ground truth for the benchmark's
    #: sanity checks; labels still come from attribution).
    fault_service: str
    #: Sim time the ramp begins.
    fault_start: float
    #: Ramp length (seconds) and number of equal steps.
    ramp_duration: float
    ramp_steps: int
    #: Build a deployment on ``env`` with ``seed``.
    build: Callable[[Environment, int], Deployment]
    #: Apply the fault at ramp fraction ``frac`` in (0, 1].
    apply_fault: Callable[[Deployment, float], None]
    #: QoS target for attribution (None: the app's own bound).  Set
    #: high enough that the early ramp steps degrade without
    #: violating — the window the predictor exists for.
    target: Optional[float] = None


def _build_backpressure(env: Environment, seed: int) -> Deployment:
    """The Fig. 17 two-tier nginx + memcached app over blocking
    HTTP/1: a slow cache backpressures a busy-waiting front tier.

    The cache's worker pool is deliberately tight: the injected stall
    holds a worker slot, so once ``qps x stall`` exceeds the slots the
    queue — not the stall itself — is what breaks the tail.  That is
    the lever that makes *pre-scaling* curative: more replicas mean
    more slots, and the per-request stall alone stays under the
    target."""
    web = dataclasses.replace(nginx("nginx", work_mean=2e-3),
                              max_workers=64)
    cache = dataclasses.replace(memcached("cache").scaled(20),
                                max_workers=4)
    app = Application(
        name="nginx-memcached",
        services={"nginx": web, "cache": cache},
        operations={"read": Operation(name="read", root=CallNode(
            service="nginx", groups=seq(CallNode(service="cache"))))},
        protocol=Protocol.HTTP,
        qos_latency=0.06,
    )
    # Front-door admission control: bounds the front tier's in-flight
    # work during the collapse, so the attribution evidence points at
    # the slow cache rather than at nginx's own exploding queue — and
    # gives the 'shed' mitigation action a lever to tighten.
    return Deployment(env, app, Cluster.homogeneous(env, XEON, 4),
                      cores={"nginx": 1, "cache": 4}, seed=seed,
                      shedder=LoadShedder(max_concurrent=32))


def _build_cascade(env: Environment, seed: int) -> Deployment:
    """The Fig. 19/20 social-network cascade: a datastore deep in the
    fan-out slows down and the violation propagates to the front."""
    from ..apps import build_app
    app = build_app("social_network")
    # Tighten the datastore's worker pool so the ramped stall turns
    # into slot exhaustion (see _build_backpressure): scale-out can
    # then actually end the episode.
    app.services["mongo-posts"] = dataclasses.replace(
        app.services["mongo-posts"], max_workers=2)
    policy = ResiliencePolicy(rpc_timeout=1.0,
                              breaker=BreakerConfig())
    return Deployment(env, app, Cluster.homogeneous(env, XEON, 4),
                      seed=seed, default_policy=policy,
                      shedder=LoadShedder(max_concurrent=32))


_SCENARIOS: Dict[str, ScenarioSpec] = {}

for _spec in (
    ScenarioSpec(
        name="backpressure",
        description="Fig. 17 case B: ramped cache delay "
                    "backpressures nginx over HTTP/1",
        qps=150.0, duration=40.0, warmup=4.0, window=2.0,
        fault_service="cache", fault_start=10.0,
        ramp_duration=16.0, ramp_steps=8,
        build=_build_backpressure,
        apply_fault=lambda d, frac: d.delay_service("cache",
                                                    0.04 * frac),
        target=0.1,
    ),
    ScenarioSpec(
        name="cascade",
        description="Fig. 19/20: ramped mongo-posts delay cascades "
                    "through the social-network fan-out",
        qps=80.0, duration=40.0, warmup=4.0, window=2.0,
        fault_service="mongo-posts", fault_start=10.0,
        ramp_duration=16.0, ramp_steps=8,
        build=_build_cascade,
        apply_fault=lambda d, frac: d.delay_service("mongo-posts",
                                                    0.03 * frac),
        target=0.08,
    ),
):
    _SCENARIOS[_spec.name] = _spec


def predict_scenario_names() -> List[str]:
    """Registered scenario names."""
    return list(_SCENARIOS)


def predict_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario spec."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown predict scenario {name!r}; have: "
                       f"{', '.join(_SCENARIOS)}") from None


def _install_ramp(env: Environment, deployment: Deployment,
                  spec: ScenarioSpec) -> None:
    def ramp():
        yield env.timeout(spec.fault_start)
        step = spec.ramp_duration / spec.ramp_steps
        for i in range(1, spec.ramp_steps + 1):
            spec.apply_fault(deployment, i / spec.ramp_steps)
            if i < spec.ramp_steps:
                yield env.timeout(step)

    env.process(ramp(), name=f"ramp-{spec.fault_service}")


@dataclass
class ScenarioRun:
    """Everything one instrumented scenario run produced."""

    seed: int
    result: object
    tracker: FeatureTracker
    report: object
    predictor: Optional[OnlinePredictor] = None
    mitigator: Optional[ProactiveMitigator] = None
    #: Reactive autoscaler attached via ``scaler_factory`` (ablations).
    scaler: Optional[object] = None


def run_scenario(spec: ScenarioSpec, seed: int,
                 model=None, threshold: float = 0.5,
                 cooldown: float = 5.0,
                 mitigate: Sequence[str] = (),
                 startup_delay: float = 6.0,
                 scaler_factory=None) -> ScenarioRun:
    """One instrumented run: tracker always, predictor/mitigator when
    a fitted ``model`` is given.

    ``scaler_factory(env, deployment, collector)`` may build a
    *reactive* autoscaler to run instead of (or alongside) the
    predictor — the hook the predictive-vs-reactive ablation uses.
    The returned object's ``start()`` is called before the clock
    runs."""
    env = Environment()
    deployment = spec.build(env, seed)
    registry = MetricsRegistry()
    result = run_experiment(deployment, spec.qps,
                            duration=spec.duration, warmup=spec.warmup,
                            seed=seed, run_env=False, metrics=registry)
    _install_ramp(env, deployment, spec)
    services = sorted(deployment.service_names())
    tracker = FeatureTracker(registry, result.collector,
                             services).attach()
    predictor = None
    mitigator = None
    if model is not None:
        if mitigate:
            mitigator = ProactiveMitigator(
                env, deployment, actions=tuple(mitigate),
                startup_delay=startup_delay)
        predictor = OnlinePredictor(
            tracker, model, threshold=threshold, cooldown=cooldown,
            min_history=tracker.window,
            mitigator=mitigator).attach()
    scaler = None
    if scaler_factory is not None:
        scaler = scaler_factory(env, deployment, result.collector)
        scaler.start()
    env.run(until=spec.duration)
    report = attribute_qos_violations(result, target=spec.target,
                                      window=spec.window)
    return ScenarioRun(seed=seed, result=result, tracker=tracker,
                       report=report, predictor=predictor,
                       mitigator=mitigator, scaler=scaler)


def violation_tier_seconds(report) -> float:
    """Area of attributed QoS damage: episode length x implicated
    tiers (the chaos scorecard's blast-radius evidence bar)."""
    total = 0.0
    for ep in report.episodes:
        implicated = sum(1 for ev in ep.evidence if ev.implicated)
        total += (ep.end - ep.start) * implicated
    return total


@dataclass
class EvalReport:
    """Prediction quality on one held-out seed."""

    seed: int
    episodes: int
    caught: int
    true_alerts: int
    false_alerts: int
    late_alerts: int
    lead_times: List[float] = field(default_factory=list)

    @property
    def precision(self) -> Optional[float]:
        scored = self.true_alerts + self.false_alerts
        if scored == 0:
            return None
        return self.true_alerts / scored

    @property
    def recall(self) -> Optional[float]:
        if self.episodes == 0:
            return None
        return self.caught / self.episodes

    @property
    def mean_lead(self) -> Optional[float]:
        if not self.lead_times:
            return None
        return sum(self.lead_times) / len(self.lead_times)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "caught": self.caught,
            "true_alerts": self.true_alerts,
            "false_alerts": self.false_alerts,
            "late_alerts": self.late_alerts,
            "precision": self.precision,
            "recall": self.recall,
            "lead_times": list(self.lead_times),
            "mean_lead": self.mean_lead,
        }


def score_run(run: ScenarioRun, horizon: float) -> EvalReport:
    """Line one run's alerts up against its attribution episodes.

    An alert fired **during** any episode is *late*: the violation is
    already observable, so the alert is detection, not prediction —
    excluded from precision rather than rewarded or punished.  A
    pre-episode alert is **true** when an episode starts within its
    horizon and names the alerted tier as culprit, **false**
    otherwise.  An episode is **caught** when a true alert preceded
    it; its lead time is episode start minus the earliest such
    alert."""
    episodes = episodes_for_labeling(run.report)
    alerts = run.predictor.events if run.predictor else []
    true_alerts = 0
    false_alerts = 0
    late_alerts = 0
    for alert in alerts:
        t = alert.time
        during = False
        anticipates = False
        for ep in episodes:
            if ep.start <= t < ep.end:
                during = True
            elif ep.culprit == alert.service \
                    and t < ep.start <= t + horizon:
                anticipates = True
        if during:
            late_alerts += 1
        elif anticipates:
            true_alerts += 1
        else:
            false_alerts += 1
    caught = 0
    lead_times: List[float] = []
    for ep in episodes:
        first = None
        for alert in alerts:
            if alert.service == ep.culprit \
                    and alert.time < ep.start <= alert.time + horizon:
                first = alert.time
                break
        if first is not None:
            caught += 1
            lead_times.append(ep.start - first)
    return EvalReport(seed=run.seed, episodes=len(episodes),
                      caught=caught, true_alerts=true_alerts,
                      false_alerts=false_alerts,
                      late_alerts=late_alerts, lead_times=lead_times)


@dataclass
class MitigationComparison:
    """Violations-avoided scorecard for one held-out seed."""

    seed: int
    base_tier_seconds: float
    mitigated_tier_seconds: float
    base_episodes: int
    mitigated_episodes: int
    actions: int

    @property
    def avoided(self) -> float:
        return self.base_tier_seconds - self.mitigated_tier_seconds

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "base_tier_seconds": self.base_tier_seconds,
            "mitigated_tier_seconds": self.mitigated_tier_seconds,
            "base_episodes": self.base_episodes,
            "mitigated_episodes": self.mitigated_episodes,
            "actions": self.actions,
            "avoided_tier_seconds": self.avoided,
        }


@dataclass
class PipelineReport:
    """The full train/eval(/mitigate) outcome for one scenario."""

    scenario: str
    model: str
    horizon: float
    threshold: float
    train_seeds: Tuple[int, ...]
    eval_seeds: Tuple[int, ...]
    train_examples: int
    train_positives: int
    model_state: dict
    evals: List[EvalReport] = field(default_factory=list)
    mitigations: List[MitigationComparison] = field(
        default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "model": self.model,
            "horizon": self.horizon,
            "threshold": self.threshold,
            "train_seeds": list(self.train_seeds),
            "eval_seeds": list(self.eval_seeds),
            "train_examples": self.train_examples,
            "train_positives": self.train_positives,
            "model_state": self.model_state,
            "evals": [e.to_dict() for e in self.evals],
            "mitigations": [m.to_dict() for m in self.mitigations],
        }

    def render(self) -> str:
        def fmt(value, suffix=""):
            return "-" if value is None else f"{value:.2f}{suffix}"

        lines = [
            f"predictive QoS pipeline: scenario={self.scenario} "
            f"model={self.model} horizon={self.horizon:g}s "
            f"threshold={self.threshold:g}",
            f"trained on seed(s) "
            f"{', '.join(map(str, self.train_seeds))}: "
            f"{self.train_examples} examples, "
            f"{self.train_positives} positive",
        ]
        rows = [[str(e.seed), str(e.episodes),
                 f"{e.caught}/{e.episodes}",
                 fmt(e.precision), fmt(e.recall),
                 fmt(e.mean_lead, "s"),
                 str(e.false_alerts), str(e.late_alerts)]
                for e in self.evals]
        lines.append(format_table(
            ["seed", "episodes", "caught", "precision", "recall",
             "mean lead", "false", "late"], rows,
            title="held-out evaluation"))
        if self.mitigations:
            rows = [[str(m.seed), f"{m.base_tier_seconds:.1f}",
                     f"{m.mitigated_tier_seconds:.1f}",
                     f"{m.avoided:.1f}",
                     f"{m.base_episodes} -> {m.mitigated_episodes}",
                     str(m.actions)]
                    for m in self.mitigations]
            lines.append(format_table(
                ["seed", "unmitigated (tier-s)", "mitigated (tier-s)",
                 "avoided", "episodes", "actions"], rows,
                title="violations avoided (proactive mitigation)"))
        return "\n".join(lines)


def run_predict_pipeline(scenario: str = "backpressure",
                         model_kind: str = "logistic",
                         train_seeds: Sequence[int] = (1, 4, 5),
                         eval_seeds: Sequence[int] = (2, 3),
                         horizon: float = 8.0,
                         threshold: float = 0.6,
                         mitigate: Sequence[str] = (),
                         ) -> PipelineReport:
    """The whole workflow: train, evaluate held-out, optionally
    re-run the held-out seeds with proactive mitigation.

    Training pools several seeded runs by default: a single run has
    so few positive ticks that SGD latches onto that run's arrival
    noise and per-tier baseline offsets; pooling seeds washes the
    seed-specific structure out and leaves the violation signature.
    """
    spec = predict_scenario(scenario)
    examples = []
    for seed in train_seeds:
        run = run_scenario(spec, seed)
        episodes = episodes_for_labeling(run.report)
        examples.extend(label_rows(run.tracker.matrix(), episodes,
                                   horizon=horizon))
    x, y = split_xy(examples)
    model = build_model(model_kind, seed=min(train_seeds))
    model.fit(x, y)

    report = PipelineReport(
        scenario=scenario, model=model_kind, horizon=horizon,
        threshold=threshold, train_seeds=tuple(train_seeds),
        eval_seeds=tuple(eval_seeds), train_examples=len(examples),
        train_positives=sum(y), model_state=model.to_dict())

    for seed in eval_seeds:
        run = run_scenario(spec, seed, model=model, threshold=threshold)
        report.evals.append(score_run(run, horizon=horizon))
        if mitigate:
            mitigated = run_scenario(spec, seed, model=model,
                                     threshold=threshold,
                                     mitigate=mitigate)
            report.mitigations.append(MitigationComparison(
                seed=seed,
                base_tier_seconds=violation_tier_seconds(run.report),
                mitigated_tier_seconds=violation_tier_seconds(
                    mitigated.report),
                base_episodes=len(run.report.episodes),
                mitigated_episodes=len(mitigated.report.episodes),
                actions=len(mitigated.mitigator.events)
                if mitigated.mitigator else 0))
    return report

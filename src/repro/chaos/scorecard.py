"""Resilience scorecards: what a chaos run proved, in four numbers.

A chaos experiment starts from a **steady-state hypothesis** — "under
this load, the p99 stays under the QoS target" — verifies it holds
before the first injection, then grades the system's response on:

* **detection time** — first injection until the health checker first
  confirmed a replica down (the control plane *noticing*);
* **MTTR** — first injection until the end of the last QoS-violation
  episode: when users stopped hurting, not when the fault script ended
  (censored when violations persist to the end of the run);
* **blast radius** — how far the failure spread, measured through the
  QoS-attribution engine: which tiers show real evidence (span
  inflation, exclusive time) inside the violation episodes, and for
  how long.  Reported both as the affected-tier set and as
  tier-seconds (tiers x time), the area of the damage;
* **goodput lost** — the fraction of expected within-QoS completions
  (at the pre-fault rate) that never materialized after injection.

The scorecard also names the **attributed** culprit tier from the
longest post-injection episode, so a scenario can assert not just
"something broke" but "the engine blamed the tier we actually broke".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.qos import QoSReport, attribute_qos_violations
from ..stats.percentiles import percentile
from ..stats.tables import format_table

__all__ = ["SteadyStateHypothesis", "Scorecard", "build_scorecard"]


@dataclass
class SteadyStateHypothesis:
    """The QoS claim a chaos run is an attack on."""

    #: Tail-latency bound (seconds); None uses the app's QoS target.
    latency: Optional[float] = None
    p: float = 0.99
    #: Fewer post-warmup samples than this makes the check vacuous
    #: (reported as holding, with a note).
    min_samples: int = 10

    def target_for(self, result) -> float:
        if self.latency is not None:
            return self.latency
        return result.deployment.app.qos_latency

    def check(self, result, start: float, end: float) -> tuple:
        """(held, detail) over completions in ``[start, end)``."""
        target = self.target_for(result)
        samples = result.collector.end_to_end.samples(start=start,
                                                      end=end)
        if len(samples) < self.min_samples:
            return True, (f"only {len(samples)} samples in "
                          f"[{start:g}s, {end:g}s); vacuously holds")
        tail = percentile(samples, self.p)
        held = tail <= target
        return held, (f"p{self.p * 100:g}={tail * 1e3:.1f} ms vs "
                      f"target {target * 1e3:.1f} ms over "
                      f"[{start:g}s, {end:g}s)")


@dataclass
class Scorecard:
    """The graded outcome of one chaos scenario run."""

    scenario: str
    app: str
    seed: int
    fault_count: int
    #: Did the steady-state hypothesis hold before the first injection
    #: (for a fault-free run: over the whole post-warmup window)?
    steady_state_ok: bool
    steady_state_detail: str
    first_injection: Optional[float] = None
    detection_time: Optional[float] = None
    mttr: Optional[float] = None
    mttr_censored: bool = False
    episodes: int = 0
    blast_tiers: List[str] = field(default_factory=list)
    #: Tier-seconds of attributed damage (tiers x violation time).
    blast_radius: float = 0.0
    goodput_lost: float = 0.0
    attributed: Optional[str] = None
    #: Front-door rejections during the run (criticality-aware when
    #: the degradation layer is armed).
    shed_requests: int = 0
    #: Successful completions that carried >= 1 degradation event.
    degraded_responses: int = 0
    #: Successful completions at full fidelity under an armed
    #: degradation layer (zero when the layer is off).
    full_fidelity_responses: int = 0
    #: Criticality class -> fraction of expected post-injection
    #: completions that never materialized (empty without degradation).
    goodput_lost_by_class: Dict[str, float] = field(default_factory=dict)
    #: Criticality class -> utility-seconds lost post-injection: the
    #: missing fidelity-weighted completions divided by the healthy
    #: pre-fault utility rate, i.e. seconds of full-rate service
    #: effectively destroyed for that class.
    utility_seconds_lost: Dict[str, float] = field(default_factory=dict)
    #: The full attribution report backing the summary numbers.
    qos_report: Optional[QoSReport] = None

    def to_dict(self) -> dict:
        """JSON-serializable summary (the CI artifact rows)."""
        return {
            "scenario": self.scenario,
            "app": self.app,
            "seed": self.seed,
            "fault_count": self.fault_count,
            "steady_state_ok": self.steady_state_ok,
            "steady_state_detail": self.steady_state_detail,
            "first_injection": self.first_injection,
            "detection_time": self.detection_time,
            "mttr": self.mttr,
            "mttr_censored": self.mttr_censored,
            "episodes": self.episodes,
            "blast_tiers": list(self.blast_tiers),
            "blast_radius_tier_seconds": self.blast_radius,
            "goodput_lost": self.goodput_lost,
            "attributed": self.attributed,
            "shed_requests": self.shed_requests,
            "degraded_responses": self.degraded_responses,
            "full_fidelity_responses": self.full_fidelity_responses,
            "goodput_lost_by_class": dict(self.goodput_lost_by_class),
            "utility_seconds_lost": dict(self.utility_seconds_lost),
        }

    def render(self) -> str:
        """One human-readable scorecard block."""
        def fmt_s(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.2f}s"

        mttr = fmt_s(self.mttr)
        if self.mttr is not None and self.mttr_censored:
            mttr = f">={self.mttr:.2f}s (censored)"
        rows = [
            ["steady state", "held" if self.steady_state_ok
             else "VIOLATED"],
            ["faults injected", str(self.fault_count)],
            ["detection time", fmt_s(self.detection_time)],
            ["MTTR", mttr],
            ["violation episodes", str(self.episodes)],
            ["blast radius", f"{self.blast_radius:.1f} tier-seconds "
             f"({', '.join(self.blast_tiers) or 'none'})"],
            ["goodput lost", f"{self.goodput_lost * 100:.1f}%"],
            ["attributed culprit", self.attributed or "-"],
            ["shed requests", str(self.shed_requests)],
        ]
        if self.degraded_responses or self.full_fidelity_responses:
            rows.append(["degraded / full fidelity",
                         f"{self.degraded_responses} / "
                         f"{self.full_fidelity_responses}"])
        for crit in sorted(self.utility_seconds_lost):
            lost = self.utility_seconds_lost[crit]
            goodput = self.goodput_lost_by_class.get(crit)
            detail = f"{lost:.1f} utility-seconds"
            if goodput is not None:
                detail += f" ({goodput * 100:.1f}% goodput lost)"
            rows.append([f"degradation [{crit}]", detail])
        return format_table(
            ["metric", "value"], rows,
            title=f"resilience scorecard: {self.scenario} on {self.app}")


def _goodput_lost(result, target: float, first_inject: float) -> float:
    """Fraction of expected within-QoS completions missing after the
    first injection, at the pre-fault good rate."""
    recorder = result.collector.end_to_end
    pre_len = first_inject - result.warmup
    post_len = result.duration - first_inject
    if pre_len <= 0 or post_len <= 0:
        return 0.0
    pre = recorder.samples(start=result.warmup, end=first_inject)
    good_rate = sum(1 for s in pre if s <= target) / pre_len
    if good_rate <= 0:
        return 0.0
    post = recorder.samples(start=first_inject, end=result.duration)
    actual_good = sum(1 for s in post if s <= target)
    expected_good = good_rate * post_len
    return min(1.0, max(0.0, 1.0 - actual_good / expected_good))


def _per_class_losses(result, first_inject: float) -> tuple:
    """(goodput_lost_by_class, utility_seconds_lost) post-injection.

    Both compare the post-injection window against the pre-fault rate,
    per criticality class.  Utility-seconds divide the missing
    fidelity-weighted completions by the healthy utility rate, so the
    number reads as "seconds of full-rate service destroyed" and is
    comparable across classes with different traffic shares."""
    collector = result.collector
    pre_len = first_inject - result.warmup
    post_len = result.duration - first_inject
    if pre_len <= 0 or post_len <= 0 or not collector.utility_log:
        return {}, {}
    pre_ok = collector.ok_by_class(start=result.warmup, end=first_inject)
    post_ok = collector.ok_by_class(start=first_inject,
                                    end=result.duration)
    pre_util = collector.utility_by_class(start=result.warmup,
                                          end=first_inject)
    post_util = collector.utility_by_class(start=first_inject,
                                           end=result.duration)
    goodput_lost: Dict[str, float] = {}
    utility_lost: Dict[str, float] = {}
    for crit in sorted(set(pre_ok) | set(post_ok)):
        ok_rate = pre_ok.get(crit, 0) / pre_len
        if ok_rate > 0:
            expected = ok_rate * post_len
            goodput_lost[crit] = min(1.0, max(
                0.0, 1.0 - post_ok.get(crit, 0) / expected))
        util_rate = pre_util.get(crit, 0.0) / pre_len
        if util_rate > 0:
            expected_util = util_rate * post_len
            missing = max(0.0, expected_util
                          - post_util.get(crit, 0.0))
            utility_lost[crit] = missing / util_rate
    return goodput_lost, utility_lost


def build_scorecard(result, chaos_log, health_events: Sequence = (),
                    scenario: str = "scenario",
                    hypothesis: Optional[SteadyStateHypothesis] = None,
                    seed: int = 0) -> Scorecard:
    """Grade one chaos run into a :class:`Scorecard`.

    A tier is inside the blast radius of an episode when the
    attribution engine holds real evidence against it
    (:attr:`~repro.obs.qos.TierEvidence.implicated`)."""
    hypothesis = hypothesis or SteadyStateHypothesis()
    target = hypothesis.target_for(result)
    report = attribute_qos_violations(result, target=target,
                                      p=hypothesis.p)
    first_inject = chaos_log.first_injection()
    card = Scorecard(
        scenario=scenario,
        app=result.deployment.app.name,
        seed=seed,
        fault_count=sum(1 for e in chaos_log.events
                        if e.phase == "inject"),
        steady_state_ok=True, steady_state_detail="",
        first_injection=first_inject,
        qos_report=report,
    )
    collector = result.collector
    card.shed_requests = collector.status_counts.get("shed", 0)
    card.degraded_responses = collector.degraded_count
    card.full_fidelity_responses = collector.full_fidelity_count

    steady_end = first_inject if first_inject is not None \
        else result.duration
    held, detail = hypothesis.check(result, result.warmup, steady_end)
    card.steady_state_ok = held
    card.steady_state_detail = detail

    if first_inject is None:
        card.episodes = len(report.episodes)
        return card

    episodes = [ep for ep in report.episodes if ep.end > first_inject]
    card.episodes = len(episodes)

    for event in health_events:
        if event.kind == "detected" and event.time >= first_inject:
            card.detection_time = event.time - first_inject
            break

    if episodes:
        last_end = max(ep.end for ep in episodes)
        card.mttr = last_end - first_inject
        card.mttr_censored = last_end >= result.duration - 1e-9
    else:
        card.mttr = 0.0

    blast_tiers = set()
    blast_area = 0.0
    for ep in episodes:
        length = ep.end - max(ep.start, first_inject)
        for ev in ep.evidence:
            if ev.implicated:
                blast_tiers.add(ev.service)
                blast_area += length
    card.blast_tiers = sorted(blast_tiers)
    card.blast_radius = blast_area

    if episodes:
        longest = max(episodes, key=lambda e: e.end - e.start)
        top = longest.top_culprit
        card.attributed = top.service if top else None

    card.goodput_lost = _goodput_lost(result, target, first_inject)
    card.goodput_lost_by_class, card.utility_seconds_lost = \
        _per_class_losses(result, first_inject)
    return card

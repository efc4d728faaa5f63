"""QoS-violation attribution: which microservice started the cascade?

The paper's Sec. 7 walkthroughs (Figs. 17-20) all follow the same
diagnostic recipe: spot the sim-time windows where end-to-end tail
latency exceeds the QoS target, then cross-examine contemporaneous
traces and per-tier metric series to decide *which* tier is the
culprit — a saturated CPU, a queue growing without CPU burn
(head-of-line blocking behind a blocking protocol), an open circuit
breaker, or plain latency inflation.  This module automates that
recipe into a ranked report.

Algorithm
---------
1. **Detect** — bucket post-warmup end-to-end completions into
   ``window``-second windows; a window *violates* when its ``p``-tail
   exceeds the target.  Consecutive violating windows merge into one
   :class:`ViolationEpisode`.
2. **Gather evidence** per tier per episode:

   * *span inflation* — the tier's span p95 inside the episode over
     its p95 in the pre-episode baseline;
   * *exclusive share* — the tier's share of summed exclusive span
     time (downstream waiting removed) across traces finishing in the
     episode: the tier *itself* holding the latency.  Block time on a
     non-leaf span (admission wait while its workers sit on downstream
     calls) is re-charged to the downstream tiers — the blocked tier
     is a victim of the cascade, not its origin;
   * *block share* — fraction of the tier's span time spent blocked on
     connections/worker slots (the HTTP/1 head-of-line signal);
   * *CPU utilization* and *queue growth* from the metrics registry's
     scraped series (falling back to the harness's utilization
     samples when no registry was attached);
   * *breaker-open fraction* of scrape samples on edges into the tier.
3. **Score** — each tier gets
   ``0.45*exclusive_share + 0.35*norm(inflation) + 0.2*norm(queue
   growth)``; tiers are ranked by score and the top tier is classified
   by its dominant signal (``cpu_saturation``, ``head_of_line_
   blocking``, ``breaker_open``, ``queue_growth``, or
   ``latency_inflation``).

The classification deliberately disagrees with a utilization
autoscaler in the Fig. 17 case B scenario: the busy-waiting front tier
shows hot CPU, but its exclusive time is negligible — the slow cache
with cool CPU and a huge block share tops the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..stats.percentiles import percentile
from ..stats.tables import format_table
from ..tracing.analysis import cascade_span_seconds

__all__ = [
    "TierEvidence",
    "ViolationEpisode",
    "QoSReport",
    "detect_violation_windows",
    "attribute_qos_violations",
]

#: The evidence bar that implicates a tier in an episode (the chaos
#: scorecard's blast radius, the predictor's violation tier-seconds):
#: span p95 inflated at least this much over its pre-episode baseline,
IMPLICATED_INFLATION = 2.0
#: or at least this share of the episode's summed exclusive span time.
IMPLICATED_EXCLUSIVE_SHARE = 0.3

#: Causes a tier can be charged with, in display order.
CAUSE_LABELS = {
    "cpu_saturation": "CPU saturated",
    "head_of_line_blocking": "head-of-line blocking (queueing, cool CPU)",
    "breaker_open": "circuit breaker open",
    "queue_growth": "queue growth",
    "latency_inflation": "latency inflation",
}


@dataclass
class TierEvidence:
    """One tier's measurements over one violation episode.

    Windowed measurements that had no samples are ``None`` — never
    ``nan``, which would flow through arithmetic silently."""

    service: str
    score: float = 0.0
    cause: str = "latency_inflation"
    span_p95: Optional[float] = None
    baseline_p95: Optional[float] = None
    inflation: Optional[float] = None
    exclusive_share: float = 0.0
    block_share: float = 0.0
    utilization: Optional[float] = None
    queue_growth: Optional[float] = None
    breaker_open_fraction: float = 0.0

    @property
    def implicated(self) -> bool:
        """Real evidence against the tier: inflation or exclusive share
        at the :data:`IMPLICATED_INFLATION` /
        :data:`IMPLICATED_EXCLUSIVE_SHARE` bar."""
        inflated = (self.inflation is not None
                    and self.inflation >= IMPLICATED_INFLATION)
        return inflated \
            or self.exclusive_share >= IMPLICATED_EXCLUSIVE_SHARE

    def to_dict(self) -> dict:
        """JSON-serializable evidence row."""
        return {
            "service": self.service,
            "score": self.score,
            "cause": self.cause,
            "span_p95": self.span_p95,
            "baseline_p95": self.baseline_p95,
            "inflation": self.inflation,
            "exclusive_share": self.exclusive_share,
            "block_share": self.block_share,
            "utilization": self.utilization,
            "queue_growth": self.queue_growth,
            "breaker_open_fraction": self.breaker_open_fraction,
        }


@dataclass
class ViolationEpisode:
    """A maximal run of consecutive QoS-violating windows."""

    start: float
    end: float
    tail: float
    target: float
    evidence: List[TierEvidence] = field(default_factory=list)

    @property
    def top_culprit(self) -> Optional[TierEvidence]:
        """The highest-scoring tier, if any evidence was gathered."""
        return self.evidence[0] if self.evidence else None

    def to_dict(self) -> dict:
        """JSON-serializable episode with its ranked evidence."""
        top = self.top_culprit
        return {
            "start": self.start,
            "end": self.end,
            "tail": self.tail,
            "target": self.target,
            "top_culprit": top.service if top else None,
            "evidence": [ev.to_dict() for ev in self.evidence],
        }


@dataclass
class QoSReport:
    """Ranked QoS-violation attribution for one experiment."""

    target: float
    p: float
    window: float
    duration: float
    episodes: List[ViolationEpisode] = field(default_factory=list)
    #: Trace-sampling provenance of the underlying collector (see
    #: :meth:`TraceCollector.sampling_description
    #: <repro.tracing.collector.TraceCollector.sampling_description>`):
    #: mode, rate, and the effective sample size behind every
    #: percentile in this report.
    sampling: Optional[dict] = None

    @property
    def violated(self) -> bool:
        return bool(self.episodes)

    def to_dict(self) -> dict:
        """Machine-readable report (``repro report qos --json``).

        This is the contract the :mod:`repro.predict` label pipeline
        consumes: episode boundaries, top culprits, and per-tier
        evidence, with missing measurements as ``null``."""
        return {
            "target": self.target,
            "p": self.p,
            "window": self.window,
            "duration": self.duration,
            "violated": self.violated,
            "top_culprit": self.top_culprit(),
            "episodes": [ep.to_dict() for ep in self.episodes],
            "sampling": self.sampling,
        }

    def top_culprit(self) -> Optional[str]:
        """The top-ranked tier of the longest episode."""
        if not self.episodes:
            return None
        longest = max(self.episodes, key=lambda e: e.end - e.start)
        culprit = longest.top_culprit
        return culprit.service if culprit else None

    def render(self, top: int = 6) -> str:
        """Human-readable attribution report."""
        lines = [f"QoS attribution: target p{self.p * 100:g} <= "
                 f"{self.target * 1e3:.1f} ms, "
                 f"{self.window:g}s windows over {self.duration:g}s"]
        if self.sampling is not None \
                and self.sampling.get("mode") != "unsampled":
            lines.append(
                f"traces head-sampled at rate="
                f"{self.sampling['rate']:g} (sample seed "
                f"{self.sampling['seed']}); percentiles computed on "
                f"n={self.sampling['effective_sample_size']} kept "
                f"requests, counts exact")
        if not self.episodes:
            lines.append("no QoS violations detected")
            return "\n".join(lines)
        for i, ep in enumerate(self.episodes):
            lines.append("")
            lines.append(
                f"episode {i + 1}: t=[{ep.start:.1f}s, {ep.end:.1f}s) "
                f"tail={ep.tail * 1e3:.1f} ms "
                f"({ep.tail / ep.target:.1f}x target)")
            rows = []
            for rank, ev in enumerate(ep.evidence[:top], start=1):
                rows.append([
                    str(rank), ev.service, f"{ev.score:.2f}",
                    CAUSE_LABELS.get(ev.cause, ev.cause),
                    f"{ev.inflation:.1f}x"
                    if ev.inflation is not None else "-",
                    f"{ev.exclusive_share:.2f}",
                    f"{ev.block_share:.2f}",
                    f"{ev.utilization:.2f}"
                    if ev.utilization is not None else "-",
                ])
            lines.append(format_table(
                ["rank", "tier", "score", "likely cause", "span infl",
                 "excl share", "block share", "cpu util"], rows,
                title="culprit ranking"))
        return "\n".join(lines)


def detect_violation_windows(recorder, target: float, p: float = 0.99,
                             window: float = 1.0, start: float = 0.0,
                             end: Optional[float] = None) -> List[tuple]:
    """QoS-violating ``(win_start, win_end, tail)`` windows.

    ``recorder`` is a :class:`~repro.stats.percentiles.LatencyRecorder`
    (normally the collector's end-to-end recorder)."""
    if window <= 0:
        raise ValueError("window must be > 0")
    series = recorder.timeseries(bucket=window, p=p, start=start,
                                 end=end)
    out = []
    for t, tail in series:
        if not math.isnan(tail) and tail > target:
            out.append((t, t + window, tail))
    return out


def _merge_windows(windows: List[tuple], target: float,
                   ) -> List[ViolationEpisode]:
    episodes: List[ViolationEpisode] = []
    for ws, we, tail in windows:
        if episodes and abs(episodes[-1].end - ws) < 1e-9:
            episodes[-1].end = we
            episodes[-1].tail = max(episodes[-1].tail, tail)
        else:
            episodes.append(ViolationEpisode(start=ws, end=we,
                                             tail=tail, target=target))
    return episodes


def _safe_p95(samples) -> Optional[float]:
    if len(samples) == 0:
        return None
    return percentile(samples, 0.95)


def _tier_utilization(result, registry, service: str, start: float,
                      end: float) -> Optional[float]:
    """Mean tier CPU utilization over a window, or ``None`` if no
    monitor sampled it.

    The registry's scraped series is preferred, but an episode shorter
    than the scrape cadence can leave its window empty — fall back to
    the harness's utilization samples rather than reporting nothing."""
    if registry is not None:
        try:
            value = registry.mean_in("repro_cpu_utilization", start,
                                     end, service=service)
        except KeyError:
            value = None
        if value is not None:
            return value
    series = getattr(result, "utilization", {}).get(service)
    if series is not None and len(series):
        mean = series.mean_in(start, end)
        if not math.isnan(mean):
            return mean
    return None


def _queue_growth(registry, service: str, start: float, end: float,
                  baseline_start: float) -> Optional[float]:
    if registry is None:
        return None
    try:
        during = registry.mean_in("repro_outstanding_requests", start,
                                  end, service=service)
        before = registry.mean_in("repro_outstanding_requests",
                                  baseline_start, start,
                                  service=service)
    except KeyError:
        return None
    if during is None or before is None:
        return None
    return during / max(before, 0.5)


def _breaker_open_fraction(registry, deployment, service: str,
                           start: float, end: float) -> float:
    if registry is None or deployment is None:
        return 0.0
    fractions = []
    for key in sorted(deployment.breakers(), key=lambda k: k + ("",)):
        if key[1] != service:
            continue
        caller, callee = key[0], key[1]
        instance = key[2] if len(key) > 2 else ""
        try:
            points = registry.series_in(
                "repro_breaker_state", start, end, caller=caller,
                callee=callee, instance=instance)
        except KeyError:
            continue
        if points:
            fractions.append(
                sum(1 for _, v in points if v >= 2.0) / len(points))
    return max(fractions) if fractions else 0.0


def _classify(ev: TierEvidence) -> str:
    if ev.breaker_open_fraction > 0.2:
        return "breaker_open"
    if ev.utilization is not None and ev.utilization > 0.85:
        return "cpu_saturation"
    if ev.block_share > 0.35 and (ev.utilization is None
                                  or ev.utilization < 0.5):
        return "head_of_line_blocking"
    if ev.queue_growth is not None and ev.queue_growth > 2.0:
        return "queue_growth"
    return "latency_inflation"


def attribute_qos_violations(result, target: Optional[float] = None,
                             p: float = 0.99,
                             window: Optional[float] = None,
                             ) -> QoSReport:
    """Build the ranked QoS-violation attribution for one experiment.

    ``result`` is an :class:`~repro.core.experiment.ExperimentResult`;
    ``target`` defaults to the application's QoS latency, ``window`` to
    1/20th of the run (>= 0.5 s).  Each episode is compared against
    the pre-episode window from the warmup boundary on."""
    collector = result.collector
    deployment = result.deployment
    registry = getattr(result, "metrics", None)
    if target is None:
        target = deployment.app.qos_latency
    if target <= 0:
        raise ValueError("target must be > 0")
    if window is None:
        window = max(result.duration / 20.0, 0.5)
    report = QoSReport(target=target, p=p, window=window,
                       duration=result.duration,
                       sampling=collector.sampling_description()
                       if hasattr(collector, "sampling_description")
                       else None)
    windows = detect_violation_windows(
        collector.end_to_end, target, p=p, window=window,
        start=result.warmup, end=result.duration)
    report.episodes = _merge_windows(windows, target)

    services = sorted(collector.per_service)
    for ep in report.episodes:
        baseline_start = result.warmup
        baseline_end = max(ep.start, baseline_start)
        exclusive, block, span_time = cascade_span_seconds(
            trace for trace in collector.traces
            if ep.start <= trace.root.end < ep.end)
        total_exclusive = sum(exclusive.values())

        evidence: List[TierEvidence] = []
        for service in services:
            recorder = collector.per_service[service]
            ep_p95 = _safe_p95(recorder.samples(ep.start, ep.end))
            base_p95 = _safe_p95(
                recorder.samples(baseline_start, baseline_end))
            if ep_p95 is None or base_p95 is None or base_p95 <= 0:
                inflation = None
            else:
                inflation = ep_p95 / base_p95
            ev = TierEvidence(
                service=service,
                span_p95=ep_p95,
                baseline_p95=base_p95,
                inflation=inflation,
                exclusive_share=(exclusive.get(service, 0.0)
                                 / total_exclusive
                                 if total_exclusive > 0 else 0.0),
                block_share=(block.get(service, 0.0)
                             / span_time[service]
                             if span_time.get(service, 0.0) > 0
                             else 0.0),
                utilization=_tier_utilization(result, registry, service,
                                              ep.start, ep.end),
                queue_growth=_queue_growth(registry, service, ep.start,
                                           ep.end, baseline_start),
                breaker_open_fraction=_breaker_open_fraction(
                    registry, deployment, service, ep.start, ep.end),
            )
            evidence.append(ev)

        # Inflation evidence counts only the unblocked fraction of a
        # tier's span time: a tier that inflated because it sat in an
        # admission queue is exhibiting the cascade, not causing it.
        # Tiers with no measurement (None) are skipped explicitly — a
        # nan here would zero the normalizers for everyone.
        def _adj_infl(ev: TierEvidence) -> Optional[float]:
            if ev.inflation is None:
                return None
            return ev.inflation * (1.0 - min(ev.block_share, 1.0))

        max_inflation = max(
            (_adj_infl(ev) for ev in evidence
             if ev.inflation is not None), default=0.0)
        max_queue = max(
            (ev.queue_growth for ev in evidence
             if ev.queue_growth is not None), default=0.0)
        for ev in evidence:
            infl_norm = (_adj_infl(ev) / max_inflation
                         if max_inflation > 0
                         and ev.inflation is not None else 0.0)
            queue_norm = (ev.queue_growth / max_queue
                          if max_queue > 0
                          and ev.queue_growth is not None else 0.0)
            ev.score = (0.45 * ev.exclusive_share + 0.35 * infl_norm
                        + 0.20 * queue_norm)
            # An open breaker into the tier is direct evidence the
            # fleet judged it sick: boost it above pure-latency signals.
            ev.score += 0.25 * ev.breaker_open_fraction
            ev.cause = _classify(ev)
        evidence.sort(key=lambda e: (-e.score, e.service))
        ep.evidence = evidence
    return report

"""Trace-driven application cloning (the Ditto recipe).

Given an exported trace set from *any* run of *any* application, infer
a registered :class:`~repro.services.app.Application` whose simulated
behavior matches the original's per-tier latency distributions:

1. **Structure** — per operation, the modal span-tree shape across its
   successful traces is taken as the call tree (the suite's call trees
   are deterministic, so the modal shape is the true tree; retries and
   degradation produce the minority shapes).
2. **Dispatch** — serial vs. parallel child grouping is recovered from
   span timing: a child overlapping its predecessor (majority vote
   across traces) was dispatched in the same parallel group.
3. **Service times** — each tier's ``work_mean`` is the mean observed
   per-span compute wall time, per-call-site ``work_scale`` the ratio
   of that site's mean to the tier mean, and ``work_cv`` the dispersion
   of site-normalized samples — valid when the export came from a
   moderately loaded run, where processor-sharing inflation is small
   (the fidelity tolerance documents the residual).
4. **Payloads** — per-call-site request+response sizes are recovered by
   inverting the zero-load network cost model (overheads + wire + NIC
   + per-KB kernel CPU) against the site's mean network time.
5. **Mix** — operation weights are trace counts; criticality comes
   from the degradation layer's root-span annotations when present.

Cross-validation (:func:`validate_clone`) re-simulates the clone and
compares per-tier p50/p95/p99 span-duration tables against the original
trace set within a documented tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...analysis_static.rules import Finding, Severity
from ...analysis_static.synthcheck import check_trace_set
from ...analysis_static.topology import TopologyError, validate_app
from ...cluster.machine import NIC_10G_KB_PER_S
from ...net.fabric import DEFAULT_ZONE_LATENCY
from ...net.protocols import costs_for
from ...resilience.degrade import CRIT_CRITICAL, CRITICALITIES
from ...services.app import Application, Operation, Protocol
from ...services.calltree import CallNode
from ...services.definition import ServiceDefinition, ServiceKind
from ...tracing.span import Span, Trace

__all__ = ["CloneConfig", "CloneResult", "FidelityReport",
           "TierFidelity", "clone_from_traces", "load_traces",
           "percentile_table", "validate_clone"]

#: Documented cross-validation tolerance: max relative drift of the
#: clone's per-tier percentiles vs. the original trace set.  p50 is the
#: distribution body (tightest); tails absorb processor-sharing
#: inflation, queueing noise, and finite-sample percentile error.
DEFAULT_TOLERANCE: Dict[str, float] = {
    "p50": 0.25, "p95": 0.35, "p99": 0.45,
}

#: A percentile also passes when its absolute error is under this
#: floor (seconds).  Replica placement is unobservable from traces —
#: a call colocated in the source run may land cross-machine in the
#: clone (or vice versa), shifting a tier by a few remote-RPC network
#: legs (~100us each) regardless of how well the distributions fit.
DEFAULT_ABS_FLOOR_S: float = 2.5e-4

#: Nearest-rank percentiles need ~a few/(1-p) samples to stabilize;
#: a percentile is compared only when both sides clear its count.
PCTL_MIN_SAMPLES: Dict[str, int] = {"p50": 30, "p95": 100, "p99": 300}


@dataclass(frozen=True)
class CloneConfig:
    """Knobs of the inference pass."""

    #: Operations with fewer successful traces than this are skipped
    #: (not enough evidence for a modal shape).
    min_operation_traces: int = 5
    #: Tiers below this span-sample count draw a SYN002 warning.
    min_service_samples: int = 20
    #: Fitted work_cv is clamped into [0.05, max_work_cv].
    max_work_cv: float = 2.0
    #: Wire protocol assumed when inverting network times.
    protocol: str = Protocol.RPC
    #: QoS target = observed p99 end-to-end latency x this margin.
    qos_margin: float = 1.3
    #: Tier mean compute below this is typed as a cache, above as a
    #: database — for structural leaves only; interior tiers are logic.
    cache_threshold_us: float = 60.0


@dataclass
class CloneResult:
    """The rebuilt application plus the inference evidence."""

    app: Application
    source_traces: int
    used_traces: int
    per_service_samples: Dict[str, int]
    warnings: List[Finding] = field(default_factory=list)


# ---------------------------------------------------------------------
# trace ingestion
# ---------------------------------------------------------------------

def load_traces(payload: str) -> List[Trace]:
    """Parse an OTLP trace export (:func:`repro.obs.traces_to_otlp_json`,
    what ``repro simulate --traces-out`` writes); malformed input raises
    :class:`ValueError` naming the defect."""
    from ...obs.exporters import otlp_json_to_traces
    return otlp_json_to_traces(payload)


# ---------------------------------------------------------------------
# shape inference
# ---------------------------------------------------------------------

def _shape(span: Span) -> tuple:
    """Hashable structural signature of a span tree (service + kids)."""
    return (span.service, tuple(_shape(c) for c in span.children))


def _modal_shape(traces: Sequence[Trace]) -> Tuple[tuple, List[Trace]]:
    """The most common span-tree shape and the traces that carry it
    (first-seen order breaks ties deterministically)."""
    counts: Dict[tuple, int] = {}
    order: List[tuple] = []
    for trace in traces:
        sig = _shape(trace.root)
        if sig not in counts:
            order.append(sig)
        counts[sig] = counts.get(sig, 0) + 1
    best = max(order, key=lambda sig: counts[sig])
    return best, [t for t in traces if _shape(t.root) == best]


def _parallel_votes(traces: Sequence[Trace]) -> Dict[int, List[bool]]:
    """Per preorder-node index: for each child boundary j (1-based),
    True when child j overlapped child j-1 in a majority of traces —
    i.e. the two were dispatched in the same parallel group."""
    votes: Dict[Tuple[int, int], int] = {}
    totals: Dict[Tuple[int, int], int] = {}
    for trace in traces:
        for idx, span in enumerate(trace.root.walk()):
            for j in range(1, len(span.children)):
                prev, cur = span.children[j - 1], span.children[j]
                key = (idx, j)
                totals[key] = totals.get(key, 0) + 1
                if cur.start < prev.end - 1e-12:
                    votes[key] = votes.get(key, 0) + 1
    result: Dict[int, List[bool]] = {}
    for (idx, j), total in sorted(totals.items()):
        result.setdefault(idx, []).append(
            votes.get((idx, j), 0) * 2 > total)
    return result


# ---------------------------------------------------------------------
# timing fits
# ---------------------------------------------------------------------

def _positional_means(traces: Sequence[Trace]
                      ) -> Tuple[List[float], List[float]]:
    """Mean app_time and net_time per preorder call site."""
    app_sums: List[float] = []
    net_sums: List[float] = []
    n = len(traces)
    for trace in traces:
        for idx, span in enumerate(trace.root.walk()):
            if idx >= len(app_sums):
                app_sums.append(0.0)
                net_sums.append(0.0)
            app_sums[idx] += span.app_time
            net_sums[idx] += span.net_time
    return ([s / n for s in app_sums], [s / n for s in net_sums])


def _invert_payload(net_mean: float, is_root: bool,
                    config: CloneConfig) -> Tuple[float, float]:
    """Recover (request_kb, response_kb) from a call site's mean
    request+response transfer time via the zero-load network model.

    Three regimes, matching :meth:`repro.net.fabric.Fabric.transfer`:

    * **root span** — the client leg pays protocol CPU and NIC on the
      server side only, but crosses the client<->cloud wire twice;
    * **remote call** — both messages pay send+recv CPU, two NIC
      serializations, and the inter-machine wire;
    * **colocated call** (mean below the remote floor) — the source
      pair shared a machine, so the IPC cost model applies: no NIC, no
      wire, reduced overheads.  The inferred payload is meaningful even
      though the clone's own placement may differ — that residual is
      what the validation tolerance's absolute floor absorbs.
    """
    costs = costs_for(config.protocol)
    nic = 1.0 / NIC_10G_KB_PER_S
    if is_root:
        wire = DEFAULT_ZONE_LATENCY[("client", "cloud")]
        base = costs.send_overhead_s + costs.recv_overhead_s + 2 * wire
        per_kb = costs.per_kb_s + nic
    else:
        wire = DEFAULT_ZONE_LATENCY[("cloud", "cloud")]
        base = 2 * (costs.send_overhead_s + costs.recv_overhead_s
                    + wire)
        per_kb = 2 * (costs.per_kb_s + nic)
        if net_mean < base:
            ipc = costs_for("ipc")
            base = 2 * (ipc.send_overhead_s + ipc.recv_overhead_s)
            per_kb = 2 * ipc.per_kb_s
    total_kb = max(0.05, (net_mean - base) / per_kb)
    # The CallNode default splits payload 1/3 request : 2/3 response.
    return (round(total_kb / 3.0, 3), round(2.0 * total_kb / 3.0, 3))


def _percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile on a sorted copy (deterministic)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(p * len(ordered)) - 1))
    return ordered[rank]


# ---------------------------------------------------------------------
# the cloner
# ---------------------------------------------------------------------

def clone_from_traces(traces: Iterable[Trace], name: str = "clone",
                      config: Optional[CloneConfig] = None,
                      register: bool = False) -> CloneResult:
    """Infer a matching application from an exported trace set.

    Raises :class:`~repro.analysis_static.topology.TopologyError` with
    ``SYN002`` findings when the set is unclonable.  With ``register``
    the clone lands in the app registry under ``name`` (duplicate names
    raise — see :func:`repro.apps.registry.register_app`).
    """
    config = config or CloneConfig()
    traces = list(traces)
    findings = check_trace_set(traces,
                               min_samples=config.min_service_samples,
                               path=name)
    errors = [f for f in findings if f.severity == Severity.ERROR]
    if errors:
        raise TopologyError(name, errors)
    warnings = [f for f in findings if f.severity == Severity.WARNING]

    ok = [t for t in traces if t.ok]
    entry = ok[0].root.service
    by_op: Dict[str, List[Trace]] = {}
    for trace in ok:
        by_op.setdefault(trace.operation, []).append(trace)

    # Tier-wide stats first: mean per visit, then the cv of samples
    # normalized by their call site's mean (the site mix would
    # otherwise masquerade as dispersion).
    svc_sums: Dict[str, Tuple[float, int]] = {}
    for trace in ok:
        for span in trace.root.walk():
            total, count = svc_sums.get(span.service, (0.0, 0))
            svc_sums[span.service] = (total + span.app_time, count + 1)
    svc_mean = {svc: total / count
                for svc, (total, count) in svc_sums.items()}
    svc_samples = {svc: count
                   for svc, (_, count) in svc_sums.items()}

    interior: Dict[str, bool] = {}
    norm_sq: Dict[str, Tuple[float, float, int]] = {}
    operations: Dict[str, Operation] = {}
    skipped: List[str] = []
    for op_name in sorted(by_op):
        group = by_op[op_name]
        if len(group) < config.min_operation_traces:
            skipped.append(f"{op_name} ({len(group)})")
            continue
        _, matching = _modal_shape(group)
        app_means, net_means = _positional_means(matching)
        votes = _parallel_votes(matching)
        exemplar = matching[0]
        for trace in matching:
            for idx, span in enumerate(trace.root.walk()):
                mean = app_means[idx]
                if mean > 0:
                    total, sq, count = norm_sq.get(span.service,
                                                   (0.0, 0.0, 0))
                    value = span.app_time / mean
                    norm_sq[span.service] = (total + value,
                                             sq + value * value,
                                             count + 1)
        counter = [0]

        def build(span: Span) -> CallNode:
            idx = counter[0]
            counter[0] += 1
            if span.children:
                interior[span.service] = True
            mean = app_means[idx]
            scale = mean / svc_mean[span.service] \
                if svc_mean.get(span.service) else 1.0
            req_kb, resp_kb = _invert_payload(
                net_means[idx], is_root=idx == 0, config=config)
            children = [build(child) for child in span.children]
            groups: List[List[CallNode]] = []
            for j, child in enumerate(children):
                if j > 0 and votes.get(idx, []) and \
                        votes[idx][j - 1]:
                    groups[-1].append(child)
                else:
                    groups.append([child])
            return CallNode(service=span.service,
                            work_scale=round(max(scale, 0.0), 6),
                            request_kb=req_kb, response_kb=resp_kb,
                            groups=groups)

        root = build(exemplar.root)
        criticality = CRIT_CRITICAL
        annotated = exemplar.root.annotations.get("criticality")
        if annotated in CRITICALITIES:
            criticality = annotated
        operations[op_name] = Operation(
            name=op_name, root=root, weight=float(len(group)),
            criticality=criticality)
    if not operations:
        raise TopologyError(name, [Finding(
            code="SYN002",
            message=f"every operation has fewer than "
                    f"{config.min_operation_traces} successful traces",
            path=name, severity=Severity.ERROR)])
    if skipped:
        warnings.append(Finding(
            code="SYN002",
            message=f"operations skipped for lack of traces: "
                    f"{', '.join(skipped)}",
            path=name, severity=Severity.WARNING))

    services: Dict[str, ServiceDefinition] = {}
    for svc in sorted(svc_mean):
        total, sq, count = norm_sq.get(svc, (0.0, 0.0, 0))
        cv = 0.0
        if count > 1:
            mean = total / count
            var = max(0.0, sq / count - mean * mean)
            cv = math.sqrt(var) / mean if mean > 0 else 0.0
        cv = min(max(cv, 0.05), config.max_work_cv)
        if svc == entry:
            kind = ServiceKind.FRONTEND
        elif interior.get(svc):
            kind = ServiceKind.LOGIC
        elif svc_mean[svc] * 1e6 < config.cache_threshold_us:
            kind = ServiceKind.CACHE
        else:
            kind = ServiceKind.DATABASE
        services[svc] = ServiceDefinition(
            name=svc, language="c++", kind=kind,
            work_mean=round(svc_mean[svc], 9), work_cv=round(cv, 4))

    latencies = [t.latency for t in ok]
    qos = round(max(_percentile(latencies, 0.99) * config.qos_margin,
                    0.01), 6)
    app = Application(
        name=name, services=services, operations=operations,
        protocol=config.protocol, qos_latency=qos,
        entry_service=entry,
        metadata={
            "generator": "repro.apps.synth.clone",
            "clone": {"source_traces": len(traces),
                      "used_traces": len(ok)},
        })
    problems = [f for f in validate_app(app)
                if f.severity == Severity.ERROR]
    if problems:
        raise TopologyError(name, problems)
    if register:
        from ..registry import register_app
        register_app(name, lambda: app)
    return CloneResult(app=app, source_traces=len(traces),
                       used_traces=len(ok),
                       per_service_samples=dict(sorted(
                           svc_samples.items())),
                       warnings=warnings)


# ---------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------

def percentile_table(traces: Iterable[Trace], start: float = 0.0,
                     by_operation: bool = False
                     ) -> Dict[str, Dict[str, float]]:
    """Per-tier span-duration percentile table from successful traces.

    The ``(end-to-end)`` pseudo-tier carries root-span latency.  With
    ``by_operation`` each tier is additionally sliced per operation
    (row key ``tier [operation]``): a tier's pooled duration
    distribution is an operation *mixture*, so its upper percentiles
    can be dominated by a tiny sub-population (e.g. the rare
    video-upload path) — slicing compares like with like and lets the
    min-sample rule exclude sub-populations too small to estimate.
    """
    samples: Dict[str, List[float]] = {}
    for trace in traces:
        if not trace.ok or trace.start < start:
            continue
        samples.setdefault("(end-to-end)", []).append(trace.latency)
        for span in trace.root.walk():
            key = f"{span.service} [{trace.operation}]" \
                if by_operation else span.service
            samples.setdefault(key, []).append(span.duration)
    return {
        svc: {
            "samples": float(len(values)),
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "p99": _percentile(values, 0.99),
        }
        for svc, values in sorted(samples.items())
    }


@dataclass
class TierFidelity:
    """One tier's original-vs-clone percentile comparison.

    Only percentiles with enough samples on both sides appear in the
    dicts; ``within[p]`` records whether the drift cleared either the
    relative tolerance or the absolute floor.
    """

    service: str
    samples_original: int
    samples_clone: int
    original: Dict[str, float]
    clone: Dict[str, float]
    #: Relative drift |clone - original| / original per percentile.
    drift: Dict[str, float]
    within: Dict[str, bool] = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.drift.values()) if self.drift else 0.0


@dataclass
class FidelityReport:
    """The clone-fidelity cross-validation verdict."""

    tiers: List[TierFidelity]
    tolerance: Dict[str, float]
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S
    compared_tiers: int = 0
    skipped_tiers: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.tiers) and all(
            ok for tier in self.tiers for ok in tier.within.values())

    def worst_drift(self) -> float:
        return max((t.worst() for t in self.tiers), default=0.0)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": dict(self.tolerance),
            "abs_floor_s": self.abs_floor_s,
            "worst_drift": round(self.worst_drift(), 4),
            "compared_tiers": self.compared_tiers,
            "skipped_tiers": list(self.skipped_tiers),
            "tiers": [
                {
                    "service": t.service,
                    "samples_original": t.samples_original,
                    "samples_clone": t.samples_clone,
                    "original": {p: round(v, 6)
                                 for p, v in t.original.items()},
                    "clone": {p: round(v, 6)
                              for p, v in t.clone.items()},
                    "drift": {p: round(v, 4)
                              for p, v in t.drift.items()},
                    "within": dict(t.within),
                }
                for t in self.tiers
            ],
        }

    def render(self) -> str:
        from ...stats.tables import format_table

        def cell(tier: TierFidelity, p: str) -> str:
            if p not in tier.original:
                return "-"
            mark = "" if tier.within.get(p, True) else " !"
            return (f"{tier.original[p] * 1e3:.2f} / "
                    f"{tier.clone[p] * 1e3:.2f}{mark}")

        rows = [[tier.service, cell(tier, "p50"), cell(tier, "p95"),
                 cell(tier, "p99"), f"{tier.worst():.1%}"]
                for tier in self.tiers]
        verdict = "within tolerance" if self.ok else "OUT OF TOLERANCE"
        return format_table(
            ["tier", "p50 orig/clone (ms)", "p95 orig/clone (ms)",
             "p99 orig/clone (ms)", "worst drift"], rows,
            title=f"clone fidelity: {verdict} "
                  f"(tolerance p50<={self.tolerance['p50']:.0%} "
                  f"p95<={self.tolerance['p95']:.0%} "
                  f"p99<={self.tolerance['p99']:.0%} "
                  f"or <={self.abs_floor_s * 1e3:g}ms absolute)")


def validate_clone(original_traces: Iterable[Trace],
                   clone: "CloneResult | Application",
                   qps: float, duration: float = 20.0,
                   n_machines: int = 4, seed: int = 1
                   ) -> FidelityReport:
    """Re-simulate the clone and compare per-tier percentile tables.

    Drive the clone at the same offered load the original export came
    from.  Tables are sliced per (tier, operation) so that the upper
    percentiles of an operation *mixture* are never compared — a rare
    heavyweight operation (ten video uploads in a sea of reads) would
    otherwise dominate a pooled tier's p95 while being far too thin to
    estimate.  Per row, each percentile with enough samples on both
    sides (:data:`PCTL_MIN_SAMPLES`) must land within the relative
    tolerance *or* the absolute floor; rows where not even p50 is
    comparable are skipped (reported, not compared).
    """
    from ...core.experiment import simulate
    from ...core.provisioning import balanced_provision
    app = clone.app if isinstance(clone, CloneResult) else clone
    tolerance = dict(DEFAULT_TOLERANCE)
    replicas = balanced_provision(app, target_qps=max(qps * 1.5, 20))
    result = simulate(app, qps=qps, duration=duration,
                      n_machines=n_machines, replicas=replicas,
                      seed=seed)
    original = percentile_table(original_traces, by_operation=True)
    cloned = percentile_table(result.collector.traces,
                              start=result.warmup, by_operation=True)
    tiers: List[TierFidelity] = []
    skipped: List[str] = []
    for svc in sorted(original):
        if svc not in cloned:
            skipped.append(svc)
            continue
        orig_row, clone_row = original[svc], cloned[svc]
        n = min(orig_row["samples"], clone_row["samples"])
        compared = [p for p in ("p50", "p95", "p99")
                    if n >= PCTL_MIN_SAMPLES[p]]
        if not compared:
            skipped.append(svc)
            continue
        drift: Dict[str, float] = {}
        within: Dict[str, bool] = {}
        for p in compared:
            diff = abs(clone_row[p] - orig_row[p])
            drift[p] = diff / orig_row[p] if orig_row[p] > 0 else 0.0
            within[p] = (diff <= DEFAULT_ABS_FLOOR_S
                         or drift[p] <= tolerance[p])
        tiers.append(TierFidelity(
            service=svc,
            samples_original=int(orig_row["samples"]),
            samples_clone=int(clone_row["samples"]),
            original={p: orig_row[p] for p in compared},
            clone={p: clone_row[p] for p in compared},
            drift=drift, within=within))
    return FidelityReport(tiers=tiers, tolerance=tolerance,
                          compared_tiers=len(tiers),
                          skipped_tiers=skipped)

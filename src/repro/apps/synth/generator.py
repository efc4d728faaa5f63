"""Seeded parametric topology generators.

The five hand-built applications pin the suite to five shapes; the
paper's hardware/software conclusions, though, hinge on topology form —
fan-out width, chain depth, where the backpressure points sit.  This
module generates *arbitrary* applications from a handful of parameters,
fully deterministically: the same :class:`GeneratorParams` always yields
the same :class:`~repro.services.app.Application`, byte-for-byte (see
:func:`topology_json`), so generated topologies can anchor regression
tests and CI matrices exactly like the hand-built ones.

Patterns (:data:`~repro.analysis_static.synthcheck.PATTERNS`):

``chain``
    Sequential chain — entry -> s1 -> ... -> sN, one call per tier.
``fanout``
    Parallel fan-out — the entry calls every other tier in one group.
``branch``
    Chain with branching — a sequential spine, each spine tier fanning
    out to a parallel group of side legs.
``tree``
    Balanced hierarchical k-ary tree with parallel child dispatch.
``ptree``
    Probabilistic tree — the balanced tree plus sampled subtree
    operation variants, so the *mix* realizes probabilistic fan-out
    while every individual operation stays a deterministic tree.
``mesh``
    Complex mesh — a random DAG where tiers share downstreams; the
    call tree expands each shared tier's subtree on first visit and
    re-visits it as a leaf call (an idempotent read).

Every generated app carries three request-criticality tiers (a critical
write, a degradable read, a sheddable probe), cache/database leaf
placement with matching degradation policies, and passes the same
registration-time validation (TOPO001-006, DEG001) as the hand-built
apps.  Apps are addressable through the registry by spec name —
``build_app("synth:mesh:n32:seed7")``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...analysis_static.rules import Severity
from ...analysis_static.synthcheck import PATTERNS, \
    check_generator_params
from ...analysis_static.topology import TopologyError, validate_app
from ...resilience.criticality import CRIT_CRITICAL, CRIT_DEGRADABLE, \
    CRIT_SHEDDABLE, FALLBACK_DEFAULT, FALLBACK_STALE_CACHE, \
    DegradationPolicy
from ...services.app import Application, Operation, Protocol
from ...services.calltree import CallNode
from ...services.definition import ServiceDefinition, ServiceKind
from ...sim.rng import _derive_seed

__all__ = ["PATTERNS", "GeneratorParams", "generate", "parse_spec",
           "topology_json"]

#: Languages cycled across logic tiers (all carry calibrated traits).
_LOGIC_LANGUAGES = ("c++", "go", "java", "python", "node.js")


@dataclass(frozen=True)
class GeneratorParams:
    """Everything that determines one generated topology.

    The full parameter vocabulary is documented in DESIGN.md; the
    envelope every field must stay inside is enforced by
    :func:`repro.analysis_static.synthcheck.check_generator_params`
    (rule ``SYN001``).
    """

    pattern: str
    size: int
    seed: int = 0
    #: Branching factor for ``branch``/``tree``/``ptree`` and the max
    #: parallel-group width (and DAG in-degree) for ``mesh``.
    fanout: int = 3
    #: ``ptree``: probability a child edge survives in a sampled
    #: operation variant; ``mesh``: probability of each extra DAG edge.
    edge_probability: float = 0.35
    #: Per-tier mean service-time draw ranges, microseconds (uniform).
    logic_work_us: Tuple[float, float] = (60.0, 240.0)
    cache_work_us: Tuple[float, float] = (8.0, 30.0)
    db_work_us: Tuple[float, float] = (150.0, 450.0)
    #: Coefficient of variation of every tier's lognormal service time.
    work_cv: float = 0.5
    #: Fraction of structural leaves realized as datastores
    #: (alternating cache / database).
    datastore_fraction: float = 0.35
    request_kb: float = 1.0
    response_kb: float = 2.0
    protocol: str = Protocol.RPC
    #: ``ptree`` only: number of sampled subtree operation variants.
    variants: int = 2

    @property
    def name(self) -> str:
        """The registry spec name, e.g. ``synth:mesh:n32:seed7``."""
        return f"synth:{self.pattern}:n{self.size}:seed{self.seed}"


_SPEC_RE = re.compile(r"^synth:([a-z]+):n(\d+):seed(\d+)$")


def parse_spec(name: str) -> GeneratorParams:
    """Parse a ``synth:PATTERN:nSIZE:seedSEED`` registry name."""
    match = _SPEC_RE.match(name)
    if not match:
        raise ValueError(
            f"malformed generator spec {name!r}; expected "
            f"synth:PATTERN:nSIZE:seedSEED with PATTERN one of "
            f"{', '.join(PATTERNS)} (e.g. synth:mesh:n32:seed7)")
    return GeneratorParams(pattern=match.group(1),
                           size=int(match.group(2)),
                           seed=int(match.group(3)))


# ---------------------------------------------------------------------
# structure: every pattern reduces to a dispatch plan
# ---------------------------------------------------------------------

@dataclass
class _Plan:
    """Node index -> ordered groups of child indices (0 = entry).

    ``dag`` marks plans whose child indices repeat across parents
    (``mesh``): expansion then inlines a shared tier's subtree on first
    visit only and re-visits it as a leaf call.
    """

    groups: Dict[int, List[List[int]]]
    dag: bool = False

    def children(self, idx: int) -> List[int]:
        return [k for group in self.groups.get(idx, []) for k in group]

    def leaves(self, size: int) -> List[int]:
        return [i for i in range(size) if not self.groups.get(i)]


def _chunk(kids: List[int], rng: random.Random, width: int
           ) -> List[List[int]]:
    """Split a child list into serial groups of parallel calls."""
    groups: List[List[int]] = []
    current: List[int] = []
    for kid in kids:
        current.append(kid)
        if len(current) >= width or rng.random() < 0.45:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _plan_chain(size: int, _p: GeneratorParams, _r: random.Random
                ) -> _Plan:
    return _Plan({i: [[i + 1]] for i in range(size - 1)})


def _plan_fanout(size: int, _p: GeneratorParams, _r: random.Random
                 ) -> _Plan:
    return _Plan({0: [list(range(1, size))]})


def _plan_branch(size: int, params: GeneratorParams,
                 _r: random.Random) -> _Plan:
    spine_len = max(2, -(-size // (params.fanout + 1)))
    spine_len = min(spine_len, size)
    groups: Dict[int, List[List[int]]] = {}
    legs: Dict[int, List[int]] = {}
    for idx in range(spine_len, size):
        anchor = (idx - spine_len) % spine_len
        legs.setdefault(anchor, []).append(idx)
    for idx in range(spine_len):
        entry: List[List[int]] = []
        if legs.get(idx):
            entry.append(legs[idx])
        if idx + 1 < spine_len:
            entry.append([idx + 1])
        if entry:
            groups[idx] = entry
    return _Plan(groups)


def _plan_tree(size: int, params: GeneratorParams, _r: random.Random
               ) -> _Plan:
    k = params.fanout
    groups: Dict[int, List[List[int]]] = {}
    for idx in range(size):
        kids = [c for c in range(k * idx + 1, k * idx + k + 1)
                if c < size]
        if kids:
            groups[idx] = [kids]
    return _Plan(groups)


def _plan_mesh(size: int, params: GeneratorParams, rng: random.Random
               ) -> _Plan:
    # Spanning tree first (reachability), then extra low->high edges
    # capped at `fanout` parents per tier; always acyclic.
    parents: Dict[int, List[int]] = {i: [] for i in range(size)}
    for idx in range(1, size):
        parents[idx].append(rng.randrange(0, idx))
    for idx in range(2, size):
        candidates = [j for j in range(idx) if j not in parents[idx]]
        for cand in candidates:
            if len(parents[idx]) >= params.fanout:
                break
            if rng.random() < params.edge_probability:
                parents[idx].append(cand)
    succ: Dict[int, List[int]] = {i: [] for i in range(size)}
    for idx in range(1, size):
        for parent in sorted(parents[idx]):
            succ[parent].append(idx)
    groups = {idx: _chunk(kids, rng, params.fanout)
              for idx, kids in succ.items() if kids}
    return _Plan(groups, dag=True)


_PLANNERS = {
    "chain": _plan_chain,
    "fanout": _plan_fanout,
    "branch": _plan_branch,
    "tree": _plan_tree,
    "ptree": _plan_tree,
    "mesh": _plan_mesh,
}


# ---------------------------------------------------------------------
# realization: plan -> services + call trees -> Application
# ---------------------------------------------------------------------

def _draw_us(rng: random.Random, lo_hi: Tuple[float, float]) -> float:
    return round(rng.uniform(lo_hi[0], lo_hi[1]), 1)


def _services(plan: _Plan, params: GeneratorParams,
              rng: random.Random
              ) -> Tuple[Dict[str, ServiceDefinition], List[str]]:
    """Name and define every tier; returns (defs, index -> name)."""
    names: List[str] = []
    defs: Dict[str, ServiceDefinition] = {}
    leaves = plan.leaves(params.size)
    leaf_flags = {idx: True for idx in leaves}
    datastore_count = 0
    for idx in range(params.size):
        if idx == 0:
            name = "syn-front"
            work = _draw_us(rng, params.logic_work_us) * 0.5
            definition = ServiceDefinition(
                name=name, language="c++", kind=ServiceKind.FRONTEND,
                work_mean=round(work, 1) * 1e-6,
                work_cv=params.work_cv)
        elif leaf_flags.get(idx) and \
                rng.random() < params.datastore_fraction:
            if datastore_count % 2 == 0:
                name = f"syn-cache-{idx:03d}"
                definition = ServiceDefinition(
                    name=name, language="c", kind=ServiceKind.CACHE,
                    work_mean=_draw_us(rng, params.cache_work_us)
                    * 1e-6,
                    work_cv=params.work_cv, freq_sensitivity=0.6)
            else:
                name = f"syn-db-{idx:03d}"
                definition = ServiceDefinition(
                    name=name, language="c++",
                    kind=ServiceKind.DATABASE,
                    work_mean=_draw_us(rng, params.db_work_us) * 1e-6,
                    work_cv=params.work_cv, freq_sensitivity=0.3)
            datastore_count += 1
        else:
            name = f"syn-logic-{idx:03d}"
            definition = ServiceDefinition(
                name=name,
                language=_LOGIC_LANGUAGES[idx % len(_LOGIC_LANGUAGES)],
                kind=ServiceKind.LOGIC,
                work_mean=_draw_us(rng, params.logic_work_us) * 1e-6,
                work_cv=params.work_cv)
        names.append(name)
        defs[name] = definition
    return defs, names


def _build_tree(plan: _Plan, names: List[str],
                params: GeneratorParams, work_scale: float,
                groups_of: Optional[Dict[int, List[List[int]]]] = None
                ) -> CallNode:
    """Expand a plan into a call tree (first-visit-full for DAGs)."""
    groups_of = plan.groups if groups_of is None else groups_of
    visited: Dict[int, bool] = {}

    def build(idx: int) -> CallNode:
        first = idx not in visited
        visited[idx] = True
        groups: List[List[CallNode]] = []
        if first or not plan.dag:
            for group in groups_of.get(idx, []):
                groups.append([build(kid) for kid in group])
        return CallNode(service=names[idx], work_scale=work_scale,
                        request_kb=params.request_kb,
                        response_kb=params.response_kb,
                        groups=groups)

    return build(0)


def _prune(groups_of: Dict[int, List[List[int]]],
           keep_probability: float, rng: random.Random
           ) -> Dict[int, List[List[int]]]:
    """Drop child edges independently; empty groups vanish."""
    pruned: Dict[int, List[List[int]]] = {}
    for idx in sorted(groups_of):
        new_groups = []
        for group in groups_of[idx]:
            kept = [kid for kid in group
                    if rng.random() < keep_probability]
            if kept:
                new_groups.append(kept)
        if new_groups:
            pruned[idx] = new_groups
    return pruned


def _operations(plan: _Plan, names: List[str],
                params: GeneratorParams, rng: random.Random
                ) -> Dict[str, Operation]:
    prefix = params.pattern
    ops: Dict[str, Operation] = {}
    if params.pattern == "ptree":
        # The full tree anchors reachability; sampled prunings realize
        # the probabilistic fan-out through the operation mix.
        full = _build_tree(plan, names, params, 1.0)
        ops[f"{prefix}-full"] = Operation(
            name=f"{prefix}-full", root=full, weight=4.0,
            criticality=CRIT_DEGRADABLE)
        crits = (CRIT_CRITICAL, CRIT_SHEDDABLE, CRIT_DEGRADABLE)
        for variant in range(params.variants):
            sub = _prune(plan.groups, params.edge_probability, rng)
            weight = round(rng.uniform(1.0, 3.0), 1)
            name = f"{prefix}-variant{variant}"
            ops[name] = Operation(
                name=name,
                root=_build_tree(plan, names, params, 1.0,
                                 groups_of=sub),
                weight=weight, criticality=crits[variant % 3])
        return ops
    read = _build_tree(plan, names, params, 1.0)
    write = _build_tree(plan, names, params, 1.4)
    first_child = plan.groups[0][0][0] if plan.groups.get(0) else None
    probe_groups = {0: [[first_child]]} if first_child is not None \
        else {}
    probe = _build_tree(plan, names, params, 0.6,
                        groups_of=probe_groups)
    ops[f"{prefix}-read"] = Operation(
        name=f"{prefix}-read", root=read, weight=6.0,
        criticality=CRIT_DEGRADABLE)
    ops[f"{prefix}-write"] = Operation(
        name=f"{prefix}-write", root=write, weight=3.0,
        criticality=CRIT_CRITICAL)
    ops[f"{prefix}-probe"] = Operation(
        name=f"{prefix}-probe", root=probe, weight=1.0,
        criticality=CRIT_SHEDDABLE)
    return ops


def _degradation(defs: Dict[str, ServiceDefinition]
                 ) -> Dict[str, DegradationPolicy]:
    policies: Dict[str, DegradationPolicy] = {}
    logic_leaf: Optional[str] = None
    for name in sorted(defs):
        if defs[name].kind == ServiceKind.CACHE:
            policies[name] = DegradationPolicy(
                service=name, fallback=FALLBACK_STALE_CACHE,
                fidelity_cost=0.05)
        elif defs[name].kind == ServiceKind.LOGIC:
            logic_leaf = name
    if logic_leaf is not None:
        policies[logic_leaf] = DegradationPolicy(
            service=logic_leaf, optional=True, drop_level=1,
            fallback=FALLBACK_DEFAULT, fidelity_cost=0.15)
    return dict(sorted(policies.items()))


def _qos(defs: Dict[str, ServiceDefinition],
         ops: Dict[str, Operation]) -> float:
    worst_work = max(
        sum(defs[node.service].work_mean * node.work_scale
            for node in op.root.walk())
        for op in ops.values())
    worst_calls = max(op.root.call_count() for op in ops.values())
    return round(max(0.05, 6.0 * worst_work + 3e-4 * worst_calls), 6)


def generate(params: GeneratorParams,
             validate: bool = True) -> Application:
    """Build one application from a parameter set, deterministically.

    Raises :class:`~repro.analysis_static.topology.TopologyError` with
    ``SYN001`` findings for out-of-envelope parameters, and (when
    ``validate``) with ``TOPO``/``DEG`` findings if the generated graph
    somehow fails registration-time validation — which would be a
    generator bug, not a caller error.
    """
    errors = [f for f in check_generator_params(params,
                                                path=params.name)
              if f.severity == Severity.ERROR]
    if errors:
        raise TopologyError(params.name, errors)
    rng = random.Random(_derive_seed(
        params.seed, f"synth.{params.pattern}.n{params.size}"))
    plan = _PLANNERS[params.pattern](params.size, params, rng)
    defs, names = _services(plan, params, rng)
    ops = _operations(plan, names, params, rng)
    app = Application(
        name=params.name,
        services=defs,
        operations=ops,
        protocol=params.protocol,
        qos_latency=_qos(defs, ops),
        entry_service=names[0],
        degradation_policies=_degradation(defs),
        metadata={
            "generator": "repro.apps.synth",
            "synth": {
                "pattern": params.pattern, "size": params.size,
                "seed": params.seed, "fanout": params.fanout,
                "edge_probability": params.edge_probability,
                "datastore_fraction": params.datastore_fraction,
            },
        },
    )
    if validate:
        problems = [f for f in validate_app(app)
                    if f.severity == Severity.ERROR]
        if problems:
            raise TopologyError(params.name, problems)
    return app


# ---------------------------------------------------------------------
# canonical serialization (determinism tests and artifacts key off it)
# ---------------------------------------------------------------------

def _tree_dict(node: CallNode) -> dict:
    return {
        "service": node.service,
        "work_scale": round(node.work_scale, 6),
        "request_kb": round(node.request_kb, 6),
        "response_kb": round(node.response_kb, 6),
        "groups": [[_tree_dict(child) for child in group]
                   for group in node.groups],
    }


def topology_json(app: Application, indent: Optional[int] = 2) -> str:
    """Canonical, byte-stable JSON form of any application's topology.

    Same (pattern, size, seed) => byte-identical output; the clone
    cross-validation and CI determinism gates compare these bytes.
    """
    payload = {
        "name": app.name,
        "protocol": app.protocol,
        "qos_latency_us": round(app.qos_latency * 1e6, 1),
        "entry_service": app.entry_service,
        "services": [
            {
                "name": name,
                "kind": svc.kind,
                "language": svc.language,
                "work_us": round(svc.work_mean * 1e6, 3),
                "work_cv": round(svc.work_cv, 4),
                "max_workers": svc.max_workers,
            }
            for name, svc in sorted(app.services.items())
        ],
        "operations": [
            {
                "name": name,
                "weight": round(op.weight, 4),
                "criticality": op.criticality,
                "tree": _tree_dict(op.root),
            }
            for name, op in sorted(app.operations.items())
        ],
        "degradation_policies": [
            {
                "service": pol.service,
                "optional": pol.optional,
                "drop_level": pol.drop_level,
                "fallback": pol.fallback,
                "fidelity_cost": round(pol.fidelity_cost, 4),
                "fanout_keep": pol.fanout_keep,
            }
            for _, pol in sorted(app.degradation_policies.items())
        ],
        "sharded_services": sorted(app.sharded_services),
    }
    return json.dumps(payload, indent=indent, sort_keys=True)

"""The degradation vocabulary: criticality classes, fallbacks, and the
per-service :class:`DegradationPolicy`.

These are declarations an application makes about itself (see
:mod:`repro.resilience.degrade` for the brownout controller that acts
on them).  They live in this leaf module so that defining or building
an application does not load the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CRIT_CRITICAL",
    "CRIT_DEGRADABLE",
    "CRIT_SHEDDABLE",
    "CRITICALITIES",
    "FALLBACK_DEFAULT",
    "FALLBACK_STALE_CACHE",
    "FALLBACKS",
    "DegradationPolicy",
]

#: Must complete at full fidelity whenever possible (writes, logins).
CRIT_CRITICAL = "critical"
#: Tolerates reduced fidelity (reads that can lose optional content).
CRIT_DEGRADABLE = "degradable"
#: First against the wall under overload (search, analytics).
CRIT_SHEDDABLE = "sheddable"

#: Ordered most- to least-protected; the brownout controller degrades
#: right-to-left ("shed sheddable first, critical last").
CRITICALITIES = (CRIT_CRITICAL, CRIT_DEGRADABLE, CRIT_SHEDDABLE)

#: Serve a canned default payload (empty recommendations, placeholder).
FALLBACK_DEFAULT = "default"
#: Serve the last cached value — composing with the region layer's
#: staleness accounting (a stale answer, honestly labelled).
FALLBACK_STALE_CACHE = "stale_cache"

FALLBACKS = (FALLBACK_DEFAULT, FALLBACK_STALE_CACHE)


@dataclass(frozen=True)
class DegradationPolicy:
    """What one callee service is allowed to sacrifice."""

    #: The callee service this policy governs.
    service: str
    #: The subtree rooted at this service may be dropped entirely once
    #: the request class's degradation level reaches ``drop_level``.
    optional: bool = False
    #: Class-effective level at/above which the optional subtree goes.
    drop_level: int = 1
    #: Served instead of a terminal failure (timeout / error / open
    #: breaker): ``"default"`` or ``"stale_cache"``; ``None`` = fail.
    fallback: Optional[str] = None
    #: Fidelity lost per degradation event on this edge.
    fidelity_cost: float = 0.1
    #: Declares this edge load-bearing: linting (DEG002) rejects a
    #: topology that nests it inside any droppable subtree.
    never_drop: bool = False
    #: For shardable parallel reads: minimum shards to keep once the
    #: class-effective level reaches ``fanout_level``.
    fanout_keep: Optional[int] = None
    #: Class-effective level at/above which fan-out reduction applies.
    fanout_level: int = 2

    def __post_init__(self) -> None:
        if not self.service:
            raise ValueError("policy needs a callee service name")
        if self.fallback is not None and self.fallback not in FALLBACKS:
            raise ValueError(
                f"unknown fallback {self.fallback!r} "
                f"(choose from: {', '.join(FALLBACKS)})")
        if not 0.0 <= self.fidelity_cost <= 1.0:
            raise ValueError("fidelity_cost must be in [0, 1]")
        if self.drop_level < 1:
            raise ValueError("drop_level must be >= 1")
        if self.fanout_keep is not None and self.fanout_keep < 1:
            raise ValueError("fanout_keep must be >= 1")
        if self.fanout_level < 1:
            raise ValueError("fanout_level must be >= 1")
        if self.never_drop and self.optional:
            raise ValueError(
                f"{self.service!r} cannot be both optional and "
                "never_drop")

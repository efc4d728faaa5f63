"""Retry/timeout/deadline policy and the retry-budget throttle.

A :class:`ResiliencePolicy` describes how *callers of one service*
handle that service's RPCs: how long to wait per attempt, how many
times to retry, how to space the retries (exponential backoff with
jitter), whether retries draw from a shared per-service budget, and
what end-to-end deadline requests entering the graph through this
service receive.

The :class:`RetryBudget` implements the gRPC/Finagle-style throttle:
first attempts deposit a fraction of a token, retries withdraw a whole
one, so sustained retry traffic is capped at ``ratio`` of the offered
load.  Without it, a saturated tier whose callers each retry ``k``
times sees its queue grow ``k+1`` times faster than its capacity — the
textbook retry storm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .breaker import BreakerConfig

__all__ = ["ResiliencePolicy", "RetryBudget"]


class RetryBudget:
    """Token-bucket throttle on retries, shared per callee service."""

    def __init__(self, ratio: float = 0.2, min_tokens: float = 10.0):
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if min_tokens < 1:
            raise ValueError("min_tokens must be >= 1")
        self.ratio = ratio
        #: Cap on accumulated credit so a long quiet period cannot bank
        #: an unbounded retry burst.
        self.max_tokens = max(min_tokens, 100.0 * max(ratio, 0.01))
        self._tokens = min_tokens
        self.deposits = 0
        self.withdrawals = 0
        self.rejections = 0

    @property
    def tokens(self) -> float:
        """Current retry credit."""
        return self._tokens

    def on_request(self) -> None:
        """Record one first attempt (deposits ``ratio`` of a token)."""
        self.deposits += 1
        self._tokens = min(self.max_tokens, self._tokens + self.ratio)

    def try_retry(self) -> bool:
        """Withdraw one token for a retry, or refuse."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.withdrawals += 1
            return True
        self.rejections += 1
        return False


@dataclass
class ResiliencePolicy:
    """How callers treat RPCs to one service."""

    #: Per-attempt timeout in seconds; ``None`` waits forever.  A timed
    #: out attempt is *abandoned*, not cancelled: the server keeps
    #: computing unless deadline propagation stops it — exactly the
    #: wasted work that fuels metastable failure.
    rpc_timeout: Optional[float] = None
    #: Retries after the first attempt (0 = fail on first error).
    max_retries: int = 0
    #: First backoff in seconds (0 = retry immediately).
    backoff_base: float = 0.0
    #: Growth factor between consecutive backoffs.
    backoff_multiplier: float = 2.0
    #: Fraction of each backoff randomized (0 = deterministic, 1 =
    #: anywhere in [0, 2*delay]) to decorrelate synchronized retries.
    backoff_jitter: float = 0.5
    #: Sustained retry traffic allowed as a fraction of first attempts;
    #: ``None`` disables the budget (naive, storm-prone retries).
    retry_budget_ratio: Optional[float] = None
    #: End-to-end deadline (seconds) stamped on requests that *enter*
    #: the graph at a service using this policy; ``None`` = no deadline.
    deadline: Optional[float] = None
    #: Propagate the deadline downstream so blown requests stop
    #: consuming CPU at every tier.
    propagate_deadline: bool = True
    #: Circuit-breaker configuration for edges into this service;
    #: ``None`` disables breaking.
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self):
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.retry_budget_ratio is not None \
                and self.retry_budget_ratio < 0:
            raise ValueError("retry_budget_ratio must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0")

    def backoff_delay(self, retry_number: int, rng=None) -> float:
        """Backoff before retry ``retry_number`` (1-based), jittered."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base \
            * self.backoff_multiplier ** (retry_number - 1)
        if self.backoff_jitter > 0 and rng is not None:
            span = self.backoff_jitter * delay
            delay = rng.uniform("resilience.backoff",
                                delay - span, delay + span)
        return delay

    def make_budget(self) -> Optional[RetryBudget]:
        """A fresh budget per this policy (one per callee service)."""
        if self.retry_budget_ratio is None:
            return None
        return RetryBudget(ratio=self.retry_budget_ratio)

    # -- static-analysis helpers (repro.analysis_static.flow) ------------
    def sustained_attempts(self) -> float:
        """Attempts per first attempt sustainable in steady state.

        The token-bucket budget caps sustained retry traffic at
        ``retry_budget_ratio`` of the offered load; without a budget
        every configured retry goes through — the amplification factor
        the CAP003 capacity check charges against each tier.
        """
        if self.retry_budget_ratio is None:
            return 1.0 + self.max_retries
        return 1.0 + min(float(self.max_retries), self.retry_budget_ratio)

    def min_schedule_time(self) -> Optional[float]:
        """Fastest wall-clock a full failing retry schedule can burn.

        Every attempt times out after ``rpc_timeout`` and each retry
        waits its minimum (jitter-low) backoff first.  ``None`` when no
        per-attempt timeout is set: a single hung attempt already waits
        forever, so no finite schedule bound exists.
        """
        if self.rpc_timeout is None:
            return None
        total = self.rpc_timeout * (1 + self.max_retries)
        for retry in range(1, self.max_retries + 1):
            delay = self.backoff_base \
                * self.backoff_multiplier ** (retry - 1)
            total += delay * (1.0 - self.backoff_jitter)
        return total

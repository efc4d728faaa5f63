"""Open-loop workload generation.

The paper stresses *open-loop* load (Sec. 1, 3.7): requests arrive on
their own schedule regardless of completions, so a saturated service
accumulates queueing instead of throttling the client — the property
that makes saturation visible as unbounded tail-latency growth.

:class:`OpenLoopGenerator` drives a deployment with a non-homogeneous
Poisson process whose rate follows a pattern function, samples the
operation mix, attributes each request to a (possibly skewed) user, and
optionally drops requests at a token-bucket rate limiter.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from ..cluster.ratelimit import TokenBucket
from ..core.deployment import Deployment
from ..sim.rng import RandomStreams
from .users import UserPopulation

__all__ = ["OpenLoopGenerator"]

RateFn = Callable[[float], float]

#: Overload guard: arrivals beyond this many in-flight requests are
#: shed, or a hopelessly saturated system would accumulate unbounded
#: simulation state.
MAX_IN_FLIGHT = 20000


class OpenLoopGenerator:
    """Poisson arrivals over an operation mix against one deployment."""

    def __init__(self, deployment: Deployment, rate_fn: RateFn,
                 mix: Optional[Mapping[str, float]] = None,
                 users: Optional[UserPopulation] = None,
                 rate_limiter: Optional[TokenBucket] = None,
                 seed: int = 1,
                 hedge_after: Optional[float] = None):
        self.deployment = deployment
        self.env = deployment.env
        self.rate_fn = rate_fn
        raw_mix = dict(mix) if mix is not None \
            else deployment.app.default_mix()
        total = sum(raw_mix.values())
        if total <= 0:
            raise ValueError("mix weights must sum to > 0")
        self.mix: Dict[str, float] = {k: v / total for k, v in raw_mix.items()}
        for op in self.mix:
            if op not in deployment.app.operations:
                raise ValueError(f"unknown operation {op!r} in mix")
        self.users = users
        self.rate_limiter = rate_limiter
        self.rng = RandomStreams(seed)
        #: Tail-at-scale countermeasure (Dean & Barroso): if set, a
        #: duplicate request is issued after ``hedge_after`` seconds
        #: and the first completion wins; the client-visible latency is
        #: the minimum of the two.  The winning attempt's trace lands in
        #: the deployment collector like any other completion, with the
        #: hedged client latency substituted in.
        self.hedge_after = hedge_after
        if hedge_after is not None and hedge_after <= 0:
            raise ValueError("hedge_after must be > 0")
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.issued = 0
        self.dropped = 0
        self.shed = 0
        self.in_flight = 0
        self._process = None

    def start(self, duration: float) -> None:
        """Begin generating arrivals for ``duration`` seconds."""
        if self._process is not None:
            raise RuntimeError("generator already started")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        self._process = self.env.process(self._arrivals(duration),
                                         name="workload")

    def _next_operation(self) -> str:
        ops = list(self.mix.keys())
        weights = [self.mix[o] for o in ops]
        return self.rng.choice_weighted("gen.mix", ops, weights)

    def _arrivals(self, duration: float):
        stop = self.env.now + duration
        while self.env.now < stop:
            rate = self.rate_fn(self.env.now)
            if rate <= 0:
                raise ValueError(f"rate function returned {rate}")
            yield self.env.timeout(
                self.rng.exponential("gen.arrivals", 1.0 / rate))
            if self.env.now >= stop:
                break
            if self.rate_limiter is not None and not self.rate_limiter.allow():
                self.dropped += 1
                continue
            if self.in_flight >= MAX_IN_FLIGHT:
                self.shed += 1
                continue
            user = self.users.next_user() if self.users is not None else None
            op = self._next_operation()
            self.issued += 1
            self.in_flight += 1
            if self.hedge_after is not None:
                self.env.process(self._hedged(op, user),
                                 name="hedged-request")
            else:
                proc = self.deployment.execute(op, user=user)
                proc.callbacks.append(self._finished)

    def _hedged(self, op: str, user):
        """Issue the request; duplicate it if it outlives the hedge
        delay; collect only the first completion, under the client
        latency (which starts at the *primary* send)."""
        start = self.env.now
        primary = self.deployment.execute(op, user=user, collect=False)
        timer = self.env.timeout(self.hedge_after)
        yield self.env.any_of([primary, timer])
        winner = primary
        if not primary.processed:
            self.hedges_issued += 1
            backup = self.deployment.execute(op, user=user, collect=False)
            yield self.env.any_of([primary, backup])
            if not primary.processed:
                self.hedge_wins += 1
                winner = backup
        self.deployment.collector.collect(
            winner.value, latency_override=self.env.now - start)
        self.in_flight -= 1

    def _finished(self, event) -> None:
        self.in_flight -= 1

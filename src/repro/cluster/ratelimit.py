"""Token-bucket admission control.

Section 8 recovers the large-scale Social Network deployment from a
cascading hotspot by rate limiting: "constrains the admitted user
traffic until current hotspots dissipate ... it affects user experience
by dropping a fraction of requests."
"""

from __future__ import annotations

from ..sim.engine import Environment

__all__ = ["TokenBucket"]


class TokenBucket:
    """A classic token bucket evaluated lazily on each admission check."""

    def __init__(self, env: Environment, rate_per_s: float,
                 burst: float = 10.0):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.env = env
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last = env.now
        self.admitted = 0
        self.dropped = 0
        self.enabled = True

    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate_per_s)
        self._last = now

    def set_rate(self, rate_per_s: float) -> None:
        """Adjust the admitted rate (tightened during incident recovery)."""
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        self._refill()
        self.rate_per_s = rate_per_s

    def allow(self) -> bool:
        """Admit or drop one request."""
        if not self.enabled:
            self.admitted += 1
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.dropped += 1
        return False

    @property
    def drop_fraction(self) -> float:
        """Share of checked requests that were dropped."""
        total = self.admitted + self.dropped
        return self.dropped / total if total else 0.0

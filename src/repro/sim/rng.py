"""Deterministic random-number streams and workload distributions.

Every stochastic component in the simulator draws from a *named stream*
derived from a single experiment seed, so runs are reproducible and
perturbing one component (say, the workload arrival process) does not
shift the draws of another (per-service compute times) — the classic
common-random-numbers discipline for fair A/B comparisons between
deployments.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, List, Sequence

__all__ = ["RandomStreams", "ZipfSampler"]


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _constant(mean: float) -> float:
    """The zero-cv lognormal draw: the mean itself, drawing nothing."""
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    return mean


class ZipfSampler:
    """Sample ranks 1..n with probability proportional to ``1/rank**s``.

    Used for user-popularity skew (Sec. 8): a small ``s`` is near-uniform,
    large ``s`` concentrates load on a few hot users/keys.  Sampling is
    O(log n) by bisecting the precomputed CDF.
    """

    def __init__(self, n: int, s: float, rng: random.Random):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.n = n
        self.s = s
        self._rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self) -> int:
        """Return a rank in ``[0, n)`` (0 is the most popular)."""
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def probability(self, rank: int) -> float:
        """Probability mass of ``rank`` (0-based)."""
        if rank == 0:
            return self._cdf[0]
        return self._cdf[rank] - self._cdf[rank - 1]


class RandomStreams:
    """A registry of independent named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.seed, name))
            self._streams[name] = rng
        return rng

    # -- distribution helpers -------------------------------------------
    def exponential(self, name: str, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Lognormal variate parameterized by mean and coefficient of
        variation — the natural fit for service-time distributions, which
        are right-skewed but not heavy-tailed."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if cv <= 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return self.stream(name).lognormvariate(mu, math.sqrt(sigma2))

    def lognormal_handle(self, name: str,
                         cv: float) -> Callable[[float], float]:
        """``draw(mean)`` on the stream called ``name``, bit-identical
        to ``lognormal(name, mean, cv)``: the stream and the cv-derived
        constants are resolved once here, and only the mean is read per
        draw.  For hot callers that draw from one stream repeatedly.

        ``draw`` inlines ``Random.lognormvariate``: the Kinderman-Monahan
        ratio-of-uniforms loop of ``normalvariate`` and the final
        ``exp``, with the same ``random()`` calls and float operations
        in the same order."""
        if cv <= 0:
            return _constant
        sigma2 = math.log(1.0 + cv * cv)
        half, sigma = sigma2 / 2.0, math.sqrt(sigma2)
        uniform, log, exp = self.stream(name).random, math.log, math.exp
        magic = random.NV_MAGICCONST

        def draw(mean: float) -> float:
            if mean <= 0:
                raise ValueError(f"mean must be > 0, got {mean}")
            mu = log(mean) - half
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    return exp(mu + z * sigma)
        return draw

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Uniform variate on ``[lo, hi]``."""
        return self.stream(name).uniform(lo, hi)

    def choice_weighted(self, name: str, options: Sequence,
                        weights: Sequence[float]):
        """Pick one of ``options`` with the given relative weights."""
        return self.stream(name).choices(list(options), weights=list(weights))[0]

    def zipf(self, name: str, n: int, s: float) -> ZipfSampler:
        """Build a :class:`ZipfSampler` backed by the named stream."""
        return ZipfSampler(n, s, self.stream(name))

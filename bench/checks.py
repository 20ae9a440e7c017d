"""Independent references that the benchmark checks udec's outputs against.

Everything here is computed from the workload's parameters alone, never by
calling the package, and outside the timed region.

For a binary additive decoder, the score of a candidate word depends only on
its joint type with the output y: (a11, a10), the number of positions with
x=1 on y=1 and x=1 on y=0.  So every error functional of a codebook with
uniform (or pairwise independent uniform) codewords over a binary symmetric
channel is a finite sum over joint types, weighted by exact integer class
sizes.  Ties count as errors, as the audits define them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: false-alarm probability of each Monte Carlo consistency check; a run of
#: the benchmark makes thousands of them
DELTA = 1e-6


@dataclass(frozen=True)
class _OutputClass:
    """All joint types sharing one output weight ny."""

    counts: list  # exact class sizes C(ny, a11) * C(n - ny, a10)
    a11: np.ndarray
    a10: np.ndarray
    weight: np.ndarray  # probability of drawing a pair of this joint type


class BinaryTypeSums:
    """Competitor masses q(x, y) = Pr[a uniform word scores >= x against y]
    for each decoder, tabulated over joint types at block length n, with
    uniform inputs and a BSC(p)."""

    def __init__(self, n: int, p: float, decoders: dict):
        self.n = n
        self.classes = []
        for ny in range(n + 1):
            a11 = np.repeat(np.arange(ny + 1), n - ny + 1)
            a10 = np.tile(np.arange(n - ny + 1), ny + 1)
            counts = [
                math.comb(ny, i) * math.comb(n - ny, j)
                for i, j in zip(a11.tolist(), a10.tolist())
            ]
            flips = (ny - a11) + a10
            log_w = (
                math.log(math.comb(n, ny))
                + np.log(np.array(counts, dtype=float))
                - n * math.log(2.0)
                + flips * math.log(p)
                + (n - flips) * math.log1p(-p)
            )
            self.classes.append(_OutputClass(counts, a11, a10, np.exp(log_w)))
        self.q = {name: self._masses(score) for name, score in decoders.items()}

    def _masses(self, score):
        out = []
        total = 2**self.n
        for ny, cls in enumerate(self.classes):
            scores = [
                score(self.n, ny, i, j)
                for i, j in zip(cls.a11.tolist(), cls.a10.tolist())
            ]
            order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
            q = np.empty(len(scores))
            cum = 0
            for _, group in itertools.groupby(order, key=scores.__getitem__):
                group = list(group)
                cum += sum(cls.counts[g] for g in group)
                q[group] = cum / total
            out.append(q)
        return out

    def _expect(self, name, f) -> float:
        return math.fsum(
            float(np.dot(cls.weight, f(q))) for cls, q in zip(self.classes, self.q[name])
        )

    def error_probability(self, name: str, m: int) -> float:
        """E[1 - (1 - q)^(M-1)]: error of the decoder with M independent
        uniform codewords, ties counted as errors."""
        return self._expect(name, lambda q: _conditional_error(q, m))

    def clipped_union(self, name: str, factor: float) -> float:
        """E[min(1, factor * q)]."""
        return self._expect(name, lambda q: np.minimum(1.0, factor * q))


def _conditional_error(q: np.ndarray, m: int) -> np.ndarray:
    out = np.ones_like(q)
    below = q < 1.0
    out[below] = -np.expm1((m - 1) * np.log1p(-q[below]))
    return out


def universal_score(n, ny, a11, a10):
    """Class-mass score: smaller class, higher score (exact integers)."""
    return -math.comb(ny, a11) * math.comb(n - ny, a10)


def additive_score(theta):
    """Exact score of an additive metric as an integer multiple of a common
    power of two, so that ties are found exactly."""
    ratios = [float(v).as_integer_ratio() for row in theta for v in row]
    den = max(d for _, d in ratios)
    t00, t01, t10, t11 = (num * (den // d) for num, d in ratios)

    def score(n, ny, a11, a10):
        a01 = ny - a11
        a00 = n - ny - a10
        return t00 * a00 + t01 * a01 + t10 * a10 + t11 * a11

    return score


def bernstein_halfwidth(mu: float, trials: int, delta: float = DELTA) -> float:
    """Two-sided deviation bound for the mean of `trials` independent values
    in [0, 1] with mean mu (variance at most mu(1-mu)), at level delta."""
    log_term = math.log(2.0 / delta)
    var = mu * (1.0 - mu)
    return (log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * trials * var * log_term)) / trials


def binom_cdf(k: int, trials: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(trials, p)."""
    if k < 0:
        return 0.0
    if k >= trials or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)
    return min(1.0, math.fsum(
        math.exp(base - math.lgamma(i + 1) - math.lgamma(trials - i + 1) + i * lp + (trials - i) * lq)
        for i in range(k + 1)
    ))


def binomial_consistent(errors: int, trials: int, lo: float, hi: float, delta: float = DELTA) -> bool:
    """Exact binomial test: False when `errors` is implausible at level delta
    for every error probability in [lo, hi]."""
    too_many = 1.0 - binom_cdf(errors - 1, trials, hi) < delta / 2
    too_few = binom_cdf(errors, trials, lo) < delta / 2
    return not (too_many or too_few)


def clopper_pearson(errors: int, trials: int, delta: float = DELTA) -> tuple[float, float]:
    """Exact confidence interval at level 1 - delta for a binomial proportion."""

    def boundary(below):  # largest p at which below(p) still holds
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return lo

    lower = 0.0 if errors == 0 else boundary(
        lambda p: 1.0 - binom_cdf(errors - 1, trials, p) < delta / 2
    )
    upper = 1.0 if errors == trials else boundary(
        lambda p: binom_cdf(errors, trials, p) >= delta / 2
    )
    return lower, upper


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))

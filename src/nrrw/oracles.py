"""Closed-form reference results and small auxiliary processes.

Everything here is either an exact rational formula, a provably bounded
numerical evaluation, or a direct simulation of one of the two toy processes
(the growing star and the biased lazy walk) used as ground truth by the
verification suites. All functions are pure apart from an explicit rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import PrngStream

NON_ROOT = "non-root"
ROOT_VARIANT = "root"

# Euler-Mascheroni constant, used by the asymptotic harmonic evaluation.
_EULER_GAMMA = 0.5772156649015328606


def _require_even(s: int):
    if s < 2 or s % 2 != 0:
        raise ValueError(f"step parameter must be even and >= 2, got {s}")


# ---------------------------------------------------------------------------
# Parent-hitting time T

def t_pmf_exact(s: int, k: int) -> Fraction:
    """P(T = 2k+1) as an exact rational.

    T is the time until the walker, sitting on a degree-2 vertex that just
    received its first leaf, first steps onto that vertex's parent. Writing
    k = q*(s/2) + r with 0 <= r < s/2, the mass is
    (1/(q+1))^(s/2) * ((q+1)/(q+2))^r * 1/(q+2).
    """
    _require_even(s)
    if k < 0:
        raise ValueError("k must be nonnegative")
    q, r = divmod(k, s // 2)
    return (Fraction(1, q + 1) ** (s // 2)
            * Fraction(q + 1, q + 2) ** r
            * Fraction(1, q + 2))


def t_pmf(s: int, k: int) -> float:
    return float(t_pmf_exact(s, k))


def t_ccdf_exact(s: int, k: int) -> Fraction:
    """P(T >= 2k+1) as an exact rational."""
    _require_even(s)
    if k < 0:
        raise ValueError("k must be nonnegative")
    q, r = divmod(k, s // 2)
    return Fraction(1, q + 1) ** (s // 2) * Fraction(q + 1, q + 2) ** r


def t_ccdf(s: int, k: int) -> float:
    return float(t_ccdf_exact(s, k))


def zeta(a: int, tol: float = 1e-12) -> float:
    """Riemann zeta at integer a >= 2 by partial sum plus integral tail.

    The tail past M is M^(1-a)/(a-1) - M^(-a)/2 + err with
    |err| <= a * M^(-a-1) / 12 (Euler-Maclaurin), so M is chosen to push the
    bound below ``tol``.
    """
    if a < 2:
        raise ValueError("zeta(a) requires a >= 2")
    m_terms = max(100, math.ceil((a / (12.0 * tol)) ** (1.0 / (a + 1))))
    grid = np.arange(1, m_terms + 1, dtype=np.float64)
    partial = float(np.sum(grid ** (-float(a))))
    tail = m_terms ** (1 - a) / (a - 1) - 0.5 * m_terms ** (-a)
    return partial + tail


def t_expectation(s: int) -> float:
    """E(T) = 1 + 2*zeta(s/2); +inf for s = 2."""
    _require_even(s)
    if s == 2:
        return math.inf
    return 1.0 + 2.0 * zeta(s // 2)


def generalized_harmonic(m: int, a: int) -> float:
    """Sum of n^-a for n = 1..m.

    Direct summation up to 10^7 terms; beyond that (only ever needed for
    a = 1) the classic asymptotic ln m + gamma + 1/(2m) - 1/(12m^2) applies,
    with error below m^-4.
    """
    if m <= 10**7:
        grid = np.arange(1, m + 1, dtype=np.float64)
        return float(np.sum(grid ** (-float(a))))
    if a != 1:
        return zeta(a) - (m ** (1 - a) / (a - 1) - 0.5 * m ** (-a))
    return math.log(m) + _EULER_GAMMA + 1.0 / (2 * m) - 1.0 / (12 * m * m)


def t_mean_partial_sum(s: int, blocks: int) -> float:
    """Partial sum of (2k+1) * P(T = 2k+1) over the first ``blocks`` full
    ccdf blocks, i.e. k < blocks * s/2.

    Evaluated in closed form: with a = s/2 and M = blocks,
        sum = 2 * (1 + H_M^(a) - (M+1)^(1-a)) - 1 - (2*M*a - 1) * c
    where c = P(T >= 2*M*a + 1) = (M+1)^(-a). The inner geometric sums per
    block telescope exactly, so this equals the term-by-term partial sum
    (verified against direct and rational summation in the tests). The closed
    form makes astronomically long partial sums (needed to exhibit the s = 2
    divergence) tractable.
    """
    _require_even(s)
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    a = s // 2
    big_k = blocks * a  # first k outside the partial sum
    ccdf_boundary = float(blocks + 1) ** (-a)
    harmonic = generalized_harmonic(blocks, a)
    ccdf_partial = 1.0 + harmonic - float(blocks + 1) ** (1 - a)
    return 2.0 * ccdf_partial - 1.0 - (2 * big_k - 1) * ccdf_boundary


def t_mean_partial_sum_exact(s: int, blocks: int) -> Fraction:
    """Rational term-by-term evaluation of the same partial sum (slow)."""
    _require_even(s)
    total = Fraction(0)
    for k in range(blocks * (s // 2)):
        total += (2 * k + 1) * t_pmf_exact(s, k)
    return total


def leaf_fraction_lower_bound(s: int) -> float:
    """Asymptotic lower bound 1 - 1/E(T) for the leaf fraction; 1 for s=2."""
    _require_even(s)
    if s == 2:
        return 1.0
    return 1.0 - 1.0 / t_expectation(s)


# ---------------------------------------------------------------------------
# Star process

@dataclass(frozen=True)
class StarProcessSpec:
    """The auxiliary star-growing process.

    A center vertex starts with one leaf and a parent edge (weight 1 for the
    ``non-root`` variant, 2 for the ``root`` variant, mirroring the root's
    self-loop). The walker starts on the center; whenever it picks the parent
    edge the process stops. Every ``step_parameter`` steps a new leaf joins
    the center.
    """

    step_parameter: int
    variant: str = NON_ROOT
    max_time: int = 10**6

    def __post_init__(self):
        _require_even(self.step_parameter)
        if self.variant not in (NON_ROOT, ROOT_VARIANT):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def parent_weight(self) -> int:
        return 1 if self.variant == NON_ROOT else 2


def star_tail_exact(s: int, k: int, variant: str = NON_ROOT) -> Fraction:
    """Exact survival probabilities of the star process.

    non-root: P(center degree >= k+1) = (1/k)^(s/2)
    root:     P(center degree >= k+2) = (2/(k(k+1)))^(s/2)
    """
    _require_even(s)
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant == NON_ROOT:
        return Fraction(1, k) ** (s // 2)
    if variant == ROOT_VARIANT:
        return Fraction(2, k * (k + 1)) ** (s // 2)
    raise ValueError(f"unknown variant {variant!r}")


def star_tail(s: int, k: int, variant: str = NON_ROOT) -> float:
    return float(star_tail_exact(s, k, variant))


def star_tail_enumerated(s: int, k: int, variant: str = NON_ROOT) -> Fraction:
    """Brute-force check of ``star_tail`` by outcome-tree enumeration.

    Walks every possible trajectory of the star process for the first
    s*(k-1) steps, resolving each step as a uniform choice over incident
    edge endpoints (each leaf separately, the parent edge with its weight),
    and sums the probability that the parent edge was never taken. Exponential
    in s*(k-1); intended for tiny parameters only.
    """
    _require_even(s)
    if k < 1:
        raise ValueError("k must be >= 1")
    w = StarProcessSpec(s, variant).parent_weight
    horizon = s * (k - 1)

    def survive(t: int, at_center: bool, leaves: int, prob: Fraction) -> Fraction:
        if t == horizon:
            return prob
        if at_center:
            deg = leaves + w
            total = Fraction(0)
            # stepping to any individual leaf keeps the process alive
            for leaf in range(leaves):
                total += step_after(t + 1, False, leaves, prob / deg)
            # the w parent endpoints stop the process: contribute nothing
            return total
        return step_after(t + 1, True, leaves, prob)

    def step_after(t: int, at_center: bool, leaves: int, prob: Fraction) -> Fraction:
        if t % s == 0:
            leaves += 1
        return survive(t, at_center, leaves, prob)

    return survive(0, True, 1, Fraction(1))


@dataclass(frozen=True)
class StarRunResult:
    stop_time: Optional[int]  # None if censored at max_time
    center_degree: int
    leaves: int


def simulate_star(spec: StarProcessSpec, rng: PrngStream) -> StarRunResult:
    """One exact trajectory of the star process.

    Returns the parent-hitting time (odd, or None if the run hit ``max_time``
    first) and the center's final degree including the parent edge weight.
    """
    w = spec.parent_weight
    s = spec.step_parameter
    leaves = 1
    at_center = True
    t = 0
    stop: Optional[int] = None
    while t < spec.max_time:
        t += 1
        if at_center:
            i = rng.randbelow(leaves + w)
            if i < w:
                stop = t
                break
            at_center = False
        else:
            at_center = True
        if t % s == 0:
            leaves += 1
    return StarRunResult(stop, leaves + w, leaves)


# ---------------------------------------------------------------------------
# Biased lazy walk on 2Z>=0

@dataclass(frozen=True)
class LazyWalkSpec:
    """Homogeneous lazy walk on {0, 2, 4, ...}: up 2 with probability 1/4,
    down 2 with probability 1/6 (0 at the origin), stay otherwise."""

    up_probability: float = 0.25
    down_probability: float = 1.0 / 6.0

    def __post_init__(self):
        if self.up_probability + self.down_probability > 1.0:
            raise ValueError("up + down probabilities exceed 1")


def simulate_lazy_walk(spec: LazyWalkSpec, horizon: int, rng: PrngStream) -> int:
    """Number of returns to the origin (down-moves into 0) within ``horizon``
    steps, starting at the origin."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    up = spec.up_probability
    down = spec.down_probability
    state = 0
    returns = 0
    for _ in range(horizon):
        u = rng.uniform()
        if u < up:
            state += 2
        elif state > 0 and u < up + down:
            state -= 2
            if state == 0:
                returns += 1
    return returns


def lazy_walk_return_probability(spec: LazyWalkSpec = LazyWalkSpec(),
                                 n_states: int = 101) -> float:
    """P(the walk started one level above the origin ever hits the origin),
    solved by first-step analysis on a truncated chain.

    States 0..n_states-1 index levels 0, 2, ...; level 0 absorbs with value 1
    and the far boundary absorbs with value 0 (truncation error decays
    geometrically in ``n_states``). This equals the success probability f0 of
    a single return excursion; the spec-level value 2/3 comes from the
    embedded-chain gambler's-ruin ratio and is cross-checked against this
    solve in the tests.
    """
    p = spec.up_probability
    q = spec.down_probability
    n = n_states
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[0, 0] = 1.0
    b[0] = 1.0
    a[n - 1, n - 1] = 1.0
    b[n - 1] = 0.0
    for i in range(1, n - 1):
        # h_i = p h_{i+1} + q h_{i-1} + (1-p-q) h_i
        a[i, i] = p + q
        a[i, i + 1] = -p
        a[i, i - 1] = -q
    h = np.linalg.solve(a, b)
    return float(h[1])


def lazy_walk_drift(spec: LazyWalkSpec = LazyWalkSpec()) -> float:
    """Mean displacement per step away from the origin (bulk states)."""
    return 2.0 * (spec.up_probability - spec.down_probability)


GEOMETRIC_RETURN_RATE = 2.0 / 3.0  # f0 of the dominating walk: (1/6)/(1/4)


# ---------------------------------------------------------------------------
# Bounce-back bound

def bounce_bound_exact(d0: int, k: int) -> Fraction:
    """Exact product bound on the probability of k consecutive two-step
    returns to a vertex of degree d0: prod_{j=d0}^{d0+k-1} (2j-1)/(2j)."""
    if d0 < 1 or k < 1:
        raise ValueError("d0 and k must be >= 1")
    out = Fraction(1)
    for j in range(d0, d0 + k):
        out *= Fraction(2 * j - 1, 2 * j)
    return out


def bounce_bounds(d0: int, kmax: int) -> list[float]:
    """``float(bounce_bound_exact(d0, k))`` for k = 1..kmax, from one running
    product: int / int is correctly rounded, so each value is the float
    nearest the exact product."""
    if d0 < 1:
        raise ValueError("d0 must be >= 1")
    num, den, out = 1, 1, []
    for j in range(d0, d0 + kmax):
        num, den = num * (2 * j - 1), den * 2 * j
        out.append(num / den)
    return out


def bounce_envelope(d0: int, k: int) -> float:
    """The display envelopes: 2*sqrt(d0-1)/sqrt(d0+k-1) for d0 >= 2 and
    1/sqrt(k) for d0 = 1. Looser than ``bounce_bounds``."""
    if d0 < 1 or k < 1:
        raise ValueError("d0 and k must be >= 1")
    if d0 == 1:
        return 1.0 / math.sqrt(k)
    return 2.0 * math.sqrt(d0 - 1) / math.sqrt(d0 + k - 1)

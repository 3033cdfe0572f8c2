"""Closed-form reference results and the growing star process.

Everything here is either an exact rational formula, a provably bounded
numerical evaluation, or a seeded sample of the growing star, used as
ground truth by the verification suites. All functions are pure.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import engine

NON_ROOT = "non-root"
ROOT_VARIANT = "root"

# Euler-Mascheroni constant, used by the asymptotic harmonic evaluation.
_EULER_GAMMA = 0.5772156649015328606


def _require_even(s: int):
    if s < 2 or s % 2 != 0:
        raise ValueError(f"step parameter must be even and >= 2, got {s}")


# ---------------------------------------------------------------------------
# Parent-hitting time T

def _blocks(s: int, k: int) -> tuple[int, int]:
    """``(q, r)`` with ``k = q*(s/2) + r`` and ``0 <= r < s/2``, for even
    ``s >= 2`` and ``k >= 0``."""
    _require_even(s)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return divmod(k, s // 2)


def t_pmf_exact(s: int, k: int) -> Fraction:
    """P(T = 2k+1) as an exact rational.

    T is the time until the walker, sitting on a degree-2 vertex that just
    received its first leaf, first steps onto that vertex's parent. Writing
    k = q*(s/2) + r with 0 <= r < s/2, the mass is
    (1/(q+1))^(s/2) * ((q+1)/(q+2))^r * 1/(q+2).
    """
    q, r = _blocks(s, k)
    return (Fraction(1, q + 1) ** (s // 2)
            * Fraction(q + 1, q + 2) ** r
            * Fraction(1, q + 2))


def t_pmf(s: int, k: int) -> float:
    """``float(t_pmf_exact(s, k))``, by one integer true division: Python
    rounds both correctly, so the bits are the same, without building a
    ``Fraction``."""
    q, r = _blocks(s, k)
    return (q + 1) ** r / ((q + 1) ** (s // 2) * (q + 2) ** (r + 1))


def t_ccdf_exact(s: int, k: int) -> Fraction:
    """P(T >= 2k+1) as an exact rational."""
    q, r = _blocks(s, k)
    return Fraction(1, q + 1) ** (s // 2) * Fraction(q + 1, q + 2) ** r


def t_ccdf(s: int, k: int) -> float:
    """``float(t_ccdf_exact(s, k))``, by one integer true division, as
    ``t_pmf``."""
    q, r = _blocks(s, k)
    return (q + 1) ** r / ((q + 1) ** (s // 2) * (q + 2) ** r)


def zeta(a: int) -> float:
    """Riemann zeta at integer a >= 2 by partial sum plus integral tail.

    The tail past M is M^(1-a)/(a-1) - M^(-a)/2 + err with
    |err| <= a * M^(-a-1) / 12 (Euler-Maclaurin), so M is chosen to push the
    bound below 1e-12.
    """
    if a < 2:
        raise ValueError("zeta(a) requires a >= 2")
    m_terms = max(100, math.ceil((a / (12.0 * 1e-12)) ** (1.0 / (a + 1))))
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


def sample_star(spec: StarProcessSpec, seed: int, samples: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` trajectories of the star process, one after another on
    the stream of ``engine.bit_stream(seed)``, drawn by the kernel's
    ``star``: each one's stop time (odd, or 0 if the run reached
    ``spec.max_time`` first) and the centre's final degree, parent edge
    weight included, as two ``int64`` arrays."""
    kernel = engine._kernel()
    # rooms of one entry at least: from_buffer takes no empty array
    stop = np.empty(max(samples, 1), dtype=np.int64)
    degree = np.empty(max(samples, 1), dtype=np.int64)
    kernel.star(spec.step_parameter, spec.parent_weight, spec.max_time,
                *engine.pcg64_halves(engine.bit_stream(seed)), samples,
                ctypes.c_int64.from_buffer(stop),
                ctypes.c_int64.from_buffer(degree))
    return stop[:samples], degree[:samples]


# ---------------------------------------------------------------------------
# Biased lazy walk on 2Z>=0 (up 2 with probability 1/4, down 2 with
# probability 1/6): its return probability f0 is the gambler's-ruin ratio
# (1/6)/(1/4). The walk and a first-step-analysis solve of f0 are the
# cross-checks in tests/reference.py.

GEOMETRIC_RETURN_RATE = 2.0 / 3.0


# ---------------------------------------------------------------------------
# Bounce-back bound

def bounce_bounds(d0: int, kmax: int) -> list[float]:
    """The product bound prod_{j=d0}^{d0+k-1} (2j-1)/(2j) on the
    probability of k consecutive two-step returns to a vertex of degree d0,
    for k = 1..kmax, from one running product in integer arithmetic:
    int / int is correctly rounded, so each value is the float nearest the
    exact product."""
    if d0 < 1:
        raise ValueError("d0 must be >= 1")
    num, den, out = 1, 1, []
    for j in range(d0, d0 + kmax):
        num, den = num * (2 * j - 1), den * 2 * j
        out.append(num / den)
    return out


def bounce_bound_floor(d0: np.ndarray | int, k: np.ndarray | int
                       ) -> np.ndarray:
    """A float no larger than ``bounce_bounds(d0, k)[-1]``, elementwise over
    arrays of degrees ``d0 >= 1`` and return counts ``k >= 1``.

    ((2j-1)/(2j))^2 >= (4j-3)/(4j+1), since (2j-1)^2 (4j+1) exceeds
    (2j)^2 (4j-3) by 1, and the right-hand side telescopes, so the product
    is at least sqrt((4 d0 - 3) / (4 (d0 + k) - 3)), which it exceeds by
    under 13% at d0 = 1, 1% at d0 = 2 and 1e-5 from d0 = 50. The few
    roundings of the float evaluation stay far inside the 1e-9 slack, and
    the result is non-increasing in k.
    """
    d0 = np.asarray(d0, dtype=np.float64)
    ratio = (4.0 * d0 - 3.0) / (4.0 * (d0 + k) - 3.0)
    return np.sqrt(ratio) * (1.0 - 1e-9)


def bounce_envelope(d0: int, k: int) -> float:
    """The display envelopes: 2*sqrt(d0-1)/sqrt(d0+k-1) for d0 >= 2 and
    1/sqrt(k) for d0 = 1. Looser than ``bounce_bounds``."""
    if d0 < 1 or k < 1:
        raise ValueError("d0 and k must be >= 1")
    if d0 == 1:
        return 1.0 / math.sqrt(k)
    return 2.0 * math.sqrt(d0 - 1) / math.sqrt(d0 + k - 1)

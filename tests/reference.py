"""Reference computations that the code in ``src/`` is tested against:
slow exact evaluations, second implementations of the step kernel's walk,
star sampler and bounce statistics, and the biased lazy walk behind
``oracles.GEOMETRIC_RETURN_RATE``."""

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from nrrw import oracles, stats
from nrrw.engine import (
    _DRAW_BOUND, NO_PARENT, ROOT, PrngStream, SimConfig, bit_stream,
)

_UNIT = 1 << 53
_BLOCK_DRAWS = 1 << 21
_LIST_DRAWS = 1 << 15


def walk(s: int, n: int, draws: np.ndarray, positions: np.ndarray,
         parent: np.ndarray) -> None:
    """The stepping loop of the kernel's ``walk`` on Python lists: takes a
    step per draw, writes the positions to ``positions`` and the attached
    vertices' parents to ``parent``."""
    nb = [[ROOT, ROOT]]
    path: list[int] = []
    record = path.append
    pos, until_attach = ROOT, s
    # a list of at most _LIST_DRAWS draws at a time: one of the whole run
    # would take about 40 bytes a step
    for start in range(0, len(draws), _LIST_DRAWS):
        for r in draws[start:start + _LIST_DRAWS].tolist():
            here = nb[pos]
            pos = here[r % len(here)]
            record(pos)
            until_attach -= 1
            if not until_attach:
                child = len(nb)
                nb[pos].append(child)
                nb.append([pos])
                parent[child] = pos
                until_attach = s
    positions[:] = path


def run_draws(config: SimConfig) -> np.ndarray:
    """The 62-bit draws ``engine.run(config)`` steps on, one per step, from
    numpy's own ``integers``."""
    return bit_stream(config.seed).integers(
        0, _DRAW_BOUND, size=config.total_steps, dtype=np.uint64)


def run(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """``engine.run(config)``'s ``(parent, positions)`` from ``walk`` on
    ``run_draws(config)``."""
    positions = np.empty(config.total_steps, dtype=np.int32)
    parent = np.full(config.target_nodes, NO_PARENT, dtype=np.int64)
    walk(config.step_parameter, config.target_nodes, run_draws(config),
         positions, parent)
    return parent, positions


def bounce_statistics(s: int, parent: np.ndarray,
                      positions: np.ndarray) -> stats.Bounce:
    """Bounce runs from the walker's positions at even times t0 >= s, by
    numpy passes over the run's arrays.

    The degree of a vertex at time t counts the children born by then:
    child ``j`` attaches at time ``j * s``. The warm-up before the first
    attachment is left out, matching the bounce lemma's premise (the forced
    self-loops there would contribute degenerate certain returns).
    """
    n = len(parent)
    times = np.arange(s + s % 2, len(positions) + 1, 2)
    where = positions[times - 1].astype(np.int64)
    by_parent = np.argsort(parent[1:], kind="stable")
    child_keys = parent[1:][by_parent] * n + by_parent + 1
    born = (np.searchsorted(child_keys, where * n + times // s, side="right")
            - np.searchsorted(child_keys, where * n))
    deg = born + 1 + (where == ROOT)

    # same[k]: the walker is back at anchor k - 1's vertex at anchor k
    same = np.zeros(len(where), dtype=np.int8)
    same[1:] = where[1:] == where[:-1]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], same, [0]))))
    starts, ends = edges[0::2], edges[1::2]  # maximal runs same[starts:ends]
    lengths = ends - starts
    returns = np.flatnonzero(same)
    follow = np.zeros(len(where), dtype=np.int32)
    follow[returns - 1] = np.repeat(ends, lengths) - returns  # left in its run
    return stats.Bounce(
        anchors=deg.astype(np.int32),
        tails=follow,
        runs=list(zip(deg[starts - 1].tolist(), lengths.tolist())),
    )


@dataclass(frozen=True)
class StarRunResult:
    stop_time: Optional[int]  # None if censored at max_time
    center_degree: int


def simulate_star(spec: oracles.StarProcessSpec,
                  rng: PrngStream) -> StarRunResult:
    """One exact trajectory of the star process, the reference of
    ``oracles.sample_star``.

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
    return StarRunResult(stop, leaves + w)


def uniform(rng: PrngStream) -> float:
    """A float in [0, 1) from the next draw of ``rng``."""
    return rng.randbelow(_UNIT) / _UNIT


def t_mean_partial_sum_exact(s: int, blocks: int) -> Fraction:
    """Rational term-by-term evaluation of ``oracles.t_mean_partial_sum``
    (slow)."""
    total = Fraction(0)
    for k in range(blocks * (s // 2)):
        total += (2 * k + 1) * oracles.t_pmf_exact(s, k)
    return total


# ---------------------------------------------------------------------------
# Biased lazy walk on 2Z>=0, the source of oracles.GEOMETRIC_RETURN_RATE

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
        u = uniform(rng)
        if u < up:
            state += 2
        elif state > 0 and u < up + down:
            state -= 2
            if state == 0:
                returns += 1
    return returns


def lazy_walk_returns(spec: LazyWalkSpec, horizon: int, walks: int,
                      seed: int) -> np.ndarray:
    """``simulate_lazy_walk`` for ``walks`` walks in a row on
    ``PrngStream(seed)``, stepped together with numpy: the same draws give
    the same counts. Walks go in blocks of about ``_BLOCK_DRAWS`` draws
    (16 MB)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    up = spec.up_probability
    down = spec.down_probability
    gen = bit_stream(seed)
    block = max(1, _BLOCK_DRAWS // horizon)
    out = []
    for done in range(0, walks, block):
        size = min(block, walks - done)
        # PrngStream's 62-bit draws, one row per walk, then one row per step
        draws = gen.integers(0, 1 << 62, size=(size, horizon))
        u = np.ascontiguousarray((draws % _UNIT).T) / _UNIT
        state = np.zeros(size, dtype=np.int64)
        returns = np.zeros(size, dtype=np.int64)
        for row in u:
            rise = row < up
            fall = ~rise & (state > 0) & (row < up + down)
            state += 2 * (rise.astype(np.int64) - fall)
            returns += fall & (state == 0)
        out.append(returns)
    return np.concatenate(out)


def lazy_walk_return_probability(spec: LazyWalkSpec = LazyWalkSpec(),
                                 n_states: int = 101) -> float:
    """P(the walk started one level above the origin ever hits the origin),
    solved by first-step analysis on a truncated chain.

    States 0..n_states-1 index levels 0, 2, ...; level 0 absorbs with value 1
    and the far boundary absorbs with value 0 (truncation error decays
    geometrically in ``n_states``). This equals the success probability f0 of
    a single return excursion; the value 2/3 of
    ``oracles.GEOMETRIC_RETURN_RATE`` comes from the embedded-chain
    gambler's-ruin ratio and is cross-checked against this solve.
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


def bounce_reports(summaries, max_k: int
                   ) -> dict[int, tuple[int, stats.DominanceReport]]:
    """``{degree: (anchors, report)}`` from one ``stats.dominance_check``
    for every anchor degree of the pooled replicas, none ruled out, in
    ascending order, as the bounce suite reports them. The anchors are
    pooled by their (degree, returns capped at max_k) pairs."""
    pairs = Counter()
    for r in summaries:
        pairs.update((d, min(k, max_k)) for d, k in
                     zip(r.bounce_anchors.tolist(), r.bounce_tails.tolist()))
    returns: dict[int, dict[int, int]] = defaultdict(dict)
    for (d, k), c in pairs.items():
        returns[d][k] = c
    reports = {}
    for d in sorted(returns):
        hist = returns[d]
        n_d = sum(hist.values())
        bounds = oracles.bounce_bounds(d, max_k)
        reports[d] = n_d, stats.dominance_check(
            hist, range(1, max_k + 1), lambda k: bounds[k - 1])
    return reports


def bounce_check(summaries, max_k: int) -> dict:
    """The bounce suite's details but for its replicas and nodes keys, from
    ``bounce_reports``."""
    reports = bounce_reports(summaries, max_k)
    failures = [f"d={d} k={k}: freq {p:.4f} > bound {limit:.4f} (n={n_d})"
                for d, (n_d, report) in reports.items()
                for k, p, limit in report.violations]
    return {"failures": failures[:10], "checked": len(reports) * max_k,
            "worst_gap": max((r.worst_violation for _, r in reports.values()),
                             default=0.0),
            "degrees": len(reports)}

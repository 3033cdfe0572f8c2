"""Per-run statistics, derived as array passes over a run's parent and
position arrays, and the statistical checks that confront empirical data with
the analytic oracles."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .engine import ROOT, SimConfig, run


class EmptyHistogramError(ValueError):
    pass


# Checkpoints record the visit counts of the first PROBE_VERTICES vertices.
PROBE_VERTICES = 10


@dataclass
class Bounce:
    """Consecutive two-step returns, anchored at even times t0 >= s.

    ``anchors[d]`` counts anchors whose vertex has degree ``d``;
    ``tails[(d, k)]`` counts anchors of degree ``d`` from which exactly
    ``k`` consecutive returns follow before their maximal run ends; ``runs`` lists each maximal run
    as (degree at its start, number of returns), in time order.
    """

    anchors: dict[int, int]
    tails: dict[tuple[int, int], int]
    runs: list[tuple[int, int]]


@dataclass
class RunStats:
    """One run's arrays and the statistics derived from them."""

    config: SimConfig
    parent: np.ndarray
    positions: np.ndarray
    visits: np.ndarray
    leaf_count: int
    max_depth: int
    root_visits: int
    root_entries: int
    root_last_visit: int
    parity_changes: int
    degree_counts: dict[int, int]
    leaf_series: list[tuple[int, int]]
    checkpoints: list[dict]
    renewal_gaps: list[int]

    @cached_property
    def bounce(self) -> Bounce:
        return bounce_statistics(self.config.step_parameter, self.parent,
                                 self.positions)


def collect_run(config: SimConfig,
                snapshot_grid: Optional[Sequence[int]] = None,
                checkpoint_grid: Optional[Sequence[int]] = None) -> RunStats:
    """Run a simulation and derive its statistics.

    ``snapshot_grid`` and ``checkpoint_grid`` are vertex counts at which the
    leaf count and the checkpoint record are taken; points above the target
    size are skipped. Bounce statistics are derived on first access.
    """
    parent, positions = run(config)
    s, n = config.step_parameter, config.target_nodes
    at_root = positions == ROOT
    loops = at_root & np.concatenate(([True], at_root[:-1]))
    root_times = np.flatnonzero(at_root)
    neutral = renewals(parent)

    def leaves(m: int) -> int:  # among vertices 0 .. m - 1: newcomers less
        return m - 1 - int(np.searchsorted(neutral, m - 1, side="right"))

    return RunStats(
        config=config, parent=parent, positions=positions,
        visits=np.bincount(positions, minlength=n),
        leaf_count=leaves(n),
        max_depth=max(depths(parent)),
        root_visits=len(root_times),
        root_entries=len(root_times) - int(loops.sum()),
        root_last_visit=int(root_times[-1]) + 1 if len(root_times) else 0,
        parity_changes=int(loops.sum()),
        degree_counts=degree_counts(parent),
        leaf_series=[(g, leaves(max(g, 1)))
                     for g in sorted(set(snapshot_grid or [])) if g <= n],
        checkpoints=checkpoints(s, positions, loops, checkpoint_grid or [], n),
        renewal_gaps=(s * np.diff(neutral)).tolist(),
    )


def depths(parent: np.ndarray) -> list[int]:
    """Depth of every vertex; parents are older than their children."""
    par = parent.tolist()
    depth = [0] * len(par)
    for v in range(1, len(par)):
        depth[v] = depth[par[v]] + 1
    return depth


def walk_degrees(parent: np.ndarray) -> np.ndarray:
    """Final walk degree of every vertex; the root's self-loop counts 2."""
    deg = np.bincount(parent[1:], minlength=len(parent)) + 1
    deg[ROOT] += 1
    return deg


def degree_counts(parent: np.ndarray) -> dict[int, int]:
    """Histogram {degree: vertex count} of final walk degrees."""
    hist = np.bincount(walk_degrees(parent))
    return {d: c for d, c in enumerate(hist.tolist()) if c}


def first_children(parent: np.ndarray) -> np.ndarray:
    """Label of each vertex's first child; ``len(parent)`` if it has none."""
    first = np.full(len(parent), len(parent), dtype=np.int64)
    owners, index = np.unique(parent[1:], return_index=True)
    first[owners] = index + 1
    return first


def renewals(parent: np.ndarray) -> np.ndarray:
    """Labels of the leaf-neutral additions, in birth order.

    Each newcomer is a leaf. It leaves the leaf count unchanged when its
    parent is a non-root vertex that was a leaf until then, i.e. when the
    newcomer is that parent's first child; otherwise the count grows by one.
    """
    labels = np.arange(1, len(parent))
    par = parent[1:]
    return labels[(par != ROOT) & (first_children(parent)[par] == labels)]


def checkpoints(s: int, positions: np.ndarray, loops: np.ndarray,
                grid: Sequence[int], n: int) -> list[dict]:
    """Clock, first probe vertices' visits and self-loop count at the moment
    the tree reaches each grid size (vertex ``g - 1`` attaches at s*(g-1))."""
    probed = np.flatnonzero(positions < PROBE_VERTICES)
    probe_pos = positions[probed]
    loop_times = np.flatnonzero(loops)
    out = []
    for g in sorted(set(grid)):
        if g > n:
            break
        clock = s * (max(g, 1) - 1)
        seen = probe_pos[:np.searchsorted(probed, clock)]
        visits = np.bincount(seen, minlength=PROBE_VERTICES)
        out.append({"n": g, "clock": clock,
                    "visits": visits[:min(max(g, 1), PROBE_VERTICES)].tolist(),
                    "parity_changes": int(np.searchsorted(loop_times, clock))})
    return out


def bounce_statistics(s: int, parent: np.ndarray,
                      positions: np.ndarray) -> Bounce:
    """Bounce runs from the walker's positions at even times t0 >= s.

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
    anchors = np.bincount(deg)

    # same[k]: the walker is back at anchor k - 1's vertex at anchor k
    same = np.zeros(len(where), dtype=np.int8)
    same[1:] = where[1:] == where[:-1]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], same, [0]))))
    starts, ends = edges[0::2], edges[1::2]  # maximal runs same[starts:ends]
    lengths = ends - starts
    returns = np.flatnonzero(same)
    remaining = np.repeat(ends, lengths) - returns  # returns left in its run
    width = int(lengths.max(initial=0)) + 1
    tail_keys, tail_counts = np.unique(deg[returns - 1] * width + remaining,
                                       return_counts=True)
    return Bounce(
        anchors={d: c for d, c in enumerate(anchors.tolist()) if c},
        tails={divmod(k, width): c for k, c in zip(tail_keys.tolist(),
                                                   tail_counts.tolist())},
        runs=list(zip(deg[starts - 1].tolist(), lengths.tolist())),
    )


def log_grid(lo: int, hi: int, points: int) -> list[int]:
    """Logarithmically spaced integer grid from lo to hi inclusive."""
    if hi <= lo:
        return [hi]
    raw = np.unique(np.round(np.geomspace(lo, hi, points)).astype(int))
    return [int(x) for x in raw if lo <= x <= hi]


# ---------------------------------------------------------------------------
# Empirical distribution machinery

def empirical_ccdf(counts: dict[int, int], grid: Optional[Iterable[int]] = None
                   ) -> list[tuple[int, float]]:
    """Exact empirical CCDF of a {value: count} histogram.

    Returns (k, P(value >= k)) for each k of ``grid``; by default for k from
    the smallest value with mass to the largest, on a unit grid.
    """
    items = sorted((k, c) for k, c in counts.items() if c > 0)
    if not items:
        raise EmptyHistogramError("no mass in histogram")
    values = [k for k, _ in items]
    # at_least[i]: mass at values[i] and above; 0 past the largest value
    at_least = list(accumulate(c for _, c in reversed(items)))[::-1] + [0]
    total = at_least[0]
    if grid is None:
        grid = range(values[0], values[-1] + 1)
    return [(k, at_least[bisect_left(values, k)] / total) for k in grid]


def dkw_margin(n: int, alpha: float = 0.01) -> float:
    """Half-width sqrt(ln(2/alpha) / (2n)) of the two-sided DKW band at
    level ``alpha`` around an empirical CDF of ``n`` samples (Massart's
    constant)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass
class DominanceReport:
    margin: float
    violations: list[tuple[int, float, float]]  # (k, p, limit) with p > limit

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def worst_violation(self) -> float:
        """Largest excess of the empirical CCDF over bound + margin, or 0.0."""
        return max((p - limit for _, p, limit in self.violations), default=0.0)


def dominance_check(counts: dict[int, int], grid: Iterable[int],
                    bound: Callable[[int], float],
                    alpha: float = 0.01) -> DominanceReport:
    """Check that the empirical CCDF of a {value: count} histogram of n
    samples stays below an analytic bound: P(value >= k) <= limit = bound(k)
    + ``dkw_margin(n, alpha)`` at every k of ``grid``; the points above
    their limit are the violations."""
    margin = dkw_margin(sum(counts.values()), alpha)
    return DominanceReport(margin, [
        (k, p, limit) for k, p in empirical_ccdf(counts, grid)
        if p > (limit := bound(k) + margin)])


# ---------------------------------------------------------------------------
# CSV serialization (stable column orders)

def degrees_csv(counts: dict[int, int]) -> list[str]:
    lines = ["degree,count"]
    lines.extend(f"{d},{c}" for d, c in sorted(counts.items()))
    return lines


def ccdf_csv(ccdf: Sequence[tuple[int, float]]) -> list[str]:
    lines = ["k,p"]
    lines.extend(f"{k},{p:.10g}" for k, p in ccdf)
    return lines


def leaves_csv(series: Sequence[tuple[int, int]]) -> list[str]:
    lines = ["n,leaves"]
    lines.extend(f"{n},{l}" for n, l in series)
    return lines


def visits_csv(res: RunStats) -> list[str]:
    """Per vertex: visit count, first visit time (the root is there at
    t=0) and first attachment time; blank when it never happened."""
    n = len(res.parent)
    first_visit = [None] * n
    seen, index = np.unique(res.positions, return_index=True)
    for v, i in zip(seen.tolist(), index.tolist()):
        first_visit[v] = i + 1
    first_visit[ROOT] = 0
    first_child = first_children(res.parent).tolist()
    s = res.config.step_parameter
    lines = ["vertex,count,first_visit,first_attach"]
    for v, c in enumerate(res.visits.tolist()):
        fv = first_visit[v]
        fa = first_child[v] * s if first_child[v] < n else ""
        lines.append(f"{v},{c},{'' if fv is None else fv},{fa}")
    return lines


def bounces_csv(runs: Sequence[tuple[int, int]]) -> list[str]:
    lines = ["start_degree,run_length"]
    lines.extend(f"{d},{m}" for d, m in runs)
    return lines

"""Per-run statistics, taken by the step kernel as it walks or derived as
array passes over a run's parent and position arrays, and the statistical
checks that confront empirical data with the analytic oracles."""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import engine
from .engine import ROOT, SimConfig, run


class EmptyHistogramError(ValueError):
    pass


@dataclass
class Bounce:
    """Consecutive two-step returns, anchored at even times t0 >= s.

    Two ``int32`` arrays with one entry per anchor, in time order:
    ``anchors[i]`` is the degree of the walker's vertex at anchor ``i`` and
    ``tails[i]`` the number of consecutive returns that follow it before
    their maximal run ends (0 if the walker is elsewhere at anchor
    ``i + 1``). ``runs`` lists each maximal run as (degree at its start,
    number of returns), in time order.
    """

    anchors: np.ndarray
    tails: np.ndarray
    runs: list[tuple[int, int]]


@dataclass(kw_only=True)
class RunRecord:
    """The picklable statistics of one run, each declared once here with the
    value a failed replica keeps. ``collect_run`` fills them, from the
    kernel's tallies (``tallied_record``) or, where no kernel took the
    steps, from the arrays (``derive_record``), and ``harness.ReplicaSummary``
    ships them. A new per-run statistic is a field here, a tally in the
    kernel read by ``tallied_record``, its numpy derivation in
    ``derive_record``, which criterion 9 and the kernel tests hold the tally
    to, and its streamed value in the tests' reference summary."""

    leaf_count: int = 0
    max_depth: int = 0
    root_visits: int = 0
    root_entries: int = 0
    root_last_visit: int = 0
    parity_changes: int = 0
    degree_counts: dict[int, int] = field(default_factory=dict)
    leaf_series: list[tuple[int, int]] = field(default_factory=list)
    root_visits_at: list[int] = field(default_factory=list)
    parity_changes_at: list[int] = field(default_factory=list)
    renewal_gaps: list[int] = field(default_factory=list)


@dataclass(kw_only=True)
class RunStats(RunRecord):
    """One run's arrays and its statistics."""

    config: SimConfig
    parent: np.ndarray
    positions: np.ndarray

    @cached_property
    def bounce(self) -> Bounce:
        """Derived from the arrays on first access, unless ``collect_run``
        took them with the rest."""
        return bounce_statistics(self.config.step_parameter, self.parent,
                                 self.positions)


def collect_run(config: SimConfig,
                snapshot_grid: Optional[Sequence[int]] = None,
                checkpoint_grid: Optional[Sequence[int]] = None,
                bounce: bool = False) -> RunStats:
    """Run a simulation and take its statistics.

    ``snapshot_grid`` and ``checkpoint_grid`` are vertex counts ``g``: the
    leaf count is taken when the tree has ``g`` vertices, and the root
    visits and self-loop traversals over the first s*(g-1) steps, after
    which vertex ``g - 1`` attaches. Points above the target size are
    skipped.

    The kernel takes every statistic as it steps, and with ``bounce`` the
    bounce statistics too (``engine.Tally``). Where it does not take the
    steps (no kernel could be built, or the run has none), ``derive_record``
    derives them from the arrays. Bounce statistics not taken are derived
    from the arrays on first access.
    """
    n = config.target_nodes
    sizes = [g for g in sorted(set(snapshot_grid or [])) if g <= n]
    checkpoints = [max(g, 1) for g in sorted(set(checkpoint_grid or []))
                   if g <= n]
    tally = engine.Tally(config, [max(g, 1) for g in sizes], checkpoints,
                         bounce)
    parent, positions = run(config, tally)
    if tally.filled:
        record = tallied_record(tally, sizes)
    else:
        record = derive_record(config, parent, positions, snapshot_grid,
                               checkpoint_grid)
    res = RunStats(config=config, parent=parent, positions=positions,
                   **vars(record))
    if tally.filled and bounce:
        anchors, tails = tally.views["anchors"], tally.views["tails"]
        # a run is followed from the anchor before its first return on,
        # counting down: it starts at a positive tail after a zero one
        start = tails > 0
        start[1:] &= tails[:-1] == 0
        res.bounce = Bounce(anchors, tails, list(zip(
            anchors[start].tolist(), tails[start].tolist())))
    return res


def tallied_record(tally: engine.Tally, sizes: Sequence[int]) -> RunRecord:
    """The record of a run from the tallies the kernel took of it; ``sizes``
    are the vertex counts of the leaf series."""
    views = tally.views
    degrees = slice(tally.n_degrees)
    return RunRecord(
        leaf_count=tally.leaf_count,
        max_depth=tally.max_depth,
        root_visits=tally.root_visits,
        root_entries=tally.root_visits - tally.loops,
        root_last_visit=tally.root_last_visit,
        parity_changes=tally.loops,
        degree_counts=dict(zip(views["degrees"][degrees].tolist(),
                               views["degree_counts"][degrees].tolist())),
        leaf_series=list(zip(sizes, views["leaves_at"].tolist())),
        root_visits_at=views["visits_at"].tolist(),
        parity_changes_at=views["loops_at"].tolist(),
        renewal_gaps=views["neutral_gaps"][1:tally.neutral].tolist(),
    )


def derive_record(config: SimConfig, parent: np.ndarray, positions: np.ndarray,
                  snapshot_grid: Optional[Sequence[int]] = None,
                  checkpoint_grid: Optional[Sequence[int]] = None
                  ) -> RunRecord:
    """The record of a run derived with numpy passes over its arrays, on the
    grids of ``collect_run``: its statistics where no kernel took the steps,
    and the reference criterion 9 holds the kernel's tallies to."""
    s, n = config.step_parameter, config.target_nodes
    at_root = positions == ROOT
    loops = at_root & np.concatenate(([True], at_root[:-1]))
    root_times = np.flatnonzero(at_root)
    loop_times = np.flatnonzero(loops)
    clocks = [s * (max(g, 1) - 1) for g in sorted(set(checkpoint_grid or []))
              if g <= n]
    neutral = renewals(parent)

    def leaves(m: int) -> int:  # among vertices 0 .. m - 1: newcomers less
        return m - 1 - int(np.searchsorted(neutral, m - 1, side="right"))

    return RunRecord(
        leaf_count=leaves(n),
        max_depth=int(depths(parent).max()),
        root_visits=len(root_times),
        root_entries=len(root_times) - len(loop_times),
        root_last_visit=int(root_times[-1]) + 1 if len(root_times) else 0,
        parity_changes=len(loop_times),
        degree_counts=degree_counts(parent),
        leaf_series=[(g, leaves(max(g, 1)))
                     for g in sorted(set(snapshot_grid or [])) if g <= n],
        root_visits_at=np.searchsorted(root_times, clocks).tolist(),
        parity_changes_at=np.searchsorted(loop_times, clocks).tolist(),
        renewal_gaps=(s * np.diff(neutral)).tolist(),
    )


def depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex. With the kernel, in one pass in label order,
    as every parent is older than its child (a parent that is not raises
    ``ValueError``); without it, by pointer jumping: ``depth[v]`` is the
    distance from ``v`` to its ancestor ``up[v]``, and each pass doubles it
    until every ``up`` is the root."""
    kernel = engine._kernel() if len(parent) else None
    if kernel:
        # int64 and C-contiguous for the kernel, held here for the call,
        # and writable for from_buffer: a read-only parent is copied
        parent = np.require(parent, np.int64, "CW")
        depth = np.empty(len(parent), dtype=np.int64)
        bad = kernel.depths(len(parent), ctypes.c_int64.from_buffer(parent),
                            ctypes.c_int64.from_buffer(depth))
        if bad:
            raise ValueError(f"parent[{bad}] = {parent[bad]} is not an older "
                             "vertex")
        return depth
    up = np.maximum(parent, ROOT)
    depth = (up != np.arange(len(up))).astype(np.int64)
    while up.any():
        depth, up = depth + depth[up], up[up]
    return depth


def walk_degrees(parent: np.ndarray) -> np.ndarray:
    """Final walk degree of every vertex; the root's self-loop counts 2."""
    deg = np.bincount(parent[1:], minlength=len(parent)) + 1
    deg[ROOT] += 1
    return deg


def degree_counts(parent: np.ndarray) -> dict[int, int]:
    """Histogram {degree: vertex count} of final walk degrees, keys
    ascending, built from the non-empty bins only."""
    hist = np.bincount(walk_degrees(parent))
    keys = np.flatnonzero(hist)
    return dict(zip(keys.tolist(), hist[keys].tolist()))


def first_children(parent: np.ndarray) -> np.ndarray:
    """Label of each vertex's first child; ``len(parent)`` if it has none."""
    first = np.full(len(parent), len(parent), dtype=np.int64)
    np.minimum.at(first, parent[1:], np.arange(1, len(parent)))
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

    # same[k]: the walker is back at anchor k - 1's vertex at anchor k
    same = np.zeros(len(where), dtype=np.int8)
    same[1:] = where[1:] == where[:-1]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], same, [0]))))
    starts, ends = edges[0::2], edges[1::2]  # maximal runs same[starts:ends]
    lengths = ends - starts
    returns = np.flatnonzero(same)
    follow = np.zeros(len(where), dtype=np.int32)
    follow[returns - 1] = np.repeat(ends, lengths) - returns  # left in its run
    return Bounce(
        anchors=deg.astype(np.int32),
        tails=follow,
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


def dkw_margin(n: int) -> float:
    """Half-width sqrt(ln(2/0.01) / (2n)) of the two-sided DKW band at level
    0.01 around an empirical CDF of ``n`` samples (Massart's constant)."""
    return math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))


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
                    bound: Callable[[int], float]) -> DominanceReport:
    """Check that the empirical CCDF of a {value: count} histogram of n
    samples stays below an analytic bound: P(value >= k) <= limit = bound(k)
    + ``dkw_margin(n)`` at every k of ``grid``; the points above their limit
    are the violations."""
    margin = dkw_margin(sum(counts.values()))
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


def leaves_csv(series: Sequence[tuple[int, float]],
               fmt: str = "{}") -> list[str]:
    lines = ["n,leaves"]
    lines.extend(f"{n},{fmt.format(l)}" for n, l in series)
    return lines


def visits_csv(res: RunStats) -> list[str]:
    """Per vertex: visit count, first visit time (the root is there at
    t=0) and first attachment time; blank when it never happened."""
    n = len(res.parent)
    visits = np.bincount(res.positions, minlength=n).tolist()
    first_visit = [None] * n
    seen, index = np.unique(res.positions, return_index=True)
    for v, i in zip(seen.tolist(), index.tolist()):
        first_visit[v] = i + 1
    first_visit[ROOT] = 0
    first_child = first_children(res.parent).tolist()
    s = res.config.step_parameter
    lines = ["vertex,count,first_visit,first_attach"]
    for v, c in enumerate(visits):
        fv = first_visit[v]
        fa = first_child[v] * s if first_child[v] < n else ""
        lines.append(f"{v},{c},{'' if fv is None else fv},{fa}")
    return lines


def bounces_csv(runs: Sequence[tuple[int, int]]) -> list[str]:
    lines = ["start_degree,run_length"]
    lines.extend(f"{d},{m}" for d, m in runs)
    return lines

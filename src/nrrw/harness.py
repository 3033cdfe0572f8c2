"""Batch driver: replicated runs, deterministic merging, verification suites
and artifact export."""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine, oracles, stats
from .engine import ROOT, ConfigError, SimConfig
from .stats import RunRecord, collect_run, log_grid


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass
class ExperimentSpec:
    cells: list[tuple[int, int]]  # (step_parameter, target_nodes)
    replicas: int = 10
    base_seed: int = 0
    checks: list[str] = field(default_factory=list)
    output_dir: str = "out"
    snapshot_points: int = 20
    jobs: int = 1

    def __post_init__(self):
        if not self.cells:
            raise UsageError("experiment needs at least one (s, nodes) cell")
        _require_least(vars(self), {"replicas": 1, "base_seed": 0,
                                    "snapshot_points": 1, "jobs": 1})
        for s, n in self.cells:
            try:
                SimConfig(s, n, seed=0)
            except ConfigError as exc:
                raise UsageError(f"cells: {[s, n]}: {exc}") from exc
        unknown = [c for c in self.checks if c not in SUITES]
        if unknown:
            raise UsageError(
                f"unknown checks {unknown}; available: {sorted(SUITES)}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON object; a malformed key is a
        ``UsageError`` that names it."""
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise UsageError("an experiment file holds one JSON object")
        for key, value in raw.items():
            if key not in _SPEC_KEYS:
                raise UsageError(f"unknown key {key!r}; "
                                 f"allowed: {list(_SPEC_KEYS)}")
            if not _SPEC_KEYS[key](value):
                raise UsageError(f"{key} must be {cls.__annotations__[key]}, "
                                 f"got {value!r}")
        raw["cells"] = [tuple(c) for c in raw.get("cells", [])]
        return cls(**raw)


def _require_least(values: dict, least: dict[str, int]):
    """Raise a ``UsageError`` naming a key whose value is below its least."""
    for key, low in least.items():
        if values.get(key, low) < low:
            raise UsageError(f"{key} must be >= {low}, got {values[key]}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the test each key's JSON value must pass to fill the ExperimentSpec field
_SPEC_KEYS: dict[str, Callable[[object], bool]] = {
    "cells": lambda v: isinstance(v, list) and all(
        isinstance(c, list) and len(c) == 2 and all(map(_is_int, c))
        for c in v),
    "replicas": _is_int,
    "base_seed": _is_int,
    "checks": lambda v: isinstance(v, list) and all(
        isinstance(c, str) for c in v),
    "output_dir": lambda v: isinstance(v, str),
    "snapshot_points": _is_int,
    "jobs": _is_int,
}


def replica_seed(base_seed: int, cell_index: int, replica_index: int) -> int:
    """Deterministic seed mixing: SeedSequence(base, spawn_key=(cell, replica)).

    Adding cells or replicas never perturbs the streams of existing ones.
    """
    ss = np.random.SeedSequence(entropy=base_seed,
                                spawn_key=(cell_index, replica_index))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Replicated runs

# the bounce arrays of a summary that does not carry them: one shared,
# read-only empty array, so such a summary allocates nothing for them
_NO_BOUNCE = np.empty(0, dtype=np.int32)
_NO_BOUNCE.flags.writeable = False


@dataclass(kw_only=True)
class ReplicaSummary(RunRecord):
    """Picklable per-replica aggregate, merged across replicas by the driver:
    the run's ``stats.RunRecord`` plus what the replica adds to it.

    ``bounce_anchors`` and ``bounce_tails`` are ``stats.Bounce``'s
    per-anchor ``int32`` arrays (empty unless asked for), so they pickle as
    two buffers.
    """

    seed: int
    status: str = "ok"
    clock: int = 0
    vertex_count: int = 0
    steps_per_second: float = 0.0
    bounce_anchors: np.ndarray = field(default_factory=lambda: _NO_BOUNCE)
    bounce_tails: np.ndarray = field(default_factory=lambda: _NO_BOUNCE)
    bounce_runs: list[tuple[int, int]] = field(default_factory=list)


# the statistics a summary copies from its run, named once at import
_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def run_replica(s: int, nodes: int, seed: int,
                snapshot_grid: Optional[Sequence[int]] = None,
                checkpoint_grid: Optional[Sequence[int]] = None,
                keep_bounce_runs: bool = False,
                keep_bounce_stats: bool = False) -> ReplicaSummary:
    config = SimConfig(s, nodes, seed)
    # two arrays with one entry per even time; suites that never read the
    # bounce statistics skip taking and shipping them
    keep_bounce = keep_bounce_stats or keep_bounce_runs
    t0 = time.perf_counter()
    try:
        res = collect_run(config, snapshot_grid, checkpoint_grid, keep_bounce)
    except engine.ResourceExhausted as exc:
        return ReplicaSummary(seed=seed,
                              status=f"failed({exc})",
                              clock=exc.clock,
                              vertex_count=exc.vertices_built)
    bounce = res.bounce if keep_bounce else None
    elapsed = max(time.perf_counter() - t0, 1e-9)
    return ReplicaSummary(
        seed=seed,
        clock=config.total_steps,
        vertex_count=len(res.parent),
        steps_per_second=config.total_steps / elapsed,
        bounce_anchors=bounce.anchors if keep_bounce_stats else _NO_BOUNCE,
        bounce_tails=bounce.tails if keep_bounce_stats else _NO_BOUNCE,
        bounce_runs=bounce.runs if keep_bounce_runs else [],
        **{name: getattr(res, name) for name in _RECORD_FIELDS},
    )


def run_cell(s: int, nodes: int, replicas: int, base_seed: int,
             cell_index: int = 0, snapshot_points: int = 20,
             jobs: int = 1, keep_bounce_runs: bool = False,
             keep_bounce_stats: bool = False) -> list[ReplicaSummary]:
    """Run one (s, nodes) cell; replica order in the result is fixed, so any
    merge downstream is independent of execution order.

    With more than one worker (``min(jobs, replicas, os.cpu_count())``), the
    replicas go to the process's one pool (``_shared_pool``) in chunks of
    ``ceil(replicas / (4 * workers))``, the default of
    ``multiprocessing.Pool.map``. A pool that broke since an earlier cell
    is replaced and the cell run again on the new one; a replica is a pure
    function of its task, so the summaries are the same."""
    grid = log_grid(min(100, nodes), nodes, snapshot_points)
    cp_grid = log_grid(min(10, nodes), nodes, 10)
    tasks = [(s, nodes, replica_seed(base_seed, cell_index, r), grid, cp_grid,
              keep_bounce_runs, keep_bounce_stats)
             for r in range(replicas)]
    workers = min(jobs, len(tasks))
    if workers > 1:  # asked only where a pool could start: 5 us a call
        workers = min(workers, os.cpu_count() or 1)
    if workers < 2:
        return [run_replica(*t) for t in tasks]
    # imported here: concurrent.futures loads logging, a few ms that
    # ``import nrrw`` skips
    from concurrent.futures.process import BrokenProcessPool
    chunk = math.ceil(len(tasks) / (4 * workers))
    while True:
        pool, fresh = _shared_pool(workers)
        try:
            return list(pool.map(run_replica, *zip(*tasks), chunksize=chunk))
        except BrokenProcessPool:
            shutdown_pool()
            if fresh:
                raise


# The process pool of pooled cells, kept from the first cell that needs one
# to interpreter exit unless ``_shared_pool`` replaces it: (executor, its
# worker count, the kernel its workers were forked with). Each idle worker
# holds its numpy and kernel pages and the heap its replicas left, up to
# glibc's 64 MiB trim threshold (``engine._fix_heap_thresholds``).
_pool: Optional[tuple] = None


def _shared_pool(workers: int):
    """The process's pool of ``workers`` workers and whether it is new.

    The pool is started on first need, after the kernel has loaded, so the
    forked workers inherit it (or its absence, and its one note). It is
    replaced when a cell asks for another worker count, or when the kernel
    loaded now is not the one the workers were forked with, as after
    ``engine._kernel.cache_clear()``. The workers run the code as it stood
    when they were forked."""
    global _pool
    from concurrent.futures import ProcessPoolExecutor
    kernel = engine._kernel()
    if _pool is not None:
        pool, size, forked_with = _pool
        if size == workers and forked_with is kernel:
            return pool, False
        shutdown_pool()
    _pool = (ProcessPoolExecutor(max_workers=workers), workers, kernel)
    return _pool[0], True


@atexit.register
def shutdown_pool():
    """Stop the process's pool, if one is running, and wait for its
    workers to exit; the next pooled cell starts a new one.

    Also runs at interpreter exit, after ``concurrent.futures`` has joined
    the pool's threads and workers: dropping the last reference to the
    executor there, while the modules its finalizer calls into are still
    loaded, keeps that finalizer from failing during teardown."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[0], None
        pool.shutdown()


def merge_counters(dicts: Sequence[dict]) -> Counter:
    out: Counter = Counter()
    for d in dicts:
        out.update(d)
    return out


def mean_leaf_series(summaries: Sequence[ReplicaSummary]) -> list[tuple[int, float]]:
    """Replica-mean leaf count at each shared grid point."""
    by_n: dict[int, list[int]] = {}
    for s in summaries:
        for n, leaves in s.leaf_series:
            by_n.setdefault(n, []).append(leaves)
    return [(n, sum(v) / len(v)) for n, v in sorted(by_n.items())
            if len(v) == len(summaries)]


# ---------------------------------------------------------------------------
# Verification suites

@dataclass
class SuiteResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)
    failed_replicas: int = field(default=0, repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.runtime_s:.1f}s)"


@dataclass
class VerificationReport:
    suites: list[SuiteResult]
    failed_replicas: int = 0

    @property
    def passed(self) -> bool:
        return self.failed_replicas == 0 and all(s.passed for s in self.suites)

    def lines(self) -> list[str]:
        out = [s.line() for s in self.suites]
        if self.failed_replicas:
            out.append(f"[FAIL] {self.failed_replicas} replicas failed")
        out.append("[PASS] all suites" if self.passed else "[FAIL] some suites")
        return out


SUITES: dict[str, Callable[..., SuiteResult]] = {}


class ReplicasFailed(RuntimeError):
    def __init__(self, failed: list[ReplicaSummary]):
        super().__init__(f"{len(failed)} replicas failed")
        self.failed = failed


def suite_cell(*args, **kwargs) -> list[ReplicaSummary]:
    """``run_cell`` for a suite body: a failed replica raises
    ``ReplicasFailed``, which ends the suite as a failure."""
    summaries = run_cell(*args, **kwargs)
    failed = [r for r in summaries if r.status != "ok"]
    if failed:
        raise ReplicasFailed(failed)
    return summaries


def suite(name: str):
    """Register a suite under ``name``. The body takes the suite's options
    and returns ``(failures, details)``; the registered function times it and
    returns a ``SuiteResult`` that passes iff there are no failures, with
    details ``{"failures": failures, **details}``. A body that runs into
    failed replicas fails with one line per replica and no other details."""
    def register(body):
        @functools.wraps(body)
        def run_suite(**options) -> SuiteResult:
            t0 = time.perf_counter()
            try:
                failures, details = body(**options)
                failed = []
            except ReplicasFailed as exc:
                failed, details = exc.failed, {}
                failures = [f"replica seed={r.seed}: {r.status}"
                            for r in failed]
            return SuiteResult(name, not failures, time.perf_counter() - t0,
                               {"failures": failures, **details}, len(failed))
        SUITES[name] = run_suite
        return run_suite
    return register


def _binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@suite("star-tail")
def suite_star_tail(samples: int = 100_000, seed: int = 2024):
    """Exact enumeration equality for small parameters plus Monte Carlo
    agreement of the star-process degree tail with its closed form."""
    failures = []
    for s in (2, 4):
        for variant in (oracles.NON_ROOT, oracles.ROOT_VARIANT):
            for k in range(1, 5):
                closed = oracles.star_tail_exact(s, k, variant)
                enum = oracles.star_tail_enumerated(s, k, variant)
                if closed != enum:
                    failures.append(f"enumeration mismatch s={s} k={k} "
                                    f"{variant}: {closed} != {enum}")
    spec = oracles.StarProcessSpec(2, oracles.NON_ROOT, max_time=200_001)
    degrees = Counter(oracles.sample_star(spec, seed, samples)[1].tolist())
    worst = 0.0
    tail = stats.empirical_ccdf(degrees, [k + 1 for k in range(1, 11)])
    for k, (_, emp) in enumerate(tail, 1):
        p = oracles.star_tail(2, k)
        dev = abs(emp - p) / _binom_sigma(p, samples)
        worst = max(worst, dev)
        if dev > 3.0:
            failures.append(f"MC tail s=2 k={k}: emp={emp:.5f} vs {p:.5f} "
                            f"({dev:.1f} sigma)")
    # root variant: probability the first step avoids the parent edge is 1/3
    root_spec = oracles.StarProcessSpec(2, oracles.ROOT_VARIANT, max_time=200_001)
    n_first = 20_000
    stop, _ = oracles.sample_star(root_spec, seed + 1, n_first)
    leaf_first = int(np.count_nonzero(stop != 1))
    p_leaf = leaf_first / n_first
    if abs(p_leaf - 1.0 / 3.0) > 3.0 * _binom_sigma(1.0 / 3.0, n_first):
        failures.append(f"root-variant first leaf-step frequency {p_leaf:.4f} "
                        "far from 1/3")
    return failures, {"worst_sigma": worst, "root_first_leaf_freq": p_leaf,
                      "samples": samples}


@suite("t-distribution")
def suite_t_distribution(samples: int = 100_000, seed: int = 2025, s: int = 2):
    """Rational telescoping of the parent-hitting-time pmf, plus Monte Carlo
    total-variation agreement of sampled hitting times."""
    failures = []
    for s_chk in (2, 4, 6, 8):
        for big_k in (0, 3, 7, 23):
            total = sum(oracles.t_pmf_exact(s_chk, k) for k in range(big_k + 1))
            if total + oracles.t_ccdf_exact(s_chk, big_k + 1) != 1:
                failures.append(f"telescoping broken at s={s_chk} K={big_k}")
    cap_k = 20_000
    spec = oracles.StarProcessSpec(s, oracles.NON_ROOT, max_time=2 * cap_k + 2)
    stop, _ = oracles.sample_star(spec, seed, samples)
    censored = int(np.count_nonzero(stop == 0))
    # counts[k]: the runs stopped at time 2k + 1, for k <= cap_k
    counts = np.bincount((stop[stop > 0] - 1) // 2, minlength=cap_k + 1)
    tv = 0.5 * abs(censored / samples - oracles.t_ccdf(s, cap_k + 1))
    for k, count in enumerate(counts.tolist()):
        tv += 0.5 * abs(count / samples - oracles.t_pmf(s, k))
    if tv > 0.02:
        failures.append(f"TV distance {tv:.4f} > 0.02 at s={s}")
    return failures, {"tv": tv, "censored": censored, "samples": samples,
                      "s": s}


@suite("t-expectation")
def suite_t_expectation():
    """Convergence of the mean partial sums to 1 + 2*zeta(s/2), and the s=2
    divergence."""
    failures = []
    details = {}
    for s in (4, 6, 8):
        target = oracles.t_expectation(s)
        blocks = 1000
        prev = oracles.t_mean_partial_sum(s, blocks)
        # adaptive truncation: grow until successive partial sums settle
        while True:
            blocks *= 4
            cur = oracles.t_mean_partial_sum(s, blocks)
            if abs(cur - prev) < 1e-8 or blocks > 10**7:
                break
            prev = cur
        details[f"s{s}"] = {"partial": cur, "target": target, "blocks": blocks}
        if abs(cur - target) > 1e-6:
            failures.append(f"s={s}: partial {cur!r} vs {target!r}")
    # s=2: partial sums exceed any bound; the closed-form resummation makes
    # the astronomically long truncation reachable
    div = oracles.t_mean_partial_sum(2, 2 * 10**11)
    details["s2_partial"] = div
    if not div > 50.0:
        failures.append(f"s=2 partial sum {div} not > 50")
    if oracles.t_expectation(2) != math.inf:
        failures.append("t_expectation(2) should be +inf")
    return failures, details


@suite("leaf-fraction")
def suite_leaf_fraction(s: int = 4, nodes: int = 100_000, replicas: int = 20,
                        seed: int = 101, jobs: int = 1):
    """Replica-mean leaf fraction against the renewal lower bound, plus the
    stochastic domination of renewal gaps by the hitting-time tail."""
    failures = []
    summaries = suite_cell(s, nodes, replicas, seed, jobs=jobs)
    fractions = [r.leaf_count / r.vertex_count for r in summaries]
    mean = sum(fractions) / len(fractions)
    bound = oracles.leaf_fraction_lower_bound(s)
    if mean < bound - 0.02:
        failures.append(f"mean leaf fraction {mean:.4f} < {bound - 0.02:.4f}")
    low = min(fractions)
    if low < 2.0 / 3.0:
        failures.append(f"replica leaf fraction {low:.4f} < 2/3")
    gaps = Counter(g for r in summaries for g in r.renewal_gaps)
    n = sum(gaps.values())
    if gaps:
        tail = stats.empirical_ccdf(gaps, [2 * k + 1 for k in range(30)])
        for k, (_, emp) in enumerate(tail):
            ref = oracles.t_ccdf(s, k)
            if emp < ref - 3.0 * _binom_sigma(ref, n):
                failures.append(f"renewal gap CCDF below hitting-time tail "
                                f"at k={k}: {emp:.4f} < {ref:.4f}")
    return failures, {"mean": mean, "min": low, "bound": bound,
                      "replicas": replicas, "nodes": nodes,
                      "n_gaps": n}


@suite("leaf-fraction-s2")
def suite_leaf_fraction_s2(nodes: int = 1_000_000, replicas: int = 20,
                           seed: int = 103, jobs: int = 1):
    """s=2: replica-mean leaf fraction increases along the snapshot grid and
    clears 0.90 at the final size (pilot-calibrated threshold).

    The monotonicity clause is strict; between late grid points the true
    mean increments are comparable to the replica-mean noise at any replica
    count that fits the runtime budget, so occasional tiny dips fail it."""
    failures = []
    summaries = suite_cell(2, nodes, replicas, seed, jobs=jobs)
    series = mean_leaf_series(summaries)
    fracs = [(n, leaves / n) for n, leaves in series]
    for (n1, f1), (n2, f2) in zip(fracs, fracs[1:]):
        if not f2 > f1:
            failures.append(f"mean leaf fraction not increasing: "
                            f"{f1:.4f}@{n1} -> {f2:.4f}@{n2}")
    final = fracs[-1][1] if fracs else 0.0
    if not final > 0.90:
        failures.append(f"final mean leaf fraction {final:.4f} <= 0.90")
    return failures, {"series": fracs, "final": final, "replicas": replicas,
                      "nodes": nodes}


@suite("geometric-visits")
def suite_geometric_visits(nodes: int = 10_000, replicas: int = 1000,
                           seed: int = 105, jobs: int = 1):
    """s=1 transience consequences: root-arrival counts against the geometric
    tail (2/3)^(k-1), and early last-visit times.

    The visit-count clause counts arrivals at the root from another vertex
    (``root_entries``), the NRRW analogue of the returns whose count the
    lazy-walk oracle bounds with ``GEOMETRIC_RETURN_RATE``. The CCDF of
    every step spent at the root, self-loop traversals included, is only
    reported (``worst_violation``): the process cannot meet the bound on it.
    The first step is a forced self-loop; the second stays with probability
    2/3, and otherwise the walker steps back from vertex 1 with probability
    1/2 at t=3, so P(steps at root >= 2) >= 5/6 > 2/3 for every N >= 4.
    """
    failures = []
    summaries = suite_cell(1, nodes, replicas, seed, jobs=jobs)
    n = len(summaries)
    rate = oracles.GEOMETRIC_RETURN_RATE
    visits = Counter(r.root_visits for r in summaries)
    entries = Counter(r.root_entries for r in summaries)
    top = max(visits)
    report = stats.dominance_check(visits, range(1, top + 2),
                                   lambda k: rate ** (k - 1))
    entry_report = stats.dominance_check(entries, range(1, max(entries) + 2),
                                         lambda k: rate ** (k - 1))
    if not entry_report.passed:
        failures.append(f"root-arrival CCDF above (2/3)^(k-1)+margin; worst "
                        f"violation {entry_report.worst_violation:.4f}")
    last_frac = [r.root_last_visit / r.clock for r in summaries]
    mean_last = sum(last_frac) / n
    if not mean_last < 0.1:
        failures.append(f"mean last-visit fraction {mean_last:.4f} >= 0.1")
    return failures, {"mean_last_visit": mean_last, "max_visits": top,
                      "margin": report.margin,
                      "worst_violation": report.worst_violation,
                      "entries_dominated": entry_report.passed,
                      "entries_worst_violation": entry_report.worst_violation,
                      "replicas": n, "nodes": nodes}


@suite("recurrence")
def suite_recurrence(nodes: int = 100_000, replicas: int = 20,
                     seed: int = 107, jobs: int = 1):
    """s in {2, 4}: root visits and parity changes strictly increase across
    logarithmic checkpoints in every replica."""
    failures = []
    details = {}
    for idx, s in enumerate((2, 4)):
        summaries = suite_cell(s, nodes, replicas, seed, cell_index=idx,
                               jobs=jobs)
        for r in summaries:
            for label, counts in (("J_root", r.root_visits_at),
                                  ("parity changes", r.parity_changes_at)):
                if any(b <= a for a, b in zip(counts, counts[1:])):
                    failures.append(f"s={s} seed={r.seed}: {label} not "
                                    f"strictly increasing: {counts}")
        details[f"s{s}_root_visits_last"] = [r.root_visits for r in summaries]
    return failures, {**details, "replicas": replicas, "nodes": nodes}


@suite("bounce")
def suite_bounce(nodes: int = 100_000, replicas: int = 20, seed: int = 109,
                 max_k: int = 30, jobs: int = 1):
    """Pooled consecutive two-step-return frequencies against the exact
    product bound, degree by degree: one ``stats.dominance_check`` for each
    degree that ``bounce_suspects`` cannot rule out, in ascending order."""
    failures = []
    summaries = suite_cell(2, nodes, replicas, seed, jobs=jobs,
                           keep_bounce_stats=True)
    table = bounce_table(summaries, max_k)
    worst = 0.0
    for d in bounce_suspects(table, max_k).tolist():
        returns = np.flatnonzero(table[d])
        hist = dict(zip(returns.tolist(), table[d, returns].tolist()))
        n_d = sum(hist.values())
        bounds = oracles.bounce_bounds(d, max_k)
        report = stats.dominance_check(hist, range(1, max_k + 1),
                                       lambda k: bounds[k - 1])
        worst = max(worst, report.worst_violation)
        failures.extend(f"d={d} k={k}: freq {p:.4f} > bound {limit:.4f} "
                        f"(n={n_d})" for k, p, limit in report.violations)
    degrees = int(np.count_nonzero(table.any(axis=1)))
    return failures[:10], {"checked": degrees * max_k,
                           "worst_gap": worst,
                           "degrees": degrees, "replicas": replicas,
                           "nodes": nodes}


def bounce_table(summaries: Sequence[ReplicaSummary],
                 max_k: int) -> np.ndarray:
    """The replicas' pooled anchors as a (degree x returns) count table:
    ``table[d, k]`` counts the anchors of degree ``d`` followed by ``k``
    returns, with ``k`` capped at ``max_k``, which leaves the return-count
    CCDF on 1..max_k as it is. The table is only as wide as the largest
    capped count present, so a large ``max_k`` allocates nothing extra."""
    degree = np.concatenate([r.bounce_anchors for r in summaries])
    returns = np.concatenate([r.bounce_tails for r in summaries])
    width = min(max_k, int(returns.max(initial=0))) + 1
    cells = degree.astype(np.int64) * width + np.minimum(returns, width - 1)
    rows = int(degree.max(initial=0)) + 1
    return np.bincount(cells, minlength=rows * width).reshape(rows, width)


def bounce_suspects(table: np.ndarray, max_k: int) -> np.ndarray:
    """The anchor degrees of a ``bounce_table``, ascending, whose
    return-count CCDF might exceed the bounce bound plus the DKW margin at
    some k <= max_k.

    Every other degree passes ``stats.dominance_check``: it has p(d, k) <=
    floor(d, k) + margin(d) at every k, where p is the check's own
    quotient of integers and the floor is ``oracles.bounce_bound_floor``,
    below the bound, so p is also under the check's limit (rounded addition
    is monotone). p is 0 past the table's last column and the floor does
    not grow with k, so there p is tested only at k = max_k.
    """
    n = table.sum(axis=1)
    degree = np.flatnonzero(n)
    n = n[degree]
    sizes, index = np.unique(n, return_inverse=True)
    margin = np.array([stats.dkw_margin(m) for m in sizes.tolist()])[index]
    # at_least[:, k - 1]: anchors of each degree followed by k returns or more
    at_least = np.cumsum(table[degree, :0:-1], axis=1)[:, ::-1]
    k = np.arange(1, table.shape[1])
    over = at_least / n[:, None] > (
        oracles.bounce_bound_floor(degree[:, None], k) + margin[:, None])
    suspect = over.any(axis=1)
    suspect |= oracles.bounce_bound_floor(degree, max_k) + margin < 0
    return degree[suspect]


@suite("invariants")
def suite_invariants(seed: int = 111):
    """Exact per-step structural laws on a batch of small runs, plus the
    deterministic-replay contract."""
    failures = []
    cases = [(1, 200), (2, 200), (3, 120), (4, 150), (5, 80), (6, 120)]
    for i, (s, n) in enumerate(cases):
        config = SimConfig(s, n, seed=replica_seed(seed, 0, i))
        errs = check_invariants(config)
        failures.extend(f"s={s} n={n}: {e}" for e in errs)
        lines_a = engine.edge_list_lines(engine.run(config)[0], config)
        lines_b = engine.edge_list_lines(engine.run(config)[0], config)
        if lines_a != lines_b:
            failures.append(f"s={s} n={n}: replay not byte-identical")
    return failures, {"cases": cases}


def check_invariants(config: SimConfig) -> list[str]:
    """Run ``config`` and check its arrays against the process's exact laws,
    and every statistic of its record, which the kernel takes as it steps,
    against ``stats.derive_record`` of the arrays, on ``run_cell``'s grids;
    returns violation messages."""
    errors: list[str] = []
    s, n = config.step_parameter, config.target_nodes
    grids = log_grid(min(100, n), n, 20), log_grid(min(10, n), n, 10)
    res = collect_run(config, *grids)
    parent, positions = res.parent, res.positions
    total = config.total_steps
    if len(parent) != n or len(positions) != total:
        return [f"run has {len(parent)} vertices and {len(positions)} steps"]
    if np.any((positions < 0) | (positions >= n)):
        return ["walker position outside the vertex labels"]
    labels = np.arange(1, n)
    if np.any((parent[1:] < 0) | (parent[1:] >= labels)):
        errors.append("parent pointer not older than the vertex")
        return errors
    times = np.arange(1, total + 1)
    if np.any(positions > (times - 1) // s):
        errors.append("walker visits a vertex born after the step began")
    prev = np.concatenate(([ROOT], positions[:-1]))
    stays = prev == positions
    along_edge = (parent[positions] == prev) | (parent[prev] == positions)
    if np.any(stays & (positions != ROOT)):
        errors.append("walker stays put away from the root")
    if not np.all(stays | along_edge):
        errors.append("step does not follow an edge")
    if np.any(parent[1:] != positions[labels * s - 1]):
        errors.append("attached parent is not the walker's position")
    # parity of depth + clock flips exactly on self-loop traversals
    depth = stats.depths(parent)
    parity = (depth[positions] + times) % 2
    flips = np.flatnonzero(np.diff(np.concatenate(([0], parity))))
    if not np.array_equal(flips, np.flatnonzero(stays)):
        errors.append("parity flips do not coincide with self-loop traversals")
    if res.parity_changes != int(stays.sum()):
        errors.append("parity change count differs from self-loop count")
    if s % 2 == 0 and n >= 2:
        # between two consecutive parity changes all attached depths share
        # one parity
        epoch = np.cumsum(stays)[labels * s - 1]
        mixed = (np.diff(epoch) == 0) & (np.diff(depth[1:] % 2) != 0)
        if np.any(mixed):
            errors.append(f"attachment parity mixed within epochs "
                          f"{sorted(set(epoch[1:][mixed].tolist()))}")
    degrees = stats.walk_degrees(parent)
    if int(np.sum(degrees[1:] >= 2)) + 1 != n - res.leaf_count:
        errors.append("non-leaf count identity violated")
    derived = stats.derive_record(config, parent, positions, *grids)
    errors.extend(f"{name} differs from the arrays" for name in _RECORD_FIELDS
                  if getattr(res, name) != getattr(derived, name))
    return errors


@suite("depth-dichotomy")
def suite_depth_dichotomy(nodes: int = 10_000, replicas: int = 10,
                          seed: int = 113, jobs: int = 1):
    """Qualitative transient-vs-recurrent shape split: s=1 trees run much
    deeper than s=2 trees at equal size."""
    failures = []
    deep = suite_cell(1, nodes, replicas, seed, cell_index=0, jobs=jobs)
    flat = suite_cell(2, nodes, replicas, seed, cell_index=1, jobs=jobs)
    mean_deep = sum(r.max_depth for r in deep) / len(deep)
    mean_flat = sum(r.max_depth for r in flat) / len(flat)
    ratio = mean_deep / mean_flat
    if not ratio > 5.0:
        failures.append(f"depth ratio {ratio:.2f} <= 5")
    return failures, {"mean_depth_s1": mean_deep, "mean_depth_s2": mean_flat,
                      "ratio": ratio}


def verify(suite_name: str, **options) -> VerificationReport:
    """Run one suite; an unknown suite, an option it does not take or an
    out-of-range cell option is a ``UsageError``."""
    if suite_name not in SUITES:
        raise UsageError(f"unknown suite {suite_name!r}; "
                         f"available: {sorted(SUITES)}")
    accepted = list(inspect.signature(SUITES[suite_name]).parameters)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise UsageError(f"suite {suite_name!r} does not take {unknown}; "
                         f"it takes {accepted}")
    _require_least(options, {"s": 2, "nodes": 2, "replicas": 1, "seed": 0,
                             "jobs": 1, "samples": 1, "max_k": 1})
    # both suites that take s compare it against the even-s oracles
    if options.get("s", 2) % 2:
        raise UsageError(f"s must be even, got {options['s']}")
    result = SUITES[suite_name](**options)
    return VerificationReport([result], result.failed_replicas)


# ---------------------------------------------------------------------------
# Experiment driver

def output_root(default: str) -> Path:
    """The artifact directory, created if missing: ``NRRW_OUT`` if set and
    not empty, else ``default``."""
    path = Path(os.environ.get("NRRW_OUT") or default)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_stats(path: Path, degrees: dict[int, int], leaves: list[str],
                runs: Sequence[tuple[int, int]],
                visits: Optional[list[str]] = None):
    """Write the CSVs of one run or of a cell's merged replicas: degrees and
    ccdf of the ``degrees`` histogram, the ``leaves`` lines, the bounce
    ``runs`` and, for a single run, the ``visits`` lines."""
    write_lines(path / "degrees.csv", stats.degrees_csv(degrees))
    write_lines(path / "ccdf.csv",
                stats.ccdf_csv(stats.empirical_ccdf(degrees)))
    write_lines(path / "leaves.csv", leaves)
    if visits is not None:
        write_lines(path / "visits.csv", visits)
    write_lines(path / "bounces.csv", stats.bounces_csv(runs))


def run_experiment(spec: ExperimentSpec) -> VerificationReport:
    """Execute every cell of the experiment, write artifacts, then run the
    requested verification suites."""
    root = output_root(spec.output_dir)
    cell_reports = []
    failed_replicas = 0
    for ci, (s, nodes) in enumerate(spec.cells):
        cell_dir = root / f"cell_s{s}_n{nodes}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        summaries = run_cell(s, nodes, spec.replicas, spec.base_seed,
                             cell_index=ci,
                             snapshot_points=spec.snapshot_points,
                             jobs=spec.jobs, keep_bounce_runs=True)
        failed = [r for r in summaries if r.status != "ok"]
        failed_replicas += len(failed)
        ok = [r for r in summaries if r.status == "ok"]
        if ok:
            write_stats(cell_dir,
                        dict(merge_counters([r.degree_counts for r in ok])),
                        stats.leaves_csv(mean_leaf_series(ok), "{:.6f}"),
                        [rl for r in ok for rl in r.bounce_runs])
        write_lines(cell_dir / "replicas.jsonl", [json.dumps({
            "seed": r.seed, "status": r.status,
            "leaf_fraction": (r.leaf_count / r.vertex_count
                              if r.vertex_count else None),
            "max_depth": r.max_depth, "root_visits": r.root_visits,
            "parity_changes": r.parity_changes,
            "steps_per_second": round(r.steps_per_second, 1),
        }) for r in summaries])
        cell_reports.append({"cell": [s, nodes], "replicas": spec.replicas,
                             "failed": len(failed)})
    suite_results = [
        SUITES[name](**({"jobs": spec.jobs} if "jobs" in
                        inspect.signature(SUITES[name]).parameters else {}))
        for name in spec.checks]
    report = VerificationReport(suite_results, failed_replicas + sum(
        r.failed_replicas for r in suite_results))
    payload = {"cells": cell_reports,
               "suites": [{"name": r.name, "passed": r.passed,
                           "runtime_s": round(r.runtime_s, 2),
                           "details": _jsonable(r.details)}
                          for r in suite_results],
               "passed": report.passed}
    write_lines(root / "report.json", [json.dumps(payload, indent=2)])
    write_lines(root / "report.txt", report.lines())
    return report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def write_lines(path: Path, lines: Sequence[str]):
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write artifact {path}: {exc}") from exc

"""Batch driver: replicated runs, deterministic merging, verification suites
and artifact export."""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine, oracles, stats
from .engine import ROOT, ConfigError, SimConfig
from .stats import RunStats, collect_run, log_grid


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

@dataclass
class ReplicaSummary:
    """Picklable per-replica aggregate, merged across replicas by the driver."""

    seed: int
    status: str = "ok"
    clock: int = 0
    vertex_count: int = 0
    leaf_count: int = 0
    max_depth: int = 0
    root_visits: int = 0
    root_entries: int = 0
    root_last_visit: int = 0
    parity_changes: int = 0
    steps_per_second: float = 0.0
    degree_counts: dict[int, int] = field(default_factory=dict)
    leaf_series: list[tuple[int, int]] = field(default_factory=list)
    checkpoints: list[dict] = field(default_factory=list)
    renewal_gaps: list[int] = field(default_factory=list)
    bounce_anchors: dict[int, int] = field(default_factory=dict)
    bounce_tails: dict[tuple[int, int], int] = field(default_factory=dict)
    bounce_runs: list[tuple[int, int]] = field(default_factory=list)


def run_replica(s: int, nodes: int, seed: int,
                snapshot_grid: Optional[Sequence[int]] = None,
                checkpoint_grid: Optional[Sequence[int]] = None,
                keep_bounce_runs: bool = False,
                keep_bounce_stats: bool = False) -> ReplicaSummary:
    config = SimConfig(s, nodes, seed)
    t0 = time.perf_counter()
    try:
        res = collect_run(config, snapshot_grid, checkpoint_grid)
    except engine.ResourceExhausted as exc:
        return ReplicaSummary(seed=seed,
                              status=f"failed({exc})",
                              clock=exc.clock,
                              vertex_count=exc.vertices_built)
    # the (degree, run) tail counter can hold ~10^6 keys at large N; suites
    # that never read the bounce statistics skip deriving and shipping them
    bounce = res.bounce if keep_bounce_stats or keep_bounce_runs else None
    elapsed = max(time.perf_counter() - t0, 1e-9)
    return ReplicaSummary(
        seed=seed,
        clock=config.total_steps,
        vertex_count=len(res.parent),
        leaf_count=res.leaf_count,
        max_depth=res.max_depth,
        root_visits=res.root_visits,
        root_entries=res.root_entries,
        root_last_visit=res.root_last_visit,
        parity_changes=res.parity_changes,
        steps_per_second=config.total_steps / elapsed,
        degree_counts=res.degree_counts,
        leaf_series=res.leaf_series,
        checkpoints=res.checkpoints,
        renewal_gaps=res.renewal_gaps,
        bounce_anchors=bounce.anchors if keep_bounce_stats else {},
        bounce_tails=bounce.tails if keep_bounce_stats else {},
        bounce_runs=bounce.runs if keep_bounce_runs else [],
    )


def _worker(args) -> ReplicaSummary:
    return run_replica(*args)


def run_cell(s: int, nodes: int, replicas: int, base_seed: int,
             cell_index: int = 0, snapshot_points: int = 20,
             jobs: int = 1, keep_bounce_runs: bool = False,
             keep_bounce_stats: bool = False) -> list[ReplicaSummary]:
    """Run one (s, nodes) cell; replica order in the result is fixed, so any
    merge downstream is independent of execution order."""
    grid = log_grid(min(100, nodes), nodes, snapshot_points)
    cp_grid = log_grid(min(10, nodes), nodes, 10)
    tasks = [(s, nodes, replica_seed(base_seed, cell_index, r), grid, cp_grid,
              keep_bounce_runs, keep_bounce_stats)
             for r in range(replicas)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_worker, tasks))
    return [run_replica(*t) for t in tasks]


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


def suite(name: str):
    """Register a suite under ``name``. The body takes the suite's options
    and returns ``(failures, details)``; the registered function times it and
    returns a ``SuiteResult`` that passes iff there are no failures, with
    details ``{"failures": failures, **details}``."""
    def register(body):
        @functools.wraps(body)
        def run_suite(**options) -> SuiteResult:
            t0 = time.perf_counter()
            failures, details = body(**options)
            return SuiteResult(name, not failures, time.perf_counter() - t0,
                               {"failures": failures, **details})
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
    rng = engine.PrngStream(seed)
    spec = oracles.StarProcessSpec(2, oracles.NON_ROOT, max_time=200_001)
    degrees = Counter(oracles.simulate_star(spec, rng).center_degree
                      for _ in range(samples))
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
    rng2 = engine.PrngStream(seed + 1)
    n_first = 20_000
    leaf_first = sum(oracles.simulate_star(root_spec, rng2).stop_time != 1
                     for _ in range(n_first))
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
    rng = engine.PrngStream(seed)
    counts: Counter = Counter()
    censored = 0
    for _ in range(samples):
        res = oracles.simulate_star(spec, rng)
        if res.stop_time is None:
            censored += 1
        else:
            counts[(res.stop_time - 1) // 2] += 1
    tv = 0.5 * abs(censored / samples - oracles.t_ccdf(s, cap_k + 1))
    for k in range(cap_k + 1):
        tv += 0.5 * abs(counts.get(k, 0) / samples - oracles.t_pmf(s, k))
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
    summaries = run_cell(s, nodes, replicas, seed, jobs=jobs)
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
    summaries = run_cell(2, nodes, replicas, seed, jobs=jobs)
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
    summaries = run_cell(1, nodes, replicas, seed, jobs=jobs)
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
        summaries = run_cell(s, nodes, replicas, seed, cell_index=idx,
                             jobs=jobs)
        for r in summaries:
            cps = r.checkpoints
            j_root = [cp["visits"][ROOT] for cp in cps]
            parity = [cp["parity_changes"] for cp in cps]
            if any(b <= a for a, b in zip(j_root, j_root[1:])):
                failures.append(f"s={s} seed={r.seed}: J_root not strictly "
                                f"increasing: {j_root}")
            if any(b <= a for a, b in zip(parity, parity[1:])):
                failures.append(f"s={s} seed={r.seed}: parity changes not "
                                f"strictly increasing: {parity}")
        details[f"s{s}_root_visits_last"] = [r.root_visits for r in summaries]
    return failures, {**details, "replicas": replicas, "nodes": nodes}


@suite("bounce")
def suite_bounce(nodes: int = 100_000, replicas: int = 20, seed: int = 109,
                 max_k: int = 30, jobs: int = 1):
    """Pooled consecutive two-step-return frequencies against the exact
    product bound, degree by degree."""
    failures = []
    summaries = run_cell(2, nodes, replicas, seed, jobs=jobs,
                         keep_bounce_stats=True)
    anchors = merge_counters([r.bounce_anchors for r in summaries])
    # returns[d]: histogram of the number of returns after a degree-d anchor
    returns: dict[int, dict[int, int]] = defaultdict(dict)
    for (d, k), c in merge_counters([r.bounce_tails
                                     for r in summaries]).items():
        returns[d][k] = c
    worst = 0.0
    for d, n_d in anchors.items():
        hist = returns[d]
        hist[0] = n_d - sum(hist.values())
        bounds = oracles.bounce_bounds(d, max_k)
        report = stats.dominance_check(hist, range(1, max_k + 1),
                                       lambda k: bounds[k - 1])
        worst = max(worst, report.worst_violation)
        failures.extend(f"d={d} k={k}: freq {p:.4f} > bound {limit:.4f} "
                        f"(n={n_d})" for k, p, limit in report.violations)
    return failures[:10], {"checked": len(anchors) * max_k,
                           "worst_gap": worst,
                           "degrees": len(anchors), "replicas": replicas,
                           "nodes": nodes}


@suite("invariants")
def suite_invariants(seed: int = 111):
    """Exact per-step structural laws on a batch of small runs, plus the
    deterministic-replay contract."""
    failures = []
    cases = [(1, 200), (2, 200), (3, 120), (4, 150), (5, 80), (6, 120)]
    for i, (s, n) in enumerate(cases):
        config = SimConfig(s, n, seed=seed + i)
        errs = check_invariants(config)
        failures.extend(f"s={s} n={n}: {e}" for e in errs)
        lines_a = engine.edge_list_lines(engine.run(config)[0], config)
        lines_b = engine.edge_list_lines(engine.run(config)[0], config)
        if lines_a != lines_b:
            failures.append(f"s={s} n={n}: replay not byte-identical")
    return failures, {"cases": cases}


def check_invariants(config: SimConfig) -> list[str]:
    """Run ``config`` and check its arrays against the process's exact laws;
    returns violation messages."""
    errors: list[str] = []
    s, n = config.step_parameter, config.target_nodes
    res = collect_run(config)
    parent, positions = res.parent, res.positions
    total = config.total_steps
    if len(parent) != n or len(positions) != total:
        return [f"run has {len(parent)} vertices and {len(positions)} steps"]
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
    depth = np.array(stats.depths(parent))
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
    if int(degrees.sum()) != 2 * (n - 1) + 2:
        errors.append("degree sum identity violated")
    if int(res.visits.sum()) != total:
        errors.append("visit ledger does not sum to the clock")
    if int(np.sum(degrees[1:] >= 2)) + 1 != n - res.leaf_count:
        errors.append("non-leaf count identity violated")
    if n >= 2 and degrees[ROOT] < 3:
        errors.append("root degree below 3 after first attachment")
    return errors


@suite("depth-dichotomy")
def suite_depth_dichotomy(nodes: int = 10_000, replicas: int = 10,
                          seed: int = 113, jobs: int = 1):
    """Qualitative transient-vs-recurrent shape split: s=1 trees run much
    deeper than s=2 trees at equal size."""
    failures = []
    deep = run_cell(1, nodes, replicas, seed, cell_index=0, jobs=jobs)
    flat = run_cell(2, nodes, replicas, seed, cell_index=1, jobs=jobs)
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
    return VerificationReport([SUITES[suite_name](**options)])


# ---------------------------------------------------------------------------
# Experiment driver

def output_root(default: str) -> Path:
    """The artifact directory, created if missing: ``NRRW_OUT`` if set,
    else ``default``."""
    path = Path(os.environ.get("NRRW_OUT", default))
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_run_stats(path: Path, res: RunStats):
    """Write one run's degrees, ccdf, leaves, visits and bounces CSVs."""
    counts = res.degree_counts
    write_lines(path / "degrees.csv", stats.degrees_csv(counts))
    write_lines(path / "ccdf.csv", stats.ccdf_csv(stats.empirical_ccdf(counts)))
    write_lines(path / "leaves.csv", stats.leaves_csv(res.leaf_series))
    write_lines(path / "visits.csv", stats.visits_csv(res))
    write_lines(path / "bounces.csv", stats.bounces_csv(res.bounce.runs))


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
            degrees = merge_counters([r.degree_counts for r in ok])
            write_lines(cell_dir / "degrees.csv",
                        stats.degrees_csv(dict(degrees)))
            write_lines(cell_dir / "ccdf.csv",
                        stats.ccdf_csv(stats.empirical_ccdf(dict(degrees))))
            series = mean_leaf_series(ok)
            write_lines(cell_dir / "leaves.csv",
                        ["n,leaves"] + [f"{n},{v:.6f}" for n, v in series])
            runs = [rl for r in ok for rl in r.bounce_runs]
            write_lines(cell_dir / "bounces.csv", stats.bounces_csv(runs))
        with open(cell_dir / "replicas.jsonl", "w") as f:
            for r in summaries:
                f.write(json.dumps({
                    "seed": r.seed, "status": r.status,
                    "leaf_fraction": (r.leaf_count / r.vertex_count
                                      if r.vertex_count else None),
                    "max_depth": r.max_depth, "root_visits": r.root_visits,
                    "parity_changes": r.parity_changes,
                    "steps_per_second": round(r.steps_per_second, 1),
                }) + "\n")
        cell_reports.append({"cell": [s, nodes], "replicas": spec.replicas,
                             "failed": len(failed)})
    suite_results = [
        SUITES[name](**({"jobs": spec.jobs} if "jobs" in
                        inspect.signature(SUITES[name]).parameters else {}))
        for name in spec.checks]
    report = VerificationReport(suite_results, failed_replicas)
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

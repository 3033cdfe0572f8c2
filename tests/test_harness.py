"""Experiment driver, verification plumbing and the command line interface."""

import concurrent.futures
import dataclasses
import hashlib
import inspect
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nrrw import cli, engine, harness, oracles, stats
from nrrw.harness import (
    ExperimentSpec, ReplicaSummary, SuiteResult, UsageError,
    VerificationReport, check_invariants, mean_leaf_series, merge_counters,
    replica_seed, run_cell, run_replica, verify,
)
from nrrw.engine import ROOT, SimConfig
from nrrw.stats import log_grid

import reference


def bounce_counts(summary: ReplicaSummary) -> tuple[dict, dict]:
    """The per-anchor bounce arrays folded into the histograms that
    summaries carried before: {degree: anchors} and {(degree, returns):
    anchors} for returns >= 1."""
    anchors = summary.bounce_anchors.tolist()
    tails = summary.bounce_tails.tolist()
    return (dict(Counter(anchors)),
            dict(Counter((d, k) for d, k in zip(anchors, tails) if k)))


class Exhausted:
    """A bit stream that runs out of memory when the kernel reads its
    state: patched in for ``engine.bit_stream``, it makes every replica
    fail."""

    @property
    def bit_generator(self):
        raise MemoryError


# the timings in an experiment's artifacts: each suite's runtime_s
# (report.json and report.txt) and each replica's steps_per_second
TIMINGS = re.compile(r'"runtime_s": [0-9.]+|"steps_per_second": '
                     r'[0-9.e+]+|\([0-9]+\.[0-9]s\)')


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of each file in ``directory`` with its TIMINGS removed."""
    return {p.name: hashlib.sha256(TIMINGS.sub("", p.read_text()).encode())
            .hexdigest() for p in sorted(directory.iterdir())}


# the summary fields test_summary_pinned hashes, in the order they were
# pinned; a new field joins the tuple, which changes the pin on purpose
PINNED_FIELDS = (
    "seed", "status", "clock", "vertex_count", "leaf_count", "max_depth",
    "root_visits", "root_entries", "root_last_visit", "parity_changes",
    "degree_counts", "leaf_series", "root_visits_at", "parity_changes_at",
    "renewal_gaps", "bounce_anchors", "bounce_tails", "bounce_runs")


def summary_digest(summary: ReplicaSummary) -> str:
    """SHA-256 over every summary field but the timing, in the order of
    ``PINNED_FIELDS``, dicts in key order and the bounce arrays as
    ``bounce_counts``' histograms."""
    assert ({f.name for f in dataclasses.fields(summary)}
            - {"steps_per_second"} == set(PINNED_FIELDS))
    folded = dict(zip(["bounce_anchors", "bounce_tails"],
                      bounce_counts(summary)))
    h = hashlib.sha256()
    for name in PINNED_FIELDS:
        value = folded.get(name, getattr(summary, name))
        if isinstance(value, dict):
            value = sorted(value.items())
        h.update(json.dumps([name, value]).encode())
    return h.hexdigest()


# any JSON value, and a valid value for each experiment-file key
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["invariants", "out", "20"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
SPEC_VALUES = {
    "replicas": st.integers(1, 4),
    "base_seed": st.integers(0, 2**70),
    "checks": st.lists(st.sampled_from(["invariants", "bounce"]), max_size=2),
    "output_dir": st.just("out"),
    "snapshot_points": st.integers(1, 30),
    "jobs": st.integers(1, 3),
}


@st.composite
def spec_objects(draw):
    """A spec as a JSON object, valid but for some zero-sized cells, with up
    to two keys (maybe unknown ones) then set to arbitrary JSON."""
    cells = st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2),
                     min_size=1, max_size=2)
    raw = draw(st.fixed_dictionaries({"cells": cells}, optional=SPEC_VALUES))
    for key in draw(st.lists(st.sampled_from(["cells", *SPEC_VALUES,
                                              "extra"]), max_size=2)):
        raw[key] = draw(JSON_VALUES)
    return raw


class TestSeedDerivation:
    def test_deterministic(self):
        assert replica_seed(5, 0, 3) == replica_seed(5, 0, 3)

    def test_distinct_cells_and_replicas(self):
        seeds = {replica_seed(5, c, r) for c in range(4) for r in range(8)}
        assert len(seeds) == 32

    def test_stable_under_extension(self):
        # appending replicas or cells never changes earlier seeds
        before = [replica_seed(9, 0, r) for r in range(3)]
        after = [replica_seed(9, 0, r) for r in range(6)][:3]
        assert before == after


# the environment of a fresh interpreter that imports nrrw from this tree
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"),
     os.environ.get("PYTHONPATH", "")])}
# the summary fields a pooled cell must carry unchanged: all but the timing
VALUE_FIELDS = [f.name for f in dataclasses.fields(ReplicaSummary)
                if f.name != "steps_per_second"]


def values(summary: ReplicaSummary) -> list:
    return [v.tolist() if isinstance(v, np.ndarray) else v
            for v in (getattr(summary, name) for name in VALUE_FIELDS)]


def recorded_pool(calls: list):
    """A ``ProcessPoolExecutor`` that appends the keyword arguments of its
    construction and of each ``map`` call to ``calls``."""
    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            calls.append(kwargs)
            super().__init__(**kwargs)

        def map(self, *args, **kwargs):
            calls.append(kwargs)
            return super().map(*args, **kwargs)
    return Recorded


@pytest.fixture
def fresh_pool(monkeypatch):
    """Stop the process's pool before and after the test, so the test
    starts its own and later tests do not inherit it; two CPUs, so that a
    cell on two workers starts a pool on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    harness.shutdown_pool()
    yield
    harness.shutdown_pool()


class TestReplicaRuns:
    def test_summary_fields(self):
        summary = run_replica(2, 200, seed=1, snapshot_grid=[100, 200])
        assert summary.status == "ok"
        assert summary.vertex_count == 200
        assert summary.clock == 2 * 199
        assert summary.leaf_count == summary.leaf_series[-1][1]
        assert summary.steps_per_second > 0
        assert sum(summary.degree_counts.values()) == 200

    def test_run_cell_reproducible(self):
        a = run_cell(2, 100, replicas=3, base_seed=7)
        b = run_cell(2, 100, replicas=3, base_seed=7)
        assert [r.seed for r in a] == [r.seed for r in b]
        assert [r.leaf_count for r in a] == [r.leaf_count for r in b]

    def test_summary_pinned(self):
        # pinned when the statistics were streamed per step, and re-pinned
        # when the checkpoint dicts became the root_visits_at and
        # parity_changes_at lists (the old summary reshaped hashes the
        # same); any change to the random stream or to a statistic's
        # definition changes it
        summary = run_replica(2, 2000, 7, log_grid(100, 2000, 20),
                              log_grid(10, 2000, 10), keep_bounce_runs=True,
                              keep_bounce_stats=True)
        assert summary.bounce_runs and summary.bounce_tails.any()
        assert summary_digest(summary) == (
            "38f0a28fa6bbd0a3b673124ce602655f3dedad807d7110fad2700ada8664797e")

    def test_bounce_counts_pinned(self):
        # the per-anchor arrays, folded back into the {degree: anchors} and
        # {(degree, returns): anchors} dicts the summaries carried before,
        # hash to the value those dicts gave (25,840 tail keys); a summary
        # digest that printed the arrays through str() would see only their
        # ends
        seed = replica_seed(1, 0, 0)
        summary = run_replica(2, 30_000, seed, keep_bounce_stats=True)
        anchors, tails = bounce_counts(summary)
        assert (len(anchors), len(tails)) == (10_271, 25_840)
        digest = hashlib.sha256(json.dumps(
            [sorted(anchors.items()), sorted(tails.items())]).encode())
        assert digest.hexdigest() == (
            "ed869c8c7254fea781bb8bc3ed644bd3b67f213c38121d0c97141277ac12c952")

    def test_summaries_without_bounce_stats_share_one_empty_array(self):
        a, b = run_cell(2, 3, replicas=2, base_seed=1)
        for r in (a, b, ReplicaSummary(seed=0)):
            assert r.bounce_anchors is r.bounce_tails is a.bounce_anchors
        assert a.bounce_anchors.size == 0
        assert not a.bounce_anchors.flags.writeable
        with_stats = run_replica(2, 300, 1, keep_bounce_stats=True)
        copy = pickle.loads(pickle.dumps(with_stats))
        for name in ("bounce_anchors", "bounce_tails"):
            value = getattr(copy, name)
            assert isinstance(value, np.ndarray) and value.dtype == np.int32
            assert value.tolist() == getattr(with_stats, name).tolist()

    def test_import_loads_neither_the_pool_nor_hashlib(self):
        # concurrent.futures (and the logging it loads) comes with the
        # first pool, hashlib with the first kernel load
        code = ("import sys, nrrw; print([m for m in ('concurrent.futures', "
                "'logging', 'hashlib') if m in sys.modules])")
        child = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                               capture_output=True, text=True, timeout=60)
        assert (child.stdout, child.stderr) == ("[]\n", "")

    def test_pooled_summaries_equal_in_process_ones(self, monkeypatch,
                                                   fresh_pool):
        flags = dict(keep_bounce_stats=True, keep_bounce_runs=True)
        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recorded_pool(calls))
        local = run_cell(2, 2000, 3, 5, jobs=1, **flags)
        pooled = run_cell(2, 2000, 3, 5, jobs=2, **flags)
        assert any(r.bounce_runs and r.bounce_tails.any() for r in local)
        assert [values(r) for r in pooled] == [values(r) for r in local]
        # later cells of other shapes reuse the one pool; 13 replicas on two
        # workers go in chunks of ceil(13 / 8) = 2, the last chunk holding
        # one, and 20 in chunks of 3
        for s, nodes, replicas in [(1, 400, 13), (2, 300, 20), (1, 400, 2)]:
            pooled = run_cell(s, nodes, replicas, 5, jobs=2)
            assert ([values(r) for r in pooled] == [
                values(r) for r in run_cell(s, nodes, replicas, 5, jobs=1)])
        assert calls == [{"max_workers": 2}, {"chunksize": 1},
                         {"chunksize": 2}, {"chunksize": 3}, {"chunksize": 1}]
        # a cell of fewer than two replicas uses no pool (None would raise
        # a TypeError)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        harness.shutdown_pool()
        assert run_cell(1, 400, 0, 5, jobs=2) == []
        one, = run_cell(1, 400, 1, 5, jobs=2)
        assert values(one) == values(pooled[0])
        # a failed replica keeps the record's default in every record field
        monkeypatch.setattr(engine, "bit_stream", lambda seed: Exhausted())
        failed, = run_cell(2, 2000, 1, 5, **flags)
        assert failed.status.startswith("failed(")
        default = stats.RunRecord()
        for f in dataclasses.fields(stats.RunRecord):
            assert getattr(failed, f.name) == getattr(default, f.name), f.name

    def test_a_killed_worker_is_replaced(self, monkeypatch, fresh_pool):
        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recorded_pool(calls))
        expected = [values(r) for r in run_cell(1, 400, 9, 5, jobs=1)]
        assert [values(r) for r in run_cell(1, 400, 9, 5, jobs=2)] == expected
        pool = harness._pool[0]
        old = set(pool._processes)
        killed = pool._processes[min(old)]
        os.kill(killed.pid, signal.SIGKILL)
        # the next map must meet the broken pool, not its surviving worker:
        # wait until the executor has seen the death
        killed.join(timeout=30)
        deadline = time.monotonic() + 30
        while not pool._broken:
            assert time.monotonic() < deadline, "the pool never broke"
            time.sleep(0.01)
        assert [values(r) for r in run_cell(1, 400, 9, 5, jobs=2)] == expected
        # the map on the broken pool fails, then the cell runs on a new one
        assert calls == [{"max_workers": 2}, {"chunksize": 2},
                         {"chunksize": 2},
                         {"max_workers": 2}, {"chunksize": 2}]
        assert not old & set(harness._pool[0]._processes)

    def test_workers_never_outnumber_the_cpus(self, monkeypatch, fresh_pool):
        # a stub pool that maps in this process: no worker is started
        made = []

        class Stub:
            def __init__(self, max_workers):
                made.append(max_workers)

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

            def shutdown(self):
                made.append("shutdown")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Stub)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        expected = [values(r) for r in run_cell(1, 50, 8, 5, jobs=1)]
        assert [values(r) for r in run_cell(1, 50, 8, 5,
                                            jobs=100_000)] == expected
        run_cell(1, 50, 2, 5, jobs=100_000)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one
        assert [values(r) for r in run_cell(1, 50, 8, 5,
                                            jobs=100_000)] == expected
        assert made == [3, "shutdown", 2]

    def test_a_cell_that_cannot_pool_never_counts_the_cpus(self, monkeypatch):
        def cpu_count():
            raise AssertionError("a cell in one process asked os.cpu_count")

        monkeypatch.setattr(os, "cpu_count", cpu_count)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert len(run_cell(2, 50, 3, 5, jobs=1)) == 3
        assert len(run_cell(2, 50, 1, 5, jobs=2)) == 1

    def test_exit_stops_the_workers(self):
        # in a fresh interpreter: cells in process load no pool module; a
        # pooled cell's workers are gone once the interpreter has exited,
        # and the exit prints nothing
        code = ("import os, sys; from nrrw import harness; "
                "os.cpu_count = lambda: 2; "
                "harness.run_cell(1, 400, 1, 5, jobs=2); "
                "harness.run_cell(1, 400, 3, 5, jobs=1); "
                "print('concurrent.futures' in sys.modules); "
                "harness.run_cell(1, 400, 6, 5, jobs=2); "
                "print(*harness._pool[0]._processes)")
        child = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                               capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stderr) == (0, "")
        loaded, pids = child.stdout.splitlines()
        assert loaded == "False"
        pids = [int(p) for p in pids.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_merge_counters(self):
        merged = merge_counters([{1: 2, 3: 1}, {1: 1}])
        assert merged == {1: 3, 3: 1}

    def test_mean_leaf_series_uses_shared_points_only(self):
        a = ReplicaSummary(seed=0, leaf_series=[(10, 5), (20, 12)])
        b = ReplicaSummary(seed=1, leaf_series=[(10, 7)])
        assert mean_leaf_series([a, b]) == [(10, 6.0)]


def truncate(res):
    res.positions = res.positions[:-1]


def misplace(position):
    def change(res):
        res.positions[10] = position
    return change


def make_parent(vertex, value):
    def change(res):
        res.parent[vertex] = value
    return change


def stay_off_the_root(res):
    i = int(np.flatnonzero(res.positions != ROOT)[0])
    res.positions[i + 1] = res.positions[i]


def jump_to_the_root(res):
    # from a grandchild of the root: no edge, and depth + clock flips parity
    # without a self-loop traversal
    depth = stats.depths(res.parent)
    i = int(np.flatnonzero(depth[res.positions] == 2)[0])
    res.positions[i + 1] = ROOT


def regraft_within_an_epoch(res):
    # vertex v moves up a level while no self-loop traversal separates its
    # attachment from vertex v - 1's
    s, pos, parent = 2, res.positions, res.parent
    v = next(v for v in range(2, len(parent))
             if ROOT not in pos[(v - 1) * s:v * s])
    parent[v] = parent[parent[v]]


def add_to(name):
    def change(res):
        setattr(res, name, getattr(res, name) + 1)
    return change


def add_a_leaf(res):
    res.degree_counts[1] += 1


class TestInvariantChecker:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_clean_runs(self, s):
        assert check_invariants(SimConfig(s, 150, seed=21)) == []

    # one corruption of an s=2, N=150 run per law, each reported by it
    @pytest.mark.parametrize("change, message", [
        (truncate, "run has 150 vertices and 297 steps"),
        (misplace(-1), "walker position outside the vertex labels"),
        (misplace(150), "walker position outside the vertex labels"),
        (make_parent(5, 5), "parent pointer not older than the vertex"),
        (misplace(149), "walker visits a vertex born after the step began"),
        (stay_off_the_root, "walker stays put away from the root"),
        (jump_to_the_root, "step does not follow an edge"),
        (make_parent(50, 49), "attached parent is not the walker's position"),
        (jump_to_the_root,
         "parity flips do not coincide with self-loop traversals"),
        (add_to("parity_changes"),
         "parity change count differs from self-loop count"),
        (regraft_within_an_epoch, "attachment parity mixed within epochs"),
        (add_to("leaf_count"), "non-leaf count identity violated"),
        (add_to("max_depth"), "max_depth differs from the arrays"),
        (add_a_leaf, "degree counts do not sum to n vertices, 2n ends and "
                     "leaf_count leaves"),
    ], ids=["truncated", "position-1", "position-n", "parent-not-older",
            "position-unborn", "stay-off-root", "no-edge", "parent-moved",
            "parity-flip", "parity-count", "epoch-mixed", "leaf-count",
            "record-field", "degree-counts"])
    def test_each_law_reports_its_violation(self, monkeypatch, change,
                                            message):
        collect = harness.collect_run

        def corrupted(config, *grids):
            res = collect(config, *grids)
            change(res)
            return res
        monkeypatch.setattr(harness, "collect_run", corrupted)
        errors = check_invariants(SimConfig(2, 150, seed=21))
        assert any(e.startswith(message) for e in errors), errors


class TestVerificationPlumbing:
    def test_report_lines(self):
        report = VerificationReport([
            SuiteResult("a", True, 0.5), SuiteResult("b", False, 1.0)])
        assert not report.passed
        assert report.lines()[0] == "[PASS] a (0.5s)"
        assert report.lines()[-1] == "[FAIL] some suites"

    def test_unknown_suite(self):
        with pytest.raises(UsageError):
            verify("no-such-suite")

    def test_invariants_suite_passes(self):
        report = verify("invariants")
        assert report.passed

    def test_invariants_suite_takes_the_largest_seed(self):
        # each case's seed is derived from the suite's, as a cell's replica
        # seeds are; the suite's seed plus the case index would not fit in
        # 64 bits
        assert verify("invariants", seed=2**64 - 1).passed
        result = CliRunner().invoke(cli.main, [
            "verify", "--suite", "invariants", "--seed", str(2**64 - 1)])
        assert result.exit_code == 0, result.output

    def test_bounce_suite_reads_the_bounce_statistics(self):
        # run_cell derives them only on request; without them the suite
        # would check nothing and pass
        result = verify("bounce", nodes=400, replicas=2, max_k=4).suites[0]
        assert result.details["degrees"] > 0
        assert result.details["checked"] == 4 * result.details["degrees"]

    @pytest.mark.parametrize("name, options, details", [
        ("bounce", {"nodes": 3000, "replicas": 2, "seed": 5},
         {"failures": [], "checked": 89700, "worst_gap": 0.0,
          "degrees": 2990, "replicas": 2, "nodes": 3000}),
        ("geometric-visits", {"nodes": 300, "replicas": 40, "seed": 5},
         {"failures": [], "mean_last_visit": 0.03361204013377926,
          "max_visits": 15, "margin": 0.25734989232919925,
          "worst_violation": 0.07320566322635635, "entries_dominated": True,
          "entries_worst_violation": 0.0, "replicas": 40, "nodes": 300}),
        ("leaf-fraction", {"nodes": 2000, "replicas": 3, "seed": 5},
         {"failures": [], "mean": 0.9483333333333334, "min": 0.929,
          "bound": 0.76689260162904, "replicas": 3, "nodes": 2000,
          "n_gaps": 304}),
        ("star-tail", {"samples": 3000, "seed": 5},
         {"failures": [], "worst_sigma": 1.5491933384829704,
          "root_first_leaf_freq": 0.3343, "samples": 3000}),
        # 3000 samples over 20,001 bins: the TV distance fails the 0.02 bound
        ("t-distribution", {"samples": 3000, "seed": 5},
         {"failures": ["TV distance 0.0495 > 0.02 at s=2"],
          "tv": 0.049457971354160364, "censored": 0, "samples": 3000,
          "s": 2}),
    ])
    def test_suite_details_pinned(self, name, options, details):
        # pinned before the suites' tails moved onto stats.empirical_ccdf
        assert verify(name, **options).suites[0].details == details

    def test_bounce_suite_reports_violations(self, monkeypatch):
        monkeypatch.setattr(stats, "dkw_margin", lambda n: -0.05)
        result = verify("bounce", nodes=3000, replicas=2, seed=5).suites[0]
        assert not result.passed
        assert result.details["failures"] == [
            "d=4 k=1: freq 0.9429 > bound 0.8250 (n=35)",
            "d=4 k=2: freq 0.8000 > bound 0.7375 (n=35)",
            "d=10 k=11: freq 0.6400 > bound 0.6260 (n=25)",
            "d=11 k=4: freq 0.8261 > bound 0.7982 (n=23)",
            "d=11 k=5: freq 0.7826 > bound 0.7699 (n=23)",
            "d=11 k=7: freq 0.7391 > bound 0.7209 (n=23)",
            "d=11 k=8: freq 0.7391 > bound 0.6995 (n=23)",
            "d=11 k=9: freq 0.7391 > bound 0.6798 (n=23)",
            "d=11 k=10: freq 0.7391 > bound 0.6615 (n=23)",
            "d=11 k=11: freq 0.6522 > bound 0.6446 (n=23)"]
        assert result.details["worst_gap"] == 0.15687692827234712
        assert result.details["checked"] == 89700

    def test_leaf_fraction_reports_gap_tail_violations(self, monkeypatch):
        tail = {2: 0.9, 9: 0.6, 29: 0.5}
        monkeypatch.setattr(oracles, "t_ccdf", lambda s, k: tail.get(k, 0.0))
        result = verify("leaf-fraction", nodes=2000, replicas=3,
                        seed=5).suites[0]
        assert result.details["failures"] == [
            f"renewal gap CCDF below hitting-time tail at k={k}: {emp} < "
            f"{tail[k]:.4f}" for k, emp in ((2, "0.6678"), (9, "0.4079"),
                                            (29, "0.1645"))]

    @pytest.mark.parametrize("name, key, value", [
        ("leaf-fraction", "replicas", 0), ("geometric-visits", "nodes", 1),
        ("bounce", "nodes", 1), ("recurrence", "nodes", 1),
        ("depth-dichotomy", "seed", -1), ("depth-dichotomy", "jobs", 0),
        ("t-distribution", "s", 3), ("leaf-fraction", "s", 0),
        ("star-tail", "samples", 0), ("bounce", "max_k", 0),
    ])
    def test_rejects_out_of_range_options(self, name, key, value):
        with pytest.raises(UsageError, match=f"^{key} must be"):
            verify(name, **{key: value})

    @pytest.mark.parametrize("name", [
        name for name, run_suite in harness.SUITES.items()
        if "jobs" in inspect.signature(run_suite).parameters])
    def test_failed_replicas_fail_the_suite(self, name, monkeypatch):
        def exhausted(config, *grids):
            raise engine.ResourceExhausted("out of memory at clock 0", 1, 0)

        monkeypatch.setattr(harness, "collect_run", exhausted)
        report = verify(name, nodes=200, replicas=3, seed=5, jobs=1)
        assert report.suites[0].details == {"failures": [
            f"replica seed={replica_seed(5, 0, r)}: failed(out of memory at "
            "clock 0)" for r in range(3)]}
        assert not report.suites[0].passed
        assert report.failed_replicas == 3
        assert report.lines()[-2:] == ["[FAIL] 3 replicas failed",
                                       "[FAIL] some suites"]

    def test_rejects_options_the_suite_does_not_take(self):
        with pytest.raises(UsageError, match=r"\['s'\].*'nodes'"):
            verify("recurrence", s=3)
        with pytest.raises(UsageError, match="jobs"):
            verify("invariants", jobs=2)


def bounce_summaries(seed: int, replicas: int = 3) -> list[ReplicaSummary]:
    """Replicas with random per-anchor bounce arrays: each anchors a random
    subset of degrees 1..40, in random order, and each anchor is followed
    by a geometric number of returns that continues with probability
    max(0, 1 - 1/(2cd)), c in [0.3, 3): under the bound's rate for c < 1,
    over it for c > 1."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(replicas):
        anchors, tails = [], []
        for d in rng.permutation(40)[:rng.integers(1, 40)].tolist():
            d += 1
            count = int(rng.integers(1, 60))
            leave = min(1.0, 1.0 / (2.0 * rng.uniform(0.3, 3.0) * d))
            anchors += [d] * count
            tails += (rng.geometric(leave, size=count) - 1).tolist()
        out.append(ReplicaSummary(
            seed=r, bounce_anchors=np.array(anchors, dtype=np.int32),
            bounce_tails=np.array(tails, dtype=np.int32)))
    return out


def anchor_arrays(*anchors: tuple[int, int]) -> dict[str, np.ndarray]:
    """ReplicaSummary bounce fields from (degree, returns) anchors."""
    degree, returns = zip(*anchors)
    return {"bounce_anchors": np.array(degree, dtype=np.int32),
            "bounce_tails": np.array(returns, dtype=np.int32)}


class TestBounceRuleOut:
    """The bounce suite skips the degrees a numpy pass rules out; its details
    must equal those of one dominance check on every degree."""

    def check(self, monkeypatch, summaries, max_k, margin=None):
        if margin is not None:
            monkeypatch.setattr(stats, "dkw_margin", lambda n: margin)
        monkeypatch.setattr(harness, "run_cell",
                            lambda *args, **kwargs: summaries)
        details = verify("bounce", max_k=max_k).suites[0].details
        expected = reference.bounce_check(summaries, max_k)
        assert {k: details[k] for k in expected} == expected
        return details

    @pytest.mark.parametrize("margin", [None, 0.0, -0.05, -0.6])
    @pytest.mark.parametrize("max_k", [1, 5, 30])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_check_on_every_degree(self, monkeypatch, seed, max_k,
                                             margin):
        summaries = bounce_summaries(seed)
        self.check(monkeypatch, summaries, max_k, margin)
        suspects = harness.bounce_suspects(
            harness.bounce_table(summaries, max_k), max_k).tolist()
        for d, (_, report) in reference.bounce_reports(summaries,
                                                       max_k).items():
            assert d in suspects or report.passed

    def test_edge_cases(self, monkeypatch):
        # d=1: 2 of 4 anchors return once, so p(1) = 1/2 = bound + margin,
        # a tie; d=2: both anchors return more than max_k times; d=3: none
        # returns
        tie = ReplicaSummary(seed=0, **anchor_arrays(
            (1, 1), (1, 1), (1, 0), (1, 0), (2, 40), (2, 40), (3, 0), (3, 0)))
        assert self.check(monkeypatch, [tie], 3, margin=0.0)["failures"] == [
            "d=2 k=1: freq 1.0000 > bound 0.7500 (n=2)",
            "d=2 k=2: freq 1.0000 > bound 0.6250 (n=2)",
            "d=2 k=3: freq 1.0000 > bound 0.5469 (n=2)"]
        tie.bounce_tails[2] = 1
        assert self.check(monkeypatch, [tie], 3, margin=0.0)["failures"][0] \
            == "d=1 k=1: freq 0.7500 > bound 0.5000 (n=4)"
        # with a negative margin p = 0 fails where the bound is under -margin
        details = self.check(monkeypatch, [tie], 3, margin=-0.7)
        assert details["failures"][-1] == (
            "d=3 k=3: freq 0.0000 > bound -0.0437 (n=2)")
        # the same where no anchor returns, so the pooled table has no
        # column for k >= 1
        still = ReplicaSummary(seed=0, **anchor_arrays((3, 0), (3, 0)))
        assert self.check(monkeypatch, [still], 3, margin=-0.7)[
            "failures"] == ["d=3 k=3: freq 0.0000 > bound -0.0437 (n=2)"]


class TestExperimentSpec:
    def test_from_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "cells": [[2, 50]], "replicas": 2, "base_seed": 3,
            "checks": ["invariants"], "output_dir": str(tmp_path / "out")}))
        spec = ExperimentSpec.from_json(path)
        assert spec.cells == [(2, 50)]
        assert spec.replicas == 2

    def test_validation(self, tmp_path):
        with pytest.raises(UsageError):
            ExperimentSpec(cells=[])
        with pytest.raises(UsageError):
            ExperimentSpec(cells=[(2, 50)], replicas=0)
        with pytest.raises(UsageError):
            ExperimentSpec(cells=[(2, 50)], checks=["no-such-suite"])

    @pytest.mark.parametrize("raw, key", [
        ({"cells": [[2, 50]], "repliccas": 2}, "repliccas"),
        ({"cells": [[2, 50]], "replicas": "20"}, "replicas"),
        ({"cells": [[2, 50]], "base_seed": 1.5}, "base_seed"),
        ({"cells": [[2, 50]], "snapshot_points": True}, "snapshot_points"),
        ({"cells": [[2, 50]], "jobs": None}, "jobs"),
        ({"cells": [[2, 50, 7]]}, "cells"),
        ({"cells": [2, 50]}, "cells"),
        ({"cells": [[2, "50"]]}, "cells"),
        ({"cells": [[0, 50]]}, "cells"),
        ({"cells": [[2, 50]], "checks": [["invariants"]]}, "checks"),
        ({"cells": [[2, 50]], "output_dir": 7}, "output_dir"),
    ])
    def test_from_json_names_the_bad_key(self, tmp_path, raw, key):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(UsageError, match=key):
            ExperimentSpec.from_json(path)

    @settings(max_examples=300, deadline=None)
    @given(spec_objects())
    def test_from_json_loads_or_raises_usage_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.json"
            path.write_text(json.dumps(raw))
            try:
                spec = ExperimentSpec.from_json(path)
            except UsageError:
                return
        assert spec.cells == [tuple(c) for c in raw["cells"]]

    def test_run_experiment_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        spec = ExperimentSpec(cells=[(2, 60)], replicas=2, base_seed=1,
                              output_dir=str(tmp_path / "out"))
        report = harness.run_experiment(spec)
        assert report.passed  # no checks requested
        cell = tmp_path / "out" / "cell_s2_n60"
        for name in ("degrees.csv", "ccdf.csv", "leaves.csv", "bounces.csv",
                     "replicas.jsonl"):
            assert (cell / name).exists()
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["passed"]
        lines = (cell / "replicas.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "ok"

    def test_unwritable_replicas_file_is_named(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        target = tmp_path / "cell_s2_n60" / "replicas.jsonl"
        target.mkdir(parents=True)
        spec = ExperimentSpec(cells=[(2, 60)], replicas=1,
                              output_dir=str(tmp_path))
        with pytest.raises(OSError, match="cannot write artifact "
                           + re.escape(str(target))):
            harness.run_experiment(spec)

    def test_failed_replica_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)

        monkeypatch.setattr(engine, "bit_stream", lambda seed: Exhausted())
        spec = ExperimentSpec(cells=[(2, 60)], replicas=2, base_seed=1,
                              output_dir=str(tmp_path / "out"))
        report = harness.run_experiment(spec)
        assert not report.passed
        assert report.lines()[-2:] == ["[FAIL] 2 replicas failed",
                                       "[FAIL] some suites"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["cells"][0]["failed"] == 2
        assert not payload["passed"]
        line = (tmp_path / "out" / "cell_s2_n60" / "replicas.jsonl").read_text()
        assert json.loads(line.splitlines()[0])["status"].startswith("failed(")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"cells": [[2, 60]], "replicas": 1,
                                    "output_dir": str(tmp_path / "cli")}))
        result = CliRunner().invoke(cli.main, ["experiment", "--config",
                                               str(path), "--jobs", "1"])
        assert result.exit_code == 1
        assert "[FAIL] 1 replicas failed" in result.output

    def test_run_experiment_artifacts_pinned(self, tmp_path, monkeypatch):
        # the cell's files but for the TIMINGS, computed at the commit before
        # the statistics became one record
        monkeypatch.delenv("NRRW_OUT", raising=False)
        spec = ExperimentSpec(cells=[(2, 120)], replicas=3, base_seed=4,
                              output_dir=str(tmp_path))
        assert harness.run_experiment(spec).passed
        assert file_digests(tmp_path / "cell_s2_n120") == {
            "bounces.csv": "50c251a413e88cc082213505930d7466b6782fa296ca1d91edbea2e591a1eaaa",
            "ccdf.csv": "b4a80d6fc796192633bb4cabbb8cbb983c0b540c0ff78678776f2a6a4c9dd445",
            "degrees.csv": "9643af46d1332dd1e62cdc4b96a391275e92972137410aee6eac3b0c83799beb",
            "leaves.csv": "4be3ca012a86f586209b227ac1c82a4e8fe107761d7d8476b776039eeb81afb5",
            "replicas.jsonl": "8fd899ac24da16634e8e927272e61a9ca22583014c9256a124feb2203dc9d667",
        }

    def test_rerun_artifacts_are_byte_identical(self, tmp_path, monkeypatch):
        # byte for byte but the TIMINGS
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runs = []
        for sub in ("a", "b"):
            spec = ExperimentSpec(cells=[(1, 80), (2, 120)], replicas=3,
                                  base_seed=4,
                                  checks=["invariants", "depth-dichotomy"],
                                  output_dir=str(tmp_path / sub))
            assert harness.run_experiment(spec).passed
            runs.append({p.relative_to(tmp_path / sub):
                         TIMINGS.sub("", p.read_text())
                         for p in (tmp_path / sub).rglob("*") if p.is_file()})
        assert len(runs[0]) == 12  # five files per cell, two reports
        assert runs[0] == runs[1]


class TestCli:
    def test_simulate(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runner = CliRunner()
        out = tmp_path / "sim"
        result = runner.invoke(cli.main, [
            "simulate", "--s", "2", "--nodes", "50", "--seed", "3",
            "--trajectory", "--out", str(out)])
        assert result.exit_code == 0, result.output
        edges = (out / "edges.txt").read_text().splitlines()
        assert edges[0] == "# nrrw s=2 n=50 seed=3"
        assert edges[1] == "0 0"
        assert (out / "trajectory.csv").exists()

    def test_simulate_artifacts_pinned(self, tmp_path, monkeypatch):
        # computed at the commit before the statistics became one record;
        # these files hold no timings
        monkeypatch.delenv("NRRW_OUT", raising=False)
        result = CliRunner().invoke(cli.main, [
            "simulate", "--s", "2", "--nodes", "300", "--seed", "3",
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert file_digests(tmp_path) == {
            "bounces.csv": "1d1f8177598b4b556d901f54100c857359fc4c472d1a2b8fee5f838ec162711e",
            "ccdf.csv": "272e0fefcf1db99dfbe434176a8b064c391f7cc41dbf3f8e2afd0ce3c2774817",
            "degrees.csv": "9f186f94982599c609f2cad437c1d5a7a5d043e50661afdb186ee0c083982f0d",
            "edges.txt": "9bd05ea1da117d65b97ecdb3832f7d3b65d50fc4e60f68465c89b31159fc996f",
            "leaves.csv": "ab161eee2be6cf12ea08b17c2a1dc3395a8709f5f10cae264f655fb763db2a7b",
            "visits.csv": "e5f1bdca627334de33d4944e12c68280eabdac1479436ab57084a21b2e162000",
        }

    def test_simulate_treats_an_empty_nrrw_out_as_unset(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = CliRunner(env={"NRRW_OUT": ""}).invoke(cli.main, [
            "simulate", "--s", "2", "--nodes", "20", "--out", "some/dir"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "some" / "dir" / "edges.txt").exists()
        assert not (tmp_path / "edges.txt").exists()

    def test_simulate_warns_on_odd_s(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runner = CliRunner()
        result = runner.invoke(cli.main, [
            "simulate", "--s", "3", "--nodes", "20",
            "--out", str(tmp_path / "sim3")])
        assert result.exit_code == 0
        assert "exploratory" in result.output

    def test_export_tree_edgelist_and_dot(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runner = CliRunner()
        out = tmp_path / "exp"
        for fmt, name in (("edgelist", "edges.txt"), ("dot", "tree.dot")):
            result = runner.invoke(cli.main, [
                "export", "--what", "tree", "--format", fmt,
                "--s", "2", "--nodes", "30", "--seed", "4",
                "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert (out / name).exists()
        dot = (out / "tree.dot").read_text()
        assert dot.startswith("graph nrrw {")
        assert "0 -- 0;" in dot

    def test_export_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runner = CliRunner()
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(cli.main, [
                "export", "--what", "tree", "--format", "edgelist",
                "--s", "2", "--nodes", "200", "--seed", "8",
                "--out", str(out)])
            assert result.exit_code == 0
            texts.append((out / "edges.txt").read_bytes())
        assert texts[0] == texts[1]

    def test_export_rejects_bad_combination(self, tmp_path):
        out = tmp_path / "sub"
        for what, fmt in [("tree", "csv"), ("stats", "edgelist"),
                          ("stats", "dot")]:
            result = CliRunner().invoke(cli.main, [
                "export", "--what", what, "--format", fmt,
                "--s", "2", "--nodes", "10", "--out", str(out)])
            assert result.exit_code == 2, result.output
            assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--s", "0", "--nodes", "5"], "step_parameter must be"),
        (["simulate", "--s", "2", "--nodes", "5", "--seed", "-1"],
         "seed must fit"),
        (["export", "--what", "tree", "--format", "dot", "--s", "2",
          "--nodes", "0"], "target_nodes must be"),
        (["oracle", "t-pmf", "--s", "3"], "step parameter must be even"),
        (["oracle", "t-ccdf", "--s", "0"], "step parameter must be even"),
        (["oracle", "t-expectation", "--s", "5"], "step parameter must be"),
        (["oracle", "star-tail", "--s", "1"], "step parameter must be even"),
        (["oracle", "bounce-bound", "--d0", "0"], "d0 must be >= 1"),
        (["verify", "--suite", "leaf-fraction", "--s", "3"], "s must be even"),
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, args, message):
        if args[0] != "oracle" and args[0] != "verify":
            args = args + ["--out", str(tmp_path)]
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert message in result.output
        assert "k,p" not in result.output

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["simulate", "export", "verify"]),
           st.sampled_from([("tree", "edgelist"), ("tree", "dot"),
                            ("stats", "csv"), ("tree", "csv")]),
           st.integers(-1, 4), st.integers(-1, 12), st.integers(-1, 3),
           st.integers(-2, 3) | st.integers(2**64 - 2, 2**64 + 1),
           st.integers(-1, 1))
    def test_cli_exits_cleanly(self, command, export_as, s, nodes, replicas,
                               seed, jobs):
        # every run ends in exit 0, 1 or 2; a usage error (2) says so
        with tempfile.TemporaryDirectory() as tmp:
            if command == "verify":
                args = ["verify", "--suite", "depth-dichotomy", "--nodes",
                        nodes, "--replicas", replicas, "--seed", seed,
                        "--jobs", jobs]
            else:
                args = [command, "--s", s, "--nodes", nodes, "--seed", seed,
                        "--out", tmp]
                if command == "export":
                    args += ["--what", export_as[0], "--format", export_as[1]]
            result = CliRunner(env={"NRRW_OUT": None}).invoke(
                cli.main, [str(a) for a in args])
        assert isinstance(result.exception, (SystemExit, type(None))), (
            repr(result.exception))
        assert result.exit_code in (0, 1, 2), result.output
        if result.exit_code == 2:
            assert "Usage:" in result.output

    def test_oracle_commands(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["oracle", "t-pmf", "--s", "2",
                                          "--kmax", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["k,p", "0,0.5",
                                              "1,0.166666666667",
                                              "2,0.0833333333333"]
        result = runner.invoke(cli.main, ["oracle", "t-expectation",
                                          "--s", "4"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].startswith("4,4.2898681")
        result = runner.invoke(cli.main, ["oracle", "bounce-bound",
                                          "--d0", "2", "--kmax", "1"])
        assert result.output.splitlines()[1].startswith("1,0.75,1.414")

    def test_without_a_compiler_only_the_oracles_run(self, tmp_path,
                                                     monkeypatch, no_compiler):
        # cells on two workers: no pool may start either
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        harness.shutdown_pool()
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"cells": [[2, 40]], "replicas": 2,
                                    "output_dir": str(tmp_path / "exp")}))
        run = ["--s", "2", "--nodes", "50", "--out", str(tmp_path / "out")]
        runner = CliRunner(env={"NRRW_OUT": None})
        error = "nrrw needs gcc to build its step kernel: gcc not found\n"
        for args in (["simulate", *run],
                     ["export", "--what", "tree", "--format", "dot", *run],
                     ["export", "--what", "stats", "--format", "csv", *run],
                     ["verify", "--suite", "invariants"],
                     ["verify", "--suite", "star-tail"],
                     ["experiment", "--config", str(spec), "--jobs", "2"]):
            result = runner.invoke(cli.main, args)
            assert isinstance(result.exception, SystemExit), args
            assert (result.exit_code, result.stdout, result.stderr) == (
                1, "", error), args
        assert harness._pool is None
        result = runner.invoke(cli.main, ["oracle", "star-tail", "--s", "2",
                                          "--kmax", "2"])
        assert (result.exit_code, result.stdout) == (0, "k,p\n1,1\n2,0.5\n")

    def test_verify_command(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["verify", "--suite", "invariants"])
        assert result.exit_code == 0, result.output
        assert "[PASS] invariants" in result.output
        result = runner.invoke(cli.main, ["verify", "--suite", "nope"])
        assert result.exit_code != 0
        result = runner.invoke(cli.main, ["verify", "--suite", "star-tail",
                                          "--jobs", "2"])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert "does not take ['jobs']" in result.output
        assert "'samples', 'seed'" in result.output

    def test_experiment_command(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "cells": [[2, 40]], "replicas": 2,
            "output_dir": str(tmp_path / "out")}))
        runner = CliRunner()
        result = runner.invoke(cli.main, ["experiment", "--config", str(path),
                                          "--jobs", "1"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "report.txt").exists()
        result = runner.invoke(cli.main, ["experiment", "--config", str(path),
                                          "--jobs", "0"])
        assert result.exit_code == 2
        assert "jobs must be >= 1, got 0" in result.output
        path.write_text(json.dumps({"cells": [[2, 40]], "replicas": "2"}))
        result = runner.invoke(cli.main, ["experiment", "--config", str(path)])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert "replicas must be int, got '2'" in result.output

"""Per-run statistics against a reference stepper, empirical distribution
machinery and serialization."""

import dataclasses
import math
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrrw import engine
from nrrw.engine import ROOT, PrngStream, SimConfig, run, trajectory_lines
from nrrw.harness import run_replica
from nrrw.stats import (
    EmptyHistogramError, bounces_csv, ccdf_csv, collect_run, degrees_csv,
    depths, dkw_margin, dominance_check, empirical_ccdf, leaves_csv,
    log_grid, visits_csv,
)


class Tree:
    """A plain list tree for the reference stepper: parent, children and
    depth per vertex, in birth order."""

    def __init__(self):
        self.parent, self.children, self.depth = [-1], [[]], [0]

    def attach(self, pos):
        self.children[pos].append(len(self.parent))
        self.parent.append(pos)
        self.children.append([])
        self.depth.append(self.depth[pos] + 1)


def reference_run(s, n, seed):
    """The step rule one step at a time on its own PrngStream: at the root
    draws 0 and 1 take the self-loop and the rest pick a child in birth
    order; elsewhere draw 0 is the parent edge. Returns the tree and the
    position after every step."""
    tree, rng, pos, steps = Tree(), PrngStream(seed), ROOT, []
    for t in range(1, s * (n - 1) + 1):
        ch = tree.children[pos]
        if pos == ROOT:
            i = rng.randbelow(2 + len(ch))
            pos = ROOT if i < 2 else ch[i - 2]
        else:
            i = rng.randbelow(1 + len(ch))
            pos = tree.parent[pos] if i == 0 else ch[i - 1]
        steps.append(pos)
        if t % s == 0 and len(tree.parent) < n:
            tree.attach(pos)
    return tree, steps


def reference_summary(s, n, tree, steps, grid, cp_grid):
    """Every ReplicaSummary statistic, streamed over the steps in time
    order, plus the visit ledger."""
    visits, kids = [0] * n, [0] * n
    out = {"root_entries": 0, "root_last_visit": 0, "parity_changes": 0,
           "leaf_series": [], "root_visits_at": [], "parity_changes_at": []}
    leaves, marks, prev = 0, [], ROOT
    anchors, follow, runs = [], [], []
    run_degs, even_pos, even_deg, first = [], None, 0, 0

    def reached(m, t):  # the tree has just reached m vertices
        if m in grid:
            out["leaf_series"].append((m, leaves))
        if m in cp_grid:
            out["root_visits_at"].append(visits[ROOT])
            out["parity_changes_at"].append(out["parity_changes"])

    def close_run(degs):
        if len(degs) >= 2:
            runs.append((degs[0], len(degs) - 1))

    reached(1, 0)
    for t, pos in enumerate(steps, 1):
        visits[pos] += 1
        if pos == ROOT:
            out["root_last_visit"] = t
            key = "parity_changes" if prev == ROOT else "root_entries"
            out[key] += 1
        if t % s == 0:  # vertex t // s attaches at pos
            if pos != ROOT and kids[pos] == 0:
                marks.append(t)
            else:
                leaves += 1
            kids[pos] += 1
            reached(t // s + 1, t)
        if t % 2 == 0 and t >= s:
            d = kids[pos] + (2 if pos == ROOT else 1)
            if pos == even_pos:
                run_degs = (run_degs or [even_deg]) + [d]
                # a return: one more follows every anchor since the arrival
                for j in range(first, len(follow)):
                    follow[j] += 1
            else:
                close_run(run_degs)
                run_degs, first = [], len(follow)
            anchors.append(d)
            follow.append(0)
            even_pos, even_deg = pos, d
        prev = pos
    close_run(run_degs)
    degrees = Counter((2 if v == ROOT else 1) + len(ch)
                      for v, ch in enumerate(tree.children))
    out.update(clock=len(steps), vertex_count=len(tree.parent),
               leaf_count=leaves, max_depth=max(tree.depth),
               root_visits=visits[ROOT], degree_counts=dict(degrees),
               renewal_gaps=[b - a for a, b in zip(marks, marks[1:])],
               bounce_anchors=anchors, bounce_tails=follow, bounce_runs=runs)
    return out, visits


def visit_counts(res):
    """The visit ledger: the count column of ``visits_csv``."""
    return [int(line.split(",")[1]) for line in visits_csv(res)[1:]]


class TestReferenceStepper:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_summary_matches_reference(self, s, n):
        grid, cp_grid = log_grid(min(100, n), n, 20), log_grid(min(10, n), n, 10)
        for seed in (3, 17, 2 ** 63 + 5):
            tree, steps = reference_run(s, n, seed)
            want, ledger = reference_summary(s, n, tree, steps, grid, cp_grid)
            got = run_replica(s, n, seed, grid, cp_grid, keep_bounce_runs=True,
                              keep_bounce_stats=True)
            assert got.status == "ok"
            # every summary field but the seed, status and timing has an
            # independent streamed value
            assert set(want) == {f.name for f in dataclasses.fields(got)} - {
                "seed", "status", "steps_per_second"}
            for name, value in want.items():
                got_value = getattr(got, name)
                if isinstance(got_value, np.ndarray):
                    got_value = got_value.tolist()
                assert got_value == value, name
            res = collect_run(SimConfig(s, n, seed))
            assert visit_counts(res) == ledger
            assert res.parent.tolist() == tree.parent
            assert res.positions.tolist() == steps

    def test_stream_spans_draw_chunks(self):
        # 39,999 steps: the reference refills PrngStream's 32,768-draw
        # buffer, the engine draws them in one call
        tree, steps = reference_run(1, 40_000, 5)
        parent, positions = run(SimConfig(1, 40_000, 5))
        assert parent.tolist() == tree.parent
        assert positions.tolist() == steps


class TestCollectors:
    def test_minimal_run(self):
        # s=2, N=2: two forced self-loop steps, one attachment to the root
        res = collect_run(SimConfig(2, 2, seed=0))
        assert visit_counts(res) == [2, 0]
        assert res.root_last_visit == 2
        assert visits_csv(res)[1].endswith(",2")  # first attachment at t=2
        assert res.leaf_count == 1
        assert res.leaf_count / len(res.parent) == 0.5
        assert res.renewal_gaps == []
        assert res.root_entries == 0
        assert res.parity_changes == 2

    def test_visit_ledger_sums_to_clock(self):
        for s in (1, 2, 3):
            config = SimConfig(s, 300, seed=8)
            res = collect_run(config)
            assert sum(visit_counts(res)) == config.total_steps

    def test_leaf_count_plus_internal_matches(self):
        res = collect_run(SimConfig(2, 500, seed=9))
        parents = set(res.parent[1:].tolist())
        leaves = sum(1 for v in range(1, len(res.parent)) if v not in parents)
        assert res.leaf_count == leaves

    # the kernel grid's shapes, and a tree over 10,000 levels deep
    @pytest.mark.parametrize("s, n", [
        (s, n) for s in (1, 2, 3, 4, 6) for n in (1, 2, 3, 37, 3000, 70000)
    ] + [(1, 200_000)])
    def test_depths_match_a_loop_over_the_parents(self, monkeypatch, s, n):
        parent, _ = run(SimConfig(s, n, seed=21))
        par, expected = parent.tolist(), [0] * n
        for v in range(1, n):
            expected[v] = expected[par[v]] + 1
        read_only = parent.copy()
        read_only.flags.writeable = False
        for tree in (parent, read_only, parent.astype(np.int32)):
            assert depths(tree).tolist() == expected  # the kernel's pass
        monkeypatch.setattr(engine, "_kernel", lambda: None)
        assert depths(parent).tolist() == expected  # pointer jumping
        if n == 200_000:
            assert max(expected) > 10_000  # many pointer-jumping passes

    @pytest.mark.skipif(shutil.which("gcc") is None,
                        reason="no gcc to build the kernel")
    @pytest.mark.parametrize("bad", [5, 6, 9, 10 ** 9, -1, -7])
    def test_depths_reject_a_parent_not_older_than_its_vertex(self, bad):
        parent, _ = run(SimConfig(2, 10, seed=21))
        parent[5] = bad
        assert engine._kernel() is not None
        with pytest.raises(ValueError, match=rf"parent\[5\] = {bad} "):
            depths(parent)

    def test_depth_histogram(self):
        res = collect_run(SimConfig(1, 400, seed=10))
        depth = depths(res.parent)
        hist = np.bincount(depth)
        assert hist.sum() == len(res.parent)
        assert len(hist) == res.max_depth + 1
        assert res.max_depth == max(depth)

    def test_snapshot_grid(self):
        grid = [10, 50, 100]
        res = collect_run(SimConfig(2, 100, seed=11), snapshot_grid=grid)
        series = res.leaf_series
        assert [n for n, _ in series] == grid
        assert series[-1][1] == res.leaf_count

    def test_checkpoints_in_order(self):
        grid = [5, 20, 80]
        res = collect_run(SimConfig(2, 80, seed=12),
                          checkpoint_grid=[80, 300, 5, 20, 20])
        assert len(res.root_visits_at) == len(res.parity_changes_at) == 3
        # counts over the first 2*(g-1) steps, the clock vertex g-1 attaches
        at_root = res.positions == ROOT
        loops = at_root & np.concatenate(([True], at_root[:-1]))
        assert res.root_visits_at == [int(at_root[:2 * (g - 1)].sum())
                                      for g in grid]
        assert res.parity_changes_at == [int(loops[:2 * (g - 1)].sum())
                                         for g in grid]
        assert res.root_visits_at == sorted(res.root_visits_at)
        assert res.parity_changes_at == sorted(res.parity_changes_at)

    def test_renewal_gaps_are_even(self):
        # at s=2 leaf-neutral additions happen on the even clock only
        res = collect_run(SimConfig(2, 2000, seed=13))
        gaps = res.renewal_gaps
        assert gaps
        assert all(g >= 2 and g % 2 == 0 for g in gaps)

    def test_bounce_log_consistency(self):
        b = collect_run(SimConfig(2, 2000, seed=14)).bounce
        assert b.runs
        assert b.anchors.dtype == b.tails.dtype == np.int32
        anchors, tails = b.anchors.tolist(), b.tails.tolist()
        assert len(anchors) == len(tails)
        # every maximal run of length m is followed from m anchors, counting
        # down m, m - 1, ..., 1; its start is the first of them
        assert sum(m for _, m in b.runs) == sum(k > 0 for k in tails)
        starts = [i for i, k in enumerate(tails)
                  if k and (i == 0 or tails[i - 1] == 0)]
        assert [(anchors[i], tails[i]) for i in starts] == b.runs
        assert all(tails[i + 1] == k - 1
                   for i, k in enumerate(tails[:-1]) if k)

    def test_bounce_tail_frequency(self):
        b = collect_run(SimConfig(2, 2000, seed=14)).bounce
        d = np.bincount(b.anchors).argmax()

        def freq(k):  # P(>= k consecutive two-step returns | degree d)
            return np.mean(b.tails[b.anchors == d] >= k)

        assert 0.0 <= freq(2) <= freq(1) <= 1.0
        assert freq(1) > 0.0

    def test_trajectory_recording(self):
        config = SimConfig(2, 10, seed=15)
        lines = trajectory_lines(2, run(config)[1])
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == config.total_steps
        assert rows[0][0] == "1"
        attached = [int(a) for *_, a in rows if a]
        assert attached == list(range(1, 10))

    def test_root_entries_match_trajectory(self):
        # arrivals at the root: steps ending at the root from another vertex
        # (the walker starts at the root, so t=0 counts as being there)
        for s in (1, 2):
            for seed in (17, 18, 19):
                res = collect_run(SimConfig(s, 300, seed=seed))
                positions = [ROOT] + res.positions.tolist()
                arrivals = sum(1 for prev, pos in zip(positions, positions[1:])
                               if pos == ROOT and prev != ROOT)
                assert arrivals > 0
                assert res.root_entries == arrivals


class TestLogGrid:
    def test_endpoints_and_monotone(self):
        grid = log_grid(10, 10_000, 10)
        assert grid[0] == 10
        assert grid[-1] == 10_000
        assert grid == sorted(set(grid))

    def test_degenerate_range(self):
        assert log_grid(100, 100, 5) == [100]
        assert log_grid(100, 50, 5) == [50]


class TestEmpiricalCcdf:
    def test_small_histogram(self):
        ccdf = empirical_ccdf({1: 3, 3: 1})
        assert ccdf == [(1, 1.0), (2, 0.25), (3, 0.25)]

    def test_roundtrip(self):
        # differencing the CCDF gives back the histogram exactly
        counts = {1: 7, 2: 3, 5: 2, 9: 1}
        total = sum(counts.values())
        ccdf = empirical_ccdf(counts)
        diffs = [(k, round((p - q) * total)) for (k, p), (_, q)
                 in zip(ccdf, ccdf[1:] + [(None, 0.0)])]
        assert {k: c for k, c in diffs if c} == counts

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=40),
           st.lists(st.integers(-2, 15), max_size=10))
    def test_grid_matches_direct_count(self, values, grid):
        # the direct count over the samples is the reference, bit for bit
        direct = [(k, sum(1 for v in values if v >= k) / len(values))
                  for k in grid]
        assert empirical_ccdf(Counter(values), grid) == direct
        assert empirical_ccdf(Counter(values)) == [
            (k, sum(1 for v in values if v >= k) / len(values))
            for k in range(min(values), max(values) + 1)]

    def test_rejects_empty(self):
        with pytest.raises(EmptyHistogramError):
            empirical_ccdf({})
        with pytest.raises(EmptyHistogramError):
            empirical_ccdf({1: 0, 2: 0})


class TestDominance:
    def test_trivial_pass_and_fail(self):
        counts = {1: 50, 2: 30, 3: 20}  # 100 samples
        emp = [(1, 1.0), (2, 0.5), (3, 0.2)]
        good = dominance_check(counts, [1, 2, 3], lambda k: 1.0)
        assert good.passed
        assert good.worst_violation <= 0.0
        assert good.violations == []
        bad = dominance_check({k: c * 10 ** 6 for k, c in counts.items()},
                              [1, 2, 3], lambda k: 0.0)
        assert not bad.passed
        assert bad.violations == [(k, p, bad.margin) for k, p in emp]
        assert bad.worst_violation == pytest.approx(1.0, abs=1e-3)

    def test_margin_formula(self):
        rep = dominance_check({1: 200}, [1], lambda k: 1.0)
        assert rep.margin == dkw_margin(200)
        assert dkw_margin(200) == pytest.approx(
            math.sqrt(math.log(2 / 0.01) / 400))


class TestCsv:
    def test_degrees(self):
        assert degrees_csv({4: 1, 1: 2}) == ["degree,count", "1,2", "4,1"]

    def test_ccdf(self):
        assert ccdf_csv([(1, 1.0), (2, 0.25)]) == ["k,p", "1,1", "2,0.25"]

    def test_leaves(self):
        assert leaves_csv([(10, 7)]) == ["n,leaves", "10,7"]

    def test_visits(self):
        res = collect_run(SimConfig(2, 2, seed=0))
        lines = visits_csv(res)
        assert lines[0] == "vertex,count,first_visit,first_attach"
        assert lines[1] == "0,2,0,2"
        assert lines[2] == "1,0,,"

    def test_bounces(self):
        assert bounces_csv([(3, 2)]) == ["start_degree,run_length", "3,2"]

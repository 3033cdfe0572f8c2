"""Core engine: configuration, stepping rules, tree structure,
determinism and exports."""

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrrw import engine
from nrrw.engine import (
    NO_PARENT, ROOT, ConfigError, PrngStream, ResourceExhausted, SimConfig,
    bit_stream, dot_lines, edge_list_lines, run, trajectory_lines,
)
from nrrw.stats import depths, first_children, walk_degrees

from reference import uniform


class TestSimConfig:
    def test_total_steps(self):
        assert SimConfig(2, 100, seed=0).total_steps == 198
        assert SimConfig(1, 1, seed=0).total_steps == 0

    @pytest.mark.parametrize("kwargs", [
        {"step_parameter": 0, "target_nodes": 10, "seed": 0},
        {"step_parameter": -1, "target_nodes": 10, "seed": 0},
        {"step_parameter": 2, "target_nodes": 0, "seed": 0},
        {"step_parameter": 2, "target_nodes": 10, "seed": -1},
        {"step_parameter": 2, "target_nodes": 10, "seed": 2 ** 64},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)


class TestPrngStream:
    def test_reproducible(self):
        a = PrngStream(42)
        b = PrngStream(42)
        assert [a.randbelow(10) for _ in range(1000)] == \
               [b.randbelow(10) for _ in range(1000)]

    def test_streams_differ(self):
        a = PrngStream(42, stream_id=0)
        b = PrngStream(42, stream_id=1)
        assert [a.randbelow(1000) for _ in range(20)] != \
               [b.randbelow(1000) for _ in range(20)]

    def test_range(self):
        rng = PrngStream(7)
        draws = [rng.randbelow(5) for _ in range(2000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_uniform_in_unit_interval(self):
        rng = PrngStream(7)
        for _ in range(100):
            u = uniform(rng)
            assert 0.0 <= u < 1.0

    def test_survives_buffer_refill(self):
        rng = PrngStream(3)
        n = PrngStream._CHUNK + 10
        draws = [rng.randbelow(100) for _ in range(n)]
        assert len(draws) == n


class TestWalkerStep:
    def test_first_step_is_forced_self_loop(self):
        # with only the root present, every draw lands on the self-loop
        for seed in range(10):
            parent, positions = run(SimConfig(2, 3, seed=seed))
            row = trajectory_lines(2, positions)[1]
            t, dst, via_self_loop, attached = row.split(",")
            assert int(dst) == ROOT
            assert via_self_loop == "1"
            assert (depths(parent)[positions[0]] + int(t)) % 2 == 1  # parity
            assert attached == ""

    def test_first_attachment_goes_to_root(self):
        for seed in range(10):
            parent, positions = run(SimConfig(2, 3, seed=seed))
            assert trajectory_lines(2, positions)[2].endswith(",1")
            assert parent[1] == ROOT

    def test_leaf_always_steps_to_parent(self):
        # a vertex is a leaf at time t until its first child attaches at
        # time (label of that child) * s
        for seed in range(5):
            parent, positions = run(SimConfig(2, 400, seed=seed))
            here = positions[:-1]
            times = np.arange(1, len(positions))
            on_leaf = (here != ROOT) & (first_children(parent)[here] * 2 > times)
            assert on_leaf.any()
            assert np.all(positions[1:][on_leaf] == parent[here[on_leaf]])

    def test_no_attachment_beyond_target(self):
        parent, positions = run(SimConfig(1, 2, seed=0))
        assert len(parent) == 2
        assert len(positions) == 1  # the run ends once the target is reached

    def test_second_vertex_parent_distribution(self):
        # at s=2, N=3 the second added vertex attaches to the first one
        # with probability exactly 2/9 (self-loop at t=3, child at t=4)
        hits = 0
        n = 20_000
        for seed in range(n):
            parent, _ = run(SimConfig(2, 3, seed=seed))
            if parent[2] == 1:
                hits += 1
        p = hits / n
        assert abs(p - 2.0 / 9.0) < 4 * (2.0 / 9.0 * 7.0 / 9.0 / n) ** 0.5


class TestRun:
    def test_sizes_and_clock(self):
        parent, positions = run(SimConfig(3, 50, seed=1))
        assert len(parent) == 50
        assert len(positions) == 3 * 49
        assert positions.dtype == np.int32

    def test_deterministic_replay(self):
        config = SimConfig(2, 500, seed=99)
        p1, pos1 = run(config)
        p2, pos2 = run(config)
        assert np.array_equal(p1, p2)
        assert np.array_equal(pos1, pos2)

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_collector_off_in_the_loop_and_restored(self, monkeypatch,
                                                    collecting, fails):
        seen = []

        class Probe:
            def __init__(self, seed):
                self.gen = bit_stream(seed)

            def integers(self, *args, **kwargs):
                seen.append(gc.isenabled())
                if fails:
                    raise MemoryError
                return self.gen.integers(*args, **kwargs)

        monkeypatch.setattr(engine, "bit_stream", Probe)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if fails:
                with pytest.raises(ResourceExhausted):
                    run(SimConfig(2, 40_000, seed=3))
            else:
                run(SimConfig(2, 40_000, seed=3))
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)

    def test_seeds_decorrelate(self):
        p1, _ = run(SimConfig(2, 500, seed=0))
        p2, _ = run(SimConfig(2, 500, seed=1))
        assert not np.array_equal(p1, p2)

    @settings(max_examples=25, deadline=None)
    @given(s=st.integers(1, 5), n=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32))
    def test_structure_properties(self, s, n, seed):
        parent, positions = run(SimConfig(s, n, seed=seed))
        assert len(parent) == n
        assert parent[ROOT] == NO_PARENT
        depth = depths(parent)
        for v in range(1, n):
            assert 0 <= parent[v] < v
            assert depth[v] == depth[parent[v]] + 1
            assert parent[v] == positions[v * s - 1]  # born at time v*s
        assert walk_degrees(parent).sum() == 2 * (n - 1) + 2
        # the parity of depth + clock flips exactly on self-loop traversals
        trail = [ROOT] + positions.tolist()
        loops = sum(1 for a, b in zip(trail, trail[1:]) if a == b == ROOT)
        assert loops % 2 == (depth[trail[-1]] + len(positions)) % 2


class TestExports:
    def test_edge_list(self):
        config = SimConfig(2, 3, seed=4)
        parent, _ = run(config)
        lines = edge_list_lines(parent, config)
        assert lines[0] == "# nrrw s=2 n=3 seed=4"
        assert lines[1] == "0 0"
        assert len(lines) == 4
        for line in lines[2:]:
            u, v = map(int, line.split())
            assert parent[v] == u

    def test_dot(self):
        parent, _ = run(SimConfig(2, 3, seed=4))
        lines = dot_lines(parent)
        assert lines[0] == "graph nrrw {"
        assert lines[1] == "  0 -- 0;"
        assert lines[-1] == "}"

    def test_trajectory_lines(self):
        lines = trajectory_lines(2, np.array([0, 0], dtype=np.int32))
        assert lines == ["t,position,via_self_loop,attached",
                         "1,0,1,", "2,0,1,1"]

    # SHA-256 of the edges.txt bytes for seed 7, N=1000, pinned when the
    # engine stepped through per-step events; any change to the random
    # stream or the stepping rule changes them
    @pytest.mark.parametrize("s, digest", [
        (1, "9f5223bf07c55b739a914e8d5d45887c5bb86d2eb2a0b5f2f1b824503a6e6097"),
        (2, "328c5d97e2a9b40754145717cb4c9abdb8dd089d7e37c12e2c0a519b498335cb"),
        (4, "abc3a2f47c920764e8910f55d28a58d1d70a976d7c8e71a531d9c4d2751ffbef"),
    ])
    def test_edge_list_pinned(self, s, digest):
        config = SimConfig(s, 1000, seed=7)
        text = "\n".join(edge_list_lines(run(config)[0], config)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

"""Core engine: configuration, stepping rules, tree structure,
determinism and exports."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrrw import engine, harness, oracles, stats
from nrrw.engine import (
    NO_PARENT, ROOT, ConfigError, KernelUnavailable, PrngStream,
    ResourceExhausted, SimConfig, bit_stream, dot_lines, edge_list_lines, run,
    trajectory_lines,
)
from nrrw.harness import run_cell
from nrrw.stats import depths, first_children, walk_degrees

import reference
from reference import run_draws, uniform


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
        {"step_parameter": 2, "target_nodes": 2 ** 31, "seed": 0},
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

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_leaf_always_steps_to_parent(self, s):
        # a vertex is a leaf at time t until its first child attaches at
        # time (label of that child) * s
        for seed in range(5):
            parent, positions = run(SimConfig(s, 400, seed=seed))
            here = positions[:-1]
            times = np.arange(1, len(positions))
            on_leaf = (here != ROOT) & (first_children(parent)[here] * s > times)
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


SRC = Path(__file__).resolve().parents[1] / "src"
# run in a fresh interpreter: a run's arrays, hashed
RUN_IN_CHILD = (
    "import hashlib; from nrrw import engine; "
    "p, pos = engine.run(engine.SimConfig(2, 5000, 7)); "
    "print(hashlib.sha256(p.tobytes() + pos.tobytes()).hexdigest())")
# run in a fresh interpreter: the minor page faults of each of four
# collect_run calls on one 200,000-vertex config
REPEAT_IN_CHILD = """
import resource
from nrrw import engine, stats
config = engine.SimConfig(2, 200_000, 1)
grids = stats.log_grid(100, 200_000, 20), stats.log_grid(10, 200_000, 10)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stats.collect_run(config, *grids)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def grids(n):
    """``run_cell``'s snapshot and checkpoint grids for ``n`` vertices."""
    return stats.log_grid(min(100, n), n, 20), stats.log_grid(min(10, n), n, 10)


def collect(config):
    """``stats.collect_run(config)`` on ``run_cell``'s grids, with the
    bounce statistics."""
    return stats.collect_run(config, *grids(config.target_nodes), bounce=True)


def reference_collect(config):
    """What ``collect(config)`` gives, from the reference: the arrays of
    ``reference.run``, the record ``stats.derive_record`` derives from them
    and ``reference.bounce_statistics``."""
    parent, positions = reference.run(config)
    record = stats.derive_record(config, parent, positions,
                                 *grids(config.target_nodes))
    return stats.RunStats(
        config=config, parent=parent, positions=positions,
        bounce=reference.bounce_statistics(config.step_parameter, parent,
                                           positions),
        **vars(record))


def assert_same_run(got, ref):
    """The two runs' arrays, every field of their records and their bounce
    statistics are equal, dtypes included."""
    for name in ("parent", "positions"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for f in dataclasses.fields(stats.RunRecord):
        assert getattr(got, f.name) == getattr(ref, f.name), f.name
    for name in ("anchors", "tails"):
        a, b = getattr(got.bounce, name), getattr(ref.bounce, name)
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b), name
    assert got.bounce.runs == ref.bounce.runs


class TestKernel:
    # 90 configs, from the 0-step run (N=1) to 420,000-step runs; s=6 is
    # an even s above 4, whose walker stands on leaves about half the time
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 3000, 70000])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
    def test_matches_the_python_loop(self, s, n, seed):
        config = SimConfig(s, n, seed)
        got = collect(config)
        ref = reference_collect(config)
        assert got.parent.dtype == np.int64
        assert got.positions.dtype == np.int32
        assert_same_run(got, ref)

    def test_the_grid_crosses_the_block_edges(self):
        # the 70,000-vertex runs above cross the edges of _walk.c's list
        # storage: its largest class, TOP_CLASS = 10, holds 1,024 entries
        # (a longer list is on the heap) and its chunks are CHUNK = 256 KiB
        top, chunk = 1 << 10, 256 << 10
        for s in (1, 2):
            for seed in (0, 7, 2 ** 63):
                lengths = stats.collect_run(
                    SimConfig(s, 70_000, seed)).degree_counts
                # a list of l > 2 entries holds a block of class c, the
                # least with 2^c >= l: 4 << c bytes while l <= top
                classes = {(l - 1).bit_length() for l in lengths if l > 2}
                held = sum((4 << (l - 1).bit_length()) * k
                           for l, k in lengths.items() if 2 < l <= top)
                if s == 1:
                    # slim trees: the longest list has 16-20 entries, and
                    # the blocks held at the end fill more than one chunk
                    assert classes >= {2, 3, 4}
                    assert held > chunk
                else:
                    # the hub passes every class, 2 to TOP_CLASS, then
                    # moves to the heap
                    assert classes >= set(range(2, 11))
                    assert max(lengths) > top

    # every shape of 1 to 11 steps up to s=6, each on 20 seeds
    @pytest.mark.parametrize("s, n", [
        (s, n) for s in range(1, 7) for n in range(2, 13) if s * (n - 1) < 12])
    def test_short_runs_match_the_python_loop(self, s, n):
        for seed in range(20):
            config = SimConfig(s, n, seed)
            assert_same_run(collect(config), reference_collect(config))

    # seed 0's generator has all four state halves at 2**63 or above,
    # seed 2**64 - 1's two of them: the top of the unsigned range that the
    # kernel's arguments take
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("s, n", [(1, 2), (2, 3), (1, 5000), (2, 5000),
                                      (3, 400), (4, 3000), (6, 70)])
    def test_edge_seeds_match_the_python_loop(self, s, n, seed):
        assert max(engine.pcg64_halves(bit_stream(seed))) >= 2 ** 63
        config = SimConfig(s, n, seed)
        assert_same_run(collect(config), reference_collect(config))

    def test_a_leaf_that_gains_a_child_under_the_walker_uses_its_list(self):
        # s=2, seed 5: the walker reaches the leaf 1 at t=6, where vertex 3
        # attaches to it; step 7 takes the new edge (draw odd), and step 8
        # goes from the leaf 3 back to 1
        config = SimConfig(2, 5, seed=5)
        parent, positions = run(config)
        assert parent.tolist() == [NO_PARENT, ROOT, ROOT, 1, 1]
        assert positions.tolist() == [0, 0, 0, 0, 0, 1, 3, 1]
        assert run_draws(config)[6] % 2 == 1
        # every such moment of a longer run: the next step reads the draw
        # against [parent, new child]
        config = SimConfig(2, 3000, seed=5)
        parent, positions = run(config)
        draws = run_draws(config)
        child = np.arange(1, 3000)
        at = parent[1:]
        gained = (at != ROOT) & (first_children(parent)[at] == child)
        gained &= 2 * child < config.total_steps
        child, at = child[gained], at[gained]
        assert len(child) > 10
        to_child = draws[2 * child] % 2 == 1
        assert to_child.any() and not to_child.all()
        assert np.array_equal(positions[2 * child],
                              np.where(to_child, child, parent[at]))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_the_root_is_never_short_cut(self, s):
        config = SimConfig(s, 3000, seed=7)
        parent, positions = run(config)
        draws = run_draws(config).tolist()
        assert positions[0] == ROOT  # the forced self-loop at t=1
        # every step from the root reads its draw against the root's list
        # then: the self-loop twice and the children attached so far
        children = np.flatnonzero(parent == ROOT).tolist()
        stays = 0
        for i in np.flatnonzero(positions[:-1] == ROOT).tolist():
            here = [ROOT, ROOT] + [c for c in children if c * s <= i + 1]
            assert positions[i + 1] == here[draws[i + 1] % len(here)]
            stays += positions[i + 1] == ROOT
        assert stays > 1

    def test_without_a_compiler_every_path_raises_one_error(
            self, monkeypatch, no_compiler):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        harness.shutdown_pool()
        config = SimConfig(3, 400, seed=5)
        message = "^nrrw needs gcc to build its step kernel: gcc not found$"
        for call in (lambda: run(config),
                     lambda: run(SimConfig(1, 1, seed=0)),
                     lambda: stats.collect_run(config),
                     lambda: oracles.sample_star(
                         oracles.StarProcessSpec(2), 5, 10),
                     lambda: oracles.sample_star(
                         oracles.StarProcessSpec(2), 5, 0),
                     lambda: depths(np.array([NO_PARENT, ROOT])),
                     lambda: run_cell(1, 400, 4, 5, jobs=2)):
            with pytest.raises(KernelUnavailable, match=message):
                call()
        assert harness._pool is None  # no pool was started

    def test_a_run_without_steps_loads_the_kernel(self, fresh_loader):
        config = SimConfig(1, 1, seed=0)
        parent, positions = run(config)
        assert engine._kernel.cache_info().currsize == 1
        assert parent.tolist() == [NO_PARENT]
        assert positions.dtype == np.int32 and positions.shape == (0,)
        # the kernel's tally of no steps is the record of the arrays
        assert_same_run(collect(config), reference_collect(config))

    def test_cache_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert engine._cache_dir() == tmp_path / "xdg" / "nrrw"
        for unset in ("", "relative/path"):
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
            assert engine._cache_dir() == tmp_path / "home" / ".cache" / "nrrw"
        (tmp_path / "file").write_text("")  # no directory can go under it
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        assert engine._cache_dir() == tmp_path / "tmp" / f"nrrw-{os.getuid()}"
        mode = (tmp_path / "tmp" / f"nrrw-{os.getuid()}").stat().st_mode
        assert mode & 0o777 == 0o700

    def test_a_short_step_count_is_out_of_memory(self, monkeypatch):
        # a kernel that takes 101 steps and then runs out of memory for the
        # next vertex
        calls = []

        class Kernel:
            def walk(self, s, n, state_hi, state_lo, inc_hi, inc_lo, total,
                     positions, parent, tally):
                calls.append((s, n, total, state_hi << 64 | state_lo,
                              inc_hi << 64 | inc_lo))
                return 101

        monkeypatch.setattr(engine, "_kernel", lambda: Kernel())
        with pytest.raises(ResourceExhausted) as info:
            run(SimConfig(2, 40_000, seed=3))
        assert (info.value.clock, info.value.vertices_built) == (101, 51)
        # the kernel starts from the run's generator, before any draw
        pcg = bit_stream(3).bit_generator.state["state"]
        assert calls == [(2, 40_000, 79_998, pcg["state"], pcg["inc"])]

    def test_the_kernel_compiles_without_warnings(self):
        result = subprocess.run(
            ["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             str(engine._KERNEL_SOURCE)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_the_kernel_runs_clean_under_the_sanitizers(self, tmp_path):
        # sanitize_walk.c walks s = 1..4 at N = 20,000 with and without a
        # tally. ASan sees a block overrun only at a chunk's or a heap
        # list's end: the kernel grids hold the lists' contents to the
        # reference.
        flags = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                 "-g", "-O1"]
        program = tmp_path / "sanitize_walk"
        build = subprocess.run(
            ["gcc", *flags, "-I", str(engine._KERNEL_SOURCE.parent), "-o",
             str(program), str(Path(__file__).with_name("sanitize_walk.c"))],
            capture_output=True, text=True, timeout=120)
        if build.returncode != 0:
            (tmp_path / "main.c").write_text("int main(void) { return 0; }\n")
            probe = subprocess.run(
                ["gcc", *flags, "-o", str(tmp_path / "main"),
                 str(tmp_path / "main.c")], capture_output=True, timeout=120)
            if probe.returncode != 0:
                pytest.skip("gcc cannot link the sanitizers")
        assert build.returncode == 0, build.stderr
        result = subprocess.run([str(program)], capture_output=True,
                                text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")

    def test_processes_share_one_cached_library(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(
                   [str(SRC), os.environ.get("PYTHONPATH", "")])}
        parent, positions = run(SimConfig(2, 5000, 7))
        digest = hashlib.sha256(parent.tobytes() + positions.tobytes())
        expected = f"{digest.hexdigest()}\n"

        def child(**extra):
            return subprocess.Popen(
                [sys.executable, "-c", RUN_IN_CHILD], env={**env, **extra},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

        def outputs(procs):
            return [p.communicate(timeout=120) for p in procs]

        cold = outputs([child(), child()])
        assert cold == [(expected, "")] * 2
        libraries = list((tmp_path / "nrrw").iterdir())
        assert len(libraries) == 1 and libraries[0].suffix == ".so"
        built = libraries[0].stat()
        # no gcc on the PATH: the third process can only load the library
        warm = outputs([child(PATH=str(tmp_path / "nrrw"))])
        assert warm == [(expected, "")]
        assert list((tmp_path / "nrrw").iterdir()) == libraries
        after = libraries[0].stat()
        assert (after.st_ino, after.st_mtime_ns) == (built.st_ino,
                                                     built.st_mtime_ns)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="glibc's heap thresholds")
    def test_a_repeated_run_faults_in_no_new_pages(self):
        # under glibc's adaptive thresholds, every run of this seed after
        # the second gave its heap back and faulted in about 2,100 pages
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", REPEAT_IN_CHILD],
                                env=env, capture_output=True, text=True,
                                timeout=120, check=True)
        faults = [int(f) for f in result.stdout.split()]
        assert len(faults) == 4 and max(faults[2:]) < 100, faults


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

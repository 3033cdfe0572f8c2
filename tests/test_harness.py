"""Experiment driver, verification plumbing and the command line interface."""

import dataclasses
import hashlib
import json
import re
import tempfile
from pathlib import Path

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
from nrrw.engine import SimConfig
from nrrw.stats import log_grid


def summary_digest(summary: ReplicaSummary) -> str:
    """SHA-256 over every summary field but the timing, dicts in key order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(summary):
        if f.name == "steps_per_second":
            continue
        value = getattr(summary, f.name)
        if isinstance(value, dict):
            value = sorted(value.items())
        h.update(json.dumps([f.name, value]).encode())
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
        # pinned when the statistics were streamed per step; any change to
        # the random stream or to a statistic's definition changes it
        summary = run_replica(2, 2000, 7, log_grid(100, 2000, 20),
                              log_grid(10, 2000, 10), keep_bounce_runs=True,
                              keep_bounce_stats=True)
        assert summary.bounce_runs and summary.bounce_tails
        assert summary_digest(summary) == (
            "6dc481e7b37f6ff4b4296b6a2f1503df6f2ea2235ac0f312d6c5f818fb99d28e")

    def test_merge_counters(self):
        merged = merge_counters([{1: 2, 3: 1}, {1: 1}])
        assert merged == {1: 3, 3: 1}

    def test_mean_leaf_series_uses_shared_points_only(self):
        a = ReplicaSummary(seed=0, leaf_series=[(10, 5), (20, 12)])
        b = ReplicaSummary(seed=1, leaf_series=[(10, 7)])
        assert mean_leaf_series([a, b]) == [(10, 6.0)]


class TestInvariantChecker:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_clean_runs(self, s):
        assert check_invariants(SimConfig(s, 150, seed=21)) == []


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
    ])
    def test_suite_details_pinned(self, name, options, details):
        # pinned before the suites' tails moved onto stats.empirical_ccdf
        assert verify(name, **options).suites[0].details == details

    def test_bounce_suite_reports_violations(self, monkeypatch):
        monkeypatch.setattr(stats, "dkw_margin", lambda n, alpha=0.01: -0.05)
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

    def test_rejects_options_the_suite_does_not_take(self):
        with pytest.raises(UsageError, match=r"\['s'\].*'nodes'"):
            verify("recurrence", s=3)
        with pytest.raises(UsageError, match="jobs"):
            verify("invariants", jobs=2)


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

    def test_failed_replica_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NRRW_OUT", raising=False)

        class Exhausted:
            def integers(self, *args, **kwargs):
                raise MemoryError

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

    def test_rerun_artifacts_are_byte_identical(self, tmp_path, monkeypatch):
        # byte for byte but the timings: each suite's runtime_s (report.json
        # and report.txt) and each replica's steps_per_second
        timings = re.compile(r'"runtime_s": [0-9.]+|"steps_per_second": '
                             r'[0-9.e+]+|\([0-9]+\.[0-9]s\)')
        monkeypatch.delenv("NRRW_OUT", raising=False)
        runs = []
        for sub in ("a", "b"):
            spec = ExperimentSpec(cells=[(1, 80), (2, 120)], replicas=3,
                                  base_seed=4,
                                  checks=["invariants", "depth-dichotomy"],
                                  output_dir=str(tmp_path / sub))
            assert harness.run_experiment(spec).passed
            runs.append({p.relative_to(tmp_path / sub):
                         timings.sub("", p.read_text())
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
        runner = CliRunner()
        result = runner.invoke(cli.main, [
            "export", "--what", "tree", "--format", "csv",
            "--s", "2", "--nodes", "10", "--out", str(tmp_path)])
        assert result.exit_code != 0

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

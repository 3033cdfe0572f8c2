"""Layered benchmark for nrrw.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark calls nrrw's public functions from outside (``harness.verify``,
``harness.run_cell``, and for the traced run also ``engine.run``,
``stats.collect_run``, ``harness.run_replica`` and ``harness.merge_counters``).
It never touches per-step events or collector internals.

``--trace 0`` repeats the workload's pass until ``--seconds`` is spent, with
the set-up probes (and, on pool workloads, machine-speed calibration
rounds) spread between the passes, and prints the end-to-end metrics; a
pool workload's pass time is scaled to a reference machine speed.
``--trace 1`` alternates untraced and traced passes, then reruns
the pass's replicas in-process under spans to split the time by layer, and
prints the per-layer metrics. Every run checks every output, prints a
SHA-256 digest of the canonical outputs, and writes a record (environment,
digests, metrics and, when traced, the spans) to ``perfbench/out/``. The last line of stdout is one JSON object.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 30
SPAN_PROBES = 20_000
# Machine-speed calibration of pool workloads (see README.md): a fixed
# pure-Python walk of CAL_STEPS steps, run in `jobs` processes at once, takes
# CAL_REF_S on average at the reference speed; calibration gets CAL_SHARE of
# the time the passes take.
CAL_STEPS = 200_000
CAL_REF_S = 0.2
CAL_SHARE = 0.35

# Each workload drives one hot layer; see README.md for why and for the
# layer -> end-to-end map. ``layer_replicas`` bounds how many replicas the
# traced run re-simulates through bare engine.run and collect_run.
WORKLOADS = {
    "recurrent-s2": dict(suite="leaf-fraction-s2", s=2, nodes=200_000,
                         replicas=1, jobs=1, layer_replicas=1, options={},
                         criterion="final"),
    "transient-s1": dict(suite="geometric-visits", s=1, nodes=10_000,
                         replicas=60, jobs=2, layer_replicas=10, options={},
                         criterion="worst_violation"),
    "bounce-s2": dict(suite="bounce", s=2, nodes=30_000, replicas=8,
                      jobs=2, layer_replicas=2, options={"max_k": 8},
                      criterion="worst_gap"),
    "tiny-runs": dict(suite=None, s=2, nodes=3, replicas=500, jobs=1,
                      layer_replicas=100, options={}, criterion=None),
}
# toy scale for the smoke test: same code paths, seconds instead of minutes
TOY = {
    "recurrent-s2": dict(nodes=2_000, replicas=2, layer_replicas=2),
    "transient-s1": dict(nodes=500, replicas=8, layer_replicas=2),
    "bounce-s2": dict(nodes=2_000, replicas=4, layer_replicas=2),
    "tiny-runs": dict(replicas=300, layer_replicas=20),
}

# metric names and units, in print order
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


# ---------------------------------------------------------------------------
# Loading the package under test and making the workload's inputs

def load_nrrw():
    """Import nrrw from this checkout's ``src/``, never from site-packages."""
    if not (SRC / "nrrw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'nrrw'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nrrw
    if Path(nrrw.__file__).resolve().parent != (SRC / "nrrw").resolve():
        sys.exit(f"perfbench: imported nrrw from {nrrw.__file__}, "
                 f"not from {SRC}")
    return nrrw


def workload_spec(name: str, toy: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if toy:
        spec.update(TOY[name])
    return spec


def make_inputs(spec: dict, seed: int) -> dict:
    """The replica seeds and grids the pass will use, from the public
    seed-mixing and grid functions (cell 0, run_cell's default grids)."""
    from nrrw import harness, stats
    n = spec["nodes"]
    return {
        "seeds": [harness.replica_seed(seed, 0, r)
                  for r in range(spec["replicas"])],
        "grid": stats.log_grid(min(100, n), n, 20),
        "cp_grid": stats.log_grid(min(10, n), n, 10),
    }


def setup_probe(spec: dict, seed: int) -> float:
    """Time ``import nrrw`` plus input generation in this fresh process."""
    t0 = time.perf_counter()
    load_nrrw()
    make_inputs(spec, seed)
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    """One set-up probe in a fresh interpreter; returns its own timing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"]
    if args.toy:
        cmd.append("--toy")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Machine-speed calibration

def calibration_walk(steps: int = CAL_STEPS) -> float:
    """Seconds this process takes for a fixed random walk on a growing tree:
    the same kind of interpreter work as the engine's step loop (calls,
    list indexing, integer arithmetic, appends), none of nrrw's code."""
    t0 = time.perf_counter()
    parent, children, pos, x = [0], [[]], 0, 12345

    def step(pos: int, x: int) -> tuple[int, int]:
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        kids = children[pos]
        i = (x >> 33) % (len(kids) + 1)
        return (parent[pos] if i == 0 else kids[i - 1]), x

    for t in range(steps):
        pos, x = step(pos, x)
        if t & 1:
            children[pos].append(len(parent))
            parent.append(pos)
            children.append([])
    return time.perf_counter() - t0


_barrier = None


def _keep_barrier(barrier):
    global _barrier
    _barrier = barrier


def _calibration_task(steps: int) -> float:
    # every worker holds here until all have arrived, so the walks overlap
    _barrier.wait(timeout=60)
    return calibration_walk(steps)


class Calibration:
    """Rounds of the calibration walk, one process per pool worker of the
    workload, all at once; a round's time is the mean of its walks, as a
    pass that hands many tasks to its workers runs at their mean speed.
    Workers are forked once and joined by ``close``."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.rounds: list[float] = []
        ctx = multiprocessing.get_context("fork")
        self.pool = ctx.Pool(jobs, initializer=_keep_barrier,
                             initargs=(ctx.Barrier(jobs),))

    def round(self):
        self.rounds.append(statistics.fmean(self.pool.map(
            _calibration_task, [CAL_STEPS] * self.jobs, chunksize=1)))

    def close(self):
        self.pool.close()
        self.pool.join()

    def speed(self) -> float:
        """Machine speed relative to the reference: CAL_REF_S over the mean
        round. The mean, not the median: the machine flips between speed
        levels up to 2x apart within seconds, so short rounds fall into two
        clusters, and the mean follows the share of time spent in each."""
        return CAL_REF_S / statistics.fmean(self.rounds)


# ---------------------------------------------------------------------------
# Spans

class Tracer:
    """In-memory spans (name, start, end, parent). Disabled, it records
    nothing and costs one generator step per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def span_cost() -> float:
        """Seconds one recorded span adds to the code it wraps: the time of
        SPAN_PROBES empty spans on a scratch tracer, less the bare loop."""
        scratch = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(SPAN_PROBES):
            with scratch.span("probe"):
                pass
        t1 = time.perf_counter()
        for _ in range(SPAN_PROBES):
            pass
        t2 = time.perf_counter()
        return max((t1 - t0) - (t2 - t1), 0.0) / SPAN_PROBES

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def named(self, name: str, under: dict | None = None) -> list[dict]:
        return [r for r in self.spans if r["name"] == name
                and (under is None or self.descends(r, under))]

    def descends(self, rec: dict, ancestor: dict) -> bool:
        while rec["parent"] is not None:
            rec = self.spans[rec["parent"]]
            if rec is ancestor:
                return True
        return False

    def total(self, name: str, under: dict | None = None) -> float:
        return sum(self.duration(r) for r in self.named(name, under))

    def self_time(self, rec: dict) -> float:
        """Duration minus the time its direct children cover (children
        run one after another on this thread, so they never overlap)."""
        kids = [r for r in self.spans if r["parent"] == rec["id"]]
        return self.duration(rec) - sum(self.duration(r) for r in kids)


@contextmanager
def capture_cells(harness, tracer: Tracer):
    """Route ``harness.run_cell`` through a recorder for the duration, so the
    summaries a suite builds can be checked and the cell's time split from
    the suite's own. Restores the original on exit."""
    original = harness.run_cell
    cells: list[dict] = []

    def recorder(*args, **kwargs):
        with tracer.span("harness.run_cell"):
            summaries = original(*args, **kwargs)
        cells.append({"kwargs": kwargs, "summaries": summaries})
        return summaries

    harness.run_cell = recorder
    try:
        yield cells
    finally:
        harness.run_cell = original


# ---------------------------------------------------------------------------
# One pass of the workload and its output checks

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def run_pass(spec: dict, seed: int, tracer: Tracer) -> dict:
    from nrrw import harness
    with capture_cells(harness, tracer) as cells:
        with tracer.span("pass") as pass_span:
            t0 = time.perf_counter()
            with tracer.span("program"):
                if spec["suite"] is None:
                    harness.run_cell(spec["s"], spec["nodes"],
                                     spec["replicas"], seed, jobs=spec["jobs"])
                    result = None
                else:
                    result = harness.verify(
                        spec["suite"], nodes=spec["nodes"],
                        replicas=spec["replicas"], seed=seed,
                        jobs=spec["jobs"], **spec["options"]).suites[0]
            wall = time.perf_counter() - t0
    return {"wall": wall, "cells": cells, "result": result, "span": pass_span,
            "summaries": [r for c in cells for r in c["summaries"]]}


def check_summaries(spec: dict, inputs: dict, summaries, checks: Checks):
    s, n = spec["s"], spec["nodes"]
    checks.expect(len(summaries) == spec["replicas"],
                  f"{len(summaries)} summaries for {spec['replicas']} replicas")
    for r, seed in zip(summaries, inputs["seeds"]):
        tag = f"replica seed {r.seed}"
        checks.expect(r.seed == seed, f"{tag}: expected seed {seed}")
        checks.expect(r.clock == s * (n - 1) and r.vertex_count == n,
                      f"{tag}: clock {r.clock}, vertices {r.vertex_count}")
        degs = r.degree_counts
        checks.expect(sum(degs.values()) == n
                      and sum(d * c for d, c in degs.items()) == 2 * n,
                      f"{tag}: degree counts {sorted(degs.items())[:5]}...")
        checks.expect(r.leaf_count == degs.get(1, 0),
                      f"{tag}: leaf_count {r.leaf_count} != "
                      f"degree-1 count {degs.get(1, 0)}")
    if spec["suite"] is None and spec["s"] == 2 and spec["nodes"] == 3:
        # vertex 2 attaches to vertex 1 (leaving a degree-2 vertex) with
        # probability exactly 2/9: self-loop at t=3, then the child at t=4
        m = len(summaries)
        hits = sum(1 for r in summaries if r.degree_counts.get(2, 0) > 0)
        p = 2.0 / 9.0
        sigma = math.sqrt(p * (1.0 - p) / m)
        checks.expect(abs(hits / m - p) <= 4.0 * sigma,
                      f"vertex 2 under vertex 1 in {hits}/{m} runs, "
                      f"expected 2/9 within 4 sigma")


def output_digest(pass_out: dict) -> str:
    """SHA-256 over the suite verdict and details (``runtime_s`` is a field
    of its own, left out) and the summaries without ``steps_per_second``.
    Dict entries are hashed in key order; some keys are tuples."""
    h = hashlib.sha256()
    result = pass_out["result"]
    if result is not None:
        h.update(json.dumps([result.name, result.passed, result.details],
                            sort_keys=True, default=str).encode())
    for r in pass_out["summaries"]:
        for f in dataclasses.fields(r):
            if f.name == "steps_per_second":
                continue
            value = getattr(r, f.name)
            if isinstance(value, dict):
                value = sorted(value.items())
            h.update(json.dumps([f.name, value], sort_keys=True,
                                default=str).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Layer measurements for the traced run

def collect_seconds(summaries, steps: int) -> float:
    """Total collect_run time of the summaries, from the ``steps_per_second``
    each one carries, timed inside its own run_replica call. Failed replicas
    carry no rate and add nothing."""
    return sum(steps / r.steps_per_second for r in summaries
               if r.steps_per_second > 0)


def measure_layers(spec: dict, inputs: dict, last_pass: dict,
                   tracer: Tracer, checks: Checks) -> dict:
    """Rerun the pass's replicas in-process under spans. Pool workers are
    not traced, so the split of replica time by layer comes from these
    reruns; parallel_eff comes from the pass's own summaries."""
    from nrrw import engine, harness, stats
    s, n = spec["s"], spec["nodes"]
    steps = s * (n - 1)
    summaries = last_pass["summaries"]
    cell_kwargs = last_pass["cells"][0]["kwargs"] if last_pass["cells"] else {}
    accepted = inspect.signature(harness.run_replica).parameters
    flags = {k: v for k, v in cell_kwargs.items() if k in accepted}
    grid, cp_grid = inputs["grid"], inputs["cp_grid"]
    reruns = []

    with tracer.span("layers") as layers:
        for i, seed in enumerate(inputs["seeds"]):
            with tracer.span("replica", seed=seed):
                if i < spec["layer_replicas"]:
                    config = engine.SimConfig(s, n, seed)
                    with tracer.span("engine.run"):
                        engine.run(config)
                    with tracer.span("stats.collect_run"):
                        stats.collect_run(config, grid, cp_grid)
                with tracer.span("harness.run_replica"):
                    rerun = harness.run_replica(s, n, seed, grid, cp_grid,
                                                **flags)
                reruns.append(rerun)
            if i < len(summaries):
                same = all(getattr(rerun, f) == getattr(summaries[i], f)
                           for f in ("seed", "clock", "vertex_count",
                                     "leaf_count", "max_depth", "root_visits",
                                     "root_entries", "parity_changes",
                                     "degree_counts"))
                checks.expect(same, f"in-process rerun of seed {seed} "
                                    "differs from the pass's summary")

        sizes, pickle_ms = [], []
        for r in summaries:
            with tracer.span("harness.summary.pickle") as sp:
                blob = pickle.dumps(r)
                pickle.loads(blob)
            sizes.append(len(blob))
            pickle_ms.append(1e3 * tracer.duration(sp))

        with tracer.span("harness.merge_counters"):
            for field in ("degree_counts", "bounce_anchors", "bounce_tails"):
                harness.merge_counters([getattr(r, field) for r in summaries])

        prng_setup = []
        for k in range(50):
            with tracer.span("engine.prng.setup") as sp:
                engine.PrngStream(k).randbelow(2)
            prng_setup.append(1e3 * tracer.duration(sp))
        draws = 1 << 20
        rng = engine.PrngStream(inputs["seeds"][0])
        rng.randbelow(2)  # leave the first chunk fill out of the draw rate
        with tracer.span("engine.prng.draws", draws=draws):
            for j in range(draws):
                rng.randbelow(3 + (j & 63))

        fixed = []
        for k in range(200):
            with tracer.span("engine.run.fixed") as sp:
                engine.run(engine.SimConfig(s, 3, k))
            fixed.append(1e3 * tracer.duration(sp))

    layer_steps = steps * min(spec["layer_replicas"], len(inputs["seeds"]))
    t_run = tracer.total("engine.run", layers)
    t_collect = tracer.total("stats.collect_run", layers)
    replica_spans = tracer.named("harness.run_replica", layers)
    t_replica_layer = sum(tracer.duration(r) for r in
                          replica_spans[:spec["layer_replicas"]])
    # collect_run's share of each run_replica call, timed inside that call
    t_collect_inside = collect_seconds(reruns, steps)
    pass_span = last_pass["span"]
    cell_wall = tracer.total("harness.run_cell", pass_span)
    program = tracer.named("program", pass_span)[0]
    # the replicas' collect_run time where they ran (a pool worker or this
    # process) during the traced pass
    t_replica_in_pass = collect_seconds(summaries, steps)
    layer_spans = sum(1 for r in tracer.spans
                      if r is layers or tracer.descends(r, layers))
    return {
        "engine.prng.draws_per_s":
            draws / tracer.total("engine.prng.draws", layers),
        "engine.prng.setup_ms": statistics.median(prng_setup),
        "engine.run.steps_per_s": layer_steps / t_run,
        "engine.run.fixed_ms": statistics.median(fixed),
        "stats.collect_run.steps_per_s": layer_steps / t_collect,
        "stats.collectors_share": 1.0 - t_run / t_collect,
        "harness.run_replica.steps_per_s": layer_steps / t_replica_layer,
        "harness.summary_share": 1.0 - t_collect_inside / sum(
            tracer.duration(r) for r in replica_spans),
        "harness.summary.pickle_bytes": statistics.median(sizes),
        "harness.summary.pickle_ms": statistics.median(pickle_ms),
        "harness.merge.s": tracer.total("harness.merge_counters", layers),
        "harness.run_cell.s": cell_wall,
        "harness.run_cell.parallel_eff":
            t_replica_in_pass / (spec["jobs"] * cell_wall),
        # the suite's own time: the program call minus its run_cell calls
        "harness.suite.check_s": tracer.self_time(program),
        "trace.layers_overhead_frac":
            layer_spans * tracer.span_cost() / tracer.duration(layers),
    }


# ---------------------------------------------------------------------------
# Driver

def environment(nrrw, seed: int) -> dict:
    import numpy
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nrrw").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nrrw": nrrw.__version__,
            "git_rev": rev, "src_sha256": src_hash.hexdigest(), "seed": seed,
            "loadavg_before": os.getloadavg()}


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = workload_spec(args.workload, args.toy)
    if args.setup_probe:
        print(repr(setup_probe(spec, args.seed)))
        return 0

    nrrw = load_nrrw()
    env = environment(nrrw, args.seed)
    print("env " + json.dumps(env), flush=True)
    setup_times: list[float] = []
    inputs = make_inputs(spec, args.seed)
    checks = Checks()
    plain, traced = Tracer(False), Tracer(True)

    # Alternate untraced and traced passes in a traced run, so both see
    # the same machine state; plain runs use only untraced passes. Only the
    # latest traced pass keeps its summaries, for the layer reruns. Plain
    # runs spread their set-up probes over the run, between the passes.
    passes, layer_pass, replicas_failed = [], None, 0
    # Plain runs of pool workloads also give calibration rounds CAL_SHARE of
    # the pass time, after each pass, so that both sample the same stretch
    # of the run. One-process workloads are not calibrated (README.md).
    calibration = (Calibration(spec["jobs"])
                   if not args.trace and spec["jobs"] > 1 else None)
    started = time.perf_counter()
    try:
        while True:
            use = traced if args.trace and len(passes) % 2 == 1 else plain
            out = run_pass(spec, args.seed, use)
            out["traced"] = use.enabled
            out["digest"] = output_digest(out)
            check_summaries(spec, inputs, out["summaries"], checks)
            replicas_failed += sum(1 for r in out["summaries"]
                                   if r.status != "ok")
            if passes:
                checks.expect(out["digest"] == passes[0]["digest"],
                              f"pass {len(passes)} digest differs from pass 0")
            if out["traced"] and layer_pass:
                del layer_pass["summaries"], layer_pass["cells"]
            if out["traced"]:
                layer_pass = out
            else:
                del out["summaries"], out["cells"]
            passes.append(out)
            if calibration is not None:
                while (sum(calibration.rounds)
                       < CAL_SHARE * sum(p["wall"] for p in passes)):
                    calibration.round()
            elapsed = time.perf_counter() - started
            while (not args.trace and len(setup_times)
                   < SETUP_PROBES * min(1.0, elapsed / args.seconds)):
                setup_times.append(measure_setup(args))
            if ((args.trace == 0 or layer_pass)
                    and time.perf_counter() - started >= args.seconds):
                break
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args))
    finally:
        if calibration is not None:
            calibration.close()

    for i, p in enumerate(passes):
        print(f"pass {i} traced={int(p['traced'])} wall_s={p['wall']!r} "
              f"digest={p['digest']}", flush=True)
    first = passes[0]
    print(f"digest {args.workload} seed={args.seed} {first['digest']}")
    if first["result"] is not None:
        key = spec["criterion"]
        print(f"criterion {first['result'].name} passed="
              f"{first['result'].passed} {key}="
              f"{first['result'].details.get(key)!r}")

    untraced_wall = statistics.median(p["wall"] for p in passes
                                      if not p["traced"])
    if args.trace:
        metrics = measure_layers(spec, inputs, layer_pass, traced, checks)
        traced_wall = statistics.median(p["wall"] for p in passes
                                        if p["traced"])
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        units = PER_LAYER_UNITS
    else:
        speed = calibration.speed() if calibration else 1.0
        print(f"wall_s {untraced_wall!r} calibration_s "
              f"{statistics.fmean(calibration.rounds) if calibration else None!r} "
              f"rounds={len(calibration.rounds) if calibration else 0} "
              f"speed {speed!r}")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref_s": untraced_wall * speed,
            "steps_per_ref_s": spec["replicas"] * spec["s"]
            * (spec["nodes"] - 1) / (untraced_wall * speed),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS

    attempted = checks.attempted + spec["replicas"] * len(passes)
    failed = checks.failed + replicas_failed
    for message in checks.messages:
        print(f"check failed: {message}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted!r}")
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")

    env["loadavg_after"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "toy": args.toy, "env": env,
              "spec": spec, "setup_s": setup_times,
              "passes": [{"wall_s": p["wall"], "traced": p["traced"],
                          "digest": p["digest"]} for p in passes],
              "calibration_s": calibration.rounds if calibration else [],
              "metrics": metrics, "spans": traced.spans}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-toy' if args.toy else ''}.json")
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("env_after " + json.dumps({"loadavg_after": env["loadavg_after"]}))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

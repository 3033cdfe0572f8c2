"""Command line interface: simulate, experiment, verify, oracle, export."""

from __future__ import annotations

import dataclasses
import os
import sys
from contextlib import contextmanager

import click

from . import engine, harness, oracles
from .engine import SimConfig
from .harness import output_root, write_lines, write_stats
from .stats import RunStats, collect_run, leaves_csv, log_grid, visits_csv


@click.group()
def main():
    """No Restart Random Walk simulator and verification harness."""


@contextmanager
def _usage_error_on(*errors: type[Exception]):
    """Report ``errors`` raised on the command's input as usage errors."""
    try:
        yield
    except errors as exc:
        raise click.UsageError(str(exc)) from exc


def _write_run_stats(path, res: RunStats):
    write_stats(path, res.degree_counts, leaves_csv(res.leaf_series),
                res.bounce.runs, visits_csv(res))


@main.command()
@click.option("--s", "s", type=int, required=True, help="step parameter")
@click.option("--nodes", type=int, required=True, help="target vertex count")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trajectory", is_flag=True, help="also write trajectory.csv")
@click.option("--out", default="out", show_default=True)
def simulate(s, nodes, seed, trajectory, out):
    """Run one simulation and write edge list, statistics and (optionally)
    the trajectory."""
    with _usage_error_on(engine.ConfigError):
        config = SimConfig(s, nodes, seed)
    res = collect_run(config, log_grid(min(100, nodes), nodes, 20),
                      bounce=True)
    path = output_root(out)
    write_lines(path / "edges.txt", engine.edge_list_lines(res.parent, config))
    _write_run_stats(path, res)
    if trajectory:
        write_lines(path / "trajectory.csv",
                    engine.trajectory_lines(s, res.positions))
    if s % 2 == 1 and s > 1:
        click.echo(f"note: odd step parameter {s} > 1 is exploratory; no "
                   "verification suite covers it")
    click.echo(f"wrote artifacts for s={s} nodes={nodes} to {path}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True), help="JSON experiment file")
@click.option("--jobs", type=int, default=None,
              help="parallel replicas (default: CPU count)")
def experiment(config_path, jobs):
    """Run a replicated experiment described by a JSON file."""
    with _usage_error_on(harness.UsageError):
        spec = harness.ExperimentSpec.from_json(config_path)
        if jobs is None and spec.jobs == 1:
            jobs = os.cpu_count() or 1
        if jobs is not None:  # replace re-validates the spec
            spec = dataclasses.replace(spec, jobs=jobs)
    report = harness.run_experiment(spec)
    for line in report.lines():
        click.echo(line)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--suite", required=True, help="suite name")
@click.option("--s", "s", type=int, default=None)
@click.option("--nodes", type=int, default=None)
@click.option("--replicas", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=None,
              help="parallel replicas, for suites that run cells")
def verify(suite, **options):
    """Run one named verification suite; exit code 0 iff it passes. An
    option the suite does not take, or out of range, is a usage error."""
    with _usage_error_on(harness.UsageError):
        report = harness.verify(suite, **{k: v for k, v in options.items()
                                          if v is not None})
    for line in report.lines():
        click.echo(line)
    for res in report.suites:
        for failure in res.details.get("failures", []):
            click.echo(f"  {failure}")
    sys.exit(0 if report.passed else 1)


@main.group()
def oracle():
    """Print closed-form reference values as CSV. Each command computes every
    row before printing, so an argument its oracle rejects (a ValueError) is
    a usage error with nothing printed."""


@oracle.command("t-pmf")
@click.option("--s", "s", type=int, required=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_t_pmf(s, kmax):
    with _usage_error_on(ValueError):
        rows = [f"{k},{oracles.t_pmf(s, k):.12g}" for k in range(kmax + 1)]
    click.echo("\n".join(["k,p", *rows]))


@oracle.command("t-ccdf")
@click.option("--s", "s", type=int, required=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_t_ccdf(s, kmax):
    with _usage_error_on(ValueError):
        rows = [f"{k},{oracles.t_ccdf(s, k):.12g}" for k in range(kmax + 1)]
    click.echo("\n".join(["k,p", *rows]))


@oracle.command("t-expectation")
@click.option("--s", "s", type=int, required=True)
def oracle_t_expectation(s):
    with _usage_error_on(ValueError):
        row = (f"{s},{oracles.t_expectation(s):.12g},"
               f"{oracles.leaf_fraction_lower_bound(s):.12g}")
    click.echo(f"s,expectation,leaf_fraction_lower_bound\n{row}")


@oracle.command("star-tail")
@click.option("--s", "s", type=int, required=True)
@click.option("--variant", type=click.Choice([oracles.NON_ROOT,
                                              oracles.ROOT_VARIANT]),
              default=oracles.NON_ROOT, show_default=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_star_tail(s, variant, kmax):
    with _usage_error_on(ValueError):
        rows = [f"{k},{oracles.star_tail(s, k, variant):.12g}"
                for k in range(1, kmax + 1)]
    click.echo("\n".join(["k,p", *rows]))


@oracle.command("bounce-bound")
@click.option("--d0", type=int, required=True)
@click.option("--kmax", type=int, default=30, show_default=True)
def oracle_bounce_bound(d0, kmax):
    with _usage_error_on(ValueError):
        rows = [f"{k},{bound:.12g},{oracles.bounce_envelope(d0, k):.12g}"
                for k, bound in enumerate(oracles.bounce_bounds(d0, kmax), 1)]
    click.echo("\n".join(["k,bound,envelope", *rows]))


@main.command()
@click.option("--what", type=click.Choice(["tree", "stats"]), required=True)
@click.option("--format", "fmt",
              type=click.Choice(["edgelist", "dot", "csv"]), required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--nodes", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
def export(what, fmt, s, nodes, seed, out):
    """Re-run a deterministic simulation and export one artifact."""
    with _usage_error_on(engine.ConfigError):
        config = SimConfig(s, nodes, seed)
    if (what == "stats") != (fmt == "csv"):
        raise click.UsageError("a tree exports as edgelist or dot, stats as "
                               "csv only")
    path = output_root(out)
    if what == "tree":
        parent, _ = engine.run(config)
        if fmt == "edgelist":
            write_lines(path / "edges.txt",
                        engine.edge_list_lines(parent, config))
            click.echo(str(path / "edges.txt"))
        else:
            write_lines(path / "tree.dot", engine.dot_lines(parent))
            click.echo(str(path / "tree.dot"))
    else:
        _write_run_stats(path, collect_run(
            config, log_grid(min(100, nodes), nodes, 20), bounce=True))
        click.echo(str(path))


if __name__ == "__main__":
    main()

"""Command line interface: simulate, experiment, verify, oracle, export."""

from __future__ import annotations

import os
import sys

import click

from . import engine, harness, oracles
from .engine import SimConfig
from .harness import output_root, write_lines, write_run_stats
from .stats import collect_run, log_grid


@click.group()
def main():
    """No Restart Random Walk simulator and verification harness."""


@main.command()
@click.option("--s", "s", type=int, required=True, help="step parameter")
@click.option("--nodes", type=int, required=True, help="target vertex count")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trajectory", is_flag=True, help="also write trajectory.csv")
@click.option("--out", default="out", show_default=True)
def simulate(s, nodes, seed, trajectory, out):
    """Run one simulation and write edge list, statistics and (optionally)
    the trajectory."""
    config = SimConfig(s, nodes, seed)
    res = collect_run(config, log_grid(min(100, nodes), nodes, 20))
    path = output_root(out)
    write_lines(path / "edges.txt", engine.edge_list_lines(res.parent, config))
    write_run_stats(path, res)
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
    try:
        spec = harness.ExperimentSpec.from_json(config_path)
    except harness.UsageError as exc:
        raise click.UsageError(str(exc))
    if jobs is not None:
        spec.jobs = jobs
    elif spec.jobs == 1:
        spec.jobs = os.cpu_count() or 1
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
def verify(suite, s, nodes, replicas, seed, jobs):
    """Run one named verification suite; exit code 0 iff it passes. An
    option the suite does not take is a usage error."""
    options = {k: v for k, v in
               [("s", s), ("nodes", nodes), ("replicas", replicas),
                ("seed", seed), ("jobs", jobs)]
               if v is not None}
    try:
        report = harness.verify(suite, **options)
    except harness.UsageError as exc:
        raise click.UsageError(str(exc))
    for line in report.lines():
        click.echo(line)
    for res in report.suites:
        for failure in res.details.get("failures", []):
            click.echo(f"  {failure}")
    sys.exit(0 if report.passed else 1)


@main.group()
def oracle():
    """Print closed-form reference values as CSV."""


@oracle.command("t-pmf")
@click.option("--s", "s", type=int, required=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_t_pmf(s, kmax):
    click.echo("k,p")
    for k in range(kmax + 1):
        click.echo(f"{k},{oracles.t_pmf(s, k):.12g}")


@oracle.command("t-ccdf")
@click.option("--s", "s", type=int, required=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_t_ccdf(s, kmax):
    click.echo("k,p")
    for k in range(kmax + 1):
        click.echo(f"{k},{oracles.t_ccdf(s, k):.12g}")


@oracle.command("t-expectation")
@click.option("--s", "s", type=int, required=True)
def oracle_t_expectation(s):
    click.echo("s,expectation,leaf_fraction_lower_bound")
    click.echo(f"{s},{oracles.t_expectation(s):.12g},"
               f"{oracles.leaf_fraction_lower_bound(s):.12g}")


@oracle.command("star-tail")
@click.option("--s", "s", type=int, required=True)
@click.option("--variant", type=click.Choice([oracles.NON_ROOT,
                                              oracles.ROOT_VARIANT]),
              default=oracles.NON_ROOT, show_default=True)
@click.option("--kmax", type=int, default=50, show_default=True)
def oracle_star_tail(s, variant, kmax):
    click.echo("k,p")
    for k in range(1, kmax + 1):
        click.echo(f"{k},{oracles.star_tail(s, k, variant):.12g}")


@oracle.command("bounce-bound")
@click.option("--d0", type=int, required=True)
@click.option("--kmax", type=int, default=30, show_default=True)
def oracle_bounce_bound(d0, kmax):
    click.echo("k,bound,envelope")
    for k in range(1, kmax + 1):
        click.echo(f"{k},{oracles.bounce_bound(d0, k):.12g},"
                   f"{oracles.bounce_envelope(d0, k):.12g}")


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
    config = SimConfig(s, nodes, seed)
    path = output_root(out)
    if what == "tree":
        if fmt == "csv":
            raise click.UsageError("tree export supports edgelist or dot")
        parent, _ = engine.run(config)
        if fmt == "edgelist":
            write_lines(path / "edges.txt",
                        engine.edge_list_lines(parent, config))
            click.echo(str(path / "edges.txt"))
        else:
            write_lines(path / "tree.dot", engine.dot_lines(parent))
            click.echo(str(path / "tree.dot"))
    else:
        if fmt != "csv":
            raise click.UsageError("stats export supports csv only")
        write_run_stats(path, collect_run(config, log_grid(min(100, nodes),
                                                           nodes, 20)))
        click.echo(str(path))


if __name__ == "__main__":
    main()

"""Command-line interface: list problems, dump samples, run experiments,
and build comparison reports from emitted results."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import click
import numpy as np

from .bench import (RunConfig, build_report, emit, default_fe_max,
                    default_population_size, format_report, load_raw,
                    run_suite)
from .core import make_rng
from .generator import (get_problem, preset_names, sample_pareto_front,
                        sample_pareto_set)
from .hosts import ESTIMATOR_KINDS, HOST_KINDS, EstimatorConfig, HostConfig

PF_GRID_DEFAULTS = {2: 1000, 3: 5151}


@click.group()
def main():
    """Biased multi-objective benchmark and ideal-point estimation runner."""


@main.command("list-problems")
def list_problems():
    """Print the names of all generated instances."""
    for name in preset_names():
        click.echo(name)


@main.command()
@click.argument("problem")
@click.option("--what", type=click.Choice(["pf", "ps", "random"]), default="pf",
              help="Front samples, optimal-set samples, or random solutions.")
@click.option("--count", type=int, default=None, help="Sample count.")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sample(problem, what, count, seed, out):
    """Dump PF/PS/random samples of PROBLEM as CSV."""
    prob = get_problem(problem)
    rng = make_rng(seed)
    if count is None:
        count = PF_GRID_DEFAULTS[prob.m] if what == "pf" else 1000
    if what == "pf":
        data = sample_pareto_front(prob.params, count)
        header = [f"f{i + 1}" for i in range(prob.m)]
    elif what == "ps":
        data = sample_pareto_set(prob.params, count, rng)
        header = [f"x{i + 1}" for i in range(prob.n)]
    else:
        xs = prob.bounds.sample(count, rng)
        data = prob.evaluate_batch(xs)
        header = [f"f{i + 1}" for i in range(prob.m)]
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data:
            writer.writerow([format(v, ".6g") for v in row])
    click.echo(f"wrote {data.shape[0]} rows to {out}")


def _split(value: str) -> list:
    return [v.strip() for v in value.split(",") if v.strip()]


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON config file; flags override its keys.")
@click.option("--problem", default=None, help="Instance name(s), comma-separated.")
@click.option("--host", default=None, help=f"Host(s) from {HOST_KINDS}.")
@click.option("--estimator", default=None, help=f"Estimator(s) from {ESTIMATOR_KINDS}.")
@click.option("--seeds", default=None, help="Comma-separated seed list.")
@click.option("--fe-max", type=int, default=None)
@click.option("--pop-size", type=int, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--snapshot-every", type=int, default=None)
@click.option("--scalarization", default=None,
              type=click.Choice(["tchebycheff", "weighted-sum"]))
@click.option("--paper-protocol", is_flag=True,
              help="Full-scale protocol: 30 seeds, 200k/400k evaluations.")
@click.option("--out", "output_dir", type=click.Path(file_okay=False), default="results")
@click.option("--workers", type=int, default=None,
              help="Process count; also via IDEALBENCH_WORKERS.")
def run(config_path, problem, host, estimator, seeds, fe_max, pop_size, epsilon,
        snapshot_every, scalarization, paper_protocol, output_dir, workers):
    """Run (problem x host x estimator x seed) trials and emit CSVs."""
    file_cfg = {}
    if config_path:
        file_cfg = json.loads(Path(config_path).read_text())

    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    problems = _split(problem) if problem else list(
        np.atleast_1d(file_cfg.get("problem", "mop1")))
    hosts = _split(host) if host else list(np.atleast_1d(file_cfg.get("host", "moead")))
    estimators = _split(estimator) if estimator else list(
        np.atleast_1d(file_cfg.get("estimator", "running-min")))
    seed_list = ([int(s) for s in _split(seeds)] if seeds
                 else [int(s) for s in file_cfg.get("seeds", list(range(10)))])
    if paper_protocol:
        seed_list = list(range(30))
    output_dir = pick(None, "output_dir", output_dir) if output_dir == "results" else output_dir

    configs = []
    try:
        for prob_name in problems:
            prob = get_problem(prob_name)
            pop = pick(pop_size, "pop_size", default_population_size(prob.m))
            fe = pick(fe_max, "fe_max", default_fe_max(prob.m))
            if paper_protocol:
                fe = 200_000 if prob.m == 2 else 400_000
            for host_kind in hosts:
                host_cfg = HostConfig(
                    kind=host_kind,
                    population_size=int(pop),
                    scalarization=pick(scalarization, "scalarization", "tchebycheff"),
                )
                for est_kind in estimators:
                    configs.append(RunConfig(
                        problem=prob_name,
                        host=host_cfg,
                        estimator=EstimatorConfig(kind=est_kind),
                        fe_max=int(fe),
                        snapshot_every=int(pick(snapshot_every, "snapshot_every", 1000)),
                        epsilon=float(pick(epsilon, "epsilon", 0.05)),
                    ))
    except (KeyError, ValueError) as exc:  # an unknown name or a rejected combination
        raise click.UsageError(exc.args[0]) from exc
    click.echo(f"running {len(configs)} config(s) x {len(seed_list)} seed(s)")
    records = run_suite(configs, seed_list, parallelism=workers)
    done = [r for r in records if r is not None]
    if not done:
        raise click.ClickException("all cells failed")
    emit(done, output_dir)
    click.echo(f"emitted {len(done)} records to {output_dir}/"
               f" (raw.csv, trajectory.csv, summary.json)")


@main.command()
@click.argument("results_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--reference", default=None,
              help="host+estimator column compared against; default last column.")
@click.option("--alpha", type=float, default=0.05)
def report(results_dir, reference, alpha):
    """Summarize an emitted raw.csv as the comparison tables."""
    records = load_raw(Path(results_dir) / "raw.csv")
    if not records:
        raise click.ClickException("no records found")
    columns = sorted({f"{r.host}+{r.estimator}" for r in records})
    if reference is None:
        reference = columns[-1]
    rep = build_report(records, reference, alpha=alpha)
    click.echo(format_report(rep))
    out = Path(results_dir) / "report.json"
    out.write_text(json.dumps(rep, indent=2, sort_keys=True))
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()

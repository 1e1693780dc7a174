"""Command-line interface: list problems, dump samples, run experiments,
and build comparison reports from emitted results."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import click

from .bench import (WORKERS_ENV, RunConfig, build_report, cell_name,
                    check_configs, check_seeds, default_fe_max,
                    default_population_size, emit, format_report, load_raw,
                    run_suite, whole_number, worker_count)
from .core import make_rng
from .generator import get_problem, preset_names
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
@click.option("--count", type=click.IntRange(min=1), default=None,
              help="Sample count.")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def sample(problem, what, count, seed, out):
    """Dump PF/PS/random samples of PROBLEM as CSV."""
    try:
        prob = get_problem(problem)
    except KeyError as exc:
        raise click.BadParameter(exc.args[0], param_hint="'PROBLEM'") from exc
    try:  # before the samples, so a bad path costs no work
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="'--out'") from exc
    rng = make_rng(seed)
    if count is None:
        count = PF_GRID_DEFAULTS[prob.m] if what == "pf" else 1000
    if what == "pf":
        data = prob.sample_pareto_front(count)
        header = [f"f{i + 1}" for i in range(prob.m)]
    elif what == "ps":
        data = prob.sample_pareto_set(count, rng)
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


def _names(given: dict, key: str, default: str) -> list:
    value = given.get(key, default)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise ValueError(f"{key} must be a name or a list of names, not {value!r}")


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


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
@click.option("--out", "output_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory; default results.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              envvar=WORKERS_ENV, help=f"Process count; also via {WORKERS_ENV}.")
def run(config_path, workers, **flags):
    """Run (problem x host x estimator x seed) trials and emit CSVs."""
    file_cfg = {}
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise click.UsageError(f"{config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise click.UsageError(
                f"{config_path} must hold a JSON object of settings,"
                f" not {type(file_cfg).__name__}")
        unknown = sorted(set(file_cfg) - set(flags))  # flags are named by the keys
        if unknown:
            raise click.UsageError(
                f"unknown key(s) in {config_path}: {', '.join(unknown)};"
                f" known keys: {', '.join(sorted(flags))}")

    # one merge rule, whose keys are the config file's: a flag, then the
    # file's value, then the default
    for key in ("problem", "host", "estimator", "seeds"):  # comma-separated
        flags[key] = _split(flags[key]) if flags[key] is not None else None
    given = {**file_cfg, **{key: v for key, v in flags.items() if v is not None}}

    configs = []
    try:
        seeds = given.get("seeds", range(10))
        seed_list = check_seeds(seeds if isinstance(seeds, (list, range)) else [seeds])
        output_dir = given.get("output_dir", "results")
        if not isinstance(output_dir, str):
            raise ValueError(f"output_dir must be a path, not {output_dir!r}")
        if Path(output_dir).is_file():
            raise ValueError(f"output_dir {output_dir!r} is a file, not a directory")
        # only given values reach the configs, so their own defaults apply
        run_kw = {key: check(given[key], key) for key, check in (
            ("snapshot_every", whole_number), ("epsilon", _real)) if key in given}
        problems = _names(given, "problem", "mop1")
        hosts = _names(given, "host", "moead")
        estimators = _names(given, "estimator", "running-min")
        for prob_name in problems:
            prob = get_problem(prob_name)
            pop = whole_number(given.get("pop_size", default_population_size(prob.m)),
                               "pop_size")
            fe = whole_number(given.get("fe_max", default_fe_max(prob.m)), "fe_max")
            for host_kind in hosts:
                host_cfg = HostConfig(kind=host_kind, population_size=pop)
                for est_kind in estimators:
                    configs.append(RunConfig(
                        problem=prob_name, host=host_cfg,
                        estimator=EstimatorConfig(kind=est_kind), fe_max=fe, **run_kw))
        if not configs:
            raise ValueError("no problem, host or estimator given")
        check_configs(configs)
        if "epsilon" in given and "eie" not in estimators:
            raise ValueError("epsilon is the tolerance of eie cells only;"
                             " this grid has none")
    except (KeyError, ValueError) as exc:  # an unknown name or a rejected value
        raise click.UsageError(exc.args[0]) from exc
    jobs = [(cfg, seed) for cfg in configs for seed in seed_list]  # records' order
    workers = min(worker_count(workers), len(jobs))
    click.echo(f"running {len(configs)} config(s) x {len(seed_list)} seed(s)"
               f" on {workers} worker(s)")
    records = run_suite(configs, seed_list, parallelism=workers)
    failed = [cell_name(*job) for job, rec in zip(jobs, records) if rec is None]
    done = [r for r in records if r is not None]
    if done:
        emit(done, output_dir)
        click.echo(f"emitted {len(done)} records to {output_dir}/"
                   f" (raw.csv, trajectory.csv, summary.json)")
    if failed:
        raise click.ClickException(
            f"{len(failed)} of {len(records)} cell(s) failed: {'; '.join(failed)}")


def _not_nan(ctx, param, value):
    if math.isnan(value):  # FloatRange's comparisons all pass a NaN
        raise click.BadParameter("nan is not in the range 0<x<1.")
    return value


@main.command()
@click.argument("results_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--reference", default=None,
              help="host+estimator column compared against; default last column.")
@click.option("--alpha", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.05, callback=_not_nan,
              help="Significance level of the rank-sum verdicts.")
def report(results_dir, reference, alpha):
    """Summarize an emitted raw.csv as the comparison tables."""
    try:
        records = load_raw(Path(results_dir) / "raw.csv")
    except (OSError, ValueError) as exc:  # missing, unreadable or malformed
        raise click.UsageError(str(exc)) from exc
    if not records:
        raise click.ClickException("no records found")
    columns = sorted({f"{r.host}+{r.estimator}" for r in records})
    if reference is None:
        reference = columns[-1]
    elif reference not in columns:
        raise click.BadParameter(
            f"{reference!r} is not a column of {results_dir};"
            f" available: {', '.join(columns)}", param_hint="'--reference'")
    rep = build_report(records, reference, alpha=alpha)
    click.echo(format_report(rep))
    out = Path(results_dir) / "report.json"
    out.write_text(json.dumps(rep, indent=2, sort_keys=True))
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()

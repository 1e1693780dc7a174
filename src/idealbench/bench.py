"""Experiment runner: configures (host x estimator x instance x seed) cells,
enforces the shared evaluation budget, and emits raw/trajectory CSVs plus a
JSON summary.  Every output byte is a deterministic function of the config
and seed."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import EvaluationBudget, OffspringBatch, make_rng
from .estimation import DEFAULT_EPSILON, IdealEstimation
from .generator import get_problem
from .hosts import EstimatorConfig, HostConfig, make_host
from .metrics import e_metric, hv_normalized, midranks, rank_sum_verdict

WORKERS_ENV = "IDEALBENCH_WORKERS"
RAW_COLUMNS = ("problem", "host", "estimator", "seed", "fe_max", "e", "hv",
               "eie_fe_fraction")
TRAJ_COLUMNS = ("problem", "host", "estimator", "seed", "fe", "e", "hv")


def default_population_size(m: int) -> int:
    return 100 if m == 2 else 210


def default_fe_max(m: int) -> int:
    return 50_000 if m == 2 else 100_000


@dataclass(frozen=True)
class RunConfig:
    """Everything one trial depends on, minus the seed.  ``problem`` is
    stored as the instance's canonical (lower-case) name."""

    problem: str
    host: HostConfig
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    fe_max: int = 50_000
    snapshot_every: int = 1_000
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.fe_max <= self.host.population_size:
            raise ValueError("fe_max must exceed the population size")
        problem = get_problem(self.problem)
        object.__setattr__(self, "problem", problem.name)
        self.host.check_population(problem.m)
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be at least 1, not {self.snapshot_every}")
        if not 0 < self.epsilon < np.inf:  # NaN too
            raise ValueError(f"epsilon must be positive and finite, not {self.epsilon}")
        # ut and drp act only through MoeadHost's reference point
        if self.estimator.kind in ("ut", "drp") and self.host.kind != "moead":
            raise ValueError(
                f"estimator {self.estimator.kind!r} acts only through the moead "
                f"host's reference point; on {self.host.kind!r} it would repeat "
                "running-min"
            )


@dataclass
class RunRecord:
    """Outcome of one (config, seed) trial."""

    problem: str
    host: str
    estimator: str
    seed: int
    fe_max: int
    e_value: float
    hv_value: float
    eie_fe_fraction: float
    trajectory: list  # (fe, e, hv) tuples, fe strictly increasing
    final_x: np.ndarray | None = None
    final_f: np.ndarray | None = None

    def raw_row(self) -> list:
        return [
            self.problem, self.host, self.estimator, str(self.seed),
            str(self.fe_max), _fmt(self.e_value), _fmt(self.hv_value),
            _fmt(self.eie_fe_fraction),
        ]


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def run_trial(config: RunConfig, seed: int) -> RunRecord:
    """Execute one trial: initialize, iterate host (and, when configured,
    the estimation component) until the shared budget is exhausted, then
    score the final population against the instance's analytic ideal and
    nadir vectors."""
    problem = get_problem(config.problem)
    rng = make_rng(seed)
    budget = EvaluationBudget(config.fe_max, _eval=problem.evaluate_batch)
    host = make_host(problem, config.host, budget, rng, config.estimator.kind)

    component = None
    if config.estimator.kind in ("eie", "eie-separate"):
        component = IdealEstimation(
            problem, epsilons=np.full(problem.m, config.epsilon),
            kind=config.estimator.kind,
        )
        component.initialize(host.pop_x, host.pop_f)

    ideal, nadir = problem.ideal, problem.nadir
    empty = OffspringBatch.empty(problem.n, problem.m)
    trajectory: list = []
    next_snap = config.snapshot_every

    def snapshot():
        fs = host.pop_f
        if not np.isfinite(fs).all():
            raise RuntimeError("non-finite objective encountered")
        e = e_metric(fs.min(axis=0), ideal, nadir)
        hv = hv_normalized(fs, ideal, nadir)
        trajectory.append((budget.used, e, hv))

    while not budget.exhausted:
        o1 = component.produce_offspring(budget, rng) if component is not None else empty
        o2 = host.step(o1, budget, rng)
        if component is not None:
            component.update(host.pop_f, o2, host.pop_x)
        if budget.used >= next_snap:
            snapshot()
            next_snap = (budget.used // config.snapshot_every + 1) * config.snapshot_every

    if not trajectory or trajectory[-1][0] < budget.used:
        snapshot()

    final = trajectory[-1]
    return RunRecord(
        problem=config.problem,
        host=config.host.kind,
        estimator=config.estimator.kind,
        seed=seed,
        fe_max=config.fe_max,
        e_value=final[1],
        hv_value=final[2],
        eie_fe_fraction=(component.fe_fraction(budget.used)
                         if component is not None else 0.0),
        trajectory=trajectory,
        final_x=host.pop_x.copy(),
        final_f=host.pop_f.copy(),
    )


def worker_count(requested: int | None = None) -> int:
    """The requested process count, else IDEALBENCH_WORKERS, else up to 4."""
    if requested is None:
        requested = int(os.environ.get(WORKERS_ENV) or min(4, os.cpu_count() or 1))
    if requested < 1:
        raise ValueError(f"worker count must be positive, not {requested}")
    return requested


def whole_number(value, name: str) -> int:
    """``value`` as an int.  A float must have no fractional part; a bool,
    or anything ``int`` cannot read, is a ``ValueError``."""
    if isinstance(value, (bool, np.bool_)) or (
            isinstance(value, (float, np.floating)) and not float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    try:
        return int(value)  # a string int cannot read raises its own ValueError
    except TypeError:
        raise ValueError(f"{name} must be a whole number, not {value!r}") from None


def check_seeds(seeds) -> list:
    """The seeds as ints; they must be whole numbers, non-empty, distinct
    and non-negative."""
    seeds = [whole_number(s, "a seed") for s in seeds]
    if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ValueError(f"seeds must be non-empty, distinct and non-negative: {seeds}")
    return seeds


def check_configs(configs: list) -> None:
    """Reject a config named twice: its runs would be reported as more
    samples of one cell."""
    for i, cfg in enumerate(configs):
        if cfg in configs[:i]:
            raise ValueError(f"config repeated: {config_name(cfg)}")


def run_suite(
    configs: list,
    seeds: list,
    parallelism: int | None = None,
) -> list:
    """Run every (config, seed) cell, in parallel across processes when
    allowed, returning one record per cell with configs outer and seeds
    inner.  A failed cell is recorded as None in-place and does not stop
    the suite; a repeated seed or config is a ``ValueError`` before any
    trial.

    On more than one worker the longest cells are submitted first, so that
    none of them starts last: ``smsemoa`` (one evaluation per selection)
    before the generational hosts, then 3-objective before 2-objective
    instances, and otherwise in record order (the sort key is
    ``(host != "smsemoa", -m)``).  One worker runs the cells in record
    order.
    """
    seeds = check_seeds(seeds)
    check_configs(configs)
    jobs = [(cfg, seed) for cfg in configs for seed in seeds]
    workers = worker_count(parallelism)
    results: list = [None] * len(jobs)
    if workers == 1 or len(jobs) == 1:
        for i, (cfg, seed) in enumerate(jobs):
            try:
                results[i] = run_trial(cfg, seed)
            except Exception as exc:  # noqa: BLE001 - suite keeps going
                _report_failure(cfg, seed, exc)
    else:
        m = {cfg.problem: get_problem(cfg.problem).m for cfg in configs}
        longest_first = sorted(range(len(jobs)), key=lambda i: (
            jobs[i][0].host.kind != "smsemoa", -m[jobs[i][0].problem]))
        # imported here: a one-worker process never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(run_trial, *jobs[i]) for i in longest_first}
            for i in range(len(jobs)):
                try:
                    results[i] = futures[i].result()
                except Exception as exc:  # noqa: BLE001
                    _report_failure(*jobs[i], exc)
    return results


def config_name(config: RunConfig) -> str:
    """How messages name a config: ``problem/host+estimator``."""
    return f"{config.problem}/{config.host.kind}+{config.estimator.kind}"


def cell_name(config: RunConfig, seed: int) -> str:
    """How messages name a cell: ``problem/host+estimator seed N``."""
    return f"{config_name(config)} seed {seed}"


def _report_failure(config: RunConfig, seed: int, exc: Exception) -> None:
    print(f"cell {cell_name(config, seed)} failed: {exc}")


def emit(records: list, out_dir: str | Path) -> dict:
    """Write raw per-run CSV, trajectory CSV, and a JSON summary.

    Raw columns: problem, host, estimator, seed, fe_max, e, hv,
    eie_fe_fraction.  Trajectory columns: problem, host, estimator, seed,
    fe, e, hv.  Numbers carry 6 significant digits.  A failed cell (a
    ``None`` record) raises ``ValueError`` rather than being left out.
    """
    failed = sum(r is None for r in records)
    if failed:
        raise ValueError(f"{failed} failed cell(s) among the records to emit")
    if not records:
        raise ValueError("nothing to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = sorted(records, key=lambda r: (r.problem, r.host, r.estimator, r.seed))

    with open(out / "raw.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for rec in records:
            writer.writerow(rec.raw_row())

    with open(out / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJ_COLUMNS)
        for rec in records:
            for fe, e, hv in rec.trajectory:
                writer.writerow(
                    [rec.problem, rec.host, rec.estimator, str(rec.seed),
                     str(fe), _fmt(e), _fmt(hv)]
                )

    summary = summarize(records)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def _cells(records: list) -> dict:
    """Each cell's series of ``e``, ``hv`` and ``eie_fe_fraction``, in
    record order, keyed ``(problem, host+estimator)``."""
    cells: dict = {}
    for rec in records:
        cell = cells.setdefault((rec.problem, f"{rec.host}+{rec.estimator}"),
                                {"e": [], "hv": [], "eie_fe_fraction": []})
        cell["e"].append(rec.e_value)
        cell["hv"].append(rec.hv_value)
        cell["eie_fe_fraction"].append(rec.eie_fe_fraction)
    return cells


def summarize(records: list) -> dict:
    """Per-cell means and standard deviations, keyed problem -> column."""
    out: dict = {}
    for (problem, column), vals in sorted(_cells(records).items()):
        entry = out.setdefault(problem, {})
        entry[column] = {
            metric: {
                "mean": float(_fmt(np.mean(series))),
                "std": float(_fmt(np.std(series))),
                "median": float(_fmt(np.median(series))),
                "runs": len(series),
            }
            for metric, series in vals.items()
        }
    return out


def load_raw(path: str | Path) -> list:
    """Parse an emitted raw CSV back into records (without populations).

    A missing column, a short or long row or a value that does not parse
    raises ``ValueError`` naming the file and what is wrong.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RAW_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("too few fields")
                if None in row:  # DictReader files the extras under None
                    raise ValueError("too many fields")
                rows.append(RunRecord(
                    problem=row["problem"], host=row["host"],
                    estimator=row["estimator"], seed=int(row["seed"]),
                    fe_max=int(row["fe_max"]), e_value=float(row["e"]),
                    hv_value=float(row["hv"]),
                    eie_fe_fraction=float(row["eie_fe_fraction"]),
                    trajectory=[],
                ))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return rows


def build_report(records: list, reference: str, alpha: float = 0.05) -> dict:
    """Per-problem comparison table against a reference column.

    Columns are host+estimator labels; per problem each column gets
    mean/std, an average-rank-friendly rank by mean, and a rank-sum verdict
    against the reference ('+' better, '=' comparable, '-' worse; smaller
    is better for the estimation error, larger for hypervolume).  A column
    with no records on a problem has a NaN mean there and ranks last.
    """
    columns = sorted({f"{r.host}+{r.estimator}" for r in records})
    if reference not in columns:
        raise ValueError(f"reference column {reference!r} not among {columns}")
    problems = sorted({r.problem for r in records})
    by_cell = _cells(records)

    report: dict = {"columns": columns, "reference": reference, "problems": {}}
    rank_totals = {metric: {c: 0.0 for c in columns} for metric in ("e", "hv")}
    for problem in problems:
        entry: dict = {}
        for metric, larger_better in (("e", False), ("hv", True)):
            series = {c: by_cell.get((problem, c), {metric: []})[metric]
                      for c in columns}
            means = [float(np.mean(series[c])) if series[c] else float("nan")
                     for c in columns]
            keyed = [(-mean if larger_better else mean) for mean in means]
            ranks = midranks(keyed).tolist()
            cells = {}
            for c, mean, rank in zip(columns, means, ranks):
                verdict = ""
                if c != reference and len(series[c]) >= 5 and len(series[reference]) >= 5:
                    verdict = rank_sum_verdict(
                        series[c], series[reference], alpha=alpha,
                        larger_is_better=larger_better,
                    )
                cells[c] = {
                    "mean": float(_fmt(mean)),
                    "std": float(_fmt(np.std(series[c]))) if series[c] else float("nan"),
                    "rank": rank,
                    "verdict": verdict,
                }
                rank_totals[metric][c] += rank
            entry[metric] = cells
        report["problems"][problem] = entry
    report["average_rank"] = {
        metric: {c: float(_fmt(total / len(problems))) for c, total in totals.items()}
        for metric, totals in rank_totals.items()
    }
    return report


def format_report(report: dict) -> str:
    """Plain-text rendering of a comparison report."""
    columns = report["columns"]
    lines = []
    for metric, label in (("e", "estimation error"), ("hv", "hypervolume")):
        lines.append(f"== {label} (reference: {report['reference']}) ==")
        header = ["problem"] + columns
        lines.append("  ".join(f"{h:>24}" for h in header))
        for problem, entry in report["problems"].items():
            row = [f"{problem:>24}"]
            for c in columns:
                cell = entry[metric][c]
                text = f"{cell['mean']:.6g}({cell['rank']:g}){cell['verdict']}"
                row.append(f"{text:>24}")
            lines.append("  ".join(row))
        avg = report["average_rank"][metric]
        row = [f"{'average rank':>24}"] + [f"{avg[c]:>24g}" for c in columns]
        lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)


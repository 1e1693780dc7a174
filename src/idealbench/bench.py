"""Experiment runner: configures (host x estimator x instance x seed) cells,
enforces the shared evaluation budget, and emits raw/trajectory CSVs plus a
JSON summary.  Every output byte is a deterministic function of the config
and seed."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import EvaluationBudget, OffspringBatch, make_rng
from .estimation import DEFAULT_EPSILON, IdealEstimation
from .generator import get_problem
from .hosts import BaselineEstimator, EstimatorConfig, HostConfig, make_host
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
    """Everything one trial depends on, minus the seed."""

    problem: str
    host: HostConfig
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    fe_max: int = 50_000
    snapshot_every: int = 1_000
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.fe_max <= self.host.population_size:
            raise ValueError("fe_max must exceed the population size")
        # ut and drp act only through MoeadHost.z_ref; other hosts ignore it
        if self.estimator.kind in ("ut", "drp") and self.host.kind != "moead":
            raise ValueError(
                f"estimator {self.estimator.kind!r} acts only through the moead "
                f"host's reference point; on {self.host.kind!r} it would repeat "
                "running-min"
            )

    def digest(self) -> str:
        payload = json.dumps(
            {
                "problem": self.problem,
                "host": asdict(self.host),
                "estimator": asdict(self.estimator),
                "fe_max": self.fe_max,
                "snapshot_every": self.snapshot_every,
                "epsilon": self.epsilon,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


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
    config_digest: str
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


def run_trial(config: RunConfig, seed: int, keep_population: bool = True) -> RunRecord:
    """Execute one trial: initialize, iterate host (and, when configured,
    the estimation component) until the shared budget is exhausted, then
    score the final population against the instance's analytic ideal and
    nadir vectors."""
    problem = get_problem(config.problem)
    rng = make_rng(seed)
    budget = EvaluationBudget(config.fe_max, _eval=problem.evaluate_batch)
    host = make_host(problem, config.host, budget, rng)

    estimator = BaselineEstimator(config.estimator, problem.m)
    estimator.observe(host.pop_f)
    component = None
    if config.estimator.kind in ("eie", "eie-separate"):
        mode = "ews" if config.estimator.kind == "eie" else "separate"
        component = IdealEstimation(
            problem, epsilons=np.full(problem.m, config.epsilon), mode=mode
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
        if component is not None and component.active:
            o1 = component.produce_offspring(budget, rng)
        else:
            o1 = empty
        o2 = host.step(o1, budget, rng)
        if component is not None:
            component.update(host.pop_f, o1, o2, host.pop_x)
        estimator.observe(o1.fs)
        estimator.observe(o2.fs)
        host.z_ref = estimator.estimate(
            host.pop_f.min(axis=0), host.pop_f.max(axis=0),
            budget.used, config.fe_max,
        )
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
        config_digest=config.digest(),
        final_x=host.pop_x.copy() if keep_population else None,
        final_f=host.pop_f.copy() if keep_population else None,
    )


def _run_cell(args) -> RunRecord:
    config, seed = args
    return run_trial(config, seed, keep_population=False)


def worker_count(requested: int | None = None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def run_suite(
    configs: list,
    seeds: list,
    parallelism: int | None = None,
) -> list:
    """Run every (config, seed) cell, in parallel across processes when
    allowed, returning records in deterministic order.  A failed cell is
    recorded as None in-place and does not stop the suite."""
    seeds = [int(s) for s in seeds]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be non-empty and distinct")
    jobs = [(cfg, seed) for cfg in configs for seed in seeds]
    workers = worker_count(parallelism)
    results: list = [None] * len(jobs)
    if workers == 1 or len(jobs) == 1:
        for i, job in enumerate(jobs):
            try:
                results[i] = _run_cell(job)
            except Exception as exc:  # noqa: BLE001 - suite keeps going
                print(f"cell {job[0].problem}/{job[0].host.kind}"
                      f"+{job[0].estimator.kind} seed {job[1]} failed: {exc}")
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, job) for job in jobs]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    job = jobs[i]
                    print(f"cell {job[0].problem}/{job[0].host.kind}"
                          f"+{job[0].estimator.kind} seed {job[1]} failed: {exc}")
    return results


def emit(records: list, out_dir: str | Path) -> dict:
    """Write raw per-run CSV, trajectory CSV, and a JSON summary.

    Raw columns: problem, host, estimator, seed, fe_max, e, hv,
    eie_fe_fraction.  Trajectory columns: problem, host, estimator, seed,
    fe, e, hv.  Numbers carry 6 significant digits.
    """
    records = [r for r in records if r is not None]
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


def summarize(records: list) -> dict:
    """Per-cell means and standard deviations, keyed problem -> column."""
    cells: dict = {}
    for rec in records:
        key = (rec.problem, f"{rec.host}+{rec.estimator}")
        cells.setdefault(key, {"e": [], "hv": [], "eie_fe_fraction": []})
        cells[key]["e"].append(rec.e_value)
        cells[key]["hv"].append(rec.hv_value)
        cells[key]["eie_fe_fraction"].append(rec.eie_fe_fraction)
    out: dict = {}
    for (problem, column), vals in sorted(cells.items()):
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
    """Parse an emitted raw CSV back into records (without populations)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(RunRecord(
                problem=row["problem"], host=row["host"],
                estimator=row["estimator"], seed=int(row["seed"]),
                fe_max=int(row["fe_max"]), e_value=float(row["e"]),
                hv_value=float(row["hv"]),
                eie_fe_fraction=float(row["eie_fe_fraction"]),
                trajectory=[], config_digest="",
            ))
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
    by_cell: dict = {}
    for rec in records:
        by_cell.setdefault((rec.problem, f"{rec.host}+{rec.estimator}"),
                           {"e": [], "hv": []})
        by_cell[(rec.problem, f"{rec.host}+{rec.estimator}")]["e"].append(rec.e_value)
        by_cell[(rec.problem, f"{rec.host}+{rec.estimator}")]["hv"].append(rec.hv_value)

    report: dict = {"columns": columns, "reference": reference, "problems": {}}
    rank_totals = {metric: {c: 0.0 for c in columns} for metric in ("e", "hv")}
    for problem in problems:
        entry: dict = {}
        for metric, larger_better in (("e", False), ("hv", True)):
            series = {c: by_cell.get((problem, c), {"e": [], "hv": []})[metric]
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
                text = f"{cell['mean']:.6g}({int(cell['rank'])}){cell['verdict']}"
                row.append(f"{text:>24}")
            lines.append("  ".join(row))
        avg = report["average_rank"][metric]
        row = [f"{'average rank':>24}"] + [f"{avg[c]:>24}" for c in columns]
        lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)


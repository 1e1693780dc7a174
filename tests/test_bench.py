import csv
import json
import math
import re
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from idealbench import bench, cli, core, hosts, metrics
from idealbench.bench import (RunConfig, RunRecord, build_report,
                              default_fe_max, default_population_size, emit,
                              format_report, load_raw, run_suite, run_trial,
                              summarize)
from idealbench.cli import main as cli_main
from idealbench.estimation import IdealEstimation
from idealbench.generator import get_problem, preset_names
from idealbench.hosts import EstimatorConfig, HostConfig

from .test_core import reference_fronts
from .test_hosts import (BaselineEstimator, leave_one_out_contributions,
                         normalized_pool_insert)
from .test_metrics import reference_hv

def reference_sweep(points, ref):
    """``metrics.hv_sweep`` answered by the earlier numpy-row hypervolume."""
    return reference_hv(np.array(points).reshape(-1, len(ref)), np.array(ref))


GRIDS = Path(__file__).resolve().parents[1] / "grids"

SMALL = dict(host=HostConfig(kind="moead", population_size=40),
             fe_max=2_000, snapshot_every=500)


def small_config(problem="mop1", estimator="running-min", **over):
    base = dict(SMALL)
    base.update(over)
    return RunConfig(problem=problem,
                     estimator=EstimatorConfig(kind=estimator), **base)


class TestRunTrial:
    def test_deterministic_repeat(self):
        cfg = small_config(estimator="eie")
        a = run_trial(cfg, seed=3)
        b = run_trial(cfg, seed=3)
        assert a.e_value == b.e_value and a.hv_value == b.hv_value
        assert a.trajectory == b.trajectory
        assert np.array_equal(a.final_f, b.final_f)
        assert a.raw_row() == b.raw_row()

    def test_shared_budget_is_always_spent_exactly(self):
        for est in ("running-min", "eie"):
            rec = run_trial(small_config(estimator=est), seed=0)
            assert rec.trajectory[-1][0] == rec.fe_max

    def test_small_moead_population_completes(self):
        # a 2-member neighbourhood once made the triplet draw spin forever
        cfg = small_config(problem="mop2", estimator="eie",
                           host=HostConfig(kind="moead", population_size=20))
        rec = run_trial(cfg, seed=0)
        assert rec.trajectory[-1][0] == rec.fe_max

    def test_trajectory_shape(self):
        rec = run_trial(small_config(), seed=1)
        fes = [fe for fe, _, _ in rec.trajectory]
        assert fes == sorted(set(fes))
        expected = rec.fe_max // 500
        assert abs(len(fes) - expected) <= 1

    def test_component_fraction_accounting(self):
        rec = run_trial(small_config(estimator="eie"), seed=2)
        assert 0.0 < rec.eie_fe_fraction < 1.0
        rec = run_trial(small_config(estimator="ut"), seed=2)
        assert rec.eie_fe_fraction == 0.0

    @pytest.mark.parametrize("host", ["nsga2", "moead", "smsemoa"])
    def test_component_evaluations_are_the_rows_of_its_batches(self, host,
                                                               monkeypatch):
        produce = IdealEstimation.produce_offspring
        calls = []  # (component, budget, used before, rows asked, rows paid)

        def spy(comp, budget, rng):
            used = budget.used
            asked = sum(proc.lam for proc in comp.procedures if proc.live)
            batch = produce(comp, budget, rng)
            calls.append((comp, budget, used, asked, batch.size))
            return batch

        monkeypatch.setattr(IdealEstimation, "produce_offspring", spy)

        def config(fe_max):
            return small_config("mop2", "eie", fe_max=fe_max,
                                host=HostConfig(kind=host, population_size=20))

        run_trial(config(2_000), seed=0)
        # the same run, with a budget that ends one row short of the third
        # component batch
        _, _, used, _, paid = calls[2]
        fe_max = used + paid - 1
        calls.clear()
        rec = run_trial(config(fe_max), seed=0)
        comp, budget, _, asked, paid = calls[-1]
        assert len(calls) == 3 and paid < asked
        assert comp.evaluations_used == sum(call[-1] for call in calls)
        assert budget.used == fe_max
        assert rec.eie_fe_fraction == comp.evaluations_used / fe_max

    def test_defaults_scale_with_objectives(self):
        assert default_population_size(2) == 100
        assert default_population_size(3) == 210
        assert default_fe_max(2) == 50_000
        assert default_fe_max(3) == 100_000

    def test_budget_must_exceed_population(self):
        with pytest.raises(ValueError):
            RunConfig(problem="mop1",
                      host=HostConfig(population_size=100),
                      fe_max=50)

    @pytest.mark.parametrize("field,value", [
        ("snapshot_every", 0), ("snapshot_every", -5), ("epsilon", 0.0),
        ("epsilon", -0.05), ("epsilon", float("nan")), ("epsilon", float("inf")),
    ])
    def test_unusable_snapshot_interval_or_tolerance_rejected(self, field, value):
        # snapshot_every 0 divided by zero and a negative one snapshotted every
        # generation; epsilon <= 0 failed every eie cell at run time, and an
        # infinite one scored every subproblem candidate NaN
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("host", ["nsga2", "smsemoa"])
    @pytest.mark.parametrize("estimator", ["ut", "drp"])
    def test_reference_point_estimator_needs_moead(self, host, estimator):
        # ut and drp act only through MoeadHost.z_ref; elsewhere they would
        # silently repeat running-min
        with pytest.raises(ValueError, match="moead"):
            RunConfig(problem="mop2",
                      host=HostConfig(kind=host, population_size=20),
                      estimator=EstimatorConfig(kind=estimator), fe_max=400)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_suite([small_config()], seeds=[0, 0])
        with pytest.raises(ValueError):
            run_suite([small_config()], seeds=[])
        with pytest.raises(ValueError, match="non-negative"):
            run_suite([small_config()], seeds=[0, -1])

    def test_repeated_configs_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        for configs in ([small_config(), small_config()],
                        [small_config("mop1"), small_config("MOP1")]):
            with pytest.raises(ValueError, match="config repeated: mop1/moead"):
                run_suite(configs, seeds=[0])
        assert not calls

    @pytest.mark.parametrize("seeds", [[1.5, 2], [True, 2], [0, np.bool_(False)],
                                       [float("nan")], [float("inf")], [None]])
    def test_seeds_must_be_whole_numbers(self, seeds):
        # 1.5 used to become seed 1 and True seed 1
        with pytest.raises(ValueError, match="whole number"):
            bench.check_seeds(seeds)

    def test_whole_floats_and_digit_strings_are_seeds(self):
        assert bench.check_seeds([1.0, np.float64(2), "3", np.int64(4)]) == [1, 2, 3, 4]

    def test_worker_count_must_be_positive(self, monkeypatch):
        monkeypatch.delenv(bench.WORKERS_ENV, raising=False)
        assert bench.worker_count(3) == 3
        assert 1 <= bench.worker_count() <= 4
        for bad in (0, -2):
            with pytest.raises(ValueError):
                bench.worker_count(bad)
        monkeypatch.setenv(bench.WORKERS_ENV, "2")
        assert bench.worker_count() == 2
        for bad in ("0", "-1", "abc"):
            monkeypatch.setenv(bench.WORKERS_ENV, bad)
            with pytest.raises(ValueError):
                bench.worker_count()


class TestKernelOracles:
    # the selection and hypervolume kernels must leave whole runs
    # bit-identical to the earlier sort, leave-one-out contributions and
    # exact hypervolume kept in the tests

    def run_with_oracles(self, problem, host, monkeypatch, hv_only):
        cfg = RunConfig(problem=problem,
                        host=HostConfig(kind=host, population_size=24),
                        estimator=EstimatorConfig(kind="eie"),
                        fe_max=600 if host == "smsemoa" else 2_000,
                        snapshot_every=200)
        shipped = run_trial(cfg, seed=5)
        calls = {"sort": 0, "stopped_sort": 0, "hvc": 0, "hv": 0, "box": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                # the sort's ``count`` reaches the oracle, which applies the
                # same stop rule
                calls["stopped_sort"] += kwargs.get("count") is not None
                return fn(*args, **kwargs)
            return wrapper

        oracle_hv = counted("hv", reference_hv)
        monkeypatch.setattr(metrics, "hv_exact", oracle_hv)
        # the contributions sweep each box through the shared list-level core
        monkeypatch.setattr(hosts, "hv_sweep", counted("hv", reference_sweep))
        if hv_only:
            shipped_hvc = hosts.hv_contributions

            def count_boxes(objs, ref):
                calls["box"] += len(objs)
                return shipped_hvc(objs, ref)
            monkeypatch.setattr(hosts, "hv_contributions", count_boxes)
        else:
            oracle_sort = counted("sort", reference_fronts)
            monkeypatch.setattr(core, "fast_non_dominated_sort", oracle_sort)
            monkeypatch.setattr(hosts, "fast_non_dominated_sort", oracle_sort)
            monkeypatch.setattr(hosts, "hv_contributions",
                                counted("hvc", leave_one_out_contributions))
        oracle = run_trial(cfg, seed=5)
        assert shipped.raw_row() == oracle.raw_row()
        assert shipped.trajectory == oracle.trajectory
        assert np.array_equal(shipped.final_x, oracle.final_x)
        assert np.array_equal(shipped.final_f, oracle.final_f)
        return calls, len(shipped.trajectory)

    @pytest.mark.parametrize("host", ["nsga2", "moead", "smsemoa"])
    @pytest.mark.parametrize("problem", ["mop2", "mop11"])
    def test_trial_matches_oracle_kernels(self, host, problem, monkeypatch):
        calls, snapshots = self.run_with_oracles(problem, host, monkeypatch,
                                                 hv_only=False)
        assert (calls["sort"] > 0) == (host != "moead")
        if host == "smsemoa":  # its initial population; inserts update levels
            assert calls["sort"] == 1
        # only nsga2 stops the sort early
        assert (calls["stopped_sort"] > 0) == (host == "nsga2")
        assert (calls["hvc"] > 0) == (host == "smsemoa")
        assert calls["hv"] == snapshots  # hv_normalized, once per snapshot

    @pytest.mark.parametrize("host", ["nsga2", "moead", "smsemoa"])
    @pytest.mark.parametrize("problem", ["mop2", "mop11"])
    def test_trial_matches_oracle_hypervolume(self, host, problem, monkeypatch):
        # the shipped contributions hand every box of every insert to the
        # oracle sweep
        calls, snapshots = self.run_with_oracles(problem, host, monkeypatch,
                                                 hv_only=True)
        if host == "smsemoa":
            assert calls["hv"] > snapshots
            assert calls["hv"] == snapshots + calls["box"]
        else:
            assert calls["hv"] == snapshots and calls["box"] == 0


class TestInsertOracle:
    # SmsEmoaHost's level update must leave whole runs bit-identical to the
    # earlier insert, which sorted the whole normalized pool every time

    @pytest.mark.parametrize("estimator", ["running-min", "eie"])
    @pytest.mark.parametrize("problem", ["mop2", "mop11"])
    def test_trial_matches_normalized_pool_insert(self, problem, estimator,
                                                  monkeypatch):
        cfg = RunConfig(problem=problem,
                        host=HostConfig(kind="smsemoa", population_size=24),
                        estimator=EstimatorConfig(kind=estimator),
                        fe_max=600, snapshot_every=200)
        injected = []
        step = hosts.SmsEmoaHost.step

        def counted_step(host, o1, budget, rng):
            injected.append(o1.size)
            return step(host, o1, budget, rng)

        monkeypatch.setattr(hosts.SmsEmoaHost, "step", counted_step)
        shipped = run_trial(cfg, seed=5)
        monkeypatch.setattr(hosts.SmsEmoaHost, "_insert", normalized_pool_insert)
        oracle = run_trial(cfg, seed=5)
        assert shipped.raw_row() == oracle.raw_row()
        assert shipped.trajectory == oracle.trajectory
        assert np.array_equal(shipped.final_x, oracle.final_x)
        assert np.array_equal(shipped.final_f, oracle.final_f)
        # eie hands the host several rows to insert at once
        assert (max(injected) > 1) == (estimator == "eie")


class TestReferencePointOracle:
    # MoeadHost's own reference point must equal, after every step, what the
    # earlier runner-side estimator wrote into host.z_ref

    @pytest.mark.parametrize("estimator", ["running-min", "ut", "drp", "eie"])
    @pytest.mark.parametrize("problem", ["mop2", "mop11"])
    def test_host_matches_baseline_estimator(self, problem, estimator,
                                             monkeypatch):
        cfg = RunConfig(problem=problem,
                        host=HostConfig(kind="moead", population_size=24),
                        estimator=EstimatorConfig(kind=estimator),
                        fe_max=2_000, snapshot_every=500)
        step = hosts.MoeadHost.step
        oracle = BaselineEstimator(cfg.estimator, get_problem(problem).m)
        seen = {"steps": 0, "offset": False}

        def checked_step(host, o1, budget, rng):
            if not seen["steps"]:
                oracle.observe(host.pop_f)
            o2 = step(host, o1, budget, rng)
            oracle.observe(o1.fs)
            oracle.observe(o2.fs)
            want = oracle.estimate(host.pop_f.min(axis=0),
                                   host.pop_f.max(axis=0),
                                   budget.used, cfg.fe_max)
            assert np.array_equal(host.z_ref, want)
            seen["steps"] += 1
            seen["offset"] |= not np.array_equal(want, oracle.z_running)
            return o2

        monkeypatch.setattr(hosts.MoeadHost, "step", checked_step)
        rec = run_trial(cfg, seed=5)
        assert rec.trajectory[-1][0] == cfg.fe_max and seen["steps"] > 10
        assert seen["offset"] == (estimator in ("ut", "drp"))


@pytest.fixture(scope="module")
def records():
    configs = [small_config(), small_config(estimator="eie")]
    return run_suite(configs, seeds=[0, 1], parallelism=1)


class TestSuiteAndEmit:

    def test_suite_shape(self, records):
        assert len(records) == 4 and all(r is not None for r in records)

    def test_parallel_suite_submits_the_longest_cells_first(self, monkeypatch):
        submitted = []

        class InlinePool:
            """Runs each submitted call at once and records the order."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args)
                fut = Future()
                try:
                    fut.set_result(fn(*args))
                except Exception as exc:  # noqa: BLE001 - handed to the suite
                    fut.set_exception(exc)
                return fut

        def fake_trial(config, seed):
            if seed == 5 and config.host.kind == "nsga2":
                raise RuntimeError("injected failure")
            return (config.problem, config.host.kind, seed)

        # run_suite imports the pool class from its module when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(bench, "run_trial", fake_trial)
        configs = [RunConfig(problem=problem,
                             host=HostConfig(kind=host, population_size=20),
                             fe_max=600)
                   for host in ("moead", "smsemoa", "nsga2")
                   for problem in ("mop2", "mop11")]
        got = run_suite(configs, seeds=[5, 6], parallelism=2)
        cells = [(cfg.problem, cfg.host.kind, seed) for cfg in configs
                 for seed in (5, 6)]
        # the records keep config x seed order, the failed cell in place
        assert got == [None if cell[1:] == ("nsga2", 5) else cell for cell in cells]
        # smsemoa first, then 3-objective before 2-objective, else record order
        assert [(cfg.problem, cfg.host.kind, seed) for cfg, seed in submitted] == [
            ("mop11", "smsemoa", 5), ("mop11", "smsemoa", 6),
            ("mop2", "smsemoa", 5), ("mop2", "smsemoa", 6),
            ("mop11", "moead", 5), ("mop11", "moead", 6),
            ("mop11", "nsga2", 5), ("mop11", "nsga2", 6),
            ("mop2", "moead", 5), ("mop2", "moead", 6),
            ("mop2", "nsga2", 5), ("mop2", "nsga2", 6),
        ]

    def test_serial_suite_runs_in_record_order(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "run_trial",
                            lambda config, seed: ran.append((config.host.kind, seed)))
        configs = [small_config(), RunConfig(
            problem="mop11", host=HostConfig(kind="smsemoa", population_size=20),
            fe_max=600)]
        run_suite(configs, seeds=[1, 0], parallelism=1)
        assert ran == [("moead", 1), ("moead", 0), ("smsemoa", 1), ("smsemoa", 0)]

    def test_import_leaves_the_process_pool_unloaded(self):
        # a one-worker run never loads concurrent.futures' process pool
        import os
        import subprocess
        import sys

        import idealbench

        script = ("import sys, idealbench.bench; "
                  "print('concurrent.futures.process' in sys.modules)")
        src = str(Path(idealbench.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.stdout.strip() == "False"

    def test_parallel_matches_serial(self):
        configs = [small_config()]
        serial = run_suite(configs, seeds=[0, 1], parallelism=1)
        parallel = run_suite(configs, seeds=[0, 1], parallelism=2)
        for a, b in zip(serial, parallel):
            assert a.raw_row() == b.raw_row()
            assert a.trajectory == b.trajectory
            assert np.array_equal(a.final_f, b.final_f)

    def test_emit_round_trip(self, records, tmp_path):
        emit(records, tmp_path)
        raw = (tmp_path / "raw.csv").read_text().splitlines()
        assert raw[0] == "problem,host,estimator,seed,fe_max,e,hv,eie_fe_fraction"
        assert len(raw) == 5
        parsed = load_raw(tmp_path / "raw.csv")
        key = lambda r: (r.problem, r.host, r.estimator, r.seed)
        originals = {key(r): r for r in records}
        for rec in parsed:
            orig = originals[key(rec)]
            assert rec.e_value == float(format(orig.e_value, ".6g"))
            assert rec.hv_value == float(format(orig.hv_value, ".6g"))

    def test_emit_refuses_failed_cells(self, records, tmp_path):
        with pytest.raises(ValueError, match="2 failed cell"):
            emit([None, *records, None], tmp_path)
        assert not (tmp_path / "raw.csv").exists()

    def test_emit_trajectory_rows(self, records, tmp_path):
        emit(records, tmp_path)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_run = sum(len(r.trajectory) for r in records)
        assert len(rows) == per_run
        assert set(rows[0]) == {"problem", "host", "estimator", "seed", "fe", "e", "hv"}

    def test_summary_means_recompute(self, records, tmp_path):
        summary = emit(records, tmp_path)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        for rec in records:
            cell = summary[rec.problem][f"{rec.host}+{rec.estimator}"]
            series = [r.e_value for r in records
                     if (r.problem, r.host, r.estimator) ==
                     (rec.problem, rec.host, rec.estimator)]
            assert cell["e"]["mean"] == float(format(np.mean(series), ".6g"))

    def test_report_reference_against_itself(self, records):
        rep = build_report(records, reference="moead+running-min")
        for entry in rep["problems"].values():
            assert entry["e"]["moead+running-min"]["verdict"] == ""

    def test_report_ranks_follow_means(self, records):
        rep = build_report(records, reference="moead+eie")
        for entry in rep["problems"].values():
            cells = entry["e"]
            ordered = sorted(cells.values(), key=lambda c: c["mean"])
            assert [c["rank"] for c in ordered] == sorted(c["rank"] for c in ordered)

    def test_report_unknown_reference(self, records):
        with pytest.raises(ValueError):
            build_report(records, reference="nope+nothing")

    def test_average_rank_ties(self):
        base = run_trial(small_config(), seed=0)
        twin = run_trial(small_config(estimator="ut"), seed=0)
        # force an exact mean tie between the two columns
        twin.e_value = base.e_value
        twin.hv_value = base.hv_value
        rep = build_report([base, twin], reference="moead+ut")
        ranks = [c["rank"] for c in rep["problems"]["mop1"]["e"].values()]
        assert sorted(ranks) == [1.5, 1.5]  # averaged over the tie


    def test_format_report_shows_midranks(self):
        # two columns tie on mop1 and split on mop2: ranks 1.5/1.5 and 1/2
        def record(problem, estimator, e):
            return RunRecord(problem=problem, host="moead", estimator=estimator,
                             seed=0, fe_max=1000, e_value=e, hv_value=0.5,
                             eie_fe_fraction=0.0, trajectory=[])
        records = [record("mop1", "eie", 0.3), record("mop1", "running-min", 0.3),
                   record("mop2", "eie", 0.1), record("mop2", "running-min", 0.2)]
        text = format_report(build_report(records, reference="moead+eie"))
        lines = text.split("== hypervolume")[0].splitlines()
        cells = [[float(r) for r in re.findall(r"\(([\d.]+)\)", line)]
                 for line in lines if line.split()[:1] in (["mop1"], ["mop2"])]
        assert cells == [[1.5, 1.5], [1.0, 2.0]]
        average = next(line for line in lines if "average rank" in line)
        shown = [float(v) for v in average.split()[2:]]
        assert shown == [sum(col) / len(cells) for col in zip(*cells)]
        assert shown == [1.25, 1.75]

    def test_report_with_missing_cell(self):
        # a column with no records on one problem has a NaN mean there
        def record(problem, estimator, seed):
            return RunRecord(problem=problem, host="moead", estimator=estimator,
                             seed=seed, fe_max=1000, e_value=0.1 * (seed + 1),
                             hv_value=0.5, eie_fe_fraction=0.0, trajectory=[])
        records = [record("mop1", "eie", s) for s in range(5)]
        records += [record(p, "running-min", s)
                    for p in ("mop1", "mop2") for s in range(5)]
        rep = build_report(records, reference="moead+running-min")
        cell = rep["problems"]["mop2"]["e"]["moead+eie"]
        assert math.isnan(cell["mean"]) and cell["rank"] == 2.0
        assert rep["problems"]["mop2"]["hv"]["moead+eie"]["rank"] == 2.0
        assert rep["problems"]["mop2"]["e"]["moead+running-min"]["rank"] == 1.0
        assert "nan(2)" in format_report(rep)


class TestCli:
    def test_list_problems(self):
        result = CliRunner().invoke(cli_main, ["list-problems"])
        assert result.exit_code == 0
        names = result.output.split()
        assert len(names) == 22 and "mop16-inv" in names

    def test_sample_front(self, tmp_path):
        out = tmp_path / "pf.csv"
        result = CliRunner().invoke(
            cli_main, ["sample", "mop1", "--what", "pf", "--count", "11",
                       "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "f1,f2" and len(rows) == 12

    def test_sample_optimal_set(self, tmp_path):
        out = tmp_path / "ps.csv"
        result = CliRunner().invoke(
            cli_main, ["sample", "mop13", "--what", "ps", "--count", "4",
                       "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ",".join(f"x{i+1}" for i in range(11)) and len(rows) == 5

    def test_sample_random_images(self, tmp_path):
        out = tmp_path / "rand.csv"
        result = CliRunner().invoke(
            cli_main, ["sample", "mop12", "--what", "random", "--count", "7",
                       "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "f1,f2,f3" and len(rows) == 8

    def test_run_and_report(self, tmp_path):
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "mop1", "--host", "moead",
            "--estimator", "running-min,eie", "--seeds", "0,1",
            "--fe-max", "1500", "--pop-size", "30", "--out", str(res),
            "--workers", "1",
        ])
        assert result.exit_code == 0, result.output
        assert "running 2 config(s) x 2 seed(s) on 1 worker(s)" in result.output
        assert (res / "raw.csv").exists() and (res / "trajectory.csv").exists()
        report = CliRunner().invoke(
            cli_main, ["report", str(res), "--reference", "moead+eie"])
        assert report.exit_code == 0, report.output
        assert "hypervolume" in report.output
        assert (res / "report.json").exists()

    @pytest.fixture
    def emitted(self, tmp_path):
        # two overlapping 5-seed columns: comparable ('=') at alpha 0.05
        def record(estimator, seed, e):
            return RunRecord(problem="mop1", host="moead", estimator=estimator,
                             seed=seed, fe_max=1000, e_value=e, hv_value=0.5,
                             eie_fe_fraction=0.0, trajectory=[(1000, e, 0.5)])
        records = [record("eie", s, 0.1 * (s + 1)) for s in range(5)]
        records += [record("running-min", s, 0.1 * (s + 1) + 0.05) for s in range(5)]
        emit(records, tmp_path)
        return tmp_path

    def test_report_unknown_reference_is_a_usage_error(self, emitted):
        result = CliRunner().invoke(cli_main, ["report", str(emitted),
                                               "--reference", "nope"])
        assert result.exit_code == 2, result.output
        assert "'nope' is not a column" in result.output
        assert "available: moead+eie, moead+running-min" in result.output
        assert not (emitted / "report.json").exists()

    @pytest.mark.parametrize("alpha", ["7", "1", "0", "-0.1", "nan", "inf"])
    def test_report_alpha_outside_unit_interval_is_a_usage_error(self, emitted,
                                                                 alpha):
        result = CliRunner().invoke(cli_main, ["report", str(emitted),
                                               "--alpha", alpha])
        assert result.exit_code == 2, result.output
        assert "--alpha" in result.output and "0<x<1" in result.output
        assert not (emitted / "report.json").exists()

    def test_report_alpha_sets_the_verdicts(self, emitted):
        verdicts = []
        for alpha in ("0.05", "0.999"):
            result = CliRunner().invoke(cli_main, ["report", str(emitted),
                                                   "--alpha", alpha])
            assert result.exit_code == 0, result.output
            rep = json.loads((emitted / "report.json").read_text())
            verdicts.append(rep["problems"]["mop1"]["e"]["moead+eie"]["verdict"])
        assert verdicts == ["=", "+"]

    def test_run_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            res = tmp_path / name
            result = CliRunner().invoke(cli_main, [
                "run", "--problem", "mop1", "--host", "moead",
                "--estimator", "eie", "--seeds", "5", "--fe-max", "1200",
                "--pop-size", "30", "--out", str(res), "--workers", "1",
            ])
            assert result.exit_code == 0, result.output
            outs.append((res / "raw.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "mop1", "host": "moead", "estimator": "running-min",
            "seeds": [0], "fe_max": 1200, "pop_size": 30,
        }))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--estimator", "ut",
            "--out", str(res), "--workers", "1",
        ])
        assert result.exit_code == 0, result.output
        raw = (res / "raw.csv").read_text()
        assert ",ut," in raw and "running-min" not in raw

    @pytest.mark.parametrize("config,flags,emitted", [
        (True, ["--out", "results"], "results"),  # the typed default wins
        (True, ["--out", "mine"], "mine"),
        (True, [], "from-config"),
        (False, [], "results"),
    ])
    def test_typed_out_beats_config_output_dir(self, config, flags, emitted,
                                               tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "seeds": [0],
                                   "output_dir": "from-config"}))
        out_dirs = []
        monkeypatch.setattr(cli, "run_suite", lambda configs, seeds, parallelism:
                            [object()] * (len(configs) * len(seeds)))
        monkeypatch.setattr(cli, "emit", lambda records, out: out_dirs.append(out))
        args = ["run", "--problem", "mop1", *flags]
        if config:
            args += ["--config", str(cfg)]
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 0, result.output
        assert out_dirs == [emitted]

    def test_config_file_unknown_keys_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "mop1", "host": "moead", "seeds": [0], "fe_max": 1200,
            "pop_size": 30, "popsize": 99, "neighborhood_size": 5,
        }))
        calls = []
        monkeypatch.setattr(bench, "run_trial",
                            lambda *a: calls.append(a) or run_trial(*a))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--out", str(res), "--workers", "1",
        ])
        assert result.exit_code == 2, result.output  # click usage error
        assert "neighborhood_size, popsize" in result.output
        assert "Traceback" not in result.output
        assert not calls and not res.exists()

    def test_scalarization_is_not_a_setting(self, tmp_path, monkeypatch):
        # MOEA/D is Tchebycheff only; neither a flag nor a key can change it
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "mop1", "--scalarization", "weighted-sum",
            "--out", str(res)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "No such option '--scalarization'" in result.output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "scalarization": "tchebycheff"}))
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--out", str(res), "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert ("unknown key(s) in " + str(cfg) + ": scalarization; known keys:"
                " epsilon, estimator, fe_max, host, output_dir, pop_size, problem,"
                " seeds, snapshot_every") in result.output.replace("\n", " ")
        assert "Traceback" not in result.output
        assert not calls and not res.exists()

    @pytest.mark.parametrize("estimators", [
        "running-min", "eie-separate", "running-min,eie-separate"])
    @pytest.mark.parametrize("by_flag", [True, False])
    def test_epsilon_without_an_eie_cell_is_a_usage_error(
            self, estimators, by_flag, tmp_path, monkeypatch):
        # only eie reads the tolerance; elsewhere it changed no byte
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop4", "seeds": [0],
                                   **({} if by_flag else {"epsilon": 0.3})}))
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--estimator", estimators,
            *(["--epsilon", "0.3"] if by_flag else []), "--out", str(res)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "epsilon is the tolerance of eie cells only" in result.output
        assert "Traceback" not in result.output
        assert not calls and not res.exists()

    def test_epsilon_beside_an_eie_cell_reaches_every_config(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda configs, seeds, parallelism:
                            seen.extend(configs) or [])
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "mop4", "--estimator", "running-min,eie",
            "--seeds", "0", "--epsilon", "0.3"])
        assert result.exit_code == 0, result.output
        assert [(c.estimator.kind, c.epsilon) for c in seen] == [
            ("running-min", 0.3), ("eie", 0.3)]

    def test_config_output_dir_that_is_a_file_is_a_usage_error(self, tmp_path,
                                                               monkeypatch):
        # every trial ran, then emit's FileExistsError lost the results
        taken = tmp_path / "taken"
        taken.write_text("keep")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "seeds": [0],
                                   "output_dir": str(taken)}))
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(cfg)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "is a file, not a directory" in result.output
        assert "Traceback" not in result.output
        assert not calls and taken.read_text() == "keep"

    def test_grids_define_the_paper_protocol(self, monkeypatch):
        # 30 seeds; 200k evaluations and population 100 on the 2-objective
        # instances, 400k and 210 on the 3-objective ones; each instance once
        # per host, nsga2 with running-min and eie, moead with every estimator
        # that its reference point takes
        estimators = {"nsga2": ["running-min", "eie"],
                      "moead": ["running-min", "ut", "drp", "eie"]}
        seen = {}

        def fake_suite(configs, seeds, parallelism):
            seen.update(configs=configs, seeds=list(seeds))
            return [True] * (len(configs) * len(seeds))

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        monkeypatch.setattr(cli, "emit", lambda done, out: seen.update(out=out))
        grids = sorted(GRIDS.glob("*.json"))
        cells, outs, trials = [], set(), 0
        for path in grids:
            seen.clear()
            result = CliRunner().invoke(cli_main, ["run", "--config", str(path)])
            assert result.exit_code == 0, result.output
            assert seen["seeds"] == list(range(30)), path.name
            ms = {get_problem(c.problem).m for c in seen["configs"]}
            hosts_ = {c.host.kind for c in seen["configs"]}
            assert len(ms) == 1 and len(hosts_) == 1, path.name
            (m,), (host,) = ms, hosts_
            assert seen["out"] == f"results/paper-{m}d-{host}", path.name
            for c in seen["configs"]:
                assert (c.fe_max, c.host.population_size, c.snapshot_every) == (
                    {2: 200_000, 3: 400_000}[m], {2: 100, 3: 210}[m], 10_000), path.name
                assert c.epsilon == RunConfig.epsilon
                cells.append((c.problem, host, c.estimator.kind))
            outs.add(seen["out"])
            trials += len(seen["configs"]) * len(seen["seeds"])
        want = [(p, host, est) for p in preset_names()
                for host, kinds in estimators.items() for est in kinds]
        assert sorted(cells) == sorted(want)
        assert len(outs) == len(grids) == 4
        assert trials == 3_960

    def test_paper_protocol_flag_is_gone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: calls.append(a))
        result = CliRunner().invoke(cli_main, ["run", "--paper-protocol"])
        assert result.exit_code == 2, result.output  # click usage error
        assert "No such option" in result.output and "--paper-protocol" in result.output
        assert not calls

    def test_failed_cell_exits_nonzero_after_emitting_the_rest(self, tmp_path,
                                                              monkeypatch):
        def flaky(config, seed):
            if seed == 1:
                raise RuntimeError("injected failure")
            return run_trial(config, seed)

        monkeypatch.setattr(bench, "run_trial", flaky)
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "mop1", "--host", "moead", "--estimator",
            "running-min", "--seeds", "0,1,2", "--fe-max", "1200",
            "--pop-size", "30", "--out", str(res), "--workers", "1",
        ])
        assert result.exit_code == 1, result.output
        assert "emitted 2 records" in result.output
        assert "1 of 3 cell(s) failed: mop1/moead+running-min seed 1" in result.output
        with open(res / "raw.csv") as fh:
            seeds = [row["seed"] for row in csv.DictReader(fh)]
        assert seeds == ["0", "2"]

    @pytest.mark.parametrize("problem,host,estimator,message", [
        ("mop1", "nsga2", "drp", "moead"),
        ("mop1", "smsemoa", "ut", "moead"),
        ("mop1", "bogus", "running-min", "unknown host"),
        ("mop99", "moead", "running-min", "unknown problem"),
    ])
    def test_run_rejects_bad_grid_as_usage_error(self, problem, host, estimator,
                                                 message, tmp_path):
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", problem, "--host", host, "--estimator", estimator,
            "--seeds", "0", "--fe-max", "1200", "--pop-size", "30",
            "--out", str(res), "--workers", "1",
        ])
        assert result.exit_code == 2, result.output  # click usage error
        assert message in result.output and "Traceback" not in result.output
        assert not res.exists()

    @pytest.mark.parametrize("flags,env,message", [
        (["--snapshot-every", "0"], {}, "snapshot_every"),
        (["--snapshot-every", "-5"], {}, "snapshot_every"),
        (["--epsilon", "0"], {}, "epsilon"),
        (["--seeds", "1,1"], {}, "distinct"),
        (["--seeds", "0,-3"], {}, "non-negative"),
        (["--seeds", "0,x"], {}, "invalid literal"),
        (["--problem", ","], {}, "no problem"),
        (["--workers", "0"], {}, "--workers"),
        (["--workers", "-2"], {}, "--workers"),
        ([], {bench.WORKERS_ENV: "0"}, "--workers"),
        ([], {bench.WORKERS_ENV: "abc"}, "--workers"),
        (["--pop-size", "2"], {}, "population must exceed"),
        (["--host", "nsga2", "--pop-size", "3"], {}, "at least 4"),
        (["--epsilon", "inf"], {}, "epsilon must be positive and finite"),
        (["--problem", ""], {}, "no problem"),  # ran mop1
        (["--host", ""], {}, "no problem"),
        (["--estimator", ""], {}, "no problem"),
        (["--seeds", ""], {}, "non-empty"),  # ran the 10 default seeds
        # each repeat ran twice and was reported as more runs of one cell
        (["--problem", "mop1,MOP1"], {}, "config repeated: mop1/moead+eie"),
        (["--host", "moead,moead"], {}, "config repeated: mop1/moead+eie"),
        (["--estimator", "eie,running-min,eie"], {}, "config repeated"),
    ])
    def test_run_rejects_bad_values_before_any_trial(self, flags, env, message,
                                                     tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        res = tmp_path / "res"
        args = ["run", "--problem", "mop1", "--estimator", "eie", "--seeds", "0",
                "--fe-max", "1200", "--pop-size", "30", "--out", str(res)]
        result = CliRunner().invoke(cli_main, args + flags, env=env)
        assert result.exit_code == 2, result.output  # click usage error
        assert message in result.output and "Traceback" not in result.output
        assert "running" not in result.output
        assert not calls and not res.exists()

    def test_config_file_takes_a_single_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "seeds": 3}))
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda configs, seeds, parallelism:
                            seen.append(seeds) or [])
        result = CliRunner().invoke(cli_main, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output  # was a TypeError
        assert seen == [[3]]

    @pytest.mark.parametrize("settings,message", [
        ({"seeds": [1.5, 2]}, "seed must be a whole number, not 1.5"),
        ({"seeds": [True, 2]}, "seed must be a whole number, not True"),
        ({"seeds": False}, "seed must be a whole number, not False"),
        ({"seeds": [None]}, "seed must be a whole number, not None"),
        ({"fe_max": 1200.5}, "fe_max must be a whole number, not 1200.5"),
        ({"fe_max": True}, "fe_max must be a whole number, not True"),
        ({"pop_size": 20.7}, "pop_size must be a whole number, not 20.7"),
        ({"pop_size": [30]}, "pop_size must be a whole number, not [30]"),
        ({"snapshot_every": 500.5}, "snapshot_every must be a whole number"),
        ({"snapshot_every": True}, "snapshot_every must be a whole number"),
    ])
    def test_config_file_numbers_must_be_whole(self, settings, message, tmp_path,
                                               monkeypatch):
        # "pop_size": 20.7 used to run at population 20 and exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "host": "moead", "seeds": [0],
                                   "fe_max": 1200, "pop_size": 30, **settings}))
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--out", str(res), "--workers", "1"])
        assert result.exit_code == 2, result.output  # click usage error
        assert message in result.output and "Traceback" not in result.output
        assert not calls and not res.exists()

    @pytest.mark.parametrize("settings,message", [
        ({"output_dir": 5}, "output_dir must be a path, not 5"),
        ({"epsilon": [0.1]}, "epsilon must be a number, not [0.1]"),
        ({"epsilon": True}, "epsilon must be a number, not True"),
        ({"problem": 5}, "problem must be a name or a list of names, not 5"),
        ({"problem": None}, "problem must be a name or a list of names, not None"),
        ({"problem": ["mop1", 2]}, "names, not ['mop1', 2]"),
        ({"epsilon": float("inf")}, "epsilon must be positive and finite, not inf"),
    ])
    def test_config_file_values_must_have_their_type(self, settings, message,
                                                     tmp_path, monkeypatch):
        # these ended in tracebacks ("output_dir": 5 after every trial), or
        # ran silently ("epsilon": true at 1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "host": "moead", "seeds": [0],
                                   "fe_max": 1200, "pop_size": 30, **settings}))
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)  # where a relative output dir would go
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--workers", "1"])
        assert result.exit_code == 2, result.output  # click usage error
        assert message in result.output and "Traceback" not in result.output
        assert not calls and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_file_takes_whole_floats(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "mop1", "seeds": [2.0, 0], "fe_max": 1200.0,
                                   "pop_size": 30.0, "snapshot_every": 400.0}))
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda configs, seeds, parallelism:
                            seen.append((configs, seeds)) or [])
        result = CliRunner().invoke(cli_main, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        (config,), seeds = seen[0]
        assert seeds == [2, 0]
        assert (config.host.population_size, config.fe_max, config.snapshot_every) == (
            30, 1200, 400)
        assert all(type(v) is int for v in (config.host.population_size, config.fe_max,
                                             config.snapshot_every, *seeds))

    @pytest.mark.parametrize("text,message", [
        ("{\"problem\": \"mop1\",", "is not valid JSON"),
        ("", "is not valid JSON"),
        ("[\"mop1\"]", "must hold a JSON object of settings, not list"),
        ("3", "must hold a JSON object of settings, not int"),
        ("null", "must hold a JSON object of settings, not NoneType"),
    ])
    def test_config_file_must_be_a_json_object(self, text, message, tmp_path,
                                               monkeypatch):
        # a parse error and a list used to end in tracebacks
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a))
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(cfg), "--out", str(res), "--workers", "1"])
        assert result.exit_code == 2, result.output  # click usage error
        assert message in result.output and "Traceback" not in result.output
        assert not calls and not res.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_rejects_nonpositive_count(self, count, tmp_path):
        out = tmp_path / "pf.csv"
        result = CliRunner().invoke(
            cli_main, ["sample", "mop1", "--count", count, "--out", str(out)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "--count" in result.output and not out.exists()

    def test_sample_unknown_problem_is_a_usage_error(self, tmp_path):
        # was a KeyError traceback, exit 1
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(cli_main, ["sample", "mop99", "--out", str(out)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "unknown problem 'mop99'" in result.output
        assert "known: mop1, mop2," in result.output and "mop16-inv" in result.output
        assert "Traceback" not in result.output and not out.exists()

    @pytest.mark.parametrize("command", [["sample", "mop2-inv", "--out", "x.csv"],
                                         ["run", "--problem", "mop2-inv"]])
    def test_name_without_an_inverted_variant_lists_the_known_names(
            self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(cli_main, command)
        assert result.exit_code == 2, result.output  # click usage error
        assert "unknown problem 'mop2-inv'" in result.output
        assert "known: mop1, mop2," in result.output and "mop16-inv" in result.output
        assert "Traceback" not in result.output and not list(tmp_path.iterdir())

    def test_run_names_a_problem_in_lower_case(self, tmp_path):
        res = tmp_path / "res"
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "MOP1", "--seeds", "0", "--fe-max", "300",
            "--pop-size", "10", "--out", str(res), "--workers", "1"])
        assert result.exit_code == 0, result.output
        summary = json.loads((res / "summary.json").read_text())
        assert list(summary) == ["mop1"]
        assert summary["mop1"]["moead+running-min"]["e"]["runs"] == 1

    def test_sample_creates_its_output_directory(self, tmp_path):
        # was a FileNotFoundError traceback after the samples were computed
        out = tmp_path / "nodir" / "x.csv"
        result = CliRunner().invoke(cli_main, ["sample", "mop1", "--count", "5",
                                               "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines()[0] == "f1,f2"
        assert len(out.read_text().splitlines()) == 6

    def test_sample_out_under_a_file_is_a_usage_error(self, tmp_path, monkeypatch):
        (tmp_path / "taken").write_text("keep")
        out = tmp_path / "taken" / "x.csv"
        drawn = []  # the sampling starts with the generator
        monkeypatch.setattr(cli, "make_rng", lambda seed: drawn.append(seed))
        result = CliRunner().invoke(cli_main, ["sample", "mop1", "--out", str(out)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "--out" in result.output and "Traceback" not in result.output
        assert not drawn and (tmp_path / "taken").read_text() == "keep"

    def test_sample_rejects_negative_seed(self, tmp_path):
        # was NumPy's ValueError traceback from make_rng
        out = tmp_path / "ps.csv"
        result = CliRunner().invoke(cli_main, ["sample", "mop1", "--what", "ps",
                                               "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2, result.output  # click usage error
        assert "--seed" in result.output and not out.exists()

    @pytest.mark.parametrize("raw,message", [
        (None, "No such file or directory"),
        ("problem,host,estimator,seed\nmop1,moead,eie,0\n",
         "lacks the column(s) fe_max, e, hv, eie_fe_fraction"),
        (",".join(bench.RAW_COLUMNS) + "\nmop1,moead,eie,0,1000,abc,0.5,0\n",
         "line 2: could not convert string to float: 'abc'"),
        (",".join(bench.RAW_COLUMNS) + "\nmop1,moead,eie,0,1000,0.1,0.5,0\nmop1,moead\n",
         "line 3: too few fields"),
        (",".join(bench.RAW_COLUMNS) + "\nmop1,moead,eie,0,1000,0.1,0.5,0,EXTRA\n",
         "line 2: too many fields"),
    ])
    def test_report_on_bad_results_is_a_usage_error(self, raw, message, tmp_path):
        # each ended in a FileNotFoundError, KeyError or ValueError traceback
        if raw is not None:
            (tmp_path / "raw.csv").write_text(raw)
        result = CliRunner().invoke(cli_main, ["report", str(tmp_path)])
        assert result.exit_code == 2, result.output  # click usage error
        assert str(tmp_path / "raw.csv") in result.output.replace("\n", "")
        assert message in result.output and "Traceback" not in result.output
        assert not (tmp_path / "report.json").exists()

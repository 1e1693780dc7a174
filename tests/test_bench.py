import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from idealbench import core, hosts, metrics
from idealbench.bench import (RunConfig, RunRecord, build_report,
                              default_fe_max, default_population_size, emit,
                              format_report, load_raw, run_suite, run_trial,
                              summarize)
from idealbench.cli import main as cli_main
from idealbench.hosts import EstimatorConfig, HostConfig

from .test_core import reference_fronts
from .test_hosts import leave_one_out_contributions
from .test_metrics import reference_hv

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

    @pytest.mark.parametrize("host", ["nsga2", "smsemoa"])
    @pytest.mark.parametrize("estimator", ["ut", "drp"])
    def test_reference_point_estimator_needs_moead(self, host, estimator):
        # ut and drp act only through MoeadHost.z_ref; elsewhere they would
        # silently repeat running-min
        with pytest.raises(ValueError, match="moead"):
            RunConfig(problem="mop2",
                      host=HostConfig(kind=host, population_size=20),
                      estimator=EstimatorConfig(kind=estimator), fe_max=400)

    def test_digest_stable_and_sensitive(self):
        a = small_config().digest()
        assert a == small_config().digest()
        assert a != small_config(estimator="eie").digest()

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_suite([small_config()], seeds=[0, 0])
        with pytest.raises(ValueError):
            run_suite([small_config()], seeds=[])


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
        calls = {"sort": 0, "hvc": 0, "hv": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        oracle_hv = counted("hv", reference_hv)
        monkeypatch.setattr(metrics, "hv_exact", oracle_hv)
        monkeypatch.setattr(hosts, "hv_exact", oracle_hv)
        if not hv_only:
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
        assert (calls["hvc"] > 0) == (host == "smsemoa")
        assert calls["hv"] == snapshots  # hv_normalized, once per snapshot

    @pytest.mark.parametrize("host", ["nsga2", "moead", "smsemoa"])
    @pytest.mark.parametrize("problem", ["mop2", "mop11"])
    def test_trial_matches_oracle_hypervolume(self, host, problem, monkeypatch):
        # the shipped contributions hand their per-insert boxes to the oracle
        calls, snapshots = self.run_with_oracles(problem, host, monkeypatch,
                                                 hv_only=True)
        if host == "smsemoa":
            assert calls["hv"] > snapshots
        else:
            assert calls["hv"] == snapshots


@pytest.fixture(scope="module")
def records():
    configs = [small_config(), small_config(estimator="eie")]
    return run_suite(configs, seeds=[0, 1], parallelism=1)


class TestSuiteAndEmit:

    def test_suite_shape(self, records):
        assert len(records) == 4 and all(r is not None for r in records)

    def test_parallel_matches_serial(self):
        configs = [small_config()]
        serial = run_suite(configs, seeds=[0, 1], parallelism=1)
        parallel = run_suite(configs, seeds=[0, 1], parallelism=2)
        for a, b in zip(serial, parallel):
            assert a.raw_row() == b.raw_row()

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
                             eie_fe_fraction=0.0, trajectory=[],
                             config_digest="")
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
                             hv_value=0.5, eie_fe_fraction=0.0, trajectory=[],
                             config_digest="")
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
        assert (res / "raw.csv").exists() and (res / "trajectory.csv").exists()
        report = CliRunner().invoke(
            cli_main, ["report", str(res), "--reference", "moead+eie"])
        assert report.exit_code == 0, report.output
        assert "hypervolume" in report.output
        assert (res / "report.json").exists()

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

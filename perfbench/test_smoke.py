"""Smoke test of the benchmark itself, at a tiny budget per workload.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import layers
import measure
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_FE_MAX = {"nsga2-mop11-eie": 600, "moead-mop2-eie": 400, "smsemoa-mop11-rmin": 240}


def run(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(measure, "OUT_DIR", tmp_path)
    code = measure.main(["--workload", name, "--seeds", "0,1", "--seconds", "0",
                         "--trace", str(trace)], fe_max=TINY_FE_MAX[name])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_workload_is_listed_and_tiny():
    assert sorted(TINY_FE_MAX) == sorted(WORKLOADS) == sorted(
        w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics(name, capsys, monkeypatch, tmp_path):
    original = vars(measure.core.EvaluationBudget)["evaluate"]
    result = run(name, 0, capsys, monkeypatch, tmp_path)
    assert vars(measure.core.EvaluationBudget)["evaluate"] is original
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_metrics(name, capsys, monkeypatch, tmp_path):
    originals = [vars(owner)[attr] for owner, attr, _, _ in layers.TRACED]
    result = run(name, 1, capsys, monkeypatch, tmp_path)
    assert result["correct"]  # includes byte-identical traced CSVs
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_sum <= metrics["bench.run_trial.wall_s"]["value"] * (1 + 1e-9)
    assert layers.installed_wrappers() == []
    assert [vars(owner)[attr] for owner, attr, _, _ in layers.TRACED] == originals
    assert (tmp_path / f"spans-{name}-0.csv").is_file()

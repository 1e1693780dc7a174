"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 6 and 7 execute the full desk-scale protocol and are expected to
be the slow part of the suite; worker count follows IDEALBENCH_WORKERS.
"""

import sys
import time

import numpy as np
from click.testing import CliRunner

from idealbench.bench import RunConfig, run_suite
from idealbench.cli import main as cli_main
from idealbench.cmaes import CmaProcedure
from idealbench.core import BoxBounds, EvaluationBudget, OffspringBatch, make_rng
from idealbench.estimation import alpha_from_epsilon, ews_weights
from idealbench.generator import (GeneratorParams, _distance_from_y, _remap,
                                  _remap_frame, chat, get_problem,
                                  position_value, preset, preset_names)
from idealbench.hosts import (EstimatorConfig, HostConfig, drp_beta,
                              make_host, reference_point)
from idealbench.metrics import hv_exact

from .oracles import hv_monte_carlo


def _say(text):
    # bypass pytest capture so every verdict line reaches the terminal
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


def _verdict(name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    _say(f"[acceptance] {name}: {state} {detail}")
    return ok


def _simplex_uniform(m, count, rng):
    e = rng.standard_exponential((count, m))
    return e / e.sum(axis=1, keepdims=True)


def test_criterion_1_scalarization_error_bound():
    """Brute-force subproblem optima on a normalized linear front stay
    within the stated tolerance of the true per-objective minimum."""
    start = time.time()
    ok = True
    details = []
    rng = make_rng(11)
    for m in (2, 3):
        front = _simplex_uniform(m, 100_000, rng)
        for eps in (0.005, 0.01, 0.05):
            weights = ews_weights([alpha_from_epsilon(eps)] * m)
            for i in range(m):
                winner = front[np.argmin(front @ weights[i])]
                ok &= winner[i] <= eps + 1e-3
                details.append(f"m={m} eps={eps} i={i} err={winner[i]:.4g}")
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert _verdict("1 scalarization error bound",
                    ok, f"({elapsed:.1f}s)"), details


def test_criterion_2_generator_correctness():
    start = time.time()
    rng = make_rng(22)
    ok = True
    for name in preset_names():
        prob = get_problem(name)
        params = prob.params
        ps = prob.sample_pareto_set(1000, rng)
        g = _distance_from_y(ps[:, params.s:],
                             position_value(ps[:, : params.s], params)[1], params)
        ok &= bool(np.abs(g).max() < 1e-12)
        fs = prob.evaluate_batch(prob.bounds.sample(10_000, rng))
        ok &= bool(np.isfinite(fs).all() and (fs >= 0).all())
        flat = GeneratorParams(
            m=params.m, n=params.n, s=params.s, p=(1,) * params.m,
            c_pos=params.c_pos, gamma=params.gamma, theta=params.theta,
            a1=params.a1, a2=params.a2, a3=params.a3, a4=params.a4,
            a5=params.a5, c_dis=params.c_dis,
        )
        ch = chat(flat.c_pos)
        x_center = np.array([[ch[j % (flat.m - 1)] for j in range(flat.s)]])
        h, _ = position_value(x_center, flat)
        ok &= bool(np.max(np.abs(h[0] - np.asarray(flat.c_pos))) < 1e-12)
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    assert _verdict("2 generator correctness", ok, f"({elapsed:.1f}s)")


def test_criterion_3_position_bias_signature():
    frame = _remap_frame(np.array([0.25]), 0.1)
    checks = [
        (_remap(np.array([0.125]), *frame)[0], 0.0),
        (_remap(np.array([0.625]), *frame)[0], 1.0),
        (_remap(np.array([0.0]), *frame)[0], 0.25),
        (_remap(np.array([1.0]), *frame)[0], 0.25),
    ]
    ok = all(abs(got - want) < 1e-12 for got, want in checks)
    assert _verdict("3 position-bias signature", ok, f"{checks}")


def test_criterion_4_hypervolume_oracle_equivalence():
    rng = make_rng(44)
    ok = True
    worst = 0.0
    for m in (2, 3):
        for _ in range(20):
            front = rng.random((rng.integers(5, 31), m))
            ref = np.full(m, 1.2)
            exact = hv_exact(front, ref)
            est, se = hv_monte_carlo(front, ref, 1_000_000, rng)
            sigmas = abs(exact - est) / max(se, 1e-12)
            worst = max(worst, sigmas)
            ok &= sigmas <= 3.0
    assert _verdict("4 hypervolume oracle equivalence", ok,
                    f"(worst deviation {worst:.2f} standard errors)")


def test_criterion_5_cmaes_sanity():
    def sphere(xs):
        return np.sum(xs**2, axis=1)

    evals_needed = []
    lam_ok = True
    for seed in range(5):
        rng = make_rng(seed)
        pts = rng.uniform(-5, 5, (100, 7))
        # a box no sample reaches, so clamping to it changes nothing
        proc = CmaProcedure.warm_start(pts, sphere(pts),
                                       BoxBounds(np.full(7, -1e6), np.full(7, 1e6)))
        evals, best = 0, np.inf
        while evals < 10_000 and best > 1e-8:
            xs = proc.ask(rng)
            fs = sphere(xs)
            evals += len(xs)
            best = min(best, fs.min())
            proc.tell(xs, fs)
            lam_ok &= proc.lambda_default <= proc.lam <= 8 * proc.lambda_default
        evals_needed.append(evals if best <= 1e-8 else np.inf)
    median = float(np.median(evals_needed))
    ok = median < 10_000 and lam_ok
    assert _verdict("5 cma-es sanity", ok,
                    f"(median evals {median:.0f}, bounds held: {lam_ok})")


def test_criterion_6_desk_scale_headline_effect():
    """Decomposition host with vs without the estimation component on the
    four stated 2-objective instances, 10 seeds at 50k evaluations."""
    start = time.time()
    problems = ("mop1", "mop2", "mop4", "mop6")
    configs = [
        RunConfig(problem=prob,
                  host=HostConfig(kind="moead", population_size=100),
                  estimator=EstimatorConfig(kind=est), fe_max=50_000)
        for prob in problems for est in ("running-min", "eie")
    ]
    records = run_suite(configs, seeds=list(range(10)))
    elapsed = time.time() - start
    cells = {}
    for rec in records:
        assert rec is not None
        cells.setdefault((rec.problem, rec.estimator), []).append(rec)

    ok = True
    hv_wins = 0
    for prob in problems:
        e_eie = float(np.median([r.e_value for r in cells[(prob, "eie")]]))
        e_none = float(np.median([r.e_value for r in cells[(prob, "running-min")]]))
        hv_eie = float(np.median([r.hv_value for r in cells[(prob, "eie")]]))
        hv_none = float(np.median([r.hv_value for r in cells[(prob, "running-min")]]))
        abs_ok = e_eie < 0.02
        ratio_ok = e_eie <= e_none / 3.0
        hv_wins += hv_eie > hv_none
        ok &= abs_ok and ratio_ok
        _say(f"[acceptance]   {prob}: median E {e_eie:.5f} vs {e_none:.5f} "
             f"(abs<0.02: {abs_ok}, ratio<=1/3: {ratio_ok}); "
             f"median HV {hv_eie:.4f} vs {hv_none:.4f}")
    ok &= hv_wins >= 3
    ok &= elapsed < 20 * 60
    assert _verdict("6 desk-scale headline effect", ok,
                    f"(hv wins {hv_wins}/4, {elapsed:.0f}s)")


def test_criterion_7_three_objective_stress():
    """Dominance host on the hardest 3-objective instance: the component
    must lift the normalized hypervolume from (near) zero above 0.5."""
    start = time.time()
    configs = [
        RunConfig(problem="mop11",
                  host=HostConfig(kind="nsga2", population_size=210),
                  estimator=EstimatorConfig(kind=est), fe_max=100_000)
        for est in ("running-min", "eie")
    ]
    records = run_suite(configs, seeds=list(range(10)))
    elapsed = time.time() - start
    for rec in records:
        assert rec is not None
    hv_none = [r.hv_value for r in records if r.estimator == "running-min"]
    hv_eie = [r.hv_value for r in records if r.estimator == "eie"]
    baseline_near_zero = float(np.median(hv_none)) < 0.05
    lifted = sum(h > 0.5 for h in hv_eie)
    ok = baseline_near_zero and lifted >= 8
    _say(f"[acceptance]   mop11 hv without: {[f'{h:.3f}' for h in hv_none]}")
    _say(f"[acceptance]   mop11 hv with:    {[f'{h:.3f}' for h in hv_eie]}")
    assert _verdict("7 three-objective stress", ok,
                    f"(baseline near 0: {baseline_near_zero}, "
                    f"lifted {lifted}/10, {elapsed:.0f}s)")


def test_criterion_8_baseline_estimators():
    ok = drp_beta(50_000, 50_000) == 1e-3

    z_min, z_max = np.array([1.0, 0.0]), np.array([5.0, 80.0])
    got = reference_point("ut", np.array([3.0, 40.0]),
                          np.array([z_min, z_max]), 0, 100)
    expected = np.array([3.0, 40.0]) - 0.1 * (z_max - z_min)
    ok &= bool(np.array_equal(got, expected))

    # the host's running minimum over a full (small) trial trace
    problem = get_problem("mop1")
    rng = make_rng(88)
    budget = EvaluationBudget(5_000, _eval=problem.evaluate_batch)
    host = make_host(problem, HostConfig(kind="moead", population_size=40),
                     budget, rng, "running-min")
    empty = OffspringBatch.empty(problem.n, problem.m)
    monotone = True
    start = prev = host.z_ref
    while not budget.exhausted:
        host.step(empty, budget, rng)
        cur = host.z_ref
        monotone &= bool(np.all(cur <= prev + 1e-15))
        prev = cur
    moved = bool(np.any(prev < start))
    ok &= monotone and moved
    assert _verdict("8 baseline estimators", ok,
                    f"(monotone: {monotone}, moved: {moved})")


def test_criterion_9_run_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        res = tmp_path / name
        result = CliRunner().invoke(cli_main, [
            "run", "--problem", "mop1", "--host", "moead",
            "--estimator", "eie", "--seeds", "0", "--fe-max", "2000",
            "--pop-size", "40", "--out", str(res), "--workers", "1",
        ])
        assert result.exit_code == 0, result.output
        outs.append((res / "raw.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert _verdict("9 run determinism", ok, f"({len(outs[0])} bytes)")

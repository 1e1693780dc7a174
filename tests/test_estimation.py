import numpy as np
import pytest

from idealbench.cmaes import StopReport
from idealbench.core import (EvaluationBudget, OffspringBatch,
                             fast_non_dominated_sort, make_rng)
from idealbench.estimation import (EwsSubproblem, IdealEstimation,
                                   alpha_from_epsilon, error_bound,
                                   ews_fitness, normalize_objectives)
from idealbench.generator import get_problem


class TestAlphaEpsilon:
    def test_default_tolerance(self):
        assert alpha_from_epsilon(0.05) == pytest.approx(0.047619, abs=1e-6)

    def test_admissibility_boundary(self):
        assert alpha_from_epsilon(1.0) == 0.5

    def test_round_trip(self):
        for eps in (0.005, 0.01, 0.05, 0.3):
            alpha = alpha_from_epsilon(eps)
            assert alpha / (1 - alpha) == pytest.approx(eps)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_from_epsilon(0.0)


class TestErrorBound:
    def test_matches_tolerance(self):
        assert error_bound(alpha_from_epsilon(0.05), 1.0) == pytest.approx(0.05)

    def test_boundary(self):
        assert error_bound(0.5, 1.0) == pytest.approx(1.0)

    def test_inapplicable_above_half(self):
        with pytest.raises(ValueError):
            error_bound(0.6, 1.0)

    def test_brute_force_on_sampled_linear_front(self):
        # independent check against exhaustive minimization on the simplex
        rng = make_rng(0)
        t = rng.random(100_000)
        front = np.column_stack([t, 1 - t])
        for eps in (0.01, 0.05):
            alpha = alpha_from_epsilon(eps)
            sub = EwsSubproblem(0, alpha, 2)
            values = front @ sub.weights
            winner = front[np.argmin(values)]
            assert winner[0] <= error_bound(alpha, 1.0) + 1e-3


class TestEwsFitness:
    def test_weighted_sum(self):
        sub = EwsSubproblem(0, 0.25, 2)
        got = ews_fitness(np.array([[0.0, 1.0]]), sub, np.zeros(2), np.ones(2))
        assert got[0] == pytest.approx(0.25)

    def test_zero_vector(self):
        sub = EwsSubproblem(1, 0.1, 2)
        got = ews_fitness(np.zeros((1, 2)), sub, np.zeros(2), np.ones(2))
        assert got[0] == 0.0

    def test_convex_combination_of_equal_values(self):
        sub = EwsSubproblem(2, 0.3, 3)
        got = ews_fitness(np.ones((1, 3)), sub, np.zeros(3), np.ones(3))
        assert got[0] == pytest.approx(1.0)

    def test_weights_sum_to_one_and_positive(self):
        for m in (2, 3):
            for alpha in (0.01, 0.3, 0.5):
                for i in range(m):
                    w = EwsSubproblem(i, alpha, m).weights
                    assert w.sum() == pytest.approx(1.0)
                    assert np.all(w > 0)

    def test_degenerate_normalization_guard(self):
        sub = EwsSubproblem(0, 0.2, 2)
        same = np.array([3.0, 5.0])
        got = ews_fitness(np.array([[3.0, 5.0]]), sub, same, same)
        assert np.isfinite(got).all()

    def test_optimum_is_never_dominated(self):
        rng = make_rng(1)
        for _ in range(20):
            objs = rng.random((60, 3))
            sub = EwsSubproblem(rng.integers(0, 3), 0.05, 3)
            scores = ews_fitness(objs, sub, objs.min(axis=0), objs.max(axis=0))
            winner = int(np.argmin(scores))
            assert winner in fast_non_dominated_sort(objs)[0]


def make_component(problem_name="mop1", seed=0, **kwargs):
    problem = get_problem(problem_name)
    rng = make_rng(seed)
    xs = problem.bounds.sample(100, rng)
    fs = problem.evaluate_batch(xs)
    comp = IdealEstimation(problem, **kwargs)
    comp.initialize(xs, fs)
    return problem, comp, xs, fs, rng


class TestComponentLifecycle:
    def test_default_tolerances(self):
        _, comp, *_ = make_component()
        assert comp.epsilons.tolist() == [0.05, 0.05]
        assert comp.alphas == pytest.approx([0.047619, 0.047619], abs=1e-6)

    def test_offspring_size_and_accounting(self):
        problem, comp, *_ , rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        batch = comp.produce_offspring(budget, rng)
        expected = sum(p.lam for p in comp.procedures)
        assert batch.size == expected
        assert comp.evaluations_used == expected == budget.used

    def test_offspring_objectives_are_coherent(self):
        problem, comp, *_, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        batch = comp.produce_offspring(budget, rng)
        assert np.array_equal(batch.fs, problem.evaluate_batch(batch.xs))

    def test_budget_truncation_flagged(self):
        problem, comp, *_, rng = make_component()
        budget = EvaluationBudget(5, _eval=problem.evaluate_batch)
        batch = comp.produce_offspring(budget, rng)
        assert batch.size == 5 and budget.exhausted

    def test_all_terminated_yields_empty_forever(self):
        problem, comp, *_, rng = make_component()
        comp.terminated[:] = True
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        for _ in range(3):
            batch = comp.produce_offspring(budget, rng)
            assert batch.size == 0
        assert not comp.active and budget.used == 0

    def test_separate_mode_scores_raw_objective(self):
        _, comp, _, fs, _ = make_component(mode="separate")
        scores = comp._scores(fs, 1)
        assert np.array_equal(scores, fs[:, 1])

    def test_ews_mode_scores_normalized_sum(self):
        _, comp, _, fs, _ = make_component()
        comp._refresh_normalization(fs)
        scores = comp._scores(fs, 0)
        scaled = normalize_objectives(fs, comp.z_min, comp.z_max)
        expected = scaled @ comp.subproblems[0].weights
        assert scores == pytest.approx(expected)

    def test_update_runs_and_refreshes_bounds(self):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        o1 = comp.produce_offspring(budget, rng)
        o2 = OffspringBatch.empty(problem.n, problem.m)
        comp.update(fs, o1, o2, xs)
        assert comp.z_min == pytest.approx(fs.min(axis=0))
        assert comp.z_max == pytest.approx(fs.max(axis=0))

    def test_conventional_stop_retires_procedure(self, monkeypatch):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        o1 = comp.produce_offspring(budget, rng)
        monkeypatch.setattr(
            comp.procedures[0].__class__, "tell",
            lambda self, *a, **k: StopReport(frozenset({"NoEffectCoord"})),
        )
        comp.update(fs, o1, OffspringBatch.empty(problem.n, problem.m), xs)
        assert comp.terminated.tolist() == [True, True]
        batch = comp.produce_offspring(budget, rng)
        assert batch.size == 0

    def test_exceptional_stop_restarts_instead(self, monkeypatch):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        o1 = comp.produce_offspring(budget, rng)
        monkeypatch.setattr(
            comp.procedures[0].__class__, "tell",
            lambda self, *a, **k: StopReport(frozenset({"TolXUp"})),
        )
        comp.update(fs, o1, OffspringBatch.empty(problem.n, problem.m), xs)
        assert comp.terminated.tolist() == [False, False]
        assert all(p.status == "restarted" for p in comp.procedures)

    def test_fe_fraction(self):
        problem, comp, *_ , rng = make_component()
        budget = EvaluationBudget(1_000, _eval=problem.evaluate_batch)
        comp.produce_offspring(budget, rng)
        assert comp.fe_fraction(1_000) == pytest.approx(comp.evaluations_used / 1000)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            IdealEstimation(get_problem("mop1"), mode="bogus")

    def test_tolerance_shape_validation(self):
        with pytest.raises(ValueError):
            IdealEstimation(get_problem("mop1"), epsilons=np.array([0.05]* 3))

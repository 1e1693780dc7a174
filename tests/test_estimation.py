import numpy as np
import pytest

from idealbench.cmaes import CmaProcedure

from idealbench.core import (EvaluationBudget, OffspringBatch,
                             fast_non_dominated_sort, make_rng)
from idealbench.estimation import (IdealEstimation, alpha_from_epsilon,
                                   ews_fitness, ews_weights,
                                   normalize_objectives)
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

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite(self, eps):
        # inf gave alpha NaN, and every subproblem candidate scored NaN
        with pytest.raises(ValueError, match="positive and finite"):
            alpha_from_epsilon(eps)


def error_bound(alpha: float, beta: float) -> float:
    """Worst-case error of a subproblem optimum on its own objective when
    all objectives share the range ``beta``; requires alpha <= 0.5."""
    if alpha > 0.5:
        raise ValueError("bound holds only for alpha <= 0.5")
    return alpha * beta / (1.0 - alpha)


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
            values = front @ ews_weights([alpha, alpha])[0]
            winner = front[np.argmin(values)]
            assert winner[0] <= error_bound(alpha, 1.0) + 1e-3


class TestEwsFitness:
    def test_weighted_sum(self):
        w = ews_weights([0.25, 0.25])[0]
        got = ews_fitness(np.array([[0.0, 1.0]]), w, np.zeros(2), np.ones(2))
        assert got[0] == pytest.approx(0.25)

    def test_zero_vector(self):
        w = ews_weights([0.1, 0.1])[1]
        got = ews_fitness(np.zeros((1, 2)), w, np.zeros(2), np.ones(2))
        assert got[0] == 0.0

    def test_convex_combination_of_equal_values(self):
        w = ews_weights([0.3] * 3)[2]
        got = ews_fitness(np.ones((1, 3)), w, np.zeros(3), np.ones(3))
        assert got[0] == pytest.approx(1.0)

    def test_weights_sum_to_one_and_positive(self):
        for m in (2, 3):
            for alpha in (0.01, 0.3, 0.5):
                for w in ews_weights([alpha] * m):
                    assert w.sum() == pytest.approx(1.0)
                    assert np.all(w > 0)

    def test_each_row_weights_its_own_objective(self):
        alphas = [0.01, 0.3, 0.5]
        w = ews_weights(alphas)
        for i, alpha in enumerate(alphas):
            want = np.full(3, alpha / 2)
            want[i] = 1.0 - alpha
            assert np.array_equal(w[i], want)

    def test_degenerate_normalization_guard(self):
        same = np.array([3.0, 5.0])
        got = ews_fitness(np.array([[3.0, 5.0]]), ews_weights([0.2, 0.2])[0],
                          same, same)
        assert np.isfinite(got).all()

    def test_optimum_is_never_dominated(self):
        rng = make_rng(1)
        for _ in range(20):
            objs = rng.random((60, 3))
            w = ews_weights([0.05] * 3)[rng.integers(0, 3)]
            scores = ews_fitness(objs, w, objs.min(axis=0), objs.max(axis=0))
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

    def test_rows_tile_the_batch_in_search_order(self):
        problem, comp, *_, rng = make_component()
        first = comp.procedures[0].lam
        budget = EvaluationBudget(first + 1, _eval=problem.evaluate_batch)
        batch = comp.produce_offspring(budget, rng)
        assert comp.batch is batch and batch.size == first + 1
        assert comp.rows == {0: (0, first), 1: (first, first + 1)}

    def test_update_before_any_batch_tells_no_search(self, monkeypatch):
        problem, comp, xs, fs, _ = make_component()
        told = []
        monkeypatch.setattr(CmaProcedure, "tell",
                            lambda proc, *a, **k: told.append(proc) or frozenset())
        comp.update(fs, OffspringBatch.empty(problem.n, problem.m), xs)
        assert not told and [proc.live for proc in comp.procedures] == [True, True]

    def test_all_terminated_yields_empty_forever(self):
        problem, comp, *_, rng = make_component()
        for proc in comp.procedures:
            proc.stop()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        state = rng.bit_generator.state
        for _ in range(3):
            batch = comp.produce_offspring(budget, rng)
            assert batch.size == 0
        assert budget.used == 0 and rng.bit_generator.state == state

    def test_separate_mode_scores_raw_objective(self):
        _, comp, _, fs, _ = make_component(kind="eie-separate")
        scores = comp._scores(fs, 1)
        assert np.array_equal(scores, fs[:, 1])

    def test_ews_mode_scores_normalized_sum(self):
        _, comp, _, fs, _ = make_component()
        comp._refresh_normalization(fs)
        scores = comp._scores(fs, 0)
        scaled = normalize_objectives(fs, comp.z_min, comp.z_max)
        expected = scaled @ comp.weights[0]
        assert scores == pytest.approx(expected)

    def test_update_runs_and_refreshes_bounds(self):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        comp.produce_offspring(budget, rng)
        o2 = OffspringBatch.empty(problem.n, problem.m)
        comp.update(fs, o2, xs)
        assert comp.z_min == pytest.approx(fs.min(axis=0))
        assert comp.z_max == pytest.approx(fs.max(axis=0))

    def test_conventional_stop_retires_procedure(self, monkeypatch):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        comp.produce_offspring(budget, rng)
        monkeypatch.setattr(
            comp.procedures[0].__class__, "tell",
            lambda self, *a, **k: frozenset({"NoEffectCoord"}),
        )
        comp.update(fs, OffspringBatch.empty(problem.n, problem.m), xs)
        assert [proc.live for proc in comp.procedures] == [False, False]
        batch = comp.produce_offspring(budget, rng)
        assert batch.size == 0

    def test_exceptional_stop_restarts_instead(self, monkeypatch):
        problem, comp, xs, fs, rng = make_component()
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        comp.produce_offspring(budget, rng)
        monkeypatch.setattr(
            comp.procedures[0].__class__, "tell",
            lambda self, *a, **k: frozenset({"TolXUp"}),
        )
        for proc in comp.procedures:
            proc.sigma = 0.5
        comp.update(fs, OffspringBatch.empty(problem.n, problem.m), xs)
        assert [proc.live for proc in comp.procedures] == [True, True]
        assert all(p.sigma == p.sigma0 == 1.0 for p in comp.procedures)

    def test_fe_fraction(self):
        problem, comp, *_ , rng = make_component()
        budget = EvaluationBudget(1_000, _eval=problem.evaluate_batch)
        comp.produce_offspring(budget, rng)
        assert comp.fe_fraction(1_000) == pytest.approx(comp.evaluations_used / 1000)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            IdealEstimation(get_problem("mop1"), kind="bogus")

    def test_tolerance_shape_validation(self):
        with pytest.raises(ValueError):
            IdealEstimation(get_problem("mop1"), epsilons=np.array([0.05]* 3))


def own_rows(comp, i):
    """Mask of search ``i``'s rows in the component's last batch."""
    own = np.zeros(comp.batch.size, dtype=bool)
    lo, hi = comp.rows[i]
    own[lo:hi] = True
    return own


class TestInjectionHandOff:
    """What `update` hands each search's `tell`: its own rows from the
    estimation batch and, only while the search can take them, every other
    row scored on its subproblem."""

    def run_update(self, monkeypatch, lam_factor):
        problem, comp, xs, fs, rng = make_component("mop11", seed=3)
        for proc in comp.procedures:
            proc.lam = lam_factor * proc.lambda_default
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        o1 = comp.produce_offspring(budget, rng)
        host_xs = problem.bounds.sample(25, rng)
        o2 = OffspringBatch(host_xs, problem.evaluate_batch(host_xs))
        told, scored = [], []
        tell, scores = CmaProcedure.tell, comp._scores

        def spy_tell(proc, own_xs, own_fitness, injected_xs=None,
                     injected_fitness=None):
            told.append((comp.procedures.index(proc), own_xs, own_fitness,
                         injected_xs, injected_fitness))
            return tell(proc, own_xs, own_fitness, injected_xs, injected_fitness)

        def spy_scores(batch_fs, index):
            scored.append((index, np.atleast_2d(batch_fs).shape[0]))
            return scores(batch_fs, index)

        monkeypatch.setattr(CmaProcedure, "tell", spy_tell)
        monkeypatch.setattr(comp, "_scores", spy_scores)
        comp.update(fs, o2, xs)
        return comp, o1, o2, told, scored

    def test_above_default_lambda_passes_no_injection(self, monkeypatch):
        comp, o1, _, told, scored = self.run_update(monkeypatch, 2)
        assert [call[0] for call in told] == [0, 1, 2]
        for i, own_xs, own_fitness, injected_xs, injected_fitness in told:
            own = own_rows(comp, i)
            assert injected_xs is None and injected_fitness is None
            assert own_xs.tobytes() == o1.xs[own].tobytes()
            want = ews_fitness(o1.fs[own], comp.weights[i], comp.z_min, comp.z_max)
            assert np.asarray(own_fitness).tobytes() == want.tobytes()
        assert scored == [(i, int(own_rows(comp, i).sum())) for i in range(3)]

    def test_default_lambda_passes_others_in_batch_order(self, monkeypatch):
        comp, o1, o2, told, _ = self.run_update(monkeypatch, 1)
        assert [call[0] for call in told] == [0, 1, 2]
        for i, own_xs, own_fitness, injected_xs, injected_fitness in told:
            own = own_rows(comp, i)
            assert own_xs.tobytes() == o1.xs[own].tobytes()
            other_xs = np.vstack([o1.xs[~own], o2.xs])
            other_fs = np.vstack([o1.fs[~own], o2.fs])
            assert injected_xs.tobytes() == other_xs.tobytes()
            want = ews_fitness(other_fs, comp.weights[i], comp.z_min, comp.z_max)
            assert np.asarray(injected_fitness).tobytes() == want.tobytes()

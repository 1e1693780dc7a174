from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench import hosts
from idealbench.core import (BoxBounds, EvaluationBudget, OffspringBatch,
                             dominates, fast_non_dominated_sort, make_rng)
from idealbench.generator import get_problem
from idealbench.hosts import (BaselineEstimator, EstimatorConfig, HostConfig,
                              crowding_distance, de_pm_offspring, drp_beta,
                              global_replacement, hv_contributions,
                              make_host, nsga2_select, polynomial_mutation,
                              scalarized_fitness, simplex_lattice_weights,
                              smsemoa_select)
from idealbench.metrics import hv_exact

UNIT = BoxBounds(np.zeros(4), np.ones(4))


def brute_force_fronts(objs):
    """Front partition by repeatedly peeling non-dominated points."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i for i in remaining
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def leave_one_out_contributions(objs, ref):
    """The earlier contribution kernel: the whole front's hypervolume minus
    each leave-one-out hypervolume."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    total = hv_exact(objs, ref)
    out = np.empty(objs.shape[0])
    for i in range(objs.shape[0]):
        rest = np.delete(objs, i, axis=0)
        out[i] = total - hv_exact(rest, ref)
    return out


def dropped_member(objs, ref, kernel):
    """Index smsemoa_select removes from ``objs`` with ``kernel`` as its
    contribution routine."""
    with mock.patch.object(hosts, "hv_contributions", kernel):
        keep = smsemoa_select(objs, objs.shape[0] - 1, ref)
    return int(np.setdiff1d(np.arange(objs.shape[0]), keep)[0])


def point_sets(value):
    return st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(value, min_size=m, max_size=m), min_size=1, max_size=30))


class TestVariation:
    def test_degenerate_config_returns_base(self):
        rng = make_rng(0)
        base = rng.random((5, 4))
        b, c = rng.random((5, 4)), rng.random((5, 4))
        child = de_pm_offspring(base, b, c, rng, UNIT, f=1e-12, cr=1.0, pm_prob=0.0)
        assert child == pytest.approx(base, abs=1e-10)

    def test_identical_parents_without_mutation(self):
        rng = make_rng(1)
        x = rng.random((3, 4))
        child = de_pm_offspring(x, x, x, rng, UNIT, pm_prob=0.0)
        assert np.array_equal(child, x)

    def test_children_respect_bounds(self):
        rng = make_rng(2)
        base = rng.random((10_000, 4))
        b, c = rng.random((10_000, 4)), rng.random((10_000, 4))
        child = de_pm_offspring(base, b, c, rng, UNIT, f=2.0)
        assert UNIT.contains(child)

    def test_crossover_mixes_coordinates(self):
        rng = make_rng(3)
        base = np.zeros((2000, 4))
        mutant_source = np.ones((2000, 4))
        child = de_pm_offspring(base, mutant_source, np.zeros((2000, 4)),
                                rng, UNIT, f=1.0, cr=0.5, pm_prob=0.0)
        frac = child.mean()
        assert 0.4 < frac < 0.75  # cr plus the forced coordinate

    def test_polynomial_mutation_stays_bounded(self):
        rng = make_rng(4)
        xs = rng.random((5000, 4))
        out = polynomial_mutation(xs, rng, UNIT, eta=50.0, prob=0.5)
        assert UNIT.contains(out)
        assert not np.array_equal(out, xs)


class TestDistinctTriplets:
    def test_rows_are_distinct_and_avoid_the_base(self):
        rng = make_rng(21)
        pools = [np.arange(4), np.arange(10, 13), np.arange(50)]
        trip = hosts._distinct_triplets(pools, np.array([2, 99, 7]), rng)
        for row, pool in zip(trip, pools):
            assert len(set(row.tolist())) == 3
            assert set(row.tolist()) <= set(pool.tolist())
        assert 2 not in trip[0] and 7 not in trip[2]

    @pytest.mark.parametrize("pools, avoid", [
        ([np.arange(5), np.arange(2)], None),
        ([np.arange(3)], np.array([1])),
        ([np.arange(5), np.array([4, 8, 9])], np.array([0, 8])),
    ])
    def test_too_small_pool_raises_before_any_draw(self, pools, avoid):
        rng = make_rng(22)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            hosts._distinct_triplets(pools, avoid, rng)
        assert rng.bit_generator.state == state


class TestDominanceSorting:
    def test_partition_matches_oracle(self):
        rng = make_rng(5)
        objs = rng.random((100, 2))
        got = [sorted(f.tolist()) for f in fast_non_dominated_sort(objs)]
        assert got == brute_force_fronts(objs)

    def test_three_objective_partition(self):
        rng = make_rng(6)
        objs = np.round(rng.random((60, 3)), 1)
        got = [sorted(f.tolist()) for f in fast_non_dominated_sort(objs)]
        assert got == brute_force_fronts(objs)

    def test_crowding_boundaries_infinite(self):
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        dist = crowding_distance(objs)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert np.isfinite(dist[1])

    def test_select_identity_when_all_needed(self):
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert sorted(nsga2_select(objs, 3).tolist()) == [0, 1, 2]

    def test_select_drops_dominated(self):
        objs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert sorted(nsga2_select(objs, 2).tolist()) == [0, 1]

    def test_split_front_prefers_crowded_out_last(self):
        rng = make_rng(7)
        t = np.sort(rng.random(20))
        front = np.column_stack([t, 1 - t])
        keep = nsga2_select(front, 10)
        dist = crowding_distance(front)
        kept_min = dist[keep].min()
        dropped = np.setdiff1d(np.arange(20), keep)
        assert kept_min >= dist[dropped].max() - 1e-12

    def test_select_size_exact(self):
        rng = make_rng(8)
        objs = rng.random((57, 2))
        assert len(nsga2_select(objs, 23)) == 23


class TestWeightsAndScalarization:
    def test_two_objective_lattice(self):
        w = simplex_lattice_weights(2, 100)
        assert w.shape == (100, 2)
        assert w[0].tolist() == [0.0, 1.0] and w[-1].tolist() == [1.0, 0.0]
        assert w[:, 0] == pytest.approx(np.arange(100) / 99)

    def test_three_objective_lattice_snaps(self):
        w = simplex_lattice_weights(3, 210)
        assert w.shape == (210, 3)
        assert w.sum(axis=1) == pytest.approx(np.ones(210))

    def test_reference_coincidence_is_zero(self):
        z = np.array([1.0, 2.0])
        fit = scalarized_fitness(z[None, :], np.array([[0.3, 0.7]]), z, np.ones(2))
        assert fit[0, 0] == 0.0

    def test_improving_reference_never_worsens_best(self):
        rng = make_rng(9)
        weights = simplex_lattice_weights(2, 20)
        objs = rng.random((50, 2)) + 1.0
        scale = np.ones(2)
        z_far = np.array([0.0, 0.0])
        z_near = np.array([0.9, 0.9])  # closer to the true ideal from below
        far = scalarized_fitness(objs, weights, z_far, scale).min(axis=1)
        near = scalarized_fitness(objs, weights, z_near, scale).min(axis=1)
        assert np.all(near <= far + 1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_tchebycheff_matches_max_over_objectives(self, m):
        rng = make_rng(10)
        objs, weights = rng.random((40, m)), rng.random((15, m))
        fit = scalarized_fitness(objs, weights, np.zeros(m), np.ones(m))
        oracle = np.max(np.maximum(weights, 1e-6)[:, None, :] * objs[None, :, :],
                        axis=2)
        assert np.array_equal(fit, oracle)

    def test_global_replacement_matches_sequential_rule(self):
        rng = make_rng(11)
        for _ in range(50):
            k, extra = 12, int(rng.integers(0, 30))
            # coarse values force ties between newcomers and incumbents
            fitness = rng.integers(0, 6, (k, k + extra)).astype(float)
            new_idx, best = np.arange(k), fitness[np.arange(k), np.arange(k)].copy()
            for c in range(k, k + extra):
                home = int(np.argmin(fitness[:, c]))
                if fitness[home, c] < best[home]:
                    best[home], new_idx[home] = fitness[home, c], c
            assert np.array_equal(global_replacement(fitness), new_idx)

    def test_weighted_sum_variant(self):
        objs = np.array([[1.0, 3.0]])
        fit = scalarized_fitness(objs, np.array([[0.5, 0.5]]), np.zeros(2),
                                 np.ones(2), kind="weighted-sum")
        assert fit[0, 0] == pytest.approx(2.0)


class TestIndicatorSelection:
    def test_duplicate_removed_first(self):
        objs = np.array([[0.2, 0.8], [0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
        keep = smsemoa_select(objs, 3, np.array([1.1, 1.1]))
        assert sorted(objs[keep][:, 0].tolist()) == [0.2, 0.5, 0.8]

    def test_middle_of_even_spread_goes(self):
        # equally spaced points on a line: the middle one adds least area
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        keep = smsemoa_select(objs, 2, np.array([2.0, 2.0]))
        assert sorted(keep.tolist()) == [0, 2]

    def test_removal_never_loses_more_than_contribution(self):
        rng = make_rng(10)
        objs = rng.random((12, 2))
        ref = np.array([1.2, 1.2])
        fronts = fast_non_dominated_sort(objs)
        worst = fronts[-1]
        contrib = hv_contributions(objs[worst], ref)
        keep = smsemoa_select(objs, 11, ref)
        dropped = np.setdiff1d(np.arange(12), keep)[0]
        before = hv_exact(objs, ref)
        after = hv_exact(objs[keep], ref)
        assert before - after <= contrib.min() + 1e-12
        assert dropped in worst

    def test_removal_on_single_front_loses_exactly_the_contribution(self):
        rng = make_rng(16)
        t = np.sort(rng.random(10))
        objs = np.column_stack([t, 1 - t])  # mutually non-dominated
        ref = np.array([1.2, 1.2])
        contrib = hv_contributions(objs, ref)
        keep = smsemoa_select(objs, 9, ref)
        before = hv_exact(objs, ref)
        after = hv_exact(objs[keep], ref)
        assert before - after == pytest.approx(contrib.min(), abs=1e-12)

    def test_better_fronts_untouched(self):
        good = np.array([[0.1, 0.2], [0.2, 0.1]])
        bad = np.array([[0.5, 0.6], [0.6, 0.5], [0.9, 0.9]])
        objs = np.vstack([good, bad])
        keep = smsemoa_select(objs, 3, np.array([1.1, 1.1]))
        assert {0, 1}.issubset(set(keep.tolist()))

    def test_three_objective_contributions_match_exclusive(self):
        rng = make_rng(11)
        objs = rng.random((8, 3))
        ref = np.array([1.1, 1.1, 1.1])
        contrib = hv_contributions(objs, ref)
        total = hv_exact(objs, ref)
        for i in range(8):
            rest = hv_exact(np.delete(objs, i, axis=0), ref)
            assert contrib[i] == pytest.approx(total - rest)


class TestContributionOracle:
    @settings(max_examples=200, deadline=None)
    @given(point_sets(st.integers(0, 5)))
    def test_grid_points_match_leave_one_out(self, rows):
        # quarter steps up to 1.25 against ref 1: duplicates, points on and
        # past the reference, and arithmetic exact in both kernels
        objs = np.asarray(rows, dtype=float) / 4
        ref = np.ones(objs.shape[1])
        got = hv_contributions(objs, ref)
        assert got == pytest.approx(leave_one_out_contributions(objs, ref),
                                    rel=0, abs=1e-12)
        if objs.shape[0] > 1:
            assert (dropped_member(objs, ref, hv_contributions)
                    == dropped_member(objs, ref, leave_one_out_contributions))

    @settings(max_examples=200, deadline=None)
    @given(point_sets(st.floats(0.0, 1.3)))
    def test_real_points_match_leave_one_out(self, rows):
        objs = np.asarray(rows, dtype=float)
        ref = np.full(objs.shape[1], 1.1)
        want = leave_one_out_contributions(objs, ref)
        assert hv_contributions(objs, ref) == pytest.approx(want, rel=0, abs=1e-12)
        worst = fast_non_dominated_sort(objs)[-1]
        gaps = np.diff(np.sort(leave_one_out_contributions(objs[worst], ref)))
        if worst.size > 1 and gaps[0] > 1e-12:  # a clear smallest contributor
            assert (dropped_member(objs, ref, hv_contributions)
                    == dropped_member(objs, ref, leave_one_out_contributions))

    def test_single_point_is_its_box(self):
        objs = np.array([[0.25, 0.5, 0.75]])
        ref = np.ones(3)
        assert hv_contributions(objs, ref).tolist() == [0.75 * 0.5 * 0.25]

    def test_forty_point_three_objective_front(self):
        rng = make_rng(19)
        x = np.abs(rng.standard_normal((40, 3)))
        objs = x / np.linalg.norm(x, axis=1)[:, None]  # one concave front
        ref = np.full(3, 1.1)
        assert len(fast_non_dominated_sort(objs)) == 1
        assert hv_contributions(objs, ref) == pytest.approx(
            leave_one_out_contributions(objs, ref), rel=0, abs=1e-12)
        assert (dropped_member(objs, ref, hv_contributions)
                == dropped_member(objs, ref, leave_one_out_contributions))
        objs[7] = objs[3]  # a duplicate pair adds nothing exclusive
        got = hv_contributions(objs, ref)
        assert got == pytest.approx(leave_one_out_contributions(objs, ref),
                                    rel=0, abs=1e-12)
        assert got[3] == got[7] == 0.0


class TestHostsEndToEnd:
    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_iteration_contract(self, kind):
        problem = get_problem("mop1")
        rng = make_rng(12)
        budget = EvaluationBudget(2_000, _eval=problem.evaluate_batch)
        pop = 30 if kind == "smsemoa" else 40
        host = make_host(problem, HostConfig(kind=kind, population_size=pop),
                         budget, rng)
        size = host.pop_f.shape[0]
        empty = OffspringBatch.empty(problem.n, problem.m)
        for _ in range(3):
            o2 = host.step(empty, budget, rng)
            assert host.pop_f.shape[0] == size
            assert o2.size > 0
            assert problem.bounds.contains(host.pop_x)
        assert budget.used <= 2_000

    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_injected_offspring_can_enter(self, kind):
        problem = get_problem("mop1")
        rng = make_rng(13)
        budget = EvaluationBudget(5_000, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind=kind, population_size=30),
                         budget, rng)
        elite_x = problem.sample_pareto_set(5, rng)
        elite = OffspringBatch(elite_x, problem.evaluate_batch(elite_x),
                               np.full(5, 0, dtype=int))
        host.step(elite, budget, rng)
        best_before_norm = host.pop_f.min(axis=0) / problem.nadir
        assert best_before_norm.min() < 0.9  # optimal material survived selection

    def test_three_member_nsga2_cannot_breed(self):
        # every row's pool is the population less its base: 2 members
        problem = get_problem("mop2")
        rng = make_rng(23)
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="nsga2", population_size=3),
                         budget, rng)
        with pytest.raises(ValueError):
            host.step(OffspringBatch.empty(problem.n, problem.m), budget, rng)

    def test_budget_exhaustion_mid_step(self):
        problem = get_problem("mop1")
        rng = make_rng(14)
        budget = EvaluationBudget(45, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="nsga2", population_size=40),
                         budget, rng)
        empty = OffspringBatch.empty(problem.n, problem.m)
        o2 = host.step(empty, budget, rng)
        assert o2.size == 5 and budget.exhausted


class TestBaselineEstimators:
    def test_running_min_monotone(self):
        est = BaselineEstimator(EstimatorConfig(kind="running-min"), 2)
        rng = make_rng(15)
        prev = np.full(2, np.inf)
        for _ in range(30):
            est.observe(rng.random((10, 2)))
            cur = est.estimate(np.zeros(2), np.ones(2), 0, 100)
            assert np.all(cur <= prev)
            prev = cur

    def test_only_improved_component_moves(self):
        est = BaselineEstimator(EstimatorConfig(kind="running-min"), 2)
        est.observe(np.array([[1.0, 1.0]]))
        est.observe(np.array([[0.5, 2.0]]))
        got = est.estimate(np.zeros(2), np.ones(2), 0, 100)
        assert got.tolist() == [0.5, 1.0]

    def test_optimism_offset_in_normalized_space(self):
        est = BaselineEstimator(EstimatorConfig(kind="ut"), 2)
        est.observe(np.array([[2.0, 30.0]]))
        got = est.estimate(np.array([0.0, 0.0]), np.array([10.0, 100.0]), 0, 100)
        assert got == pytest.approx([2.0 - 1.0, 30.0 - 10.0])

    def test_decaying_offset_hits_floor_exactly(self):
        assert drp_beta(100, 100) == 1e-3
        assert drp_beta(0, 100) == pytest.approx(1.0)

    def test_decaying_offset_strictly_decreasing(self):
        fes = np.arange(0, 101)
        betas = [drp_beta(int(fe), 100) for fe in fes]
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
        assert min(betas) >= 1e-3

    def test_drp_estimate_uses_decay(self):
        est = BaselineEstimator(EstimatorConfig(kind="drp"), 1)
        est.observe(np.array([[5.0]]))
        at_end = est.estimate(np.zeros(1), np.ones(1), 100, 100)
        assert at_end[0] == pytest.approx(5.0 - 1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind="bogus")
        with pytest.raises(ValueError):
            HostConfig(kind="bogus")
        with pytest.raises(ValueError):
            HostConfig(de_f=0.0)

    def test_none_alias_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind="none")

    def test_explicit_neighborhood_size(self):
        problem = get_problem("mop1")
        budget = EvaluationBudget(500, _eval=problem.evaluate_batch)
        host = make_host(problem,
                         HostConfig(kind="moead", population_size=30,
                                    neighborhood_size=5),
                         budget, make_rng(17))
        assert host.neighbors.shape == (30, 5)
        # built from the symmetric weight-distance matrix; own weight first
        assert all(host.neighbors[i][0] == i for i in range(30))
        d = np.linalg.norm(host.weights[:, None] - host.weights[None, :], axis=2)
        for i in range(30):
            picked = d[i, host.neighbors[i]].max()
            others = np.delete(d[i], host.neighbors[i])
            assert picked <= others.min() + 1e-12

    def test_neighborhood_below_three_rejected(self):
        for size in (0, 1, 2):
            with pytest.raises(ValueError):
                HostConfig(kind="moead", neighborhood_size=size)

    def test_small_moead_population_gets_three_neighbours(self):
        problem = get_problem("mop2")
        budget = EvaluationBudget(500, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=20),
                         budget, make_rng(20))
        assert host.neighbors.shape == (20, 3)

    def test_population_must_exceed_objectives(self):
        problem = get_problem("mop11")
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        with pytest.raises(ValueError):
            make_host(problem, HostConfig(kind="nsga2", population_size=3),
                      budget, make_rng(18))

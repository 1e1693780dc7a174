import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench.core import make_rng
from idealbench.metrics import (e_metric, hv_exact, hv_normalized, midranks,
                                rank_sum_verdict, wilcoxon_rank_sum)

from .oracles import hv_monte_carlo


class TestEMetric:
    def test_exact_estimate(self):
        assert e_metric(np.zeros(2), np.zeros(2), np.ones(2)) == 0.0

    def test_pythagorean(self):
        got = e_metric(np.array([0.3, 0.4]), np.zeros(2), np.ones(2))
        assert got == pytest.approx(0.5)

    def test_at_upper_range(self):
        got = e_metric(np.ones(3), np.zeros(3), np.ones(3))
        assert got == pytest.approx(math.sqrt(3))

    def test_scaling_by_range(self):
        got = e_metric(np.array([3.0, 40.0]), np.zeros(2), np.array([10.0, 100.0]))
        assert got == pytest.approx(0.5)

    def test_below_ideal_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            got = e_metric(np.array([-0.5, 0.0]), np.zeros(2), np.ones(2))
        assert got == 0.0

    def test_requires_positive_range(self):
        with pytest.raises(ValueError):
            e_metric(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_zero_iff_ideal(self):
        rng = make_rng(0)
        for _ in range(20):
            z = rng.random(2) + 1e-6
            assert e_metric(z, np.zeros(2), np.ones(2)) > 0


def brute_rectangles(front, ref):
    """2-D hypervolume by scanline over rectangles, written independently."""
    pts = [p for p in front if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    pts = sorted(pts, key=lambda p: (p[0], p[1]))
    area, best_f2 = 0.0, ref[1]
    for f1, f2 in pts:
        if f2 < best_f2:
            area += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return area


def _reference_hv2d(front, ref):
    keep = np.all(front < ref, axis=1)
    pts = front[keep]
    if pts.shape[0] == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    hv = 0.0
    cur_f2 = ref[1]
    for f1, f2 in pts:
        if f2 < cur_f2:
            hv += (ref[0] - f1) * (cur_f2 - f2)
            cur_f2 = f2
    return hv


def _reference_hv3d(front, ref):
    keep = np.all(front < ref, axis=1)
    pts = front[keep]
    if pts.shape[0] == 0:
        return 0.0
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    levels = pts[:, 2]
    hv = 0.0
    i = 0
    k = pts.shape[0]
    while i < k:
        z = levels[i]
        j = i + 1
        while j < k and levels[j] == z:
            j += 1
        z_next = levels[j] if j < k else ref[2]
        area = _reference_hv2d(pts[:j, :2], ref[:2])
        hv += area * (z_next - z)
        i = j
    return hv


def reference_hv(front, ref):
    """The earlier exact hypervolume on numpy rows: a lexsort staircase in
    2-D, re-sorted for every slab of the 3-D sweep."""
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if front.shape[0] == 0:
        return 0.0
    if front.shape[1] == 2:
        return _reference_hv2d(front, ref)
    return _reference_hv3d(front, ref)


def fronts(value):
    return st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(value, min_size=m, max_size=m), max_size=40).map(
            lambda rows: np.asarray(rows, dtype=float).reshape(-1, m)))


class TestHvExact:
    def test_unit_square(self):
        assert hv_exact(np.array([[0.0, 0.0]]), np.array([1.0, 1.0])) == 1.0

    def test_two_point_decomposition(self):
        got = hv_exact(np.array([[0, 0.5], [0.5, 0]]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.75)

    def test_points_outside_ref_discarded(self):
        got = hv_exact(np.array([[0.0, 2.0], [0.5, 0.5]]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.25)

    def test_empty(self):
        assert hv_exact(np.empty((0, 2)), np.array([1.0, 1.0])) == 0.0
        assert hv_exact(np.array([[2.0, 2.0]]), np.array([1.0, 1.0])) == 0.0

    def test_permutation_invariance(self):
        rng = make_rng(1)
        front = rng.random((30, 2))
        ref = np.array([1.2, 1.2])
        base = hv_exact(front, ref)
        for _ in range(5):
            assert hv_exact(front[rng.permutation(30)], ref) == pytest.approx(base)

    def test_dominated_points_do_not_matter(self):
        front = np.array([[0.1, 0.5], [0.5, 0.1]])
        padded = np.vstack([front, [[0.6, 0.6], [0.9, 0.9]]])
        ref = np.array([1.0, 1.0])
        assert hv_exact(padded, ref) == pytest.approx(hv_exact(front, ref))

    def test_monotone_in_points(self):
        rng = make_rng(2)
        ref = np.array([1.1, 1.1, 1.1])
        front = rng.random((10, 3))
        base = hv_exact(front, ref)
        grown = hv_exact(np.vstack([front, rng.random((1, 3))]), ref)
        assert grown >= base - 1e-12

    def test_embedding_consistency(self):
        rng = make_rng(3)
        front2 = rng.random((40, 2))
        front3 = np.column_stack([front2, np.zeros(40)])
        ref2 = np.array([1.1, 1.1])
        ref3 = np.array([1.1, 1.1, 1.0])
        assert hv_exact(front3, ref3) == pytest.approx(hv_exact(front2, ref2))

    def test_matches_independent_scanline(self):
        rng = make_rng(4)
        for _ in range(10):
            front = rng.random((25, 2))
            ref = np.array([1.3, 1.2])
            assert hv_exact(front, ref) == pytest.approx(brute_rectangles(front, ref))

    def test_rejects_high_dimensions(self):
        with pytest.raises(ValueError):
            hv_exact(np.zeros((2, 4)), np.ones(4))


class TestHvOracle:
    @settings(max_examples=300, deadline=None)
    @given(fronts(st.one_of(st.integers(0, 5).map(lambda i: i / 4),
                            st.just(-0.0))))
    def test_grid_points_equal_reference(self, front):
        # quarter steps up to 1.25 against ref 1: ties, duplicates, points
        # on and past the reference, and signed zeros
        ref = np.ones(front.shape[1])
        assert hv_exact(front, ref) == reference_hv(front, ref)

    @settings(max_examples=300, deadline=None)
    @given(fronts(st.floats(0.0, 1.3)))
    def test_real_points_equal_reference(self, front):
        ref = np.full(front.shape[1], 1.1)
        assert hv_exact(front, ref) == reference_hv(front, ref)

    def test_forty_point_three_objective_front(self):
        rng = make_rng(7)
        x = np.abs(rng.standard_normal((40, 3)))
        front = x / np.linalg.norm(x, axis=1)[:, None]
        front[5] = front[9]
        ref = np.full(3, 1.1)
        assert hv_exact(front, ref) == reference_hv(front, ref)


class TestHvMonteCarlo:
    def test_corner_point_covers_box(self):
        est, se = hv_monte_carlo(np.array([[0.0, 0.0]]), np.array([1.0, 1.0]),
                                 20000, make_rng(0))
        assert est == pytest.approx(1.0)

    def test_empty_front(self):
        est, se = hv_monte_carlo(np.array([[2.0, 2.0]]), np.array([1.0, 1.0]),
                                 10000, make_rng(0))
        assert est == 0.0 and se == 0.0

    def test_agrees_with_exact_2d(self):
        rng = make_rng(5)
        for _ in range(5):
            front = rng.random((15, 2))
            ref = np.array([1.2, 1.2])
            exact = hv_exact(front, ref)
            est, se = hv_monte_carlo(front, ref, 100_000, rng)
            assert abs(exact - est) <= 4 * max(se, 1e-9)

    def test_agrees_with_exact_3d(self):
        rng = make_rng(6)
        for _ in range(3):
            front = rng.random((12, 3))
            ref = np.array([1.2, 1.2, 1.2])
            exact = hv_exact(front, ref)
            est, se = hv_monte_carlo(front, ref, 100_000, rng)
            assert abs(exact - est) <= 4 * max(se, 1e-9)


class TestHvNormalized:
    def test_dense_linear_front_area(self):
        t = np.linspace(0, 1, 4000)
        front = np.column_stack([t, 1 - t])
        got = hv_normalized(front, np.zeros(2), np.ones(2))
        assert got == pytest.approx(0.71, abs=2e-3)

    def test_density_monotone(self):
        vals = []
        for count in (10, 100, 1000):
            t = np.linspace(0, 1, count)
            front = np.column_stack([t, 1 - t])
            vals.append(hv_normalized(front, np.zeros(2), np.ones(2)))
        assert vals[0] < vals[1] < vals[2] < 0.71

    def test_everything_discarded(self):
        got = hv_normalized(np.array([[5.0, 5.0]]), np.zeros(2), np.ones(2))
        assert got == 0.0

    def test_never_exceeds_box(self):
        rng = make_rng(7)
        objs = rng.random((50, 3)) * 0.2
        got = hv_normalized(objs, np.zeros(3), np.ones(3))
        assert got <= 1.1**3


class TestWilcoxon:
    def test_identical_samples(self):
        a = np.arange(10.0)
        assert rank_sum_verdict(a, a) == "="

    def test_disjoint_ranks_significant(self):
        a = np.arange(1.0, 31.0)
        b = np.arange(31.0, 61.0)
        p, z = wilcoxon_rank_sum(a, b)
        assert p < 1e-9 and z < 0

    def test_verdict_direction_minimization(self):
        low = np.arange(1.0, 31.0)
        high = np.arange(31.0, 61.0)
        assert rank_sum_verdict(low, high) == "+"
        assert rank_sum_verdict(high, low) == "-"

    def test_verdict_direction_maximization(self):
        low = np.arange(1.0, 31.0)
        high = np.arange(31.0, 61.0)
        assert rank_sum_verdict(high, low, larger_is_better=True) == "+"
        assert rank_sum_verdict(low, high, larger_is_better=True) == "-"

    def test_all_tied(self):
        a = np.ones(10)
        assert rank_sum_verdict(a, np.ones(10)) == "="

    def test_antisymmetric_on_random_samples(self):
        rng = make_rng(8)
        for _ in range(10):
            a, b = rng.random(12), rng.random(12)
            flip = {"+": "-", "-": "+", "=": "="}
            assert rank_sum_verdict(a, b) == flip[rank_sum_verdict(b, a)]

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum(np.ones(3), np.ones(10))


def brute_force_midranks(values):
    """Mean 1-based position of each value's equals in sorted order, NaNs
    counted as equal to each other and sorted after every number."""
    def key(v):
        return (math.isnan(v), 0.0 if math.isnan(v) else v)

    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    ordered = sorted(values, key=key)
    return [statistics.mean(p + 1 for p, w in enumerate(ordered) if same(w, v))
            for v in values]


class TestMidranks:
    def test_ties_share_mean_position(self):
        assert midranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]

    def test_nans_tie_after_every_number(self):
        got = midranks([math.nan, 5.0, math.nan, -1.0])
        assert got.tolist() == [3.5, 2.0, 3.5, 1.0]

    def test_empty(self):
        assert midranks([]).shape == (0,)

    @given(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, math.nan]),
                              st.floats(-10, 10)), max_size=30))
    def test_matches_brute_force_oracle(self, values):
        assert midranks(values).tolist() == brute_force_midranks(values)

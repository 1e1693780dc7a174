import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench import generator as gen
from idealbench.core import dominates, make_rng

ALL_NAMES = gen.preset_names()


def center_position_vars(params):
    """Position variables whose group means sit exactly on the bias center."""
    ch = gen.chat(params.c_pos)
    xp = np.empty(params.s)
    for j in range(params.s):
        xp[j] = ch[j % (params.m - 1)]
    return xp[None, :]


class TestSigma:
    def test_mean_of_group(self):
        out = gen.sigma(np.array([0.2, 0.4, 0.6, 0.8, 1.0]), 2)
        assert out[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_single_variable_identity(self):
        assert gen.sigma(np.array([0.3]), 2)[0, 0] == 0.3

    def test_one_variable_per_group(self):
        out = gen.sigma(np.array([0.1, 0.9]), 3)
        assert out[0].tolist() == [0.1, 0.9]

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            gen.sigma(np.array([0.5]), 3)


class TestChat:
    def test_symmetric_center(self):
        assert gen.chat((0.5, 0.5))[0] == pytest.approx(0.5)

    def test_direct_formula(self):
        # (1 - 0.1) / 1 = 0.9
        assert gen.chat((0.1, 0.9))[0] == pytest.approx(0.9)

    def test_three_objectives(self):
        out = gen.chat((1 / 3, 1 / 3, 1 / 3))
        assert out == pytest.approx([2 / 3, 0.5])

    def test_round_trip_through_simplex_map(self):
        for c_pos in [(0.2, 0.2, 0.6), (0.1, 0.9), (1 / 3, 1 / 3, 1 / 3)]:
            y = gen.simplex_map(gen.chat(c_pos))
            assert y[0] == pytest.approx(np.asarray(c_pos), abs=1e-12)

    def test_zero_components_supported(self):
        # centers on a simplex face resolve to boundary coefficients
        assert gen.chat((0.0, 1.0))[0] == 1.0
        assert gen.chat((0.0, 0.0, 1.0)).tolist() == [1.0, 1.0]
        assert gen.chat((1.0, 0.0)).tolist() == [0.0]

    def test_invalid_center(self):
        # a prefix sum above one leaves no mass for later coefficients
        with pytest.raises(ValueError):
            gen.chat((0.8, 0.5, -0.2, -0.1))


class TestRemap:
    def test_zero_and_one_map_to_center(self):
        c = np.array([0.25])
        for g in (0.1, 0.5, 1.0):
            assert gen.remap(np.array([0.0]), c, g)[0] == pytest.approx(0.25, abs=1e-12)
            assert gen.remap(np.array([1.0]), c, g)[0] == pytest.approx(0.25, abs=1e-12)

    def test_extremes_at_quarter_points(self):
        c = np.array([0.25])
        assert gen.remap(np.array([0.125]), c, 0.1)[0] == pytest.approx(0.0, abs=1e-12)
        assert gen.remap(np.array([0.625]), c, 0.1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_continuous_at_center(self):
        c = np.array([0.3])
        eps = 1e-12
        left = gen.remap(np.array([0.3 - eps]), c, 0.2)[0]
        right = gen.remap(np.array([0.3 + eps]), c, 0.2)[0]
        assert left == pytest.approx(0.3, abs=1e-9)
        assert right == pytest.approx(0.3, abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0, 1), st.floats(0.05, 0.95), st.floats(0.05, 1.0))
    def test_stays_in_unit_interval(self, sig, c, g):
        out = gen.remap(np.array([sig]), np.array([c]), g)[0]
        assert -1e-12 <= out <= 1 + 1e-12


class TestSimplexMap:
    def test_midpoint(self):
        assert gen.simplex_map(np.array([0.5]))[0].tolist() == [0.5, 0.5]

    def test_product_chain(self):
        assert gen.simplex_map(np.array([1.0, 1.0]))[0].tolist() == [0.0, 0.0, 1.0]

    def test_inverse_of_chat_example(self):
        out = gen.simplex_map(np.array([2 / 3, 0.5]))[0]
        assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    @settings(max_examples=100)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=3))
    def test_sums_to_one_nonnegative(self, xhat):
        y = gen.simplex_map(np.array(xhat))[0]
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(y >= -1e-15)


class TestPositionValue:
    def test_center_returns_bias_center_for_unit_exponents(self):
        for name in ("mop1", "mop3", "mop12"):
            params = gen.preset(name)
            flat = gen.GeneratorParams(
                m=params.m, n=params.n, s=params.s, p=(1,) * params.m,
                c_pos=params.c_pos, gamma=params.gamma, theta=params.theta,
                a1=params.a1, a2=params.a2, a3=params.a3, a4=params.a4,
                a5=params.a5, c_dis=params.c_dis,
            )
            h, y = gen.position_value(center_position_vars(flat), flat)
            assert h[0] == pytest.approx(np.asarray(params.c_pos), abs=1e-12)

    def test_componentwise_power(self):
        # y = (0.25, 0.75) comes from xhat = 0.75 (m=2)
        params = gen.preset("mop1")
        p2 = gen.GeneratorParams(
            m=2, n=7, s=5, p=(2, 2), c_pos=params.c_pos, gamma=1.0,
            theta=params.theta, a1=1, a2=0, a3=1, a4=0, a5=0,
        )
        h, y = gen.position_value(np.full((1, 5), 0.99), p2)
        assert h[0] == pytest.approx(y[0] ** 2, abs=1e-12)

    def test_inverted_complements(self):
        base = gen.preset("mop11")
        inv = gen.preset("mop11-inv")
        xp = np.random.default_rng(0).random((5, base.s))
        h, y = gen.position_value(xp, base)
        h_inv, _ = gen.position_value(xp, inv)
        assert np.allclose(h + h_inv, 1.0, atol=1e-12)

    def test_boundary_unreachable_by_clamping(self):
        # clamped position inputs land back on the bias center, not extremes
        params = gen.preset("mop1")
        ch = gen.chat(params.c_pos)
        for val in (0.0, 1.0):
            h, y = gen.position_value(np.full((1, params.s), val), params)
            xhat = gen.remap(np.array([val]), ch, params.gamma)
            assert xhat[0] == pytest.approx(ch[0], abs=1e-12)


class TestDistanceRatio:
    def test_zero_at_center(self):
        assert gen.distance_ratio(np.array([[0.5, 0.5]]), (0.5, 0.5))[0] == 0.0

    def test_one_at_vertex(self):
        assert gen.distance_ratio(np.array([[1.0, 0.0]]), (0.5, 0.5))[0] == pytest.approx(1.0)

    def test_two_objective_linearity(self):
        # in 2-D the ratio is the euclidean distance over its vertex value
        got = gen.distance_ratio(np.array([[0.75, 0.25]]), (0.5, 0.5))[0]
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_range_on_simplex(self):
        rng = make_rng(5)
        e = rng.standard_exponential((200, 3))
        y = e / e.sum(axis=1, keepdims=True)
        ell = gen.distance_ratio(y, (1 / 3, 1 / 3, 1 / 3))
        assert np.all(ell >= 0) and np.all(ell <= 1)


class TestScaleB:
    def test_anchors(self):
        assert gen.scale_b(np.array([0.0]), 1.0, 2)[0] == 0.0
        assert gen.scale_b(np.array([1.0]), 1.0, 2)[0] == pytest.approx(1.0)

    def test_midpoint_value(self):
        assert gen.scale_b(np.array([0.5]), 1.0, 2)[0] == pytest.approx(0.70711, abs=1e-5)

    def test_zero_exponent_disables(self):
        out = gen.scale_b(np.array([0.0, 0.3, 1.0]), 0.0, 2)
        assert out.tolist() == [1.0, 1.0, 1.0]


class TestDistanceValues:
    def test_zero_on_constructed_anchor(self):
        params = gen.preset("mop1")
        rng = make_rng(0)
        xp = rng.random((10, params.s))
        _, y = gen.position_value(xp, params)
        xd = gen._distance_anchor(gen._ell_of(y, params), params)
        g = gen.distance_values(xp, xd, params)
        assert np.all(g == 0.0)

    def test_constant_anchor_without_ratio_terms(self):
        # with the shape and phase knobs off the anchors are fixed cosines
        params = gen.preset("mop1")
        n = params.n
        j = np.arange(params.s + 1, n + 1, dtype=float)
        expected = 0.9 * np.cos((n + 2) * j * np.pi / (2 * n))
        anchor = gen._distance_anchor(np.zeros(1), params)[0]
        assert anchor == pytest.approx(expected, abs=1e-15)

    def test_shared_rows_mix_equal(self):
        params = gen.preset("mop3")  # both mixing rows are (0.5, 0.5)
        rng = make_rng(1)
        xs = params.bounds.sample(20, rng)
        g = gen.distance_values(xs[:, : params.s], xs[:, params.s:], params)
        mixed = g @ params.theta_matrix.T
        assert np.allclose(mixed[:, 0], mixed[:, 1], atol=1e-12)

    def test_nonnegative(self):
        for name in ("mop7", "mop13"):
            params = gen.preset(name)
            xs = params.bounds.sample(50, make_rng(2))
            g = gen.distance_values(xs[:, : params.s], xs[:, params.s:], params)
            assert np.all(g >= 0)


class TestEvaluate:
    def test_bounds_violation_rejected(self):
        params = gen.preset("mop1")
        x = np.zeros(params.n)
        x[-1] = 1.5
        with pytest.raises(ValueError):
            gen.evaluate(x, params)

    def test_center_value_with_scales(self):
        # position at the bias center and distance variables on their anchors
        params = gen.preset("mop2")
        xp = center_position_vars(params)
        _, y = gen.position_value(xp, params)
        xd = gen._distance_anchor(gen._ell_of(y, params), params)
        f = gen.evaluate(np.hstack([xp, xd]), params)[0]
        assert f == pytest.approx([0.70711, 70.711], abs=1e-3)

    def test_optimal_set_image_within_scale(self):
        prob = gen.get_problem("mop1")
        ps = prob.sample_pareto_set(100, make_rng(0))
        fs = prob.evaluate_batch(ps)
        assert np.all(fs >= -1e-12)
        assert np.all(fs <= prob.nadir + 1e-9)

    def test_bounds_built_once_and_read_only(self):
        params = gen.preset("mop11")
        b = params.bounds
        assert gen.get_problem("mop11").bounds is not b  # one per instance
        assert params.bounds is b
        assert b.lower.tolist() == [0.0] * params.s + [-1.0] * (params.n - params.s)
        assert b.upper.tolist() == [1.0] * params.n
        with pytest.raises(ValueError):
            b.lower[0] = 0.5

    def test_ideal_and_scale_vector(self):
        prob = gen.get_problem("mop1")
        assert prob.ideal.tolist() == [0.0, 0.0]
        assert prob.nadir.tolist() == [1.0, 100.0]
        prob3 = gen.get_problem("mop13")
        assert prob3.nadir.tolist() == [1.0, 100.0, 10000.0]


class TestSamplers:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_optimal_set_has_zero_distance_parts(self, name):
        prob = gen.get_problem(name)
        ps = prob.sample_pareto_set(200, make_rng(7))
        g = gen.distance_values(ps[:, : prob.params.s], ps[:, prob.params.s:],
                                prob.params)
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_random_images_nonnegative_finite(self, name):
        prob = gen.get_problem(name)
        fs = prob.evaluate_batch(prob.bounds.sample(1000, make_rng(8)))
        assert np.isfinite(fs).all() and (fs >= 0).all()

    def test_front_grid_two_objectives(self):
        params = gen.GeneratorParams(m=2, n=7, s=5, p=(1, 1), c_pos=(0.5, 0.5),
                                     gamma=1.0, theta=((1, 0), (0, 1)),
                                     a1=1, a2=0, a3=1, a4=0, a5=0, w=(1, 1))
        front = gen.sample_pareto_front(params, 3)
        assert front.tolist() == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_front_min_converges_to_ideal(self):
        for name in ("mop2", "mop13", "mop14-inv"):
            prob = gen.get_problem(name)
            count = 2000
            front = prob.sample_pareto_front(count)
            lo = front.min(axis=0) / prob.nadir
            assert np.all(lo <= 2.0 / count)

    def test_inverted_vertex(self):
        params = gen.preset("mop13-inv")
        flat = gen.GeneratorParams(
            m=3, n=11, s=2, p=(1, 1, 1), c_pos=params.c_pos, gamma=1.0,
            theta=params.theta, a1=params.a1, a2=params.a2, a3=params.a3,
            a4=params.a4, a5=params.a5, c_dis=params.c_dis, inverted=True,
        )
        front = gen.sample_pareto_front(flat, 3)
        vertex = front[np.argmin(front[:, 2])]
        assert vertex == pytest.approx([1.0, 100.0, 0.0])

    @pytest.mark.parametrize("name", ["mop1", "mop5", "mop12", "mop12-inv"])
    def test_front_mutually_non_dominated(self, name):
        prob = gen.get_problem(name)
        front = prob.sample_pareto_front(500, method="random", rng=make_rng(9))
        le = np.all(front[:, None, :] <= front[None, :, :], axis=2)
        lt = np.any(front[:, None, :] < front[None, :, :], axis=2)
        dominated = (le & lt).any(axis=0)
        assert not dominated.any()

    def test_front_sample_count_validation(self):
        with pytest.raises(ValueError):
            gen.sample_pareto_front(gen.preset("mop1"), 0)


class TestPresets:
    def test_listing(self):
        assert len(ALL_NAMES) == 22
        assert ALL_NAMES[0] == "mop1" and ALL_NAMES[-1] == "mop16-inv"

    def test_first_row(self):
        p = gen.preset("mop1")
        assert (p.m, p.n, p.s) == (2, 7, 5)
        assert p.p == (1, 1) and p.c_pos == (0.1, 0.9) and p.gamma == 0.1
        assert p.theta == ((1.0, 0.0), (0.0, 1.0))
        assert (p.a1, p.a2, p.a3, p.a4, p.a5) == (1, 0, 1, 0, 0)
        assert p.w == (1.0, 100.0) and p.c_dis is None and not p.inverted

    def test_last_row(self):
        p = gen.preset("mop16")
        assert (p.m, p.n, p.s) == (3, 11, 2)
        assert p.p == (0.5, 0.5, 2) and p.c_pos == (0, 0, 1) and p.gamma == 0.1
        assert (p.a1, p.a2, p.a3, p.a4, p.a5) == (3, 2, 0.8, 2, 0)
        assert p.c_dis == (0, 0, 1)

    def test_inverted_variant_flips_flag_only(self):
        base, inv = gen.preset("mop12"), gen.preset("mop12-inv")
        assert inv.inverted and not base.inverted
        assert inv.c_pos == base.c_pos and inv.theta == base.theta

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            gen.preset("mop17")
        with pytest.raises(KeyError):
            gen.preset("mop2-inv")

    def test_case_insensitive(self):
        assert gen.preset("MOP3") == gen.preset("mop3")


class TestParamValidation:
    def test_requires_dis_center_when_biased(self):
        with pytest.raises(ValueError):
            gen.GeneratorParams(m=2, n=7, s=1, p=(1, 1), c_pos=(0.5, 0.5),
                                gamma=1.0, theta=((1, 0), (0, 1)),
                                a1=1, a2=0, a3=1, a4=2, a5=0)

    def test_rejects_bad_simplex(self):
        with pytest.raises(ValueError):
            gen.GeneratorParams(m=2, n=7, s=1, p=(1, 1), c_pos=(0.5, 0.6),
                                gamma=1.0, theta=((1, 0), (0, 1)),
                                a1=1, a2=0, a3=1, a4=0, a5=0)

    def test_rejects_negative_mixing(self):
        with pytest.raises(ValueError):
            gen.GeneratorParams(m=2, n=7, s=1, p=(1, 1), c_pos=(0.5, 0.5),
                                gamma=1.0, theta=((1, -0.1), (0, 1)),
                                a1=1, a2=0, a3=1, a4=0, a5=0)

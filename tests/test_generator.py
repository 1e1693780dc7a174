import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench import generator as gen
from idealbench.core import make_rng

from . import reference_insert

ALL_NAMES = gen.preset_names()


def center_position_vars(params):
    """Position variables whose group means sit exactly on the bias center."""
    ch = gen.chat(params.c_pos)
    xp = np.empty(params.s)
    for j in range(params.s):
        xp[j] = ch[j % (params.m - 1)]
    return xp[None, :]


def distance_parts(x_pos, x_dist, params):
    """The raw distance parts ``g`` before mixing, shape (k, m)."""
    return gen._distance_from_y(x_dist, gen.position_value(x_pos, params)[1], params)


class TestSigma:
    # the position reduction: m-1 group means of the s position variables
    def test_mean_of_group(self):
        out = gen._group_means(np.array([[0.2, 0.4, 0.6, 0.8, 1.0]]), gen._groups(5, 1))
        assert out[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_single_variable_identity(self):
        assert gen._group_means(np.array([[0.3]]), gen._groups(1, 1))[0, 0] == 0.3

    def test_one_variable_per_group(self):
        out = gen._group_means(np.array([[0.1, 0.9]]), gen._groups(2, 2))
        assert out[0].tolist() == [0.1, 0.9]

    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 3, 7, 8, 12])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_bytes_match_the_per_group_sums(self, groups, size, extra):
        # magnitudes that cancel show any change in the order of the sums:
        # groups of 8 or more, or of unequal size, keep one reduce per group
        rng = make_rng(100 * size + 10 * groups + extra)
        width = size * groups + extra
        layout = gen._groups(width, groups)
        terms = [1.0, 1e16, -1e16, 3.0, 1e-3, 7.5, 2.0 ** -53, -0.0]
        for k in (1, 4, 100):
            vals = rng.choice(terms, size=(k, width + 3))
            for block in (vals[:, :width], vals[:, 3:], np.ascontiguousarray(vals[:, 3:])):
                got = gen._group_means(block, layout)
                want = reference_insert._group_means(block, layout)
                assert got.tobytes() == want.tobytes()

    def test_too_few_variables(self):
        # one position variable cannot feed the m-1 = 2 groups of m = 3
        with pytest.raises(ValueError, match="m-1 position variables"):
            gen.GeneratorParams(m=3, n=5, s=1, p=(1, 1, 1), c_pos=(0.2, 0.3, 0.5),
                                gamma=1.0, theta=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                a1=1, a2=0, a3=1, a4=0, a5=0)


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
        for g in (0.1, 0.5, 1.0):
            frame = gen._remap_frame(np.array([0.25]), g)
            assert gen._remap(np.array([0.0]), *frame)[0] == pytest.approx(0.25, abs=1e-12)
            assert gen._remap(np.array([1.0]), *frame)[0] == pytest.approx(0.25, abs=1e-12)

    def test_extremes_at_quarter_points(self):
        frame = gen._remap_frame(np.array([0.25]), 0.1)
        assert gen._remap(np.array([0.125]), *frame)[0] == pytest.approx(0.0, abs=1e-12)
        assert gen._remap(np.array([0.625]), *frame)[0] == pytest.approx(1.0, abs=1e-12)

    def test_continuous_at_center(self):
        frame = gen._remap_frame(np.array([0.3]), 0.2)
        eps = 1e-12
        left = gen._remap(np.array([0.3 - eps]), *frame)[0]
        right = gen._remap(np.array([0.3 + eps]), *frame)[0]
        assert left == pytest.approx(0.3, abs=1e-9)
        assert right == pytest.approx(0.3, abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0, 1), st.floats(0.05, 0.95), st.floats(0.05, 1.0))
    def test_stays_in_unit_interval(self, sig, c, g):
        out = gen._remap(np.array([sig]), *gen._remap_frame(np.array([c]), g))[0]
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
            xhat = gen._remap(np.array([val]), *gen._remap_frame(ch, params.gamma))
            assert xhat[0] == pytest.approx(ch[0], abs=1e-12)


class TestDistanceRatio:
    HALF = gen._ratio_frame((0.5, 0.5))

    def test_zero_at_center(self):
        assert gen._ratio(np.array([[0.5, 0.5]]), *self.HALF)[0] == 0.0

    def test_one_at_vertex(self):
        assert gen._ratio(np.array([[1.0, 0.0]]), *self.HALF)[0] == pytest.approx(1.0)

    def test_two_objective_linearity(self):
        # in 2-D the ratio is the euclidean distance over its vertex value
        got = gen._ratio(np.array([[0.75, 0.25]]), *self.HALF)[0]
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_range_on_simplex(self):
        rng = make_rng(5)
        e = rng.standard_exponential((200, 3))
        y = e / e.sum(axis=1, keepdims=True)
        ell = gen._ratio(y, *gen._ratio_frame((1 / 3, 1 / 3, 1 / 3)))
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
        g = distance_parts(xp, xd, params)
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
        g = distance_parts(xs[:, : params.s], xs[:, params.s:], params)
        mixed = g @ params.theta_matrix.T
        assert np.allclose(mixed[:, 0], mixed[:, 1], atol=1e-12)

    def test_nonnegative(self):
        for name in ("mop7", "mop13"):
            params = gen.preset(name)
            xs = params.bounds.sample(50, make_rng(2))
            g = distance_parts(xs[:, : params.s], xs[:, params.s:], params)
            assert np.all(g >= 0)


class TestEvaluate:
    def test_bounds_violation_rejected(self):
        params = gen.preset("mop1")
        x = np.zeros(params.n)
        x[-1] = 1.5
        with pytest.raises(ValueError):
            gen.evaluate(x, params)

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    @pytest.mark.parametrize("part", ["position", "distance"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_nan_variable_rejected(self, name, part, rows):
        # NaN fails every compare, so a check for values past a bound let it
        # through and the row evaluated to NaN objectives
        prob = gen.get_problem(name)
        x = prob.bounds.sample(rows, make_rng(4))
        x[rows // 2, 0 if part == "position" else prob.params.s] = np.nan
        with pytest.raises(ValueError, match="outside the box bounds"):
            prob.evaluate_batch(x)

    @pytest.mark.parametrize("name", ["mop8", "mop10", "mop14", "mop16",
                                      "mop14-inv", "mop16-inv"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_just_below_the_box_rejected(self, name, rows):
        # their remap centre is 1: a group mean below 0 remaps above 1 and
        # the objectives turn NaN, so the box check must be exact
        prob = gen.get_problem(name)
        x = prob.bounds.sample(rows, make_rng(5))
        x[:, 0] = -1e-9
        with pytest.raises(ValueError, match="outside the box bounds"):
            prob.evaluate_batch(x)

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

    @pytest.mark.parametrize("name", ["mop11", "mop7"])
    def test_constants_built_once_and_read_only(self, name):
        params = gen.preset(name)
        n, s = params.n, params.s
        j = np.arange(s + 1, n + 1, dtype=float)
        expected = {
            "chat_vals": gen.chat(params.c_pos),
            "theta_matrix": np.asarray(params.theta, dtype=float),
            "w_vector": np.asarray(params.w, dtype=float),
            "p_vector": np.asarray(params.p, dtype=float),
            "distance_phase": (n + 2) * j * np.pi / (2 * n),
        }
        for attr, want in expected.items():
            got = getattr(params, attr)
            assert getattr(params, attr) is got
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.5

    @pytest.mark.parametrize("name", ["mop7", "mop13"])
    def test_ratio_frame_built_once_and_read_only(self, name):
        params = gen.preset(name)
        c, nmat, r0 = frame = params.ratio_frame
        assert params.ratio_frame is frame
        assert nmat.tobytes() == gen._normal_matrix(params.m).tobytes()
        y = np.random.default_rng(0).dirichlet(np.ones(params.m), 20)
        assert (gen._ratio(y, c, nmat, r0).tobytes()
                == gen._ratio(y, *gen._ratio_frame(params.c_dis)).tobytes())
        for array in (c, nmat):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_ideal_and_scale_vector(self):
        prob = gen.get_problem("mop1")
        assert prob.ideal.tolist() == [0.0, 0.0]
        assert prob.nadir.tolist() == [1.0, 100.0]
        prob3 = gen.get_problem("mop13")
        assert prob3.nadir.tolist() == [1.0, 100.0, 10000.0]


def reference_sigma(x_pos, m):
    """The earlier ``sigma``: each group mean through ``ndarray.mean``."""
    out = np.empty((x_pos.shape[0], m - 1))
    for i in range(m - 1):
        out[:, i] = x_pos[:, i::(m - 1)].mean(axis=1)
    return out


def reference_remap(sig, c, gamma):
    """The earlier ``remap``, which rebuilt its coefficients on every call."""
    g = float(gamma)
    coef_lo = 2.0**g * np.power(c, 1.0 - g)
    coef_hi = 2.0**g * np.power(1.0 - c, 1.0 - g)
    lo = coef_lo * np.abs(sig - c / 2.0) ** g
    hi = 1.0 - coef_hi * np.abs(sig - (1.0 + c) / 2.0) ** g
    return np.where(sig < c, lo, np.where(sig > c, hi, sig))


def reference_evaluate(x, params):
    """The earlier per-call composition of ``evaluate``: every constant is
    rebuilt, every row gets its own anchor and weight, every mean goes
    through ``ndarray.mean``."""
    x_pos, x_dist = x[:, : params.s], x[:, params.s:]
    sig = reference_sigma(x_pos, params.m)
    y = gen.simplex_map(reference_remap(sig, gen.chat(params.c_pos), params.gamma))
    h = np.power(y, np.asarray(params.p, dtype=float))
    if params.inverted:
        h = 1.0 - h
    ell = gen._ell_of(y, params)
    powered = np.abs(x_dist - gen._distance_anchor(ell, params)) ** params.a3
    weight = params.a1 * gen.scale_b(ell, params.a4, params.m) + 1.0
    g = np.empty((x.shape[0], params.m))
    for i in range(params.m):
        g[:, i] = weight * powered[:, i::params.m].mean(axis=1)
    return ((h + g @ np.asarray(params.theta, dtype=float).T)
            * np.asarray(params.w, dtype=float))


class TestFoldedEvaluate:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 211])
    def test_byte_equal_to_the_per_call_composition(self, name, k):
        params = gen.preset(name)
        b = params.bounds
        x = b.sample(k, make_rng(k))
        if k > 2:
            # both bound corners, and group means on the remap centre
            x[0], x[1] = b.lower, b.upper
            x[2, : params.s] = center_position_vars(params)[0]
        assert gen.evaluate(x, params).tobytes() == reference_evaluate(x, params).tobytes()

    @pytest.mark.parametrize("name", ["mop2", "mop11", "mop13"])
    def test_sampled_optima_equal_the_per_row_anchor(self, name):
        # t = 0 bitwise: the sampler takes the anchor from the same frame
        prob = gen.get_problem(name)
        ps = prob.sample_pareto_set(64, make_rng(3))
        x_dist = ps[:, prob.params.s:]
        ell = gen._ell_of(gen.position_value(ps[:, : prob.params.s], prob.params)[1],
                          prob.params)
        assert x_dist.tobytes() == gen._distance_anchor(ell, prob.params).tobytes()

    @pytest.mark.parametrize("name", ["mop2", "mop11", "mop13"])
    def test_frames_built_once_and_read_only(self, name):
        params = gen.preset(name)
        frames = ["remap_frame", "position_groups", "distance_groups"]
        if params.c_dis is None:
            frames.append("flat_distance")
        for attr in frames:
            frame = getattr(params, attr)
            assert getattr(params, attr) is frame
            for array in (a for a in frame if isinstance(a, np.ndarray)):
                with pytest.raises(ValueError):
                    array[0] = 0.5
        assert isinstance(params.remap_frame[-1], float)


class TestSamplers:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_optimal_set_has_zero_distance_parts(self, name):
        prob = gen.get_problem(name)
        ps = prob.sample_pareto_set(200, make_rng(7))
        g = distance_parts(ps[:, : prob.params.s], ps[:, prob.params.s:], prob.params)
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_random_images_nonnegative_finite(self, name):
        prob = gen.get_problem(name)
        b = prob.bounds
        corners = np.where(make_rng(6).random((64, prob.n)) < 0.5, b.lower, b.upper)
        fs = prob.evaluate_batch(np.vstack([b.sample(1000, make_rng(8)),
                                            b.lower, b.upper, corners]))
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
        front = prob.sample_pareto_front(500)
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

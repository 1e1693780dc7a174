import hashlib
import pickle
import statistics
import warnings

import numpy as np
import pytest

from idealbench.cmaes import (EXCEPTIONAL, MAX_CONDITION, CmaProcedure,
                              _selection_weights, default_lambda)
from idealbench.core import BoxBounds, make_rng

from .reference_cma import reference_cma_evals_to_target
from .test_digest import dispatch_note


def sphere(xs):
    return np.sum(np.atleast_2d(xs) ** 2, axis=1)


def far_box(n):
    """A box no sample of these tests reaches: clamping to it is the identity."""
    return BoxBounds(np.full(n, -1e6), np.full(n, 1e6))


class FixedLambda(CmaProcedure):
    """A procedure whose population size stays where it is set."""

    def _adapt_lambda(self, old_mean, old_sigma, params) -> None:
        pass


def fresh_procedure(seed=0, n=7, psa=True):
    rng = make_rng(seed)
    pts = rng.uniform(-5, 5, (100, n))
    cls = CmaProcedure if psa else FixedLambda
    return cls.warm_start(pts, sphere(pts), far_box(n)), rng


class TestDefaultLambda:
    def test_values(self):
        assert default_lambda(7) == 9
        assert default_lambda(11) == 11
        assert default_lambda(1) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_lambda(0)


class TestWarmStart:
    def test_identical_points_floor(self):
        pts = np.tile([1.0, 2.0, 3.0], (50, 1))
        proc = CmaProcedure.warm_start(pts, np.zeros(50), far_box(3))
        assert proc.mean == pytest.approx([1.0, 2.0, 3.0])
        assert np.allclose(proc.cov, proc.cov[0, 0] * np.eye(3))
        assert proc.cov[0, 0] > 0
        assert proc.sigma == 1.0

    def test_top_decile_centroid(self):
        rng = make_rng(1)
        pts = rng.random((100, 4))
        fits = np.arange(100.0)
        proc = CmaProcedure.warm_start(pts, fits, far_box(4))
        assert proc.mean == pytest.approx(pts[:10].mean(axis=0))

    def test_moment_matching_on_gaussian_cloud(self):
        rng = make_rng(2)
        true_cov = np.diag([4.0, 1.0, 0.25])
        pts = rng.multivariate_normal(np.array([1.0, -1.0, 0.0]), true_cov, 10_000)
        # equal fitness: the donors are the first WARM_START_QUANTILE of draws
        proc = CmaProcedure.warm_start(pts, np.zeros(10_000), far_box(3))
        assert proc.mean == pytest.approx([1.0, -1.0, 0.0], abs=0.1)
        assert np.diag(proc.cov) == pytest.approx(np.diag(true_cov), rel=0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CmaProcedure.warm_start(np.empty((0, 3)), np.empty(0), far_box(3))


class TestAsk:
    def test_degenerate_step_size(self):
        proc, rng = fresh_procedure()
        proc.sigma = 1e-300
        xs = proc.ask(rng)
        assert np.allclose(xs, proc.mean)

    def test_respects_bounds(self):
        rng = make_rng(3)
        bounds = BoxBounds(np.zeros(3), np.ones(3))
        pts = bounds.sample(50, rng)
        proc = CmaProcedure.warm_start(pts, sphere(pts), bounds=bounds)
        proc.sigma = 50.0
        xs = proc.ask(rng)
        assert (xs >= bounds.lower).all() and (xs <= bounds.upper).all()
        # a restart keeps the box
        proc.warm_restart(pts, sphere(pts))
        assert proc.bounds is bounds
        proc.sigma = 50.0
        xs = proc.ask(rng)
        assert (xs >= bounds.lower).all() and (xs <= bounds.upper).all()
        assert ((xs == bounds.lower) | (xs == bounds.upper)).any()

    def test_sample_mean_matches_distribution(self):
        proc, rng = fresh_procedure(4, n=3)
        proc.lam = 8 * proc.lambda_default
        draws = np.vstack([proc.ask(rng) for _ in range(1500)])
        tol = 4 * proc.sigma * np.sqrt(np.diag(proc.cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - proc.mean) < tol)

    def test_stopped_procedure_refuses(self):
        proc, rng = fresh_procedure()
        proc.stop()
        with pytest.raises(RuntimeError):
            proc.ask(rng)


class TestTell:
    def test_sphere_convergence_budget(self):
        evals_needed = []
        for seed in range(5):
            proc, rng = fresh_procedure(seed)
            evals, best = 0, np.inf
            lam_ok = True
            while evals < 10_000 and best > 1e-8:
                xs = proc.ask(rng)
                fs = sphere(xs)
                evals += len(xs)
                best = min(best, fs.min())
                proc.tell(xs, fs)
                lam_ok &= proc.lambda_default <= proc.lam <= 8 * proc.lambda_default
            assert lam_ok
            evals_needed.append(evals if best <= 1e-8 else np.inf)
        assert statistics.median(evals_needed) < 10_000

    def test_covariance_stays_spd(self):
        rng = make_rng(5)
        hess = rng.random((6, 6))
        hess = hess @ hess.T + np.eye(6)

        def quad(xs):
            return np.einsum("ij,jk,ik->i", np.atleast_2d(xs), hess, np.atleast_2d(xs))

        pts = rng.uniform(-3, 3, (80, 6))
        proc = CmaProcedure.warm_start(pts, quad(pts), far_box(6))
        for _ in range(500):
            xs = proc.ask(rng)
            proc.tell(xs, quad(xs))
            assert np.allclose(proc.cov, proc.cov.T)
            assert np.linalg.eigvalsh(proc.cov).min() > 0

    def test_lambda_constant_between_tells(self):
        proc, rng = fresh_procedure(6)
        lam = proc.lam
        xs = proc.ask(rng)
        assert proc.lam == lam  # ask must not change it
        proc.tell(xs, sphere(xs))

    def test_empty_injection_is_identity(self):
        runs = []
        for injected in (None, (np.empty((0, 7)), np.empty(0))):
            proc, rng = fresh_procedure(7)
            for _ in range(20):
                xs = proc.ask(rng)
                if injected is None:
                    proc.tell(xs, sphere(xs))
                else:
                    proc.tell(xs, sphere(xs), injected_xs=injected[0],
                              injected_fitness=injected[1])
            runs.append(proc.mean.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_injected_step_is_clipped(self):
        proc, rng = fresh_procedure(8)
        proc.sigma = 1e-3
        proc.lam = proc.lambda_default  # injection gate open
        xs = proc.ask(rng)
        far = proc.mean + 100.0
        old_mean = proc.mean.copy()
        proc.tell(xs, sphere(xs) + 100.0, injected_xs=far[None, :],
                  injected_fitness=np.array([-1.0]))
        step_norm = np.linalg.norm((proc.mean - old_mean) / 1e-3)
        # even winning every weight, the implied step is norm-capped
        eigvals = np.linalg.eigvalsh(proc.cov)
        cap = 2.0 * np.sqrt(7) * np.sqrt(eigvals.max()) * 1.5
        assert step_norm < cap * 10  # loose: clipped far below |far - mean| / sigma

    def test_injection_ignored_above_default_population(self):
        proc, rng = fresh_procedure(9)
        proc.lam = proc.lambda_default * 2
        xs = proc.ask(rng)
        far = proc.mean + 100.0
        before = proc.mean.copy()
        proc.tell(xs, sphere(xs), injected_xs=far[None, :],
                  injected_fitness=np.array([-np.inf]))
        # the far candidate never entered the pool, so the mean stays local
        assert np.linalg.norm(proc.mean - before) < 10.0

    @pytest.mark.parametrize("rows, values, injected_rows, injected_values", [
        (9, 8, 0, 0),  # own fitness shorter than the candidates
        (9, 10, 0, 0),  # and longer
        (9, 9, 3, 2),  # injected candidates with too few fitness values
        (9, 9, 2, 3),  # and too many
    ])
    def test_mismatched_lengths_rejected_before_any_change(
            self, rows, values, injected_rows, injected_values):
        proc, rng = fresh_procedure(13)
        proc.lam = proc.lambda_default  # injection gate open
        xs = proc.ask(rng)
        assert len(xs) == rows
        fs = np.resize(sphere(xs), values)
        inj = proc.mean + rng.standard_normal((injected_rows, 7))
        inj_fs = np.resize(sphere(inj), injected_values) if injected_rows else None
        before = pickle.dumps(proc.__dict__)
        bad = (rows, values) if rows != values else (injected_rows, injected_values)
        with pytest.raises(ValueError, match=rf"\b{bad[0]} .*candidates but {bad[1]} "):
            proc.tell(xs, fs, injected_xs=inj if injected_rows else None,
                      injected_fitness=inj_fs)
        assert pickle.dumps(proc.__dict__) == before

    def test_non_finite_fitness_discarded(self):
        proc, rng = fresh_procedure(10)
        xs = proc.ask(rng)
        fs = sphere(xs)
        fs[0] = np.nan
        with pytest.warns(UserWarning):
            proc.tell(xs, fs)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_fewer_than_four_candidates(self, rows):
        # mu is 1, so the mean moves onto the best candidate; c_mu is 0, so
        # no rank-mu or negative update may act (it divided by c_mu)
        weights = _selection_weights(rows, 7)
        assert weights["mu"] == 1 and weights["c_mu"] == 0.0
        assert weights["all_weights"].tolist() == [1.0]
        proc, rng = fresh_procedure(11)
        xs = proc.ask(rng)[:rows]
        fs = sphere(xs)
        proc.tell(xs, fs)
        np.testing.assert_allclose(proc.mean, xs[np.argmin(fs)], rtol=0, atol=1e-12)
        assert np.isfinite(proc.sigma) and proc.sigma > 0
        assert np.linalg.eigvalsh(proc.cov).min() > 0
        xs = proc.ask(rng)  # a full generation still follows
        proc.tell(xs, sphere(xs))
        assert proc.generation == 2

    def test_non_finite_fitness_leaving_three_candidates(self):
        proc, rng = fresh_procedure(12)
        xs = proc.ask(rng)
        assert len(xs) == 9
        fs = sphere(xs)
        fs[:6] = [np.nan, np.inf, -np.inf, np.nan, np.nan, np.inf]
        with pytest.warns(UserWarning):
            proc.tell(xs, fs)
        np.testing.assert_allclose(proc.mean, xs[6 + np.argmin(fs[6:])],
                                   rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(proc.cov).min() > 0

    def test_matches_reference_within_factor_two(self):
        def run_mine(seed):
            rng = make_rng(seed)
            pts = rng.uniform(-5, 5, (100, 7))
            proc = FixedLambda.warm_start(pts, sphere(pts), far_box(7))
            evals = 0
            while evals < 30_000:
                xs = proc.ask(rng)
                fs = sphere(xs)
                evals += len(xs)
                if fs.min() < 1e-8:
                    return evals
                proc.tell(xs, fs)
            return None

        mine = [run_mine(seed) for seed in range(5)]
        oracle = [
            reference_cma_evals_to_target(
                sphere, make_rng(100 + seed).uniform(-5, 5, 7), 1.0, 1e-8,
                30_000, make_rng(100 + seed),
            )
            for seed in range(5)
        ]
        assert all(v is not None for v in mine + oracle)
        assert statistics.median(mine) <= 2 * statistics.median(oracle)


class TestPopulationSizeAdaptation:
    def test_grows_under_random_fitness(self):
        proc, rng = fresh_procedure(11)
        lams = []
        for _ in range(60):
            xs = proc.ask(rng)
            proc.tell(xs, rng.random(len(xs)))
            lams.append(proc.lam)
        assert statistics.median(lams[30:]) > 2 * proc.lambda_default

    def test_shrinks_on_consistent_ramp(self):
        proc, rng = fresh_procedure(12)
        direction = np.ones(7)
        lams = []
        for _ in range(60):
            xs = proc.ask(rng)
            proc.tell(xs, xs @ direction)
            lams.append(proc.lam)
        assert statistics.median(lams[30:]) == proc.lambda_default

    def test_bounds_always_hold(self):
        proc, rng = fresh_procedure(13)
        for gen in range(80):
            xs = proc.ask(rng)
            fs = rng.random(len(xs)) if gen % 2 else sphere(xs)
            proc.tell(xs, fs)
            assert proc.lambda_default <= proc.lam <= 8 * proc.lambda_default

    def test_disabled_stays_default(self):
        # nothing but _adapt_lambda moves the population size
        proc, rng = fresh_procedure(14, psa=False)
        for _ in range(30):
            xs = proc.ask(rng)
            proc.tell(xs, rng.random(len(xs)))
            assert proc.lam == proc.lambda_default


class TestStopping:
    def test_fresh_procedure_reports_nothing(self):
        proc, _ = fresh_procedure(15)
        assert proc.check_stop() == frozenset()

    def test_no_effect_coord_on_vanishing_step(self):
        proc, rng = fresh_procedure(16)
        xs = proc.ask(rng)
        proc.tell(xs, sphere(xs))
        proc.sigma = 1e-30
        fired = proc.check_stop()
        assert "NoEffectCoord" in fired
        assert fired - EXCEPTIONAL and not fired & EXCEPTIONAL

    def test_no_effect_axis_on_vanishing_step(self):
        proc, rng = fresh_procedure(17)
        xs = proc.ask(rng)
        proc.tell(xs, sphere(xs))
        proc.sigma = 1e-30
        assert "NoEffectAxis" in proc.check_stop()

    def test_no_effect_axis_matches_per_axis_loop(self):
        proc, rng = fresh_procedure(22)
        for _ in range(3):
            xs = proc.ask(rng)
            proc.tell(xs, sphere(xs))
        mean, d = proc.mean, proc._sqrt_eigvals
        b = proc.scales[:, None] * proc._eigvecs
        seen = set()
        # across the sigmas where the axes lose their effect one by one
        for sigma in np.geomspace(1e-19, 1e-13, 200):
            proc.sigma = sigma
            want = all(np.all(mean == mean + 0.1 * sigma * d[i] * b[:, i])
                       for i in range(proc.n))
            assert ("NoEffectAxis" in proc.check_stop()) == want
            seen.add(want)
        assert seen == {True, False}

    def test_selection_weights_cached_and_read_only(self):
        for lam, n in [(8, 7), (56, 7), (6, 2)]:
            got = _selection_weights(lam, n)
            assert _selection_weights(lam, n) is got
            fresh = _selection_weights.__wrapped__(lam, n)
            assert got.keys() == fresh.keys()
            for key, value in fresh.items():
                np.testing.assert_array_equal(got[key], value)
            for key in ("weights", "all_weights"):
                with pytest.raises(ValueError):
                    got[key][0] = 1.0
            with pytest.raises(TypeError):
                got["mu"] = 0

    def test_divergence_flags_exceptional(self):
        proc, rng = fresh_procedure(18)
        xs = proc.ask(rng)
        proc.tell(xs, sphere(xs))
        proc.sigma = proc.sigma0 * 1e5
        fired = proc.check_stop()
        assert "TolXUp" in fired and fired & EXCEPTIONAL

    def test_flat_fitness_alone_is_not_enough(self):
        proc, rng = fresh_procedure(19)
        for _ in range(60):
            xs = proc.ask(rng)
            proc.tell(xs, np.zeros(len(xs)))
            # spread still macroscopic: the combined flatness test stays off
            assert "TolFunTolX" not in proc.check_stop()

    def test_flatness_with_collapsed_spread_triggers(self):
        proc, rng = fresh_procedure(20)
        for _ in range(50):
            xs = proc.ask(rng)
            proc.tell(xs, np.zeros(len(xs)))
        proc.sigma = 1e-12
        proc.cov = np.eye(7) * 1e-12
        proc.p_c = np.zeros(7)
        proc._refresh_eigen()
        assert "TolFunTolX" in proc.check_stop()

    def test_flatness_counts_the_last_generation(self):
        proc, rng = fresh_procedure(20)
        for gen in range(50):
            xs = proc.ask(rng)
            # every best value is 0, but the last generation spreads to 1
            proc.tell(xs, np.zeros(len(xs)) if gen < 49 else np.linspace(0, 1, len(xs)))
        proc.sigma = 1e-12
        proc.cov = np.eye(7) * 1e-12
        proc.p_c = np.zeros(7)
        proc._refresh_eigen()
        assert "TolFunTolX" not in proc.check_stop()

    def test_never_triggers_while_improving(self):
        proc, rng = fresh_procedure(21)
        best = np.inf
        for _ in range(40):
            xs = proc.ask(rng)
            fs = sphere(xs)
            fired = proc.tell(xs, fs)
            improved = best - fs.min()
            best = min(best, fs.min())
            if improved > 1e-3:
                assert "TolFunTolX" not in fired

    def test_warm_restart_resets_snapshots(self):
        proc, rng = fresh_procedure(22)
        for _ in range(10):
            xs = proc.ask(rng)
            proc.tell(xs, sphere(xs))
        pts = rng.uniform(-5, 5, (100, 7))
        proc.stop()  # a restart also revives a retired search
        proc.warm_restart(pts, sphere(pts))
        assert proc.live
        assert proc.sigma == proc.sigma0 == 1.0
        assert proc.generation == 0
        assert proc.check_stop() == frozenset()


def power_cusp(anchor, power=0.1):
    def f(xs):
        return np.sum(np.abs(np.atleast_2d(xs) - anchor) ** power, axis=1)
    return f


def mean_cusp(xs):
    """A cusp on the mean of five variables (four neutral directions) plus
    two distance cusps, the shape of a mop1 subproblem."""
    xs = np.atleast_2d(xs)
    return (np.abs(xs[:, :5].mean(axis=1) - 0.55) ** 0.1
            + np.abs(xs[:, 5] - 0.3) ** 0.1 + np.abs(xs[:, 6] + 0.45) ** 0.1)


class TestConditioning:
    def test_power_cusp_keeps_covariance_resolvable(self):
        # Unmended, this run reached a covariance with a negative diagonal
        # entry at generation 2,272 (condition 1.2e17), and check_stop then
        # took sqrt of it with a RuntimeWarning.
        n = 11
        anchor = 0.9 * np.cos((n + 2) * np.arange(1, n + 1) * np.pi / (2 * n))
        cusp = power_cusp(anchor)
        rng = make_rng(0)
        pts = rng.uniform(-5, 5, (100, n))
        proc = FixedLambda.warm_start(pts, cusp(pts), far_box(n))
        assert proc.lam == default_lambda(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2400):
                xs = proc.ask(rng)
                proc.tell(xs, cusp(xs))
                eig = np.linalg.eigvalsh(proc.cov)
                # eigvalsh resolves the smallest eigenvalue to ~n*eps*cond
                assert 0 < eig[-1] <= 1.01 * MAX_CONDITION * eig[0]
                assert np.all(np.diag(proc.cov) > 0)
                assert np.all(proc.scales > 0) and np.all(np.isfinite(proc.scales))

    def test_neutral_directions_do_not_stall(self):
        # Unmended, the smallest axis only crept from 1e-12 to 1e-15 between
        # generations 150 and 400 (seeds 0-2): the wide neutral axes held it
        # at 1e-10 of their length.  Mended, seed 0 reaches 5e-22 here.
        rng = make_rng(0)
        pts = rng.uniform(0, 1, (100, 7))
        proc = FixedLambda.warm_start(pts, mean_cusp(pts), far_box(7))
        proc.lam = 8 * proc.lambda_default
        for _ in range(300):
            xs = proc.ask(rng)
            proc.tell(xs, mean_cusp(xs))
        assert proc.axis_lengths.min() < 1e-20
        assert proc.mean[:5].mean() == pytest.approx(0.55, abs=1e-15)

    def test_scales_absorb_axis_aligned_spread(self):
        proc = CmaProcedure(np.zeros(3), 1.0, np.diag([1.0, 1e-8, 1e-16]), far_box(3))
        assert np.linalg.cond(proc.cov) <= 1.01 * MAX_CONDITION
        assert proc.axis_sd == pytest.approx([1.0, 1e-4, 1e-8])


class TestDiagonalAcceleration:
    def test_separable_cusp_converges_faster(self):
        # Without the scale update every seed 0-4 needed 184-188 generations
        # to bring all seven coordinates within 1e-12; with it 90-100.
        n = 7
        anchor = 0.9 * np.cos((n + 2) * np.arange(1, n + 1) * np.pi / (2 * n)) + 0.01
        cusp = power_cusp(anchor)
        rng = make_rng(1)
        proc = FixedLambda(anchor + rng.uniform(-0.3, 0.3, n), 0.2, np.eye(n),
                           far_box(n))
        proc.lam = 8 * proc.lambda_default
        for _ in range(130):
            xs = proc.ask(rng)
            proc.tell(xs, cusp(xs))
        assert np.abs(proc.mean - anchor).max() < 1e-12

    def test_clamped_coordinates_keep_their_scale(self):
        bounds = BoxBounds(np.zeros(2), np.ones(2))
        proc = CmaProcedure(np.array([0.95, 0.5]), 0.1, np.eye(2), bounds=bounds)
        rng = make_rng(2)
        xs = np.column_stack([np.r_[np.ones(3), np.zeros(3)],
                              rng.uniform(0.3, 0.7, 6)])
        # the selected half all sit on the upper bound of the first coordinate
        # and the rest, which the active update weighs negatively, on its lower
        proc.tell(xs, -xs[:, 0] + 1e-3 * np.arange(6))
        assert proc.scales[0] == 1.0
        assert proc.scales[1] != 1.0


# sha256 over every generation's state in `scripted_tells`: a rewrite of
# `tell` or `check_stop` has to keep every byte of it
TELL_SCRIPT_SHA256 = "c71daf91c8ccc004b0a3c16466e21380b1de5910ce5d975cdcd0b9336bf308a6"


def _tell_state(proc, fired) -> bytes:
    arrays = (proc.mean, proc.cov, proc.scales, np.array([proc.sigma]),
              np.array([proc.lam], dtype=np.int64), proc.p_sigma, proc.p_c)
    return (b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
            + ",".join(sorted(fired)).encode() + b";")


def scripted_tells():
    """A fixed `tell` sequence through every branch the update has: clipped
    and unclipped injections, lambda at and above its default, non-finite
    own and injected fitness, one to three candidates, a flat window with
    and without collapsed spread, and TolXUp before and after a restart."""
    rng = make_rng(31)
    n = 7
    bounds = BoxBounds(np.full(n, -5.0), np.full(n, 5.0))
    pts = rng.uniform(-5, 5, (100, n))
    proc = CmaProcedure.warm_start(pts, sphere(pts), bounds=bounds)
    states, fired_log, lams, flags = [], [], [], []

    def tell(xs, fs, inj=None, inj_fs=None):
        lams.append((proc.lam, proc.lambda_default))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fired = proc.tell(xs, fs, injected_xs=inj, injected_fitness=inj_fs)
        states.append(_tell_state(proc, fired))
        fired_log.append(fired)
        return fired

    def injections(count, far):
        inj = proc.mean + (50.0 if far else 0.5) * rng.standard_normal((count, n))
        return inj, sphere(inj) - (1e3 if far else 0.0)

    for gen in range(40):
        if gen % 4 == 0:
            proc.lam = proc.lambda_default  # the injection gate opens
        elif gen % 4 == 1:
            proc.lam = 2 * proc.lambda_default  # and stays shut
        xs = proc.ask(rng)
        fs = sphere(xs)
        if gen % 5 == 2:
            fs[1] = np.nan
        inj, inj_fs = injections(3, far=gen % 2 == 0)
        if gen % 6 == 3:
            inj_fs[0] = np.inf
        tell(xs, fs, inj, inj_fs)
    for rows in (1, 2, 3):
        xs = proc.ask(rng)[:rows]
        tell(xs, sphere(xs), *injections(2, far=True))
    for _ in range(50):  # a flat window whose spread stays macroscopic
        xs = proc.ask(rng)
        tell(xs, np.zeros(len(xs)))
    proc.sigma = 1e-12
    proc.cov = np.eye(n) * 1e-12
    proc.p_c = np.zeros(n)
    proc._refresh_eigen()
    xs = proc.ask(rng)
    flags.append("TolFunTolX" in tell(xs, np.zeros(len(xs))))
    proc.warm_restart(pts, sphere(pts))
    proc.sigma = proc.sigma0 * 1e5
    xs = proc.ask(rng)
    flags.append("TolXUp" in tell(xs, sphere(xs)))
    # a narrow restart: TolXUp must measure against the new eigenvalues
    proc.warm_restart(0.01 * pts, sphere(pts))
    for _ in range(3):
        xs = proc.ask(rng)
        tell(xs, sphere(xs), *injections(2, far=True))
    proc.sigma = 2e4
    xs = proc.ask(rng)
    flags.append("TolXUp" in tell(xs, sphere(xs)))
    return states, fired_log, lams, flags


def test_scripted_tells_are_pinned():
    states, fired_log, lams, flags = scripted_tells()
    assert flags == [True, True, True]
    assert any(lam == default for lam, default in lams)
    assert any(lam > default for lam, default in lams)
    assert sum("TolFunTolX" in fired for fired in fired_log) == 1
    assert sum("TolXUp" in fired for fired in fired_log) == 2
    digest = hashlib.sha256(b"".join(states)).hexdigest()
    assert digest == TELL_SCRIPT_SHA256, dispatch_note()

"""The `tell` chain of `CmaProcedure` as first written, kept as the oracle
that the optimized chain must match byte for byte.

`ReferenceTell` takes over every method a generation runs through (`ask`,
`tell`, the eigendecomposition refresh, diagonal acceleration,
population-size adaptation and the stopping tests) with the original,
unoptimized code, and keeps the rest of `CmaProcedure`: a procedure whose
state is copied into one can be told the same candidates as the optimized
class, and the two states compared.  Do not optimize this file.
"""

import functools
import math
import types
import warnings

import numpy as np

from idealbench.cmaes import (EIGEN_RESOLUTION, INJECTION_CLIP, MAX_CONDITION,
                              PSA_ALPHA, PSA_BETA, CmaProcedure)
from idealbench.core import clamp_to_bounds


@functools.lru_cache(maxsize=None)
def _selection_weights(lam: int, n: int) -> types.MappingProxyType:
    """Recombination weights and learning rates for one population size.

    Standard scheme with active covariance adaptation: the better half gets
    positive weights summing to one, the worse half gets negative weights
    scaled to keep the covariance positive definite.  Below four
    candidates mu is 1 and so c_mu is 0: no rank-mu update acts, and the
    negative half is dropped too.  The result is cached and shared, so it is
    a read-only mapping of read-only arrays.
    """
    mu = max(1, lam // 2)
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, lam + 1))
    pos = raw[:mu]
    # a lone candidate's raw weight is log(1) - log(1) = 0
    w_pos = pos / pos.sum() if mu > 1 else np.ones(1)
    mu_eff = 1.0 / float(np.sum(w_pos**2))
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1,
        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff),
    )
    neg = raw[mu:] if c_mu > 0 else np.empty(0)
    mu_eff_neg = (
        float(neg.sum()) ** 2 / float(np.sum(neg**2)) if neg.size else 0.0
    )
    if neg.size:
        alpha_mu = 1.0 + c_1 / c_mu
        alpha_eff = 1.0 + 2.0 * mu_eff_neg / (mu_eff + 2.0)
        alpha_pd = (1.0 - c_1 - c_mu) / (n * c_mu)
        w_neg = neg * (min(alpha_mu, alpha_eff, alpha_pd) / abs(float(neg.sum())))
    else:
        w_neg = neg
    weights = np.concatenate([w_pos, w_neg])
    w_pos.setflags(write=False)
    weights.setflags(write=False)
    return types.MappingProxyType(dict(
        mu=mu, weights=w_pos, all_weights=weights, mu_eff=mu_eff,
        c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c, c_1=c_1, c_mu=c_mu,
    ))


def _well_conditioned(eigvals: np.ndarray) -> bool:
    return bool(eigvals[0] > 0 and eigvals[-1] <= MAX_CONDITION * eigvals[0])


def _chi_n(n: int) -> float:
    return math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))


class ReferenceTell(CmaProcedure):
    """`CmaProcedure` with its generation path as first written."""

    def _refresh_eigen(self) -> None:
        """Symmetrize the covariance, cache its eigendecomposition, and bring
        it back within MAX_CONDITION when an update has pushed it past.

        Near the float64 limit the smallest axes drown in the rounding of the
        widest ones and the search stalls.  The fine scale the search has
        learned is kept: per-coordinate scale differences move into
        ``scales``, and whatever ill-conditioning remains is removed by
        capping the widest axes, which at that point carry (near-)neutral
        spread.
        """
        if not np.isfinite(self.cov).all():
            diag = self.cov.diagonal().copy()
            diag[~np.isfinite(diag)] = 1.0
            self.cov = np.diag(np.maximum(diag, 1e-300))
        self.cov = 0.5 * (self.cov + self.cov.T)
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        if not _well_conditioned(eigvals):
            d = np.sqrt(np.maximum(self.cov.diagonal(), self._resolution(eigvals)))
            self.scales = self.scales * d
            self.cov = self.cov / (d[:, None] * d)
            self.cov = 0.5 * (self.cov + self.cov.T)
            eigvals, eigvecs = np.linalg.eigh(self.cov)
            if not _well_conditioned(eigvals):
                fine = max(float(eigvals[0]), self._resolution(eigvals))
                eigvals = np.clip(eigvals, fine, fine * MAX_CONDITION)
                self.cov = (eigvecs * eigvals) @ eigvecs.T
                self.cov = 0.5 * (self.cov + self.cov.T)
        self._eigvals = eigvals
        self._eigvecs = eigvecs
        self._sqrt_eigvals = np.sqrt(eigvals)

    def _resolution(self, eigvals: np.ndarray) -> float:
        """Smallest eigenvalue a stored covariance resolves next to its top."""
        return max(float(eigvals[-1]) * EIGEN_RESOLUTION * self.n, 1e-300)

    def _cov_inv_sqrt_apply(self, v: np.ndarray) -> np.ndarray:
        """Whiten a step: the inverse of the sampling transform S C^{1/2}."""
        b, d = self._eigvecs, self._sqrt_eigvals
        return b @ ((b.T @ (v / self.scales)) / d)

    @property
    def axis_sd(self) -> np.ndarray:
        """Per-coordinate standard deviation of the search distribution."""
        return self.sigma * self.scales * np.sqrt(self.cov.diagonal())

    @property
    def axis_lengths(self) -> np.ndarray:
        """Lengths of the sampling axes, the columns of sigma S C^{1/2}."""
        axes = self.scales[:, None] * self._eigvecs
        return self.sigma * self._sqrt_eigvals * np.linalg.norm(axes, axis=0)

    # -- ask / tell -------------------------------------------------------

    def ask(self, rng: np.random.Generator) -> np.ndarray:
        """Sample the current population, clamped to the box."""
        if not self.live:
            raise RuntimeError("procedure has stopped")
        z = rng.standard_normal((self.lam, self.n))
        xs = self.mean + self.sigma * self.scales * (
            (z * self._sqrt_eigvals) @ self._eigvecs.T
        )
        return clamp_to_bounds(xs, self.bounds)

    def tell(
        self,
        xs: np.ndarray,
        fitness: np.ndarray,
        injected_xs: np.ndarray | None = None,
        injected_fitness: np.ndarray | None = None,
    ) -> frozenset:
        """One generation update from scored candidates.

        Injected candidates join the selection pool only while the
        population size sits at its lower bound; their implied steps are
        length-clipped before they can enter the covariance update.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        fitness = np.asarray(fitness, dtype=float)
        injected_flag = None  # per candidate, once something is injected
        if injected_xs is not None and len(injected_xs) > 0 and self.takes_injections:
            injected_xs = np.atleast_2d(np.asarray(injected_xs, dtype=float))
            injected_fitness = np.asarray(injected_fitness, dtype=float)
            injected_flag = np.concatenate([np.zeros(xs.shape[0], dtype=bool),
                                            np.ones(injected_xs.shape[0], dtype=bool)])
            xs = np.vstack([xs, injected_xs])
            fitness = np.concatenate([fitness, injected_fitness])

        finite = np.isfinite(fitness)
        if not finite.all():
            warnings.warn("discarding candidates with non-finite fitness")
            xs, fitness = xs[finite], fitness[finite]
            if injected_flag is not None:
                injected_flag = injected_flag[finite]
        if xs.shape[0] == 0:
            return self.check_stop()

        lam_sel = min(self.lam, xs.shape[0])
        order = np.argsort(fitness, kind="stable")[:lam_sel]
        params = _selection_weights(lam_sel, self.n)
        mu, w = params["mu"], params["weights"]
        w_all = params["all_weights"]
        mu_eff = params["mu_eff"]
        c_sigma, d_sigma = params["c_sigma"], params["d_sigma"]
        c_c, c_1, c_mu = params["c_c"], params["c_1"], params["c_mu"]
        chi_n = _chi_n(self.n)

        old_mean = self.mean
        old_sigma = self.sigma
        selected = xs[order]
        steps = (selected - old_mean) / old_sigma
        white_sq = np.sum(
            (((steps / self.scales) @ self._eigvecs) / self._sqrt_eigvals) ** 2,
            axis=1,
        )
        if injected_flag is not None:
            cap = INJECTION_CLIP * math.sqrt(self.n)
            clip = injected_flag[order] & (white_sq > cap * cap)
            steps[clip] *= (cap / np.sqrt(white_sq[clip]))[:, None]
            white_sq[clip] = cap * cap

        step_w = w @ steps[:mu]
        self.mean = old_mean + old_sigma * step_w

        csn = self._cov_inv_sqrt_apply(step_w)
        self.p_sigma = (1.0 - c_sigma) * self.p_sigma + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * csn
        ps_norm = math.sqrt(self.p_sigma @ self.p_sigma)
        denom = math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (self.generation + 1)))
        h_sigma = ps_norm / denom < (1.4 + 2.0 / (self.n + 1.0)) * chi_n
        self.p_c = (1.0 - c_c) * self.p_c + (
            math.sqrt(c_c * (2.0 - c_c) * mu_eff) * step_w if h_sigma else 0.0
        )

        # negative weights are rescaled per candidate to bound the update
        w_circle = w_all.copy()
        negative = w_circle < 0
        w_circle[negative] *= self.n / np.maximum(white_sq[: len(w_all)][negative], 1e-30)
        # the covariance lives in scaled coordinates, and so do its updates
        used = steps[: len(w_all)] / self.scales
        rank_mu = (used * w_circle[:, None]).T @ used
        p_c = self.p_c / self.scales
        delta_h = (1.0 - float(h_sigma)) * c_c * (2.0 - c_c)
        old_cov = self.cov
        self.cov = (
            (1.0 + c_1 * delta_h - c_1 - c_mu * float(w_all.sum())) * old_cov
            + c_1 * (p_c[:, None] * p_c)
            + c_mu * rank_mu
        )
        self.sigma = old_sigma * math.exp(
            min(1.0, (c_sigma / d_sigma) * (ps_norm / chi_n - 1.0))
        )

        self.best_history.append(float(fitness[order[0]]))
        self._last_fitness = fitness[order]
        self.generation += 1

        self._adapt_lambda(old_mean, old_sigma, params)
        selected = selected[: len(w_all)]
        clamped = (selected == self.bounds.lower) | (selected == self.bounds.upper)
        self._accelerate_diagonal(used, clamped, w_circle, c_mu, old_cov)
        self._refresh_eigen()
        return self.check_stop()

    def _accelerate_diagonal(self, steps, clamped, weights, c_mu, cov) -> None:
        """Diagonal acceleration (Akimoto & Hansen, "Diagonal acceleration
        for covariance matrix adaptation evolution strategies", Evolutionary
        Computation 28(3), 2020).

        The per-coordinate scales learn from the same weighted steps as the
        covariance, at the rate of a separable model: n free parameters
        instead of n(n+1)/2, so the rank-mu rate grows by (n+2)/3 (Ros &
        Hansen, sep-CMA-ES, PPSN 2008).  The update is damped while the
        correlation matrix is ill-conditioned, where coordinate scaling
        cannot express what the search learns.  ``steps`` are in scaled
        coordinates and ``cov`` is the covariance they were sampled from; a
        ``clamped`` entry sits on the box, where sampling cut it, and says
        nothing about its coordinate's scale.
        """
        sd = np.sqrt(cov.diagonal())
        corr = np.linalg.eigvalsh(cov / (sd[:, None] * sd))
        damping = max(1.0, math.sqrt(corr[-1] / max(corr[0], 1e-300)) - 1.0)
        rate = min(1.0, c_mu * (self.n + 2) / 3.0)
        excess = np.where(clamped, 0.0, (steps / sd) ** 2 - 1.0)
        change = rate * (weights @ excess) / (2.0 * damping)
        self.scales = self.scales * np.exp(np.clip(change, -1.0, 1.0))

    def _adapt_lambda(self, old_mean, old_sigma, params) -> None:
        """Population-size adaptation from an evolution path over the
        distribution mean, taken in the coordinates of the previous
        distribution and normalized so that random selection gives the
        path a unit expected square norm.

        Weak or contradictory selection leaves the path near its neutral
        expectation and the population grows, buying a cleaner update
        signal; a strongly directed search stretches the path beyond the
        threshold and the population falls back toward the default.
        """
        eigvals, eigvecs = self._eigvals, self._eigvecs
        inv_sqrt = eigvecs @ ((1.0 / np.sqrt(np.maximum(eigvals, 1e-30)))[:, None] * eigvecs.T)
        n = self.n
        mu_eff = params["mu_eff"]
        # E|C^{-1/2} dm / sigma|^2 = n / mu_eff under neutral selection
        shift = (self.mean - old_mean) / self.scales
        u = math.sqrt(mu_eff / n) * (inv_sqrt @ shift) / old_sigma
        u_norm = math.sqrt(u @ u)
        if not math.isfinite(u_norm):
            u = np.zeros(n)
        elif u_norm > 10.0:
            u *= 10.0 / u_norm
        beta = PSA_BETA
        self._psa_path = (1.0 - beta) * self._psa_path + math.sqrt(
            beta * (2.0 - beta)
        ) * u
        self._psa_warmup = (1.0 - beta) ** 2 * self._psa_warmup + beta * (2.0 - beta)
        norm_sq = float(self._psa_path @ self._psa_path)
        exponent = beta * (self._psa_warmup - min(norm_sq, 100.0) / PSA_ALPHA)
        new_lam = int(round(self.lam * math.exp(exponent)))
        self.lam = min(max(new_lam, self.lambda_default), 8 * self.lambda_default)

    # -- stopping ---------------------------------------------------------

    def check_stop(self) -> frozenset:
        """Names of those of the four stopping criteria that fire on the
        current state; none fire before the first generation."""
        if self.generation == 0:
            return frozenset()
        triggered = set()
        mean, sigma = self.mean, self.sigma
        d, b = self._sqrt_eigvals, self.scales[:, None] * self._eigvecs

        # column i is axis i's step, associated as (0.1 * sigma * d[i]) * b[:, i]
        if (mean[:, None] == mean[:, None] + (0.1 * sigma * d) * b).all():
            triggered.add("NoEffectAxis")

        diag_sd = self.axis_sd
        if (mean == mean + 0.2 * diag_sd).all():
            triggered.add("NoEffectCoord")

        hist_len = 10 + math.ceil(30 * self.n / self.lam)
        if len(self.best_history) >= hist_len and self._last_fitness.size:
            window = list(self.best_history)[-hist_len:]
            vals = np.concatenate([window, self._last_fitness])
            flat = float(vals.max() - vals.min()) < 1e-3
            if (
                flat
                and (diag_sd < 1e-6 * self.sigma0).all()
                and (sigma * np.abs(self.p_c) < 1e-6 * self.sigma0).all()
            ):
                triggered.add("TolFunTolX")

        if (np.sort(self.axis_lengths) > self._tolxup_limit).any():
            triggered.add("TolXUp")

        return frozenset(triggered)

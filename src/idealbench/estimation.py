"""Ideal-point estimation by extreme-weighted-sum subproblems.

For an m-objective problem the component maintains m scalar subproblems,
each putting weight ``1 - alpha`` on one objective and ``alpha/(m-1)`` on
the rest (in per-iteration normalized objective space).  Because every
weight stays positive, a subproblem optimum is Pareto-optimal rather than
merely weakly optimal, which keeps dominance-resistant points out of the
host's population.  One adaptive CMA-ES runs per subproblem, concurrently
with the host algorithm, exchanging solutions with it every iteration.

The user states a per-objective tolerance ``eps``: a scalar optimum's
normalized error on its own objective is bounded by ``eps`` when the
objective ranges are equal, via ``alpha = eps / (eps + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmaes import CmaProcedure
from .core import EvaluationBudget, OffspringBatch

DEFAULT_EPSILON = 0.05
NORMALIZATION_GUARD = 1e-12


def alpha_from_epsilon(eps: float) -> float:
    """Subproblem weight parameter for a normalized error tolerance."""
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    return eps / (eps + 1.0)


def error_bound(alpha: float, beta: float) -> float:
    """Worst-case error of a subproblem optimum on its own objective when
    all objectives share the range ``beta``; requires alpha <= 0.5."""
    if alpha > 0.5:
        raise ValueError("bound holds only for alpha <= 0.5")
    return alpha * beta / (1.0 - alpha)


@dataclass(frozen=True)
class EwsSubproblem:
    """One extreme-weighted-sum scalarization."""

    index: int
    alpha: float
    m: int

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.m, self.alpha / (self.m - 1))
        w[self.index] = 1.0 - self.alpha
        return w


def normalize_objectives(
    objs: np.ndarray, z_min: np.ndarray, z_max: np.ndarray
) -> np.ndarray:
    """Scale objectives into [0,1] by the given bounds; degenerate ranges
    fall back to an unscaled difference so the result stays finite."""
    span = z_max - z_min
    span = np.where(span < NORMALIZATION_GUARD, 1.0, span)
    return (objs - z_min) / span


def ews_fitness(
    objs: np.ndarray,
    sub: EwsSubproblem,
    z_min: np.ndarray,
    z_max: np.ndarray,
) -> np.ndarray:
    """Subproblem values of a batch of objective vectors."""
    scaled = normalize_objectives(np.atleast_2d(objs), z_min, z_max)
    return scaled @ sub.weights


class IdealEstimation:
    """m concurrent subproblem searches plus their shared bookkeeping.

    ``mode='ews'`` scores candidates by the extreme weighted sum;
    ``mode='separate'`` is the ablation that optimizes each raw objective
    on its own (prone to producing dominance-resistant solutions).
    """

    def __init__(
        self,
        problem,
        epsilons=None,
        mode: str = "ews",
    ):
        if mode not in ("ews", "separate"):
            raise ValueError(f"unknown mode {mode!r}")
        m = problem.m
        if epsilons is None:
            epsilons = np.full(m, DEFAULT_EPSILON)
        self.problem = problem
        self.mode = mode
        self.epsilons = np.asarray(epsilons, dtype=float)
        if self.epsilons.shape != (m,):
            raise ValueError("need one tolerance per objective")
        self.alphas = np.array([alpha_from_epsilon(e) for e in self.epsilons])
        self.subproblems = [EwsSubproblem(i, self.alphas[i], m) for i in range(m)]
        self.procedures: list = [None] * m
        self.terminated = np.zeros(m, dtype=bool)
        self.evaluations_used = 0
        self.z_min = np.zeros(m)
        self.z_max = np.ones(m)

    # -- scoring ----------------------------------------------------------

    def _scores(self, fs: np.ndarray, index: int) -> np.ndarray:
        if self.mode == "separate":
            return np.atleast_2d(fs)[:, index]
        return ews_fitness(fs, self.subproblems[index], self.z_min, self.z_max)

    def _refresh_normalization(self, pop_fs: np.ndarray) -> None:
        pop_fs = np.atleast_2d(pop_fs)
        self.z_min = pop_fs.min(axis=0)
        self.z_max = pop_fs.max(axis=0)

    # -- lifecycle --------------------------------------------------------

    def initialize(self, pop_xs: np.ndarray, pop_fs: np.ndarray) -> None:
        """Warm-start one search per subproblem from the host's initial
        population (no extra evaluations are spent)."""
        self._refresh_normalization(pop_fs)
        for i in range(self.problem.m):
            self.procedures[i] = CmaProcedure.warm_start(
                pop_xs, self._scores(pop_fs, i), bounds=self.problem.bounds
            )

    @property
    def active(self) -> bool:
        return bool(np.any(~self.terminated))

    def produce_offspring(
        self, budget: EvaluationBudget, rng: np.random.Generator
    ) -> OffspringBatch:
        """Ask every live subproblem search and evaluate the union on the
        true problem, charging the shared budget.  Returns an empty batch
        once every subproblem has terminated.  When the budget runs short the
        batch ends with the first search it cannot pay for in full, cut to
        the rows it can."""
        m, n = self.problem.m, self.problem.n
        xs_parts, owner_parts = [], []
        allowance = budget.remaining
        for i in range(m):
            if self.terminated[i]:
                continue
            if allowance == 0:
                break
            asked = self.procedures[i].ask(rng)
            take = min(asked.shape[0], allowance)
            allowance -= take
            xs_parts.append(asked[:take])
            owner_parts.append(np.full(take, i, dtype=int))
        if not xs_parts:
            return OffspringBatch.empty(n, m)
        xs = np.vstack(xs_parts)
        fs = budget.evaluate(xs)
        self.evaluations_used += xs.shape[0]
        return OffspringBatch(xs, fs, np.concatenate(owner_parts))

    def update(
        self,
        pop_fs: np.ndarray,
        o1: OffspringBatch,
        o2: OffspringBatch,
        pop_xs: np.ndarray,
    ) -> None:
        """Per-iteration parameter update, run after host selection.

        Normalization bounds are refreshed from the surviving population;
        each live subproblem search is told its own samples (with the other
        searches' and the host's offspring as injection candidates), then
        restarted from the population on an exceptional stop or retired on
        a conventional one.
        """
        self._refresh_normalization(pop_fs)
        all_xs = np.vstack([o1.xs, o2.xs])
        all_fs = np.vstack([o1.fs, o2.fs])
        all_owner = np.concatenate([o1.owner, o2.owner])
        for i in range(self.problem.m):
            if self.terminated[i]:
                continue
            proc = self.procedures[i]
            own_mask = all_owner == i
            own_count = int(own_mask.sum())
            if own_count == 0 or own_count < proc.lam:
                continue  # budget cut this subproblem's batch; run is ending
            own_xs, own_fs = all_xs[own_mask], all_fs[own_mask]
            other_xs, other_fs = all_xs[~own_mask], all_fs[~own_mask]
            report = proc.tell(
                own_xs,
                self._scores(own_fs, i),
                injected_xs=other_xs if other_xs.size else None,
                injected_fitness=self._scores(other_fs, i) if other_xs.size else None,
            )
            if report.exceptional:
                proc.warm_restart(pop_xs, self._scores(pop_fs, i))
            elif report.conventional:
                proc.stop()
                self.terminated[i] = True

    def fe_fraction(self, total_evaluations: int) -> float:
        if total_evaluations <= 0:
            return 0.0
        return self.evaluations_used / total_evaluations

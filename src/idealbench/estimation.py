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

import numpy as np

from .cmaes import EXCEPTIONAL, CmaProcedure
from .core import EvaluationBudget, OffspringBatch

DEFAULT_EPSILON = 0.05
NORMALIZATION_GUARD = 1e-12


def alpha_from_epsilon(eps: float) -> float:
    """Subproblem weight parameter for a normalized error tolerance."""
    if not 0 < eps < np.inf:  # NaN too
        raise ValueError(f"tolerance must be positive and finite, not {eps}")
    return eps / (eps + 1.0)


def ews_weights(alphas: np.ndarray) -> np.ndarray:
    """Extreme-weighted-sum weights, one row per subproblem: row i puts
    ``1 - alphas[i]`` on objective i and ``alphas[i]/(m-1)`` on the rest."""
    alphas = np.asarray(alphas, dtype=float)
    m = alphas.size
    w = np.repeat(alphas[:, None] / (m - 1), m, axis=1)
    np.fill_diagonal(w, 1.0 - alphas)
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
    weights: np.ndarray,
    z_min: np.ndarray,
    z_max: np.ndarray,
) -> np.ndarray:
    """Values of a batch of objective vectors on the subproblem with the
    given weight vector (a row of `ews_weights`)."""
    scaled = normalize_objectives(np.atleast_2d(objs), z_min, z_max)
    return scaled @ weights


class IdealEstimation:
    """m concurrent subproblem searches plus their shared bookkeeping.

    The estimator ``kind`` ``'eie'`` scores candidates by the extreme
    weighted sum; ``'eie-separate'`` is the ablation that optimizes each raw
    objective on its own (prone to producing dominance-resistant solutions).
    """

    def __init__(self, problem, epsilons=None, kind: str = "eie"):
        if kind not in ("eie", "eie-separate"):
            raise ValueError(f"unknown estimation kind {kind!r}")
        m = problem.m
        if epsilons is None:
            epsilons = np.full(m, DEFAULT_EPSILON)
        self.problem = problem
        self.kind = kind
        self.epsilons = np.asarray(epsilons, dtype=float)
        if self.epsilons.shape != (m,):
            raise ValueError("need one tolerance per objective")
        self.alphas = np.array([alpha_from_epsilon(e) for e in self.epsilons])
        self.weights = ews_weights(self.alphas)
        self.procedures: list = [None] * m
        self.evaluations_used = 0
        self.z_min = np.zeros(m)
        self.z_max = np.ones(m)

    # -- scoring ----------------------------------------------------------

    def _scores(self, fs: np.ndarray, index: int) -> np.ndarray:
        if self.kind == "eie-separate":
            return np.atleast_2d(fs)[:, index]
        return ews_fitness(fs, self.weights[index], self.z_min, self.z_max)

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

    def produce_offspring(
        self, budget: EvaluationBudget, rng: np.random.Generator
    ) -> OffspringBatch:
        """Ask every live subproblem search and evaluate the union on the
        true problem, charging the shared budget.  Returns an empty batch,
        and draws nothing from ``rng``, once every subproblem has terminated.
        When the budget runs short the batch ends with the first search it
        cannot pay for in full, cut to the rows it can."""
        m, n = self.problem.m, self.problem.n
        xs_parts, owner_parts = [], []
        allowance = budget.remaining
        for i in range(m):
            if not self.procedures[i].live:
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
        searches' and the host's offspring as injection candidates, gathered
        and scored only while its population size lets it take them), then
        restarted from the population on an exceptional stop or retired on
        a conventional one.
        """
        self._refresh_normalization(pop_fs)
        # `produce_offspring` lays each search's rows out in one run, in
        # search order; the host's rows (owner -1) are all in o2
        ends = np.searchsorted(o1.owner, np.arange(len(self.procedures) + 1)).tolist()
        for i, proc in enumerate(self.procedures):
            if not proc.live:
                continue
            lo, hi = ends[i], ends[i + 1]
            if hi - lo < proc.lam:
                continue  # budget cut this subproblem's batch; run is ending
            injected_xs = injected_fitness = None
            if proc.takes_injections:
                other_xs = np.vstack([o1.xs[:lo], o1.xs[hi:], o2.xs])
                if other_xs.size:
                    injected_xs = other_xs
                    injected_fitness = self._scores(
                        np.vstack([o1.fs[:lo], o1.fs[hi:], o2.fs]), i)
            fired = proc.tell(
                o1.xs[lo:hi],
                self._scores(o1.fs[lo:hi], i),
                injected_xs=injected_xs,
                injected_fitness=injected_fitness,
            )
            if fired & EXCEPTIONAL:
                proc.warm_restart(pop_xs, self._scores(pop_fs, i))
            elif fired:
                proc.stop()

    def fe_fraction(self, total_evaluations: int) -> float:
        if total_evaluations <= 0:
            return 0.0
        return self.evaluations_used / total_evaluations

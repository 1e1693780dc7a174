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


def normalization_span(z_min: np.ndarray, z_max: np.ndarray) -> np.ndarray:
    """The range ``normalize_objectives`` divides by: ``z_max - z_min``,
    with 1 where that is below ``NORMALIZATION_GUARD``."""
    span = z_max - z_min
    return np.where(span < NORMALIZATION_GUARD, 1.0, span)


def _normalized(objs: np.ndarray, z_min: np.ndarray, span: np.ndarray) -> np.ndarray:
    return (objs - z_min) / span


def normalize_objectives(
    objs: np.ndarray, z_min: np.ndarray, z_max: np.ndarray
) -> np.ndarray:
    """Scale objectives into [0,1] by the given bounds; degenerate ranges
    fall back to an unscaled difference so the result stays finite."""
    return _normalized(objs, z_min, normalization_span(z_min, z_max))


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
        self.span = normalization_span(self.z_min, self.z_max)
        # the last batch and each search's (start, end) rows in it
        self.batch = OffspringBatch.empty(problem.n, m)
        self.rows: dict = {}

    # -- scoring ----------------------------------------------------------

    def _scores(self, fs: np.ndarray, index: int) -> np.ndarray:
        """``ews_fitness`` of ``fs`` on subproblem ``index`` (its raw
        objective under ``eie-separate``), with the span of the last
        refresh."""
        fs = np.atleast_2d(fs)
        if self.kind == "eie-separate":
            return fs[:, index]
        return _normalized(fs, self.z_min, self.span) @ self.weights[index]

    def _refresh_normalization(self, pop_fs: np.ndarray) -> None:
        pop_fs = np.atleast_2d(pop_fs)
        self.z_min = pop_fs.min(axis=0)
        self.z_max = pop_fs.max(axis=0)
        self.span = normalization_span(self.z_min, self.z_max)

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
        parts, self.rows = [], {}
        start, allowance = 0, budget.remaining
        for i, proc in enumerate(self.procedures):
            if not proc.live:
                continue
            if allowance == 0:
                break
            asked = proc.ask(rng)[:allowance]
            parts.append(asked)
            self.rows[i] = (start, start + asked.shape[0])
            start += asked.shape[0]
            allowance -= asked.shape[0]
        self.batch = (budget.evaluate(np.vstack(parts)) if parts
                      else OffspringBatch.empty(self.problem.n, self.problem.m))
        self.evaluations_used += self.batch.size
        return self.batch

    def update(self, pop_fs: np.ndarray, o2: OffspringBatch,
               pop_xs: np.ndarray) -> None:
        """Per-iteration parameter update, run after host selection.

        Normalization bounds are refreshed from the surviving population;
        each search with rows in the last batch is told its own samples
        (with the batch's other rows and the host's offspring ``o2`` as
        injection candidates, gathered and scored only while its population
        size lets it take them), then restarted from the population on an
        exceptional stop or retired on a conventional one.
        """
        self._refresh_normalization(pop_fs)
        o1 = self.batch
        for i, (lo, hi) in self.rows.items():
            proc = self.procedures[i]
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

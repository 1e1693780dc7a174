"""Host multi-objective algorithms and population-based ideal estimators.

Three canonical hosts cover the three main MOEA families: non-dominated
sorting with crowding distance (dominance-based), a generational
decomposition algorithm over a simplex-lattice of weight vectors
(decomposition-based), and steady-state hypervolume-contribution selection
(indicator-based).  All three share the same differential-evolution plus
polynomial-mutation variation pipeline and the same iteration contract, so
the runner can treat them interchangeably and merge externally produced
offspring into their selection step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BoxBounds, EvaluationBudget, OffspringBatch,
                   clamp_to_bounds, fast_non_dominated_sort, simplex_lattice)
from .metrics import hv_exact

HOST_KINDS = ("nsga2", "moead", "smsemoa")
ESTIMATOR_KINDS = ("running-min", "ut", "drp", "eie", "eie-separate")

WEIGHT_FLOOR = 1e-6
RANGE_GUARD = 1e-12


@dataclass(frozen=True)
class HostConfig:
    kind: str = "nsga2"
    population_size: int = 100
    neighborhood_size: int | None = None  # default: 10% of the population, >= 3
    mate_neighborhood_prob: float = 0.9
    scalarization: str = "tchebycheff"  # or "weighted-sum"
    de_f: float = 0.5
    de_cr: float = 0.9
    pm_index: float = 50.0
    pm_prob: float | None = None  # default 1/n

    def __post_init__(self):
        if self.kind not in HOST_KINDS:
            raise ValueError(f"unknown host {self.kind!r}")
        if self.neighborhood_size is not None and self.neighborhood_size < 3:
            raise ValueError("neighborhood_size must be at least 3")
        if self.scalarization not in ("tchebycheff", "weighted-sum"):
            raise ValueError(f"unknown scalarization {self.scalarization!r}")
        if not (0.0 < self.de_f <= 2.0):
            raise ValueError("de_f must lie in (0, 2]")
        if not (0.0 <= self.de_cr <= 1.0):
            raise ValueError("de_cr must lie in [0, 1]")


@dataclass(frozen=True)
class EstimatorConfig:
    kind: str = "running-min"
    beta_ut: float = 0.1
    drp_floor: float = 1e-3

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {self.kind!r}")


# -- variation ------------------------------------------------------------


def polynomial_mutation(
    xs: np.ndarray,
    rng: np.random.Generator,
    bounds: BoxBounds,
    eta: float = 50.0,
    prob: float | None = None,
) -> np.ndarray:
    """Bounded polynomial mutation applied componentwise with probability
    ``prob`` (default 1/n)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    k, n = xs.shape
    if prob is None:
        prob = 1.0 / n
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    apply = rng.random((k, n)) < prob
    u = rng.random((k, n))
    d1 = (xs - lo) / span
    d2 = (hi - xs) / span
    exp = 1.0 / (eta + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
    high_side = 1.0 - (
        2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
    ) ** exp
    delta = np.where(u < 0.5, low_side, high_side)
    out = np.where(apply, xs + delta * span, xs)
    return clamp_to_bounds(out, bounds)


def de_pm_offspring(
    base: np.ndarray,
    diff_a: np.ndarray,
    diff_b: np.ndarray,
    rng: np.random.Generator,
    bounds: BoxBounds,
    f: float = 0.5,
    cr: float = 0.9,
    pm_eta: float = 50.0,
    pm_prob: float | None = None,
) -> np.ndarray:
    """DE/rand/1/bin children followed by polynomial mutation and clamping.

    All three parent arguments are (k, n) batches; rows pair up.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    k, n = base.shape
    mutant = base + f * (np.atleast_2d(diff_a) - np.atleast_2d(diff_b))
    cross = rng.random((k, n)) < cr
    cross[np.arange(k), rng.integers(0, n, size=k)] = True
    child = np.where(cross, mutant, base)
    child = clamp_to_bounds(child, bounds)
    return polynomial_mutation(child, rng, bounds, eta=pm_eta, prob=pm_prob)


def _distinct_triplets(
    pools: list, avoid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Three distinct indices per row drawn from each row's pool of
    distinct indices, none equal to the row's ``avoid`` entry."""
    for row, pool in enumerate(pools):
        # checked before any draw, so a rejected call leaves rng untouched
        if len(pool) >= 4:
            continue
        usable = len(pool) - (avoid is not None and avoid[row] in pool)
        if usable < 3:
            raise ValueError(f"row {row}: fewer than 3 members to draw from")
    out = np.empty((len(pools), 3), dtype=int)
    for row, pool in enumerate(pools):
        chosen = []
        forbidden = {int(avoid[row])} if avoid is not None else set()
        while len(chosen) < 3:
            cand = int(pool[rng.integers(0, len(pool))])
            if cand not in forbidden:
                chosen.append(cand)
                forbidden.add(cand)
        out[row] = chosen
    return out


def _initial_population(problem, size: int, budget: EvaluationBudget,
                        rng: np.random.Generator) -> tuple:
    """Uniform random members, evaluated as far as the budget allows."""
    xs = problem.bounds.sample(size, rng)
    fs = budget.evaluate(xs)
    return xs[: fs.shape[0]], fs


def _evaluate_offspring(children: np.ndarray,
                        budget: EvaluationBudget) -> OffspringBatch:
    """Host children evaluated as far as the budget allows; the unpaid rest
    is dropped."""
    fs = budget.evaluate(children)
    return OffspringBatch(children[: fs.shape[0]], fs,
                          np.full(fs.shape[0], -1, dtype=int))


# -- dominance-based host --------------------------------------------------


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding distance within one front; boundary points get infinity."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    k, m = objs.shape
    dist = np.zeros(k)
    if k <= 2:
        return np.full(k, np.inf)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        span = col[-1] - col[0]
        if span < RANGE_GUARD:
            continue
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def nsga2_select(objs: np.ndarray, count: int) -> np.ndarray:
    """Environmental selection: fill whole fronts, split the last one by
    crowding distance (boundary points first)."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    if objs.shape[0] < count:
        raise ValueError("cannot select more members than available")
    chosen: list = []
    for front in fast_non_dominated_sort(objs):
        if len(chosen) + front.size <= count:
            chosen.extend(front.tolist())
            if len(chosen) == count:
                break
        else:
            dist = crowding_distance(objs[front])
            order = np.argsort(-dist, kind="stable")
            need = count - len(chosen)
            chosen.extend(front[order[:need]].tolist())
            break
    return np.asarray(chosen, dtype=int)


class Nsga2Host:
    """Dominance-based host: non-dominated sorting plus crowding."""

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator):
        self.problem = problem
        self.config = config
        self.pop_size = config.population_size
        self.z_ref = None  # dominance selection ignores the reference point
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        cfg = self.config
        fronts = fast_non_dominated_sort(self.pop_f)
        rank = np.empty(self.pop_f.shape[0], dtype=int)
        crowd = np.empty(self.pop_f.shape[0])
        for level, front in enumerate(fronts):
            rank[front] = level
            crowd[front] = crowding_distance(self.pop_f[front])

        k = self.pop_f.shape[0]
        cand = rng.integers(0, k, size=(self.pop_size, 2))
        left, right = cand[:, 0], cand[:, 1]
        left_wins = (rank[left] < rank[right]) | (
            (rank[left] == rank[right]) & (crowd[left] >= crowd[right])
        )
        base_idx = np.where(left_wins, left, right)
        trip = _distinct_triplets(
            [np.arange(k)] * self.pop_size, base_idx, rng
        )
        children = de_pm_offspring(
            self.pop_x[base_idx], self.pop_x[trip[:, 0]], self.pop_x[trip[:, 1]],
            rng, self.problem.bounds, f=cfg.de_f, cr=cfg.de_cr,
            pm_eta=cfg.pm_index, pm_prob=cfg.pm_prob,
        )
        o2 = _evaluate_offspring(children, budget)

        pool_x = np.vstack([self.pop_x, o1.xs, o2.xs])
        pool_f = np.vstack([self.pop_f, o1.fs, o2.fs])
        keep = nsga2_select(pool_f, self.pop_size)
        self.pop_x, self.pop_f = pool_x[keep], pool_f[keep]
        return o2


# -- decomposition-based host ----------------------------------------------


def simplex_lattice_weights(m: int, count: int) -> np.ndarray:
    """Weight vectors on the unit simplex; for m = 3 the size snaps to the
    largest full lattice not exceeding ``count``."""
    h = count - 1
    if m == 3:
        h = 1
        while (h + 2) * (h + 3) // 2 <= count:
            h += 1
    return simplex_lattice(m, h)


def scalarized_fitness(
    objs: np.ndarray,
    weights: np.ndarray,
    z_ref: np.ndarray,
    scale: np.ndarray,
    kind: str = "tchebycheff",
) -> np.ndarray:
    """Fitness of each objective row under each weight vector, shape
    (len(weights), len(objs)); smaller is better."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    shifted = (objs - z_ref) / scale
    w = np.maximum(np.atleast_2d(weights), WEIGHT_FLOOR)
    if kind == "tchebycheff":
        # one (weights x rows) product per objective; max over a short last
        # axis is several times slower than pairwise maxima
        out = w[:, :1] * shifted[:, 0]
        for j in range(1, w.shape[1]):
            out = np.maximum(out, w[:, j:j + 1] * shifted[:, j])
        return out
    if kind == "weighted-sum":
        return w @ shifted.T
    raise ValueError(f"unknown scalarization {kind!r}")


def global_replacement(fitness: np.ndarray) -> np.ndarray:
    """Survivor per subproblem from a (k, pool) fitness matrix whose first k
    columns are the incumbents: each newcomer goes to the subproblem it fits
    best, and a subproblem takes its best newcomer (the earliest on ties)
    when that beats its incumbent."""
    k = fitness.shape[0]
    new_idx = np.arange(k)
    cand = np.arange(k, fitness.shape[1])
    home = np.argmin(fitness[:, cand], axis=0)
    fit = fitness[home, cand]
    order = np.lexsort((cand, fit, home))
    first = np.ones(order.size, dtype=bool)
    first[1:] = home[order[1:]] != home[order[:-1]]
    winners = order[first]
    better = fit[winners] < fitness[home[winners], home[winners]]
    new_idx[home[winners[better]]] = cand[winners[better]]
    return new_idx


class MoeadHost:
    """Generational decomposition host with neighborhood mating and global
    replacement.

    Every subproblem breeds one child per iteration.  Each new solution
    (bred or externally injected) is assigned to the subproblem whose
    scalarization likes it most, and replaces that incumbent when better.
    Objectives are rescaled by the reference-to-population range so widely
    different objective magnitudes do not starve any subproblem.
    """

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator):
        self.problem = problem
        self.config = config
        self.weights = simplex_lattice_weights(problem.m, config.population_size)
        self.pop_size = self.weights.shape[0]
        t_size = config.neighborhood_size or max(3, round(0.1 * self.pop_size))
        d = np.linalg.norm(
            self.weights[:, None, :] - self.weights[None, :, :], axis=2
        )
        self.neighbors = np.argsort(d, kind="stable", axis=1)[:, :t_size]
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)
        self.z_ref = self.pop_f.min(axis=0)

    def _scale(self) -> np.ndarray:
        return np.maximum(self.pop_f.max(axis=0) - self.z_ref, RANGE_GUARD)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        cfg = self.config
        k = self.pop_f.shape[0]
        use_nbhd = rng.random(k) < cfg.mate_neighborhood_prob
        pools = [
            self.neighbors[i] if use_nbhd[i] else np.arange(k) for i in range(k)
        ]
        trip = _distinct_triplets(pools, None, rng)
        children = de_pm_offspring(
            self.pop_x[trip[:, 0]], self.pop_x[trip[:, 1]], self.pop_x[trip[:, 2]],
            rng, self.problem.bounds, f=cfg.de_f, cr=cfg.de_cr,
            pm_eta=cfg.pm_index, pm_prob=cfg.pm_prob,
        )
        o2 = _evaluate_offspring(children, budget)
        if not (o1.size or o2.size):
            return o2
        pool_f = np.vstack([self.pop_f, o2.fs, o1.fs])
        pool_x = np.vstack([self.pop_x, o2.xs, o1.xs])
        fitness = scalarized_fitness(
            pool_f, self.weights, self.z_ref, self._scale(), cfg.scalarization
        )
        new_idx = global_replacement(fitness)
        self.pop_x, self.pop_f = pool_x[new_idx], pool_f[new_idx]
        return o2


# -- indicator-based host ---------------------------------------------------


def hv_contributions(objs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Exclusive hypervolume contribution of each point, for 2 or 3
    objectives.

    The contribution of p is the volume of its box ``[p, ref]`` minus the
    hypervolume of the other points clamped into that box, ``max(q, p)``.
    Before that hypervolume is taken, the clamped points are reduced to
    their non-dominated rows, one of each group of equal rows.  Since
    ``max(r, p) <= max(q, p)`` exactly when ``r <= max(q, p)``, two sweeps
    over the dominating candidates r reduce the boxes of all points at
    once, in O(k^2) memory.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    ref = np.asarray(ref, dtype=float)
    k, m = objs.shape

    def covers(r, rows, cols):
        # [p, q]: max(p, q) >= objs[r] in every objective
        above = objs >= objs[r]
        out = above[rows, None, 0] | above[None, cols, 0]
        for j in range(1, m):
            out &= above[rows, None, j] | above[None, cols, j]
        return out

    # survives[p, q]: the clamped q enters p's hypervolume
    survives = ~np.eye(k, dtype=bool)
    # first drop each q that a lower-indexed clamped point dominates or
    # equals, which leaves the first of every group of equal rows ...
    for r in range(k - 1):
        cover = covers(r, slice(None), slice(r + 1, None))
        cover[r] = False
        survives[:, r + 1:] &= ~cover
    # ... so whatever a surviving r still covers, it strictly dominates
    for r in range(k):
        rows = np.flatnonzero(survives[:, r])
        cover = covers(r, rows, slice(None))
        cover[:, r] = False
        survives[rows] &= ~cover
    out = np.empty(k)
    for p in range(k):
        box = float(np.prod(np.maximum(ref - objs[p], 0.0)))
        out[p] = box - hv_exact(np.maximum(objs[survives[p]], objs[p]), ref)
    return out


def smsemoa_select(objs: np.ndarray, count: int, ref: np.ndarray) -> np.ndarray:
    """Drop members of the worst front by smallest exclusive hypervolume
    contribution until ``count`` remain; better fronts are never touched."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    alive = np.arange(objs.shape[0])
    while alive.size > count:
        fronts = fast_non_dominated_sort(objs[alive])
        worst = fronts[-1]
        if worst.size == 1:
            drop_local = int(worst[0])
        else:
            contrib = hv_contributions(objs[alive][worst], ref)
            drop_local = int(worst[int(np.argmin(contrib))])
        alive = np.delete(alive, drop_local)
    return alive


class SmsEmoaHost:
    """Steady-state indicator host: one child per selection, worst
    hypervolume contributor removed.  Contributions are computed on
    population-range-normalized objectives with a fixed offset reference."""

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator):
        self.problem = problem
        self.config = config
        self.pop_size = config.population_size
        self.z_ref = None
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)

    def _insert(self, x: np.ndarray, f: np.ndarray) -> None:
        pool_x = np.vstack([self.pop_x, x])
        pool_f = np.vstack([self.pop_f, f])
        lo = pool_f.min(axis=0)
        span = np.maximum(pool_f.max(axis=0) - lo, RANGE_GUARD)
        scaled = (pool_f - lo) / span
        ref = np.full(self.problem.m, 1.1)
        keep = smsemoa_select(scaled, self.pop_size, ref)
        self.pop_x, self.pop_f = pool_x[keep], pool_f[keep]

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        cfg = self.config
        for row in range(o1.size):
            self._insert(o1.xs[row], o1.fs[row])
        children = []
        for _ in range(self.pop_size):
            if budget.exhausted:
                break
            k = self.pop_f.shape[0]
            trip = _distinct_triplets([np.arange(k)], None, rng)[0]
            child = de_pm_offspring(
                self.pop_x[trip[0]][None, :],
                self.pop_x[trip[1]][None, :],
                self.pop_x[trip[2]][None, :],
                rng, self.problem.bounds, f=cfg.de_f, cr=cfg.de_cr,
                pm_eta=cfg.pm_index, pm_prob=cfg.pm_prob,
            )
            o = _evaluate_offspring(child, budget)
            self._insert(o.xs[0], o.fs[0])
            children.append(o)
        if not children:
            return OffspringBatch.empty(self.problem.n, self.problem.m)
        return OffspringBatch(np.vstack([o.xs for o in children]),
                              np.vstack([o.fs for o in children]),
                              np.concatenate([o.owner for o in children]))


def make_host(problem, config: HostConfig, budget: EvaluationBudget,
              rng: np.random.Generator):
    if config.population_size < problem.m + 1:
        raise ValueError("population must exceed the objective count")
    cls = {"nsga2": Nsga2Host, "moead": MoeadHost, "smsemoa": SmsEmoaHost}[config.kind]
    return cls(problem, config, budget, rng)


# -- population-based ideal estimators ---------------------------------------


def drp_beta(fe: int, fe_max: int, floor: float = 1e-3) -> float:
    """Linearly decaying optimism offset, exactly ``floor`` at the budget end."""
    return (1.0 - floor) * (fe_max - fe) / fe_max + floor


class BaselineEstimator:
    """Reference-point tracker for the population-based estimation rules.

    ``running-min`` keeps the best value seen per objective; ``ut`` and
    ``drp`` subtract an optimism offset from it, expressed in the current
    population's normalized objective space.  The two estimation-component
    kinds also report the running minimum (their influence flows through
    the offspring they inject).
    """

    def __init__(self, config: EstimatorConfig, m: int):
        self.config = config
        self.z_running = np.full(m, np.inf)

    def observe(self, objs: np.ndarray) -> None:
        objs = np.atleast_2d(np.asarray(objs, dtype=float))
        if objs.shape[0]:
            self.z_running = np.minimum(self.z_running, objs.min(axis=0))

    def estimate(
        self,
        z_min_pop: np.ndarray,
        z_max_pop: np.ndarray,
        fe: int,
        fe_max: int,
    ) -> np.ndarray:
        kind = self.config.kind
        if kind in ("running-min", "eie", "eie-separate"):
            return self.z_running.copy()
        span = np.maximum(z_max_pop - z_min_pop, RANGE_GUARD)
        if kind == "ut":
            return self.z_running - self.config.beta_ut * span
        if kind == "drp":
            return self.z_running - drp_beta(fe, fe_max, self.config.drp_floor) * span
        raise AssertionError(kind)

"""Host multi-objective algorithms and MOEA/D's reference-point rules.

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
# hv_exact is not called here; the benchmark's tracer looks it up in hosts
from .metrics import hv_exact, hv_sweep  # noqa: F401

HOST_KINDS = ("nsga2", "moead", "smsemoa")
ESTIMATOR_KINDS = ("running-min", "ut", "drp", "eie", "eie-separate")

WEIGHT_FLOOR = 1e-6
RANGE_GUARD = 1e-12
MATE_NEIGHBORHOOD_PROB = 0.9  # MOEA/D mates within the neighbourhood
DE_F = 0.5  # DE/rand/1 scale factor
DE_CR = 0.9  # binomial crossover rate
PM_ETA = 50.0  # polynomial mutation's distribution index; its rate is 1/n
UT_BETA = 0.1  # ut's fixed optimism offset
DRP_FLOOR = 1e-3  # drp's offset at the budget end


@dataclass(frozen=True)
class HostConfig:
    kind: str = "nsga2"
    population_size: int = 100

    def __post_init__(self):
        if self.kind not in HOST_KINDS:
            raise ValueError(f"unknown host {self.kind!r}")

    def check_population(self, m: int) -> None:
        """Reject a population this host cannot use on ``m`` objectives."""
        size = self.population_size
        if size < m + 1:
            raise ValueError(
                f"population must exceed the objective count: {size} for {m} objectives")
        if self.kind == "nsga2" and size < 4:
            # each row mates from the population less its base: 3 or more members
            raise ValueError(f"nsga2 needs a population of at least 4 to breed, not {size}")


@dataclass(frozen=True)
class EstimatorConfig:
    kind: str = "running-min"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {self.kind!r}")


# -- variation ------------------------------------------------------------


def polynomial_mutation(
    xs: np.ndarray, rng: np.random.Generator, bounds: BoxBounds
) -> np.ndarray:
    """Bounded polynomial mutation with index PM_ETA, applied componentwise
    with probability 1/n.

    Two (k, n) uniform draws decide which entries mutate and by how much;
    the step is computed only at the entries that mutate (about k of the
    k * n), as contiguous 1-D arrays.  Its powers stay NumPy's: Python's
    scalar ``**`` can differ from them in the last place.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    k, n = xs.shape
    apply = rng.random((k, n)) < 1.0 / n
    u = rng.random((k, n))
    rows, cols = np.nonzero(apply)
    x, u = xs[rows, cols], u[rows, cols]
    lo, hi = bounds.lower[cols], bounds.upper[cols]
    span = hi - lo
    d1 = (x - lo) / span
    d2 = (hi - x) / span
    exp = 1.0 / (PM_ETA + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (PM_ETA + 1.0)) ** exp - 1.0
    high_side = 1.0 - (
        2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (PM_ETA + 1.0)
    ) ** exp
    delta = np.where(u < 0.5, low_side, high_side)
    out = xs.copy()
    out[rows, cols] = x + delta * span
    return clamp_to_bounds(out, bounds)


def de_pm_offspring(
    base: np.ndarray,
    diff_a: np.ndarray,
    diff_b: np.ndarray,
    rng: np.random.Generator,
    bounds: BoxBounds,
) -> np.ndarray:
    """DE/rand/1/bin children (DE_F, DE_CR) followed by polynomial mutation
    and clamping.

    All three parent arguments are (k, n) batches; rows pair up.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    k, n = base.shape
    mutant = base + DE_F * (np.atleast_2d(diff_a) - np.atleast_2d(diff_b))
    cross = rng.random((k, n)) < DE_CR
    cross[np.arange(k), rng.integers(0, n, size=k)] = True
    child = np.where(cross, mutant, base)
    child = clamp_to_bounds(child, bounds)
    return polynomial_mutation(child, rng, bounds)


def _distinct_triplets(
    pools: list, avoid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Three distinct indices per row drawn from each row's pool of
    distinct indices, none equal to the row's ``avoid`` entry.

    Each draw is the value of a scalar ``rng.integers(0, len(pool))``, and
    the generator ends in the state those scalar calls leave.  Every row
    takes at least three values, so the values still owed are a lower
    bound on the draws to come, and each block draws only that many.

    When every pool has the same size k (NSGA-II's and SMS-EMOA's full
    pools), each block is ``rng.integers(0, k, size=owed)``, whose values
    are the scalar calls' values.  Pools of mixed sizes (MOEA/D's
    neighbourhoods beside full pools) replay the raw 32-bit words those
    calls consume instead, since a block of values cannot span two bounds.
    NumPy bounds a word x by Lemire's multiply-and-reject ("Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019): with
    m = x * k, it rejects x while the low half of m is below
    (2**32 - k) % k and returns m >> 32.  Every value costs at least one
    word, so the block holds the words still owed.  The replay holds for
    pools of up to 2**32 members, where NumPy takes 32-bit words.
    """
    sizes = [len(pool) for pool in pools]
    avoid = avoid.tolist() if avoid is not None else [None] * len(pools)
    for row, pool in enumerate(pools):
        # checked before any draw, so a rejected call leaves rng untouched
        if sizes[row] < 4 and sizes[row] - (avoid[row] in pool) < 3:
            raise ValueError(f"row {row}: fewer than 3 members to draw from")
    owed = 3 * len(pools)  # the fewest values still to come
    out = []
    if len(set(sizes)) == 1:
        values = iter(())
        for pool, base in zip(pools, avoid):
            chosen = []
            while len(chosen) < 3:
                v = next(values, None)
                if v is None:
                    values = iter(rng.integers(0, sizes[0], size=owed).tolist())
                    continue
                cand = pool[v]
                if cand != base and cand not in chosen:
                    chosen.append(cand)
                    owed -= 1
            out.append(chosen)
        return np.array(out, dtype=int)
    words = iter(())
    for pool, k, base in zip(pools, sizes, avoid):
        threshold = (0xFFFFFFFF - (k - 1)) % k
        chosen = []
        while len(chosen) < 3:
            x = next(words, None)
            if x is None:
                words = iter(rng.integers(0, 1 << 32, size=owed,
                                          dtype=np.uint32).tolist())
                continue
            m = x * k
            if m & 0xFFFFFFFF < threshold:
                continue  # rejected: the same value takes the next word
            cand = pool[m >> 32]
            if cand != base and cand not in chosen:
                chosen.append(cand)
                owed -= 1
        out.append(chosen)
    return np.array(out, dtype=int)


def _initial_population(problem, size: int, budget: EvaluationBudget,
                        rng: np.random.Generator) -> tuple:
    """Uniform random members, evaluated as far as the budget allows."""
    paid = budget.evaluate(problem.bounds.sample(size, rng))
    return paid.xs, paid.fs


def _levels(objs: np.ndarray) -> np.ndarray:
    """Each row's non-domination level, 0 for the non-dominated rows."""
    level = np.empty(objs.shape[0], dtype=int)
    for depth, front in enumerate(fast_non_dominated_sort(objs)):
        level[front] = depth
    return level


# -- dominance-based host --------------------------------------------------


def crowding_distance(objs: np.ndarray, front: np.ndarray | None = None) -> np.ndarray:
    """Crowding distance of each row within its front, ``front`` giving
    each row's front label (default: one front).

    Per objective, a front's rows are ordered by value, ties by row index;
    its first and last rows get infinity and each row between adds the gap
    between its neighbours over the front's span.  An objective whose span
    is below ``RANGE_GUARD`` adds nothing, and every row of a front of two
    or fewer rows gets infinity.  Sorting by (front, value) puts each front
    on the same positions for every objective, so all fronts take one sort
    per objective.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    k, m = objs.shape
    dist = np.zeros(k)
    if k == 0:
        return dist
    if front is None:
        front = np.zeros(k, dtype=int)
    # each front's first and last position in (front, value) order, the
    # positions between them, and the front of each of those
    labels = np.sort(front)
    cut = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    first = np.concatenate(([0], cut))
    last = np.concatenate((cut, [k])) - 1
    between = np.ones(k, dtype=bool)
    between[first] = between[last] = False
    inner = np.flatnonzero(between)
    inner_front = np.repeat(np.arange(first.size), np.maximum(last - first - 1, 0))
    ends = np.concatenate((first, last))
    # a front of two or fewer rows is all ends, and takes infinity at any span
    guard = np.where(last - first < 2, -np.inf, RANGE_GUARD)
    for col in objs.T:
        order = np.lexsort((col, front))
        col = col[order]
        span = col[last] - col[first]
        flat = span < guard
        if flat.any():  # a flat front adds nothing and sets no infinity
            live = ~flat
            edge = np.concatenate((first[live], last[live]))
            keep = live[inner_front]
            at, at_front = inner[keep], inner_front[keep]
        else:
            edge, at, at_front = ends, inner, inner_front
        dist[order[edge]] = np.inf
        dist[order[at]] += (col[at + 1] - col[at - 1]) / span[at_front]
    return dist


def _surviving_fronts(objs: np.ndarray, count: int) -> list:
    """NSGA-II's environmental selection of ``count`` rows: whole fronts,
    then the last one split by crowding distance (boundary points first).
    The survivors are grouped by the front each comes from, best first."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    if objs.shape[0] < count:
        raise ValueError("cannot select more members than available")
    kept = []
    need = count
    for front in fast_non_dominated_sort(objs, count=count):
        if front.size > need:
            dist = crowding_distance(objs[front])
            front = front[np.argsort(-dist, kind="stable")[:need]]
        kept.append(front)
        need -= front.size
    return kept


class Nsga2Host:
    """Dominance-based host: non-dominated sorting plus crowding.

    ``rank`` holds each member's front.  Selection keeps each survivor's
    front: all its dominators sit in earlier fronts, which are kept whole.
    So the survivors' fronts are the contiguous runs that selection lays
    them out in, and only the initial population is sorted.
    """

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator):
        self.problem = problem
        self.pop_size = config.population_size
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)
        self.rank = _levels(self.pop_f)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        rank = self.rank
        crowd = crowding_distance(self.pop_f, rank)

        k = self.pop_f.shape[0]
        cand = rng.integers(0, k, size=(self.pop_size, 2))
        left, right = cand[:, 0], cand[:, 1]
        left_wins = (rank[left] < rank[right]) | (
            (rank[left] == rank[right]) & (crowd[left] >= crowd[right])
        )
        base_idx = np.where(left_wins, left, right)
        trip = _distinct_triplets([range(k)] * self.pop_size, base_idx, rng)
        children = de_pm_offspring(
            self.pop_x[base_idx], self.pop_x[trip[:, 0]], self.pop_x[trip[:, 1]],
            rng, self.problem.bounds,
        )
        o2 = budget.evaluate(children)

        pool_x = np.vstack([self.pop_x, o1.xs, o2.xs])
        pool_f = np.vstack([self.pop_f, o1.fs, o2.fs])
        kept = _surviving_fronts(pool_f, self.pop_size)
        keep = np.concatenate(kept)
        self.pop_x, self.pop_f = pool_x[keep], pool_f[keep]
        self.rank = np.repeat(np.arange(len(kept)), [front.size for front in kept])
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
) -> np.ndarray:
    """Tchebycheff fitness of each objective row under each weight vector,
    shape (len(weights), len(objs)); smaller is better."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    shifted = (objs - z_ref) / scale
    w = np.maximum(np.atleast_2d(weights), WEIGHT_FLOOR)
    # one (weights x rows) product per objective, folded into a running
    # maximum in place: max over a short last axis is several times slower
    # than pairwise maxima, and a fresh product per objective faults its
    # pages in anew
    cols = np.ascontiguousarray(shifted.T)
    out = np.multiply(w[:, :1], cols[0])
    term = np.empty_like(out)
    for j in range(1, w.shape[1]):
        np.multiply(w[:, j:j + 1], cols[j], out=term)
        np.maximum(out, term, out=out)
    return out


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


def drp_beta(fe: int, fe_max: int) -> float:
    """Linearly decaying optimism offset, exactly ``DRP_FLOOR`` at the budget
    end."""
    return (1.0 - DRP_FLOOR) * (fe_max - fe) / fe_max + DRP_FLOOR


def reference_point(kind: str, z_running: np.ndarray, pop_f: np.ndarray,
                    fe: int, fe_max: int) -> np.ndarray:
    """MOEA/D's reference point under estimator ``kind``.

    ``running-min`` is the best value seen per objective; ``ut`` and
    ``drp`` subtract an optimism offset from it, expressed in the
    population's normalized objective space.  The two estimation-component
    kinds also use the running minimum (their influence flows through the
    offspring they inject).
    """
    if kind in ("running-min", "eie", "eie-separate"):
        return z_running.copy()
    span = np.maximum(pop_f.max(axis=0) - pop_f.min(axis=0), RANGE_GUARD)
    if kind == "ut":
        return z_running - UT_BETA * span
    if kind == "drp":
        return z_running - drp_beta(fe, fe_max) * span
    raise ValueError(f"unknown estimator {kind!r}")


class MoeadHost:
    """Generational decomposition host with neighborhood mating and global
    replacement.

    Every subproblem breeds one child per iteration.  Each new solution
    (bred or externally injected) is assigned to the subproblem whose
    Tchebycheff scalarization likes it most, and replaces that incumbent
    when better.
    Objectives are rescaled by the reference-to-population range so widely
    different objective magnitudes do not starve any subproblem.

    The host owns its reference point (Zhang & Li, IEEE TEVC 11(6), 2007).
    ``z_min`` is the running minimum of everything it has evaluated or been
    handed; after each replacement ``z_ref`` follows it by the rule of
    ``estimator`` (see ``reference_point``).  The first step uses the
    initial population's minimum.
    """

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator, estimator: str = "running-min"):
        self.problem = problem
        self.estimator = estimator
        self.weights = simplex_lattice_weights(problem.m, config.population_size)
        self.pop_size = self.weights.shape[0]
        t_size = max(3, round(0.1 * self.pop_size))
        d = np.linalg.norm(
            self.weights[:, None, :] - self.weights[None, :, :], axis=2
        )
        self.neighbors = np.argsort(d, kind="stable", axis=1)[:, :t_size]
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)
        self.z_min = self.pop_f.min(axis=0)
        self.z_ref = self.z_min
        # mating pools as lists, built once: the triplet draw indexes them
        self._neighbor_pools = self.neighbors.tolist()
        self._full_pool = list(range(self.pop_f.shape[0]))

    def _scale(self) -> np.ndarray:
        return np.maximum(self.pop_f.max(axis=0) - self.z_ref, RANGE_GUARD)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        use_nbhd = rng.random(self.pop_f.shape[0]) < MATE_NEIGHBORHOOD_PROB
        pools = [nbhd if use else self._full_pool
                 for nbhd, use in zip(self._neighbor_pools, use_nbhd.tolist())]
        trip = _distinct_triplets(pools, None, rng)
        children = de_pm_offspring(
            self.pop_x[trip[:, 0]], self.pop_x[trip[:, 1]], self.pop_x[trip[:, 2]],
            rng, self.problem.bounds,
        )
        o2 = budget.evaluate(children)
        pool_f = np.vstack([self.pop_f, o2.fs, o1.fs])
        pool_x = np.vstack([self.pop_x, o2.xs, o1.xs])
        fitness = scalarized_fitness(pool_f, self.weights, self.z_ref, self._scale())
        new_idx = global_replacement(fitness)
        self.pop_x, self.pop_f = pool_x[new_idx], pool_f[new_idx]
        for batch in (o1, o2):
            if batch.size:
                self.z_min = np.minimum(self.z_min, batch.fs.min(axis=0))
        self.z_ref = reference_point(self.estimator, self.z_min, self.pop_f,
                                     budget.used, budget.limit)
        return o2


# -- indicator-based host ---------------------------------------------------


def hv_contributions(objs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Exclusive hypervolume contribution of each point, for 2 or 3
    objectives.

    The contribution of p is the volume of its box ``[p, ref]`` minus the
    hypervolume of the other points clamped into that box, ``max(q, p)``,
    after those are reduced to their non-dominated rows, one of each group
    of equal rows.  The clamped q survives that reduction unless some r
    other than p and q has ``max(r, p) <= max(q, p)`` together with
    ``r < q`` or ``max(r, p) != max(q, p)``.  Since ``max(r, p) <= max(q,
    p)`` exactly when ``r <= max(q, p)``, the rule needs, per objective j
    and point s, only the sets of r with ``r_j <= s_j`` and ``r_j < s_j``.
    Packed 64 r to a word, they reduce the boxes of all points at once in
    a few word-wise operations on (words, k, k) arrays.  The survivors are
    clamped and filtered in one pass, and each box is swept on Python
    floats by ``metrics.hv_sweep``.  The result is bit-identical to the
    earlier two-sweep reduction, which the tests keep as an oracle.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    ref = np.asarray(ref, dtype=float)
    k, m = objs.shape
    cols, idx = objs.T, np.arange(k)
    # row s of each set holds bit r when r_j <= s_j (m sets), r_j < s_j
    # (m sets), r < s and r != s, padded to whole 64-bit words
    bits = np.zeros((2 * m + 2, k, -(-k // 64) * 64), dtype=bool)
    np.less_equal(cols[:, None, :], cols[:, :, None], out=bits[:m, :, :k])
    np.less(cols[:, None, :], cols[:, :, None], out=bits[m:2 * m, :, :k])
    np.less(idx, idx[:, None], out=bits[-2, :, :k])
    np.not_equal(idx, idx[:, None], out=bits[-1, :, :k])
    words = np.packbits(bits, axis=2).view(np.uint64).transpose(0, 2, 1).copy()
    le, lt, earlier, other = words[:m], words[m:2 * m], words[-2], words[-1]
    below = bits[m:2 * m, :, :k].transpose(0, 2, 1)  # [j, p, q]: p_j < q_j
    # [word, p, q]: the r with r <= max(q, p), and the r with
    # max(r, p) != max(q, p) among those: r_j < q_j where p_j < q_j (the
    # bool factor keeps or clears whole words)
    covers = le[0][:, :, None] | le[0][:, None, :]
    differs = lt[0][:, None, :] * below[0]
    for j in range(1, m):
        covers &= le[j][:, :, None] | le[j][:, None, :]
        differs |= lt[j][:, None, :] * below[j]
    differs |= earlier[:, None, :]
    differs &= covers
    differs &= other[:, :, None]
    survives = ~differs.any(axis=0)  # [p, q]: the clamped q enters p's box
    np.fill_diagonal(survives, False)

    p, q = np.nonzero(survives)  # grouped by p, ascending
    clamped = np.maximum(objs[q], objs[p])
    inside = np.all(clamped < ref, axis=1)
    points = clamped[inside].tolist()
    ends = np.searchsorted(p[inside], np.arange(1, k + 1)).tolist()
    boxes = np.prod(np.maximum(ref - objs, 0.0), axis=1).tolist()
    bound = ref.tolist()
    out = []
    start = 0
    for box, end in zip(boxes, ends):
        out.append(box - hv_sweep(points[start:end], bound))
        start = end
    return np.array(out)


def _least_contributor(front: np.ndarray, ref: np.ndarray) -> int:
    """Position, within the worst front's objective rows, of the member
    SMS-EMOA drops: the only one, else the smallest exclusive hypervolume
    contributor (the first on ties)."""
    if front.shape[0] == 1:
        return 0
    return int(np.argmin(hv_contributions(front, ref)))


def _compare(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(le, ge)`` over row pairs: ``le[i, j]`` when a[i] is no worse than
    b[j] in every objective, ``ge[i, j]`` when it is no better.  So a[i]
    dominates b[j] where ``le & ~ge`` and is dominated where ``ge & ~le``."""
    le = a[:, None, 0] <= b[None, :, 0]
    ge = a[:, None, 0] >= b[None, :, 0]
    for j in range(1, a.shape[1]):
        le &= a[:, None, j] <= b[None, :, j]
        ge &= a[:, None, j] >= b[None, :, j]
    return le, ge


def _level_after_insert(objs: np.ndarray, level: np.ndarray,
                        row: np.ndarray) -> np.ndarray:
    """Non-domination levels of ``objs`` with ``row`` appended, from the
    levels of ``objs`` (steady-state level update; Li, Deb, Zhang & Kwong,
    IEEE Trans. Cybernetics, 2017).

    The newcomer sits one past its deepest dominator.  An insert moves a
    row down by at most one level: a row moves when a row now one level
    above it dominates it, so the move starts at the newcomer's level with
    the rows it dominates and cascades only through rows a moved row
    dominates.
    """
    le, ge = _compare(objs, row[None, :])
    le, ge = le[:, 0], ge[:, 0]
    above = le & ~ge
    depth = int(level[above].max()) + 1 if above.any() else 0
    level = np.append(level, depth)
    moved = np.flatnonzero(ge & ~le & (level[:-1] == depth))
    while moved.size:
        depth += 1
        below = np.flatnonzero(level[:-1] == depth)
        level[moved] = depth
        le, ge = _compare(objs[moved], objs[below])
        moved = below[(le & ~ge).any(axis=0)]
    return level


class SmsEmoaHost:
    """Steady-state indicator host: one child per selection, worst
    hypervolume contributor removed.

    ``level`` holds each member's non-domination level on the raw
    objectives.  Only the initial population is sorted; each insert updates
    the levels, and the dropped member always sits on the last level.
    Contributions are computed on the worst front normalized by the pool's
    range, against a fixed offset reference.  ``lo`` and ``hi`` hold the
    members' per-objective minimum and maximum; an insert recomputes them
    only when the dropped member holds one of them.
    """

    def __init__(self, problem, config: HostConfig, budget: EvaluationBudget,
                 rng: np.random.Generator):
        self.problem = problem
        self.pop_size = config.population_size
        self.ref = np.full(problem.m, 1.1)
        self.pop_x, self.pop_f = _initial_population(problem, self.pop_size, budget, rng)
        self.level = _levels(self.pop_f)
        self.lo, self.hi = self.pop_f.min(axis=0), self.pop_f.max(axis=0)

    def _insert(self, x: np.ndarray, f: np.ndarray) -> None:
        k = self.pop_f.shape[0]
        level = _level_after_insert(self.pop_f, self.level, f)
        # the range of the pool: the members plus the newcomer
        lo, hi = np.minimum(self.lo, f), np.maximum(self.hi, f)
        # the pool is the members plus the newcomer as row k, never stacked
        worst = np.flatnonzero(level == level.max())
        if worst[-1] == k:
            front = np.vstack([self.pop_f[worst[:-1]], f])
        else:
            front = self.pop_f[worst]
        span = np.maximum(hi - lo, RANGE_GUARD)
        drop = int(worst[_least_contributor((front - lo) / span, self.ref)])
        if drop == k:
            # the rows the newcomer moved sit below it, so on the last level
            # it moved none: the members and their levels stay as they were
            return
        dropped = self.pop_f[drop]
        self.pop_x = np.concatenate((self.pop_x[:drop], self.pop_x[drop + 1:], x[None]))
        self.pop_f = np.concatenate((self.pop_f[:drop], self.pop_f[drop + 1:], f[None]))
        self.level = np.concatenate((level[:drop], level[drop + 1:]))
        if ((dropped > lo) & (dropped < hi)).all():
            self.lo, self.hi = lo, hi
        else:  # it held an extreme (or a NaN): the survivors set the range
            self.lo, self.hi = self.pop_f.min(axis=0), self.pop_f.max(axis=0)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        for row in range(o1.size):
            self._insert(o1.xs[row], o1.fs[row])
        xs, fs = [], []
        for _ in range(self.pop_size):
            if budget.exhausted:
                break
            k = self.pop_f.shape[0]
            trip = _distinct_triplets([range(k)], None, rng)[0]
            child = de_pm_offspring(
                self.pop_x[trip[0]][None, :],
                self.pop_x[trip[1]][None, :],
                self.pop_x[trip[2]][None, :],
                rng, self.problem.bounds,
            )
            o = budget.evaluate(child)
            self._insert(o.xs[0], o.fs[0])
            xs.append(o.xs[0])
            fs.append(o.fs[0])
        if not xs:
            return OffspringBatch.empty(self.problem.n, self.problem.m)
        return OffspringBatch(np.stack(xs), np.stack(fs))


def make_host(problem, config: HostConfig, budget: EvaluationBudget,
              rng: np.random.Generator, estimator: str = "running-min"):
    """The host ``config`` names; ``estimator`` sets MOEA/D's reference-point
    rule, which the other hosts do not read."""
    config.check_population(problem.m)
    if estimator not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if config.kind == "moead":
        return MoeadHost(problem, config, budget, rng, estimator)
    cls = {"nsga2": Nsga2Host, "smsemoa": SmsEmoaHost}[config.kind]
    return cls(problem, config, budget, rng)

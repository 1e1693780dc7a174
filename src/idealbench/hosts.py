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

import functools
from dataclasses import dataclass

import numpy as np

from .core import (BoxBounds, EvaluationBudget, OffspringBatch,
                   clamp_to_bounds, fast_non_dominated_sort, float_rows,
                   simplex_lattice)
# hv_exact is not called here; the benchmark's tracer looks it up in hosts
from .metrics import hv_exact, hv_sweep  # noqa: F401

HOST_KINDS = ("nsga2", "moead", "smsemoa")
ESTIMATOR_KINDS = ("running-min", "ut", "drp", "eie", "eie-separate")

WEIGHT_FLOOR = 1e-6
RANGE_GUARD = 1e-12
MATE_NEIGHBORHOOD_PROB = 0.9  # MOEA/D mates within the neighbourhood
# draws per row in a triplet call's first block (words for pools of mixed
# sizes, values for pools of one size): a row of a k-member pool takes
# k/k + k/(k-1) + k/(k-2) on average, 3.36 at k = 10 and 3.03 at k = 210
BLOCK_WORDS_PER_ROW = 4
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
    k * n), as contiguous 1-D arrays.  When none mutates, the second draw
    is still taken and the result is the clamped input.  Its powers stay
    NumPy's: Python's scalar ``**`` can differ from them in the last place.
    """
    xs = float_rows(xs)
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

    All three parent arguments are (k, n) batches; rows pair up.  One row
    takes ``_one_child``, whose child and draws are byte for byte the batch
    body's; no rows draw nothing.
    """
    base = float_rows(base)
    k, n = base.shape
    if k == 1:
        return _one_child(base, diff_a, diff_b, rng, bounds)
    if not k:
        return np.empty((0, n))
    return _de_pm_rows(base, diff_a, diff_b, rng, bounds)


def _de_pm_rows(base: np.ndarray, diff_a: np.ndarray, diff_b: np.ndarray,
                rng: np.random.Generator, bounds: BoxBounds) -> np.ndarray:
    """``de_pm_offspring``'s batch body, for a (k, n) float ``base``."""
    k, n = base.shape
    mutant = base + DE_F * np.subtract(diff_a, diff_b)
    cross = rng.random((k, n)) < DE_CR
    cross[np.arange(k), rng.integers(0, n, size=k)] = True
    child = clamp_to_bounds(np.where(cross, mutant, base), bounds)
    return polynomial_mutation(child, rng, bounds)


def _one_child(base: np.ndarray, diff_a: np.ndarray, diff_b: np.ndarray,
               rng: np.random.Generator, bounds: BoxBounds) -> np.ndarray:
    """``_de_pm_rows`` of one (1, n) row, on Python floats.

    The draws are the batch body's: ``random((1, n))``, a scalar
    ``integers(0, n)``, which takes the same word as ``size=1``, then
    ``random((1, n))`` twice.  The arithmetic, compares and branch choices
    are its IEEE operations in the same order.  Clamping is NumPy's clip of
    a row: a value equal to a bound becomes the bound (so -0.0 becomes a
    lower bound of 0.0), and a NaN stays NaN.  Only the mutated entries'
    branch is computed; its two powers stay NumPy's, one call each over
    those entries, since Python's scalar ``**`` can differ from them in the
    last place.
    """
    n = base.shape[1]
    lower, upper = bounds.lower.tolist(), bounds.upper.tolist()
    cross = rng.random((1, n)).tolist()[0]
    forced = int(rng.integers(0, n))
    child = []
    for j, (b, a, d, r, lo, hi) in enumerate(zip(
            base.tolist()[0], float_rows(diff_a).tolist()[0],
            float_rows(diff_b).tolist()[0], cross, lower, upper)):
        v = b + DE_F * (a - d) if r < DE_CR or j == forced else b
        child.append(lo if v <= lo else hi if v >= hi else v)
    rate = 1.0 / n
    cols = [j for j, r in enumerate(rng.random((1, n)).tolist()[0]) if r < rate]
    u = rng.random((1, n)).tolist()[0]
    if not cols:
        return np.array([child])
    # the low branch (u < 0.5) steps from the lower bound, the high one
    # from the upper
    low = [u[j] < 0.5 for j in cols]
    spans = [upper[j] - lower[j] for j in cols]
    dist = [(child[j] - lower[j] if lw else upper[j] - child[j]) / span
            for j, lw, span in zip(cols, low, spans)]
    powered = np.power([1.0 - d for d in dist], PM_ETA + 1.0).tolist()
    base_terms = [
        2.0 * u[j] + (1.0 - 2.0 * u[j]) * t if lw
        else 2.0 * (1.0 - u[j]) + 2.0 * (u[j] - 0.5) * t
        for j, lw, t in zip(cols, low, powered)]
    stepped = np.power(base_terms, 1.0 / (PM_ETA + 1.0)).tolist()
    for j, lw, span, q in zip(cols, low, spans, stepped):
        v = child[j] + (q - 1.0 if lw else 1.0 - q) * span
        lo, hi = lower[j], upper[j]
        child[j] = lo if v <= lo else hi if v >= hi else v
    return np.array([child])


def _distinct_triplets(
    pools: list, avoid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Three distinct indices per row drawn from each row's pool of
    distinct indices, none equal to the row's ``avoid`` entry.

    Each draw is the value of a scalar ``rng.integers(0, len(pool))``, and
    the generator ends in the state those scalar calls leave.  Draws come
    in blocks, since a block costs far more than its draws.  The first
    block holds ``BLOCK_WORDS_PER_ROW`` draws a row, more than most calls
    take; when the call ends inside it, the generator goes back to its
    state before the block and draws again only the draws taken.  Every
    row takes at least three values, so the values still owed are a lower
    bound on the draws to come, and a block drawn when the first runs out
    holds only that many.

    When every pool has the same size k (NSGA-II's and SMS-EMOA's full
    pools), a block is ``rng.integers(0, k, size=...)``, whose values are
    the scalar calls' values.  Pools of mixed sizes (MOEA/D's
    neighbourhoods beside full pools) replay the raw 32-bit words those
    calls consume instead, since a block of values cannot span two bounds.
    NumPy bounds a word x by Lemire's multiply-and-reject ("Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019): with
    m = x * k, it rejects x while the low half of m is below
    (2**32 - k) % k and returns m >> 32.  Every value costs at least one
    word.  ``_word_values`` works out each word's value at every pool size
    once per block, so the row loop only indexes.  A row whose next three
    values are valid, distinct and miss its avoided member takes them at
    once; any other row takes them one at a time, skipping rejected words.
    The replay holds for pools of up to 2**32 members, where NumPy takes
    32-bit words.  ``_equal_size_triplets`` draws from pools of one size.
    """
    sizes = [len(pool) for pool in pools]
    bases = avoid.tolist() if avoid is not None else [None] * len(pools)
    if min(sizes) < 4:
        for row, pool in enumerate(pools):
            # checked before any draw, so a rejected call leaves rng untouched
            if sizes[row] < 4 and sizes[row] - (bases[row] in pool) < 3:
                raise ValueError(f"row {row}: fewer than 3 members to draw from")
    size_set = set(sizes)
    if len(size_set) == 1:
        return _equal_size_triplets(pools, avoid, sizes[0], rng)
    rows = len(pools)
    out = []
    saved = rng.bit_generator.state  # the first block's give-back
    end = BLOCK_WORDS_PER_ROW * rows
    values = _word_values(rng.integers(0, 1 << 32, size=end, dtype=np.uint64),
                          size_set)
    pos = 0
    for row, (pool, k, base) in enumerate(zip(pools, sizes, bases)):
        if pos + 3 <= end:
            a, b, c = values[k][pos:pos + 3]
            # distinct values name distinct members of the row's pool
            if a != b and b != c and a != c and a >= 0 and b >= 0 and c >= 0:
                x, y, z = pool[a], pool[b], pool[c]
                if base is None or (x != base and y != base and z != base):
                    out += (x, y, z)
                    pos += 3
                    continue
        chosen = []
        while len(chosen) < 3:
            if pos == end:  # a block of the words still owed
                end = 3 * (rows - row) - len(chosen)
                values = _word_values(
                    rng.integers(0, 1 << 32, size=end, dtype=np.uint64), size_set)
                saved = None  # the first block is used up: nothing to give back
                pos = 0
            v = values[k][pos]
            pos += 1
            if v >= 0:  # at -1 the word is rejected: the next one is drawn
                cand = pool[v]
                if cand != base and cand not in chosen:
                    chosen.append(cand)
        out += chosen
    if saved is not None:
        # back to the state before the first block, then forward by the
        # words taken: the state the scalar calls leave
        rng.bit_generator.state = saved
        rng.integers(0, 1 << 32, size=pos, dtype=np.uint64)
    return np.array(out, dtype=int).reshape(rows, 3)


def _word_values(words: np.ndarray, sizes) -> dict:
    """For each pool size k, the value in [0, k) that each 32-bit word of
    ``words`` (held as uint64) gives a scalar ``integers(0, k)``, as a
    list: ``(x * k) >> 32``, or -1 where Lemire's method rejects the word
    at k."""
    out = {}
    for k in sizes:
        m = words * k
        values = (m >> 32).tolist()
        threshold = (0xFFFFFFFF - (k - 1)) % k
        if threshold:
            for at in np.flatnonzero(m.astype(np.uint32) < threshold).tolist():
                values[at] = -1
        out[k] = values
    return out


def _equal_size_triplets(pools: list, avoid: np.ndarray, k: int,
                         rng: np.random.Generator) -> np.ndarray:
    """``_distinct_triplets`` of pools that all hold k members.

    Rows are drawn as values in [0, k), each naming its row's member.  A
    pool's members are distinct, so two members are equal just when their
    values are, and a row's avoided member becomes the value that names it
    (-1 if none does).  Two or more rows take ``_triplet_values``' array
    passes; one row takes the scalar rule at once, which is faster than a
    pass.
    """
    rows = len(pools)
    first = pools[0]
    if type(first) is range and first.start == 0 and first.step == 1 and (
            rows == 1 or all(pool is first for pool in pools)):
        table = None  # each value is its own member
        skip = avoid
    else:
        table = np.asarray(pools)  # row r's member for value v: table[r, v]
        skip = None
        if avoid is not None:
            hit = table == avoid[:, None]
            skip = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    if rows > 1:
        out = _triplet_values(rows, skip, k, rng)
    else:
        base = None if skip is None else skip.item(0)
        out = np.array([_scalar_row(base, (), 0, 3, k, rng)[0]])
    if table is None:
        return out
    return table[np.arange(rows)[:, None], out].astype(int, copy=False)


def _triplet_values(rows: int, skip: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Three distinct values in [0, k) for each of ``rows`` rows, none equal
    to the row's ``skip`` entry, in array passes.

    A pass assumes each row takes its next three values and accepts the
    rows up to the first one whose values repeat one or hit its skipped
    value.  That row, or one whose values run past the block, takes
    ``_scalar_row``, and the pass resumes after it.  The first block gives
    back the values it leaves unused, as in ``_distinct_triplets``.
    """
    skips = [None] * rows if skip is None else skip.tolist()
    skip3 = None if skip is None else np.repeat(skip, 3)
    out = np.empty((rows, 3), dtype=int)
    owed = 3 * rows  # the fewest values still to come
    saved = rng.bit_generator.state  # the first block's give-back
    values = first = rng.integers(0, k, size=BLOCK_WORDS_PER_ROW * rows)
    repeat = _repeats(values)
    pos = row = 0
    while row < rows:
        fit = min(rows - row, (values.size - pos) // 3)
        if fit:
            ok = fit
            bad = repeat[pos:pos + 3 * fit:3]
            at = int(bad.argmax())
            if bad[at]:
                ok = at
            if skip3 is not None and ok:
                hit = values[pos:pos + 3 * ok] == skip3[3 * row:3 * (row + ok)]
                at = int(hit.argmax())
                if hit[at]:
                    ok = at // 3
            out[row:row + ok] = values[pos:pos + 3 * ok].reshape(ok, 3)
            row += ok
            pos += 3 * ok
            owed -= 3 * ok
            if row == rows:
                break
        block = values
        out[row], values, pos = _scalar_row(skips[row], values, pos, owed, k, rng)
        if values is not block:
            repeat = _repeats(values)
        row += 1
        owed -= 3
    if values is first:
        # back to the state before the first block, then forward by the
        # values taken: the state the scalar calls leave
        rng.bit_generator.state = saved
        rng.integers(0, k, size=pos)
    return out


def _scalar_row(skip, values, pos: int, owed: int, k: int,
                rng: np.random.Generator) -> tuple:
    """One row's three values by the scalar rule, from ``values[pos]`` on:
    a value is kept unless it is ``skip`` or already kept.  When the values
    run out, a new block holds the ``owed`` values still owed (this row's
    three included).  Returns the values kept, the block and the position
    after the last value taken."""
    chosen = []
    while len(chosen) < 3:
        if pos == len(values):
            values = rng.integers(0, k, size=owed - len(chosen))
            pos = 0
        v = values.item(pos)
        pos += 1
        if v != skip and v not in chosen:
            chosen.append(v)
    return chosen, values, pos


def _repeats(values: np.ndarray) -> np.ndarray:
    """Whether values p, p + 1 and p + 2 hold a repeat, for each p."""
    near = values[1:] == values[:-1]
    repeat = near[:-1] | near[1:]
    repeat |= values[2:] == values[:-2]
    return repeat


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
    per objective.  Without labels, each objective of the one front is
    ordered by a stable argsort of its values, which is that sort's order
    for a single front.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    k, m = objs.shape
    if front is None:
        return _one_front_crowding(objs)
    dist = np.zeros(k)
    if k == 0:
        return dist
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


def _one_front_crowding(objs: np.ndarray) -> np.ndarray:
    """``crowding_distance`` of one front, a 2-D float array."""
    k = objs.shape[0]
    if k <= 2:
        return np.full(k, np.inf)
    dist = np.zeros(k)
    for col in objs.T:
        order = np.argsort(col, kind="stable")
        col = col[order]
        span = col[-1] - col[0]
        if span < RANGE_GUARD:
            continue
        dist[order[0]] = dist[order[-1]] = np.inf
        dist[order[1:-1]] += (col[2:] - col[:-2]) / span
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
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """Tchebycheff fitness of each objective row under each weight vector,
    shape (len(weights), len(objs)); smaller is better.

    The result is the transpose of a C-ordered (len(objs), len(weights))
    array, so a row's values under every weight vector are contiguous and
    ``argmin`` over the weights copies nothing.  ``workspace``, a 1-D float
    array of at least ``2 * len(weights) * len(objs)`` entries, holds that
    array and each objective's product; the result is then a view of it,
    valid until the workspace is used again.  Without one, both are fresh.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    shifted = (objs - z_ref) / scale
    w = np.maximum(np.atleast_2d(weights), WEIGHT_FLOOR)
    shape = (objs.shape[0], w.shape[0])
    size = shape[0] * shape[1]
    if workspace is None:
        workspace = np.empty(2 * size)
    out = workspace[:size].reshape(shape)
    term = workspace[size:2 * size].reshape(shape)
    # one (rows x weights) product per objective, folded into a running
    # maximum in place: max over a short last axis is several times slower
    # than pairwise maxima, and a fresh product per objective faults its
    # pages in anew
    cols = shifted.T[:, :, None]
    w_cols = np.ascontiguousarray(w.T)
    np.multiply(cols[0], w_cols[0], out=out)
    for j in range(1, w.shape[1]):
        np.multiply(cols[j], w_cols[j], out=term)
        np.maximum(out, term, out=out)
    return out.T


def own_fitness(
    objs: np.ndarray,
    weights: np.ndarray,
    z_ref: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """Tchebycheff fitness of row i under weight vector i alone, shape
    (len(objs),): the diagonal of ``scalarized_fitness``, from the same
    products folded in the same objective order."""
    shifted = (objs - z_ref) / scale
    terms = np.maximum(weights, WEIGHT_FLOOR) * shifted
    own = terms[:, 0].copy()
    for j in range(1, terms.shape[1]):
        np.maximum(own, terms[:, j], out=own)
    return own


def global_replacement(fitness: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Survivor per subproblem, as an index into the k incumbents followed
    by the newcomers, from the newcomers' (k, newcomers) fitness matrix and
    each incumbent's fitness under its own weight vector: each newcomer
    goes to the subproblem it fits best, and a subproblem takes its best
    newcomer (the earliest on ties) when that beats its incumbent.
    ``lexsort`` is stable, so rows tied on (home, fitness) stay in
    newcomer order."""
    k = own.shape[0]
    new_idx = np.arange(k)
    home = np.argmin(fitness, axis=0)
    fit = fitness[home, np.arange(fitness.shape[1])]
    order = np.lexsort((fit, home))
    first = np.ones(order.size, dtype=bool)
    first[1:] = home[order[1:]] != home[order[:-1]]
    winners = order[first]
    better = winners[fit[winners] < own[home[winners]]]
    new_idx[home[better]] = k + better
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
        # scalarized_fitness's workspace, grown to the largest generation
        # seen, so a generation faults in no fresh pages for it
        self._workspace = np.empty(0)

    def _scale(self) -> np.ndarray:
        return np.maximum(self.pop_f.max(axis=0) - self.z_ref, RANGE_GUARD)

    def _replace(self, pool_x: np.ndarray, pool_f: np.ndarray) -> None:
        """Global replacement from the pool of the members followed by the
        newcomers.  It reads only the newcomers' columns and each incumbent
        under its own weight vector, so the (k, k) block is never built."""
        k = self.pop_size
        need = 2 * k * (pool_f.shape[0] - k)
        if self._workspace.size < need:
            self._workspace = np.empty(need)
        scale = self._scale()
        fitness = scalarized_fitness(pool_f[k:], self.weights, self.z_ref,
                                     scale, self._workspace)
        own = own_fitness(self.pop_f, self.weights, self.z_ref, scale)
        new_idx = global_replacement(fitness, own)
        self.pop_x, self.pop_f = pool_x[new_idx], pool_f[new_idx]

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
        self._replace(np.vstack([self.pop_x, o2.xs, o1.xs]),
                      np.vstack([self.pop_f, o2.fs, o1.fs]))
        for batch in (o1, o2):
            if batch.size:
                self.z_min = np.minimum(self.z_min, batch.fs.min(axis=0))
        self.z_ref = reference_point(self.estimator, self.z_min, self.pop_f,
                                     budget.used, budget.limit)
        return o2


# -- indicator-based host ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_words(k: int) -> tuple:
    """The words of ``hv_contributions`` that depend on k alone, shaped to
    broadcast over its [word, p, q] arrays: [word, 1, q] holds bit r when
    r < q, [word, p, 1] when r != p; then the [p, q] mask of p != q and
    the box ends 1..k.  Cached per k and shared, so read-only."""
    idx = np.arange(k)
    bits = np.zeros((2, k, -(-k // 64) * 64), dtype=bool)
    np.less(idx, idx[:, None], out=bits[0, :, :k])
    np.not_equal(idx, idx[:, None], out=bits[1, :, :k])
    packed = np.packbits(bits, axis=2).view(np.uint64).transpose(0, 2, 1).copy()
    words = (packed[0][:, None, :], packed[1][:, :, None], bits[1, :, :k].copy(),
             idx + 1)
    for a in words:
        a.flags.writeable = False
    return words


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
    a few word-wise operations on (words, k, k) arrays; the words that
    depend on k alone are built once per k.  The survivors are
    clamped and filtered in one pass, and each box is swept on Python
    floats by ``metrics.hv_sweep``.  The result is bit-identical to the
    earlier two-sweep reduction, which the tests keep as an oracle.
    """
    objs = float_rows(objs)
    ref = np.asarray(ref, dtype=float)
    k, m = objs.shape
    earlier, other, distinct, ends = _pair_words(k)
    cols = objs.T
    # row s of each set holds bit r when r_j <= s_j (m sets) and r_j < s_j
    # (m sets), padded to whole 64-bit words
    bits = np.zeros((2 * m, k, -(-k // 64) * 64), dtype=bool)
    np.less_equal(cols[:, None, :], cols[:, :, None], out=bits[:m, :, :k])
    np.less(cols[:, None, :], cols[:, :, None], out=bits[m:, :, :k])
    words = np.packbits(bits, axis=2).view(np.uint64).transpose(0, 2, 1).copy()
    le, lt = words[:m], words[m:, :, None, :]
    below = bits[m:, :, :k].transpose(0, 2, 1)  # [j, p, q]: p_j < q_j
    # [word, p, q]: the r with r <= max(q, p), and the r with
    # max(r, p) != max(q, p) among those: r_j < q_j where p_j < q_j (the
    # bool factor keeps or clears whole words)
    covers = le[0][:, :, None] | le[0][:, None, :]
    differs = lt[0] * below[0]
    for j in range(1, m):
        covers &= le[j][:, :, None] | le[j][:, None, :]
        differs |= lt[j] * below[j]
    differs |= earlier
    differs &= covers
    differs &= other
    # [p, q]: the clamped q enters p's box
    survives = np.greater(distinct, np.logical_or.reduce(differs, axis=0))

    p, q = np.nonzero(survives)  # grouped by p, ascending
    clamped = np.maximum(objs[q], objs[p])
    inside = np.logical_and.reduce(clamped < ref, axis=1)
    if not np.logical_and.reduce(inside):
        clamped, p = clamped[inside], p[inside]
    points = clamped.tolist()
    boxes = np.multiply.reduce(np.maximum(ref - objs, 0.0), axis=1).tolist()
    bound = ref.tolist()
    out = []
    start = 0
    for box, end in zip(boxes, np.searchsorted(p, ends).tolist()):
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


def _level_after_insert(objs: np.ndarray, level: np.ndarray,
                        row: np.ndarray) -> np.ndarray:
    """Non-domination levels of ``objs`` with ``row`` appended, from the
    levels of ``objs`` (steady-state level update; Li, Deb, Zhang & Kwong,
    IEEE Trans. Cybernetics, 2017).

    The newcomer sits one past its deepest dominator.  An insert moves a
    row down by at most one level: a row moves when a row now one level
    above it dominates it, so the move starts at the newcomer's level with
    the rows it dominates and cascades only through rows a moved row
    dominates.  A moved row is dominated by the newcomer, and so is every
    row it dominates, so only the rows the newcomer dominates are
    candidates.  The newcomer is compared with one objective column at a
    time, which NumPy runs as long loops, and a moved row dominates a row
    when it is no worse everywhere and better somewhere.
    """
    k = objs.shape[0]
    r = row.tolist()
    col = objs[:, 0]
    le, ge = col <= r[0], col >= r[0]  # row i no worse, no better than row
    for j in range(1, len(r)):
        col = objs[:, j]
        le &= col <= r[j]
        ge &= col >= r[j]
    # the newcomer's dominators are le > ge, the rows it dominates ge > le
    depth = int(np.maximum.reduce(level, where=le > ge, initial=-1)) + 1
    out = np.empty(k + 1, dtype=level.dtype)
    out[:k] = level
    out[k] = depth
    dominated = np.flatnonzero(ge > le)
    levels = level[dominated]
    moved = dominated[levels == depth]
    while moved.size:
        depth += 1
        out[moved] = depth
        below = dominated[levels == depth]
        if not below.size:
            break
        a, b = objs[moved][:, None, :], objs[below]
        dominates = (np.logical_and.reduce(a <= b, axis=2)
                     & np.logical_or.reduce(a < b, axis=2))
        moved = below[np.logical_or.reduce(dominates, axis=0)]
    return out


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
        pop_f = self.pop_f
        k = pop_f.shape[0]
        level = _level_after_insert(pop_f, self.level, f)
        # the range of the pool: the members plus the newcomer
        lo, hi = np.minimum(self.lo, f), np.maximum(self.hi, f)
        # the pool is the members plus the newcomer as row k, never stacked;
        # a worst front of one point is dropped without being normalized
        worst = np.flatnonzero(level == np.maximum.reduce(level))
        if worst.size == 1:
            drop = int(worst[0])
        else:
            if worst[-1] == k:
                front = np.concatenate((pop_f[worst[:-1]], f[None]))
            else:
                front = pop_f[worst]
            front -= lo
            front /= np.maximum(hi - lo, RANGE_GUARD)
            drop = int(worst[_least_contributor(front, self.ref)])
        if drop == k:
            # the rows the newcomer moved sit below it, so on the last level
            # it moved none: the members and their levels stay as they were
            return
        dropped = pop_f[drop]
        self.pop_x = np.concatenate((self.pop_x[:drop], self.pop_x[drop + 1:], x[None]))
        self.pop_f = np.concatenate((pop_f[:drop], pop_f[drop + 1:], f[None]))
        self.level = np.concatenate((level[:drop], level[drop + 1:]))
        # strictly inside the range on Python floats, which compare as NumPy's
        if all(a < v < b for a, v, b in zip(lo.tolist(), dropped.tolist(),
                                              hi.tolist())):
            self.lo, self.hi = lo, hi
        else:  # it held an extreme (or a NaN): the survivors set the range
            self.lo = np.minimum.reduce(self.pop_f, axis=0)
            self.hi = np.maximum.reduce(self.pop_f, axis=0)

    def step(self, o1: OffspringBatch, budget: EvaluationBudget,
             rng: np.random.Generator) -> OffspringBatch:
        insert = self._insert
        for row in range(o1.size):
            insert(o1.xs[row], o1.fs[row])
        bounds = self.problem.bounds
        pool = [range(self.pop_f.shape[0])]  # an insert keeps the size
        xs, fs = [], []
        for _ in range(self.pop_size):
            if budget.exhausted:
                break
            parents = self.pop_x[_distinct_triplets(pool, None, rng)[0]]
            child = de_pm_offspring(parents[:1], parents[1:2], parents[2:], rng, bounds)
            o = budget.evaluate(child)
            x, f = o.xs[0], o.fs[0]
            insert(x, f)
            xs.append(x)
            fs.append(f)
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

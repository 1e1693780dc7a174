"""Shared domain types and kernels: non-dominated sorting, box bounds,
simplex lattices, the evaluation budget and the batches of evaluated rows
it returns, and the RNG contract.

Everything in this module is pure and operates on plain ``numpy`` arrays of
float64.  Decision vectors are 1-D arrays of length ``n``; objective vectors
are 1-D arrays of length ``m``.  Batches are 2-D arrays with one row per
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Create the run-level random source.

    PCG64 is used because its stream is fully specified by the seed and
    reproduces bit-identically across processes and platforms.  One generator
    is created per run and passed explicitly; every component of a run draws
    from the same stream so interleaving stays reproducible.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class BoxBounds:
    """Axis-aligned box constraints on the decision space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples inside the box, shape (count, n)."""
        u = rng.random((count, self.n))
        return self.lower + u * (self.upper - self.lower)


def _dense_ranks(objs: np.ndarray) -> np.ndarray:
    """Rank of every value within its objective column, shape (m, N): equal
    values share a rank and ranks count up by one, in the narrowest
    unsigned type that holds N.  Ranks order exactly as the floats compare
    (``-0.0 == 0.0``, infinities at the ends), whatever the sort does with
    ties."""
    cols = objs.T
    order = np.argsort(cols, axis=1)
    srt = np.take_along_axis(cols, order, axis=1)
    step = np.zeros(cols.shape, dtype=np.min_scalar_type(objs.shape[0]))
    np.not_equal(srt[:, 1:], srt[:, :-1], out=step[:, 1:])
    ranks = np.empty_like(step)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=1, dtype=step.dtype),
                      axis=1)
    return ranks


def _copies(ranks: np.ndarray, dtype) -> np.ndarray:
    """How many rows (itself included) equal each row."""
    order = np.lexsort(ranks)
    srt = ranks[:, order]
    first = np.ones(srt.shape[1], dtype=bool)
    np.any(srt[:, 1:] != srt[:, :-1], axis=0, out=first[1:])
    group = np.cumsum(first) - 1
    out = np.empty(srt.shape[1], dtype=dtype)
    out[order] = np.bincount(group)[group]
    return out


def fast_non_dominated_sort(objs: np.ndarray, count: int | None = None) -> list:
    """Partition into dominance fronts (arrays of indices in input order,
    best first); ``fast_non_dominated_sort(objs)[0]`` is the non-dominated
    subset.  With ``count``, peeling stops at the shortest prefix of fronts
    that holds ``count`` or more members.

    Rows are compared on the dense ranks of each objective, which order
    exactly like the floats and compare several times faster.  NaN, which
    float compares leave incomparable, has no such rank and is rejected.
    ``le[i, j]`` (i no worse than j in every objective) holds for j's
    dominators and for j's equal copies; counting the copies out once gives
    each row's dominators without the transposed strict-dominance matrix.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    n = objs.shape[0]
    if n == 0:
        raise ValueError("expected a non-empty 2-D array of objective vectors")
    if np.isnan(objs).any():
        raise ValueError("NaN objective values have no dominance order")
    ranks = _dense_ranks(objs)
    # one pairwise compare per objective; an (N, N, m) broadcast reduced
    # over its short last axis is several times slower
    le = ranks[0][:, None] <= ranks[0][None, :]  # [i, j]: i no worse than j
    for col in ranks[1:]:
        le &= col[:, None] <= col[None, :]
    short = np.min_scalar_type(-n - 1)  # signed, holds -n - 1 .. n
    n_dom = le.sum(axis=0, dtype=short) - _copies(ranks, short)
    fronts = [np.flatnonzero(n_dom == 0)]
    left = (n if count is None else min(count, n)) - fronts[0].size
    while left > 0:
        # le[front] marks the rows the front dominates, and the front's own
        # rows (each row's copies are in its front), which leave the count
        front = fronts[-1]
        n_dom -= le[front].sum(axis=0, dtype=short)
        n_dom[front] = -1
        fronts.append(np.flatnonzero(n_dom == 0))
        left -= fronts[-1].size
    return fronts


def simplex_lattice(m: int, h: int) -> np.ndarray:
    """Points of the unit simplex whose coordinates are multiples of 1/h:
    h + 1 of them for m = 2, (h + 1)(h + 2)/2 for m = 3."""
    if m == 2:
        t = np.linspace(0.0, 1.0, h + 1)
        return np.column_stack([t, 1.0 - t])
    if m == 3:
        pts = [
            (i / h, j / h, (h - i - j) / h)
            for i in range(h + 1)
            for j in range(h + 1 - i)
        ]
        return np.asarray(pts, dtype=float)
    raise ValueError("simplex lattices support m in {2, 3}")


def clamp_to_bounds(x: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Project a decision vector (or a batch of rows) into the box."""
    x = np.asarray(x, dtype=float)
    return np.clip(x, bounds.lower, bounds.upper)


@dataclass
class OffspringBatch:
    """Evaluated rows: decision vectors and their objective values."""

    xs: np.ndarray
    fs: np.ndarray

    @classmethod
    def empty(cls, n: int, m: int) -> "OffspringBatch":
        return cls(np.empty((0, n)), np.empty((0, m)))

    @property
    def size(self) -> int:
        return self.xs.shape[0]


@dataclass
class EvaluationBudget:
    """Shared function-evaluation account for one run.

    The host, the estimation component, and the initialization all charge the
    same account; the run stops when it is exhausted no matter which side
    consumed the last evaluation.
    """

    limit: int
    used: int = 0
    _eval: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def evaluate(self, xs: np.ndarray) -> OffspringBatch:
        """Evaluate as many rows of ``xs`` as the budget allows: the paid
        prefix and its objective values, no rows (of width m) when none is
        paid for."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        take = min(xs.shape[0], self.remaining)
        paid = xs[:take]
        out = OffspringBatch(paid, self._eval(paid))
        self.used += take
        return out

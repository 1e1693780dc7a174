"""Shared domain types and kernels: non-dominated sorting, box bounds,
simplex lattices, the evaluation budget and the batches of evaluated rows
it returns, and the RNG contract.

Everything in this module is pure and operates on plain ``numpy`` arrays of
float64, except that ``fast_non_dominated_sort`` builds its packed sets of
rows (N rows of about N / 64 words each) in one private word workspace that
grows to the largest sort seen and is reused by every later call, so a warm
sort allocates no word array, only index and byte arrays far smaller than
the sets.  That is safe because nothing the sort returns aliases the
workspace, and because each process runs one trial at a time: no two sorts
of a process overlap.  Decision vectors are 1-D arrays of length ``n``;
objective vectors are 1-D arrays of length ``m``.  Batches are 2-D arrays
with one row per vector.
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


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_words = np.empty(0, dtype="<u8")


def _word_workspace(n: int, w: int) -> tuple:
    """An (n + 1, w) and three (n, w) views of the sort's private word
    workspace, grown to ``(4 n + 1) w`` words when it is smaller; their
    contents are stale."""
    global _words
    size = n * w
    if _words.size < 4 * size + w:
        _words = np.empty(4 * size + w, dtype="<u8")
    first = _words[:size + w].reshape(n + 1, w)
    rest = _words[size + w:4 * size + w].reshape(3, n, w)
    return (first, *rest)


def _copies(no_worse: np.ndarray, no_better: np.ndarray, dtype) -> np.ndarray:
    """How many rows (itself included) equal each row: those in both of its
    sets of rows."""
    return np.bitwise_count(no_worse & no_better).sum(axis=1, dtype=dtype)


def _row_sets(objs: np.ndarray) -> tuple:
    """Each row's ``no_worse`` and ``no_better`` sets, as (N, w) views of
    the word workspace, and whether some column's values are all distinct
    (see ``fast_non_dominated_sort``)."""
    n = objs.shape[0]
    w = (n + 63) >> 6  # words per set of rows
    upto, tmp, no_worse, no_better = _word_workspace(n, w)
    cols = objs.T
    order = np.argsort(cols, axis=1)
    rows = np.arange(n)
    base = rows * w  # each sorted position's first word
    hi = np.empty(n, dtype=np.intp)
    lo = np.empty(n, dtype=np.intp)
    distinct = False
    upto[0] = 0
    for k, col in enumerate(cols):
        at = order[k]
        srt = col[at]
        tie = srt[1:] == srt[:-1]
        tmp.fill(0)
        tmp.reshape(-1)[base + (at >> 6)] = _BITS[at & 63]
        np.bitwise_or.accumulate(tmp, axis=0, out=upto[1:])  # upto[p]: positions < p
        if tie.any():
            ends = np.where(np.append(tie, False), n, rows)
            last = np.minimum.accumulate(ends[::-1])[::-1]
            first = np.maximum.accumulate(np.where(np.insert(tie, 0, False), 0, rows))
        else:
            distinct = True
            last = first = rows
        hi[at] = last
        lo[at] = first
        if k == 0:
            np.take(upto[1:], hi, axis=0, out=no_worse, mode="clip")
            np.take(upto, lo, axis=0, out=no_better, mode="clip")
        else:
            np.take(upto[1:], hi, axis=0, out=tmp, mode="clip")
            no_worse &= tmp
            np.take(upto, lo, axis=0, out=tmp, mode="clip")
            no_better |= tmp
    np.invert(no_better, out=no_better)  # was: better in some objective
    return no_worse, no_better, distinct


def fast_non_dominated_sort(objs: np.ndarray, count: int | None = None) -> list:
    """Partition into dominance fronts (arrays of indices in input order,
    best first); ``fast_non_dominated_sort(objs)[0]`` is the non-dominated
    subset.  With ``count``, peeling stops at the shortest prefix of fronts
    that holds ``count`` or more members.

    Sets of rows are packed 64 to a little-endian word, row i at bit i % 64
    of word i // 64.  Per objective, the rows are sorted and a running OR
    over their bits gives, at each sorted position, the rows up to it.  A
    row takes the set up to the last position of its tie group (the rows no
    worse than it in that objective) and the set before the first (those
    strictly better).  ``no_worse[j]``, the AND over objectives of the
    first, holds j's dominators and j's equal copies; ``no_better[i]``, the
    complement of the OR of the second, holds the rows i is no worse than.
    Ties are those of float compares (``-0.0 == 0.0``, infinities equal),
    and NaN, which compares with nothing, is rejected.  Counting each row's
    copies out of the popcount of ``no_worse`` once gives its dominators.
    When some objective's values are all distinct, no two rows are equal
    and every row is its only copy, so the copies are not counted.  A peel
    step subtracts, from every row, the front's rows no worse than it; the
    front's own rows (each row's copies are in its front) go below zero.  A
    peel step that frees no row while rows remain, which only wrong counts
    can cause, raises ``RuntimeError``.
    """
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    n = objs.shape[0]
    if n == 0:
        raise ValueError("expected a non-empty 2-D array of objective vectors")
    if np.isnan(objs).any():
        raise ValueError("NaN objective values have no dominance order")
    no_worse, no_better, distinct = _row_sets(objs)
    short = np.min_scalar_type(-n - 1)  # signed, holds -n - 1 .. n
    # a byte a word, then words along the rows, so the sum runs down columns
    n_dom = np.ascontiguousarray(np.bitwise_count(no_worse).T).sum(axis=0, dtype=short)
    n_dom -= 1 if distinct else _copies(no_worse, no_better, short)
    fronts = []
    left = n if count is None else min(count, n)
    while True:
        front = (n_dom == 0).nonzero()[0]
        if not front.size:
            # correct dominator counts always free some remaining row
            raise RuntimeError("a peel step found an empty front while rows remain")
        fronts.append(front)
        left -= front.size
        if left <= 0:
            return fronts
        # the front's no_better rows, a byte a bit, 32 rows at a time
        for at in range(0, front.size, 32):
            chunk = no_better[front[at:at + 32]].view(np.uint8)
            n_dom -= np.unpackbits(chunk, axis=1, count=n, bitorder="little").sum(
                axis=0, dtype=np.uint8)


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


def float_rows(a) -> np.ndarray:
    """``a`` as a 2-D float array: ``a`` itself when it already is one."""
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype == np.float64:
        return a
    return np.atleast_2d(np.asarray(a, dtype=float))


def clamp_to_bounds(x: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Project a decision vector (or a batch of rows) into the box: NumPy's
    clip, through the array method, which skips ``np.clip``'s dispatch."""
    return np.asarray(x, dtype=float).clip(bounds.lower, bounds.upper)


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
        xs = float_rows(xs)
        take = min(xs.shape[0], self.remaining)
        paid = xs[:take]
        out = OffspringBatch(paid, self._eval(paid))
        self.used += take
        return out

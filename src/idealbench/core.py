"""Shared domain types and kernels: dominance relations and sorting, box
bounds, simplex lattices, the offspring batch hosts and the estimation
component exchange, and the RNG contract.

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

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol)
        )

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform samples inside the box, shape (count, n)."""
        u = rng.random((count, self.n))
        return self.lower + u * (self.upper - self.lower)


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """Pareto dominance: u is no worse everywhere and strictly better somewhere."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return bool(np.all(u <= v) and np.any(u < v))


def fast_non_dominated_sort(objs: np.ndarray) -> list:
    """Partition into dominance fronts (arrays of indices in input order,
    best first); ``fast_non_dominated_sort(objs)[0]`` is the non-dominated
    subset."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    if objs.shape[0] == 0:
        raise ValueError("expected a non-empty 2-D array of objective vectors")
    # one pairwise compare per objective; an (N, N, m) broadcast reduced
    # over its short last axis is several times slower
    le = objs[:, None, 0] <= objs[None, :, 0]  # [i, j]: i no worse than j
    for j in range(1, objs.shape[1]):
        le &= objs[:, None, j] <= objs[None, :, j]
    dom = le & ~le.T  # [i, j]: i dominates j
    n_dom = dom.sum(axis=0).astype(int)
    fronts = []
    current = np.flatnonzero(n_dom == 0)
    while current.size:
        fronts.append(current)
        n_dom[current] = -1
        n_dom -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dom == 0)
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

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate as many rows of ``xs`` as the budget allows.

        Returns the objective matrix for the evaluated prefix, ``(0, m)``
        when no row is paid for; the caller detects truncation by comparing
        row counts.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        take = min(xs.shape[0], self.remaining)
        out = self._eval(xs[:take])
        self.used += take
        return out


@dataclass
class OffspringBatch:
    """Evaluated offspring of one iteration, tagged by producer."""

    xs: np.ndarray
    fs: np.ndarray
    owner: np.ndarray  # subproblem index per row, -1 for host offspring

    @classmethod
    def empty(cls, n: int, m: int) -> "OffspringBatch":
        return cls(np.empty((0, n)), np.empty((0, m)), np.empty(0, dtype=int))

    @property
    def size(self) -> int:
        return self.xs.shape[0]

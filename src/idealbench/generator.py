"""Parametric generator of biased multi-objective test problems.

Each objective is assembled as ``f_i = w_i * (h_i + sum_j theta[i,j] * g_j)``
from a position part ``h`` (which shapes the trade-off surface and carries a
controllable position bias) and per-objective distance parts ``g`` (which
control how hard it is to reach that surface and can carry their own bias).

The decision space is ``[0,1]^s x [-1,1]^(n-s)``: the first ``s`` variables
set the position on the trade-off surface, the rest set the distance to it.

All functions accept batches: ``x_pos`` has shape (k, s), ``x_dist`` has
shape (k, n-s), and objective outputs have shape (k, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import BoxBounds, simplex_lattice

_THIRD = 1.0 / 3.0


@dataclass(frozen=True)
class GeneratorParams:
    """Full parameter set of one generated problem instance."""

    m: int
    n: int
    s: int
    p: tuple
    c_pos: tuple
    gamma: float
    theta: tuple  # m rows of m distance-mixing weights
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    c_dis: tuple | None = None
    w: tuple | None = None
    inverted: bool = False

    def __post_init__(self):
        if self.w is None:
            object.__setattr__(
                self, "w", tuple(10.0 ** (2 * i) for i in range(self.m))
            )
        if not (1 <= self.s < self.n):
            raise ValueError("need 1 <= s < n")
        if self.s < self.m - 1:
            raise ValueError("need at least m-1 position variables")
        if self.n - self.s < self.m:
            raise ValueError("need at least m distance variables")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        for name, vec, length in (
            ("p", self.p, self.m),
            ("c_pos", self.c_pos, self.m),
            ("w", self.w, self.m),
        ):
            if len(vec) != length:
                raise ValueError(f"{name} must have length {length}")
        if any(wi <= 0 for wi in self.w):
            raise ValueError("scale factors w must be positive")
        if abs(sum(self.c_pos) - 1.0) > 1e-9 or any(c < 0 for c in self.c_pos):
            raise ValueError("c_pos must be non-negative and sum to 1")
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.m, self.m) or np.any(theta < 0):
            raise ValueError("theta must be a non-negative m x m matrix")
        if self.c_dis is None:
            if self.a2 > 0 or self.a4 > 0 or self.a5 > 0:
                raise ValueError("a2, a4 or a5 > 0 requires c_dis")
        else:
            if len(self.c_dis) != self.m:
                raise ValueError("c_dis must have length m")
            if abs(sum(self.c_dis) - 1.0) > 1e-9 or any(c < 0 for c in self.c_dis):
                raise ValueError("c_dis must be non-negative and sum to 1")

    @cached_property
    def bounds(self) -> BoxBounds:
        # built once per instance (cached_property writes the instance dict
        # directly, which a frozen dataclass allows); read-only, as every
        # caller shares it
        lower = np.concatenate([np.zeros(self.s), -np.ones(self.n - self.s)])
        upper = np.ones(self.n)
        lower.flags.writeable = upper.flags.writeable = False
        return BoxBounds(lower, upper)

    @property
    def theta_matrix(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)

    @property
    def w_vector(self) -> np.ndarray:
        return np.asarray(self.w, dtype=float)


def sigma(x_pos: np.ndarray, m: int) -> np.ndarray:
    """Reduce the s position variables to m-1 group means.

    Group i collects the position variables with index congruent to i
    modulo m-1, which makes the position part scalable in s.
    """
    x_pos = np.atleast_2d(np.asarray(x_pos, dtype=float))
    s = x_pos.shape[1]
    if s < m - 1:
        raise ValueError("need at least m-1 position variables")
    out = np.empty((x_pos.shape[0], m - 1))
    for i in range(m - 1):
        out[:, i] = x_pos[:, i::(m - 1)].mean(axis=1)
    return out


def chat(c_pos) -> np.ndarray:
    """Map a simplex center to its m-1 recursive mixing coefficients.

    Zero components of ``c_pos`` are allowed (centers such as (0, 0, 1));
    once a prefix sum reaches 1 the denominator vanishes and the remaining
    coefficients are defined as 0.
    """
    c_pos = np.asarray(c_pos, dtype=float)
    m = c_pos.shape[0]
    out = np.zeros(m - 1)
    prefix = 0.0
    for i in range(m - 1):
        denom = 1.0 - prefix
        if denom < -1e-12:
            raise ValueError("c_pos prefix sums exceed 1")
        if denom <= 1e-15:
            out[i:] = 0.0
            break
        out[i] = (1.0 - prefix - c_pos[i]) / denom
        prefix += c_pos[i]
    return out


def remap(sig: np.ndarray, chat_vals: np.ndarray, gamma: float) -> np.ndarray:
    """Biased remapping of group means into [0,1].

    Below the center the value is pulled toward the center with a power-law
    plateau (minimum 0 at sigma = chat/2); above it the mirrored branch peaks
    at 1 at sigma = (1+chat)/2; sigma in {0, 1} lands back on chat, so the
    extremes of the output cannot be reached by clamping the inputs.
    """
    sig = np.asarray(sig, dtype=float)
    c = np.asarray(chat_vals, dtype=float)
    g = float(gamma)
    # 2^g / c^(g-1) rewritten as 2^g * c^(1-g) so degenerate centers stay finite
    coef_lo = 2.0**g * np.power(c, 1.0 - g)
    coef_hi = 2.0**g * np.power(1.0 - c, 1.0 - g)
    lo = coef_lo * np.abs(sig - c / 2.0) ** g
    hi = 1.0 - coef_hi * np.abs(sig - (1.0 + c) / 2.0) ** g
    out = np.where(sig < c, lo, np.where(sig > c, hi, sig))
    return out


def simplex_map(xhat: np.ndarray) -> np.ndarray:
    """Chain m-1 values in [0,1] into a point on the unit simplex."""
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    k, m1 = xhat.shape
    y = np.empty((k, m1 + 1))
    prod = np.cumprod(xhat, axis=1)
    y[:, 0] = 1.0 - xhat[:, 0]
    for i in range(1, m1):
        y[:, i] = (1.0 - xhat[:, i]) * prod[:, i - 1]
    y[:, m1] = prod[:, m1 - 1]
    return y


def position_value(x_pos: np.ndarray, params: GeneratorParams):
    """Position part of the objectives.

    Returns ``(h, y)`` where ``y`` is the raw simplex image (also consumed by
    the distance part) and ``h_i = y_i^p_i``, or ``1 - y_i^p_i`` for inverted
    instances.
    """
    sig = sigma(x_pos, params.m)
    ch = chat(params.c_pos)
    xhat = remap(sig, ch, params.gamma)
    y = simplex_map(xhat)
    p = np.asarray(params.p, dtype=float)
    h = np.power(y, p)
    if params.inverted:
        h = 1.0 - h
    return h, y


def _normal_matrix(m: int) -> np.ndarray:
    off = 1.0 / math.sqrt(m * (m - 1))
    mat = np.full((m, m), off)
    np.fill_diagonal(mat, -math.sqrt((m - 1) / m))
    return mat


def distance_ratio(y: np.ndarray, c_dis) -> np.ndarray:
    """Relative distance of simplex points from the center ``c_dis``.

    0 at the center, 1 at the farthest simplex vertex; level sets are
    simplex-shaped contours around the center.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    c = np.asarray(c_dis, dtype=float)
    m = c.shape[0]
    nmat = _normal_matrix(m)
    r = ((y - c) @ nmat.T).max(axis=1)
    r0 = ((np.eye(m) - c) @ nmat.T).max()
    return np.clip(r / r0, 0.0, 1.0)


def scale_b(ell: np.ndarray, beta: float, m: int) -> np.ndarray:
    """Position-dependent scale in [0,1]; beta = 0 disables it (b == 1)."""
    ell = np.asarray(ell, dtype=float)
    base = np.sin(0.5 * np.pi * ell ** (m - 1))
    return np.power(base, float(beta))


def _distance_group_slices(params: GeneratorParams):
    # distance variable j (0-based within x_dist) belongs to group j % m
    return [slice(i, None, params.m) for i in range(params.m)]


def _distance_anchor(ell: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Per-variable optimum of the distance variables, shape (k, n-s).

    Both the evaluator and the optimal-set sampler call this, so sampled
    optima reproduce ``t = 0`` bitwise.
    """
    n, s = params.n, params.s
    j = np.arange(s + 1, n + 1, dtype=float)  # 1-based variable indices
    phase = (n + 2) * j * np.pi / (2 * n)
    b_shape = scale_b(ell, params.a2, params.m)
    arg = params.a5 * np.pi * ell[:, None] + phase[None, :]
    return 0.9 * b_shape[:, None] * np.cos(arg)


def _ell_of(y: np.ndarray, params: GeneratorParams) -> np.ndarray:
    if params.c_dis is None:
        return np.zeros(y.shape[0])
    return distance_ratio(y, params.c_dis)


def _distance_from_ell(
    x_dist: np.ndarray, ell: np.ndarray, params: GeneratorParams
) -> np.ndarray:
    t = x_dist - _distance_anchor(ell, params)
    powered = np.abs(t) ** params.a3
    weight = params.a1 * scale_b(ell, params.a4, params.m) + 1.0
    out = np.empty((x_dist.shape[0], params.m))
    for i, sl in enumerate(_distance_group_slices(params)):
        out[:, i] = weight * powered[:, sl].mean(axis=1)
    return out


def distance_values(
    x_pos: np.ndarray, x_dist: np.ndarray, params: GeneratorParams
) -> np.ndarray:
    """Raw distance parts ``g`` before mixing, shape (k, m); all >= 0."""
    x_pos = np.atleast_2d(np.asarray(x_pos, dtype=float))
    x_dist = np.atleast_2d(np.asarray(x_dist, dtype=float))
    _, y = position_value(x_pos, params)
    return _distance_from_ell(x_dist, _ell_of(y, params), params)


def evaluate(x: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Objective vectors for a batch of decision vectors, shape (k, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.n:
        raise ValueError(f"expected {params.n} variables, got {x.shape[1]}")
    b = params.bounds
    if np.any(x < b.lower - 1e-9) or np.any(x > b.upper + 1e-9):
        raise ValueError("decision vector outside the box bounds")
    x_pos, x_dist = x[:, : params.s], x[:, params.s :]
    h, y = position_value(x_pos, params)
    g = _distance_from_ell(x_dist, _ell_of(y, params), params)
    return (h + g @ params.theta_matrix.T) * params.w_vector


def sample_pareto_set(
    params: GeneratorParams, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Decision vectors with all distance parts exactly zero, shape (count, n)."""
    x_pos = rng.random((count, params.s))
    _, y = position_value(x_pos, params)
    ell = _ell_of(y, params)
    x_dist = _distance_anchor(ell, params)
    return np.hstack([x_pos, x_dist])


def _simplex_lattice(m: int, count: int) -> np.ndarray:
    h = max(count, 2) - 1
    if m == 3:
        # smallest lattice resolution with at least `count` nodes
        h = 1
        while (h + 1) * (h + 2) // 2 < count:
            h += 1
    return simplex_lattice(m, h)


def sample_pareto_front(
    params: GeneratorParams,
    count: int,
    rng: np.random.Generator | None = None,
    method: str = "grid",
) -> np.ndarray:
    """Objective vectors on the trade-off surface, mutually non-dominated.

    ``grid`` gives a structured simplex lattice (default; exact size may
    slightly exceed ``count`` for m = 3); ``random`` draws uniformly on the
    simplex and needs ``rng``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if method == "grid":
        y = _simplex_lattice(params.m, count)
    elif method == "random":
        if rng is None:
            raise ValueError("random sampling needs an rng")
        e = rng.standard_exponential((count, params.m))
        y = e / e.sum(axis=1, keepdims=True)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    p = np.asarray(params.p, dtype=float)
    h = np.power(y, p)
    if params.inverted:
        h = 1.0 - h
    return h * params.w_vector


@dataclass(frozen=True)
class GeneratedProblem:
    """A generated instance packaged behind the common problem interface."""

    name: str
    params: GeneratorParams
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", self.params.m)
        object.__setattr__(self, "n", self.params.n)

    @property
    def bounds(self) -> BoxBounds:
        return self.params.bounds

    @property
    def ideal(self) -> np.ndarray:
        return np.zeros(self.m)

    @property
    def nadir(self) -> np.ndarray:
        return self.params.w_vector.copy()

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return evaluate(np.asarray(x), self.params)[0]

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        return evaluate(xs, self.params)

    def sample_pareto_set(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return sample_pareto_set(self.params, count, rng)

    def sample_pareto_front(self, count: int, **kwargs) -> np.ndarray:
        return sample_pareto_front(self.params, count, **kwargs)


def _rows() -> dict:
    eye2 = ((1.0, 0.0), (0.0, 1.0))
    eye3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    half2 = ((0.5, 0.5), (0.5, 0.5))
    th33 = ((0.33,) * 3,) * 3
    th62 = ((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6))
    third3 = (_THIRD, _THIRD, _THIRD)
    return {
        "mop1": dict(m=2, n=7, s=5, p=(1, 1), c_pos=(0.1, 0.9), gamma=0.1,
                     theta=eye2, a1=1, a2=0, a3=1, a4=0, a5=0),
        "mop2": dict(m=2, n=7, s=5, p=(0.5, 0.5), c_pos=(0.5, 0.5), gamma=0.2,
                     theta=eye2, a1=1, a2=0, a3=2, a4=0, a5=0),
        "mop3": dict(m=2, n=7, s=1, p=(1, 1), c_pos=(0.3, 0.7), gamma=1,
                     theta=half2, a1=12, a2=0, a3=0.1, a4=0, a5=0),
        "mop4": dict(m=2, n=7, s=1, p=(0.5, 2), c_pos=(0.3, 0.7), gamma=1,
                     theta=((0.0, 0.0), (0.5, 0.5)), a1=6, a2=0, a3=0.1, a4=0, a5=0),
        "mop5": dict(m=2, n=7, s=1, p=(2, 2), c_pos=(0.5, 0.5), gamma=0.1,
                     theta=half2, a1=6, a2=0, a3=0.25, a4=0, a5=0),
        "mop6": dict(m=2, n=7, s=1, p=(0.5, 0.5), c_pos=(0.9, 0.1), gamma=0.2,
                     theta=((0.8, 0.2), (0.2, 0.8)), a1=3, a2=0, a3=0.5, a4=0, a5=0),
        "mop7": dict(m=2, n=7, s=1, p=(2, 2), c_pos=(0, 1), gamma=1,
                     theta=half2, a1=6, a2=4, a3=2, a4=4, a5=3, c_dis=(0.5, 0.5)),
        "mop8": dict(m=2, n=7, s=1, p=(0.5, 2), c_pos=(0, 1), gamma=1,
                     theta=((0.8, 0.2), (0.2, 0.8)), a1=12, a2=1, a3=2, a4=1, a5=3,
                     c_dis=(0, 1)),
        "mop9": dict(m=2, n=7, s=1, p=(2, 2), c_pos=(0.5, 0.5), gamma=0.2,
                     theta=((0.8, 0.2), (0.8, 0.2)), a1=6, a2=1, a3=2, a4=1, a5=3,
                     c_dis=(0.5, 0.5)),
        "mop10": dict(m=2, n=7, s=1, p=(0.5, 2), c_pos=(0, 1), gamma=0.1,
                      theta=eye2, a1=3, a2=2, a3=0.8, a4=2, a5=0, c_dis=(0, 1)),
        "mop11": dict(m=3, n=11, s=2, p=(2, 2, 0.5), c_pos=(0.2, 0.2, 0.6), gamma=1,
                      theta=th33, a1=12, a2=0, a3=0.1, a4=0, a5=0),
        "mop12": dict(m=3, n=11, s=2, p=(0.5, 0.5, 0.5), c_pos=third3, gamma=0.2,
                      theta=th62, a1=6, a2=0, a3=0.5, a4=0, a5=0),
        "mop13": dict(m=3, n=11, s=2, p=(2, 2, 2), c_pos=(0, 0, 1), gamma=1,
                      theta=th33, a1=6, a2=4, a3=2, a4=4, a5=3, c_dis=third3),
        "mop14": dict(m=3, n=11, s=2, p=(0.5, 0.5, 2), c_pos=(0, 0, 1), gamma=1,
                      theta=th62, a1=12, a2=1, a3=2, a4=1, a5=3, c_dis=third3),
        "mop15": dict(m=3, n=11, s=2, p=(2, 2, 2), c_pos=third3, gamma=0.2,
                      theta=((0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7)),
                      a1=6, a2=1, a3=2, a4=1, a5=3, c_dis=third3),
        "mop16": dict(m=3, n=11, s=2, p=(0.5, 0.5, 2), c_pos=(0, 0, 1), gamma=0.1,
                      theta=eye3, a1=3, a2=2, a3=0.8, a4=2, a5=0, c_dis=(0, 0, 1)),
    }


def preset_names() -> list:
    """All known instance names, inverted variants last."""
    base = [f"mop{i}" for i in range(1, 17)]
    return base + [f"mop{i}-inv" for i in range(11, 17)]


def preset(name: str) -> GeneratorParams:
    """Look up one named instance's parameters."""
    key = name.lower()
    rows = _rows()
    inverted = False
    if key.endswith("-inv"):
        key = key[:-4]
        inverted = True
        if key not in {f"mop{i}" for i in range(11, 17)}:
            raise KeyError(f"no inverted variant defined for {name!r}")
    if key not in rows:
        raise KeyError(f"unknown problem {name!r}")
    return GeneratorParams(inverted=inverted, **rows[key])


def get_problem(name: str) -> GeneratedProblem:
    """Named instance packaged behind the common problem interface."""
    return GeneratedProblem(name=name.lower(), params=preset(name))

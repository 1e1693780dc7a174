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

    # The members below are built once per instance (cached_property writes
    # the instance dict directly, which a frozen dataclass allows) and are
    # read-only, as every caller shares them.

    @cached_property
    def bounds(self) -> BoxBounds:
        lower = np.concatenate([np.zeros(self.s), -np.ones(self.n - self.s)])
        upper = np.ones(self.n)
        return BoxBounds(_frozen(lower), _frozen(upper))

    @cached_property
    def theta_matrix(self) -> np.ndarray:
        return _frozen(np.asarray(self.theta, dtype=float))

    @cached_property
    def w_vector(self) -> np.ndarray:
        return _frozen(np.asarray(self.w, dtype=float))

    @cached_property
    def p_vector(self) -> np.ndarray:
        return _frozen(np.asarray(self.p, dtype=float))

    @cached_property
    def chat_vals(self) -> np.ndarray:
        """``chat(c_pos)``, the remap's mixing coefficients."""
        return _frozen(chat(self.c_pos))

    @cached_property
    def distance_phase(self) -> np.ndarray:
        """Per-variable phase of the distance anchors, shape (n - s,)."""
        n = self.n
        j = np.arange(self.s + 1, n + 1, dtype=float)  # 1-based variable indices
        return _frozen((n + 2) * j * np.pi / (2 * n))

    @cached_property
    def ratio_frame(self) -> tuple:
        """``(c, normal matrix, r0)`` of ``_ratio`` for ``c_dis``."""
        c, nmat, r0 = _ratio_frame(self.c_dis)
        return _frozen(c), _frozen(nmat), r0

    @cached_property
    def bounds_tolerance(self) -> tuple:
        """The box bounds widened by 1e-9, which ``evaluate`` still accepts."""
        b = self.bounds
        return _frozen(b.lower - 1e-9), _frozen(b.upper + 1e-9)

    @cached_property
    def remap_frame(self) -> tuple:
        """``_remap``'s centres, coefficients and exponent for ``chat_vals``
        and ``gamma``."""
        *arrays, g = _remap_frame(self.chat_vals, self.gamma)
        return (*map(_frozen, arrays), g)

    @cached_property
    def position_groups(self) -> tuple:
        """``(slice, size)`` of each of the m-1 position-variable groups."""
        return _groups(self.s, self.m - 1)

    @cached_property
    def distance_groups(self) -> tuple:
        """``(slice, size)`` of each of the m distance-variable groups."""
        return _groups(self.n - self.s, self.m)

    @cached_property
    def flat_distance(self) -> tuple:
        """Distance anchor (1, n-s) and weight (1,) of an instance without a
        distance centre, where ``ell`` is identically 0."""
        return tuple(map(_frozen, _anchor_and_weight(np.zeros(1), self)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _groups(count: int, size: int) -> tuple:
    # variable j belongs to group j % size, which makes the position part
    # scalable in s
    return tuple((slice(i, None, size), len(range(i, count, size)))
                 for i in range(size))


def _group_means(block: np.ndarray, groups: tuple) -> np.ndarray:
    # ndarray.mean is exactly add.reduce, then a division by the count; calling
    # them directly skips NumPy's Python-level wrapper (not @: BLAS sums in a
    # different order)
    out = np.empty((block.shape[0], len(groups)))
    for i, (sl, count) in enumerate(groups):
        out[:, i] = np.add.reduce(block[:, sl], axis=1) / count
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


def _remap_frame(chat_vals, gamma: float) -> tuple:
    c = np.asarray(chat_vals, dtype=float)
    g = float(gamma)
    # 2^g / c^(g-1) rewritten as 2^g * c^(1-g) so degenerate centers stay finite
    coef_lo = 2.0**g * np.power(c, 1.0 - g)
    coef_hi = 2.0**g * np.power(1.0 - c, 1.0 - g)
    return c, c / 2.0, (1.0 + c) / 2.0, coef_lo, coef_hi, g


def _remap(sig: np.ndarray, c: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray,
           coef_lo: np.ndarray, coef_hi: np.ndarray, g: float) -> np.ndarray:
    """Biased remapping of group means into [0,1].

    Below the center the value is pulled toward the center with a power-law
    plateau (minimum 0 at sigma = chat/2); above it the mirrored branch peaks
    at 1 at sigma = (1+chat)/2; sigma in {0, 1} lands back on chat, so the
    extremes of the output cannot be reached by clamping the inputs.
    """
    lo = coef_lo * np.abs(sig - c_lo) ** g
    hi = 1.0 - coef_hi * np.abs(sig - c_hi) ** g
    return np.where(sig < c, lo, np.where(sig > c, hi, sig))


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
    """Position part of the objectives for position variables of shape (k, s).

    Returns ``(h, y)`` where ``y`` is the raw simplex image (also consumed by
    the distance part) and ``h_i = y_i^p_i``, or ``1 - y_i^p_i`` for inverted
    instances.
    """
    sig = _group_means(x_pos, params.position_groups)
    y = simplex_map(_remap(sig, *params.remap_frame))
    h = np.power(y, params.p_vector)
    if params.inverted:
        h = 1.0 - h
    return h, y


def _normal_matrix(m: int) -> np.ndarray:
    off = 1.0 / math.sqrt(m * (m - 1))
    mat = np.full((m, m), off)
    np.fill_diagonal(mat, -math.sqrt((m - 1) / m))
    return mat


def _ratio_frame(c_dis) -> tuple:
    c = np.asarray(c_dis, dtype=float)
    m = c.shape[0]
    nmat = _normal_matrix(m)
    r0 = float(((np.eye(m) - c) @ nmat.T).max())
    return c, nmat, r0


def _ratio(y: np.ndarray, c: np.ndarray, nmat: np.ndarray,
           r0: float) -> np.ndarray:
    """Relative distance of simplex points from the center ``c``.

    0 at the center, 1 at the farthest simplex vertex; level sets are
    simplex-shaped contours around the center.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    r = ((y - c) @ nmat.T).max(axis=1)
    return np.clip(r / r0, 0.0, 1.0)


def scale_b(ell: np.ndarray, beta: float, m: int) -> np.ndarray:
    """Position-dependent scale in [0,1]; beta = 0 disables it (b == 1)."""
    ell = np.asarray(ell, dtype=float)
    base = np.sin(0.5 * np.pi * ell ** (m - 1))
    return np.power(base, float(beta))


def _distance_anchor(ell: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Per-variable optimum of the distance variables, shape (k, n-s)."""
    b_shape = scale_b(ell, params.a2, params.m)
    arg = params.a5 * np.pi * ell[:, None] + params.distance_phase[None, :]
    return 0.9 * b_shape[:, None] * np.cos(arg)


def _anchor_and_weight(ell: np.ndarray, params: GeneratorParams) -> tuple:
    return (_distance_anchor(ell, params),
            params.a1 * scale_b(ell, params.a4, params.m) + 1.0)


def _ell_of(y: np.ndarray, params: GeneratorParams) -> np.ndarray:
    if params.c_dis is None:
        return np.zeros(y.shape[0])
    return _ratio(y, *params.ratio_frame)


def _distance_frame(y: np.ndarray, params: GeneratorParams) -> tuple:
    """Distance anchor and weight of the rows with simplex images ``y``.

    Without a distance centre both are the instance's constants, one row for
    every row.  The evaluator and the optimal-set sampler both take them from
    here, so sampled optima reproduce ``t = 0`` bitwise.
    """
    if params.c_dis is None:
        return params.flat_distance
    return _anchor_and_weight(_ell_of(y, params), params)


def _distance_from_y(
    x_dist: np.ndarray, y: np.ndarray, params: GeneratorParams
) -> np.ndarray:
    anchor, weight = _distance_frame(y, params)
    powered = np.abs(x_dist - anchor) ** params.a3
    return weight[:, None] * _group_means(powered, params.distance_groups)


def evaluate(x: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Objective vectors for a batch of decision vectors, shape (k, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.n:
        raise ValueError(f"expected {params.n} variables, got {x.shape[1]}")
    lower, upper = params.bounds_tolerance
    if (x < lower).any() or (x > upper).any():
        raise ValueError("decision vector outside the box bounds")
    x_pos, x_dist = x[:, : params.s], x[:, params.s :]
    h, y = position_value(x_pos, params)
    g = _distance_from_y(x_dist, y, params)
    return (h + g @ params.theta_matrix.T) * params.w_vector


def sample_pareto_set(
    params: GeneratorParams, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Decision vectors with all distance parts exactly zero, shape (count, n)."""
    x_pos = rng.random((count, params.s))
    _, y = position_value(x_pos, params)
    anchor, _ = _distance_frame(y, params)
    return np.hstack([x_pos, np.broadcast_to(anchor, (count, params.n - params.s))])


def _simplex_lattice(m: int, count: int) -> np.ndarray:
    h = max(count, 2) - 1
    if m == 3:
        # smallest lattice resolution with at least `count` nodes
        h = 1
        while (h + 1) * (h + 2) // 2 < count:
            h += 1
    return simplex_lattice(m, h)


def sample_pareto_front(params: GeneratorParams, count: int) -> np.ndarray:
    """Objective vectors on the trade-off surface, mutually non-dominated:
    the image of a simplex lattice, whose size may slightly exceed ``count``
    for m = 3."""
    if count < 1:
        raise ValueError("count must be >= 1")
    y = _simplex_lattice(params.m, count)
    h = np.power(y, params.p_vector)
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

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        return evaluate(xs, self.params)

    def sample_pareto_set(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return sample_pareto_set(self.params, count, rng)

    def sample_pareto_front(self, count: int) -> np.ndarray:
        return sample_pareto_front(self.params, count)


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
    if key not in preset_names():
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(preset_names())}")
    base = key.removesuffix("-inv")
    return GeneratorParams(inverted=base != key, **_rows()[base])


def get_problem(name: str) -> GeneratedProblem:
    """Named instance packaged behind the common problem interface."""
    return GeneratedProblem(name=name.lower(), params=preset(name))

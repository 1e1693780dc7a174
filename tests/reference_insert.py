"""SMS-EMOA's insert, the DE/PM variation and the generator's evaluation as
first written, kept as the oracle that the leaner versions must match byte
for byte.

`ReferenceInsert` takes over `SmsEmoaHost._insert` with the original code,
which runs the original level update and contribution kernel below, and
keeps the rest of the host: a host whose state is copied into one can take
the same newcomer as the shipped host, and the two states be compared.
`de_pm_offspring` (with its `polynomial_mutation` and `clamp_to_bounds`)
and `evaluate` (with the group means, remap and simplex map it runs) are
the original functions.  The one change: `position_value` rebuilds the
remap frame in its original layout, since the parameters now cache the
stacked one.  Do not optimize this file.
"""

import numpy as np

from idealbench.core import BoxBounds
from idealbench.generator import GeneratorParams, _distance_frame
from idealbench.hosts import DE_CR, DE_F, PM_ETA, RANGE_GUARD, SmsEmoaHost
from idealbench.metrics import hv_sweep


# -- variation -------------------------------------------------------------


def clamp_to_bounds(x: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Project a decision vector (or a batch of rows) into the box."""
    x = np.asarray(x, dtype=float)
    return np.clip(x, bounds.lower, bounds.upper)


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


# -- insert ----------------------------------------------------------------


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


class ReferenceInsert(SmsEmoaHost):
    """`SmsEmoaHost` with the original insert."""

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


# -- evaluation ------------------------------------------------------------


def _group_means(block: np.ndarray, groups: tuple) -> np.ndarray:
    # ndarray.mean is exactly add.reduce, then a division by the count; calling
    # them directly skips NumPy's Python-level wrapper (not @: BLAS sums in a
    # different order)
    out = np.empty((block.shape[0], len(groups)))
    for i, (sl, count) in enumerate(groups):
        out[:, i] = np.add.reduce(block[:, sl], axis=1) / count
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
    # the frame the parameters cached, rebuilt in its earlier layout
    y = simplex_map(_remap(sig, *_remap_frame(params.chat_vals, params.gamma)))
    h = np.power(y, params.p_vector)
    if params.inverted:
        h = 1.0 - h
    return h, y


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
    lower, upper = params.bounds.lower - 1e-9, params.bounds.upper + 1e-9
    if (x < lower).any() or (x > upper).any():
        raise ValueError("decision vector outside the box bounds")
    x_pos, x_dist = x[:, : params.s], x[:, params.s :]
    h, y = position_value(x_pos, params)
    g = _distance_from_y(x_dist, y, params)
    return (h + g @ params.theta_matrix.T) * params.w_vector

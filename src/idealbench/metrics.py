"""Evaluation metrics: ideal-estimation error, exact hypervolume for two and
three objectives, a Monte Carlo hypervolume oracle, and the rank-sum test
used by the reporting layer."""

from __future__ import annotations

import math
import warnings
from bisect import insort
from operator import itemgetter

import numpy as np


def e_metric(
    z_e: np.ndarray,
    z_ide: np.ndarray,
    z_nad: np.ndarray,
    squared: bool = True,
) -> float:
    """Error of an estimated ideal point, normalized per objective.

    With ``squared`` (the default) this is the Euclidean norm of the
    normalized component errors; ``squared=False`` keeps the raw normalized
    terms under the square root instead.  Estimates below the true ideal can
    only arise off-problem and are clamped to zero error with a warning.
    """
    z_e = np.asarray(z_e, dtype=float)
    z_ide = np.asarray(z_ide, dtype=float)
    z_nad = np.asarray(z_nad, dtype=float)
    if np.any(z_nad <= z_ide):
        raise ValueError("nadir must exceed ideal componentwise")
    terms = (z_e - z_ide) / (z_nad - z_ide)
    if np.any(terms < 0):
        warnings.warn("estimate below the true ideal; clamping to zero error")
        terms = np.maximum(terms, 0.0)
    if squared:
        return float(math.sqrt(float(np.sum(terms**2))))
    return float(math.sqrt(float(np.sum(terms))))


def _staircase(pts: list, r0: float, r1: float) -> float:
    """Area dominated by ``(f1, f2)`` pairs sorted ascending, all below
    ``(r0, r1)``."""
    hv = 0.0
    cur = r1
    for f1, f2 in pts:
        if f2 < cur:
            hv += (r0 - f1) * (cur - f2)
            cur = f2
    return hv


def _hv2d(front: np.ndarray, ref: np.ndarray) -> float:
    pts = front[np.all(front < ref, axis=1)].tolist()
    pts.sort()
    r0, r1 = ref.tolist()
    return _staircase(pts, r0, r1)


def _hv3d(front: np.ndarray, ref: np.ndarray) -> float:
    pts = front[np.all(front < ref, axis=1)].tolist()
    pts.sort(key=itemgetter(2))  # stable: ties keep their input order
    r0, r1, r2 = ref.tolist()
    stair = []  # (f1, f2) of the points below the current slab, sorted
    hv = 0.0
    i = 0
    k = len(pts)
    while i < k:
        z = pts[i][2]
        # absorb ties so each slab has positive height
        j = i
        while j < k and pts[j][2] == z:
            insort(stair, (pts[j][0], pts[j][1]))
            j += 1
        z_next = pts[j][2] if j < k else r2
        hv += _staircase(stair, r0, r1) * (z_next - z)
        i = j
    return hv


def hv_exact(front: np.ndarray, ref: np.ndarray) -> float:
    """Exact dominated hypervolume for 2 or 3 objectives.

    Points that do not strictly dominate the reference point are discarded.
    2-D sorts the points and sums the staircase: O(k log k).  3-D sweeps
    slabs along the last objective, inserting each level's points into the
    sorted staircase and summing it once per slab: O(k^2).  The sweeps run
    on Python floats, which costs far less than numpy rows on the few-point
    boxes of ``hosts.hv_contributions``.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if front.shape[0] == 0:
        return 0.0
    m = front.shape[1]
    if m == 2:
        return _hv2d(front, ref)
    if m == 3:
        return _hv3d(front, ref)
    raise ValueError("exact hypervolume supports 2 or 3 objectives only")


def hv_normalized(
    objs: np.ndarray,
    ideal: np.ndarray,
    nadir: np.ndarray,
    ref_value: float = 1.1,
) -> float:
    """Hypervolume after normalizing objectives by the true front's range,
    with the reference point at ``ref_value`` in every coordinate."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    ideal = np.asarray(ideal, dtype=float)
    nadir = np.asarray(nadir, dtype=float)
    scaled = (objs - ideal) / (nadir - ideal)
    ref = np.full(objs.shape[1], ref_value)
    return hv_exact(scaled, ref)


def hv_monte_carlo(
    front: np.ndarray,
    ref: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> tuple:
    """Monte Carlo hypervolume estimate with its standard error.

    Samples uniformly in the box spanned by the front's componentwise
    minimum and the reference point; used as an independent oracle for the
    exact routines.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    keep = np.all(front < ref, axis=1)
    pts = front[keep]
    if pts.shape[0] == 0:
        return 0.0, 0.0
    lo = pts.min(axis=0)
    box_vol = float(np.prod(ref - lo))
    hit = 0
    chunk = 100_000
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        u = lo + rng.random((take, ref.shape[0])) * (ref - lo)
        covered = np.zeros(take, dtype=bool)
        for p in pts:
            covered |= np.all(u >= p, axis=1)
        hit += int(covered.sum())
        done += take
    frac = hit / samples
    est = box_vol * frac
    se = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return est, se


def midranks(values) -> np.ndarray:
    """1-based ascending ranks; tied values share the mean of their
    positions, and NaNs form one tie ranked after every number."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")  # NaNs sort last
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and (sorted_vals[j] == sorted_vals[i]
                                   or np.isnan(sorted_vals[i])):
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0  # midrank, 1-based
        i = j
    return ranks


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b) -> tuple:
    """Two-sided rank-sum test: returns (p_value, z_statistic).

    Uses midranks for ties and the normal approximation with continuity
    correction and tie-corrected variance.  A positive z means sample ``a``
    tends to larger values.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 < 5 or n2 < 5:
        raise ValueError("rank-sum test needs at least 5 observations per sample")
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    w = float(ranks[:n1].sum())
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts))
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_w <= 0.0:
        return 1.0, 0.0
    diff = w - mean_w
    cc = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
    z = (diff - cc) / math.sqrt(var_w)
    p = 2.0 * _norm_sf(abs(z))
    return min(p, 1.0), z


def rank_sum_verdict(a, b, alpha: float = 0.05, larger_is_better: bool = False) -> str:
    """'+' when ``a`` is significantly better than ``b``, '-' when worse,
    '=' otherwise."""
    p, z = wilcoxon_rank_sum(a, b)
    if p >= alpha or z == 0.0:
        return "="
    a_larger = z > 0
    better = a_larger == larger_is_better
    return "+" if better else "-"

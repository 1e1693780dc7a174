"""Independent oracles the tests check the shipped kernels against.

``hv_monte_carlo`` estimates a hypervolume by sampling, with no code in
common with the exact sweeps; ``dominates`` is Pareto dominance between two
vectors, the brute-force definition the non-dominated sorts are held to.
"""

import math

import numpy as np


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
        cols = np.ascontiguousarray(u.T)  # one compare per objective column
        covered = np.zeros(take, dtype=bool)
        for p in pts:
            inside = cols[0] >= p[0]
            for j in range(1, cols.shape[0]):
                inside &= cols[j] >= p[j]
            covered |= inside
        hit += int(covered.sum())
        done += take
    frac = hit / samples
    est = box_vol * frac
    se = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return est, se


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """Pareto dominance: u is no worse everywhere and strictly better somewhere."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return bool(np.all(u <= v) and np.any(u < v))

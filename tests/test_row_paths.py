"""The one-row paths of `generator.evaluate` and `hosts.de_pm_offspring`
against their batch bodies run on the same row.

SMS-EMOA evaluates and varies one child at a time, so both functions take
a single row on Python floats and keep NumPy only for the powers, sines,
cosines and matrix products.  Each one-row result must be byte-equal to
the batch body's on that row (`_evaluate_rows`, `_de_pm_rows`), and a
variation must leave the random generator in the same state.  The rows
cover every instance, the box corners, group means on the remap centre,
position variables at 0 and 1, signed zeros and distance variables on
their anchors, and rows just outside the box must raise on both paths;
the variation calls cover 0, 1 and 2 or more mutated entries and children
clamped onto each bound.  The checks run once in this
process and once in a child process kept out of NumPy's AVX-512 kernels.
"""

import numpy as np
import pytest

from idealbench import generator as gen
from idealbench import hosts
from idealbench.core import make_rng

from . import reference_insert
from .dispatch import check_without_avx512


def evaluation_rows(params, rng) -> np.ndarray:
    """A few hundred rows inside the box, led by the hard cases."""
    b = params.bounds
    s, n = params.s, params.n

    def uniform(count):
        return b.sample(count, rng)

    corners = np.where(rng.random((40, n)) < 0.5, b.lower, b.upper)
    centred = uniform(40)
    centred[:, :s] = [params.chat_vals[j % (params.m - 1)] for j in range(s)]
    ends = uniform(40)
    ends[:, :s] = rng.random((40, s)) < 0.5
    zeros = uniform(20)
    zeros[rng.random((20, n)) < 0.3] = -0.0
    optima = gen.sample_pareto_set(params, 20, rng)
    return np.vstack([b.lower, b.upper, corners, centred, ends, zeros, optima,
                      uniform(200)])


def outside_rows(params, rng) -> np.ndarray:
    """Rows 5e-10 past a bound: below 0 in a position variable, above 1 in
    a distance variable."""
    edge = params.bounds.sample(10, rng)
    edge[:5, 0] = -5e-10
    edge[5:, -1] = 1 + 5e-10
    return edge


def check_evaluations() -> None:
    rng = make_rng(23)
    exponents = set()
    for name in gen.preset_names():
        params = gen.preset(name)
        assert params.row_frame is not None, name
        exponents |= {params.a3, params.remap_frame[-1]}
        xs = evaluation_rows(params, rng)
        centred = 0
        for i in range(xs.shape[0]):
            row = xs[i:i + 1]
            got = gen.evaluate(row, params)
            want = (gen._evaluate_rows(row, params),
                    reference_insert.evaluate(row, params))
            assert all(got.tobytes() == w.tobytes() for w in want), (name, i)
            assert got.shape == (1, params.m)
            sig = gen._group_means(row[:, :params.s], params.position_groups)
            centred += bool((sig == params.chat_vals).all())
        assert centred, f"{name}: no row has its group means on the remap centre"
        # the box check is exact: past a bound, the one-row path and the
        # batch body's check both raise
        edge = outside_rows(params, rng)
        for i in range(edge.shape[0]):
            with pytest.raises(ValueError, match="outside the box bounds"):
                gen.evaluate(edge[i:i + 1], params)
        with pytest.raises(ValueError, match="outside the box bounds"):
            gen.evaluate(edge, params)
    # a3 = 2 and 0.5 take NumPy's square and sqrt fast paths for **
    assert {2, 0.5, 1.0} <= exponents


def check_variations() -> None:
    covered = dict.fromkeys(("nothing mutated", "one mutated", "two or more mutated",
                             "clamped at the lower bound",
                             "clamped at the upper bound"), 0)
    for name in ("mop2", "mop4", "mop11"):
        bounds = gen.preset(name).bounds
        lower, upper, n = bounds.lower, bounds.upper, bounds.n
        rng = make_rng(230)
        for seed in range(600):
            base, diff_a, diff_b = bounds.sample(3, rng)[:, None]
            near = rng.random((1, n)) * 0.02 * (upper - lower)
            if seed % 3 == 0:  # on the corners, where a DE step leaves the box
                base = np.where(rng.random((1, n)) < 0.5, lower, upper)
            elif seed % 3 == 1:  # near them with no DE step, where PM's first
                # power is not tiny
                base = np.where(rng.random((1, n)) < 0.5, lower + near, upper - near)
                diff_b = diff_a
            mine, theirs = make_rng(seed), make_rng(seed)
            child = hosts.de_pm_offspring(base, diff_a, diff_b, mine, bounds)
            want = hosts._de_pm_rows(base, diff_a, diff_b, theirs, bounds)
            assert child.tobytes() == want.tobytes() and child.shape == (1, n), (name, seed)
            assert mine.bit_generator.state == theirs.bit_generator.state, (name, seed)
            # the draws before the mutation's (crossover, forced index), then its own
            draw = make_rng(seed)
            draw.random((1, n))
            draw.integers(0, n)
            mutated = np.count_nonzero(draw.random((1, n)) < 1.0 / n)
            covered[("nothing mutated", "one mutated")[mutated]
                    if mutated < 2 else "two or more mutated"] += 1
            covered["clamped at the lower bound"] += bool(((want == lower) & (base != lower)).any())
            covered["clamped at the upper bound"] += bool(((want == upper) & (base != upper)).any())
    missing = [key for key, count in covered.items() if not count]
    assert not missing, f"no variation covers {missing}"


def check_row_paths() -> None:
    check_evaluations()
    check_variations()


def test_one_row_paths_byte_equal_to_the_batch_bodies():
    check_row_paths()


def test_one_row_paths_byte_equal_without_avx512():
    check_without_avx512("test_row_paths", "check_row_paths")


def test_groups_of_eight_or_more_take_the_batch_body():
    # NumPy sums 8 or more terms pairwise, which the one-row path does not
    params = gen.GeneratorParams(m=2, n=12, s=9, p=(1, 1), c_pos=(0.5, 0.5),
                                 gamma=0.5, theta=((1.0, 0.0), (0.0, 1.0)),
                                 a1=1, a2=0, a3=1, a4=0, a5=0)
    assert params.row_frame is None
    x = params.bounds.sample(1, make_rng(0))
    assert gen.evaluate(x, params).tobytes() == reference_insert.evaluate(x, params).tobytes()


def test_zero_rows_draw_nothing():
    bounds = gen.preset("mop2").bounds
    rng = make_rng(5)
    state = rng.bit_generator.state
    empty = np.empty((0, bounds.n))
    child = hosts.de_pm_offspring(empty, empty, empty, rng, bounds)
    assert child.shape == (0, bounds.n) and child.dtype == np.float64
    assert rng.bit_generator.state == state

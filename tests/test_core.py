import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench.core import (BoxBounds, EvaluationBudget, clamp_to_bounds,
                             fast_non_dominated_sort, make_rng)
from idealbench.generator import get_problem

from .oracles import dominates


def brute_force_non_dominated(objs):
    keep = []
    for i in range(len(objs)):
        if not any(dominates(objs[j], objs[i]) for j in range(len(objs)) if j != i):
            keep.append(i)
    return keep


class TestDominates:
    def test_strict_improvement(self):
        assert dominates([0, 0], [1, 1])

    def test_incomparable(self):
        assert not dominates([0, 1], [1, 0])
        assert not dominates([1, 0], [0, 1])

    def test_equality_is_not_dominance(self):
        assert not dominates([0, 0], [0, 0])

    def test_weak_improvement(self):
        assert dominates([0, 1], [0, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([0, 0], [0, 0, 0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=4))
    def test_irreflexive(self, vec):
        assert not dominates(vec, vec)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_transitive_on_random_triples(self, seed):
        rng = make_rng(seed)
        u, v, w = rng.random((3, 3))
        if dominates(u, v) and dominates(v, w):
            assert dominates(u, w)


def shortest_prefix(fronts: list, count: int) -> list:
    """The fewest leading fronts that hold ``count`` or more members."""
    out, held = [], 0
    for front in fronts:
        if held >= count:
            break
        out.append(front)
        held += front.size
    return out


def reference_fronts(objs: np.ndarray, count: int | None = None) -> list:
    """The sort's earlier body: the dominance matrix from an (N, N, m)
    broadcast reduced with all/any, then the same peel loop over every
    front; with ``count``, the shortest prefix holding that many members."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    if objs.shape[0] == 0:
        raise ValueError("expected a non-empty 2-D array of objective vectors")
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    dom = le & lt  # [i, j]: i dominates j
    n_dom = dom.sum(axis=0).astype(int)
    fronts = []
    current = np.flatnonzero(n_dom == 0)
    while current.size:
        fronts.append(current)
        n_dom[current] = -1
        n_dom -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dom == 0)
    return fronts if count is None else shortest_prefix(fronts, count)


def assert_same_fronts(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def first_front(objs):
    return fast_non_dominated_sort(objs)[0].tolist()


class TestNonDominatedFilter:
    def test_simple(self):
        assert first_front(np.array([[0, 1], [1, 0], [1, 1]])) == [0, 1]

    def test_singleton(self):
        assert first_front(np.array([[0.0, 0.0]])) == [0]

    def test_matches_pairwise_oracle(self):
        rng = make_rng(3)
        objs = rng.random((50, 2))
        assert first_front(objs) == brute_force_non_dominated(objs)

    def test_matches_oracle_with_ties(self):
        rng = make_rng(4)
        objs = np.round(rng.random((120, 3)), 1)  # many exact ties
        assert first_front(objs) == brute_force_non_dominated(objs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.empty((0, 2)))


class TestSortOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
        min_size=1, max_size=60)))
    def test_fronts_match_broadcast_oracle(self, rows):
        # small integer objectives force ties and duplicate rows
        objs = np.asarray(rows, dtype=float)
        assert_same_fronts(fast_non_dominated_sort(objs), reference_fronts(objs))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_float_rows_across_rank_widths(self, m, size, seed):
        # 255 rows is the last uint8 rank width, 256 the first uint16
        rng = make_rng(seed)
        objs = rng.random((size, m))
        objs += rng.random((size, 1))  # a shared shift per row: many fronts
        objs[rng.random(size) < 0.1] = objs[0]  # equal copies of one row
        assert_same_fronts(fast_non_dominated_sort(objs), reference_fronts(objs))

    @pytest.mark.parametrize("size", [255, 256, 700])
    def test_pool_sized_float_rows(self, size):
        rng = make_rng(size)
        objs = np.round(rng.random((size, 3)) + rng.random((size, 1)), 3)
        assert_same_fronts(fast_non_dominated_sort(objs), reference_fronts(objs))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]),
                 min_size=m, max_size=m),
        min_size=1, max_size=40)))
    def test_signed_zeros_and_infinities(self, rows):
        # -0.0 == 0.0 as floats compare, and the infinities tie with each other
        objs = np.asarray(rows, dtype=float)
        assert_same_fronts(fast_non_dominated_sort(objs), reference_fronts(objs))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 120), st.integers(0, 2**32 - 1),
           st.data())
    def test_count_stops_at_shortest_prefix(self, m, size, seed, data):
        objs = np.round(make_rng(seed).random((size, m)), 1)
        count = data.draw(st.integers(1, size))
        full = reference_fronts(objs)
        got = fast_non_dominated_sort(objs, count=count)
        assert_same_fronts(got, shortest_prefix(full, count))
        held = np.cumsum([f.size for f in got])
        assert held[-1] >= count and (held.size == 1 or held[-2] < count)

    def test_nan_rejected(self):
        objs = np.array([[0.0, 1.0], [np.nan, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            fast_non_dominated_sort(objs)


class TestSortPacking:
    """Sets of rows are packed 64 to a word: pools on and around each word
    boundary, with ties in every column, many equal copies, signed zeros
    and infinities."""

    LEVELS = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])

    @classmethod
    def pools(cls, size: int) -> list:
        rng = make_rng(size)
        tied = rng.choice(cls.LEVELS, (size, 3))  # at most 343 distinct rows
        kinds = rng.choice(cls.LEVELS, (max(1, size // 16), 2))
        copied = kinds[rng.integers(0, kinds.shape[0], size)]
        shifted = rng.random((size, 3)) + rng.random((size, 1))  # many fronts
        shifted[rng.random(size) < 0.2] = shifted[0]
        shifted[rng.random(size) < 0.1, 1] = -0.0
        return [tied, copied, shifted]

    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 127, 128, 129,
                                      191, 192, 193, 700])
    def test_pools_at_word_boundaries(self, size):
        for objs in self.pools(size):
            for count in (None, 1, (size + 1) // 2, size):
                assert_same_fronts(fast_non_dominated_sort(objs, count=count),
                                   reference_fronts(objs, count=count))

    @pytest.mark.parametrize("size", [33, 64, 65, 129, 700])
    def test_long_fronts_are_peeled(self, size):
        # a front of ``size`` rows, the same rows one worse in every
        # objective, then 40 copies of one row two worse: the two long
        # fronts are peeled 32 rows at a time
        t = np.linspace(0.0, 1.0, size)
        line = np.column_stack([t, 1.0 - t, np.full(size, np.inf)])
        line[::5, 2] = -0.0
        objs = np.vstack([line, line + 1.0, np.repeat(line[:1] + 2.0, 40, axis=0)])
        objs = objs[make_rng(size).permutation(objs.shape[0])]
        fronts = fast_non_dominated_sort(objs)
        assert [f.size for f in fronts[:2]] == [size, size]
        assert_same_fronts(fronts, reference_fronts(objs))
        for count in (size, size + 1, 2 * size + 1):
            assert_same_fronts(fast_non_dominated_sort(objs, count=count),
                               reference_fronts(objs, count=count))


class TestSortWorkspace:
    """The sort builds its packed sets of rows in a private word workspace
    that later calls reuse."""

    def test_no_state_leaks_between_calls(self):
        rng = make_rng(615)
        pool = np.round(rng.random((615, 3)) + rng.random((615, 1)), 3)
        small = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], (40, 2))
        small[10:20] = small[:10]  # equal copies, ties in every column
        grown = rng.random((700, 3)) + rng.random((700, 1))
        for objs, count in ((pool, None), (small, None), (grown, 210)):
            assert_same_fronts(fast_non_dominated_sort(objs, count=count),
                               reference_fronts(objs, count=count))

    def test_warm_call_allocates_no_dominance_matrix(self):
        n = 615
        rng = make_rng(n)
        objs = rng.random((n, 3)) + rng.random((n, 1))
        fast_non_dominated_sort(objs)
        tracemalloc.start()
        try:
            fronts = fast_non_dominated_sort(objs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_fronts(fronts, reference_fronts(objs))
        assert peak < n * n / 4  # one (n, n) bool matrix is n * n bytes


UNDERCOUNTED_SORT = """
import resource
import numpy as np
from idealbench import core

# a cap a little above what the process maps now: a sort that grows without
# bound fails here in seconds instead of taking the machine's memory
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20),) * 2)
rng = core.make_rng(5)
objs = np.round(rng.random((40, 3)), 1)
objs[rng.random(40) < 0.3] = objs[0]  # every column holds a duplicate
first = core.fast_non_dominated_sort(objs)[0]
short = np.ones(40, dtype=int)
if {later}:
    short[first] = 0  # the first front's counts stay right
copies = core._copies
core._copies = lambda no_worse, no_better, dtype: (
    copies(no_worse, no_better, dtype) - short.astype(dtype))
try:
    core.fast_non_dominated_sort(objs)
except Exception as err:
    print(type(err).__name__, err)
"""


class TestSortPeel:
    @pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                        reason="the address-space cap reads /proc/self/statm")
    @pytest.mark.parametrize("later", [False, True])
    def test_undercounted_copies_raise_instead_of_growing(self, later):
        # counting one copy too few leaves every row of a front (the first,
        # or the next one) with a dominator it does not have, so that peel
        # step finds no row; the sort must stop with an error, not append
        # empty fronts without end
        import idealbench
        src = str(Path(idealbench.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", UNDERCOUNTED_SORT.format(later=later)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.startswith("RuntimeError"), done.stdout


class TestBounds:
    def test_clamp_projection(self):
        b = BoxBounds(np.zeros(2), np.ones(2))
        assert clamp_to_bounds(np.array([1.2, -0.5]), b).tolist() == [1.0, 0.0]

    def test_clamp_identity_inside(self):
        b = BoxBounds(np.zeros(2), np.ones(2))
        x = np.array([0.3, 0.8])
        assert clamp_to_bounds(x, b).tolist() == x.tolist()

    def test_clamp_symmetric_box(self):
        b = BoxBounds(-np.ones(2), np.ones(2))
        assert clamp_to_bounds(np.array([-2.0, 3.0]), b).tolist() == [-1.0, 1.0]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxBounds(np.ones(2), np.ones(2))

    def test_sample_inside(self):
        b = BoxBounds(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        xs = b.sample(500, make_rng(0))
        assert (xs >= b.lower).all() and (xs <= b.upper).all()


class TestRandomSource:
    def test_identical_streams(self):
        a, b = make_rng(1234), make_rng(1234)
        assert np.array_equal(a.random(100), b.random(100))
        assert np.array_equal(a.standard_normal(50), b.standard_normal(50))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))

    def test_bit_identical_across_processes(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import idealbench

        script = (
            "import numpy as np; from idealbench.core import make_rng; "
            "print(make_rng(99).random(5).tobytes().hex())"
        )
        # the child imports the package this process imported, installed or not
        src = str(Path(idealbench.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = {
            subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONPATH": path}).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        assert next(iter(outs)).strip() == make_rng(99).random(5).tobytes().hex()


class TestEvaluationBudget:
    def test_truncates_to_remaining(self):
        budget = EvaluationBudget(5, _eval=lambda xs: xs * 2.0)
        out = budget.evaluate(np.ones((3, 2))).fs
        assert out.shape == (3, 2) and budget.used == 3
        out = budget.evaluate(np.ones((4, 2))).fs
        assert out.shape == (2, 2) and budget.used == 5 and budget.exhausted
        assert budget.evaluate(np.ones((1, 2))).fs.shape[0] == 0

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_exhausted_budget_returns_no_rows_of_width_m(self, name):
        problem = get_problem(name)
        budget = EvaluationBudget(2, _eval=problem.evaluate_batch)
        xs = problem.bounds.sample(3, make_rng(4))
        assert budget.evaluate(xs).fs.shape == (2, problem.m)
        assert budget.evaluate(xs).fs.shape == (0, problem.m)
        assert budget.used == 2

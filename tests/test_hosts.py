import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbench import core, hosts
from idealbench.core import (BoxBounds, EvaluationBudget, OffspringBatch,
                             clamp_to_bounds, fast_non_dominated_sort,
                             make_rng)
from idealbench.generator import get_problem
from idealbench.hosts import (RANGE_GUARD, UT_BETA, EstimatorConfig,
                              HostConfig, crowding_distance, de_pm_offspring,
                              drp_beta, global_replacement, hv_contributions,
                              make_host, own_fitness, polynomial_mutation,
                              reference_point, scalarized_fitness,
                              simplex_lattice_weights)
from idealbench.metrics import hv_exact

from . import reference_insert
from .oracles import dominates

UNIT = BoxBounds(np.zeros(4), np.ones(4))


def in_unit_box(xs):
    return bool((xs >= 0.0).all() and (xs <= 1.0).all())


def nsga2_select(objs, count):
    """The survivors of NSGA-II's selection, in the order it keeps them."""
    return np.concatenate(hosts._surviving_fronts(objs, count))


def brute_force_fronts(objs):
    """Front partition by repeatedly peeling non-dominated points."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i for i in remaining
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def scalar_distinct_triplets(pools, avoid, rng):
    """The earlier triplet kernel: one scalar ``rng.integers`` per draw."""
    out = np.empty((len(pools), 3), dtype=int)
    for row, pool in enumerate(pools):
        chosen = []
        forbidden = {int(avoid[row])} if avoid is not None else set()
        while len(chosen) < 3:
            cand = int(pool[rng.integers(0, len(pool))])
            if cand not in forbidden:
                chosen.append(cand)
                forbidden.add(cand)
        out[row] = chosen
    return out


def per_front_crowding_distance(objs):
    """The earlier crowding kernel, one front per call, kept verbatim as the
    oracle of the all-fronts pass."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    k, m = objs.shape
    dist = np.zeros(k)
    if k <= 2:
        return np.full(k, np.inf)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        span = col[-1] - col[0]
        if span < RANGE_GUARD:
            continue
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def full_array_polynomial_mutation(xs, rng, bounds, eta=50.0, prob=None):
    """The earlier mutation kernel, which computes the step at every entry,
    kept verbatim as the oracle."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    k, n = xs.shape
    if prob is None:
        prob = 1.0 / n
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    apply = rng.random((k, n)) < prob
    u = rng.random((k, n))
    d1 = (xs - lo) / span
    d2 = (hi - xs) / span
    exp = 1.0 / (eta + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** exp - 1.0
    high_side = 1.0 - (
        2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
    ) ** exp
    delta = np.where(u < 0.5, low_side, high_side)
    out = np.where(apply, xs + delta * span, xs)
    return clamp_to_bounds(out, bounds)


def leave_one_out_contributions(objs, ref):
    """The earlier contribution kernel: the whole front's hypervolume minus
    each leave-one-out hypervolume."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    total = hv_exact(objs, ref)
    out = np.empty(objs.shape[0])
    for i in range(objs.shape[0]):
        rest = np.delete(objs, i, axis=0)
        out[i] = total - hv_exact(rest, ref)
    return out


def two_sweep_contributions(objs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The earlier reduction kernel: two sweeps of (k, k) masks over the
    dominating candidates r, then one ``hv_exact`` call per box."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    ref = np.asarray(ref, dtype=float)
    k, m = objs.shape

    def covers(r, rows, cols):
        # [p, q]: max(p, q) >= objs[r] in every objective
        above = objs >= objs[r]
        out = above[rows, None, 0] | above[None, cols, 0]
        for j in range(1, m):
            out &= above[rows, None, j] | above[None, cols, j]
        return out

    # survives[p, q]: the clamped q enters p's hypervolume
    survives = ~np.eye(k, dtype=bool)
    # first drop each q that a lower-indexed clamped point dominates or
    # equals, which leaves the first of every group of equal rows ...
    for r in range(k - 1):
        cover = covers(r, slice(None), slice(r + 1, None))
        cover[r] = False
        survives[:, r + 1:] &= ~cover
    # ... so whatever a surviving r still covers, it strictly dominates
    for r in range(k):
        rows = np.flatnonzero(survives[:, r])
        cover = covers(r, rows, slice(None))
        cover[:, r] = False
        survives[rows] &= ~cover
    out = np.empty(k)
    for p in range(k):
        box = float(np.prod(np.maximum(ref - objs[p], 0.0)))
        out[p] = box - hv_exact(np.maximum(objs[survives[p]], objs[p]), ref)
    return out


def smsemoa_select(objs: np.ndarray, count: int, ref: np.ndarray) -> np.ndarray:
    """SMS-EMOA selection on a whole pool: drop members of the worst front
    by smallest exclusive hypervolume contribution until ``count`` remain;
    better fronts are never touched."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    alive = np.arange(objs.shape[0])
    while alive.size > count:
        worst = fast_non_dominated_sort(objs[alive])[-1]
        drop = worst[np.argmin(hv_contributions(objs[alive][worst], ref))]
        alive = np.delete(alive, drop)
    return alive


class BaselineEstimator:
    """The earlier reference-point tracker that the runner kept beside every
    host and wrote into ``host.z_ref`` after each step.

    ``running-min`` keeps the best value seen per objective; ``ut`` and
    ``drp`` subtract an optimism offset from it, expressed in the current
    population's normalized objective space.  The two estimation-component
    kinds also report the running minimum (their influence flows through
    the offspring they inject).
    """

    def __init__(self, config: EstimatorConfig, m: int):
        self.config = config
        self.z_running = np.full(m, np.inf)

    def observe(self, objs: np.ndarray) -> None:
        objs = np.atleast_2d(np.asarray(objs, dtype=float))
        if objs.shape[0]:
            self.z_running = np.minimum(self.z_running, objs.min(axis=0))

    def estimate(
        self,
        z_min_pop: np.ndarray,
        z_max_pop: np.ndarray,
        fe: int,
        fe_max: int,
    ) -> np.ndarray:
        kind = self.config.kind
        if kind in ("running-min", "eie", "eie-separate"):
            return self.z_running.copy()
        span = np.maximum(z_max_pop - z_min_pop, RANGE_GUARD)
        if kind == "ut":
            return self.z_running - UT_BETA * span
        if kind == "drp":
            return self.z_running - drp_beta(fe, fe_max) * span
        raise AssertionError(kind)


def assert_equals_two_sweeps(objs, ref, kernel=hv_contributions):
    got = kernel(objs, ref)
    want = two_sweep_contributions(objs, ref)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


def assert_each_form_equals_two_sweeps(objs, ref):
    """Both private forms, whatever k; the small form takes 3 objectives
    only."""
    assert_equals_two_sweeps(objs, ref, hosts._packed_contributions)
    if objs.shape[1] == 3:
        assert_equals_two_sweeps(objs, ref, hosts._small_contributions)


def concave_front(k, m, seed):
    """k points on the positive unit sphere: one mutually non-dominated
    front."""
    x = np.abs(make_rng(seed).standard_normal((k, m)))
    return x / np.linalg.norm(x, axis=1)[:, None]


def dropped_member(objs, ref, kernel):
    """Index smsemoa_select removes from ``objs`` with ``kernel`` as its
    contribution routine."""
    with mock.patch.object(hosts, "hv_contributions", kernel):
        keep = smsemoa_select(objs, objs.shape[0] - 1, ref)
    return int(np.setdiff1d(np.arange(objs.shape[0]), keep)[0])


def normalized_pool_insert(host, x, f):
    """The earlier ``SmsEmoaHost._insert``: normalize the whole pool by its
    range, then let ``smsemoa_select`` sort it and drop one member."""
    pool_x = np.vstack([host.pop_x, x])
    pool_f = np.vstack([host.pop_f, f])
    lo = pool_f.min(axis=0)
    span = np.maximum(pool_f.max(axis=0) - lo, hosts.RANGE_GUARD)
    keep = smsemoa_select((pool_f - lo) / span, host.pop_size,
                          np.full(pool_f.shape[1], 1.1))
    host.pop_x, host.pop_f = pool_x[keep], pool_f[keep]


def sorted_levels(objs):
    """Each row's front index from a full sort."""
    level = np.empty(objs.shape[0], dtype=int)
    for depth, front in enumerate(fast_non_dominated_sort(objs)):
        level[front] = depth
    return level


def point_sets(value, min_size=1, max_size=30):
    return st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(value, min_size=m, max_size=m), min_size=min_size,
        max_size=max_size))


@pytest.fixture
def de_alone(monkeypatch):
    """DE's children without the polynomial mutation that follows it."""
    monkeypatch.setattr(hosts, "polynomial_mutation", lambda xs, rng, bounds: xs)


class TestVariation:
    def test_degenerate_config_returns_base(self, de_alone, monkeypatch):
        monkeypatch.setattr(hosts, "DE_F", 1e-12)
        monkeypatch.setattr(hosts, "DE_CR", 1.0)
        rng = make_rng(0)
        base = rng.random((5, 4))
        b, c = rng.random((5, 4)), rng.random((5, 4))
        child = de_pm_offspring(base, b, c, rng, UNIT)
        assert child == pytest.approx(base, abs=1e-10)

    def test_identical_parents_without_mutation(self, de_alone):
        rng = make_rng(1)
        x = rng.random((3, 4))
        child = de_pm_offspring(x, x, x, rng, UNIT)
        assert np.array_equal(child, x)

    def test_children_respect_bounds(self, monkeypatch):
        monkeypatch.setattr(hosts, "DE_F", 2.0)
        rng = make_rng(2)
        base = rng.random((10_000, 4))
        b, c = rng.random((10_000, 4)), rng.random((10_000, 4))
        child = de_pm_offspring(base, b, c, rng, UNIT)
        assert in_unit_box(child)

    def test_crossover_mixes_coordinates(self, de_alone, monkeypatch):
        monkeypatch.setattr(hosts, "DE_F", 1.0)
        monkeypatch.setattr(hosts, "DE_CR", 0.5)
        rng = make_rng(3)
        base = np.zeros((2000, 4))
        mutant_source = np.ones((2000, 4))
        child = de_pm_offspring(base, mutant_source, np.zeros((2000, 4)),
                                rng, UNIT)
        frac = child.mean()
        assert 0.4 < frac < 0.75  # cr plus the forced coordinate

    def test_polynomial_mutation_stays_bounded(self):
        rng = make_rng(4)
        xs = rng.random((5000, 4))
        out = polynomial_mutation(xs, rng, UNIT)
        assert in_unit_box(out)
        assert not np.array_equal(out, xs)


def moead_pools(rng, k=100, t=10):
    """MOEA/D-style rows: a mix of T-member neighbourhoods and full pools."""
    full = np.arange(k)
    return [np.sort(rng.choice(k, t, replace=False)) if rng.random() < 0.9
            else full for _ in range(k)]


class TestDistinctTriplets:
    @staticmethod
    def assert_matches_scalar(pools, avoid, seed, rounds=5):
        fast, slow = make_rng(seed), make_rng(seed)
        for _ in range(rounds):
            got = hosts._distinct_triplets(pools, avoid, fast)
            want = scalar_distinct_triplets(pools, avoid, slow)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            # both consumed the same words, down to PCG64's half-used one
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.random() == slow.random()

    @pytest.mark.parametrize("seed", range(10))
    def test_moead_rows_match_scalar_draws(self, seed):
        pools = moead_pools(make_rng(100 + seed))
        self.assert_matches_scalar(pools, None, seed)
        self.assert_matches_scalar([p.tolist() for p in pools], None, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_nsga2_rows_match_scalar_draws(self, seed):
        avoid = make_rng(200 + seed).integers(0, 211, size=211)
        self.assert_matches_scalar([np.arange(211)] * 211, avoid, seed)
        self.assert_matches_scalar([range(211)] * 211, avoid, seed)

    @staticmethod
    def owed_before_each_draw(pools, avoid, rng):
        """The scalar rule's draws, as the number of values still owed (at
        least three a row to come) before each one."""
        owed = []
        for row, pool in enumerate(pools):
            chosen = []
            while len(chosen) < 3:
                owed.append(3 * (len(pools) - row) - len(chosen))
                cand = int(pool[rng.integers(0, len(pool))])
                if cand != avoid[row] and cand not in chosen:
                    chosen.append(cand)
        return owed

    @pytest.mark.parametrize("seed", range(4))
    def test_nsga2_call_draws_one_block(self, seed):
        # a 210-row call draws one block of the 630 values owed, then, each
        # time a block runs out, one of exactly the values still owed: the
        # generator draws only the values the scalar calls take
        sizes = []

        class IntegersSpy:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self.rng = rng

            def integers(self, low, high, size=None):
                sizes.append(size)
                return self.rng.integers(low, high, size=size)

        pools = [range(210)] * 210
        fast, slow, counted = make_rng(seed), make_rng(seed), make_rng(seed)
        refills = 0
        for call in range(10):
            avoid = make_rng(400 + 10 * seed + call).integers(0, 210, size=210)
            sizes.clear()
            got = hosts._distinct_triplets(pools, avoid, IntegersSpy(fast))
            np.testing.assert_array_equal(got, scalar_distinct_triplets(pools, avoid, slow))
            assert fast.bit_generator.state == slow.bit_generator.state
            owed = self.owed_before_each_draw(pools, avoid, counted)
            assert sizes[0] == 630 and sum(sizes) == len(owed)
            starts = np.cumsum([0] + sizes[:-1]).tolist()
            assert sizes == [owed[at] for at in starts]
            refills += len(sizes) - 1
        assert refills

    @pytest.mark.parametrize("pool", [np.arange(21), list(range(21)), range(21),
                                      [7, 3, 9]])
    def test_single_row_matches_scalar_draws(self, pool):
        self.assert_matches_scalar([pool], None, 5, rounds=50)

    def test_rejection_branch_matches_scalar_draws(self):
        # at a bound of 2**31 + 5, Lemire's method rejects about half the
        # words; at 3 * 2**30 a quarter of them land exactly on the threshold
        pools = ([range(2**31 + 5)] * 40 + [range(3 * 2**30)] * 20
                 + [np.arange(10)] * 5)
        self.assert_matches_scalar(pools, None, 6)
        self.assert_matches_scalar(pools, np.arange(65), 7)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [4, 7, 50, 210])
    def test_equal_size_lists_and_arrays_match_scalar_draws(self, k, seed):
        # pools of one size that are not one shared range take the word
        # replay, whatever their type
        rng = make_rng(300 + seed)
        pools = [rng.permutation(k) + 1000 for _ in range(k)]
        avoid = np.array([pool[rng.integers(0, k)] for pool in pools])
        self.assert_matches_scalar(pools, avoid, seed)
        self.assert_matches_scalar([p.tolist() for p in pools], avoid, seed)
        self.assert_matches_scalar([p.tolist() for p in pools], None, seed)
        # a range first does not make the other pools ranges
        self.assert_matches_scalar([range(k)] + pools[1:], avoid, seed)

    @staticmethod
    def typed_pool(kind, k):
        return {"range": range(k), "list": list(range(k)),
                "array": np.arange(k)}[kind]

    @pytest.mark.parametrize("kind", ["range", "list", "array"])
    @pytest.mark.parametrize("k", [4, 5, 9])
    def test_repeat_at_a_block_end_redraws_mid_row(self, kind, k):
        # small pools repeat often, so rows run past their block; a block
        # drawn mid-row owes the row's missing values, not a multiple of 3
        sizes = []

        class BlockSpy:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self.rng = rng

            def integers(self, low, high, size=None, dtype=np.int64):
                sizes.append(size)
                return self.rng.integers(low, high, size=size, dtype=dtype)

        pools = [self.typed_pool(kind, k)] * 6
        fast, slow = make_rng(40 + k), make_rng(40 + k)
        for _ in range(20):
            got = hosts._distinct_triplets(pools, None, BlockSpy(fast))
            np.testing.assert_array_equal(got, scalar_distinct_triplets(pools, None, slow))
            assert fast.bit_generator.state == slow.bit_generator.state
        assert any(size % 3 for size in sizes)

    @pytest.mark.parametrize("kind", ["range", "list", "array"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("row", [0, 5, 11])
    def test_avoided_member_at_each_position(self, kind, at, row):
        # row ``row`` avoids the member its ``at``-th value names; the seed
        # is the first whose earlier rows repeat no value, so that row takes
        # those three values
        pools = [self.typed_pool(kind, 1000)] * 12
        for seed in range(50, 100):
            values = make_rng(seed).integers(0, 1000, size=36)
            windows = values[:3 * row].reshape(-1, 3).tolist()
            if all(len(set(w)) == 3 for w in windows):
                break
        avoid = np.full(12, -1)
        avoid[row] = pools[row][int(values[3 * row + at])]
        self.assert_matches_scalar(pools, avoid, seed, rounds=1)
        self.assert_matches_scalar(pools, avoid, seed)

    @pytest.mark.parametrize("kind", ["range", "list", "array"])
    @pytest.mark.parametrize("rows", [1, 2, 30])
    def test_four_member_pools(self, kind, rows):
        # with the avoided member inside, each row takes the other three
        pools = [self.typed_pool(kind, 4)] * rows
        avoid = make_rng(60 + rows).integers(0, 4, size=rows)
        self.assert_matches_scalar(pools, avoid, rows)
        self.assert_matches_scalar(pools, None, rows)
        distinct = [make_rng(70 + r).permutation(4) + 10 for r in range(rows)]
        self.assert_matches_scalar(distinct, np.array([p[0] for p in distinct]), rows)

    @pytest.mark.parametrize("kind", ["range", "list", "array"])
    def test_one_row_with_an_avoided_member(self, kind):
        pool = self.typed_pool(kind, 21)
        for base in (0, 7, 20, 99):
            self.assert_matches_scalar([pool], np.array([base]), base, rounds=50)

    @pytest.mark.parametrize("k", [2**31 + 5, 3 * 2**30, 2**33 + 7])
    def test_equal_size_path_at_rejection_heavy_bounds(self, k):
        # NumPy rejects about half the words at 2**31 + 5, lands a quarter
        # on the threshold at 3 * 2**30, and takes 64-bit words above 2**32
        # (beyond the word replay); lists or arrays this long do not fit in
        # memory, so the pools are ranges
        pools = [range(k)] * 40
        self.assert_matches_scalar(pools, None, 8)
        self.assert_matches_scalar(pools, make_rng(9).integers(0, k, size=40), 9)

    def test_block_rejected_at_one_pool_size_only(self):
        # Lemire's method rejects about half the words at 2**31 + 5 and
        # almost none at 10, so one block's words mean a value at one size
        # and a rejection at the other
        big, small = 2**31 + 5, 10
        pools = [range(big), range(small)] * 20
        block = make_rng(10).integers(0, 1 << 32, dtype=np.uint64,
                                      size=hosts.BLOCK_WORDS_PER_ROW * len(pools))
        values = hosts._word_values(block, {big, small})
        assert any(a < 0 <= b for a, b in zip(values[big], values[small]))
        assert min(values[small]) >= 0
        self.assert_matches_scalar(pools, None, 10)
        self.assert_matches_scalar([list(p) if len(p) == small else p for p in pools],
                                   np.arange(40) % 7, 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_refill_mid_row_with_mixed_sizes(self, seed, monkeypatch):
        # pools of 4 and 5 members take about 4.1 words a row, more than
        # the first block holds, so rows run past it; a block drawn mid-row
        # owes the row's missing values
        blocks = []
        word_values = hosts._word_values

        def spy(words, sizes):
            blocks[-1] += 1
            return word_values(words, sizes)

        monkeypatch.setattr(hosts, "_word_values", spy)
        pools = [list(range(4)), np.arange(5) + 10] * 5
        fast, slow = make_rng(50 + seed), make_rng(50 + seed)
        for _ in range(20):
            blocks.append(0)
            got = hosts._distinct_triplets(pools, None, fast)
            np.testing.assert_array_equal(got, scalar_distinct_triplets(pools, None, slow))
            assert fast.bit_generator.state == slow.bit_generator.state
        assert 1 in blocks and max(blocks) > 1

    @pytest.mark.parametrize("prob", [1.0, hosts.MATE_NEIGHBORHOOD_PROB])
    def test_moead_steps_match_scalar_draws(self, prob, monkeypatch):
        # at probability 1 every row mates in its neighbourhood: pools of
        # one size, as lists, which take the word replay like mixed sizes
        calls = []
        draw = hosts._distinct_triplets

        def checked(pools, avoid, rng):
            slow = make_rng(0)
            slow.bit_generator.state = rng.bit_generator.state
            got = draw(pools, avoid, rng)
            np.testing.assert_array_equal(got, scalar_distinct_triplets(pools, avoid, slow))
            assert rng.bit_generator.state == slow.bit_generator.state
            calls.append(len({len(pool) for pool in pools}))
            return got

        monkeypatch.setattr(hosts, "MATE_NEIGHBORHOOD_PROB", prob)
        monkeypatch.setattr(hosts, "_distinct_triplets", checked)
        problem = get_problem("mop2")
        rng = make_rng(27)
        budget = EvaluationBudget(1_000, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=100),
                         budget, rng)
        empty = OffspringBatch.empty(problem.n, problem.m)
        while not budget.exhausted:
            host.step(empty, budget, rng)
        assert calls == ([1] if prob == 1.0 else [2]) * 9

    def test_rows_are_distinct_and_avoid_the_base(self):
        rng = make_rng(21)
        pools = [np.arange(4), np.arange(10, 13), np.arange(50)]
        trip = hosts._distinct_triplets(pools, np.array([2, 99, 7]), rng)
        for row, pool in zip(trip, pools):
            assert len(set(row.tolist())) == 3
            assert set(row.tolist()) <= set(pool.tolist())
        assert 2 not in trip[0] and 7 not in trip[2]

    @pytest.mark.parametrize("pools, avoid", [
        ([np.arange(5), np.arange(2)], None),
        ([np.arange(3)], np.array([1])),
        ([np.arange(5), np.array([4, 8, 9])], np.array([0, 8])),
        ([range(2)] * 3, None),  # pools of one size: NumPy's value blocks
        ([np.arange(3)] * 4, np.array([7, 9, 1, 8])),
        ([[4, 5, 6]] * 2, np.array([0, 6])),
    ])
    def test_too_small_pool_raises_before_any_draw(self, pools, avoid):
        rng = make_rng(22)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            hosts._distinct_triplets(pools, avoid, rng)
        assert rng.bit_generator.state == state


class TestDominanceSorting:
    def test_partition_matches_oracle(self):
        rng = make_rng(5)
        objs = rng.random((100, 2))
        got = [sorted(f.tolist()) for f in fast_non_dominated_sort(objs)]
        assert got == brute_force_fronts(objs)

    def test_three_objective_partition(self):
        rng = make_rng(6)
        objs = np.round(rng.random((60, 3)), 1)
        got = [sorted(f.tolist()) for f in fast_non_dominated_sort(objs)]
        assert got == brute_force_fronts(objs)

    @staticmethod
    def assert_matches_brute_force(objs, distinct_column):
        objs = np.asarray(objs, dtype=float)
        want = brute_force_fronts(objs)
        # the copy count is skipped exactly when some column is all distinct
        with mock.patch.object(core, "_copies", wraps=core._copies) as copies:
            got = [f.tolist() for f in fast_non_dominated_sort(objs)]
        assert copies.called != distinct_column
        assert got == want
        for count in range(1, objs.shape[0] + 1):
            got = [f.tolist() for f in fast_non_dominated_sort(objs, count=count)]
            held = np.cumsum([len(f) for f in want])
            assert got == want[:int(np.searchsorted(held, count)) + 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_with_a_distinct_column(self, seed):
        rng = make_rng(80 + seed)
        objs = np.round(rng.random((40, 3)), 1)  # ties in every column ...
        objs[:, seed % 3] = rng.permutation(40) / 40  # ... but this one
        self.assert_matches_brute_force(objs, True)
        self.assert_matches_brute_force(rng.random((40, 2)), True)

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_without_a_distinct_column(self, seed):
        rng = make_rng(90 + seed)
        objs = np.round(rng.random((40, 3)), 1)
        objs[rng.random(40) < 0.2] = objs[3]  # duplicated rows
        self.assert_matches_brute_force(objs, False)
        twice = rng.random((20, 2))
        self.assert_matches_brute_force(np.vstack([twice, twice[::-1]]), False)

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0: rows 0 and 1 are copies, then row 1 dominates row 0,
        # and then only the second column is distinct
        self.assert_matches_brute_force([[-0.0, 0.5], [0.0, 0.5], [1.0, 0.0]], False)
        self.assert_matches_brute_force([[-0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], False)
        self.assert_matches_brute_force([[-0.0, 1.0], [0.0, 0.25], [1.0, 0.5],
                                         [2.0, -0.0]], True)

    def test_one_row(self):
        self.assert_matches_brute_force([[0.3, -0.0, 7.0]], True)

    def test_crowding_boundaries_infinite(self):
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        dist = crowding_distance(objs)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert np.isfinite(dist[1])

    def test_select_identity_when_all_needed(self):
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert sorted(nsga2_select(objs, 3).tolist()) == [0, 1, 2]

    def test_select_drops_dominated(self):
        objs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert sorted(nsga2_select(objs, 2).tolist()) == [0, 1]

    def test_split_front_prefers_crowded_out_last(self):
        rng = make_rng(7)
        t = np.sort(rng.random(20))
        front = np.column_stack([t, 1 - t])
        keep = nsga2_select(front, 10)
        dist = crowding_distance(front)
        kept_min = dist[keep].min()
        dropped = np.setdiff1d(np.arange(20), keep)
        assert kept_min >= dist[dropped].max() - 1e-12

    def test_select_size_exact(self):
        rng = make_rng(8)
        objs = rng.random((57, 2))
        assert len(nsga2_select(objs, 23)) == 23


def labelled_point_sets(seed):
    """Rows with front labels, built to reach every case of the all-fronts
    crowding pass: ties, duplicate rows, flat objectives and wholly flat
    fronts, fronts of one or two rows, and labels that skip values and
    are not grouped by row."""
    rng = make_rng(seed)
    m = int(rng.integers(2, 4))
    labels = rng.choice([0, 3, 4, 9, 17, 40], size=int(rng.integers(1, 7)), replace=False)
    parts = []
    for label in labels:
        size = int(rng.choice([1, 2, 3, int(rng.integers(4, 30))]))
        rows = np.round(rng.random((size, m)), int(rng.integers(1, 3)))  # ties
        if rng.random() < 0.3:
            rows[:, rng.integers(0, m)] = 0.25  # one flat objective
        if rng.random() < 0.1:
            rows[:] = rows[0]  # a wholly flat front
        if size > 3 and rng.random() < 0.5:
            rows[1] = rows[-1]  # duplicate rows
        parts.append((np.full(size, label), rows))
    front = np.concatenate([f for f, _ in parts])
    objs = np.vstack([rows for _, rows in parts])
    shuffle = rng.permutation(front.size)
    return objs[shuffle], front[shuffle]


def per_front_reference(objs, front):
    """Crowding by the earlier kernel, one call per front in row order."""
    want = np.empty(objs.shape[0])
    for label in np.unique(front):
        rows = np.flatnonzero(front == label)
        want[rows] = per_front_crowding_distance(objs[rows])
    return want


class TestCrowdingOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_all_fronts_match_the_per_front_kernel(self, seed):
        objs, front = labelled_point_sets(seed)
        got = crowding_distance(objs, front)
        assert got.tobytes() == per_front_reference(objs, front).tobytes()

    @pytest.mark.parametrize("seed", range(60))
    def test_one_front_matches_the_per_front_kernel(self, seed):
        objs, _ = labelled_point_sets(seed)
        for rows in (objs, objs[:1], objs[:2], objs[:3]):
            got = crowding_distance(rows)
            assert got.tobytes() == per_front_crowding_distance(rows).tobytes()

    def test_one_front_with_ties_a_flat_objective_and_small_fronts(self):
        # ties in the first and last objectives (-0.0 among them), a flat
        # middle one and one flat below RANGE_GUARD; every prefix, down to
        # fronts of two, one and no rows
        rows = np.array([[0.5, 0.25, 1.0, 0.0], [0.5, 0.25, 0.0, 1e-13],
                         [0.0, 0.25, 0.5, 0.0], [1.0, 0.25, 0.5, 1e-13],
                         [0.5, 0.25, -0.0, 0.0], [0.0, 0.25, 0.0, 0.0],
                         [1.0, 0.25, 1.0, 1e-13]])
        for k in range(rows.shape[0] + 1):
            for cols in ([0, 1, 2], [0, 2], [1, 3], [2, 0, 3]):
                front = rows[:k][:, cols]
                got = crowding_distance(front)
                assert got.tobytes() == per_front_crowding_distance(front).tobytes()
                labelled = crowding_distance(front, np.zeros(k, dtype=int))
                assert got.tobytes() == labelled.tobytes()

    def test_flat_and_narrow_fronts(self):
        objs = np.array([[0.0, 1.0], [0.0, 0.5], [0.0, 0.0],  # flat in f1
                         [0.3, 0.3], [0.3, 0.3], [0.3, 0.3],  # flat in both
                         [0.5, 0.5],                          # one row
                         [0.1, 0.9], [0.9, 0.1]])             # two rows
        front = np.array([2, 2, 2, 5, 5, 5, 6, 8, 8])
        got = crowding_distance(objs, front)
        assert got.tolist() == [np.inf, 1.0, np.inf, 0.0, 0.0, 0.0,
                                np.inf, np.inf, np.inf]
        assert got.tobytes() == per_front_reference(objs, front).tobytes()

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_host_generations_match_the_per_front_kernel(self, name):
        problem = get_problem(name)
        budget = EvaluationBudget(4_000, _eval=problem.evaluate_batch)
        rng = make_rng(31)
        host = make_host(problem, HostConfig(kind="nsga2", population_size=60),
                         budget, rng)
        empty = OffspringBatch.empty(problem.n, problem.m)
        for _ in range(12):
            assert host.rank.tolist() == sorted_levels(host.pop_f).tolist()
            got = crowding_distance(host.pop_f, host.rank)
            assert got.tobytes() == per_front_reference(host.pop_f, host.rank).tobytes()
            host.step(empty, budget, rng)


class TestMutationOracle:
    # the rate is 1/n: None draws n, 0.5 and 1.0 fix it at 2 and 1
    @pytest.mark.parametrize("rate", [None, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_bytes_match_the_full_array_kernel(self, rate, seed):
        rng = make_rng(400 + seed)
        k, n = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        if rate is not None:
            n = round(1 / rate)
        lower = rng.random(n) * 4 - 2
        bounds = BoxBounds(lower, lower + rng.random(n) * 3 + 1e-3)
        xs = bounds.sample(k, rng)
        on_lower = rng.random((k, n)) < 0.2
        on_upper = rng.random((k, n)) < 0.2
        xs[on_lower] = np.broadcast_to(bounds.lower, (k, n))[on_lower]
        xs[on_upper] = np.broadcast_to(bounds.upper, (k, n))[on_upper]
        fast, slow = make_rng(seed), make_rng(seed)
        got = polynomial_mutation(xs, fast, bounds)
        want = full_array_polynomial_mutation(xs, slow, bounds)
        assert got.tobytes() == want.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("n", [7, 11])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_bytes_match_the_full_array_kernel(self, n, seed):
        # one row at a time, as SMS-EMOA mutates: about a third of the draws
        # mutate nothing, and the rest one entry or a few
        rng = make_rng(600 + seed)
        lower = rng.random(n) * 4 - 2
        bounds = BoxBounds(lower, lower + rng.random(n) * 3 + 1e-3)
        fast, slow = make_rng(seed), make_rng(seed)
        unchanged = 0
        for _ in range(60):
            xs = bounds.sample(1, rng)
            on_bound = rng.random(n) < 0.2
            xs[0, on_bound] = np.where(rng.random(n) < 0.5, bounds.lower,
                                       bounds.upper)[on_bound]
            got = polynomial_mutation(xs, fast, bounds)
            want = full_array_polynomial_mutation(xs, slow, bounds)
            assert got.tobytes() == want.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state
            unchanged += got.tobytes() == xs.tobytes()
        assert 0 < unchanged < 60

    def test_nothing_applied_returns_a_clamped_copy(self):
        xs = np.array([[-0.5, 0.5, 1.5, 0.25]])
        no_draw_applies = SimpleNamespace(random=np.ones)  # 1 is never below 1/n
        got = polynomial_mutation(xs, no_draw_applies, UNIT)
        assert got.tolist() == [[0.0, 0.5, 1.0, 0.25]] and got is not xs

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    @pytest.mark.parametrize("k", [1, 3, 100])
    def test_de_pm_bytes_match_the_original(self, name, k):
        # parents on the box's corners, on signed zeros and (once) NaN
        bounds = get_problem(name).bounds
        rng = make_rng(700 + k)
        fast, slow = make_rng(k), make_rng(k)
        for i in range(40):
            parents = [bounds.sample(k, rng) for _ in range(3)]
            for x in parents:
                pick = rng.random(x.shape)
                x[pick < 0.1] = np.broadcast_to(bounds.lower, x.shape)[pick < 0.1]
                x[pick > 0.9] = np.broadcast_to(bounds.upper, x.shape)[pick > 0.9]
                x[(pick > 0.45) & (pick < 0.5)] = -0.0
            if i == 0:
                parents[0][0, 0] = np.nan
            got = de_pm_offspring(*parents, fast, bounds)
            want = reference_insert.de_pm_offspring(*parents, slow, bounds)
            assert got.tobytes() == want.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_clamp_is_np_clip_on_signed_zeros_and_nan(self, name):
        # both sides of the lower bounds 0 (position) and -1 (distance), and
        # of the upper bound 1: clip hands a tie the bound's zero, not -0.0
        bounds = get_problem(name).bounds
        values = [-0.0, 0.0, -1.0, 1.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
                  -5e-324, 5e-324, np.nextafter(1.0, 2.0), np.nan, -np.inf, np.inf]
        xs = np.repeat(np.array(values)[:, None], bounds.n, axis=1)
        want = np.clip(xs, bounds.lower, bounds.upper)
        assert clamp_to_bounds(xs, bounds).tobytes() == want.tobytes()
        assert clamp_to_bounds(xs[3], bounds).tobytes() == want[3].tobytes()
        never = SimpleNamespace(random=np.ones)  # PM mutates nothing
        assert polynomial_mutation(xs, never, bounds).tobytes() == want.tobytes()


def reference_tchebycheff(objs, weights, z_ref, scale):
    """`scalarized_fitness`'s earlier tchebycheff branch, kept verbatim as
    the oracle: a fresh (weights x rows) array per objective."""
    objs = np.atleast_2d(np.asarray(objs, dtype=float))
    shifted = (objs - z_ref) / scale
    w = np.maximum(np.atleast_2d(weights), hosts.WEIGHT_FLOOR)
    out = w[:, :1] * shifted[:, 0]
    for j in range(1, w.shape[1]):
        out = np.maximum(out, w[:, j:j + 1] * shifted[:, j])
    return out


def reference_global_replacement(fitness):
    """`global_replacement`'s earlier body, kept as the oracle: it reads a
    (k, pool) fitness matrix whose first k columns are the incumbents, and
    their own values on its diagonal."""
    k = fitness.shape[0]
    new_idx = np.arange(k)
    cand = np.arange(k, fitness.shape[1])
    home = np.argmin(fitness[:, cand], axis=0)
    fit = fitness[home, cand]
    order = np.lexsort((cand, fit, home))
    first = np.ones(order.size, dtype=bool)
    first[1:] = home[order[1:]] != home[order[:-1]]
    winners = order[first]
    better = fit[winners] < fitness[home[winners], home[winners]]
    new_idx[home[winners[better]]] = cand[winners[better]]
    return new_idx


def tchebycheff_inputs(m, layout):
    """Objective rows (with a NaN row and an inf entry) in the given memory
    layout, lattice weights that hold zeros, a reference point and a scale."""
    rng = make_rng(12 + m)
    k, rows = (100, 300) if m == 2 else (210, 420)
    weights = simplex_lattice_weights(m, k)  # holds zeros, floored
    wide = rng.normal(size=(2 * rows, 2 * m)) * 3.0
    objs = {"contiguous": np.ascontiguousarray(wide[:rows, :m]),
            "strided": wide[::2, ::2],
            "fortran": np.asfortranarray(wide[:rows, :m])}[layout]
    objs[5] = np.nan  # NaN and inf rows propagate as before
    objs[7, 0] = np.inf
    assert objs.flags.c_contiguous == (layout == "contiguous")
    z_ref, scale = rng.normal(size=m), rng.random(m) + 0.1
    return objs, weights, z_ref, scale


class TestWeightsAndScalarization:
    def test_two_objective_lattice(self):
        w = simplex_lattice_weights(2, 100)
        assert w.shape == (100, 2)
        assert w[0].tolist() == [0.0, 1.0] and w[-1].tolist() == [1.0, 0.0]
        assert w[:, 0] == pytest.approx(np.arange(100) / 99)

    def test_three_objective_lattice_snaps(self):
        w = simplex_lattice_weights(3, 210)
        assert w.shape == (210, 3)
        assert w.sum(axis=1) == pytest.approx(np.ones(210))

    def test_reference_coincidence_is_zero(self):
        z = np.array([1.0, 2.0])
        fit = scalarized_fitness(z[None, :], np.array([[0.3, 0.7]]), z, np.ones(2))
        assert fit[0, 0] == 0.0

    def test_improving_reference_never_worsens_best(self):
        rng = make_rng(9)
        weights = simplex_lattice_weights(2, 20)
        objs = rng.random((50, 2)) + 1.0
        scale = np.ones(2)
        z_far = np.array([0.0, 0.0])
        z_near = np.array([0.9, 0.9])  # closer to the true ideal from below
        far = scalarized_fitness(objs, weights, z_far, scale).min(axis=1)
        near = scalarized_fitness(objs, weights, z_near, scale).min(axis=1)
        assert np.all(near <= far + 1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_tchebycheff_matches_max_over_objectives(self, m):
        rng = make_rng(10)
        objs, weights = rng.random((40, m)), rng.random((15, m))
        fit = scalarized_fitness(objs, weights, np.zeros(m), np.ones(m))
        oracle = np.max(np.maximum(weights, 1e-6)[:, None, :] * objs[None, :, :],
                        axis=2)
        assert np.array_equal(fit, oracle)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_tchebycheff_bytes_match_per_objective_loop(self, m, layout):
        objs, weights, z_ref, scale = tchebycheff_inputs(m, layout)
        got = scalarized_fitness(objs, weights, z_ref, scale)
        want = reference_tchebycheff(objs, weights, z_ref, scale)
        assert got.shape == want.shape == ((100, 300) if m == 2 else (210, 420))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_tchebycheff_through_a_reused_workspace(self, m, layout):
        # newcomer counts grow and then shrink; stale entries of a larger
        # generation stay behind in the workspace
        objs, weights, z_ref, scale = tchebycheff_inputs(m, layout)
        k, rows = len(weights), objs.shape[0]
        workspace = np.full(2 * k * rows, np.nan)
        for count in (40, 150, rows, 90, 8, 1, 0):
            got = scalarized_fitness(objs[:count], weights, z_ref, scale, workspace)
            want = reference_tchebycheff(objs[:count], weights, z_ref, scale)
            assert got.shape == want.shape == (k, count)
            assert got.tobytes() == want.tobytes()
            assert count == 0 or np.shares_memory(got, workspace)

    def test_warm_replacement_allocates_no_fitness_matrix(self):
        problem = get_problem("mop2")
        rng = make_rng(28)
        budget = EvaluationBudget(10_000, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=300),
                         budget, rng)
        k, grown = host.pop_size, []

        def newcomers(count):
            xs = problem.bounds.sample(count, rng)
            return (np.vstack([host.pop_x, xs]),
                    np.vstack([host.pop_f, problem.evaluate_batch(xs)]))

        host._replace(*newcomers(400))
        for count in (400, 250):
            pool_x, pool_f = newcomers(count)
            tracemalloc.start()
            try:
                host._replace(pool_x, pool_f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grown.append(host._workspace.size)
            assert peak < k * count * 8 / 4  # one (k, count) float matrix
        assert grown == [2 * k * 400] * 2

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_own_fitness_bytes_match_the_diagonal(self, m, layout):
        objs, weights, z_ref, scale = tchebycheff_inputs(m, layout)
        k = len(weights)
        assert np.isnan(objs[5]).all() and np.isinf(objs[7, 0]) and k > 7
        got = own_fitness(objs[:k], weights, z_ref, scale)
        want = np.diagonal(reference_tchebycheff(objs, weights, z_ref, scale))
        assert got.shape == want.shape == (k,)
        assert got.tobytes() == want.tobytes()

    def test_global_replacement_matches_sequential_rule(self):
        rng = make_rng(11)
        for _ in range(50):
            k, extra = 12, int(rng.integers(0, 30))
            # coarse values force ties between newcomers and incumbents
            fitness = rng.integers(0, 6, (k, k + extra)).astype(float)
            new_idx, best = np.arange(k), fitness[np.arange(k), np.arange(k)].copy()
            for c in range(k, k + extra):
                home = int(np.argmin(fitness[:, c]))
                if fitness[home, c] < best[home]:
                    best[home], new_idx[home] = fitness[home, c], c
            got = global_replacement(fitness[:, k:], np.diagonal(fitness))
            assert np.array_equal(got, new_idx)
            assert np.array_equal(got, reference_global_replacement(fitness))


class TestIndicatorSelection:
    def test_duplicate_removed_first(self):
        objs = np.array([[0.2, 0.8], [0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
        keep = smsemoa_select(objs, 3, np.array([1.1, 1.1]))
        assert sorted(objs[keep][:, 0].tolist()) == [0.2, 0.5, 0.8]

    def test_middle_of_even_spread_goes(self):
        # equally spaced points on a line: the middle one adds least area
        objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        keep = smsemoa_select(objs, 2, np.array([2.0, 2.0]))
        assert sorted(keep.tolist()) == [0, 2]

    def test_removal_never_loses_more_than_contribution(self):
        rng = make_rng(10)
        objs = rng.random((12, 2))
        ref = np.array([1.2, 1.2])
        fronts = fast_non_dominated_sort(objs)
        worst = fronts[-1]
        contrib = hv_contributions(objs[worst], ref)
        keep = smsemoa_select(objs, 11, ref)
        dropped = np.setdiff1d(np.arange(12), keep)[0]
        before = hv_exact(objs, ref)
        after = hv_exact(objs[keep], ref)
        assert before - after <= contrib.min() + 1e-12
        assert dropped in worst

    def test_removal_on_single_front_loses_exactly_the_contribution(self):
        rng = make_rng(16)
        t = np.sort(rng.random(10))
        objs = np.column_stack([t, 1 - t])  # mutually non-dominated
        ref = np.array([1.2, 1.2])
        contrib = hv_contributions(objs, ref)
        keep = smsemoa_select(objs, 9, ref)
        before = hv_exact(objs, ref)
        after = hv_exact(objs[keep], ref)
        assert before - after == pytest.approx(contrib.min(), abs=1e-12)

    def test_better_fronts_untouched(self):
        good = np.array([[0.1, 0.2], [0.2, 0.1]])
        bad = np.array([[0.5, 0.6], [0.6, 0.5], [0.9, 0.9]])
        objs = np.vstack([good, bad])
        keep = smsemoa_select(objs, 3, np.array([1.1, 1.1]))
        assert {0, 1}.issubset(set(keep.tolist()))

    def test_three_objective_contributions_match_exclusive(self):
        rng = make_rng(11)
        objs = rng.random((8, 3))
        ref = np.array([1.1, 1.1, 1.1])
        contrib = hv_contributions(objs, ref)
        total = hv_exact(objs, ref)
        for i in range(8):
            rest = hv_exact(np.delete(objs, i, axis=0), ref)
            assert contrib[i] == pytest.approx(total - rest)


QUARTERS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25])


class TestContributionOracle:
    @settings(max_examples=200, deadline=None)
    @given(point_sets(st.integers(0, 5)))
    def test_grid_points_match_leave_one_out(self, rows):
        # quarter steps up to 1.25 against ref 1: duplicates, points on and
        # past the reference, and arithmetic exact in both kernels
        objs = np.asarray(rows, dtype=float) / 4
        ref = np.ones(objs.shape[1])
        got = hv_contributions(objs, ref)
        assert got == pytest.approx(leave_one_out_contributions(objs, ref),
                                    rel=0, abs=1e-12)
        if objs.shape[0] > 1:
            assert (dropped_member(objs, ref, hv_contributions)
                    == dropped_member(objs, ref, leave_one_out_contributions))

    @settings(max_examples=200, deadline=None)
    @given(point_sets(st.floats(0.0, 1.3)))
    def test_real_points_match_leave_one_out(self, rows):
        objs = np.asarray(rows, dtype=float)
        ref = np.full(objs.shape[1], 1.1)
        want = leave_one_out_contributions(objs, ref)
        assert hv_contributions(objs, ref) == pytest.approx(want, rel=0, abs=1e-12)
        worst = fast_non_dominated_sort(objs)[-1]
        gaps = np.diff(np.sort(leave_one_out_contributions(objs[worst], ref)))
        if worst.size > 1 and gaps[0] > 1e-12:  # a clear smallest contributor
            assert (dropped_member(objs, ref, hv_contributions)
                    == dropped_member(objs, ref, leave_one_out_contributions))

    @settings(max_examples=300, deadline=None)
    @given(point_sets(QUARTERS, max_size=40))
    def test_grid_points_equal_two_sweeps(self, rows):
        # 1 to 40 points; 3-objective sets of up to SMALL_FRONT points take
        # the small form, so only the 2-objective ones cross the 8-bit
        # packing boundary in the packed form, and both cross the 16-, 24-
        # and 32-bit ones; quarters give ties, duplicate rows, -0.0 and
        # points on and past ref
        objs = np.asarray(rows, dtype=float)
        assert_equals_two_sweeps(objs, np.ones(objs.shape[1]))

    @settings(max_examples=300, deadline=None)
    @given(point_sets(QUARTERS, max_size=40))
    def test_grid_points_equal_two_sweeps_in_each_form(self, rows):
        # the same points through each form at every k
        objs = np.asarray(rows, dtype=float)
        assert_each_form_equals_two_sweeps(objs, np.ones(objs.shape[1]))

    @settings(max_examples=300, deadline=None)
    @given(point_sets(st.floats(0.0, 1.3), max_size=2 * hosts.SMALL_FRONT))
    def test_real_points_equal_two_sweeps_in_each_form(self, rows):
        # sums that round: a dominated row left in a box, or one of its
        # survivors dropped, moves the sweep's last bits
        objs = np.asarray(rows, dtype=float)
        assert_each_form_equals_two_sweeps(objs, np.full(objs.shape[1], 1.1))

    @pytest.mark.parametrize("k, form", [
        (hosts.SMALL_FRONT, "_small_contributions"),
        (hosts.SMALL_FRONT + 1, "_packed_contributions")])
    def test_small_front_boundary_equals_two_sweeps(self, k, form):
        objs = make_rng(k).integers(0, 6, (k, 3)) / 4
        ref = np.ones(3)
        with mock.patch.object(hosts, form, wraps=getattr(hosts, form)) as spy:
            assert_equals_two_sweeps(objs, ref)
        assert spy.call_count == 1
        assert_each_form_equals_two_sweeps(objs, ref)

    @pytest.mark.parametrize("m, k", [(2, 4), (3, 4), (3, hosts.SMALL_FRONT + 1)])
    def test_nan_row_is_rejected(self, m, k):
        objs = make_rng(k).random((k, m))
        objs[k // 2, m - 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            hv_contributions(objs, np.full(m, 1.1))

    @pytest.mark.parametrize("k", [2, 7, hosts.SMALL_FRONT, 20])
    def test_infinite_on_and_past_ref_rows_equal_in_both_forms(self, k):
        # entries of -inf, +inf, exactly ref and past ref, some in rows
        # that repeat another row; NaN results must match too
        rng = make_rng(k)
        ref = np.ones(3)
        for _ in range(50):
            objs = rng.integers(0, 5, (k, 3)) / 4
            cells = rng.integers(0, k * 3, size=k)
            objs.flat[cells] = rng.choice([-np.inf, np.inf, 1.0, 1.25], size=k)
            objs[rng.integers(0, k)] = objs[rng.integers(0, k)]
            with np.errstate(invalid="ignore"):  # inf * 0 in the packed boxes
                packed = hosts._packed_contributions(objs, ref)
            small = hosts._small_contributions(objs, ref)
            assert packed.tobytes() == small.tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [63, 64, 65, 128, 129])
    def test_word_boundaries_equal_two_sweeps(self, k, m):
        # one more or fewer point than whole 64-bit words
        objs = make_rng(k * m).integers(0, 6, (k, m)) / 4
        assert_equals_two_sweeps(objs, np.ones(m))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [101, 211])
    def test_concave_fronts_equal_two_sweeps(self, k, m):
        assert_equals_two_sweeps(concave_front(k, m, seed=k + m), np.full(m, 1.1))

    def test_single_point_is_its_box(self):
        objs = np.array([[0.25, 0.5, 0.75]])
        ref = np.ones(3)
        assert hv_contributions(objs, ref).tolist() == [0.75 * 0.5 * 0.25]

    def test_forty_point_three_objective_front(self):
        objs = concave_front(40, 3, seed=19)
        ref = np.full(3, 1.1)
        assert len(fast_non_dominated_sort(objs)) == 1
        assert hv_contributions(objs, ref) == pytest.approx(
            leave_one_out_contributions(objs, ref), rel=0, abs=1e-12)
        assert (dropped_member(objs, ref, hv_contributions)
                == dropped_member(objs, ref, leave_one_out_contributions))
        objs[7] = objs[3]  # a duplicate pair adds nothing exclusive
        got = hv_contributions(objs, ref)
        assert got == pytest.approx(leave_one_out_contributions(objs, ref),
                                    rel=0, abs=1e-12)
        assert got[3] == got[7] == 0.0


class TestLevelUpdate:
    @settings(max_examples=300, deadline=None)
    @given(point_sets(QUARTERS, min_size=2, max_size=61))
    def test_insert_and_drop_match_a_full_sort(self, rows):
        # a quarter grid gives ties, duplicate rows and -0.0 == 0.0; the
        # last row joins a pool of 1 to 60
        pool = np.asarray(rows, dtype=float)
        objs, row = pool[:-1], pool[-1]
        level = hosts._level_after_insert(objs, sorted_levels(objs), row)
        assert level.tolist() == sorted_levels(pool).tolist()
        for drop in np.flatnonzero(level == level.max()):
            rest = np.delete(pool, drop, axis=0)
            assert (np.delete(level, drop).tolist()
                    == sorted_levels(rest).tolist())

    def test_insert_on_top_pushes_every_level_down(self):
        # two mutually non-dominated rows per level of a chain
        objs = np.array([[i + 1.0, i + 1.5] for i in range(5)]
                        + [[i + 1.5, i + 1.0] for i in range(5)])
        level = sorted_levels(objs)
        assert level.tolist() == [0, 1, 2, 3, 4] * 2
        got = hosts._level_after_insert(objs, level, np.array([0.5, 0.5]))
        assert got.tolist() == [1, 2, 3, 4, 5] * 2 + [0]

    def test_insert_mid_chain_moves_only_the_rows_below(self):
        objs = np.array([[float(i), float(i)] for i in range(6)])
        got = hosts._level_after_insert(objs, sorted_levels(objs),
                                        np.array([2.5, 2.5]))
        assert got.tolist() == [0, 1, 2, 4, 5, 6, 3]

    def test_levels_on_raw_objectives_survive_normalization_collapse(self):
        # a and b differ by one ulp in f1, so a dominates b; over the pool's
        # f1 range [0, 3] both normalize to the same float
        a = np.array([1.6809360141291612, 1.0])
        b = np.array([1.6809360141291614, 1.0])
        c, d = np.array([0.0, 2.0]), np.array([3.0, 0.0])
        lo, span = np.array([0.0, 0.0]), np.array([3.0, 2.0])
        assert a[0] < b[0] and np.array_equal((a - lo) / span, (b - lo) / span)
        initial = np.array([a, c, d])
        problem = SimpleNamespace(m=2, n=1, bounds=BoxBounds(np.zeros(1),
                                                             np.ones(1)))
        budget = EvaluationBudget(3, _eval=lambda xs: initial[:len(xs)])
        host = hosts.SmsEmoaHost(problem, HostConfig(kind="smsemoa",
                                                     population_size=3),
                                 budget, make_rng(0))
        assert host.level.tolist() == [0, 0, 0]
        level = hosts._level_after_insert(host.pop_f, host.level, b)
        assert level.tolist() == [0, 0, 0, 1]  # b alone on the last level
        host._insert(np.zeros(1), b)
        assert np.array_equal(host.pop_f, initial)
        assert host.level.tolist() == [0, 0, 0]
        # the earlier whole-pool normalized sort saw a and b as copies, each
        # of zero exclusive contribution, and dropped a, the first of them
        normalized_pool_insert(host, np.zeros(1), b)
        assert np.array_equal(host.pop_f, np.array([c, d, b]))


def stub_smsemoa(initial):
    """An SMS-EMOA host whose initial population scores ``initial``."""
    problem = SimpleNamespace(m=initial.shape[1], n=1,
                              bounds=BoxBounds(np.zeros(1), np.ones(1)))
    budget = EvaluationBudget(len(initial), _eval=lambda xs: initial[:len(xs)])
    return hosts.SmsEmoaHost(problem, HostConfig(kind="smsemoa",
                                                 population_size=len(initial)),
                             budget, make_rng(0))


def whole_pool_range(host):
    """Make the next insert normalize by the range of the whole pool, as the
    earlier ``_insert`` did on every call."""
    insert = host._insert

    def fresh_range_insert(x, f):
        host.lo, host.hi = host.pop_f.min(axis=0), host.pop_f.max(axis=0)
        insert(x, f)
    host._insert = fresh_range_insert
    return host


class TestCarriedRange:
    def test_dropped_extreme_recomputes_the_range(self):
        # the newcomer (0, 1) leaves (0.5, 2), the largest f2, alone on the
        # last level; over the survivors' range (1.5, 1) the next newcomer
        # (2, 0.5) makes (0.75, 1) the least contributor, over the stale
        # range (1.5, 2) it would be (1.5, 0.75)
        initial = np.array([[0.5, 2.0], [1.5, 0.75], [1.25, 0.75], [0.75, 1.0]])
        carried, oracle = stub_smsemoa(initial), whole_pool_range(stub_smsemoa(initial))
        for f in ([0.0, 1.0], [2.0, 0.5]):
            for host in (carried, oracle):
                host._insert(np.zeros(1), np.array(f))
            assert np.array_equal(carried.pop_f, oracle.pop_f)
            assert carried.level.tolist() == oracle.level.tolist()
            assert np.array_equal(carried.lo, carried.pop_f.min(axis=0))
            assert np.array_equal(carried.hi, carried.pop_f.max(axis=0))
        assert carried.pop_f.tolist() == [[1.5, 0.75], [1.25, 0.75],
                                          [0.0, 1.0], [2.0, 0.5]]

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_trial_matches_the_whole_pool_range(self, name):
        problem = get_problem(name)
        config = HostConfig(kind="smsemoa", population_size=20)
        runs = []
        for wrap in (lambda host: host, whole_pool_range):
            budget = EvaluationBudget(1_000, _eval=problem.evaluate_batch)
            rng = make_rng(41)
            host = wrap(make_host(problem, config, budget, rng))
            steps = []
            while not budget.exhausted:
                host.step(OffspringBatch.empty(problem.n, problem.m), budget, rng)
                steps.append((host.pop_x.tobytes(), host.pop_f.tobytes(),
                              host.level.tolist()))
            runs.append(steps)
        assert runs[0] == runs[1]


class TestHostsEndToEnd:
    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_iteration_contract(self, kind):
        problem = get_problem("mop1")
        rng = make_rng(12)
        budget = EvaluationBudget(2_000, _eval=problem.evaluate_batch)
        pop = 30 if kind == "smsemoa" else 40
        host = make_host(problem, HostConfig(kind=kind, population_size=pop),
                         budget, rng)
        size = host.pop_f.shape[0]
        empty = OffspringBatch.empty(problem.n, problem.m)
        for _ in range(3):
            o2 = host.step(empty, budget, rng)
            assert host.pop_f.shape[0] == size
            assert o2.size > 0
            b = problem.bounds
            assert (host.pop_x >= b.lower).all() and (host.pop_x <= b.upper).all()
        assert budget.used <= 2_000

    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_injected_offspring_can_enter(self, kind):
        problem = get_problem("mop1")
        rng = make_rng(13)
        budget = EvaluationBudget(5_000, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind=kind, population_size=30),
                         budget, rng)
        elite_x = problem.sample_pareto_set(5, rng)
        elite = OffspringBatch(elite_x, problem.evaluate_batch(elite_x))
        host.step(elite, budget, rng)
        best_before_norm = host.pop_f.min(axis=0) / problem.nadir
        assert best_before_norm.min() < 0.9  # optimal material survived selection

    def test_three_member_nsga2_cannot_breed(self):
        # every row's pool would be the population less its base: 2 members;
        # rejected before the initial population is paid for
        problem = get_problem("mop2")
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        with pytest.raises(ValueError):
            make_host(problem, HostConfig(kind="nsga2", population_size=3),
                      budget, make_rng(23))
        assert budget.used == 0

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_carried_fronts_match_a_fresh_sort(self, name):
        # the host sorts only its initial population; selection hands on
        # the survivors' fronts as contiguous runs of equal rank
        problem = get_problem(name)
        rng = make_rng(31)
        pop, tail = 30, 7
        budget = EvaluationBudget(pop * 9 + tail, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="nsga2", population_size=pop),
                         budget, rng)
        assert host.rank.tolist() == sorted_levels(host.pop_f).tolist()
        empty = OffspringBatch.empty(problem.n, problem.m)
        most_fronts, sizes = 0, []
        while not budget.exhausted:
            o1 = empty
            if len(sizes) % 2:  # injected rows join the pool as well
                xs = problem.bounds.sample(5, rng)
                o1 = OffspringBatch(xs, problem.evaluate_batch(xs))
            sizes.append(host.step(o1, budget, rng).size)
            assert host.rank.tolist() == sorted_levels(host.pop_f).tolist()
            assert (np.diff(host.rank) >= 0).all()
            most_fronts = max(most_fronts, int(host.rank.max()) + 1)
        assert sizes == [pop] * 8 + [tail]  # the last step's o2 is cut short
        assert most_fronts > 1

    @pytest.mark.parametrize("estimator", ["running-min", "ut", "drp"])
    def test_moead_step_on_a_spent_budget_changes_nothing(self, estimator):
        # no child is paid for and nothing is injected: an empty replacement
        problem = get_problem("mop2")
        rng = make_rng(14)
        budget = EvaluationBudget(60, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=30),
                         budget, rng, estimator)
        empty = OffspringBatch.empty(problem.n, problem.m)
        host.step(empty, budget, rng)
        assert budget.exhausted
        before = (host.pop_x.tobytes(), host.pop_f.tobytes(), host.z_ref.tobytes())
        o2 = host.step(empty, budget, rng)
        assert o2.size == 0 and o2.fs.shape == (0, problem.m)
        assert (host.pop_x.tobytes(), host.pop_f.tobytes(),
                host.z_ref.tobytes()) == before

    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_traced_kernels_are_looked_up_in_the_module(self, kind, monkeypatch):
        # the benchmark's tracer replaces these module globals, so the hosts
        # must reach them through the module to be seen
        calls = {}
        for name in ("_distinct_triplets", "de_pm_offspring", "hv_contributions"):
            def counted(*args, _name=name, _fn=getattr(hosts, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(hosts, name, counted)
        problem = get_problem("mop11")
        rng = make_rng(15)
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind=kind, population_size=20),
                         budget, rng)
        host.step(OffspringBatch.empty(problem.n, problem.m), budget, rng)
        assert calls["_distinct_triplets"] and calls["de_pm_offspring"]
        if kind == "smsemoa":
            host = stub_smsemoa(np.array([[0.0, 1.0], [1.0, 0.0]]))
            calls.clear()
            host._insert(np.zeros(1), np.array([2.0, 2.0]))  # a worst front of one
            assert not calls
            host._insert(np.zeros(1), np.array([0.5, 0.5]))  # a worst front of three
            assert calls == {"hv_contributions": 1}

    def test_budget_exhaustion_mid_step(self):
        problem = get_problem("mop1")
        rng = make_rng(14)
        budget = EvaluationBudget(45, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="nsga2", population_size=40),
                         budget, rng)
        empty = OffspringBatch.empty(problem.n, problem.m)
        o2 = host.step(empty, budget, rng)
        assert o2.size == 5 and budget.exhausted


def constant_moead(objs):
    """A MOEA/D host on a stub problem that scores every point ``objs``, so
    the running minimum moves only with the rows a test injects."""
    problem = SimpleNamespace(m=2, n=4, bounds=UNIT)
    budget = EvaluationBudget(
        10_000, _eval=lambda xs: np.tile(np.asarray(objs, float), (len(xs), 1)))
    host = make_host(problem, HostConfig(kind="moead", population_size=10),
                     budget, make_rng(15))
    return host, budget


def injected(fs):
    fs = np.atleast_2d(np.asarray(fs, dtype=float))
    return OffspringBatch(np.full((fs.shape[0], 4), 0.5), fs)


class TestBaselineEstimators:
    def test_running_min_monotone(self):
        host, budget = constant_moead([2.0, 2.0])
        rng = make_rng(15)
        prev = np.full(2, np.inf)
        for _ in range(30):
            host.step(injected(rng.random((10, 2))), budget, rng)
            cur = host.z_ref
            assert np.all(cur <= prev)
            prev = cur

    def test_only_improved_component_moves(self):
        host, budget = constant_moead([3.0, 3.0])
        rng = make_rng(16)
        host.step(injected([[1.0, 1.0]]), budget, rng)
        host.step(injected([[0.5, 2.0]]), budget, rng)
        assert host.z_ref.tolist() == [0.5, 1.0]

    def test_optimism_offset_in_normalized_space(self):
        pop_f = np.array([[0.0, 0.0], [10.0, 100.0]])
        got = reference_point("ut", np.array([2.0, 30.0]), pop_f, 0, 100)
        assert got == pytest.approx([2.0 - 1.0, 30.0 - 10.0])

    def test_decaying_offset_hits_floor_exactly(self):
        assert drp_beta(100, 100) == 1e-3
        assert drp_beta(0, 100) == pytest.approx(1.0)

    def test_decaying_offset_strictly_decreasing(self):
        fes = np.arange(0, 101)
        betas = [drp_beta(int(fe), 100) for fe in fes]
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
        assert min(betas) >= 1e-3

    def test_drp_estimate_uses_decay(self):
        at_end = reference_point("drp", np.array([5.0]),
                                 np.array([[0.0], [1.0]]), 100, 100)
        assert at_end[0] == pytest.approx(5.0 - 1e-3)

    @pytest.mark.parametrize("name", ["mop2", "mop11"])
    def test_each_reference_rule_changes_the_run(self, name):
        # ut and drp act only through the Tchebycheff reference point;
        # without one their runs would repeat running-min's
        problem = get_problem(name)
        empty = OffspringBatch.empty(problem.n, problem.m)
        finals = {}
        for estimator in ("running-min", "ut", "drp"):
            budget = EvaluationBudget(3_000, _eval=problem.evaluate_batch)
            rng = make_rng(0)
            host = make_host(problem, HostConfig(kind="moead", population_size=30),
                             budget, rng, estimator)
            while not budget.exhausted:
                host.step(empty, budget, rng)
            finals[estimator] = host.pop_f.tobytes()
        assert finals["ut"] != finals["running-min"]
        assert finals["drp"] != finals["running-min"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind="bogus")
        with pytest.raises(ValueError):
            HostConfig(kind="bogus")

    def test_none_alias_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind="none")

    @pytest.mark.parametrize("kind", ["nsga2", "moead", "smsemoa"])
    def test_make_host_rejects_unknown_estimator(self, kind):
        problem = get_problem("mop1")
        budget = EvaluationBudget(500, _eval=problem.evaluate_batch)
        with pytest.raises(ValueError, match="unknown estimator"):
            make_host(problem, HostConfig(kind=kind, population_size=20),
                      budget, make_rng(17), "none")
        assert budget.used == 0

    def test_neighborhoods_are_nearest_weights(self):
        problem = get_problem("mop1")
        budget = EvaluationBudget(500, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=30),
                         budget, make_rng(17))
        assert host.neighbors.shape == (30, 3)  # 10% of 30
        # built from the symmetric weight-distance matrix; own weight first
        assert all(host.neighbors[i][0] == i for i in range(30))
        d = np.linalg.norm(host.weights[:, None] - host.weights[None, :], axis=2)
        for i in range(30):
            picked = d[i, host.neighbors[i]].max()
            others = np.delete(d[i], host.neighbors[i])
            assert picked <= others.min() + 1e-12

    def test_small_moead_population_gets_three_neighbours(self):
        problem = get_problem("mop2")
        budget = EvaluationBudget(500, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=20),
                         budget, make_rng(20))
        assert host.neighbors.shape == (20, 3)

    def test_population_must_exceed_objectives(self):
        problem = get_problem("mop11")
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        with pytest.raises(ValueError):
            make_host(problem, HostConfig(kind="nsga2", population_size=3),
                      budget, make_rng(18))

    @pytest.mark.parametrize("size", [4, 5])
    def test_moead_lattice_must_exceed_objectives(self, size):
        # on 3 objectives 4 and 5 snap to the 3-point lattice; rejected
        # before the initial population is paid for
        problem = get_problem("mop11")
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        with pytest.raises(ValueError, match="lattice of 3 weight vectors"):
            make_host(problem, HostConfig(kind="moead", population_size=size),
                      budget, make_rng(18))
        assert budget.used == 0

    def test_six_member_moead_lattice_on_three_objectives(self):
        problem = get_problem("mop11")
        budget = EvaluationBudget(100, _eval=problem.evaluate_batch)
        host = make_host(problem, HostConfig(kind="moead", population_size=6),
                         budget, make_rng(18))
        assert host.pop_f.shape == (6, 3)

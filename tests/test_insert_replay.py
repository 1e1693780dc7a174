"""SMS-EMOA's insert, the DE/PM variation and the generator's evaluation
against the originals kept in `reference_insert`.

Every insert, variation call and evaluation of seven short seeded `smsemoa`
trials is recorded with its inputs: an insert with the host's state before
it, a variation call with the random generator's state before it.  Each is
then replayed through both the shipped code and the kept original.  After
an insert `pop_x`, `pop_f`, `level`, `lo` and `hi` must be byte-equal;
after a variation call the children and the generator's state must be; an
evaluation's objectives must be.  The recorded inserts have to cover a
dropped newcomer, a cascade through the levels, a dropped extreme, a worst
front of one point and one of more than 64 points (two words per set), and
the variation calls one whose mutation draw mutates nothing, one that
mutates two or more entries and one whose child is clamped onto a bound.
The trials take in a 3-objective instance with a distance centre (`mop13`)
and an inverted one (`mop11-inv`), whose one-row evaluations take the
ratio, anchor and inversion steps.  The replay runs once in this process
and once in a child process kept out of NumPy's AVX-512 kernels.
"""

import copy
from unittest import mock

import numpy as np

from idealbench import generator, hosts
from idealbench.bench import RunConfig, run_trial
from idealbench.core import make_rng
from idealbench.generator import GeneratedProblem
from idealbench.hosts import EstimatorConfig, HostConfig, SmsEmoaHost

from . import reference_insert
from .dispatch import check_without_avx512
from .reference_insert import ReferenceInsert

# (problem, estimator, population, fe_max, seed); the last is test_digest's
# collapsed cell cut short, whose worst front already reaches all 101 rows of
# the pool
TRIALS = {
    "mop2-running-min": ("mop2", "running-min", 24, 800, 0),
    "mop2-eie": ("mop2", "eie", 24, 800, 0),
    "mop11-running-min": ("mop11", "running-min", 24, 800, 0),
    "mop11-eie": ("mop11", "eie", 24, 800, 0),
    "mop13-running-min": ("mop13", "running-min", 24, 800, 0),
    "mop11-inv-running-min": ("mop11-inv", "running-min", 24, 800, 0),
    "mop2-collapsed": ("mop2", "running-min", 100, 1_600, 0),
}
STATE = ("pop_x", "pop_f", "level", "lo", "hi")
COVERAGE = ("dropped newcomer", "cascade", "dropped extreme",
            "worst front of one", "worst front over 64", "nothing mutated",
            "two or more mutated", "clamped at a bound")


def recorded_calls(name: str) -> tuple:
    """The inserts, variation calls and evaluations of one trial, each with
    the state it started from."""
    problem, estimator, pop, fe_max, seed = TRIALS[name]
    config = RunConfig(problem=problem,
                       host=HostConfig(kind="smsemoa", population_size=pop),
                       estimator=EstimatorConfig(kind=estimator), fe_max=fe_max)
    inserts, variations, evaluations = [], [], []
    insert, vary = SmsEmoaHost._insert, hosts.de_pm_offspring
    evaluate = GeneratedProblem.evaluate_batch

    def recording_insert(host, x, f):
        state = {key: host.__dict__[key] for key in STATE + ("ref",)}
        inserts.append(copy.deepcopy((state, x, f)))
        return insert(host, x, f)

    def recording_vary(base, diff_a, diff_b, rng, bounds):
        variations.append(copy.deepcopy((rng.bit_generator.state,
                                         (base, diff_a, diff_b), bounds)))
        return vary(base, diff_a, diff_b, rng, bounds)

    def recording_evaluate(problem, xs):
        evaluations.append((problem.params, np.array(xs, copy=True)))
        return evaluate(problem, xs)

    with mock.patch.object(SmsEmoaHost, "_insert", recording_insert), \
            mock.patch.object(hosts, "de_pm_offspring", recording_vary), \
            mock.patch.object(GeneratedProblem, "evaluate_batch", recording_evaluate):
        run_trial(config, seed)
    return inserts, variations, evaluations


def field_bytes(value: np.ndarray) -> bytes:
    return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()


def with_state(cls, state: dict):
    host = cls.__new__(cls)
    host.__dict__.update(copy.deepcopy(state))
    return host


def replay_insert(record) -> tuple:
    """Insert the recorded newcomer into both hosts from the recorded state.
    Returns the fields that differ afterwards and the cases covered."""
    state, x, f = record
    mine, ref = with_state(SmsEmoaHost, state), with_state(ReferenceInsert, state)
    members = ref.pop_f
    mine._insert(x.copy(), f.copy())
    ref._insert(x.copy(), f.copy())
    diff = [key for key in STATE
            if field_bytes(getattr(mine, key)) != field_bytes(getattr(ref, key))]

    old_f, old_level = state["pop_f"], state["level"]
    k = old_f.shape[0]
    level = reference_insert._level_after_insert(old_f, old_level, f)
    worst = np.count_nonzero(level == level.max())
    covered = {
        "dropped newcomer": ref.pop_f is members,
        "cascade": bool((level[:k] != old_level).any()),
        "worst front of one": worst == 1,
        "worst front over 64": worst > 64,
        "dropped extreme": False,
    }
    if ref.pop_f is not members:
        # the first member that moved up a row is the one dropped
        moved = np.flatnonzero((old_f[:k - 1] != ref.pop_f[:k - 1]).any(axis=1))
        gone = old_f[moved[0] if moved.size else k - 1]
        lo, hi = np.minimum(state["lo"], f), np.maximum(state["hi"], f)
        covered["dropped extreme"] = not ((gone > lo) & (gone < hi)).all()
    return diff, covered


def replay_variation(record) -> tuple:
    """Vary the recorded parents with both kernels from the recorded
    generator state.  Returns what differs and the cases covered."""
    state, parents, bounds = record
    rngs = [make_rng(0) for _ in range(3)]
    for rng in rngs:
        rng.bit_generator.state = state
    mine = hosts.de_pm_offspring(*copy.deepcopy(parents), rngs[0], bounds)
    ref = reference_insert.de_pm_offspring(*copy.deepcopy(parents), rngs[1], bounds)
    diff = []
    if field_bytes(mine) != field_bytes(ref):
        diff.append("children")
    if rngs[0].bit_generator.state != rngs[1].bit_generator.state:
        diff.append("rng")
    # the draws before the mutation's (crossover, forced index), then its own
    k, n = np.atleast_2d(parents[0]).shape
    draw = rngs[2]
    draw.random((k, n))
    draw.integers(0, n, size=k)
    mutated = np.count_nonzero(draw.random((k, n)) < 1.0 / n)
    # an entry on a bound where its base is not: the variation clamped it
    base = np.atleast_2d(parents[0])
    clamped = [(ref == b) & (base != b) for b in (bounds.lower, bounds.upper)]
    return diff, {"nothing mutated": mutated == 0,
                  "two or more mutated": mutated >= 2,
                  "clamped at a bound": bool(np.any(clamped))}


def check_trials() -> None:
    covered = dict.fromkeys(COVERAGE, 0)
    for name in TRIALS:
        inserts, variations, evaluations = recorded_calls(name)
        assert inserts and variations and evaluations, name
        for i, record in enumerate(inserts):
            diff, hits = replay_insert(record)
            assert not diff, f"{name}: insert {i} of {len(inserts)} differs in {diff}"
            for key, hit in hits.items():
                covered[key] += hit
        for i, record in enumerate(variations):
            diff, hits = replay_variation(record)
            assert not diff, f"{name}: variation {i} of {len(variations)} differs in {diff}"
            for key, hit in hits.items():
                covered[key] += hit
        for i, (params, xs) in enumerate(evaluations):
            mine = generator.evaluate(xs, params)
            ref = reference_insert.evaluate(xs, params)
            assert field_bytes(mine) == field_bytes(ref), \
                f"{name}: evaluation {i} of {len(evaluations)} ({len(xs)} rows) differs"
    missing = [key for key, count in covered.items() if count == 0]
    assert not missing, f"no recorded call covers {missing}"


def test_insert_replays_byte_equal_to_reference():
    check_trials()


def test_insert_replays_byte_equal_without_avx512():
    check_without_avx512("test_insert_replay", "check_trials")

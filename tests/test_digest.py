"""The fixed-seed byte-identity gate.

Eighty-eight cells are rebuilt and hashed two ways: the files ``emit``
writes, and a full-precision digest of each record (``raw_row``, the
trajectory in ``float.hex`` and the final population bytes).  A change
that moves either digest moves a fixed-seed output; one that does so on
purpose updates the pinned value and says why.
"""

import hashlib

import pytest

from idealbench.bench import (RunConfig, default_population_size, emit,
                              run_suite)
from idealbench.generator import get_problem
from idealbench.hosts import EstimatorConfig, HostConfig

PROBLEMS = ("mop2", "mop4", "mop11", "mop13")
HOSTS = ("nsga2", "moead", "smsemoa")
ESTIMATORS = ("running-min", "eie", "eie-separate")
SEEDS = (0, 7)

EMITTED_SHA256 = "594310a010d7b14c071981fc52e0cfb720de0df502f989b2a6fc4f869782b038"
FULL_PRECISION_SHA256 = "87b24f6e5c1b43ac716edbec352bb23151f8bd6689d6b57095ca8770ba7f8b13"

# smsemoa on mop2 at population 100 and 2.5k evaluations: the worst front
# collapses onto most of the pool, which the 20-member cells above never reach.
COLLAPSED_EMITTED_SHA256 = "7ee46182234c6673ae3fc9a11ce0443d17eea6af5d950efc10879942e5d8857b"
COLLAPSED_FULL_PRECISION_SHA256 = "b5d5e54d55b1af212346a75c4c09447ddbbc26e58855ed86473dac2eba4365cc"


def digest_configs() -> list:
    """The 44 configurations: every host x problem x population-based or
    component estimator, plus ``ut`` and ``drp`` on ``moead``."""
    configs = []
    for problem in PROBLEMS:
        m = get_problem(problem).m
        for host in HOSTS:
            kinds = ESTIMATORS + (("ut", "drp") if host == "moead" else ())
            if host == "smsemoa":
                pop, fe_max = 20, 600
            else:
                pop, fe_max = default_population_size(m), 6_000 if m == 2 else 8_000
            for kind in kinds:
                configs.append(RunConfig(
                    problem=problem,
                    host=HostConfig(kind=host, population_size=pop),
                    estimator=EstimatorConfig(kind=kind),
                    fe_max=fe_max, snapshot_every=500,
                ))
    return configs


def collapsed_front_config() -> RunConfig:
    """The ``smsemoa`` cell whose worst front collapses."""
    return RunConfig(
        problem="mop2",
        host=HostConfig(kind="smsemoa", population_size=100),
        estimator=EstimatorConfig(kind="running-min"),
        fe_max=2_500, snapshot_every=500,
    )


def emitted_digest(records: list, out_dir) -> str:
    """One sha256 over ``raw.csv``, ``trajectory.csv`` and ``summary.json``
    as ``emit`` writes them, in that order."""
    emit(records, out_dir)
    h = hashlib.sha256()
    for name in ("raw.csv", "trajectory.csv", "summary.json"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def full_precision_digest(records: list) -> str:
    """One sha256 over every record, in suite order: its raw row, its
    trajectory with ``float.hex`` values, then the final population's
    decision and objective bytes."""
    h = hashlib.sha256()
    for rec in records:
        h.update((",".join(rec.raw_row()) + "\n").encode())
        for fe, e, hv in rec.trajectory:
            h.update(f"{fe},{float(e).hex()},{float(hv).hex()}\n".encode())
        h.update(rec.final_x.tobytes())
        h.update(rec.final_f.tobytes())
    return h.hexdigest()


def dispatch_note() -> str:
    """The message of a failed pin.  The pins were taken where NumPy runs
    its X86_V4 (AVX-512) kernels, whose ``power``, ``exp`` and ``log``
    differ from libm's in the last place, so they name this process's flag."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        flag = __cpu_features__.get("X86_V4", "unknown")
    except ImportError:
        flag = "unknown"
    return f"pinned with NumPy's X86_V4 dispatch; this process has X86_V4={flag}"


def test_digest_grid_has_88_cells():
    assert len(digest_configs()) * len(SEEDS) == 88


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_seed_outputs_are_pinned(workers, tmp_path):
    records = run_suite(digest_configs(), list(SEEDS), parallelism=workers)
    assert all(rec is not None for rec in records)
    note = dispatch_note()
    assert emitted_digest(records, tmp_path) == EMITTED_SHA256, note
    assert full_precision_digest(records) == FULL_PRECISION_SHA256, note


def test_collapsed_front_outputs_are_pinned(tmp_path):
    records = run_suite([collapsed_front_config()], list(SEEDS), parallelism=1)
    assert all(rec is not None for rec in records)
    note = dispatch_note()
    assert emitted_digest(records, tmp_path) == COLLAPSED_EMITTED_SHA256, note
    assert full_precision_digest(records) == COLLAPSED_FULL_PRECISION_SHA256, note

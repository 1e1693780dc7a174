"""`CmaProcedure`'s generation path against the oracle in `reference_tell`.

Every `tell` of two short seeded trials, and of the scripted sequence that
`test_cmaes` pins, is recorded with the procedure's state before it, then
replayed from that state through both the optimized class and the kept
original.  After each generation every state field must
be byte-equal and the same stopping criteria must fire.  The recorded tells
have to cover the population size at its default, odd and at its 8x
ceiling, clipped injections, and the covariance that stays ill-conditioned
after rescaling.  The replay runs once in this process and once in a child
process kept out of NumPy's AVX-512 kernels.
"""

import contextlib
import copy
import os
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from idealbench.bench import RunConfig, default_population_size, run_trial
from idealbench.cmaes import CmaProcedure
from idealbench.core import BoxBounds
from idealbench.generator import get_problem
from idealbench.hosts import EstimatorConfig, HostConfig

from . import reference_tell
from .reference_tell import ReferenceTell
from .test_cmaes import scripted_tells

# (host, problem, fe_max, seed): together, the two trials' tells cover COVERAGE
TRIALS = {
    "moead-mop2-eie": ("moead", "mop2", 12_000, 0),
    "nsga2-mop11-eie": ("nsga2", "mop11", 8_000, 0),
}
COVERAGE = ("default lambda", "odd lambda", "lambda ceiling", "clipped injection",
            "still ill-conditioned")
WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def trial(name: str):
    host, problem, fe_max, seed = TRIALS[name]
    config = RunConfig(
        problem=problem,
        host=HostConfig(kind=host,
                        population_size=default_population_size(get_problem(problem).m)),
        estimator=EstimatorConfig(kind="eie"), fe_max=fe_max,
    )
    return lambda: run_trial(config, seed)


def recorded_tells(run) -> list:
    """(state before, args, kwargs) of every `tell` that ``run()`` makes."""
    records, tell = [], CmaProcedure.tell

    def recording(self, *args, **kwargs):
        records.append(copy.deepcopy((self.__dict__, args, kwargs)))
        return tell(self, *args, **kwargs)

    CmaProcedure.tell = recording
    try:
        run()
    finally:
        CmaProcedure.tell = tell
    return records


def field_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, deque):
        return f"{value.maxlen}".encode() + np.array(value, dtype=float).tobytes()
    if isinstance(value, BoxBounds):
        return field_bytes(value.lower) + field_bytes(value.upper)
    if isinstance(value, float):
        return type(value).__name__.encode() + np.float64(value).tobytes()
    return f"{type(value).__name__}:{value!r}".encode()


def with_state(cls, state: dict):
    proc = cls.__new__(cls)
    proc.__dict__.update(copy.deepcopy(state))
    return proc


@contextlib.contextmanager
def logged_eigh():
    """The eigenvalues of every `np.linalg.eigh` call while active."""
    log, eigh = [], np.linalg.eigh

    def logging(a):
        result = eigh(a)
        log.append(result[0])
        return result

    np.linalg.eigh = logging
    try:
        yield log
    finally:
        np.linalg.eigh = eigh


def replay(record) -> tuple:
    """Tell both classes the recorded candidates from the recorded state.
    Returns the fields that differ afterwards and the branches covered."""
    state, args, kwargs = record
    mine = with_state(CmaProcedure, state)
    ref = with_state(ReferenceTell, state)
    fired = mine.tell(*copy.deepcopy(args), **copy.deepcopy(kwargs))
    with logged_eigh() as spectra:
        ref_fired = ref.tell(*copy.deepcopy(args), **copy.deepcopy(kwargs))
    # the reference keeps no sampling axes: check the cache against its
    # definition, and every field the reference has against the reference
    axes = mine.scales[:, None] * mine._eigvecs
    diff = [key for key, value in ref.__dict__.items()
            if key != "_axes" and field_bytes(value) != field_bytes(mine.__dict__[key])]
    if field_bytes(mine._axes) != field_bytes(axes):
        diff.append("_axes")
    if fired != ref_fired:
        diff.append("fired")

    lam, default = state["lam"], state["lambda_default"]
    covered = {
        "default lambda": lam == default,
        "odd lambda": lam % 2 == 1,
        "lambda ceiling": lam == 8 * default,
        "still ill-conditioned": (len(spectra) == 2
                                  and not reference_tell._well_conditioned(spectra[1])),
    }
    injected = kwargs.get("injected_xs")
    covered["clipped injection"] = False
    if injected is not None and len(injected) and lam <= default:
        # the same tell without the clip moves the mean elsewhere
        unclipped = with_state(ReferenceTell, state)
        cap, reference_tell.INJECTION_CLIP = reference_tell.INJECTION_CLIP, np.inf
        try:
            unclipped.tell(*copy.deepcopy(args), **copy.deepcopy(kwargs))
        finally:
            reference_tell.INJECTION_CLIP = cap
        covered["clipped injection"] = (field_bytes(unclipped.mean)
                                        != field_bytes(ref.mean))
    return diff, covered


def check_trials() -> None:
    covered = dict.fromkeys(COVERAGE, 0)
    sources = {name: trial(name) for name in TRIALS}
    sources["scripted"] = scripted_tells
    for name, run in sources.items():
        records = recorded_tells(run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i, record in enumerate(records):
                diff, hits = replay(record)
                assert not diff, f"{name}: tell {i} of {len(records)} differs in {diff}"
                for key, hit in hits.items():
                    covered[key] += hit
    missing = [key for key, count in covered.items() if count == 0]
    assert not missing, f"no recorded tell covers {missing}"


def test_tell_replays_byte_equal_to_reference():
    check_trials()


def test_tell_replays_byte_equal_without_avx512():
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("this process already runs without NumPy's AVX-512 kernels")
    import idealbench
    root = Path(__file__).resolve().parent.parent
    src = str(Path(idealbench.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, str(root), os.environ.get("PYTHONPATH")]))
    script = (
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "assert not f['X86_V4'], 'AVX-512 kernels still enabled'\n"
        "from tests.test_tell_replay import check_trials\n"
        "check_trials()\n"
    )
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=root, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]

"""Run a check in a child process kept out of NumPy's AVX-512 kernels.

NumPy picks its SIMD kernels per process, at import.  The byte-identity
checks run once in the test process and once more through
``check_without_avx512`` in a child started with
``NPY_DISABLE_CPU_FEATURES``, which runs what an AVX2-only machine runs:
glibc's libm for ``power``, ``exp`` and ``log`` in place of NumPy's own
AVX-512 kernels.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def check_without_avx512(module: str, function: str) -> None:
    """Call ``tests.<module>.<function>()`` in a child process without the
    AVX-512 kernels; skip when this process already runs without them."""
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
        f"from tests.{module} import {function}\n"
        f"{function}()\n"
    )
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=root, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]

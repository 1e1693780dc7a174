"""idealbench benchmark: wall time per function evaluation and result
quality on fixed host x instance x estimator workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload moead-mop2-eie --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src/`` directory, never from
an installed copy.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Workload names and the reason
each exists are in ``BENCHMARK.json``.

Trial times are gated in calibration units (cu): a fixed chunk of reference
work, owned by the benchmark, runs between the program's budget calls about
every 50 ms, and a trial's cost is its own time over the chunks' mean time.
That divides out the speed phases of a shared host, which move plain wall
times by up to 1.6x; the wall times are printed beside them, ungated.
"""

import os
import sys
from pathlib import Path

# one worker, one process: BLAS and OpenMP pools are pinned before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "idealbench" / "__init__.py").is_file():
        print(f"perfbench: no idealbench sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import idealbench

    if Path(idealbench.__file__).resolve().parent != src / "idealbench":
        print(f"perfbench: idealbench imported from {idealbench.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import measure

    return measure.main()


if __name__ == "__main__":
    sys.exit(main())

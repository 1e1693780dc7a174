"""Time one fresh-process set-up of a workload and print the seconds.

Set-up is everything a trial pays before its loop: importing the package,
building the instance, the host (which evaluates the initial population)
and, for ``eie`` workloads, warm-starting the estimation component.

    python3 perfbench/setup_probe.py <workload> <seed>   # with src/ on PYTHONPATH
"""

import sys
import time

start = time.perf_counter()

import numpy as np  # noqa: E402

from idealbench.core import EvaluationBudget, make_rng  # noqa: E402
from idealbench.estimation import IdealEstimation  # noqa: E402
from idealbench.generator import get_problem  # noqa: E402
from idealbench.hosts import make_host  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  imports idealbench.bench, as users do

if __name__ == "__main__":
    config = WORKLOADS[sys.argv[1]].config()
    problem = get_problem(config.problem)
    budget = EvaluationBudget(config.fe_max, _eval=problem.evaluate_batch)
    host = make_host(problem, config.host, budget, make_rng(int(sys.argv[2])))
    if config.estimator.kind == "eie":
        component = IdealEstimation(problem, epsilons=np.full(problem.m, config.epsilon))
        component.initialize(host.pop_x, host.pop_f)
    print(time.perf_counter() - start)

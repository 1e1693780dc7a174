"""The benchmark's fixed workloads: one host x instance x estimator cell each.

Why each workload exists is recorded beside its name in ``BENCHMARK.json``.

A workload's budget, population and trials per run never change between
revisions of the program; only the seeds change, and they come from the
benchmark's ``--seed`` argument (or an explicit ``--seeds`` list).
"""

from __future__ import annotations

from dataclasses import dataclass

from idealbench.bench import RunConfig, default_population_size
from idealbench.generator import get_problem
from idealbench.hosts import EstimatorConfig, HostConfig


@dataclass(frozen=True)
class Workload:
    name: str
    host: str
    problem: str
    estimator: str
    fe_max: int
    trials: int  # distinct seeds per run, timed once in about 22 s on 2 vCPUs

    def config(self, fe_max: int | None = None) -> RunConfig:
        """The cell's run configuration at the default population; a smaller
        ``fe_max`` is only for the benchmark's own smoke test."""
        pop = default_population_size(get_problem(self.problem).m)
        return RunConfig(
            problem=self.problem,
            host=HostConfig(kind=self.host, population_size=pop),
            estimator=EstimatorConfig(kind=self.estimator),
            fe_max=fe_max or self.fe_max,
        )

    def seeds(self, seed: int) -> list:
        """Trial seeds of one run: disjoint blocks for distinct ``seed``s."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return [seed * self.trials + i for i in range(self.trials)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nsga2-mop11-eie", "nsga2", "mop11", "eie", 20_000, 10),
        Workload("moead-mop2-eie", "moead", "mop2", "eie", 50_000, 15),
        Workload("smsemoa-mop11-rmin", "smsemoa", "mop11", "running-min", 500, 11),
    )
}

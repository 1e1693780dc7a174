"""Per-layer tracing from outside the program.

``LayerTracer`` replaces each traced name with a wrapper under the name its
caller looks up (a module global such as ``hosts.hv_exact`` or a method on a
class such as ``CmaProcedure.tell``), records one span per call in memory,
and puts every original back on exit.  A span is (layer, start, end, parent
span, size), where size is a layer-specific count read from the call's
arguments before it runs; a layer's self time is its spans' durations minus
the durations of their direct child spans.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from idealbench import bench, cmaes, core, estimation, generator, hosts


def _rows(args, kwargs):
    return len(args[1])


def _budget_rows(args, kwargs):
    # the rows EvaluationBudget.evaluate will charge, as it computes them
    budget, xs = args[0], np.atleast_2d(args[1])
    return min(xs.shape[0], budget.remaining)


def _first_rows(args, kwargs):
    return len(args[0])


def _tell_state(args, kwargs):
    proc = args[0]
    injected = kwargs.get("injected_xs", args[3] if len(args) > 3 else None)
    offered = injected is not None and len(injected) > 0
    # tell() admits injections only while lam is at its lower bound
    return (proc.lam, proc.lambda_default, offered,
            offered and proc.lam <= proc.lambda_default)


# (owner, attribute, layer name, size reader); the layer name is what the
# benchmark reports, the owner/attribute pair is where callers look it up.
TRACED = (
    (generator.GeneratedProblem, "evaluate_batch", "generator.evaluate_batch", _rows),
    (core.EvaluationBudget, "evaluate", "core.budget", _budget_rows),
    (hosts, "fast_non_dominated_sort", "hosts.fast_non_dominated_sort", _first_rows),
    (hosts, "crowding_distance", "hosts.crowding_distance", None),
    (hosts, "hv_contributions", "hosts.hv_contributions", _first_rows),
    (hosts, "hv_exact", "hosts.hv_exact", None),
    (hosts, "scalarized_fitness", "hosts.scalarized_fitness", None),
    (hosts, "de_pm_offspring", "hosts.de_pm_offspring", None),
    (hosts, "_distinct_triplets", "hosts.distinct_triplets", None),
    (hosts.Nsga2Host, "step", "hosts.step", None),
    (hosts.MoeadHost, "step", "hosts.step", None),
    (hosts.SmsEmoaHost, "step", "hosts.step", None),
    (cmaes.CmaProcedure, "ask", "cmaes.ask", None),
    (cmaes.CmaProcedure, "tell", "cmaes.tell", _tell_state),
    (cmaes.CmaProcedure, "warm_restart", "cmaes.warm_restart", None),
    (cmaes.CmaProcedure, "stop", "cmaes.stop", None),
    (estimation.IdealEstimation, "produce_offspring", "estimation.produce_offspring", None),
    (estimation.IdealEstimation, "update", "estimation.update", None),
    (bench, "hv_normalized", "metrics.hv_normalized", None),
    (bench, "e_metric", "metrics.e_metric", None),
    (bench, "run_trial", "bench.run_trial", None),
)


class LayerTracer:
    """Context manager that traces every name in ``TRACED`` while active."""

    def __init__(self):
        self.spans: list = []  # (layer, start_ns, end_ns, parent, size)
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, layer, size_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            size = size_of(args, kwargs) if size_of is not None else None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, size)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, layer, size_of in TRACED:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, size_of))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Write every span as one CSV row: index, layer, parent, start and
        end in ns, size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "layer", "parent", "start_ns", "end_ns", "size"))
            for i, (layer, start, end, parent, size) in enumerate(self.spans):
                out.writerow((i, layer, parent, start, end,
                              "" if size is None else size))


def installed_wrappers() -> list:
    """Traced names that currently hold a wrapper instead of the original."""
    return [f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in TRACED
            if hasattr(vars(owner)[attr], "__wrapped__")]


def layer_metrics(spans: list, trials: int) -> dict:
    """Per-layer metrics from one traced pass, counts and seconds per trial."""
    calls: dict = defaultdict(int)
    total_ns: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    sizes: dict = defaultdict(list)
    for layer, start, end, parent, size in spans:
        calls[layer] += 1
        total_ns[layer] += end - start
        self_ns[layer] += end - start
        if parent >= 0:
            self_ns[spans[parent][0]] -= end - start
        if size is not None:
            sizes[layer].append(size)

    def per_trial(value):
        return value / trials

    def self_s(layer):
        return per_trial(self_ns[layer] / 1e9)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    gen = "generator.evaluate_batch"
    gen_rows = sum(sizes[gen])
    tells = sizes["cmaes.tell"]
    offered = [t for t in tells if t[2]]
    out = {
        f"{gen}.calls": per_trial(calls[gen]),
        f"{gen}.rows": per_trial(gen_rows),
        f"{gen}.us_per_call": total_ns[gen] / 1e3 / calls[gen] if calls[gen] else 0.0,
        f"{gen}.us_per_row": total_ns[gen] / 1e3 / gen_rows if gen_rows else 0.0,
        "core.budget.rows_per_call": mean(sizes["core.budget"]),
        "cmaes.lam_ratio_mean": mean([lam / default for lam, default, _, _ in tells]),
        "cmaes.at_ceiling_frac": mean([float(lam >= 8 * default)
                                       for lam, default, _, _ in tells]),
        "cmaes.injection_usable_frac": mean([float(t[3]) for t in offered]),
    }
    for layer in ("hosts.fast_non_dominated_sort", "hosts.crowding_distance",
                  "hosts.hv_contributions", "hosts.hv_exact", "cmaes.ask",
                  "cmaes.tell", "metrics.hv_normalized", "metrics.e_metric"):
        out[f"{layer}.calls"] = per_trial(calls[layer])
        out[f"{layer}.self_s"] = self_s(layer)
    out["hosts.fast_non_dominated_sort.mean_n"] = mean(sizes["hosts.fast_non_dominated_sort"])
    out["hosts.hv_contributions.mean_k"] = mean(sizes["hosts.hv_contributions"])
    for layer in ("hosts.step", "hosts.scalarized_fitness", "hosts.de_pm_offspring",
                  "hosts.distinct_triplets", "estimation.produce_offspring",
                  "estimation.update", "bench.run_trial", "core.budget", gen):
        out[f"{layer}.self_s"] = self_s(layer)
    for layer in ("cmaes.warm_restart", "cmaes.stop"):
        out[f"{layer}.calls"] = per_trial(calls[layer])
    out["bench.run_trial.wall_s"] = per_trial(total_ns["bench.run_trial"] / 1e9)
    return out

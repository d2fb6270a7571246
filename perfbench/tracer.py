"""Spans around the public functions of every dppmle module.

The tracer wraps each public function defined in a layer module and
rebinds every module-level name that refers to it, across the whole
package. Rebinding matters: ``optimize`` calls ``gradient`` through its own
``from .likelihood import gradient`` binding, so wrapping only
``likelihood.gradient`` would leave the nested spans silently missing.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` records.
A span's self time is its duration minus the durations of its direct
children. Observers attach counts to a span from the call's arguments and
result (solver status and work, supported masks, draws, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = (
    "kernels", "sampling", "likelihood", "optimize", "closed_form",
    "asymptotics", "numdiff", "experiments", "verify", "cli",
)

#: Accessors called inside nearly every other call; tracing them would cost
#: more than they do and they do no work of their own.
UNTRACED = {"kernels.as_array"}

SOLVER_STATUSES = ("converged", "max_iter", "diverged", "singular")

BATCH_IO = ("sampling.save_batch", "sampling.load_batch",
            "sampling.batch_to_csv", "sampling.batch_from_csv")

LIKELIHOOD_CALLS = ("likelihood.log_likelihood", "likelihood.gradient", "likelihood.hessian")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_sgd(fn, args, kwargs, result) -> dict:
    # Work counts come from the returned IterationTrace. The trace is thinned
    # to every ``trace_every`` steps, so a run that stopped early is counted
    # at the last recorded step (resolution: trace_every steps).
    params = _bound(fn, args, kwargs)
    trace = result[1]
    if trace.status == "max_iter":
        steps = int(params["iters"])
    else:
        steps = max(len(trace.iterates) - 1, 0) * int(params["trace_every"])
    return {"status": trace.status, "steps": steps}


def _observe_newton(fn, args, kwargs, result) -> dict:
    params = _bound(fn, args, kwargs)
    trace = result[1]
    iterations = max(len(trace.iterates) - 1, 0) * int(params["trace_every"])
    return {"status": trace.status, "iterations": iterations}


def _observe_likelihood(fn, args, kwargs, result) -> dict:
    masks = args[0].support[0]
    return {"support_masks": int(np.count_nonzero(masks))}


def _observe_sample_batch(fn, args, kwargs, result) -> dict:
    if result.sampler != "spectral":
        return {}
    items = sum(int(m).bit_count() for m in result.masks)
    return {"draws": len(result), "items": items}


def _observe_file_arg(fn, args, kwargs, result) -> dict:
    path = _bound(fn, args, kwargs)["path"]
    return {"bytes": os.path.getsize(path)}


def _observe_write_results(fn, args, kwargs, result) -> dict:
    return {"bytes": sum(os.path.getsize(path) for path in result)}


OBSERVERS = {
    "optimize.sgd": _observe_sgd,
    "optimize.newton_raphson": _observe_newton,
    "likelihood.log_likelihood": _observe_likelihood,
    "likelihood.gradient": _observe_likelihood,
    "likelihood.hessian": _observe_likelihood,
    "sampling.sample_batch": _observe_sample_batch,
    "sampling.save_batch": _observe_file_arg,
    "sampling.load_batch": _observe_file_arg,
    "experiments.write_results": _observe_write_results,
}


class Tracer:
    """In-memory span recorder; install() rebinds the package's functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[tuple[types.ModuleType, str], object] = {}

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dppmle.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dppmle" and not mod_name.startswith("dppmle."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._originals[(module, attr)] = obj
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for (module, attr), obj in self._originals.items():
            setattr(module, attr, obj)
        self._originals.clear()

    def function_table(self) -> dict[str, dict]:
        """calls, total (inclusive) seconds and self seconds per function."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            attrs.get(key, 0) for span_name, _, _, _, attrs in self.spans
            if span_name == name and attrs
        )

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The per-layer metrics, each per timed pass."""
        table = self.function_table()

        def row(name):
            return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        out: dict[str, float] = {}
        for name in (
            "optimize.sgd", "optimize.newton_raphson", *LIKELIHOOD_CALLS,
            "sampling.sample_batch", "kernels.enumerate_distribution",
            "kernels.sign_distance", "kernels.validate_kernel", "closed_form.mle_2x2",
            "closed_form.chart_log_likelihood", "numdiff.fd_gradient", "numdiff.fd_hessian",
            "asymptotics.clt_experiment", "asymptotics.asymptotic_covariance",
            "asymptotics.berry_esseen_experiment",
        ):
            out[f"{name}.calls"] = row(name)["calls"] / passes
            out[f"{name}.self_s"] = row(name)["self_s"] / passes
        for name in ("likelihood.empirical_distribution", "verify.run_checks",
                     "experiments.run_experiment", "experiments.write_results", "cli.main"):
            out[f"{name}.self_s"] = row(name)["self_s"] / passes

        steps = self.attr_sum("optimize.sgd", "steps")
        out["optimize.sgd.steps"] = steps / passes
        out["optimize.sgd.us_per_step"] = 1e6 * row("optimize.sgd")["total_s"] / steps if steps else 0.0
        iterations = self.attr_sum("optimize.newton_raphson", "iterations")
        newton_calls = row("optimize.newton_raphson")["calls"]
        out["optimize.newton_raphson.iterations"] = iterations / passes
        out["optimize.newton_raphson.ms_per_iter"] = (
            1e3 * row("optimize.newton_raphson")["total_s"] / iterations if iterations else 0.0
        )
        for solver in ("optimize.sgd", "optimize.newton_raphson"):
            statuses = Counter(
                attrs["status"] for span_name, _, _, _, attrs in self.spans
                if span_name == solver and attrs
            )
            for status in SOLVER_STATUSES:
                out[f"{solver}.status.{status}"] = statuses[status] / passes
        converged = out["optimize.newton_raphson.status.converged"] * passes
        out["optimize.newton_raphson.converged_ratio"] = converged / newton_calls if newton_calls else 0.0

        likelihood_calls = sum(row(name)["calls"] for name in LIKELIHOOD_CALLS)
        masks = sum(self.attr_sum(name, "support_masks") for name in LIKELIHOOD_CALLS)
        out["likelihood.support_masks"] = masks / likelihood_calls if likelihood_calls else 0.0

        draws = self.attr_sum("sampling.sample_batch", "draws")
        items = self.attr_sum("sampling.sample_batch", "items")
        spectral_s = sum(
            end - start for span_name, _, start, end, attrs in self.spans
            if span_name == "sampling.sample_batch" and attrs and attrs.get("draws")
        )
        out["sampling.draws"] = draws / passes
        out["sampling.us_per_draw"] = 1e6 * spectral_s / draws if draws else 0.0
        out["sampling.mean_draw_size"] = items / draws if draws else 0.0
        out["sampling.batch_io.self_s"] = sum(row(name)["self_s"] for name in BATCH_IO) / passes
        out["sampling.batch_io.bytes"] = sum(
            self.attr_sum(name, "bytes") for name in ("sampling.save_batch", "sampling.load_batch")
        ) / passes
        out["experiments.write_results.bytes"] = (
            self.attr_sum("experiments.write_results", "bytes") / passes
        )
        return out

"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced poolshrink function by a timing
wrapper in every poolshrink module namespace that holds it, so calls made
through names imported into another module (``risksim`` calls ``phi_hb``
and ``pt_threshold``; ``estimators`` calls ``f_quantile`` and
``adaptive_quad_multi``) are seen too.  ``uninstall`` puts the originals
back.  Spans are aggregated as they close: per layer the call count, the
self time (span time minus the time of its direct child spans) and a few
work counters.  A traced function that no longer exists is listed as
absent and reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# Layer name -> (module, function).  The minimax layer is the sum of its
# public functions.
LAYERS = {
    "risksim.replication_rng": ("poolshrink.risksim", "replication_rng"),
    "risksim.simulate_risk": ("poolshrink.risksim", "simulate_risk"),
    "estimators.pt_threshold": ("poolshrink.estimators", "pt_threshold"),
    "estimators.phi_hb": ("poolshrink.estimators", "phi_hb"),
    "estimators.estimate": ("poolshrink.estimators", "estimate"),
    "numerics.f_quantile": ("poolshrink.numerics", "f_quantile"),
    "numerics.adaptive_quad_multi": ("poolshrink.numerics", "adaptive_quad_multi"),
    "numerics.reg_upper_gamma": ("poolshrink.numerics", "reg_upper_gamma"),
    "numerics.log_lower_inc_beta": ("poolshrink.numerics", "log_lower_inc_beta"),
    "statistics.compute_pooled_stats": ("poolshrink.statistics", "compute_pooled_stats"),
    "model.validate_spec": ("poolshrink.model", "validate_spec"),
    "cli.main": ("poolshrink.cli", "main"),
}
MINIMAX_FUNCTIONS = (
    "check_shrink_function",
    "double_shrinkage_report",
    "lincomb_shrinkage_report",
    "optimal_eb_constant",
    "optimal_heb_constants",
    "single_shrinkage_report",
    "solve_hb_a",
    "solve_hb_a_from_ratio",
)


def _count_work(layer: str, args, kwargs, result) -> int:
    """Work units of one call: replications simulated, F values evaluated,
    integrand evaluations."""
    arg = lambda i, name: args[i] if len(args) > i else kwargs[name]
    if layer == "risksim.simulate_risk":
        return arg(0, "plan").replications
    if layer == "estimators.phi_hb":
        return int(np.broadcast(np.asarray(arg(0, "F")), np.asarray(arg(1, "S"))).size)
    if layer == "numerics.adaptive_quad_multi":
        return int(result[2])
    return 0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.top_level_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        self.work.setdefault(layer, 0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - children[0]
            self.work[layer] += _count_work(layer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        targets = [(layer, mod, fn) for layer, (mod, fn) in LAYERS.items()]
        targets += [("minimax." + fn, "poolshrink.minimax", fn) for fn in MINIMAX_FUNCTIONS]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "poolshrink" or name.startswith("poolshrink."))]
        for layer, mod_name, fn_name in targets:
            try:
                original = getattr(importlib.import_module(mod_name), fn_name, None)
            except ModuleNotFoundError:
                original = None
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); counts and times are per op."""
        calls = lambda layer: self.calls.get(layer, 0)
        ratio = lambda num, den: num / den if den else 0.0
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (calls(layer) / ops, "count/op")
            out[layer + ".self_s"] = (self.self_s.get(layer, 0.0) / ops, "s/op")
        minimax = [layer for layer in self.calls if layer.startswith("minimax.")]
        out["minimax.calls"] = (sum(self.calls[layer] for layer in minimax) / ops, "count/op")
        out["minimax.self_s"] = (sum(self.self_s[layer] for layer in minimax) / ops, "s/op")
        reps = self.work.get("risksim.simulate_risk", 0)
        out["risksim.streams_per_rep"] = (ratio(calls("risksim.replication_rng"), reps), "1/rep")
        out["estimators.pt_threshold.calls_per_plan"] = (
            ratio(calls("estimators.pt_threshold"), calls("risksim.simulate_risk")), "1/plan")
        out["estimators.phi_hb.values"] = (self.work.get("estimators.phi_hb", 0) / ops, "count/op")
        evals = self.work.get("numerics.adaptive_quad_multi", 0)
        out["numerics.adaptive_quad_multi.evals"] = (evals / ops, "count/op")
        out["numerics.adaptive_quad_multi.evals_per_call"] = (
            ratio(evals, calls("numerics.adaptive_quad_multi")), "ratio")
        out["statistics.compute_pooled_stats.calls_per_estimate"] = (
            ratio(calls("statistics.compute_pooled_stats"), calls("estimators.estimate")), "ratio")
        return out

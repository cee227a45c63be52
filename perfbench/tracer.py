"""Spans around the public maxaffine functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``maxaffine`` module that holds a reference to it, so calls are caught
the way their callers make them, including names imported with
``from .x import y``.  Each call records a span (name, parent, start,
end) plus counts read off its arguments or result.  A span's self time is
its duration minus the time covered by its child spans, so the self times
of one round add up to the time spent inside the package.
"""

import functools
import sys
import time

import numpy as np

# (module, attribute or "Class.method", layer metric prefix)
TRACED = (
    ("harness_cli", "main", "harness_cli.main"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("dual_ma", "dual_approximation_sweep", "dual_ma.dual_sweep"),
    ("functionals", "weighted_mass", "functionals.weighted_mass"),
    ("approximator", "build_approximation", "approximator.build"),
    ("approximator", "stationarity_residual_1d", "approximator.residual"),
    ("quantizer", "quantize", "quantizer.quantize"),
    ("error_eval", "weighted_lp_error", "error_eval.weighted_lp_error"),
    ("error_eval", "exact_1d_piecewise_integral", "error_eval.exact_1d"),
    ("convex_core", "max_violation", "convex_core.max_violation"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("convex_core", "PiecewiseAffineMax.evaluate", "convex_core.evaluate"),
)


def _counts(name, args, result):
    """Work counts of one call, read off its arguments or its result."""
    if name == "quantizer.quantize":
        return {"lloyd_iterations": result.iterations_used,
                "converged": int(result.converged)}
    if name == "quadrature.integrate":
        return {"nodes": result.nodes_used}
    if name == "convex_core.evaluate":
        env, x = args[0], args[1]
        rows = np.size(x) // env.dim
        return {"rows": rows, "flop": 2 * env.dim * rows * env.npieces}
    return {}


class Tracer:
    """In-memory span recorder; ``reset`` starts a new round."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []     # [name, parent index or -1, start, end, counts]
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, parent, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            span[4] = _counts(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever the package refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "maxaffine" or key.startswith("maxaffine.")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[f"maxaffine.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def layer_metrics(self, round_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        total, self_time = {}, {}
        counts, calls = {}, {}
        for name, parent, start, end, extra in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - d
            for key, value in extra.items():
                counts[key] = counts.get(key, 0) + value

        def s(name):
            return self_time.get(name, 0.0)

        quantize_calls = calls.get("quantizer.quantize", 0)
        iterations = counts.get("lloyd_iterations", 0)
        top = sum(end - start for _, parent, start, end, _ in self.spans
                  if parent < 0)
        return {
            "quantizer.quantize_s": s("quantizer.quantize"),
            "quantizer.quantize_calls": quantize_calls,
            "quantizer.lloyd_iterations": iterations,
            "quantizer.s_per_iteration":
                total.get("quantizer.quantize", 0.0) / iterations
                if iterations else 0.0,
            "quantizer.converged_ratio":
                counts.get("converged", 0) / quantize_calls
                if quantize_calls else 0.0,
            "approximator.build_s": s("approximator.build"),
            "approximator.build_calls": calls.get("approximator.build", 0),
            "approximator.residual_s": s("approximator.residual"),
            "approximator.residual_evals":
                calls.get("approximator.residual", 0),
            "error_eval.weighted_lp_error_s":
                s("error_eval.weighted_lp_error"),
            "error_eval.exact_1d_s": s("error_eval.exact_1d"),
            "convex_core.max_violation_s": s("convex_core.max_violation"),
            "quadrature.integrate_s": s("quadrature.integrate"),
            "quadrature.nodes": counts.get("nodes", 0),
            "convex_core.evaluate_s": s("convex_core.evaluate"),
            "convex_core.evaluate_rows": counts.get("rows", 0),
            "convex_core.evaluate_gflop": counts.get("flop", 0) / 1e9,
            "functionals.weighted_mass_s": s("functionals.weighted_mass"),
            "sweep.run_sweep_s": s("sweep.run_sweep"),
            "harness_cli.main_s": s("harness_cli.main"),
            "dual_ma.dual_sweep_s": s("dual_ma.dual_sweep"),
            "trace.round_s": round_s,
            "trace.outside_s": round_s - top,
        }

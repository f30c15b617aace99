"""Per-layer tracing from outside the package.

Wrappers go on the name each calling module looks up: the package binds
imported names at import time, so `counterexample._factorized_batch` and
`propagator._factorized_batch` are separate bindings of one function.
Each wrapper adds inclusive time and a call count for the outermost call
of its metric (nested calls of the same metric are not counted twice),
plus any work counts read from the arguments or the result.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.panel_nodes.calls", "count", "lower"),
    ("quadrature.integrate_box.calls", "count", "lower"),
    ("quadrature.integrate_box.s", "s", "lower"),
    ("quadrature.integrate_1d.calls", "count", "lower"),
    ("quadrature.integrate_1d.s", "s", "lower"),
    ("quadrature.errors", "count", "lower"),
    ("profiles.sobolev_norm.s", "s", "lower"),
    ("profiles.sobolev_norm.calls", "count", "lower"),
    ("profiles.spectrum_eval.points", "count", "lower"),
    ("profiles.l2_norm.s", "s", "lower"),
    ("numbertheory.gauss_sum.calls", "count", "lower"),
    ("numbertheory.gauss_modulus_law.s", "s", "lower"),
    ("numbertheory.weyl_sum.calls", "count", "lower"),
    ("numbertheory.weyl_calibration.s", "s", "lower"),
    ("propagator.factorized_batch.s", "s", "lower"),
    ("propagator.factorized_batch.points", "count", "higher"),
    ("propagator.evaluate_p_gamma.s", "s", "lower"),
    ("propagator.evaluate_p_gamma.calls", "count", "lower"),
    ("propagator.factorized_evaluate.s", "s", "lower"),
    ("propagator.factorized_evaluate.calls", "count", "lower"),
    ("propagator.factorized_evaluate.errors", "count", "lower"),
    ("maximal.maximal_ratio.s", "s", "lower"),
    ("maximal.maximal_ratio.calls", "count", "lower"),
    ("maximal.field_points", "count", "lower"),
    ("maximal.field_points_per_s", "1/s", "higher"),
    ("counterexample.sample_omega_star.s", "s", "lower"),
    ("counterexample.draws", "count", "lower"),
    ("counterexample.valid_draws", "count", "higher"),
    ("counterexample.valid_frac", "ratio", "higher"),
    ("counterexample.anchors_total", "count", "lower"),
    ("counterexample.anchors_in_window", "count", "higher"),
    ("counterexample.anchor_window_frac", "ratio", "higher"),
    ("counterexample.calibration_constants.s", "s", "lower"),
    ("counterexample.error_budget.s", "s", "lower"),
    ("counterexample.select_time.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.verdicts_failed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _nodes(args, kwargs, result):
    return {"quadrature.nodes": result[0].size}


def _spectrum_points(args, kwargs, result):
    shape = getattr(args[1], "shape", None)
    return {"profiles.spectrum_eval.points": math.prod(shape[:-1]) if shape else 1}


def _batch_points(args, kwargs, result):
    return {"propagator.factorized_batch.points": len(args[1])}


def _field_points(args, kwargs, result):
    f, tg, sg = args[0], args[2][0], args[2][1]
    return {"maximal.field_points": tg.count * sg.per_axis ** f.dim}


def _draws(args, kwargs, result):
    return {"counterexample.draws": len(result),
            "counterexample.valid_draws": sum(s.x is not None for s in result)}


def _anchors(args, kwargs, result):
    return {"counterexample.anchors_total": result.anchors_total,
            "counterexample.anchors_in_window": result.anchors_in_window}


def _output_bytes(args, kwargs, result):
    return {"cli.output_bytes": len(args[1].encode())}


# (module, attribute the callers look up, metric, work counter, errors counted
# as (metric, exception class name in schrodmax.quadrature or None for any))
WRAPS = (
    ("quadrature", "panel_nodes", "quadrature.panel_nodes", _nodes, None),
    ("maximal", "panel_nodes", "quadrature.panel_nodes", _nodes, None),
    ("propagator", "panel_nodes", "quadrature.panel_nodes", _nodes, None),
    ("profiles", "integrate_box", "quadrature.integrate_box", None,
     ("quadrature.errors", "QuadratureError")),
    ("profiles", "integrate_1d", "quadrature.integrate_1d", None,
     ("quadrature.errors", "QuadratureError")),
    ("propagator", "integrate_1d", "quadrature.integrate_1d", None,
     ("quadrature.errors", "QuadratureError")),
    ("profiles", "sobolev_norm", "profiles.sobolev_norm", None, None),
    ("counterexample", "sobolev_norm", "profiles.sobolev_norm", None, None),
    ("profiles", "spectrum_eval", "profiles.spectrum_eval", _spectrum_points, None),
    ("profiles", "l2_norm", "profiles.l2_norm", None, None),
    ("maximal", "l2_norm", "profiles.l2_norm", None, None),
    ("numbertheory", "gauss_sum", "numbertheory.gauss_sum", None, None),
    ("numbertheory", "gauss_modulus_law", "numbertheory.gauss_modulus_law", None, None),
    ("cli", "gauss_modulus_law", "numbertheory.gauss_modulus_law", None, None),
    ("numbertheory", "weyl_sum", "numbertheory.weyl_sum", None, None),
    ("numbertheory", "weyl_calibration", "numbertheory.weyl_calibration", None, None),
    ("cli", "weyl_calibration", "numbertheory.weyl_calibration", None, None),
    ("counterexample", "_factorized_batch", "propagator.factorized_batch",
     _batch_points, None),
    ("propagator", "evaluate_p_gamma", "propagator.evaluate_p_gamma", None, None),
    ("cli", "evaluate_p_gamma", "propagator.evaluate_p_gamma", None, None),
    ("propagator", "factorized_evaluate", "propagator.factorized_evaluate", None,
     ("propagator.factorized_evaluate.errors", None)),
    ("cli", "factorized_evaluate", "propagator.factorized_evaluate", None,
     ("propagator.factorized_evaluate.errors", None)),
    ("maximal", "maximal_ratio", "maximal.maximal_ratio", _field_points, None),
    ("counterexample", "sample_omega_star", "counterexample.sample_omega_star",
     _draws, None),
    ("counterexample", "_experiment_entry", "counterexample.experiment_entry",
     _anchors, None),
    ("counterexample", "calibration_constants",
     "counterexample.calibration_constants", None, None),
    ("counterexample", "error_budget", "counterexample.error_budget", None, None),
    ("counterexample", "select_time", "counterexample.select_time", None, None),
    ("cli", "run", "cli.run", None, None),
    ("cli", "_write_atomic", "cli.write", _output_bytes, None),
)


class Tracer:
    """Installs the wrappers and accumulates their times and counts."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._depth: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every target in WRAPS; a target the package lacks is listed in `missing`."""
        quad = importlib.import_module("schrodmax.quadrature")
        for mod_name, attr, metric, counter, errors in WRAPS:
            module = importlib.import_module(f"schrodmax.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if errors is not None:
                exc_type = getattr(quad, errors[1]) if errors[1] else Exception
                errors = (errors[0], exc_type)
            setattr(module, attr, self._wrap(fn, metric, counter, errors))

    def _wrap(self, fn, metric, counter, errors):
        values, depth = self.values, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth[metric] == 0
            depth[metric] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if outer and errors is not None and isinstance(exc, errors[1]):
                    values[errors[0]] += 1
                raise
            finally:
                depth[metric] -= 1
                if outer:
                    values[f"{metric}.s"] += time.perf_counter() - start
                    values[f"{metric}.calls"] += 1
            if outer and counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    values[key] += n
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value except those the caller measures itself."""
        v = self.values
        out = {name: int(v.get(name, 0)) if unit in ("count", "bytes") else v.get(name, 0.0)
               for name, unit, _ in LAYER_METRICS}
        out["maximal.field_points_per_s"] = _ratio(
            v.get("maximal.field_points", 0.0), v.get("maximal.maximal_ratio.s", 0.0))
        out["counterexample.valid_frac"] = _ratio(
            v.get("counterexample.valid_draws", 0.0), v.get("counterexample.draws", 0.0))
        out["counterexample.anchor_window_frac"] = _ratio(
            v.get("counterexample.anchors_in_window", 0.0),
            v.get("counterexample.anchors_total", 0.0))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0

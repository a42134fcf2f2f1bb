"""Spans around calls into wulffkit's layers, installed from outside the program.

While a Tracer is entered (`with Tracer() as tracer:`), wrappers replace:

- the public functions of each layer module, under every name that refers
  to the same object in any wulffkit module (so `verify.integrate_clipped`
  is timed as the quadrature layer);
- the methods of the classes the workloads build (gauges, duals, patches,
  transversal fields);
- the CLI's per-kind check functions and its CSV writer.

Spans are aggregated as they close, in additive sums, so sums from several
processes can be merged: per callable the call count and inclusive time,
per layer the self time (a span's duration minus the time its child spans
cover), and the counters the per-layer metrics need.  `fd` is not wrapped:
its time is self time of the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("norms", "condition_s", "symfunc", "surfaces", "quadrature", "verify", "cli")

CLASS_METHODS = {
    "norms": {
        "MinkowskiNorm": ("value", "grad", "hess", "restricted_hessian_min_eig",
                          "euler_residual", "radial_kernel_residual", "wulff_point",
                          "dual"),
        "DualNorm": ("value", "grad", "eval_with_maximizer", "as_norm", "_ascend"),
    },
    "surfaces": {
        "ParametricPatch": ("chart", "dchart", "d2chart", "frames", "frame_at",
                            "sample_grid", "boundary_samples", "gauge_range",
                            "boundary_gauge_radius"),
        "TransversalField": ("__call__",),
    },
}

# check kinds the bundled scenarios run, with the CLI function behind each
CLI_CHECKS = {
    "norm-identities": "_check_norm_identities",
    "condition-s": "_check_condition_s",
    "lemmas": "_check_lemmas",
    "monotonicity": "_check_monotonicity",
    "equiaffine": "_check_equiaffine",
    "minkowski": "_check_minkowski",
    "symfunc": "_check_symfunc",
}

ASCEND = "norms.DualNorm._ascend"
BATCH_ROWS = 10_000     # rows of the batch norm_batch_rates evaluates
BATCH_REPEATS = 5


def _is_single(u) -> bool:
    shape = np.shape(u)
    return len(shape) == 1 or shape[0] == 1


# ----------------------------------------------------------------- counters

def _hook_norm_eval(sums, args, kwargs, result, dur, parent):
    u = args[1] if len(args) > 1 else kwargs["u"]
    if _is_single(u):
        sums["norm_single_calls"] += 1
        sums["norm_single_time"] += dur
    if parent == ASCEND:
        sums["ascend_base_calls"] += 1


def _hook_frames(sums, args, kwargs, result, dur, parent):
    sums["frames_nodes"] += result.x.shape[0]


def _hook_clipped(sums, args, kwargs, result, dur, parent):
    patch = args[0]
    rule = args[3] if len(args) > 3 else kwargs.get("rule")
    order = rule.order if rule is not None else 6   # ParamQuadrature() default
    cells = result.inside_cells + result.leaf_cells
    sums["clipped_cells"] += cells
    sums["clipped_nodes"] += cells * order ** patch.n
    sums["clipped_exhausted"] += int(result.depth_exhausted)


def _hook_condition_s(sums, args, kwargs, result, dur, parent):
    pairs = int(args[1] if len(args) > 1 else kwargs.get("sample_count", 10_000))
    sums["conds_pairs"] += pairs
    norm = args[0]
    dual = args[5] if len(args) > 5 else kwargs.get("dual")
    numeric = (dual.mode == "numeric") if dual is not None \
        else norm.family not in ("euclidean", "quadratic")   # DualNorm "auto"
    if numeric:
        sums["conds_numeric_pairs"] += pairs


def _hook_suite(sums, args, kwargs, result, dur, parent):
    sums["suite_points"] += result["kept_points"]


def _hook_oracle(sums, args, kwargs, result, dur, parent):
    sums["oracle_calls"] += 1
    sums["oracle_time"] += dur


HOOKS = {
    "norms.MinkowskiNorm.value": _hook_norm_eval,
    "norms.MinkowskiNorm.grad": _hook_norm_eval,
    "norms.MinkowskiNorm.hess": _hook_norm_eval,
    "surfaces.ParametricPatch.frames": _hook_frames,
    "quadrature.integrate_clipped": _hook_clipped,
    "condition_s.check_condition_s": _hook_condition_s,
    "verify.frame_identity_suite": _hook_suite,
}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.sums = defaultdict(float)
        self._stack = []              # open spans: [child_time, key]
        self._depth = defaultdict(int)  # open spans per layer
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        stack, depth, sums = self._stack, self._depth, self.sums
        hook = HOOKS.get(key)
        if layer == "symfunc" and key.endswith("_oracle"):
            hook = _hook_oracle
        count_ascent = key == ASCEND
        calls_key, time_key, self_key = f"calls:{key}", f"time:{key}", f"self:{layer}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [0.0, key]
            stack.append(span)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                sums[calls_key] += 1
                sums[time_key] += dur
                sums[self_key] += dur - span[0]
                if parent is not None:
                    parent[0] += dur
            if count_ascent and depth["condition_s"] > 0:
                sums["conds_ascents"] += 1
            if hook is not None:
                hook(sums, args, kwargs, result, dur, parent[1] if parent else None)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        import wulffkit.cli  # noqa: F401  (load every layer module)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "wulffkit" or name.startswith("wulffkit.")}
        for layer in LAYERS:
            mod = modules[f"wulffkit.{layer}"]
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and not (layer == "cli" and (
                        name in CLI_CHECKS.values() or name == "_write_csvs")):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                for other in modules.values():
                    for attr, val in list(vars(other).items()):
                        if val is obj:
                            self._undo.append((other, attr, obj))
                            setattr(other, attr, wrapper)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{meth}", layer))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ----------------------------------------------------------------- metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(sums: dict, passes: int) -> dict:
    """Per-layer metrics from merged sums; counts and self times are per pass."""
    s = defaultdict(float, sums)
    per = 1.0 / max(passes, 1)
    out = {
        "norms.single_calls_per_s": _ratio(s["norm_single_calls"], s["norm_single_time"]),
        "norms.dual_ascents_per_s": _ratio(s[f"calls:{ASCEND}"], s[f"time:{ASCEND}"]),
        "norms.dual_base_calls_per_ascent": _ratio(s["ascend_base_calls"], s[f"calls:{ASCEND}"]),
        "norms.self_s": s["self:norms"] * per,
        "condition_s.pairs_per_s": _ratio(
            s["conds_pairs"], s["time:condition_s.check_condition_s"]
            + s["time:condition_s.worst_pairs"]),
        "condition_s.ascents_per_pair": _ratio(s["conds_ascents"], s["conds_numeric_pairs"]),
        "surfaces.frames_calls": s["calls:surfaces.ParametricPatch.frames"] * per,
        "surfaces.frames_nodes_per_call": _ratio(
            s["frames_nodes"], s["calls:surfaces.ParametricPatch.frames"]),
        "surfaces.equiaffine_calls": s["calls:surfaces.equiaffine_batch"] * per,
        "surfaces.frames_nodes_per_s": _ratio(
            s["frames_nodes"], s["time:surfaces.ParametricPatch.frames"]),
        "surfaces.self_s": s["self:surfaces"] * per,
        "quadrature.clipped_calls": s["calls:quadrature.integrate_clipped"] * per,
        "quadrature.cells": s["clipped_cells"] * per,
        "quadrature.nodes": s["clipped_nodes"] * per,
        "quadrature.self_s": s["self:quadrature"] * per,
        "quadrature.depth_exhausted": s["clipped_exhausted"] * per,
        "verify.frame_suite_points_per_s": _ratio(
            s["suite_points"], s["time:verify.frame_identity_suite"]),
        "verify.self_s": s["self:verify"] * per,
        "symfunc.oracle_checks_per_s": _ratio(s["oracle_calls"], s["oracle_time"]),
        "cli.write_s": s["time:cli._write_csvs"] * per,
    }
    for kind, fn in CLI_CHECKS.items():
        out[f"cli.check_s.{kind}"] = s[f"time:cli.{fn}"] * per
    return out


def norm_batch_rates(seed: int) -> dict:
    """value+grad+hess rows per second on one batch, per closed-form family
    (median of BATCH_REPEATS untraced timings)."""
    import wulffkit as wk
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((BATCH_ROWS, 3))
    A = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])
    out = {}
    for family, norm in (("euclidean", wk.MinkowskiNorm.euclidean(3)),
                         ("quadratic", wk.MinkowskiNorm.quadratic(A)),
                         ("quartic", wk.MinkowskiNorm.quartic(3, eps=0.05))):
        times = []
        for _ in range(BATCH_REPEATS):
            t0 = time.perf_counter()
            norm.value(U)
            norm.grad(U)
            norm.hess(U)
            times.append(time.perf_counter() - t0)
        out[f"norms.{family}.batch_rows_per_s"] = BATCH_ROWS / sorted(times)[BATCH_REPEATS // 2]
    return out

"""dual-scan: numeric duals and condition-S scans in the plane.

Three gauges: the smoothed quartic (eps 0.05, no closed-form dual), a
quadratic gauge R diag(1, 4) R^T forced to mode "numeric", and the
biduality round trip through DualNorm.as_norm, whose gauge is a custom one
with an FD Hessian.  The seed draws R, the sample directions and the
condition-S scramble seed.

References are built here with NumPy alone: the closed-form quadratic dual
sqrt(v^T A^-1 v), the gauges' own formulas, and a dense direction grid
whose maximum of <w, v>/F(w) bounds F°(v) from below.
"""

from __future__ import annotations

import math

import numpy as np

from common import PassReport, attempt, rotation

QUARTIC_EPS = 0.05
A_DIAG = np.diag([1.0, 4.0])
DIRECTIONS = 400          # numeric-dual evaluations per gauge and pass
PAIRS = 500               # condition-S samples per gauge and pass
BIDUAL_POINTS = 8
BIDUAL_GRID = 256         # numeric-dual grid of the biduality pair (as in criterion 2)
DENSE_GRID = 1 << 16      # reference direction grid
CLOSED_TOL = 1e-6         # numeric vs closed-form dual, relative
MAXIMIZER_TOL = 1e-9      # F(u*) = 1 and <u*, v> = F°(v), relative
BIDUAL_TOL = 1e-6         # F°° = F, relative
# per-row Python ascents do the work; rescaling each unit by the reference
# kernel cut the ten-run spread of wall_s from about 0.06 to 0.04
NORMALIZE = True


def quartic_value(W: np.ndarray) -> np.ndarray:
    r2 = np.sum(W * W, axis=1)
    return (np.sum(W ** 4, axis=1) + QUARTIC_EPS * r2 * r2) ** 0.25


def quartic_grad(u: np.ndarray) -> np.ndarray:
    G = np.sum(u ** 4) + QUARTIC_EPS * np.dot(u, u) ** 2
    return (u ** 3 + QUARTIC_EPS * np.dot(u, u) * u) / G ** 0.75


def quadratic_value(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("mi,ij,mj->m", W, A, W))


def _unit(rng, count: int) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def build(seed: int) -> dict:
    import wulffkit as wk
    rng = np.random.default_rng(seed)
    R = rotation(rng, 2)
    A = R @ A_DIAG @ R.T
    quartic = wk.MinkowskiNorm.quartic(2, eps=QUARTIC_EPS)
    quad = wk.MinkowskiNorm.quadratic(A)
    opts = wk.NumericDualOptions(grid_size=BIDUAL_GRID)
    inner = wk.DualNorm(quad, mode="numeric", options=opts)
    return {
        "A": A, "quartic": quartic, "quad": quad,
        "quartic_dual": quartic.dual(),
        "quad_dual": quad.dual(mode="numeric"),
        "bidual": wk.DualNorm(inner.as_norm(), mode="numeric", options=opts),
        "V": _unit(rng, DIRECTIONS),
        "W": rng.standard_normal((BIDUAL_POINTS, 2)),
        "pair_seed": int(rng.integers(1 << 30)),
    }


def references(inp: dict) -> dict:
    ang = 2.0 * math.pi * (np.arange(DENSE_GRID) + 0.5) / DENSE_GRID
    G = np.column_stack([np.cos(ang), np.sin(ang)])
    V = inp["V"]
    out = {"quad_closed": np.sqrt(np.einsum("mi,ij,mj->m", V, np.linalg.inv(inp["A"]), V)),
           "quad_F": quadratic_value(inp["A"], inp["W"]),
           "grid": G, "quartic_FG": quartic_value(G)}
    for name, FG in (("quartic", out["quartic_FG"]), ("quad", quadratic_value(inp["A"], G))):
        best = np.empty(len(V))
        for start in range(0, len(V), 8):
            Q = (V[start:start + 8] @ G.T) / FG[None, :]
            best[start:start + 8] = Q.max(axis=1)
        out[f"{name}_grid_max"] = best
    return out


def run_pass(inp: dict, timed) -> dict:
    """One pass; `timed` (a common.Stopwatch) times each entry as one unit."""
    from wulffkit import condition_s as cs
    return {
        "quad": timed(lambda: attempt(
            lambda: [inp["quad_dual"].eval_with_maximizer(v) for v in inp["V"]])),
        "quartic": timed(lambda: attempt(
            lambda: [inp["quartic_dual"].eval_with_maximizer(v) for v in inp["V"]])),
        "conds_quad": timed(lambda: attempt(lambda: cs.check_condition_s(
            inp["quad"], PAIRS, seed=inp["pair_seed"], dual=inp["quad_dual"]))),
        "conds_quartic": timed(lambda: attempt(lambda: cs.check_condition_s(
            inp["quartic"], PAIRS, seed=inp["pair_seed"], dual=inp["quartic_dual"]))),
        "bidual": timed(lambda: attempt(lambda: [inp["bidual"].value(w) for w in inp["W"]])),
    }


OPS = {"quad": DIRECTIONS, "quartic": DIRECTIONS, "conds_quad": 1, "conds_quartic": 1,
       "bidual": BIDUAL_POINTS}


def check(inp: dict, refs: dict, out: dict) -> PassReport:
    rep = PassReport(ops=sum(OPS.values()))
    for key, val in out.items():
        if isinstance(val, Exception):
            rep.failed += OPS[key]
            rep.problems.append(f"{key} raised {type(val).__name__}: {val}")
    if not isinstance(out["quad"], Exception):
        vals = np.array([q for q, _ in out["quad"]])
        check_closed(rep, vals, refs["quad_closed"])
        check_maximizers(rep, "quad", inp["V"], out["quad"],
                         lambda U: quadratic_value(inp["A"], U), refs["quad_grid_max"])
    if not isinstance(out["quartic"], Exception):
        check_maximizers(rep, "quartic", inp["V"], out["quartic"], quartic_value,
                         refs["quartic_grid_max"])
    if not isinstance(out["conds_quad"], Exception):
        check_condition_quad(rep, out["conds_quad"])
    if not isinstance(out["conds_quartic"], Exception):
        check_condition_quartic(rep, out["conds_quartic"], refs)
    if not isinstance(out["bidual"], Exception):
        check_bidual(rep, np.asarray(out["bidual"]), refs["quad_F"])
    rep.bars.extend(d.options.grad_tol for d in
                    (inp["quad_dual"], inp["quartic_dual"], inp["bidual"]))
    return rep


def check_closed(rep: PassReport, numeric, closed) -> None:
    rel = np.abs(numeric - closed) / closed
    rep.expect(float(rel.max()) <= CLOSED_TOL,
               f"quad: numeric dual off the closed form by {rel.max():.3e} (relative)")
    rep.rel_errors.append(float(rel.max()))


def check_maximizers(rep: PassReport, name, V, pairs, F, grid_max) -> None:
    """F(u*) = 1, <u*, v> = F°(v), and the dense grid cannot beat F°(v).

    Together they bracket the reported value q: a maximizer with F(u*) = 1
    gives q = <u*, v> <= F°(v), so q cannot exceed the true dual, and the
    grid maximum bounds q from below."""
    q = np.array([p[0] for p in pairs])
    U = np.array([p[1] for p in pairs])
    unit = np.abs(F(U) - 1.0)
    pairing = np.abs(np.einsum("md,md->m", U, V) - q) / np.abs(q)
    rep.expect(float(unit.max()) <= MAXIMIZER_TOL, f"{name}: F(u*) - 1 up to {unit.max():.3e}")
    rep.expect(float(pairing.max()) <= MAXIMIZER_TOL,
               f"{name}: <u*, v> differs from F°(v) by up to {pairing.max():.3e} (relative)")
    rep.rel_errors.extend([float(unit.max()), float(pairing.max())])
    below = (grid_max - q) / grid_max
    rep.expect(float(below.max()) <= 1e-12,
               f"{name}: F°(v) below the dense-grid maximum by {below.max():.3e} (relative)")


def check_condition_quad(rep: PassReport, verdict) -> None:
    """Quadratic gauges satisfy condition S and the pairing identity exactly."""
    rep.expect(verdict.passed, "conds_quad: condition S reported violated for a quadratic gauge")
    rep.expect(abs(verdict.max_fk_residual) <= 1e-8,
               f"conds_quad: pairing residual {verdict.max_fk_residual:.3e}")
    rep.rel_errors.append(abs(verdict.max_fk_residual))


def check_condition_quartic(rep: PassReport, verdict, refs) -> None:
    """The quartic gauge violates condition S, and its reported worst pair
    is a violation when recomputed with the quartic's own gradient and the
    dense-grid maximizer."""
    rep.expect(not verdict.passed, "conds_quartic: condition S reported to hold for the quartic")
    u, v = verdict.worst.u, verdict.worst.v
    G, FG = refs["grid"], refs["quartic_FG"]
    k = int(np.argmax((G @ v) / FG))
    lhs = float(np.dot(quartic_grad(u), G[k] / FG[k]))
    rhs = float(np.dot(u, v))
    rep.expect(abs(rhs) >= 1e-8 and lhs * math.copysign(1.0, rhs) < 0.0,
               f"conds_quartic: worst pair is no violation (pairing {lhs:.3e}, <u,v> {rhs:.3e})")


def check_bidual(rep: PassReport, values, exact) -> None:
    rel = np.abs(values - exact) / exact
    rep.expect(float(rel.max()) <= BIDUAL_TOL, f"bidual: F°° off F by {rel.max():.3e} (relative)")
    rep.rel_errors.append(float(rel.max()))

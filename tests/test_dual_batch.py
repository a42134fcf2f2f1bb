"""The lockstep numeric dual against the per-row reference.

The reference below is the per-row ascent the lockstep one replaced, one
direction at a time: in d = 2 a start read from an inverse Gauss-map table
that it builds itself, one grid direction and one gauge call at a time, and
in d >= 3 a grid scan; then safeguarded spherical Newton with an Armijo
gradient fallback.  The lockstep ascent takes the same steps with the same
rejection and acceptance rules and the same stopping test, so the two reach
the same maximizer; they differ only by round-off in the table and the
Newton system, far below grad_tol.
"""

import bisect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import condition_s as cs
from wulffkit import norms
from wulffkit.errors import NonConvergence, ZeroDirection

AGREE = 1e-12


# ------------------------------------------------------- per-row reference


def _complement(uh):
    d = uh.shape[0]
    e0 = np.zeros(d)
    e0[0] = 1.0
    w = uh - e0 if uh[0] >= 0 else uh + e0
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        H = np.eye(d)
    else:
        w = w / wn
        H = np.eye(d) - 2.0 * np.outer(w, w)
    return H[:, 1:]


def _newton_step(base, u, v, q, F, gF, g):
    try:
        HF = np.asarray(base.hess(u))
    except Exception:
        return None
    D2q = (-(np.outer(v, gF) + np.outer(gF, v)) / F**2
           + 2.0 * q / F**2 * np.outer(gF, gF) - (q / F) * HF)
    Q = _complement(u / np.linalg.norm(u))
    Hs = Q.T @ D2q @ Q - float(np.dot(g, u)) * np.eye(Q.shape[1])
    rhs = -(Q.T @ g)
    try:
        delta = np.linalg.solve(Hs, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 0.5:
        return None
    un = u + Q @ delta
    nn = np.linalg.norm(un)
    if nn < 1e-12:
        return None
    return un / nn


def _q_slopes(base, v, theta):
    """q'(theta) and q''(theta) of q = <u, v>/F(u) along u = (cos, sin)."""
    u, t = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    F, s = base.value(u), float(np.dot(base.grad(u), t))
    tHt = float(t @ np.asarray(base.hess(u)) @ t)
    uv, tv = float(np.dot(u, v)), float(np.dot(t, v))
    # F' = s and F'' = t^T D^2 F t - F along the circle (Euler: <grad F, u> = F)
    return (tv / F - uv * s / F**2,
            -uv / F - 2.0 * tv * s / F**2 - uv * ((tHt - F) / F**2 - 2.0 * s**2 / F**3))


_TABLES = {}    # id(dual) -> (dual, phi, slope); holding the dual keeps its id unique


def _per_row_table(dual):
    """Per grid direction theta_j = 2 pi j / n of a planar numeric dual: the
    angle phi_j of grad F, unwrapped, and its slope <J grad F, D^2 F t> /
    |grad F|^2, or, if any Hessian raises, the periodic fourth-order
    difference of phi - theta for every slope.  One gauge call per direction."""
    if id(dual) not in _TABLES:
        n, base = dual._table.shape[1], dual.base
        h = 2.0 * math.pi / n
        phi, slope = [], []
        for j in range(n):
            u = np.array([math.cos(h * j), math.sin(h * j)])
            g = np.asarray(base.grad(u))
            a = math.atan2(g[1], g[0])
            phi.append(a if not phi else phi[-1] + (a - phi[-1]) % (2.0 * math.pi))
            try:
                gd = np.asarray(base.hess(u)) @ np.array([-u[1], u[0]])
                slope.append((g[0] * gd[1] - g[1] * gd[0]) / (g[0] ** 2 + g[1] ** 2))
            except NonConvergence:
                slope.append(None)
        if None in slope:
            psi = [p - h * j for j, p in enumerate(phi)]
            slope = [1.0 + (8.0 * (psi[(j + 1) % n] - psi[j - 1])
                            - (psi[(j + 2) % n] - psi[j - 2])) / (12.0 * h) for j in range(n)]
        phi.append(phi[-1] + (phi[0] - phi[-1]) % (2.0 * math.pi))
        _TABLES[id(dual)] = dual, phi, slope
    return _TABLES[id(dual)][1:]


def _table_start(dual, v):
    """The d = 2 start of row v: the grid interval whose gradient angles
    bracket the angle of v, and on it the cubic Hermite interpolant of theta
    as a function of phi (linear where a slope is not finite)."""
    phi, slope = _per_row_table(dual)
    n = len(slope)
    a = phi[0] + (math.atan2(v[1], v[0]) - phi[0]) % (2.0 * math.pi)
    i = bisect.bisect_right(phi[:n], a) - 1
    dphi, h = phi[i + 1] - phi[i], 2.0 * math.pi / n
    x = (a - phi[i]) / dphi if dphi > 0.0 else 0.0
    with np.errstate(all="ignore"):
        m0, m1 = np.float64(dphi) / (h * slope[i]), np.float64(dphi) / (h * slope[(i + 1) % n])
    if np.isfinite(m0) and np.isfinite(m1):
        s = (3 * x**2 - 2 * x**3) + m0 * (x**3 - 2 * x**2 + x) + m1 * (x**3 - x**2)
    else:
        s = x
    theta = h * (i + min(max(s, 0.0), 1.0))
    return np.array([np.cos(theta), np.sin(theta)])


def _ascend_row(dual, v):
    opt = dual.options
    base = dual.base
    if len(v) == 2:
        u = _table_start(dual, v)
    else:
        u = dual._grid[int(np.argmax((dual._grid @ v) / dual._grid_jet[0]))].copy()

    def q_of(w):
        return float(np.dot(w, v)) / base.value(w)

    q = q_of(u)
    step = norms._INITIAL_STEP
    fell_back = False
    for it in range(opt.max_iter):
        F = base.value(u)
        gF = np.asarray(base.grad(u))
        g = v / F - (q / F) * gF
        gt = g - np.dot(g, u) * u
        gn = float(np.linalg.norm(gt))
        if gn < opt.grad_tol:
            return q, u / F, it + 1, fell_back
        un = _newton_step(base, u, v, q, F, gF, g)
        if un is not None:
            qn = q_of(un)
            tiny = float(np.linalg.norm(un - u)) < 1e-6
            if qn > q or (tiny and qn >= q - 8e-16 * max(1.0, abs(q))):
                u, q = un, qn
                continue
        fell_back = True
        t = step
        improved = False
        while t > 1e-18:
            cand = u + t * gt
            cand = cand / np.linalg.norm(cand)
            qc = q_of(cand)
            if qc > q and qc >= q + norms._ARMIJO_C * t * gn * gn:
                u, q = cand, qc
                step = min(2.0 * t, norms._INITIAL_STEP)
                improved = True
                break
            t *= norms._BACKTRACK
        if not improved:
            if gn < 1e4 * opt.grad_tol:
                return q, u / base.value(u), it + 1, fell_back
            raise NonConvergence("dual ascent line search stalled")
    raise NonConvergence("dual ascent did not converge")


# ------------------------------------------------------------------ cases


def _spd(rng, d):
    M = rng.standard_normal((d, d))
    return M @ M.T + d * np.eye(d)


def _duals():
    rng = np.random.default_rng(11)
    out = [(f"quartic-{d}", wk.MinkowskiNorm.quartic(d, eps=0.05).dual()) for d in (2, 3)]
    out += [(f"quadratic-{d}", wk.MinkowskiNorm.quadratic(_spd(rng, d)).dual(mode="numeric"))
            for d in (2, 3, 4)]
    opts = wk.NumericDualOptions(grid_size=256)
    inner = wk.DualNorm(wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0])), mode="numeric",
                        options=opts)
    out.append(("as_norm-2", wk.DualNorm(inner.as_norm(), mode="numeric", options=opts)))
    # a coarse grid starts rows far from the maximizer, where the Newton step
    # is rejected and the Armijo fallback takes over.  In d = 3 that is an
    # 8-direction grid; in d = 2 the table start leaves an 8-direction grid
    # no rejected step, and a 5-direction grid still has them
    out += [(f"coarse-quartic-{d}", wk.DualNorm(wk.MinkowskiNorm.quartic(d, eps=0.01),
                                                 options=wk.NumericDualOptions(grid_size=n)))
            for d, n in ((2, 5), (3, 8))]
    return out


DUALS = _duals()


@pytest.mark.parametrize("label,dual", DUALS, ids=[lbl for lbl, _ in DUALS])
def test_batch_matches_per_row_reference(label, dual):
    rng = np.random.default_rng(12)
    V = rng.standard_normal((40, dual.dim)) * rng.uniform(0.2, 3.0, (40, 1))
    q, U = dual.eval_with_maximizer(V)
    ref = [_ascend_row(dual, v) for v in V]
    q_ref = np.array([r[0] for r in ref])
    U_ref = np.array([r[1] for r in ref])
    assert np.max(np.abs(q - q_ref) / q_ref) <= AGREE
    assert np.max(np.abs(U - U_ref)) <= AGREE
    # a single vector is a batch of one
    if label.startswith("coarse"):
        assert dual._ascend(V).fallbacks > 0
    q0, u0 = dual.eval_with_maximizer(V[0])
    assert isinstance(q0, float)
    assert abs(q0 - q[0]) <= AGREE * q[0]
    assert np.max(np.abs(u0 - U[0])) <= AGREE


def _capped_dual(grid_size=None, calls=None):
    """The numeric dual of a custom quartic gauge whose Hessian raises on the
    cap u_0 > 0.8 |u|, and 12 directions, some with their maximizer there.
    Each Hessian call appends its row count to `calls`."""
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)

    def hessian(U):
        if calls is not None:
            calls.append(len(U))
        if np.any(U[:, 0] > 0.8 * np.linalg.norm(U, axis=1)):
            raise NonConvergence("no Hessian on this cap")
        return Q.hess(U)

    F = wk.MinkowskiNorm.custom(2, Q.value, Q.grad, hessian, label="capped")
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False) + 0.1
    return (wk.DualNorm(F, mode="numeric", options=wk.NumericDualOptions(grid_size=grid_size)),
            np.column_stack([np.cos(ang), np.sin(ang)]))


def test_capped_dual_builds_with_one_hessian_call():
    # the grid's Hessian batch raises on the cap, so the table takes its
    # slopes from the gradient angles: no Hessian call per row or half
    calls = []
    _capped_dual(calls=calls)
    assert len(calls) <= 2


def test_hessian_that_raises_rejects_only_its_rows():
    # a custom gauge whose Hessian raises on a cap of the sphere: only the rows
    # iterating there take the Armijo fallback, the others keep their Newton
    # steps.  On the default grid every row retires at its start, so a
    # 16-direction table leaves them iterating
    dual, V = _capped_dual(16)
    ascent = dual._ascend(V)
    ref = [_ascend_row(dual, v) for v in V]
    assert 0 < sum(r[3] for r in ref) < len(V)
    assert ascent.fallbacks == sum(r[3] for r in ref)
    assert ascent.iterations == max(r[2] for r in ref)
    assert np.max(np.abs(ascent.value - [r[0] for r in ref])) <= AGREE
    assert np.max(np.abs(ascent.maximizer - np.array([r[1] for r in ref]))) <= AGREE


def _dual_scan_duals(seed):
    """The numeric quartic and quadratic duals of the `dual-scan` benchmark
    and its 400 unit directions, drawn as perfbench/wl_dual_scan.py draws them
    for this seed (a Haar rotation R of A = R diag(1, 4) R^T, then the angles)."""
    rng = np.random.default_rng(seed)
    Q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    R = Q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(R) < 0:
        R[:, 0] = -R[:, 0]
    ang = rng.uniform(0.0, 2.0 * np.pi, 400)
    duals = {"quartic": wk.MinkowskiNorm.quartic(2, eps=0.05).dual(),
             "quadratic": wk.MinkowskiNorm.quadratic(R @ np.diag([1.0, 4.0]) @ R.T)
             .dual(mode="numeric")}
    return duals, np.column_stack([np.cos(ang), np.sin(ang)])


def _root_of_q_slope(base, v, theta):
    """theta with q'(theta) = 0, by six Newton steps on the per-row slopes
    from theta (a start next to the maximizer)."""
    for _ in range(6):
        s1, s2 = _q_slopes(base, v, theta)
        theta -= s1 / s2
    return theta


@pytest.mark.parametrize("label", ["quartic", "quadratic"])
def test_interpolated_start_lies_at_the_maximizer(label):
    # the table start lies within 1e-11 rad of the maximizer (3.2e-12 at most
    # here), inside the stopping rule, so every row retires at its start
    duals, V = _dual_scan_duals(1)
    dual = duals[label]
    U0 = dual._start(V)[0]
    _, Us = dual.eval_with_maximizer(V)
    gap = np.abs(np.angle((U0[:, 0] + 1j * U0[:, 1]) / (Us[:, 0] + 1j * Us[:, 1])))
    assert gap.max() <= 1e-15
    ref = np.array([_table_start(dual, v) for v in V])
    assert np.max(np.abs(U0 - ref)) <= AGREE
    roots = np.array([_root_of_q_slope(dual.base, v, np.arctan2(u[1], u[0]))
                      for v, u in zip(V, ref)])
    assert np.abs(np.angle((U0[:, 0] + 1j * U0[:, 1]) * np.exp(-1j * roots))).max() <= 1e-11
    iterations = [dual._ascend(v[None, :]).iterations for v in V]
    assert set(iterations) == {1}


@pytest.mark.parametrize("label", ["quartic", "quadratic"])
def test_default_grid_ascents_retire_at_their_start(monkeypatch, label):
    # the 2^13-direction table: each one-direction ascent takes one base jet,
    # at its start, of F and grad F alone, and no Newton solve
    duals, V = _dual_scan_duals(1)
    dual = duals[label]
    assert dual._table.shape == (5, 1 << 13)
    jets = []
    jet_rows = norms._jet_rows

    def counted_jet(base, U, order=2):
        jets.append((len(U), order))
        return jet_rows(base, U, order)

    def no_newton(*args):
        raise AssertionError("a row took a Newton solve")
    monkeypatch.setattr(norms, "_jet_rows", counted_jet)
    monkeypatch.setattr(norms, "_spherical_newton", no_newton)
    assert all(dual._ascend(v[None, :]).iterations == 1 for v in V)
    assert jets == [(1, 1)] * len(V)


@pytest.mark.parametrize("label", ["quartic", "quadratic"])
def test_a_batch_that_retires_at_its_start_returns_there(monkeypatch, label):
    # the 400 directions as one batch: one jet of F and grad F at the 400
    # starts, no Newton solve or line search, and the per-row values
    duals, V = _dual_scan_duals(1)
    dual = duals[label]
    jets = []
    jet_rows = norms._jet_rows

    def counted_jet(base, U, order=2):
        jets.append((len(U), order))
        return jet_rows(base, U, order)

    def forbidden(*args):
        raise AssertionError("a row iterated")
    monkeypatch.setattr(norms, "_jet_rows", counted_jet)
    monkeypatch.setattr(norms, "_spherical_newton", forbidden)
    monkeypatch.setattr(wk.DualNorm, "_armijo", forbidden)
    ascent = dual._ascend(V)
    assert jets == [(len(V), 1)]
    assert (ascent.iterations, ascent.fallbacks) == (1, 0)
    ref = [_ascend_row(dual, v) for v in V]
    assert all(r[2:] == (1, False) for r in ref)
    assert np.max(np.abs(ascent.value - [r[0] for r in ref]) / ascent.value) <= AGREE
    assert np.max(np.abs(ascent.maximizer - np.array([r[1] for r in ref]))) <= AGREE
    # one iteration is budget enough, for the batch and for each row
    capped = wk.DualNorm(dual.base, mode="numeric", options=wk.NumericDualOptions(max_iter=1))
    once = capped._ascend(V)
    assert np.array_equal(once.value, ascent.value)
    assert np.array_equal(once.maximizer, ascent.maximizer)
    assert all(capped.value(v) == q for v, q in zip(V[:20], ascent.value))


def _fallback_cases():
    rng = np.random.default_rng(12)
    V = rng.standard_normal((40, 2)) * rng.uniform(0.2, 3.0, (40, 1))
    inner = wk.DualNorm(wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0])), mode="numeric",
                        options=wk.NumericDualOptions(grid_size=256))
    # the capped gauge's grid Hessian raises, so its table takes every slope
    # from differences of the gradient angles; on 5-direction grids many rows
    # start where the Newton step is rejected
    return {"capped": _capped_dual(), "coarse": (dict(DUALS)["coarse-quartic-2"], V),
            "bidual": (wk.DualNorm(inner.as_norm(), mode="numeric",
                                   options=wk.NumericDualOptions(grid_size=5)), V)}


FALLBACKS = _fallback_cases()


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_rows_start_from_their_grid_row(case):
    # every row starts from the table, as the per-row start reads it, and
    # ascends from there as the per-row reference does
    dual, V = FALLBACKS[case]
    U0 = dual._start(V)[0]
    assert np.max(np.abs(U0 - np.array([_table_start(dual, v) for v in V]))) <= AGREE
    ascent = dual._ascend(V)
    ref = [_ascend_row(dual, v) for v in V]
    assert (ascent.fallbacks > 0) == (case != "capped")
    assert ascent.iterations == max(r[2] for r in ref)
    assert ascent.fallbacks == sum(r[3] for r in ref)
    assert np.max(np.abs(ascent.value - [r[0] for r in ref]) / ascent.value) <= AGREE
    assert np.max(np.abs(ascent.maximizer - np.array([r[1] for r in ref]))) <= AGREE


def test_rejected_newton_steps_take_no_jet(monkeypatch):
    # an 8-direction grid starts many rows where the Newton solve rejects the
    # step; a rejected candidate is never accepted, so it takes no base jet
    dual = wk.DualNorm(wk.MinkowskiNorm.quartic(3, eps=0.01),
                       options=wk.NumericDualOptions(grid_size=8))
    V = np.random.default_rng(17).standard_normal((100, 3))
    counts = {"jet": 0, "kept": 0, "rejected": 0, "moved": 0}
    jet_rows, newton, armijo = norms._jet_rows, norms._spherical_newton, wk.DualNorm._armijo

    def counted_jet(base, U, order=2):
        counts["jet"] += len(U)
        return jet_rows(base, U, order)

    def counted_newton(*args):
        un, ok = newton(*args)
        counts["kept"] += int(ok.sum())
        counts["rejected"] += int((~ok).sum())
        return un, ok

    def counted_armijo(self, U, V, q, step, gt, gn, rows):
        stalled = armijo(self, U, V, q, step, gt, gn, rows)
        counts["moved"] += len(rows) - len(stalled)
        return stalled
    monkeypatch.setattr(norms, "_jet_rows", counted_jet)
    monkeypatch.setattr(norms, "_spherical_newton", counted_newton)
    monkeypatch.setattr(wk.DualNorm, "_armijo", counted_armijo)
    ascent = dual._ascend(V)
    # one jet per kept Newton candidate and one per row the line search
    # moved; the start rows' jets come from the grid's, taken by the constructor
    assert counts["jet"] == counts["kept"] + counts["moved"]
    assert counts["rejected"] > 0
    # the outputs: each row alone takes the same steps, bit for bit, and
    # the per-row reference takes them too
    for i, v in enumerate(V):
        alone = dual._ascend(v[None, :])
        assert alone.value[0] == ascent.value[i]
        assert np.array_equal(alone.maximizer[0], ascent.maximizer[i])
    ref = [_ascend_row(dual, v) for v in V]
    assert ascent.iterations == max(r[2] for r in ref)
    assert ascent.fallbacks == sum(r[3] for r in ref)
    assert np.max(np.abs(ascent.value - [r[0] for r in ref])) <= AGREE
    assert np.max(np.abs(ascent.maximizer - np.array([r[1] for r in ref]))) <= AGREE


def test_batch_beyond_one_scan_chunk_equals_its_pieces():
    dual = wk.MinkowskiNorm.quartic(3, eps=0.05).dual()
    chunk = norms._SCAN_ENTRIES // len(dual._grid)
    rng = np.random.default_rng(13)
    V = rng.standard_normal((chunk + 37, 3))
    q, U = dual.eval_with_maximizer(V)
    parts = [dual.eval_with_maximizer(V[s:s + 50]) for s in range(0, len(V), 50)]
    assert np.max(np.abs(q - np.concatenate([p[0] for p in parts])) / q) <= AGREE
    assert np.max(np.abs(U - np.concatenate([p[1] for p in parts]))) <= AGREE
    assert np.array_equal(dual.value(V), q)
    assert np.array_equal(dual.grad(V), U)


def test_batch_iteration_budget_raises():
    # on the default grid every row of this batch retires at its start, within
    # one iteration; the 5-direction grid of coarse-quartic-2 leaves rows iterating
    base = wk.MinkowskiNorm.quartic(2, eps=0.01)
    dual = base.dual(options=wk.NumericDualOptions(grid_size=5, max_iter=1))
    V = np.random.default_rng(14).standard_normal((20, 2))
    with pytest.raises(NonConvergence):
        dual.value(V)


def test_zero_row_in_batch_raises():
    dual = wk.MinkowskiNorm.quartic(2, eps=0.05).dual()
    V = np.array([[1.0, 0.2], [0.0, 0.0], [-0.3, 0.9]])
    for fn in (dual.value, dual.grad, dual.eval_with_maximizer):
        with pytest.raises(ZeroDirection):
            fn(V)


@pytest.mark.parametrize("label", ["quartic-2", "quadratic-2", "as_norm-2", "coarse-quartic-2"])
def test_non_finite_direction_has_nan_value_and_maximizer(label):
    # such a row is never iterated (no RuntimeWarning, which the test
    # settings turn into an error); the other rows of its batch keep their bits
    dual = dict(DUALS)[label]
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        q, u = dual.eval_with_maximizer(bad)
        assert np.isnan(q) and np.isnan(u).all() and np.isnan(dual.grad(bad)).all()
    V = np.array([[1.0, 0.3], [np.nan, 1.0], [-0.2, 1.0], [np.inf, 0.0]])
    finite = np.array([True, False, True, False])
    q, U = dual.eval_with_maximizer(V)
    ascent = dual._ascend(V[finite])
    assert np.isnan(q[~finite]).all() and np.isnan(U[~finite]).all()
    assert np.array_equal(q[finite], ascent.value)
    assert np.array_equal(U[finite], ascent.maximizer)


def test_ascent_counts_in_condition_s_metadata():
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    verdict = cs.check_condition_s(Q, 500, seed=0)
    ascent = Q.dual()._ascend(cs.unit_pair_samples(2, 500, seed=0)[1])
    assert verdict.metadata["dual_iterations"] == ascent.iterations
    assert verdict.metadata["dual_fallbacks"] == ascent.fallbacks
    assert 1 <= ascent.iterations <= 10
    assert 0 <= ascent.fallbacks <= 500
    # a closed-form dual makes no ascent, so it reports no counts
    closed = cs.check_condition_s(wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0])), 500, seed=0)
    assert "dual_iterations" not in closed.metadata


def test_worst_pairs_of_verdict_match_worst_pairs():
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    verdict = cs.check_condition_s(Q, 1_000, seed=3, worst_k=7)
    pairs = cs.worst_pairs(Q, 1_000, k=7, seed=3)
    assert len(verdict.worst_pairs) == 7
    for a, b in zip(verdict.worst_pairs, pairs):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert (a.lhs, a.rhs_sign_ref, a.fk_residual) == (b.lhs, b.rhs_sign_ref, b.fk_residual)
    assert verdict.worst_pairs[0].margin == verdict.min_margin
    assert np.array_equal(verdict.worst.u, verdict.worst_pairs[0].u)


def test_cli_import_does_not_load_scipy():
    code = ("import wulffkit.cli, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    src = str(Path(wk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

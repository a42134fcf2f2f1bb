"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all
live).  Criteria are numbered; tolerances are pinned in the assertions, not
configurable.
"""

import math
import time

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import condition_s as cs
from wulffkit import surfaces as sf
from wulffkit import symfunc as sym
from wulffkit import verify as vf
from wulffkit.cli import Scenario, load_config, run_scenario
from wulffkit.quadrature import ParamQuadrature

Q16 = ParamQuadrature(order=6, base_grid=16)
Q12 = ParamQuadrature(order=6, base_grid=12)

A2 = np.diag([1.0, 4.0])
A3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])
A_MIX = np.diag([1.0, 1.0, 4.0])
F_MIX = wk.MinkowskiNorm.quadratic(A_MIX)
E3 = wk.MinkowskiNorm.euclidean(3)


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")


def test_criterion_1_norm_identities():
    t0 = time.time()
    rng = np.random.default_rng(100)
    ok = True
    for F in (wk.MinkowskiNorm.euclidean(2), wk.MinkowskiNorm.euclidean(3),
              wk.MinkowskiNorm.quadratic(A2), wk.MinkowskiNorm.quadratic(A3)):
        U = rng.standard_normal((1000, F.dim))
        euler = max(F.euler_residual(u) for u in U)
        radial = max(F.radial_kernel_residual(u) for u in U)
        ok &= euler < 1e-9 and radial < 1e-8
    Ffd = wk.MinkowskiNorm.custom(
        3, value=lambda U: np.sqrt(np.einsum("mi,ij,mj->m", U, A3, U)))
    U = rng.standard_normal((1000, 3))
    euler_fd = max(Ffd.euler_residual(u) for u in U)
    radial_fd = max(Ffd.radial_kernel_residual(u) for u in U)
    ok &= euler_fd < 1e-5 and radial_fd < 1e-5
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _verdict(1, "gauge derivative identities (closed form and FD fallback)",
             ok, elapsed, 1.0)
    assert euler_fd < 1e-5 and radial_fd < 1e-5
    assert ok


def test_criterion_2_duality():
    t0 = time.time()
    F = wk.MinkowskiNorm.quadratic(A2)
    D, Dn = F.dual(), F.dual(mode="numeric")
    rng = np.random.default_rng(101)
    V = rng.standard_normal((1000, 2))
    ref = np.asarray(D.value(V))
    num = np.array([Dn.value(v) for v in V])
    dual_ok = float(np.max(np.abs(num - ref) / ref)) < 1e-6

    opts = wk.NumericDualOptions(grid_size=256, grad_tol=1e-8)
    D1 = wk.DualNorm(F, mode="numeric", options=opts)
    D2 = wk.DualNorm(D1.as_norm(), mode="numeric", options=opts)
    bidual_err = max(abs(D2.value(v) - F.value(v)) / F.value(v)
                     for v in rng.standard_normal((6, 2)))
    bidual_ok = bidual_err < 1e-4
    elapsed = time.time() - t0
    ok = dual_ok and bidual_ok and elapsed < 10.0
    _verdict(2, "numeric dual vs closed form, biduality", ok, elapsed, 10.0)
    assert ok


def test_criterion_3_condition_s():
    t0 = time.time()
    F = wk.MinkowskiNorm.quadratic(A2)
    verdict_q = cs.check_condition_s(F, 10_000, seed=0)
    quad_ok = verdict_q.passed and abs(verdict_q.max_fk_residual) < 1e-8

    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    verdict_4 = cs.check_condition_s(Q, 10_000, seed=0)
    quart_ok = (verdict_4.max_fk_residual > 0.0
                and abs(verdict_4.max_fk_residual - 0.657532978125) < 1e-6)
    elapsed = time.time() - t0
    ok = quad_ok and quart_ok and elapsed < 30.0
    _verdict(3, "sign condition: quadratic passes, quartic gauge separates",
             ok, elapsed, 30.0)
    assert ok


def test_criterion_4_pointwise_identity_suite():
    t0 = time.time()
    surfaces = (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid())
    fields = (sf.normal_field(), sf.anisotropic_normal_field(F_MIX),
              sf.constant_field([0.3, -0.7, 0.55]))
    worst = 0.0
    for patch in surfaces:
        for xi in fields:
            out = vf.frame_identity_suite(patch, xi, grid=9, min_support=0.05)
            for key, val in out.items():
                if key in ("grid_points", "kept_points"):
                    continue
                worst = max(worst, val)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(4, f"frame identity suite, max residual {worst:.2e}", ok,
             elapsed, 60.0)
    assert ok


def test_criterion_5_monotonicity_identity():
    t0 = time.time()
    # 1D: offset line against the closed chord formula
    d, s, r = 0.5, 0.6, 1.0
    rep = vf.monotonicity_identity(sf.line(offset=d, extent=4.0),
                                   wk.MinkowskiNorm.euclidean(2), s, r,
                                   rule=Q16, max_depth=20)
    closed = 2 * (math.sqrt(r**2 - d**2) / r - math.sqrt(s**2 - d**2) / s)
    line_ok = abs(rep.lhs - closed) < 1e-6 and abs(rep.rhs - closed) < 1e-6

    # 2D: transformed catenoid with the matching quadratic gauge
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    rep8 = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q16, max_depth=8)
    rep10 = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q16, max_depth=10)
    surf_ok = (rep8.status == "pass" and rep10.status == "pass"
               and abs(rep8.lhs - rep10.lhs) <= 3 * rep8.tolerance
               and abs(rep8.rhs - rep10.rhs) <= 3 * rep8.tolerance)

    radii = vf.geometric_radii(T, F_MIX.dual(), count=8)
    scan = vf.monotonicity_scan(T, F_MIX, radii, rule=Q12, max_depth=8)
    mono_ok = scan.non_decreasing() and all(rp.status == "pass"
                                            for rp in scan.reports)
    elapsed = time.time() - t0
    ok = line_ok and surf_ok and mono_ok and elapsed < 300.0
    _verdict(5, "gauge-energy monotonicity identity", ok, elapsed, 300.0)
    assert ok


def test_criterion_6_transversal_identity_and_divergence():
    t0 = time.time()
    rep = vf.equiaffine_identity(sf.catenoid(v_max=1.3), sf.normal_field(),
                                 E3.dual(), 1.2, 2.0, rule=Q16, max_depth=8)
    ident_ok = rep.status == "pass"

    worst = 0.0
    cases = (
        (sf.sphere(), sf.normal_field(), E3.dual(), [1.1, 0.7]),
        (sf.ellipsoid((1.0, 1.3, 1.7)), sf.anisotropic_normal_field(F_MIX),
         F_MIX.dual(), [1.05, 0.8]),
        (sf.catenoid(), sf.normal_field(), E3.dual(), [0.9, 0.4]),
        (sf.hyperplane(), sf.constant_field([0.1, -0.2, 1.0]), E3.dual(),
         [0.4, -0.3]),
    )
    for patch, xi, gauge, p in cases:
        worst = max(worst, vf.pointwise_divergence_residual(patch, xi, gauge, p))
    elapsed = time.time() - t0
    ok = ident_ok and worst < 1e-4 and elapsed < 120.0
    _verdict(6, f"transversal-density identity, div residual {worst:.2e}",
             ok, elapsed, 120.0)
    assert ok


def test_criterion_7_central_section_bound():
    t0 = time.time()
    plane = sf.hyperplane(extent=2.2)
    eq_ok = True
    for F in (E3, wk.MinkowskiNorm.quadratic(A3)):
        rep = vf.corollary_lower_bound(plane, F, rule=Q16, max_depth=9,
                                       origin_param=[0.0, 0.0])
        eq_ok &= rep.equality_within < 1e-4

    En = sf.enneper(scale=0.8, extent=1.5)
    rep = vf.corollary_lower_bound(En, E3, rule=Q16, max_depth=9)
    strict_ok = rep.strictly_above
    elapsed = time.time() - t0
    ok = eq_ok and strict_ok and elapsed < 60.0
    _verdict(7, "central tangent-section lower bound", ok, elapsed, 60.0)
    assert ok


def test_criterion_8_newton_tensor_suite():
    t0 = time.time()
    rng = np.random.default_rng(102)
    entries_worst = 0.0
    for i in range(100):
        n = 2 + (i % 3)
        A = rng.standard_normal((n, n))
        for k in range(0, min(3, n) + 1):
            entries_worst = max(entries_worst, float(np.max(np.abs(
                sym.newton_tensor(A, k) - sym.newton_entries_oracle(A, k)))))
    grad_worst = max(sym.gradient_relation_residual(rng.standard_normal((4, 4)), k)
                     for k in (2, 3) for _ in range(5))
    trace_worst = 0.0
    for _ in range(10):
        A5 = rng.standard_normal((5, 5))
        for k in range(1, 6):
            a, b = sym.trace_identity_residuals(A5, k)
            trace_worst = max(trace_worst, a, b)
    ch_worst = max(float(np.max(np.abs(sym.newton_tensor(
        rng.standard_normal((3, 3)), 3)))) for _ in range(50))
    elapsed = time.time() - t0
    ok = (entries_worst < 1e-10 and grad_worst < 1e-6 and trace_worst < 1e-9
          and ch_worst < 1e-8 and elapsed < 5.0)
    _verdict(8, "symmetric-function and Newton-tensor identities", ok,
             elapsed, 5.0)
    assert ok


def test_criterion_9_curvature_pairing_formula():
    t0 = time.time()
    S = sf.sphere()
    sphere_ok = True
    for k in (0, 1):
        rep = vf.minkowski_formula(S, sf.normal_field(), k, rule=Q12)
        sphere_ok &= rep.residual / abs(rep.lhs) < 1e-8

    E = sf.ellipsoid((1.0, 1.3, 1.7))
    ell_ok = True
    for k in (0, 1):
        rep = vf.minkowski_formula(E, sf.anisotropic_normal_field(F_MIX), k,
                                   rule=Q12)
        ell_ok &= rep.status == "pass"
    elapsed = time.time() - t0
    ok = sphere_ok and ell_ok and elapsed < 120.0
    _verdict(9, "closed-surface curvature pairing formula", ok, elapsed, 120.0)
    assert ok


def test_criterion_10_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("WULFFKIT_OUT", raising=False)
    t0 = time.time()
    ok = True
    for name in ("hyperplane-equality", "catenoid-euclidean", "identity-suite"):
        scn = Scenario(load_config(name))
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        code1 = run_scenario(scn, d1)
        code2 = run_scenario(Scenario(load_config(name)), d2)
        ok &= code1 == 0 and code2 == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        ok &= files1 == files2 and len(files1) > 0
        for fname in files1:
            ok &= (d1 / fname).read_bytes() == (d2 / fname).read_bytes()

    # documented exit codes: 2 on invalid config, 1 on failing check
    from wulffkit import cli
    bad = {"norms": {"e": {"family": "euclidean", "dim": 3}},
           "surfaces": {"p": {"kind": "hyperplane"}},
           "checks": [{"kind": "equiaffine", "name": "bad", "surface": "p",
                       "xi": "normal", "gauge": "e", "s": 0.9, "r": 0.9}]}
    cfg = tmp_path / "bad.json"
    cfg.write_text(__import__("json").dumps(bad))
    ok &= cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    failing = {"seed": 0,
               "norms": {"q": {"family": "quartic-regularized", "dim": 2}},
               "checks": [{"kind": "condition-s", "name": "expect-wrong",
                           "norm": "q", "samples": 300, "expect": "pass"}]}
    cfg2 = tmp_path / "failing.json"
    cfg2.write_text(__import__("json").dumps(failing))
    ok &= cli.main(["run", "--config", str(cfg2),
                    "--out", str(tmp_path / "y")]) == 1
    elapsed = time.time() - t0
    with capsys.disabled():
        _verdict(10, "CLI determinism and exit-code contract", ok, elapsed, 120.0)
    assert ok

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import condition_s as cs

# frozen scan/search values for the smoothed quartic gauge (eps=0.05, d=2,
# Halton seed 0); recomputed here only to guard against silent drift
QUARTIC_MAX_FK = 0.657532978125
QUARTIC_SCAN_MIN_MARGIN = -0.580082584813
QUARTIC_SEARCH_OBJECTIVE = -0.584722759190


def test_pair_report_orthogonal_euclidean():
    E = wk.MinkowskiNorm.euclidean(2)
    rep = cs.pair_report(E, [1.0, 0.0], [0.0, 1.0])
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs_sign_ref == pytest.approx(0.0, abs=1e-15)
    assert rep.fk_residual == pytest.approx(0.0, abs=1e-15)
    assert rep.lhs_sign == 0 and rep.rhs_sign == 0


def test_pair_report_aligned_euclidean():
    E = wk.MinkowskiNorm.euclidean(2)
    rep = cs.pair_report(E, [1.0, 0.0], [1.0, 0.0])
    assert rep.lhs == pytest.approx(1.0, abs=1e-15)
    assert rep.fk_residual == pytest.approx(0.0, abs=1e-15)


def test_quadratic_pairing_identity_random_pairs():
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
    dual = F.dual()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        worst = max(worst, abs(cs.pair_report(F, u, v, dual=dual).fk_residual))
    assert worst < 1e-8


def test_scale_invariance_of_classification():
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
    dual = F.dual()
    u, v = np.array([0.6, 0.8]), np.array([-0.3, 0.95])
    a = cs.pair_report(F, u, v, dual=dual)
    b = cs.pair_report(F, 2 * u, 3 * v, dual=dual)
    assert a.lhs_sign == b.lhs_sign
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)


def test_even_norm_antipodal_symmetry():
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
    dual = F.dual()
    u, v = np.array([0.6, 0.8]), np.array([-0.3, 0.95])
    a = cs.pair_report(F, u, v, dual=dual)
    b = cs.pair_report(F, -u, -v, dual=dual)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
    assert a.fk_residual == pytest.approx(b.fk_residual, abs=1e-12)


def test_condition_s_euclidean_passes():
    E = wk.MinkowskiNorm.euclidean(2)
    verdict = cs.check_condition_s(E, 10_000, seed=0)
    assert verdict.passed
    assert verdict.min_margin > 0


def test_condition_s_quadratic_passes():
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
    verdict = cs.check_condition_s(F, 10_000, seed=0)
    assert verdict.passed
    assert abs(verdict.max_fk_residual) < 1e-8


def test_condition_s_quadratic_3d_passes():
    F = wk.MinkowskiNorm.quadratic(
        np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]]))
    verdict = cs.check_condition_s(F, 2_000, seed=1)
    assert verdict.passed


def test_quartic_gauge_has_positive_pairing_residual():
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    verdict = cs.check_condition_s(Q, 10_000, seed=0)
    assert verdict.max_fk_residual > 0.5
    assert verdict.max_fk_residual == pytest.approx(QUARTIC_MAX_FK, abs=1e-6)
    assert verdict.min_margin == pytest.approx(QUARTIC_SCAN_MIN_MARGIN, abs=1e-6)
    assert not verdict.passed


def test_search_violation_nonnegative_for_good_norms():
    assert cs.search_violation(wk.MinkowskiNorm.euclidean(2),
                               n_starts=8, seed=0).objective >= 0
    assert cs.search_violation(wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0])),
                               n_starts=8, seed=0).objective >= 0


def test_search_violation_finds_quartic_pair():
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    result = cs.search_violation(Q, n_starts=12, seed=0)
    assert result.objective < -0.5
    assert result.objective == pytest.approx(QUARTIC_SEARCH_OBJECTIVE, abs=1e-6)
    assert result.converged
    # the returned pair itself certifies the violation
    rep = result.worst
    assert rep.lhs * np.sign(rep.rhs_sign_ref) < 0


def test_quartic_violation_confirmed_by_brute_force():
    # independent oracle: dense-grid maximization replaces the dual solver
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    result = cs.search_violation(Q, n_starts=12, seed=0)
    u, v = result.worst.u, result.worst.v
    ang = np.linspace(0, 2 * np.pi, 200_001)[:-1]
    G = np.column_stack([np.cos(ang), np.sin(ang)])
    ratios = (G @ v) / np.asarray(Q.value(G))
    ustar = G[np.argmax(ratios)]
    ustar = ustar / Q.value(ustar)
    lhs_brute = float(np.dot(Q.grad(u), ustar))
    assert lhs_brute == pytest.approx(result.worst.lhs, abs=1e-4)
    assert lhs_brute * np.sign(np.dot(u, v)) < 0


def test_search_violation_nonnegative_in_four_dimensions():
    # the turns of u and v span a 3^3 grid each; a quadratic gauge
    # satisfies condition S, so no pair outside the dead band goes negative
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0, 2.0, 3.0]))
    result = cs.search_violation(F, n_starts=8, seed=0)
    assert result.objective >= 0
    assert abs(np.dot(result.worst.u, result.worst.v)) >= cs.EPS_SIGN
    assert result.worst.lhs * np.sign(result.worst.rhs_sign_ref) == pytest.approx(
        result.objective, abs=1e-15)


def test_search_violation_three_dimensional_quartic():
    # the plane u_3 = 0 carries the two-dimensional quartic, whose minimum the
    # search reaches from four starts; turns that do not keep <u, v> along
    # the dead band's edge stall near -0.5802
    Q = wk.MinkowskiNorm.quartic(3, eps=0.05)
    result = cs.search_violation(Q, n_starts=4, seed=0)
    assert result.objective == pytest.approx(QUARTIC_SEARCH_OBJECTIVE, abs=1e-6)
    assert result.converged


def test_search_violation_reaches_the_dead_band_edge():
    # the minimum of a violating gauge lies on the edge |<u,v>| = eps_sign
    Q = wk.MinkowskiNorm.quartic(2, eps=100.0)
    result = cs.search_violation(Q, n_starts=12, seed=0)
    assert result.objective <= -4.9627385e-3
    assert result.converged
    assert abs(np.dot(result.worst.u, result.worst.v)) == pytest.approx(cs.EPS_SIGN, rel=1e-3)


def test_worst_pairs_sorted_by_margin():
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
    pairs = cs.worst_pairs(F, 2_000, k=5, seed=0)
    margins = [p.margin for p in pairs]
    assert margins == sorted(margins)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        cs.check_condition_s(wk.MinkowskiNorm.euclidean(2), 0)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_halton_matches_scipy_bit_for_bit(d, seed):
    qmc = pytest.importorskip("scipy.stats.qmc")
    for count in (1, 2000, 5000, 10_000):
        assert np.array_equal(cs._scrambled_halton(d, count, seed),
                              qmc.Halton(d=d, scramble=True, seed=seed).random(count))


def test_condition_s_scan_imports_no_scipy_stats():
    code = ("import sys, wulffkit as wk, wulffkit.condition_s as cs; "
            "cs.check_condition_s(wk.MinkowskiNorm.quadratic([[1, 0], [0, 4]]), 100); "
            "cs.unit_pair_samples(3, 100); "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
    env = dict(os.environ, PYTHONPATH=str(Path(cs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_search_and_origin_need_no_scipy():
    # with scipy blocked, the violation search and the origin of a corollary
    # (no origin_param) run on NumPy alone
    code = ("import sys; sys.modules['scipy'] = None; "
            "import wulffkit as wk, wulffkit.condition_s as cs, wulffkit.verify as vf, "
            "wulffkit.surfaces as sf; "
            "from wulffkit.quadrature import ParamQuadrature; "
            "assert cs.search_violation(wk.MinkowskiNorm.quartic(2, eps=0.05)).objective < -0.5; "
            "rep = vf.corollary_lower_bound(sf.enneper(scale=0.8, extent=1.5), "
            "wk.MinkowskiNorm.euclidean(3), rule=ParamQuadrature(order=4, base_grid=8), "
            "max_depth=4); "
            "assert list(rep.metadata['origin_param']) == [0.0, 0.0]")
    env = dict(os.environ, PYTHONPATH=str(Path(cs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

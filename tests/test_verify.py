import math

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import surfaces as sf
from wulffkit import verify as vf
from wulffkit.errors import (BoundaryInsideRegion, GaugeZero, NotClosed, NotEquiaffine,
                             OriginNotOnSurface)
from wulffkit.quadrature import ClippedRegionRule, ParamQuadrature, integrate_clipped

Q16 = ParamQuadrature(order=6, base_grid=16)
Q12 = ParamQuadrature(order=6, base_grid=12)

A_MIX = np.diag([1.0, 1.0, 4.0])
F_MIX = wk.MinkowskiNorm.quadratic(A_MIX)
E3 = wk.MinkowskiNorm.euclidean(3)
E2 = wk.MinkowskiNorm.euclidean(2)


def offset_line_closed_form(d, s, r):
    # both sides of the annulus identity on the line y = d:
    # chord energies E(t) = 2 sqrt(t^2 - d^2) and the kernel integral
    # 2 [t/sqrt(t^2+d^2)] between the chord parameters coincide
    return 2 * (math.sqrt(r**2 - d**2) / r - math.sqrt(s**2 - d**2) / s)


def test_monotonicity_offset_line_matches_closed_form():
    d = 0.5
    rep = vf.monotonicity_identity(sf.line(offset=d, extent=4.0), E2, 0.6, 1.0,
                                   rule=Q16, max_depth=20)
    closed = offset_line_closed_form(d, 0.6, 1.0)
    assert abs(rep.lhs - closed) < 1e-6
    assert abs(rep.rhs - closed) < 1e-6
    assert rep.status == "pass"


def test_monotonicity_hyperplane_equality_case():
    plane = sf.hyperplane(extent=2.0)
    for F in (E3, F_MIX):
        rep = vf.monotonicity_identity(plane, F, 0.3, 0.9, rule=Q16, max_depth=8)
        assert rep.status == "pass"
        assert abs(rep.lhs) < 1e-3
        assert abs(rep.rhs) < 1e-12  # kernel vanishes pointwise


def test_monotonicity_transformed_catenoid_two_depths():
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    rep8 = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q16, max_depth=8)
    rep10 = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q16, max_depth=10)
    assert rep8.status == "pass"
    assert rep10.status == "pass"
    assert abs(rep8.lhs - rep10.lhs) <= 3 * rep8.tolerance
    assert abs(rep8.rhs - rep10.rhs) <= 3 * rep8.tolerance


def test_monotonicity_scan_nondecreasing_on_minimal_surfaces():
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    radii = vf.geometric_radii(T, F_MIX.dual(), count=8)
    scan = vf.monotonicity_scan(T, F_MIX, radii, rule=Q12, max_depth=8)
    assert scan.non_decreasing()
    assert all(rep.status == "pass" for rep in scan.reports)
    assert np.all(np.diff(scan.normalized) > 0)  # strictly, for this geometry


def test_monotonicity_additivity_over_radii():
    C = sf.catenoid(v_max=1.3)
    r1 = vf.monotonicity_identity(C, E3, 1.2, 1.6, rule=Q12, max_depth=8)
    r2 = vf.monotonicity_identity(C, E3, 1.6, 2.0, rule=Q12, max_depth=8)
    r3 = vf.monotonicity_identity(C, E3, 1.2, 2.0, rule=Q12, max_depth=8)
    tol = r1.tolerance + r2.tolerance + r3.tolerance
    assert abs(r1.lhs + r2.lhs - r3.lhs) <= max(3 * tol, 1e-10)
    assert abs(r1.rhs + r2.rhs - r3.rhs) <= max(3 * tol, 1e-10)


def test_monotonicity_scaling_covariance():
    # scaling the surface and radii together leaves both sides unchanged
    C = sf.catenoid(v_max=1.2)
    lam = 1.7
    scaled = sf.linear_image(sf.catenoid(v_max=1.2), lam * np.eye(3), name="scaled")
    a = vf.monotonicity_identity(C, E3, 1.1, 1.5, rule=Q12, max_depth=8)
    b = vf.monotonicity_identity(scaled, E3, lam * 1.1, lam * 1.5,
                                 rule=Q12, max_depth=8)
    tol = a.tolerance + b.tolerance
    assert abs(a.lhs - b.lhs) <= max(3 * tol, 1e-8)
    assert abs(a.rhs - b.rhs) <= max(3 * tol, 1e-8)


def test_monotonicity_sign_property_under_condition_s():
    # quadratic gauges satisfy the sign condition, so the kernel integral
    # cannot be negative beyond tolerance on any annulus
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    radii = vf.geometric_radii(T, F_MIX.dual(), count=5)
    for i in range(len(radii) - 1):
        rep = vf.monotonicity_identity(T, F_MIX, radii[i], radii[i + 1],
                                       rule=Q12, max_depth=8)
        assert rep.rhs >= -3 * rep.tolerance


def test_monotonicity_flags_non_minimal_surface():
    rep = vf.monotonicity_identity(sf.sphere(radius=0.6, center=(1.0, 0, 0)),
                                   E3, 0.5, 1.2, rule=Q12, max_depth=6)
    assert rep.status == "info"
    assert any("not-minimal" in f for f in rep.flags)


def test_monotonicity_boundary_guard():
    C = sf.catenoid(v_max=1.0)
    with pytest.raises(BoundaryInsideRegion):
        vf.monotonicity_identity(C, E3, 1.1, 5.0, rule=Q12, max_depth=6)


def test_monotonicity_radius_validation():
    with pytest.raises(ValueError):
        vf.monotonicity_identity(sf.catenoid(), E3, 1.5, 1.2)


def test_equiaffine_specializes_to_monotonicity():
    # xi = grad F(nu) with phi = F° is the monotonicity identity: the same
    # kernel, the density <grad F(nu), nu> = F(nu) up to roundoff, and the
    # same cells.  The planar quartic cases clip with a non-quadratic gauge
    Q4 = wk.MinkowskiNorm.quartic(2, eps=0.05)
    cases = [(sf.transformed_catenoid(A_MIX, v_max=1.2), F_MIX, 1.15, 2.0),
             (sf.line(offset=0.5), Q4, 0.7, 1.2),
             (sf.circle(radius=0.5, center=(1.0, 0.2)), Q4, 0.8, 1.2)]
    reports = []
    for patch, F, s, r in cases:
        dual = F.dual()
        a = vf.monotonicity_identity(patch, F, s, r, dual=dual, rule=Q12, max_depth=8)
        b = vf.equiaffine_identity(patch, sf.anisotropic_normal_field(F), dual, s, r,
                                   rule=Q12, max_depth=8)
        assert a.rhs == b.rhs
        assert a.lhs == pytest.approx(b.lhs, rel=1e-14, abs=0.0)
        assert a.metadata["cells"] == b.metadata["cells"]
        reports.append(a)
    assert reports[1].status == "pass"   # the quartic line is anisotropically minimal


def test_equiaffine_catenoid_classical_monotonicity():
    rep = vf.equiaffine_identity(sf.catenoid(v_max=1.3), sf.normal_field(),
                                 E3.dual(), 1.2, 2.0, rule=Q16, max_depth=8)
    assert rep.status == "pass"


def test_equiaffine_hyperplane_constant_field():
    plane = sf.hyperplane(extent=2.0)
    rep = vf.equiaffine_identity(plane, sf.constant_field([0.1, -0.2, 1.0]),
                                 E3.dual(), 0.3, 0.9, rule=Q12, max_depth=6)
    assert rep.status == "pass"
    assert abs(rep.lhs) < 1e-3
    assert abs(rep.rhs) < 1e-12


def test_pointwise_divergence_with_curvature_term():
    D3 = E3.dual()
    # sphere with xi = nu: the field itself vanishes, both sides agree at 0
    res = vf.pointwise_divergence_residual(sf.sphere(), sf.normal_field(), D3,
                                           [1.1, 0.7])
    assert res < 1e-6
    # hyperplane through the origin with a constant transversal
    res = vf.pointwise_divergence_residual(sf.hyperplane(),
                                           sf.constant_field([0.1, -0.2, 1.0]),
                                           D3, [0.4, -0.3])
    assert res < 1e-8
    # ellipsoid (curvature term genuinely nonzero)
    res = vf.pointwise_divergence_residual(sf.ellipsoid((1.0, 1.3, 1.7)),
                                           sf.anisotropic_normal_field(F_MIX),
                                           F_MIX.dual(), [1.05, 0.8])
    assert res < 1e-4


def test_pointwise_divergence_rejects_a_vanishing_gauge():
    # a point 1e-10 from the origin, where the dual gauge 1e-3 |x| is 1e-13:
    # phi^(n+1) divides the closed form, so the residual is not defined there
    with pytest.raises(GaugeZero):
        vf.pointwise_divergence_residual(
            sf.hyperplane(), sf.constant_field([0.1, -0.2, 1.0]),
            wk.MinkowskiNorm.quadratic(1e6 * np.eye(3)).dual(), [1e-10, 0.0])


def test_pointwise_divergence_ascends_each_point_once(monkeypatch):
    # a numeric dual takes value and gradient from one ascent: the 9 points
    # and their 36 stencil points, with no point ascended twice
    D = E3.dual(mode="numeric")
    batches = []
    ascend = wk.DualNorm._ascend

    def counted(self, V):
        batches.append(V.copy())
        return ascend(self, V)

    monkeypatch.setattr(wk.DualNorm, "_ascend", counted)
    res = vf.pointwise_divergence_residual(sf.sphere(), sf.normal_field(), D,
                                           sf.sphere().sample_grid(3))
    assert res.shape == (9,) and np.all(res < 1e-6)
    rows = np.vstack(batches)
    assert [len(b) for b in batches] == [9, 36]
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_pointwise_divergence_curvature_term_matters():
    # dropping the affine-mean term must break the identity on the ellipsoid
    patch = sf.ellipsoid((1.0, 1.3, 1.7))
    xi = sf.anisotropic_normal_field(F_MIX)
    gauge = F_MIX.dual()
    p = [1.05, 0.8]
    eq = sf.equiaffine_batch(patch, xi, [p])
    fr = eq.frames
    phi0 = float(gauge.value(fr.x[0]))
    xn = float(np.dot(fr.x[0], fr.nu[0]))
    curvature_term = xn * eq.affine_mean[0] / (patch.n * phi0**patch.n)
    assert abs(curvature_term) > 1e-3


def test_corollary_hyperplane_equality():
    plane = sf.hyperplane(extent=2.2)
    for F in (E3, F_MIX):
        rep = vf.corollary_lower_bound(plane, F, rule=Q16, max_depth=9,
                                       origin_param=[0.0, 0.0])
        assert rep.equality_within < 1e-4
        assert not rep.flags


def test_corollary_enneper_strict_inequality():
    En = sf.enneper(scale=0.8, extent=1.5)
    rep = vf.corollary_lower_bound(En, E3, rule=Q16, max_depth=9)
    assert rep.strictly_above
    assert rep.ratio > 1.05
    assert not rep.flags


def test_corollary_origin_guard():
    shifted = sf.hyperplane(origin=(0.0, 0.0, 0.3), extent=2.0)
    with pytest.raises(OriginNotOnSurface):
        vf.corollary_lower_bound(shifted, E3, rule=Q12, max_depth=6)


def test_corollary_finds_an_off_grid_origin():
    # Enneper moved in parameter space so that its origin sits at (0.13, -0.21),
    # between the points of the search grid
    En = sf.enneper(scale=0.8, extent=1.5)
    c = np.array([0.13, -0.21])
    shifted = sf.ParametricPatch(2, lambda P, k: En.jet(P - c, k), En.domain,
                                 name="shifted-enneper", jet=True)
    grid = shifted.sample_grid(17)
    assert np.min(np.linalg.norm(grid - c, axis=1)) > 0.01
    rep = vf.corollary_lower_bound(shifted, E3, rule=Q12, max_depth=6)
    assert np.allclose(rep.metadata["origin_param"], c, rtol=0.0, atol=1e-12)
    assert rep.strictly_above and not rep.flags


@pytest.mark.parametrize("F", [E2, wk.MinkowskiNorm.quadratic([[2.0, 0.3], [0.3, 1.0]])],
                         ids=["euclidean", "quadratic"])
def test_corollary_rotated_line_equality(F):
    # a line through the origin is its own tangent section: ratio 1
    c, s = math.cos(0.6), math.sin(0.6)
    rotated = sf.linear_image(sf.line(offset=0.0, extent=3.0), [[c, -s], [s, c]])
    rep = vf.corollary_lower_bound(rotated, F, rule=Q12, max_depth=6, origin_param=[0.0])
    assert rep.equality_within < 1e-12
    assert not rep.flags


def test_corollary_boundary_guard():
    small = sf.hyperplane(extent=0.5)
    with pytest.raises(BoundaryInsideRegion):
        vf.corollary_lower_bound(small, E3, rule=Q12, max_depth=6,
                                 origin_param=[0.0, 0.0])


def test_minkowski_formula_sphere_exact():
    S = sf.sphere()
    for k in (0, 1):
        rep = vf.minkowski_formula(S, sf.normal_field(), k, rule=Q12)
        assert rep.status == "pass"
        assert rep.residual / abs(rep.lhs) < 1e-8
        expected = 4 * np.pi * (-1.0) ** k
        assert rep.lhs == pytest.approx(expected, rel=1e-6)


def test_minkowski_formula_ellipsoid_anisotropic():
    E = sf.ellipsoid((1.0, 1.3, 1.7))
    for k in (0, 1):
        rep = vf.minkowski_formula(E, sf.anisotropic_normal_field(F_MIX), k,
                                   rule=Q12)
        assert rep.status == "pass"


def test_minkowski_formula_circle():
    # n = 1: k = 0 pairs length against curvature
    circ = sf.circle(radius=2.0)
    rep = vf.minkowski_formula(circ, sf.normal_field(), 0, rule=Q12)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(4 * np.pi, rel=1e-8)


def test_minkowski_formula_guards():
    with pytest.raises(NotClosed):
        vf.minkowski_formula(sf.catenoid(), sf.normal_field(), 0, rule=Q12)
    wobble = sf.TransversalField(
        lambda fb: fb.nu * (1.0 + 0.3 * np.sin(fb.x[:, 0]))[:, None], "wobble")
    with pytest.raises(NotEquiaffine):
        vf.minkowski_formula(sf.sphere(), wobble, 0, rule=Q12)
    with pytest.raises(ValueError):
        vf.minkowski_formula(sf.sphere(), sf.normal_field(), 2, rule=Q12)


def test_frame_identity_suite_keys_and_tolerances():
    out = vf.frame_identity_suite(sf.sphere(), sf.normal_field(), grid=3)
    assert out["kept_points"] > 0
    for key, val in out.items():
        if key in ("grid_points", "kept_points"):
            continue
        assert val < 1e-4, key


def test_geometric_radii_bounds(monkeypatch):
    C = sf.catenoid(v_max=1.3)
    radii = vf.geometric_radii(C, E3.dual(), count=8)
    assert len(radii) == 8
    assert radii[0] > 1.0  # neck gauge distance
    assert radii[-1] < C.boundary_gauge_radius(E3.dual())
    assert np.all(np.diff(radii) > 0)
    # a closed patch takes both ends from one sample of its gauge range
    gauge_range, calls = sf.ParametricPatch.gauge_range, []

    def counted(patch, gauge):
        calls.append(gauge)
        return gauge_range(patch, gauge)

    monkeypatch.setattr(sf.ParametricPatch, "gauge_range", counted)
    S = sf.sphere(center=(0.3, 0.0, 0.0))
    radii = vf.geometric_radii(S, E3.dual(), count=4)
    assert len(calls) == 1
    lo, hi = gauge_range(S, E3.dual())
    assert radii[0] == pytest.approx(1.05 * lo) and radii[-1] == pytest.approx(0.98 * hi)


@pytest.mark.parametrize("xi", [sf.normal_field(), sf.anisotropic_normal_field(F_MIX),
                                sf.constant_field([0.3, -0.7, 0.55])],
                         ids=["normal", "anisotropic", "constant"])
def test_frame_identity_suite_frames_each_stencil_once(monkeypatch, xi):
    calls = []
    frames = sf.ParametricPatch.frames

    def counted(patch, P):
        calls.append(P)
        return frames(patch, P)

    monkeypatch.setattr(sf.ParametricPatch, "frames", counted)
    vf.frame_identity_suite(sf.ellipsoid((1, 1.3, 1.7)), xi, grid=3)
    assert len(calls) <= 9


def test_frame_identity_suite_frames_its_kept_points_once(monkeypatch):
    # the decomposition takes the kept rows of the grid's frames: the first
    # call frames the grid, and no later call frames a grid point again
    calls = []
    frames = sf.ParametricPatch.frames

    def counted(patch, P):
        calls.append(np.atleast_2d(P))
        return frames(patch, P)

    monkeypatch.setattr(sf.ParametricPatch, "frames", counted)
    patch = sf.ellipsoid((1, 1.3, 1.7))
    out = vf.frame_identity_suite(patch, sf.constant_field([0.3, -0.7, 0.55]), grid=3)
    grid = patch.sample_grid(3)
    assert out["kept_points"] > 0
    assert np.array_equal(calls[0], grid)
    later = np.concatenate(calls[1:])
    assert not (later[:, None, :] == grid[None, :, :]).all(axis=2).any()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kept_rows_of_frames_are_the_frames_of_the_kept_points(seed):
    # bit for bit, so the suite's residuals are those of framing its kept
    # points a second time
    rng = np.random.default_rng(seed)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    R *= np.sign(np.linalg.det(R))
    for patch in (sf.sphere(), sf.ellipsoid((1, 1.3, 1.7)), sf.catenoid(v_max=1.2)):
        patch = sf.linear_image(patch, R)
        P = patch.sample_grid(6)
        keep = rng.random(len(P)) < 0.6
        a, b = patch.frames(P).rows(keep), patch.frames(P[keep])
        for attr in ("P", "x", "tangents", "nu", "metric", "sqrt_g", "e", "sec_form"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


def _count_clipped(monkeypatch):
    """The list of calls that integrate_clipped receives from here on."""
    import wulffkit.quadrature as qd
    calls = []
    clipped = qd.integrate_clipped

    def counted(*args, **kwargs):
        calls.append(args)
        return clipped(*args, **kwargs)

    monkeypatch.setattr(qd, "integrate_clipped", counted)
    monkeypatch.setattr(vf, "integrate_clipped", counted)
    return calls


def test_monotonicity_scan_reuses_energies(monkeypatch):
    # one clipped pass over the bands between the radii gives every energy and
    # every annulus kernel; each report agrees with the identity on its own
    # annulus within the two tolerances
    C = sf.catenoid(v_max=1.2)
    radii = vf.geometric_radii(C, F_MIX.dual(), count=8)
    rule = ParamQuadrature(order=4, base_grid=8)
    calls = _count_clipped(monkeypatch)
    scan = vf.monotonicity_scan(C, F_MIX, radii, rule=rule, max_depth=5)
    assert len(calls) == 1
    assert calls[0][2].levels.tolist() == [0.0, *radii]
    single = [vf.monotonicity_identity(C, F_MIX, float(s), float(r), rule=rule,
                                       max_depth=5)
              for s, r in zip(radii[:-1], radii[1:])]
    for rep, one in zip(scan.reports, single):
        assert (rep.name, rep.status, rep.flags) == (one.name, one.status, one.flags)
        assert abs(rep.lhs - one.lhs) <= rep.tolerance + one.tolerance
        assert abs(rep.rhs - one.rhs) <= rep.tolerance + one.tolerance
    assert all(rep.flags for rep in single)   # F_MIX does not make C critical


def test_corollary_makes_one_clipped_call(monkeypatch):
    # for the energy alone: the section measure is a polar integral
    calls = _count_clipped(monkeypatch)
    vf.corollary_lower_bound(sf.hyperplane(extent=2.2), E3, rule=Q12, max_depth=8,
                             origin_param=[0.0, 0.0])
    assert len(calls) == 1


def test_corollary_detects_a_uniform_clipped_fault(monkeypatch):
    # the bound does not share the energy's quadrature: scaling every clipped
    # integral by 1 + 1e-6 moves the plane's ratio by as much
    import wulffkit.quadrature as qd
    clipped = qd.integrate_clipped

    def scaled(*args):
        res = clipped(*args)
        res.value *= 1.0 + 1e-6
        return res

    monkeypatch.setattr(qd, "integrate_clipped", scaled)
    monkeypatch.setattr(vf, "integrate_clipped", scaled)
    rep = vf.corollary_lower_bound(sf.hyperplane(extent=2.2), E3, rule=Q12, max_depth=8,
                                   origin_param=[0.0, 0.0])
    assert rep.equality_within >= 5e-7 > 1e3 * rep.tolerance


@pytest.mark.parametrize("radii", [[0.4, np.nan], [np.nan, 0.5], [0.4, np.inf]],
                         ids=["nan-outer", "nan-inner", "inf-outer"])
def test_bad_radii_fail_before_any_sampling(radii, monkeypatch):
    # the region rule rejects them before the boundary check and the
    # curvature sample look at the patch
    def sampled(*args, **kwargs):
        raise AssertionError("the patch was sampled before the radii were checked")

    plane = sf.hyperplane(extent=2.0)
    for method in ("boundary_gauge_radius", "sample_grid", "frames"):
        monkeypatch.setattr(sf.ParametricPatch, method, sampled)
    with pytest.raises(ValueError, match="region radii|band splits"):
        vf.monotonicity_scan(plane, E3, radii)
    with pytest.raises(ValueError, match="region radii|band splits"):
        vf.equiaffine_identity(plane, sf.normal_field(), E3.dual(), *radii)


@pytest.mark.parametrize("check", ["scan", "identity", "equiaffine"])
def test_annulus_checks_make_one_clipped_call(check, monkeypatch):
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    calls = _count_clipped(monkeypatch)
    if check == "scan":
        vf.monotonicity_scan(T, F_MIX, vf.geometric_radii(T, F_MIX.dual(), count=8),
                             rule=Q12, max_depth=8)
    elif check == "identity":
        vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q12, max_depth=8)
    else:
        vf.equiaffine_identity(T, sf.anisotropic_normal_field(F_MIX), F_MIX.dual(),
                               1.15, 2.0, rule=Q12, max_depth=8)
    assert len(calls) == 1


def test_annulus_checks_evaluate_their_field_once_per_integrand_call(monkeypatch):
    # each integrand call of the banded pass evaluates xi once, or the jet of
    # F at nu once, for both the density and the kernel.  Besides, the
    # curvature sample evaluates xi on its grid and its stencil, and takes
    # the Hessian of F on its grid
    integrand_calls, clipped = [], vf.integrate_clipped

    def counted(patch, f, region, rule):
        def integrand(fb):
            integrand_calls.append(len(fb.x))
            return f(fb)
        return clipped(patch, integrand, region, rule)

    monkeypatch.setattr(vf, "integrate_clipped", counted)
    C, rule = sf.catenoid(v_max=1.2), ParamQuadrature(order=5, base_grid=12)

    at_calls = []
    xi = sf.TransversalField(lambda fb: at_calls.append(len(fb.x)) or fb.nu, "normal")
    vf.equiaffine_identity(C, xi, E3.dual(), 1.15, 1.6, rule=rule, max_depth=6)
    assert integrand_calls and len(at_calls) - 2 == len(integrand_calls)

    F, jet_orders = wk.MinkowskiNorm.quadratic(A_MIX), []
    jet = F._jet

    def counted_jet(U, order=2):
        jet_orders.append(order)
        return jet(U, order)

    F._jet = counted_jet
    dual = F.dual()
    integrand_calls.clear()
    vf.monotonicity_scan(C, F, vf.geometric_radii(C, dual, count=3), dual=dual, rule=rule,
                         max_depth=6)
    assert integrand_calls
    assert sorted(jet_orders) == [1] * len(integrand_calls) + [2]


@pytest.mark.parametrize("case", ["bundled", "node-at-origin"])
def test_scan_through_the_cone_point_is_finite(case):
    # the innermost band {F° < r_1} of a plane through the origin holds the
    # gauge's cone point, where the kernel is not used; every row is finite
    # (RuntimeWarnings are errors in this suite).  On a 3 x 3 grid of the
    # extent-1.5 plane the centre cell lies inside that band and its
    # odd-order rule has a node at x = 0, where the gauge has no gradient
    if case == "bundled":
        plane, radii, rule, norms = (sf.hyperplane(extent=2.0), [0.3, 0.5, 0.7, 0.9], Q12,
                                     (E3, F_MIX))
    else:
        plane, radii, rule, norms = (sf.hyperplane(extent=1.5), [1.47, 1.49],
                                     ParamQuadrature(order=5, base_grid=3), (E3,))
    for F in norms:
        scan = vf.monotonicity_scan(plane, F, radii, rule=rule, max_depth=6)
        rows = [(rep.lhs, rep.rhs, rep.tolerance) for rep in scan.reports]
        assert np.all(np.isfinite(rows)) and np.all(np.isfinite(scan.normalized))
        assert all(rep.status == "pass" for rep in scan.reports)
        assert scan.max_relative_deviation() < 1e-12


def test_minkowski_formula_decomposes_each_node_set_once(monkeypatch):
    # both sides come from one decomposition of each quadrature node set
    # (coarse and fine), taken a chunk of nodes at a time: each node once
    # per call, where each side decomposing the nodes on its own made twice
    calls = []
    equiaffine = vf._equiaffine

    def counted(xi, fb, *args):
        calls.append(fb.x.shape[0])
        return equiaffine(xi, fb, *args)

    monkeypatch.setattr(vf, "_equiaffine", counted)
    for k in (0, 1):
        rep = vf.minkowski_formula(sf.sphere(), sf.normal_field(), k, rule=Q12)
        assert rep.status == "pass"
    assert sum(calls) == 2 * (144 + 576) * 36


def test_minkowski_formulas_decompose_each_node_set_once_for_all_orders(monkeypatch):
    # k = 0 and k = 1 are four columns of one integral: each node of the
    # coarse and fine node sets is decomposed once, where one call per order
    # decomposed it twice
    single = [vf.minkowski_formula(sf.sphere(), sf.normal_field(), k, rule=Q12)
              for k in (0, 1)]
    calls = []
    equiaffine = vf._equiaffine

    def counted(xi, fb, *args):
        calls.append(fb.x.shape[0])
        return equiaffine(xi, fb, *args)

    monkeypatch.setattr(vf, "_equiaffine", counted)
    both = vf.minkowski_formulas(sf.sphere(), sf.normal_field(), [0, 1], rule=Q12)
    assert sum(calls) == (144 + 576) * 36
    for one, rep in zip(single, both):
        assert (rep.name, rep.lhs, rep.rhs, rep.tolerance, rep.status, rep.metadata) == (
            one.name, one.lhs, one.rhs, one.tolerance, one.status, one.metadata)


def _corrupt_kernel(monkeypatch, factor):
    """Scale the annulus kernel integrals, column 1 of every banded clipped
    pass that verify makes (column 0 holds the energy densities)."""
    clipped = vf.integrate_clipped

    def corrupted(patch, f, region, rule):
        res = clipped(patch, f, region, rule)
        res.value[:, 1] *= factor
        return res

    monkeypatch.setattr(vf, "integrate_clipped", corrupted)


def test_corrupted_monotonicity_kernel_fails(monkeypatch):
    # criterion 5's surface case: a 1e-3 relative error in the kernel must
    # fail the identity, so its tolerance sits well below that
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    _corrupt_kernel(monkeypatch, 1.0 + 1e-3)
    assert vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q16, max_depth=8).status == "fail"


def test_corrupted_equiaffine_kernel_fails(monkeypatch):
    # criterion 6's identity with the same corruption
    _corrupt_kernel(monkeypatch, 1.0 + 1e-3)
    rep = vf.equiaffine_identity(sf.catenoid(v_max=1.3), sf.normal_field(), E3.dual(),
                                 1.2, 2.0, rule=Q16, max_depth=8)
    assert rep.status == "fail"


def test_corrupted_scan_kernel_fails_every_annulus(monkeypatch):
    # the same corruption in an 8-radius scan: each annulus identity fails
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    radii = vf.geometric_radii(T, F_MIX.dual(), count=8)
    assert all(rep.status == "pass" for rep in
               vf.monotonicity_scan(T, F_MIX, radii, rule=Q12, max_depth=8).reports)
    _corrupt_kernel(monkeypatch, 1.0 + 1e-3)
    scan = vf.monotonicity_scan(T, F_MIX, radii, rule=Q12, max_depth=8)
    assert [rep.status for rep in scan.reports] == ["fail"] * (len(radii) - 1)


def _corrupt_minkowski_side(monkeypatch, factor):
    """Scale the <xi, nu> Hk~ side of every order, the even columns of the
    region-free passes minkowski_formulas makes (the odd ones hold
    -<x, nu> H(k+1)~)."""
    clipped = vf.integrate_clipped

    def corrupted(patch, f, region, rule):
        assert region is None

        def scaled(fb):
            cols = f(fb).copy()
            cols[:, 0::2] *= factor
            return cols
        return clipped(patch, scaled, region, rule)

    monkeypatch.setattr(vf, "integrate_clipped", corrupted)


@pytest.mark.parametrize("surface,xi", [
    (sf.sphere(), sf.normal_field()),
    (sf.ellipsoid((1.0, 1.3, 1.7)), sf.anisotropic_normal_field(F_MIX))],
    ids=["sphere", "ellipsoid"])
def test_corrupted_minkowski_side_fails(monkeypatch, surface, xi):
    # a 1e-3 relative error in one side fails both orders, so the
    # tolerance sits well below that
    assert [rep.status for rep in vf.minkowski_formulas(surface, xi, [0, 1], rule=Q12)] \
        == ["pass", "pass"]
    _corrupt_minkowski_side(monkeypatch, 1.0 + 1e-3)
    reps = vf.minkowski_formulas(surface, xi, [0, 1], rule=Q12)
    assert [(rep.name, rep.status) for rep in reps] == [("minkowski-k0", "fail"),
                                                        ("minkowski-k1", "fail")]


def test_reports_carry_cell_counts():
    # the inside, cut and fallback cells of the one banded pass of each
    # identity, and of the corollary's one clipped pass, its energy
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    mono = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q12, max_depth=8)
    equi = vf.equiaffine_identity(T, sf.anisotropic_normal_field(F_MIX), F_MIX.dual(),
                                  1.15, 2.0, rule=Q12, max_depth=8)
    cor = vf.corollary_lower_bound(sf.hyperplane(extent=2.2), E3, rule=Q12, max_depth=8,
                                   origin_param=[0.0, 0.0])
    for cells, names in ((mono.metadata["cells"], {"bands"}),
                         (equi.metadata["cells"], {"bands"}),
                         (cor.metadata["cells"], {"energy"})):
        assert set(cells) == names
        for counts in cells.values():
            assert counts["inside"] > 0 and counts["cut"] > 0 and counts["fallback"] == 0
    bands = integrate_clipped(T, lambda fb: np.ones(len(fb.x)),
                              ClippedRegionRule(F_MIX.dual(), 0.0, 2.0, 8, splits=(1.15,)), Q12)
    assert mono.metadata["cells"]["bands"] == equi.metadata["cells"]["bands"] \
        == bands.cell_counts()

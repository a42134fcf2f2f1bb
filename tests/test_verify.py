import math

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import surfaces as sf
from wulffkit import verify as vf
from wulffkit.errors import (BoundaryInsideRegion, NotClosed, NotEquiaffine,
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
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    a = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q12, max_depth=8)
    b = vf.equiaffine_identity(T, sf.anisotropic_normal_field(F_MIX), F_MIX.dual(),
                               1.15, 2.0, rule=Q12, max_depth=8)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-12)


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


def test_geometric_radii_bounds():
    C = sf.catenoid(v_max=1.3)
    radii = vf.geometric_radii(C, E3.dual(), count=8)
    assert len(radii) == 8
    assert radii[0] > 1.0  # neck gauge distance
    assert radii[-1] < C.boundary_gauge_radius(E3.dual())
    assert np.all(np.diff(radii) > 0)


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
    # (coarse and fine): 2 per call, where each side decomposing the nodes
    # on its own made 4 per call
    calls = []
    equiaffine = vf._equiaffine

    def counted(xi, fb, *args):
        calls.append(fb.x.shape[0])
        return equiaffine(xi, fb, *args)

    monkeypatch.setattr(vf, "_equiaffine", counted)
    for k in (0, 1):
        rep = vf.minkowski_formula(sf.sphere(), sf.normal_field(), k, rule=Q12)
        assert rep.status == "pass"
    assert calls == [144 * 36, 576 * 36] * 2


def test_minkowski_formulas_decompose_each_node_set_once_for_all_orders(monkeypatch):
    # k = 0 and k = 1 are four columns of one integral: 2 decompositions
    # (coarse and fine), where one call per order made 4
    single = [vf.minkowski_formula(sf.sphere(), sf.normal_field(), k, rule=Q12)
              for k in (0, 1)]
    calls = []
    equiaffine = vf._equiaffine

    def counted(xi, fb, *args):
        calls.append(fb.x.shape[0])
        return equiaffine(xi, fb, *args)

    monkeypatch.setattr(vf, "_equiaffine", counted)
    both = vf.minkowski_formulas(sf.sphere(), sf.normal_field(), [0, 1], rule=Q12)
    assert calls == [144 * 36, 576 * 36]
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


def test_reports_carry_cell_counts():
    # the inside, cut and fallback cells of the one banded pass of each
    # identity, and of the corollary's two clipped integrals
    T = sf.transformed_catenoid(A_MIX, v_max=1.2)
    mono = vf.monotonicity_identity(T, F_MIX, 1.15, 2.0, rule=Q12, max_depth=8)
    equi = vf.equiaffine_identity(T, sf.anisotropic_normal_field(F_MIX), F_MIX.dual(),
                                  1.15, 2.0, rule=Q12, max_depth=8)
    cor = vf.corollary_lower_bound(sf.hyperplane(extent=2.2), E3, rule=Q12, max_depth=8,
                                   origin_param=[0.0, 0.0])
    for cells, names in ((mono.metadata["cells"], {"bands"}),
                         (equi.metadata["cells"], {"bands"}),
                         (cor.metadata["cells"], {"energy", "section"})):
        assert set(cells) == names
        for counts in cells.values():
            assert counts["inside"] > 0 and counts["cut"] > 0 and counts["fallback"] == 0
    bands = integrate_clipped(T, lambda fb: np.ones(len(fb.x)),
                              ClippedRegionRule(F_MIX.dual(), 0.0, 2.0, 8, splits=(1.15,)), Q12)
    assert mono.metadata["cells"]["bands"] == equi.metadata["cells"]["bands"] \
        == bands.cell_counts()

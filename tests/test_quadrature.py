import math

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import surfaces as sf
from wulffkit.quadrature import (ClippedRegionRule, ParamQuadrature, integrate_clipped,
                                 sublevel_energy)

def one(fb):
    return np.ones(fb.x.shape[0])


def whole(patch, f, rule):
    """The integral of f over the whole patch: a pass with no region."""
    return integrate_clipped(patch, f, None, rule).value


def test_rule_validation():
    with pytest.raises(ValueError):
        ParamQuadrature(order=1)
    with pytest.raises(ValueError):
        ClippedRegionRule(gauge=None, s=1.0, r=0.5)
    with pytest.raises(ValueError):
        ClippedRegionRule(gauge=None, s=-0.1, r=0.5)
    for depth in (-1, 2.5, True, "8"):
        with pytest.raises(ValueError, match="max_depth"):
            ClippedRegionRule(None, 0.0, 1.0, depth)
    for splits in ((0.5, 0.5), (0.7, 0.5), (1.0,), (0.0,), (float("nan"),)):
        with pytest.raises(ValueError, match="splits"):
            ClippedRegionRule(None, 0.0, 1.0, 8, splits=splits)
    assert ClippedRegionRule(None, 0.2, 1.0, np.int64(3), splits=[0.5]).levels.tolist() == \
        [0.2, 0.5, 1.0]


@pytest.mark.parametrize("field,value", [("order", 2.5), ("order", True), ("order", "6"),
                                         ("base_grid", 2.5), ("base_grid", True),
                                         ("base_grid", 0)])
def test_param_quadrature_rejects_non_integers(field, value):
    # 2.5 failed inside integrate_clipped with a NumPy TypeError, and
    # base_grid=True ran as a 1-cell grid
    with pytest.raises(ValueError, match=field):
        ParamQuadrature(**{field: value})


def test_param_quadrature_takes_numpy_integers():
    rule = ParamQuadrature(order=np.int64(4), base_grid=np.int64(3))
    assert whole(sf.circle(), one, rule) == whole(sf.circle(), one, ParamQuadrature(4, 3))


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_clipped_region_rejects_non_finite_radius(r):
    # r = inf gave a RuntimeWarning from the band levels instead
    with pytest.raises(ValueError, match="radii"):
        ClippedRegionRule(None, 0.0, r)


def test_sphere_area():
    val = whole(sf.sphere(), one, ParamQuadrature(order=8, base_grid=32))
    assert abs(val - 4 * np.pi) / (4 * np.pi) < 1e-8


def test_circle_length():
    val = whole(sf.circle(), one, ParamQuadrature(order=8, base_grid=16))
    assert abs(val - 2 * np.pi) < 1e-10


def test_catenoid_band_closed_form():
    # area of the band |v| <= 1 from the 1D integral of 2 pi cosh^2 v
    val = whole(sf.catenoid(v_max=1.0), one, ParamQuadrature(order=8, base_grid=16))
    exact = 2 * np.pi * (1.0 + math.sinh(1.0) * math.cosh(1.0))
    assert abs(val - exact) / exact < 1e-12


def test_gauss_legendre_polynomial_exactness():
    # degree 2*order-1 polynomials on a flat patch integrate exactly
    plane = sf.hyperplane(extent=1.0)
    for order in (2, 4, 6):
        deg = 2 * order - 1

        def f(fb, d=deg):
            return fb.P[:, 0] ** d + fb.P[:, 1] ** (d - 1)

        val = whole(plane, f, ParamQuadrature(order=order, base_grid=1))
        # odd powers cancel over the symmetric square; compute the even part
        exact = 0.0
        if (deg - 1) % 2 == 0:
            exact += 2.0 * (2.0 / (deg - 1 + 1))
        assert val == pytest.approx(exact, abs=1e-12)


def test_ellipsoid_area_against_refined():
    # the two-resolution estimate of the Minkowski formulas: the rule's grid
    # against twice its cells per axis covers the error of the coarser value
    E = sf.ellipsoid((1.0, 1.3, 1.7))
    coarse, val = (whole(E, one, ParamQuadrature(order=6, base_grid=g)) for g in (12, 24))
    ref = whole(E, one, ParamQuadrature(order=10, base_grid=32))
    assert abs(val - ref) <= max(abs(val - coarse), 1e-10 * ref)


def test_clipped_disk_area():
    D = wk.MinkowskiNorm.euclidean(3).dual()
    plane = sf.hyperplane(extent=1.5)
    res = integrate_clipped(plane, one,
                            ClippedRegionRule(gauge=D, s=0.0, r=1.0, max_depth=10),
                            ParamQuadrature(order=6, base_grid=16))
    assert abs(res.value - np.pi) / np.pi < 1e-4
    assert res.error_estimate > 0


def test_clipped_chord_lengths():
    # line y = d intersected with an annulus: 2(sqrt(r^2-d^2) - sqrt(s^2-d^2))
    d, s, r = 0.5, 0.6, 1.0
    D = wk.MinkowskiNorm.euclidean(2).dual()
    L = sf.line(offset=d, extent=4.0)
    res = integrate_clipped(L, one, ClippedRegionRule(gauge=D, s=s, r=r, max_depth=20),
                            ParamQuadrature(order=6, base_grid=16))
    exact = 2 * (math.sqrt(r**2 - d**2) - math.sqrt(s**2 - d**2))
    assert abs(res.value - exact) < 1e-6


def test_clipped_elliptic_region_on_plane():
    # quadratic gauge ball cut by the z=0 plane: ellipse of area pi*a*b with
    # a = sqrt(A11), b = sqrt(A22) for the dual sublevel {x A^-1 x < 1}
    A = np.diag([2.25, 0.64, 1.0])
    F = wk.MinkowskiNorm.quadratic(A)
    plane = sf.hyperplane(extent=2.0)
    res = integrate_clipped(plane, one,
                            ClippedRegionRule(gauge=F.dual(), s=0.0, r=1.0,
                                              max_depth=9),
                            ParamQuadrature(order=6, base_grid=16))
    exact = np.pi * 1.5 * 0.8
    assert abs(res.value - exact) / exact < 1e-4


def test_region_nesting_additivity():
    D = wk.MinkowskiNorm.euclidean(3).dual()
    C = sf.catenoid(v_max=1.3)
    q = ParamQuadrature(order=6, base_grid=16)
    a = integrate_clipped(C, one, ClippedRegionRule(D, 1.2, 1.6, 8), q)
    b = integrate_clipped(C, one, ClippedRegionRule(D, 1.6, 2.0, 8), q)
    c = integrate_clipped(C, one, ClippedRegionRule(D, 1.2, 2.0, 8), q)
    tol = a.error_estimate + b.error_estimate + c.error_estimate
    assert abs(a.value + b.value - c.value) <= max(tol, 1e-10)


def test_full_cover_equals_unclipped():
    D = wk.MinkowskiNorm.euclidean(3).dual()
    C = sf.catenoid(v_max=1.3)
    q = ParamQuadrature(order=6, base_grid=16)
    clipped = integrate_clipped(C, one, ClippedRegionRule(D, 0.0, 50.0, 8), q)
    plain = integrate_clipped(C, one, None, q)
    # a region that covers the patch keeps every base cell inside one band,
    # as no region does: the same nodes, summed in the same order
    assert plain.value == clipped.value
    assert plain.error_estimate == plain.prefix_estimate == clipped.error_estimate == 0.0
    assert plain.cell_counts() == clipped.cell_counts() == \
        {"inside": q.base_grid ** C.n, "cut": 0, "fallback": 0}
    assert not plain.depth_exhausted


def test_depth_exhausted_flagged():
    # a circle of radius 0.1 around the centre of the middle base cell: every
    # cell that touches the origin (the cone point of the gauge) has no height
    # axis, so it is halved down to the depth limit and falls back there
    D = wk.MinkowskiNorm.euclidean(3).dual()
    plane = sf.hyperplane(extent=1.5)
    res = integrate_clipped(plane, one, ClippedRegionRule(D, 0.0, 0.1, 2),
                            ParamQuadrature(order=4, base_grid=3))
    assert res.depth_exhausted
    assert res.leaf_cells > 0


def test_sublevel_energy_hyperplane_scale_invariance():
    # plane through the origin: E(r)/r^n is constant for every gauge
    plane = sf.hyperplane(extent=2.2)
    for F in (wk.MinkowskiNorm.euclidean(3),
              wk.MinkowskiNorm.quadratic(np.diag([1.0, 1.0, 4.0]))):
        vals = []
        for r in (0.5, 1.0, 2.0):
            res = sublevel_energy(plane, F, r,
                                  rule=ParamQuadrature(order=6, base_grid=16),
                                  max_depth=8)
            vals.append(res.value / r**2)
        dev = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert dev < 1e-4


def test_sublevel_energy_offset_line_chords():
    # E(r) = 2 sqrt(r^2 - d^2), so E(r)/r increases with r
    d = 0.5
    E = wk.MinkowskiNorm.euclidean(2)
    L = sf.line(offset=d, extent=4.0)
    q = ParamQuadrature(order=6, base_grid=16)
    norm_energy = []
    for r in (0.6, 0.8, 1.0):
        res = sublevel_energy(L, E, r, rule=q, max_depth=20)
        exact = 2 * math.sqrt(r**2 - d**2)
        assert abs(res.value - exact) < 1e-6
        norm_energy.append(res.value / r)
    assert norm_energy[0] < norm_energy[1] < norm_energy[2]


def test_sublevel_energy_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        sublevel_energy(sf.hyperplane(), wk.MinkowskiNorm.euclidean(3), 0.0)


def test_vector_integrand_equals_separate_integrals():
    # an (m, j) integrand gives the j integrals of its columns, bit for bit
    E = sf.ellipsoid((1.0, 1.3, 1.7))
    cols = (one, lambda fb: fb.x[:, 2] ** 2, lambda fb: fb.nu[:, 0] * fb.x[:, 1])
    q = ParamQuadrature(order=4, base_grid=6)
    res = integrate_clipped(E, lambda fb: np.column_stack([c(fb) for c in cols]), None, q)
    assert res.value.shape == res.error_estimate.shape == (3,)
    for j, c in enumerate(cols):
        alone = integrate_clipped(E, c, None, q)
        assert (res.value[j], res.error_estimate[j]) == (alone.value, alone.error_estimate)
    assert isinstance(whole(E, one, q), float)


def test_origin_floor_compares_squared_norms():
    # rows below the origin floor get phi = 0 and a zero gradient; the floor
    # is the one np.linalg.norm(X) < 1e-12 drew
    from wulffkit.quadrature import _gauge_safe
    dual = wk.MinkowskiNorm.quadratic(np.diag([1.0, 2.0, 3.0])).dual()
    X = np.array([[0.0, 0.0, 0.0], [9e-13, 0.0, 0.0], [6e-13, 6e-13, 6e-13],
                  [1.1e-12, 0.0, 0.0], [0.3, -0.2, 0.5]])
    small = np.linalg.norm(X, axis=1) < 1e-12
    assert small.tolist() == [True, True, False, False, False]
    phi, grad = _gauge_safe(dual, X)
    assert np.all(phi[small] == 0.0) and np.all(grad[small] == 0.0)
    assert np.array_equal(phi[~small], dual.value(X[~small]))
    assert np.array_equal(grad[~small], dual.grad(X[~small]))


# closed-form targets of the cut-cell rule: (patch, gauge, s, r, exact value)
A_ROTATED = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])
CUT_TARGETS = {
    "disk": (sf.hyperplane(extent=1.5), wk.MinkowskiNorm.euclidean(3).dual(), 0.0, 1.0, np.pi),
    # grid lines of the extent-2.0 plane touch the circle at (0, ±1), (±1, 0)
    "disk-grid-tangent": (sf.hyperplane(extent=2.0), wk.MinkowskiNorm.euclidean(3).dual(),
                          0.0, 1.0, np.pi),
    # {x A^-1 x < 1} cut by z = 0: area pi / sqrt(det B), B the xy block of A^-1
    "rotated-ellipse": (sf.hyperplane(extent=2.0), wk.MinkowskiNorm.quadratic(A_ROTATED).dual(),
                        0.0, 1.0, np.pi / math.sqrt(np.linalg.det(np.linalg.inv(A_ROTATED)[:2, :2]))),
    "ring": (sf.hyperplane(extent=1.5), wk.MinkowskiNorm.euclidean(3).dual(), 0.4, 1.0,
             np.pi * (1.0 - 0.4**2)),
    "chord": (sf.line(offset=0.5, extent=4.0), wk.MinkowskiNorm.euclidean(2).dual(), 0.6, 1.0,
              2 * (math.sqrt(1.0 - 0.25) - math.sqrt(0.36 - 0.25))),
}


@pytest.mark.parametrize("name", sorted(CUT_TARGETS))
def test_cut_cells_meet_closed_forms(name, monkeypatch):
    # exact up to round-off on every target, with an estimate that covers the
    # error and stays within 1e-12 of the value, from no fallback cell and
    # under 10% of the 31 112 x 36 nodes that depth-8 bisection framed
    patch, gauge, s, r, exact = CUT_TARGETS[name]
    nodes = []
    frames = sf.ParametricPatch.frames

    def counted(self, P):
        nodes.append(len(P))
        return frames(self, P)

    monkeypatch.setattr(sf.ParametricPatch, "frames", counted)
    res = integrate_clipped(patch, one, ClippedRegionRule(gauge, s, r, 8),
                            ParamQuadrature(order=6, base_grid=16))
    err = abs(res.value - exact)
    assert err <= 1e-10 * exact
    assert err <= res.error_estimate <= 1e-12 * exact
    assert res.leaf_cells > 0 and not res.depth_exhausted
    assert sum(nodes) <= 0.1 * 31_112 * 36


def near_tangent_regions(count=40, seed=2):
    """(gauge, centre, exact area) of disks and ellipses on z = 0 whose
    boundary lies 1e-10 to 1e-2 from a grid line of the extent-2, grid-16
    plane, beyond or short of it: every fourth the unit disk of the
    Euclidean gauge, the others sections of random quadratic gauges."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        A = np.eye(3)
        if i % 4:
            M = rng.standard_normal((3, 3))
            A = M @ M.T + 0.3 * np.eye(3)
            # the larger half-width of the section between 0.4 and 1
            widest = np.linalg.inv(np.linalg.inv(A)[:2, :2]).diagonal().max()
            A *= rng.uniform(0.16, 1.0) / widest
        B = np.linalg.inv(A)[:2, :2]                  # the section is {p B p < 1}
        half = np.sqrt(np.linalg.inv(B).diagonal())   # its half-widths along the axes
        axis, side = i % 2, (-1.0) ** (i // 2)
        gap = (-1.0) ** (i // 4) * 10.0 ** -rng.uniform(2, 10)
        centre = rng.uniform(-0.3, 0.3, size=2)
        edge = centre[axis] + side * half[axis]
        centre[axis] += 0.25 * np.round(edge / 0.25) + side * gap - edge
        gauge = wk.MinkowskiNorm.quadratic(A).dual() if i % 4 else \
            wk.MinkowskiNorm.euclidean(3).dual()
        yield gauge, centre, np.pi / math.sqrt(np.linalg.det(B))


def test_near_tangent_faces_meet_their_estimates():
    # a boundary just beyond a grid line cuts a sliver from a cell face: two
    # roots between two face samples, with no sign change between them, that
    # the nodes of both rules can miss; the face step must still find them
    for gauge, centre, exact in near_tangent_regions():
        res = integrate_clipped(sf.hyperplane(origin=(-centre[0], -centre[1], 0.0), extent=2.0),
                                one, ClippedRegionRule(gauge, 0.0, 1.0, 8),
                                ParamQuadrature(order=6, base_grid=16))
        assert abs(res.value - exact) <= res.error_estimate
        assert res.fallback_cells == 0


def test_near_tangent_roots_stop_within_round_off(monkeypatch):
    # a Newton step that leaves its bracket from a point within round-off of
    # the level ends the row there, instead of bisecting down to the floor
    # (2 078 psi calls over these regions before that rule, 1 567 with it)
    from wulffkit import quadrature as qd
    calls = []
    psi = qd._psi

    def counted(*args):
        calls.append(1)
        return psi(*args)

    monkeypatch.setattr(qd, "_psi", counted)
    for gauge, centre, _ in near_tangent_regions():
        integrate_clipped(sf.hyperplane(origin=(-centre[0], -centre[1], 0.0), extent=2.0), one,
                          ClippedRegionRule(gauge, 0.0, 1.0, 8),
                          ParamQuadrature(order=6, base_grid=16))
    assert len(calls) <= 1650


def test_cut_cells_refine_small_circles():
    # a radius-0.3 circle is curved too tightly for cut cells of side 1/3:
    # they are halved until the rules of order q and q - 1 agree on the area
    D = wk.MinkowskiNorm.euclidean(3).dual()
    res = integrate_clipped(sf.hyperplane(extent=2.0), one, ClippedRegionRule(D, 0.0, 0.3, 6),
                            ParamQuadrature(order=5, base_grid=12))
    assert abs(res.value - np.pi * 0.09) <= 1e-14
    assert res.error_estimate <= 1e-13


def test_euclidean_bands_on_a_plane():
    # band b of {|x| < 1.9} on z = 0 is the ring pi (l_(b+1)^2 - l_b^2); each
    # band's estimate covers its error, and each prefix estimate covers the
    # error of the disk pi l_(b+1)^2 that the bands 0..b make up
    D = wk.MinkowskiNorm.euclidean(3).dual()
    res = integrate_clipped(sf.hyperplane(extent=2.0), one,
                            ClippedRegionRule(D, 0.0, 1.9, 8, splits=(0.3, 0.6, 1.0, 1.5)),
                            ParamQuadrature(order=6, base_grid=16))
    levels = np.array([0.0, 0.3, 0.6, 1.0, 1.5, 1.9])
    assert res.value.shape == res.error_estimate.shape == res.prefix_estimate.shape == (5,)
    err = np.abs(res.value - np.pi * np.diff(levels**2))
    assert np.all(err <= res.error_estimate) and np.all(res.error_estimate <= 1e-12)
    prefix_err = np.abs(np.cumsum(res.value) - np.pi * levels[1:] ** 2)
    assert np.all(prefix_err <= res.prefix_estimate)
    assert res.leaf_cells > 0 and not res.depth_exhausted


@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
def test_bands_with_fallback_cells(max_depth):
    # the cells around the cone point fall back at every depth; each band's
    # estimate still covers its error, and each prefix estimate the error of
    # the disk the bands 0..b make up, for the columns 1 and x_0^2, whose band
    # integrals are pi (l_(b+1)^2 - l_b^2) and pi (l_(b+1)^4 - l_b^4) / 4
    D = wk.MinkowskiNorm.euclidean(3).dual()
    levels = np.array([0.0, 0.1, 0.3, 0.6])
    res = integrate_clipped(sf.hyperplane(extent=1.5),
                            lambda fb: np.column_stack([np.ones(len(fb.x)), fb.x[:, 0] ** 2]),
                            ClippedRegionRule(D, 0.0, 0.6, max_depth, splits=levels[1:-1]),
                            ParamQuadrature(order=4, base_grid=3))
    assert res.fallback_cells > 0
    disk = np.pi * np.column_stack([levels[1:] ** 2, levels[1:] ** 4 / 4])
    assert res.value.shape == res.error_estimate.shape == res.prefix_estimate.shape == (3, 2)
    assert np.all(np.abs(res.value - np.diff(disk, axis=0, prepend=0.0)) <= res.error_estimate)
    assert np.all(np.abs(np.cumsum(res.value, axis=0) - disk) <= res.prefix_estimate)


def test_leaf_sums_do_not_depend_on_the_chunk(monkeypatch):
    # f runs on whole leaves, so a pass with inside, cut and fallback cells
    # gives the same bits with one leaf per frames call as with ~2048 nodes
    from wulffkit import quadrature as qd
    D = wk.MinkowskiNorm.euclidean(3).dual()

    def run():
        res = integrate_clipped(sf.hyperplane(extent=1.5),
                                lambda fb: np.column_stack([np.ones(len(fb.x)), fb.x[:, 0] ** 2]),
                                ClippedRegionRule(D, 0.0, 0.6, 3, splits=(0.1, 0.3)),
                                ParamQuadrature(order=4, base_grid=3))
        return res, np.concatenate([res.value, res.error_estimate, res.prefix_estimate])

    res, whole = run()
    assert res.inside_cells and res.leaf_cells > res.fallback_cells > 0
    for chunk in (1, 100):
        monkeypatch.setattr(qd, "_CHUNK", chunk)
        assert np.array_equal(run()[1], whole)


def test_region_no_cell_meets():
    # no leaf: zero integrals and estimates in f's shape, as floats
    D = wk.MinkowskiNorm.euclidean(3).dual()
    far = sf.hyperplane(origin=(0.0, 0.0, 5.0), extent=1.0)
    for f, shape in ((one, ()), (lambda fb: np.ones((len(fb.x), 2)), (2,))):
        for splits, bands in (((), ()), ((0.5,), (2,))):
            res = integrate_clipped(far, f, ClippedRegionRule(D, 0.0, 1.0, 3, splits=splits))
            for x in (res.value, res.error_estimate, res.prefix_estimate):
                assert np.shape(x) == bands + shape and np.all(np.asarray(x) == 0.0)
                assert np.asarray(x).dtype == float
            assert res.leaf_cells == res.inside_cells == 0


@pytest.mark.parametrize("case", ["catenoid", "transformed-catenoid", "ring"])
def test_banded_call_equals_single_band_calls(case):
    # one pass over K bands gives each band's integrals (two columns here) as
    # the K single-band calls do, to round-off
    E = wk.MinkowskiNorm.euclidean(3)
    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 1.0, 4.0]))
    patch, gauge, levels = {
        "catenoid": (sf.catenoid(v_max=1.3), E.dual(), (1.2, 1.4, 1.7, 2.0)),
        "transformed-catenoid": (sf.transformed_catenoid(np.diag([1.0, 1.0, 4.0]), v_max=1.2),
                                 F.dual(), (1.15, 1.3, 1.6, 2.0)),
        "ring": (sf.hyperplane(extent=2.0), F.dual(), (0.25, 0.5, 0.8, 1.1, 1.4)),
    }[case]

    def f(fb):
        return np.column_stack([np.ones(len(fb.x)), 1.0 + fb.x[:, 2] ** 2 + fb.x[:, 0] ** 2])

    q = ParamQuadrature(order=6, base_grid=12)
    bands = integrate_clipped(patch, f, ClippedRegionRule(gauge, levels[0], levels[-1], 8,
                                                          splits=levels[1:-1]), q)
    assert bands.value.shape == (len(levels) - 1, 2)
    for b in range(len(levels) - 1):
        single = integrate_clipped(patch, f, ClippedRegionRule(gauge, levels[b], levels[b + 1], 8),
                                   q)
        assert np.all(np.abs(bands.value[b] - single.value) <= 1e-13 * np.abs(single.value))

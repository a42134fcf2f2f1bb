import numpy as np
import pytest

import wulffkit as wk
from wulffkit import surfaces as sf
from wulffkit.errors import DegenerateChart, NotTransversal

A_MIX = np.diag([1.0, 1.0, 4.0])
F_MIX = wk.MinkowskiNorm.quadratic(A_MIX)


# ---------------------------------------------------------------- frames


def test_sphere_frame_second_form():
    fr = sf.sphere().frame_at([1.1, 0.7])
    assert np.allclose(fr.sec_form[0], -np.eye(2), atol=1e-9)
    assert fr.mean_curvature[0] == pytest.approx(-2.0, abs=1e-9)


def test_frame_orthonormality():
    for patch, p in ((sf.sphere(), [0.9, 2.0]), (sf.catenoid(), [2.5, -0.7]),
                     (sf.ellipsoid((1.0, 1.3, 1.7)), [1.4, 0.3]),
                     (sf.circle(), [1.234]), (sf.line(), [0.8])):
        fr = patch.frame_at(p)
        B = np.vstack([fr.e[0], fr.nu])
        assert np.max(np.abs(B @ B.T - np.eye(patch.dim))) < 1e-12


def test_catenoid_is_minimal():
    C = sf.catenoid()
    H = C.frames(C.sample_grid(9)).mean_curvature
    assert np.max(np.abs(H)) < 1e-8


def test_hyperplane_flat():
    fr = sf.hyperplane().frame_at([0.3, -0.4])
    assert np.max(np.abs(fr.sec_form)) < 1e-14


def test_circle_curvature_and_normal():
    fr = sf.circle(radius=2.0).frame_at([0.7])
    # outward normal, shape operator -D nu has curvature -1/R
    assert np.allclose(fr.nu, fr.x / 2.0, atol=1e-14)
    assert fr.sec_form[0, 0, 0] == pytest.approx(-0.5, abs=1e-10)


def test_enneper_minimal_and_through_origin():
    En = sf.enneper(scale=0.8)
    H = En.frames(En.sample_grid(9)).mean_curvature
    assert np.max(np.abs(H)) < 1e-10
    assert np.linalg.norm(En.chart(np.zeros((1, 2)))[0]) < 1e-15


def test_graph_surface_frames_match_fd_chart():
    # analytic polynomial derivatives vs the generic FD fallback
    coeffs = [[0.0, 0.0, 0.3], [0.0, -0.2, 0.0], [0.5, 0.0, 0.0]]
    G = sf.graph_surface(coeffs, extent=1.0)
    G_fd = sf.ParametricPatch(2, G.chart, G.domain, name="fd-graph")
    p = np.array([[0.37, -0.41]])
    assert np.max(np.abs(G.dchart(p) - G_fd.dchart(p))) < 1e-9
    assert np.max(np.abs(G.d2chart(p) - G_fd.d2chart(p))) < 1e-6


def test_degenerate_chart_raises():
    bad = sf.ParametricPatch(
        2, lambda P: np.column_stack([P[:, 0], P[:, 0], np.zeros(len(P))]),
        [(0, 1), (0, 1)], name="collapsed")
    with pytest.raises(DegenerateChart):
        bad.frame_at([0.5, 0.5])


def test_transformed_catenoid_is_linear_image():
    T = sf.transformed_catenoid(A_MIX)
    C = sf.catenoid()
    P = np.array([[0.4, 0.9], [2.0, -0.5]])
    L = sf.sqrtm_spd(A_MIX)
    assert np.allclose(T.chart(P), C.chart(P) @ L.T, atol=1e-14)


# ---------------------------------------------------------------- frame kernels
# _build_frames, linear_image and hyperplane write their kernels out per
# component; the generic NumPy formulas they replace are the references

KERNEL_RTOL = 1e-14


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _rotation(rng, d=3):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    return Q if np.linalg.det(Q) > 0 else Q[:, ::-1]


def _spd(rng, d=3):
    B = rng.standard_normal((d, d))
    return B @ B.T + 0.5 * np.eye(d)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("orientation", [1.0, -1.0])
def test_build_frames_matches_generic_formulas(seed, orientation):
    rng = np.random.default_rng(seed)
    for n in (1, 2):
        d = n + 1
        patch = sf.ParametricPatch(n, lambda P: np.zeros((len(P), d)), [(0, 1)] * n,
                                   orientation=orientation)
        T = rng.standard_normal((4000, n, d))
        P, X = rng.random((4000, n)), rng.standard_normal((4000, d))
        fb = sf._build_frames(patch, P, X, T)
        g = np.einsum("mia,mja->mij", T, T)
        if n == 1:
            c = np.column_stack([T[:, 0, 1], -T[:, 0, 0]])
            det_g = g[:, 0, 0]
        else:
            c = np.cross(T[:, 0], T[:, 1])
            det_g = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        nu = orientation * c / np.linalg.norm(c, axis=1, keepdims=True)
        assert _rel_err(fb.metric, g) <= KERNEL_RTOL
        assert _rel_err(fb.nu, nu) <= KERNEL_RTOL
        assert _rel_err(fb.sqrt_g, np.sqrt(det_g)) <= KERNEL_RTOL


def test_build_frames_degenerate_row_raises():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((50, 2, 3))
    T[17, 1] = 2.5 * T[17, 0]                  # one collapsed row in the batch
    with pytest.raises(DegenerateChart):
        sf._build_frames(sf.sphere(), rng.random((50, 2)), np.zeros((50, 3)), T)
    line = sf.ParametricPatch(1, lambda P: np.zeros((len(P), 2)), [(0, 1)], name="point")
    with pytest.raises(DegenerateChart):
        line.frame_at([0.5])


@pytest.mark.parametrize("seed", range(3))
def test_linear_image_matches_stacked_matmul(seed):
    rng = np.random.default_rng(seed)
    base = sf.ellipsoid((1.0, 1.3, 1.7))
    P = base.domain[:, 0] + rng.random((3000, 2)) * np.ptp(base.domain, axis=1)
    for L in (_rotation(rng), _spd(rng)):
        img = sf.linear_image(base, L)
        assert _rel_err(img.chart(P), base.chart(P) @ L.T) <= KERNEL_RTOL
        assert _rel_err(img.dchart(P), base.dchart(P) @ L.T) <= KERNEL_RTOL
        assert _rel_err(img.d2chart(P), base.d2chart(P) @ L.T) <= KERNEL_RTOL


@pytest.mark.parametrize("seed", range(3))
def test_hyperplane_chart_matches_sum_of_basis_rows(seed):
    rng = np.random.default_rng(seed)
    plane = sf.hyperplane(normal=rng.standard_normal(3), origin=rng.standard_normal(3))
    P = rng.uniform(-2.0, 2.0, (3000, 2))
    a, b = plane.dchart(P[:1])[0]
    ref = plane.chart(np.zeros((1, 2)))[0] + P[:, 0:1] * a + P[:, 1:2] * b
    assert _rel_err(plane.chart(P), ref) <= KERNEL_RTOL
    assert np.array_equal(plane.dchart(P), np.broadcast_to([a, b], (3000, 2, 3)))


# ---------------------------------------------------------------- chart jets
# a built-in patch evaluates its chart through one jet function; chart,
# dchart and d2chart are views on it, and frames read x and the tangents
# from one first-order call, so every order must agree bit for bit

_R7 = _rotation(np.random.default_rng(7))
JET_PATCHES = {
    "sphere": lambda: sf.sphere(1.3, (0.1, -0.2, 0.3)),
    "ellipsoid": lambda: sf.ellipsoid((1.0, 1.3, 1.7)),
    "rotated-ellipsoid": lambda: sf.linear_image(sf.ellipsoid((1.0, 1.3, 1.7)), _R7),
    "catenoid": sf.catenoid,
    "transformed-catenoid": lambda: sf.transformed_catenoid(A_MIX + 0.2),
    "hyperplane": lambda: sf.hyperplane((0.3, -0.4, 1.0), (0.1, 0.2, 0.0)),
    "line": sf.line,
    "circle": lambda: sf.circle(1.2, (0.1, -0.3)),
    "graph-curve": lambda: sf.graph_curve([0.0, 0.2, 0.5, -0.3]),
    "graph-surface": lambda: sf.graph_surface([[0.0, 0.1, 0.3], [0.2, -0.4, 0.1]]),
    "enneper": sf.enneper,
}


def _jet_points(patch, m, seed=0):
    """m interior parameter points, in a random order."""
    grid = patch.sample_grid(400 if patch.n == 1 else 20)
    return grid[np.random.default_rng(seed).permutation(len(grid))[:m]]


@pytest.mark.parametrize("m", [1, 300])
@pytest.mark.parametrize("name", sorted(JET_PATCHES))
def test_jet_orders_agree_bit_for_bit(name, m):
    patch = JET_PATCHES[name]()
    n, d = patch.n, patch.dim
    P = _jet_points(patch, m)
    X, T, H = patch.jet(P, 2)
    assert (X.shape, T.shape, H.shape) == ((m, d), (m, n, d), (m, n, n, d))
    X1, T1 = patch.jet(P, 1)
    (X0,) = patch.jet(P, 0)
    fb = patch.frames(P)
    for got, want in ((X0, X), (X1, X), (T1, T), (patch.chart(P), X),
                      (patch.dchart(P), T), (patch.d2chart(P), H),
                      (fb.x, X), (fb.tangents, T), (fb.second, H)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(JET_PATCHES))
def test_jet_derivatives_match_differences_of_the_chart(name):
    patch = JET_PATCHES[name]()
    P = _jet_points(patch, 50)
    fd = sf.ParametricPatch(patch.n, patch.chart, patch.domain)
    X, T, H = patch.jet(P, 2)
    scale = 1.0 + np.max(np.abs(X))
    assert np.max(np.abs(T - fd.dchart(P))) <= 1e-8 * scale
    assert np.max(np.abs(H - fd.d2chart(P))) <= 1e-5 * scale


@pytest.mark.parametrize("m", [1, 300])
def test_a_chart_without_a_jet_is_differenced(m):
    # tangents by central differences at CHART_FD_STEP, second derivatives
    # by second differences at 1e-4 along the axes and the diagonal
    def chart(P):
        u, v = P[:, 0], P[:, 1]
        return np.column_stack([np.exp(2 * u) * v, np.sin(3 * v) + u * v, u**3])

    patch = sf.ParametricPatch(2, chart, [(0.0, 1.0), (0.0, 1.0)])
    P = np.random.default_rng(m).random((m, 2))
    X, T, H = patch.jet(P, 2)
    h, k, e = sf.CHART_FD_STEP, 1e-4, np.eye(2)
    T_ref = np.stack([(chart(P + h * e[a]) - chart(P - h * e[a])) / (2 * h)
                      for a in range(2)], axis=1)

    def second(c):
        return (chart(P + k * c) - 2 * X + chart(P - k * c)) / k**2

    Huu, Hvv = second(e[0]), second(e[1])
    Huv = second((e[0] + e[1]) / np.sqrt(2)) - 0.5 * (Huu + Hvv)
    H_ref = np.stack([np.stack([Huu, Huv], axis=1), np.stack([Huv, Hvv], axis=1)], axis=1)
    assert np.array_equal(X, chart(P))
    assert np.max(np.abs(T - T_ref)) <= 1e-12
    assert np.max(np.abs(H - H_ref)) <= 1e-10
    for got, want in ((patch.jet(P, 1), (X, T)), (patch.jet(P, 0), (X,))):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


# ------------------------------------------------- transversal decompositions


def test_sphere_normal_field_shape_operator():
    eq = sf.equiaffine_batch(sf.sphere(), sf.normal_field(), [[1.1, 0.7]])
    assert np.allclose(eq.shape_op[0], -np.eye(2), atol=1e-9)
    assert np.max(np.abs(eq.tau)) < 1e-10
    assert eq.affine_mean[0] == pytest.approx(-2.0, abs=1e-9)


def test_constant_field_has_zero_shape_operator():
    eq = sf.equiaffine_batch(sf.sphere(), sf.constant_field([0.2, 0.1, 1.4]),
                             [[1.1, 0.7]])
    assert np.max(np.abs(eq.shape_op)) < 1e-12
    assert np.max(np.abs(eq.tau)) < 1e-12


def test_anisotropic_normal_is_equiaffine():
    for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        eb = sf.equiaffine_batch(patch, sf.anisotropic_normal_field(F_MIX),
                                 patch.sample_grid(5))
        assert np.max(np.abs(eb.tau)) < 1e-6


def test_transversality_guard():
    # constant field tangent to the sphere at the equator point
    with pytest.raises(NotTransversal):
        sf.equiaffine_batch(sf.sphere(), sf.constant_field([0.0, 0.0, 1.0]),
                            [[np.pi / 2, 0.0]])
    # the Codazzi check refuses the fields the decomposition refuses: on a
    # plane through the origin, the position field and a constant field
    # along the plane (no NaN, no perfect residual); on curves, where the
    # equation is vacuous, the position field on a line through the origin
    # and a constant field tangent to the unit circle
    cases = [(sf.hyperplane(), sf.position_field(), [[0.1, 0.2]]),
             (sf.hyperplane(), sf.constant_field([1.0, 0.0, 0.0]), [[0.1, 0.2]]),
             (sf.line(offset=0.0), sf.position_field(), [[0.3]]),
             (sf.circle(), sf.constant_field([0.0, 1.0]), [[0.0]])]
    for patch, xi, P in cases:
        for check in (sf.equiaffine_batch, sf.codazzi_residual):
            with pytest.raises(NotTransversal):
                check(patch, xi, P)
    # a transversal field on a curve keeps its zero residual
    assert sf.codazzi_residual(sf.circle(), sf.normal_field(), [[0.0]]).tolist() == [0.0]


def test_fundamental_form_support_relation():
    patch = sf.ellipsoid((1.0, 1.3, 1.7))
    eq = sf.equiaffine_batch(patch, sf.anisotropic_normal_field(F_MIX), [[1.2, 0.6]])
    assert np.max(np.abs(eq.fundamental[0] * eq.support[0] - eq.frames.sec_form[0])) < 1e-8


def test_weingarten_reconstruction():
    # D_{e_a} xi + S(e_a) - tau_a xi vanishes (finite-difference derivative)
    patch = sf.ellipsoid((1.0, 1.3, 1.7))
    xi = sf.anisotropic_normal_field(F_MIX)
    p = np.array([1.2, 0.6])
    eq = sf.equiaffine_batch(patch, xi, p[None, :])
    h = 1e-5
    for a in range(2):
        ca = eq.frames.param_dirs[0][:, a]
        W = (xi(patch, (p + h * ca)[None, :])[0]
             - xi(patch, (p - h * ca)[None, :])[0]) / (2 * h)
        S_ea = eq.frames.e[0].T @ eq.shape_op[0][:, a]
        recon = W + S_ea - eq.tau[0][a] * eq.xi[0]
        assert np.max(np.abs(recon)) < 1e-6


def test_anisotropic_normal_support_euler():
    patch = sf.catenoid()
    fr = patch.frame_at([0.9, 0.4])
    nuF = sf.anisotropic_normal_field(F_MIX).at(fr)[0]
    assert float(np.dot(nuF, fr.nu[0])) == pytest.approx(F_MIX.value(fr.nu[0]), abs=1e-10)
    E = wk.MinkowskiNorm.euclidean(3)
    assert np.allclose(sf.anisotropic_normal_field(E).at(fr), fr.nu, atol=1e-14)


def test_anisotropic_normal_component_example():
    # quadratic diag(1,1,4) maps the vertical normal to (0,0,2)
    plane = sf.hyperplane(normal=(0, 0, 1))
    fr = plane.frame_at([0.0, 0.0])
    assert np.allclose(sf.anisotropic_normal_field(F_MIX).at(fr), [0.0, 0.0, 2.0],
                       atol=1e-13)


# ------------------------------------------------------ mean curvatures


def test_anisotropic_mean_curvature_hyperplane_zero():
    plane = sf.hyperplane()
    val = sf.anisotropic_mean_curvature_batch(F_MIX, plane, [[0.3, 0.1]])[0]
    assert abs(val) < 1e-14


def test_anisotropic_mean_curvature_catenoid_euclidean():
    E = wk.MinkowskiNorm.euclidean(3)
    C = sf.catenoid()
    vals = sf.anisotropic_mean_curvature_batch(E, C, C.sample_grid(9))
    assert np.max(np.abs(vals)) < 1e-7


def test_transformed_catenoid_is_anisotropically_minimal():
    T = sf.transformed_catenoid(A_MIX)
    vals = sf.anisotropic_mean_curvature_batch(F_MIX, T, T.sample_grid(9))
    assert np.max(np.abs(vals)) < 1e-6


def test_mean_curvature_chain_rule_vs_divergence():
    patch = sf.ellipsoid((1.0, 1.3, 1.7))
    p = [1.2, 0.6]
    a = sf.anisotropic_mean_curvature_batch(F_MIX, patch, [p])[0]
    b = sf.anisotropic_mean_curvature_fd(F_MIX, patch, p)
    assert a == pytest.approx(b, abs=1e-7)


# ------------------------------------------------------ surface calculus


def test_surface_divergence_constant_field():
    C = sf.catenoid()
    div = sf.surface_divergence(
        C, lambda fb: np.tile([1.0, 2.0, 3.0], (fb.x.shape[0], 1)), [1.0, 0.4])
    assert abs(div) < 1e-8


def test_surface_divergence_position_field():
    for patch, p in ((sf.sphere(), [1.0, 0.4]), (sf.catenoid(), [2.0, 0.5]),
                     (sf.circle(), [0.9])):
        div = sf.surface_divergence(patch, lambda fb: fb.x, p)
        assert div == pytest.approx(patch.n, abs=1e-6)


def test_surface_divergence_normal_on_sphere():
    div = sf.surface_divergence(sf.sphere(), lambda fb: fb.nu, [1.0, 0.4])
    assert div == pytest.approx(2.0, abs=1e-6)


def test_affine_tangential_parts():
    xi = np.array([0.3, -0.2, 1.5])
    nu = np.array([0.0, 0.0, 1.0])
    # V = xi collapses
    assert np.allclose(sf.affine_tangential(xi, xi, nu), 0.0, atol=1e-15)
    # tangent V is scaled by the support
    V = np.array([1.0, 2.0, 0.0])
    assert np.allclose(sf.affine_tangential(V, xi, nu), 1.5 * V, atol=1e-15)
    # xi = nu reduces to the Euclidean tangential projection
    W = np.array([0.5, -1.0, 2.0])
    assert np.allclose(sf.affine_tangential(W, nu, nu),
                       W - np.dot(W, nu) * nu, atol=1e-15)
    result = sf.affine_tangential(W, xi, nu)
    assert abs(np.dot(result, nu)) < 1e-12


# ---------------------------------------------- pointwise identity checks


XIS = [("normal", lambda: sf.normal_field()),
       ("anisotropic", lambda: sf.anisotropic_normal_field(F_MIX)),
       ("constant", lambda: sf.constant_field([0.3, -0.7, 0.55]))]


def _transversal_points(patch, xi_field, k=3, min_support=0.25):
    P = patch.sample_grid(k)
    fb = patch.frames(P)
    xi = xi_field(patch, P)
    supp = np.einsum("md,md->m", xi, fb.nu)
    pts = P[np.abs(supp) >= min_support]
    assert len(pts) > 0
    return pts


@pytest.mark.parametrize("xi_name,xi_maker", XIS)
def test_tangential_derivative_identity(xi_name, xi_maker):
    for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        xi = xi_maker()
        eb = sf.equiaffine_batch(patch, xi, _transversal_points(patch, xi)[:3])
        frame, div = sf.tangential_derivative_residuals(sf.position_field(), eb)
        assert np.all(frame < 1e-5)
        assert np.all(div < 1e-5)


def test_tangential_derivative_constant_field_on_plane():
    plane = sf.hyperplane()
    xi = sf.constant_field([0.1, -0.2, 1.0])
    eb = sf.equiaffine_batch(plane, xi, [[0.3, -0.2]])
    frame, _ = sf.tangential_derivative_residuals(sf.position_field(), eb)
    assert frame[0] < 1e-8


@pytest.mark.parametrize("xi_name,xi_maker", XIS)
def test_divergence_of_constant_and_position(xi_name, xi_maker):
    for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        xi = xi_maker()
        eb = sf.equiaffine_batch(patch, xi, _transversal_points(patch, xi)[:3])
        rb, rx = sf.divergence_residuals_constant_position(eb)
        assert np.all(rb < 1e-5)
        assert np.all(rx < 1e-5)


def test_divergence_identities_sphere_arithmetic():
    # unit sphere with xi = nu: div x^{T_nu} = 0 = n * 1 + 1 * (-n)
    S = sf.sphere()
    xi = sf.normal_field()
    _, rx = sf.divergence_residuals_constant_position(
        sf.equiaffine_batch(S, xi, [[1.1, 0.7]]))
    assert rx[0] < 1e-8


@pytest.mark.parametrize("xi_name,xi_maker", XIS)
def test_product_rule(xi_name, xi_maker):
    c = np.array([0.2, 0.5, -0.4])

    def f_linear(fb):
        return fb.x @ c

    for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        xi = xi_maker()
        eb = sf.equiaffine_batch(patch, xi, _transversal_points(patch, xi)[:3])
        res = sf.product_rule_residual(f_linear, sf.position_field(), eb)
        assert np.all(res < 1e-5)


def test_product_rule_with_gauge_weight():
    D = F_MIX.dual()

    def f_gauge(fb):
        return np.asarray(D.value(fb.x))

    xi = sf.anisotropic_normal_field(F_MIX)
    eb = sf.equiaffine_batch(sf.ellipsoid((1.0, 1.3, 1.7)), xi, [[1.2, 0.6]])
    res = sf.product_rule_residual(f_gauge, sf.position_field(), eb)
    assert res[0] < 1e-5


def test_shape_products_selfadjointness():
    for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        xi = sf.anisotropic_normal_field(F_MIX)
        eq = sf.equiaffine_batch(patch, xi, _transversal_points(patch, xi)[:3])
        s1, s2 = sf.shape_products_asymmetry(eq)
        assert np.max(s1) < 1e-6
        assert np.max(s2) < 1e-5


def test_codazzi_residual_small_for_equiaffine():
    for patch in (sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
        for xi in (sf.normal_field(), sf.anisotropic_normal_field(F_MIX)):
            assert sf.codazzi_residual(patch, xi, [0.8, 1.3]) < 1e-4


def test_codazzi_detects_non_equiaffine_field():
    wobble = sf.TransversalField(
        lambda fb: fb.nu * (1.0 + 0.3 * np.sin(fb.x[:, 0]))[:, None], "wobble")
    assert sf.codazzi_residual(sf.ellipsoid((1.0, 1.3, 1.7)), wobble,
                               [0.8, 1.3]) > 1e-2

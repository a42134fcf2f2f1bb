"""Property tests: a single direction, or a single pair, is a batch of one.

Every gauge, dual and condition-S diagnostic evaluates one batch path; the
single-input forms lift it.  These properties pin the lift down over random
matrices, quartic parameters and directions: a single row gives, bit for
bit, the same row of the batch (the numeric dual too, whose ascent retires
rows in lockstep), a closed dual is the quadratic gauge of the
inverse matrix, and pair_report reports a pair as the condition-S scan does.
The finite-difference fallbacks of a custom gauge, which difference whole
batches, are checked against the closed form over random matrices and
directions of any length.  Every symfunc function gives for a stack of
matrices, bit for bit, what it gives for each matrix, and the recursion's
sigma_k agrees with the principal-minor oracle.  The corollary's polar
section measure meets the closed form of a quadratic gauge on random lines
and planes, and a clipped section of the quartic.

One exception is measured, not hidden: in d = 4 the product U @ A of a
quadratic gauge accumulates differently for a batch and for a single row
(the BLAS kernels differ), so there the rows agree to QUADRATIC_D4_REL of
their largest entry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wulffkit as wk
from wulffkit import condition_s as cs
from wulffkit import surfaces as sf
from wulffkit import symfunc as sym
from wulffkit import verify as vf
from wulffkit.quadrature import ClippedRegionRule, ParamQuadrature, integrate_clipped

SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)
NUMERIC_SETTINGS = settings(derandomize=True, database=None, max_examples=6,
                            deadline=None)
SYMFUNC_SETTINGS = settings(derandomize=True, database=None, max_examples=50,
                            deadline=None)
BAND_SETTINGS = settings(SETTINGS, max_examples=20)
NUMERIC_AGREE = 1e-12
QUADRATIC_D4_REL = 1e-14
# |sigma_k - minors| <= SIGMA_REL C(n, k) max(1, |A|_F)^k; over 3 000 random
# matrices (n = 1..6, entries scaled by 10^[-3, 3]) the worst error was 6e-16
# of that scale
SIGMA_REL = 1e-12

entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def spd_and_rows(draw, dims=(2, 3, 4), rows=5):
    """An SPD matrix B B^T + I/2 and a batch of rows away from the origin."""
    d = draw(st.sampled_from(dims))
    B = draw(arrays(float, (d, d), elements=entries))
    U = draw(arrays(float, (rows, d), elements=entries))
    U[np.linalg.norm(U, axis=1) < 1e-3, 0] = 1.0
    return B @ B.T + 0.5 * np.eye(d), U


def _quadratic_callbacks(A):
    # callbacks on batches U (m, d); einsum gives each row the bits it gets alone
    def value(U):
        return np.sqrt(np.einsum("mi,mi->m", np.einsum("mi,ij->mj", U, A), U))

    def gradient(U):
        return np.einsum("mi,ij->mj", U, A) / value(U)[:, None]

    def hessian(U):
        AU = np.einsum("mi,ij->mj", U, A)
        F = value(U)[:, None, None]
        return A / F - AU[:, :, None] * AU[:, None, :] / F**3

    return value, gradient, hessian


def _gauges(A, eps):
    d = A.shape[0]
    value, gradient, hessian = _quadratic_callbacks(A)
    return [wk.MinkowskiNorm.euclidean(d), wk.MinkowskiNorm.quadratic(A),
            wk.MinkowskiNorm.quartic(d, eps=eps),
            wk.MinkowskiNorm.custom(d, value),
            wk.MinkowskiNorm.custom(d, value, gradient=gradient),
            wk.MinkowskiNorm.custom(d, value, gradient=gradient, hessian=hessian)]


def _assert_rows_equal(batch, single_of_row, U, tol=0.0, rel=0.0):
    for i, u in enumerate(U):
        single = single_of_row(u)
        if tol or rel:
            np.testing.assert_allclose(single, batch[i], rtol=0.0,
                                       atol=tol + rel * np.max(np.abs(batch[i])))
        else:
            np.testing.assert_array_equal(single, batch[i])


def _rel(F, d):
    """How far a single row may stray from its batch row, relative to the
    row's largest entry (0: bit for bit)."""
    return QUADRATIC_D4_REL if d == 4 and F.matrix is not None else 0.0


@SETTINGS
@given(spd_and_rows(), st.floats(0.01, 1.0))
def test_single_row_is_a_batch_row_for_every_family(case, eps):
    A, U = case
    for F in _gauges(A, eps):
        for method in (F.value, F.grad, F.hess):
            _assert_rows_equal(method(U), method, U, rel=_rel(F, A.shape[0]))
        assert isinstance(F.value(U[0]), float)


@SETTINGS
@given(spd_and_rows())
def test_closed_dual_single_row_is_a_batch_row(case):
    A, U = case
    for D in (wk.MinkowskiNorm.euclidean(A.shape[0]).dual(),
              wk.MinkowskiNorm.quadratic(A).dual()):
        assert D.mode == "closed"
        rel = _rel(D.base, A.shape[0])
        _assert_rows_equal(D.value(U), D.value, U, rel=rel)
        _assert_rows_equal(D.grad(U), D.grad, U, rel=rel)
        q, W = D.eval_with_maximizer(U)
        _assert_rows_equal(q, lambda u: D.eval_with_maximizer(u)[0], U, rel=rel)
        _assert_rows_equal(W, lambda u: D.eval_with_maximizer(u)[1], U, rel=rel)


@NUMERIC_SETTINGS
@given(spd_and_rows(dims=(2, 3), rows=3), st.floats(0.02, 0.5))
def test_numeric_dual_single_row_is_a_batch_row(case, eps):
    # on the default grid a planar row returns at its start, before the
    # lockstep loop; on 16 directions rows iterate, and retire in lockstep
    A, U = case
    d = A.shape[0]
    for options in (None, wk.NumericDualOptions(grid_size=16)):
        for D in (wk.MinkowskiNorm.quadratic(A).dual(mode="numeric", options=options),
                  wk.MinkowskiNorm.quartic(d, eps=eps).dual(options=options)):
            assert D.mode == "numeric"
            q, W = D.eval_with_maximizer(U)
            _assert_rows_equal(q, D.value, U)
            _assert_rows_equal(W, D.grad, U)
            _assert_rows_equal(q, lambda u: D.eval_with_maximizer(u)[0], U)
            _assert_rows_equal(W, lambda u: D.eval_with_maximizer(u)[1], U)


@SETTINGS
@given(spd_and_rows(dims=(2,), rows=8))
def test_planar_numeric_dual_is_the_closed_dual(case):
    A, U = case
    q, W = wk.MinkowskiNorm.quadratic(A).dual(mode="numeric").eval_with_maximizer(U)
    q_ref, W_ref = wk.MinkowskiNorm.quadratic(A).dual().eval_with_maximizer(U)
    assert np.max(np.abs(q - q_ref) / q_ref) <= 1e-12
    assert np.max(np.abs(W - W_ref)) <= 1e-10 * np.max(np.abs(W_ref))


@SETTINGS
@given(arrays(float, (8, 2), elements=entries), st.floats(0.01, 1.0))
def test_planar_table_start_is_the_gauss_map_root(V, eps):
    # each start lies at the direction u where grad F(u) points along v: six
    # Newton steps per row on the angle of u, on <J grad F(u), v> = 0
    V[np.linalg.norm(V, axis=1) < 1e-3, 0] = 1.0
    Q = wk.MinkowskiNorm.quartic(2, eps=eps)
    U0 = Q.dual()._start(V)[0]
    for u0, v in zip(U0, V):
        theta = math.atan2(u0[1], u0[0])
        for _ in range(6):
            u, t = np.array([math.cos(theta), math.sin(theta)]), np.array([-math.sin(theta),
                                                                            math.cos(theta)])
            g, gt = Q.grad(u), Q.hess(u) @ t
            theta -= (g[0] * v[1] - g[1] * v[0]) / (gt[0] * v[1] - gt[1] * v[0])
        assert np.dot(Q.grad(u), v) > 0.0
        assert abs(math.remainder(theta - math.atan2(u0[1], u0[0]), 2.0 * math.pi)) <= 1e-10


@SETTINGS
@given(spd_and_rows())
def test_closed_dual_is_the_quadratic_gauge_of_the_inverse(case):
    A, U = case
    D = wk.MinkowskiNorm.quadratic(A).dual()
    G = wk.MinkowskiNorm.quadratic(np.linalg.inv(A))
    np.testing.assert_array_equal(D.value(U), G.value(U))
    np.testing.assert_array_equal(D.grad(U), G.grad(U))
    np.testing.assert_array_equal(D.value(U[0]), G.value(U[0]))


# finite-difference fallbacks of a custom gauge against the closed form of
# sqrt(<A u, u>).  Their errors scale with the gauge: grad F with sqrt(|A|)
# and D^2 F with |A| / F(u), |A| the largest eigenvalue.  In those units the
# bounds hold for any SPD A: the gradient from values, the Hessian from
# values and the Hessian from a gradient callback.
FD_GRAD, FD_HESS_VALUE, FD_HESS_GRAD = 1e-10, 1e-6, 1e-10


@SETTINGS
@given(spd_and_rows(rows=8), arrays(float, 8, elements=st.floats(0.1, 10.0)))
def test_custom_fd_fallbacks_match_the_closed_form(case, scale):
    A, U = case
    U = U / np.linalg.norm(U, axis=1, keepdims=True) * scale[:, None]
    d = A.shape[0]
    value, gradient, _ = _quadratic_callbacks(A)
    Q = wk.MinkowskiNorm.quadratic(A)
    top = np.linalg.eigvalsh(A)[-1]
    hess_unit = top / Q.value(U)[:, None, None]

    from_values = wk.MinkowskiNorm.custom(d, value)
    assert np.max(np.abs(from_values.grad(U) - Q.grad(U))) <= FD_GRAD * np.sqrt(top)
    assert np.all(np.abs(from_values.hess(U) - Q.hess(U)) <= FD_HESS_VALUE * hess_unit)
    from_gradient = wk.MinkowskiNorm.custom(d, value, gradient)
    assert np.all(np.abs(from_gradient.hess(U) - Q.hess(U)) <= FD_HESS_GRAD * hess_unit)


def _quartic_jet_reference(U, eps):
    """F, grad F and D^2 F of (sum u_i^4 + eps |u|^4)^(1/4) through the
    Hessian of G = F^4: D^2 F = D^2 G / (4 G^(3/4)) - 3 dG dG^T / (16 G^(7/4))."""
    d = U.shape[1]
    r2 = np.sum(U * U, axis=1)
    G = np.sum(U ** 4, axis=1) + eps * r2 ** 2
    P = U ** 3 + eps * r2[:, None] * U
    eye = np.eye(d)[None, :, :]
    hessG = (12.0 * U[:, :, None] ** 2 * eye + 8.0 * eps * U[:, :, None] * U[:, None, :]
             + 4.0 * eps * r2[:, None, None] * eye)
    dG = 4.0 * P
    H = (0.25 * (G ** -0.75)[:, None, None] * hessG
         - 0.1875 * (G ** -1.75)[:, None, None] * dG[:, :, None] * dG[:, None, :])
    return G ** 0.25, P / (G ** 0.75)[:, None], H


# D^2 F is the difference of two terms that cancel along u, and for small eps
# across u^perp too, so round-off is measured against the terms' largest
# entries, (3 max u_i^2 + 3 eps |u|^2) / F^3 and 3 |grad F|^2 / F.  On 36 000
# random rows (d = 2..4, eps in [0.01, 100]) the two forms of D^2 F differ by
# at most 4.1e-16 of that.  Against the largest entry of D^2 F itself they
# differ by up to 1.3e-13 where eps is near 0.01, and each form is up to
# 1.5e-13 from a long-double evaluation there.
QUARTIC_HESS_REL = 1e-14


@SETTINGS
@given(st.integers(2, 4).flatmap(
    lambda d: arrays(float, (6, d), elements=st.floats(-2.0, 2.0))),
       st.floats(0.01, 100.0))
def test_quartic_jet_matches_the_hessian_of_g(U, eps):
    # D^2 F = (diag(3 u^2 + eps |u|^2) + 2 eps u u^T) / F^3 - 3 grad F grad F^T / F
    # against the Hessian of G: F and grad F bit for bit, D^2 F to round-off,
    # and u in its kernel
    U[np.linalg.norm(U, axis=1) < 1e-3, 0] = 1.0
    F, gF, H = wk.MinkowskiNorm.quartic(U.shape[1], eps=eps)._jet(U)
    F_ref, gF_ref, H_ref = _quartic_jet_reference(U, eps)
    np.testing.assert_array_equal(F, F_ref)
    np.testing.assert_array_equal(gF, gF_ref)
    r2 = np.sum(U * U, axis=1)
    scale = ((np.max(3.0 * U * U, axis=1) + 3.0 * eps * r2) / F ** 3
             + 3.0 * np.sum(gF * gF, axis=1) / F)
    assert np.all(np.max(np.abs(H - H_ref), axis=(1, 2)) <= QUARTIC_HESS_REL * scale)
    kernel = np.max(np.abs(H @ U[:, :, None]), axis=(1, 2))
    assert np.all(kernel <= QUARTIC_HESS_REL * scale * np.sqrt(r2))


def _pair_fields(rep):
    return np.array([rep.lhs, rep.rhs_sign_ref, rep.fk_residual, rep.margin])


@NUMERIC_SETTINGS
@given(spd_and_rows(dims=(2, 3), rows=1), st.floats(0.02, 0.5),
       st.integers(0, 2**16), st.integers(4, 24))
def test_pair_report_is_the_scan_of_one_pair(case, eps, seed, count):
    A, _ = case
    d = A.shape[0]
    for F, tol in ((wk.MinkowskiNorm.quadratic(A), 0.0),
                   (wk.MinkowskiNorm.quartic(d, eps=eps), NUMERIC_AGREE)):
        dual = F.dual()
        verdict = cs.check_condition_s(F, count, seed=seed, dual=dual, worst_k=count)
        assert len(verdict.worst_pairs) == count
        for rep in verdict.worst_pairs:
            single = cs.pair_report(F, rep.u, rep.v, dual=dual)
            np.testing.assert_array_equal(single.u, rep.u)
            np.testing.assert_array_equal(single.v, rep.v)
            np.testing.assert_allclose(_pair_fields(single), _pair_fields(rep),
                                       rtol=0.0, atol=tol)


@st.composite
def matrix_stacks(draw):
    """1 to 5 matrices (n, n), n = 1..6, each with entries scaled by 10^[-3, 3]."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    A = draw(arrays(float, (m, n, n), elements=entries))
    return A * 10.0 ** draw(arrays(float, (m, 1, 1), elements=st.floats(-3.0, 3.0)))


def _same_as_per_matrix(fn, A, k) -> bool:
    whole, parts = fn(A, k), [fn(a, k) for a in A]
    if isinstance(whole, tuple):
        return all(np.array_equal(w, [p[i] for p in parts]) for i, w in enumerate(whole))
    return np.array_equal(whole, parts)


@SYMFUNC_SETTINGS
@given(matrix_stacks())
def test_symfunc_stack_is_its_matrices_and_matches_the_minors(A):
    n = A.shape[-1]
    fns = [sym.newton_tensors, sym.sigma_k, sym.newton_tensor, sym.normalized_k_curvature,
           sym.sigma_k_minors_oracle, sym.sigma_k_eigen_oracle]
    scale = np.maximum(1.0, np.linalg.norm(A, axis=(1, 2)))
    for k in range(n + 1):
        checked = fns + ([sym.newton_entries_oracle] if n <= 4 and k <= 3 else [])
        checked += [sym.trace_identity_residuals, sym.gradient_relation_residual] if k else []
        for fn in checked:
            assert _same_as_per_matrix(fn, A, k), fn.__name__
        err = np.abs(sym.sigma_k(A, k) - sym.sigma_k_minors_oracle(A, k))
        assert np.all(err <= SIGMA_REL * math.comb(n, k) * scale ** k)


@st.composite
def banded_sections(draw):
    """A quadratic gauge A whose r = 1 section of z = 0 has its larger
    half-width in [0.3, 1], levels s < ... < 1 of 1 to 5 bands, with s = 0 or
    s in [0.05, 0.3], and a centre offset in [-0.6, 0.6]^2, so that the
    gauge rises along some grid lines and falls along others."""
    A, _ = draw(spd_and_rows(dims=(3,), rows=1))
    widest = np.linalg.inv(np.linalg.inv(A)[:2, :2]).diagonal().max()
    A = A * draw(st.floats(0.3, 1.0)) ** 2 / widest
    s = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.3)))
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), max_size=4, unique=True)))
    levels = np.array([s, *(s + (1.0 - s) * np.array(inner)), 1.0])
    centre = draw(arrays(float, 2, elements=st.floats(-0.6, 0.6)))
    return A, levels, centre


@BAND_SETTINGS
@given(banded_sections(), st.integers(3, 7), st.integers(4, 16))
def test_bands_of_a_random_section_meet_their_areas(case, order, grid):
    # band b of the section {p B p < 1}, B = (A^-1)[:2, :2], is the ring of
    # area pi (l_(b+1)^2 - l_b^2) / sqrt(det B)
    A, levels, centre = case
    res = integrate_clipped(sf.hyperplane(origin=(*centre, 0.0), extent=2.0),
                            lambda fb: np.ones(len(fb.x)),
                            ClippedRegionRule(wk.MinkowskiNorm.quadratic(A).dual(), levels[0],
                                              levels[-1], 8, splits=levels[1:-1]),
                            ParamQuadrature(order=order, base_grid=grid))
    exact = np.pi * np.diff(levels ** 2) / math.sqrt(np.linalg.det(np.linalg.inv(A)[:2, :2]))
    assert np.all(np.abs(res.value - exact) <= res.error_estimate)
    assert np.all(np.abs(np.cumsum(res.value) - np.cumsum(exact)) <= res.prefix_estimate)


def _section_rows(u) -> np.ndarray:
    """The orthonormal rows of the line along u (d = 2) or the plane normal to
    it (d = 3), from the frame of the public hyperplane at its origin."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    return sf.hyperplane(normal=u).frames(np.zeros((1, 2))).e[0] if len(u) == 3 else u[None]


@SETTINGS
@given(spd_and_rows(dims=(2, 3), rows=1))
def test_polar_section_of_a_quadratic_gauge_meets_its_closed_form(case):
    # the section {F° < 1} of span e, with F°(v) = sqrt(<A^-1 v, v>), is the
    # ellipse of area pi / sqrt(det(e A^-1 e^T)), or the chord of length
    # 2 / sqrt(<A^-1 t, t>)
    A, U = case
    e = _section_rows(U[0])
    measure, estimate = vf._section_measure(wk.MinkowskiNorm.quadratic(A).dual(), e)
    ball = math.pi if len(e) == 2 else 2.0
    exact = ball / math.sqrt(np.linalg.det(e @ np.linalg.inv(A) @ e.T))
    assert abs(measure - exact) <= 1e-13 * exact
    assert estimate <= 1e-13 * exact


@pytest.mark.parametrize("eps", [0.05, 1.0])
def test_polar_section_of_the_quartic_agrees_with_a_clipped_section(eps):
    # the oracle: one clipped pass of 1 over the tangent plane inside the
    # unit dual ball, an independent route to the measure (a fixed normal: a
    # clipped pass with a numeric dual in d = 3 takes 0.1-0.3 s)
    nu = np.random.default_rng(35).standard_normal(3)
    nu /= np.linalg.norm(nu)
    dual = wk.MinkowskiNorm.quartic(3, eps=eps).dual()
    e = _section_rows(nu)
    measure, estimate = vf._section_measure(dual, e)
    ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    extent = 1.05 * float(np.max(1.0 / dual.value(np.outer(np.cos(ang), e[0])
                                                  + np.outer(np.sin(ang), e[1]))))
    plane = sf.hyperplane(normal=nu, extent=extent)
    assert plane.boundary_gauge_radius(dual) > 1.0
    clipped = integrate_clipped(plane, lambda fb: np.ones(len(fb.x)),
                                ClippedRegionRule(dual, 0.0, 1.0, 8),
                                ParamQuadrature(order=8, base_grid=4))
    assert abs(measure - clipped.value) <= estimate + clipped.error_estimate

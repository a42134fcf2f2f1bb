import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wulffkit as wk
from wulffkit import norms
from wulffkit.errors import NonConvergence, ZeroDirection

A_DIAG = np.diag([1.0, 4.0])
A_FULL = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])


def _quadratic_value(U):
    """sqrt(<A_FULL u, u>) for each row of a batch U (m, 3): a custom gauge's callback."""
    return np.sqrt(np.einsum("mi,ij,mj->m", U, A_FULL, U))


def fd_gradient(f, u, h=1e-6):
    out = np.empty(len(u))
    for i in range(len(u)):
        e = np.zeros(len(u))
        e[i] = h
        out[i] = (f(u + e) - f(u - e)) / (2 * h)
    return out


def fd_jacobian(g, u, h=1e-6):
    cols = []
    for i in range(len(u)):
        e = np.zeros(len(u))
        e[i] = h
        cols.append((g(u + e) - g(u - e)) / (2 * h))
    return np.array(cols)


def test_euclidean_value_trivial_345():
    F = wk.MinkowskiNorm.euclidean(2)
    assert F.value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)


def test_quadratic_values_diag():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    assert F.value([0.0, 1.0]) == pytest.approx(2.0, abs=1e-15)
    assert F.value([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_zero_direction_rejected():
    F = wk.MinkowskiNorm.euclidean(3)
    with pytest.raises(ZeroDirection):
        F.value([0.0, 0.0, 0.0])
    with pytest.raises(ZeroDirection):
        F.grad(np.zeros(3))


@pytest.mark.parametrize("gauge", [
    wk.MinkowskiNorm.quartic(2, eps=0.05),
    wk.MinkowskiNorm.quartic(2, eps=0.05).dual(),
    wk.MinkowskiNorm.euclidean(2).dual(),
], ids=["quartic", "numeric-dual", "closed-dual"])
def test_one_direction_is_checked_as_a_batch_row(gauge):
    # a single row is checked by one dot product, a batch row by the batch
    # check: both reject a zero row and a row of norm 1e-13, neither a NaN row
    methods = [gauge.value, gauge.grad, gauge.eval_with_maximizer]
    if isinstance(gauge, wk.MinkowskiNorm):
        methods.append(gauge.hess)
    for method in methods:
        for bad in ([0.0, 0.0], [1e-13, 0.0], [[1.0, 0.2], [0.0, 0.0]],
                    [[1.0, 0.2], [0.0, 1e-13]]):
            with pytest.raises(ZeroDirection, match="below floor 1e-12"):
                method(np.array(bad))
    # a NaN row passes the check and evaluates to NaN, alone or in a batch
    assert np.isnan(gauge.value([np.nan, 1.0]))
    batch = gauge.value(np.array([[np.nan, 1.0], [1.0, 0.2]]))
    assert np.isnan(batch[0]) and np.isfinite(batch[1])


def _every_kind_of_gauge(d):
    """The four families, a closed and a numeric dual, and a dual as a gauge, in R^d."""
    A = np.diag(np.arange(1.0, d + 1.0))
    Q = wk.MinkowskiNorm.quartic(d, eps=0.05)
    return {"euclidean": wk.MinkowskiNorm.euclidean(d), "quadratic": wk.MinkowskiNorm.quadratic(A),
            "quartic": Q, "custom": wk.MinkowskiNorm.custom(d, Q.value, Q.grad, Q.hess),
            "closed-dual": wk.MinkowskiNorm.quadratic(A).dual(),
            "numeric-dual": Q.dual(options=wk.NumericDualOptions(grid_size=64)),
            "as_norm": Q.dual(options=wk.NumericDualOptions(grid_size=64)).as_norm()}


@pytest.mark.parametrize("d", [2, 3])
def test_a_direction_of_the_wrong_shape_is_rejected(d):
    # quartic(2).value([1, 2, 3]) gave 3.222, euclidean(2).grad([1, 2, 3]) a
    # 3-vector, and a numeric dual a broadcasting or einsum error
    bad = [np.ones(d + 1), np.ones(d - 1), np.ones((4, d + 1)), np.ones((4, d - 1)),
           np.float64(1.0), np.ones((2, 3, d)), np.empty((0, d + 1))]
    for label, gauge in _every_kind_of_gauge(d).items():
        methods = [gauge.value, gauge.grad, gauge.eval_with_maximizer]
        if isinstance(gauge, wk.MinkowskiNorm):
            methods += [gauge.hess, gauge.euler_residual, gauge.radial_kernel_residual,
                        gauge.restricted_hessian_min_eig, gauge.wulff_point]
        for method in methods:
            for u in bad:
                shape = str(np.shape(u)).replace("(", r"\(").replace(")", r"\)")
                with pytest.raises(ValueError, match=rf"dim {d} .*shape {shape}"):
                    method(u)
            # the right shapes still evaluate, as one direction and as a batch
            method(np.arange(1.0, d + 1.0))
            method(np.arange(1.0, 2.0 * d + 1.0).reshape(2, d))


def test_gradient_trivial_cases():
    E = wk.MinkowskiNorm.euclidean(2)
    assert np.allclose(E.grad([0.0, 2.0]), [0.0, 1.0], atol=1e-15)
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    assert np.allclose(F.grad([0.0, 1.0]), [0.0, 2.0], atol=1e-15)


def test_euler_identity_closed_forms():
    rng = np.random.default_rng(0)
    for F in (wk.MinkowskiNorm.euclidean(3), wk.MinkowskiNorm.quadratic(A_FULL),
              wk.MinkowskiNorm.quartic(2, eps=0.05)):
        U = rng.standard_normal((200, F.dim))
        assert max(F.euler_residual(u) for u in U) < 1e-9


def test_euler_identity_fd_fallback():
    F = wk.MinkowskiNorm.custom(3, value=_quadratic_value)
    rng = np.random.default_rng(1)
    res = max(F.euler_residual(u) for u in rng.standard_normal((50, 3)))
    assert res < 1e-5


@pytest.mark.parametrize("with_gradient", [False, True], ids=["values", "gradient"])
def test_custom_hessian_makes_one_callback_call_per_stencil(with_gradient):
    # the value, then one stencil each for the gradient and the Hessian (or
    # the gradient callback and one stencil): three calls whatever the rows
    calls = []

    def value(U):
        calls.append(len(U))
        return _quadratic_value(U)

    def gradient(U):
        calls.append(len(U))
        AU = U @ A_FULL
        return AU / np.sqrt(np.einsum("mi,mi->m", AU, U))[:, None]

    F = wk.MinkowskiNorm.custom(3, value, gradient if with_gradient else None)
    U = np.random.default_rng(4).standard_normal((100, 3))
    np.testing.assert_allclose(F.hess(U), wk.MinkowskiNorm.quadratic(A_FULL).hess(U),
                               rtol=0.0, atol=1e-5)
    assert len(calls) <= 3


def test_hessian_kills_radial_direction():
    rng = np.random.default_rng(2)
    for F in (wk.MinkowskiNorm.euclidean(3), wk.MinkowskiNorm.quadratic(A_FULL),
              wk.MinkowskiNorm.quartic(2, eps=0.05)):
        U = rng.standard_normal((100, F.dim))
        assert max(F.radial_kernel_residual(u) for u in U) < 1e-8


def test_identity_diagnostics_take_one_direction_or_a_batch():
    # a batch (m, d) gives (m,) values, each the float a single direction gives
    rng = np.random.default_rng(3)
    for F in (wk.MinkowskiNorm.euclidean(3), wk.MinkowskiNorm.quadratic(A_FULL),
              wk.MinkowskiNorm.quartic(2, eps=0.05),
              wk.MinkowskiNorm.custom(3, value=_quadratic_value)):
        U = rng.standard_normal((20, F.dim))
        for diag in (F.euler_residual, F.radial_kernel_residual,
                     F.restricted_hessian_min_eig):
            batch = diag(U)
            assert batch.shape == (20,)
            single = [diag(u) for u in U]
            assert all(isinstance(x, float) for x in single)
            if diag is F.restricted_hessian_min_eig:
                np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-14)
            else:
                assert np.array_equal(batch, single)
    with pytest.raises(ZeroDirection):
        wk.MinkowskiNorm.euclidean(2).euler_residual(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_euclidean_hessian_explicit():
    F = wk.MinkowskiNorm.euclidean(2)
    H = F.hess([1.0, 0.0])
    assert np.allclose(H, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_quadratic_hessian_matches_fd_of_grad():
    F = wk.MinkowskiNorm.quadratic(A_FULL)
    rng = np.random.default_rng(3)
    for u in rng.standard_normal((20, 3)):
        H = F.hess(u)
        Hfd = fd_jacobian(lambda w: np.asarray(F.grad(w)), u)
        assert np.max(np.abs(H - 0.5 * (Hfd + Hfd.T))) < 1e-5


def test_quartic_hessian_matches_fd_of_grad():
    F = wk.MinkowskiNorm.quartic(2, eps=0.05)
    rng = np.random.default_rng(4)
    for u in rng.standard_normal((20, 2)):
        Hfd = fd_jacobian(lambda w: np.asarray(F.grad(w)), u)
        assert np.max(np.abs(F.hess(u) - 0.5 * (Hfd + Hfd.T))) < 1e-5


def test_homogeneity():
    rng = np.random.default_rng(5)
    for F in (wk.MinkowskiNorm.euclidean(2), wk.MinkowskiNorm.quadratic(A_DIAG),
              wk.MinkowskiNorm.quartic(2, eps=0.05)):
        U = rng.standard_normal((100, 2))
        vals = np.asarray(F.value(U))
        for t in (0.5, 2.0, 10.0):
            scaled = np.asarray(F.value(t * U))
            assert np.max(np.abs(scaled - t * vals)) < 1e-10 * t * np.max(vals)


def test_grad_zero_homogeneous():
    F = wk.MinkowskiNorm.quadratic(A_FULL)
    u = np.array([0.3, -1.2, 0.8])
    assert np.allclose(F.grad(u), F.grad(3.7 * u), atol=1e-12)


def test_restricted_hessian_euclidean_is_one():
    F = wk.MinkowskiNorm.euclidean(3)
    rng = np.random.default_rng(6)
    for u in rng.standard_normal((20, 3)):
        u /= np.linalg.norm(u)
        assert F.restricted_hessian_min_eig(u) == pytest.approx(1.0, abs=1e-10)


def test_restricted_hessian_quadratic_regression():
    # regression value computed by direct eigenvalue evaluation:
    # D^2F at e1 is diag(0, 4), restricted to e1-perp it is [4]
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    val = F.restricted_hessian_min_eig([1.0, 0.0])
    assert val == pytest.approx(4.0, abs=1e-12)
    assert val > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_householder_frame_near_the_first_axis(d):
    # rows 1e-12 to 1e-6 from ±e0: uh_0 - sign(uh_0) cancels there, and the
    # columns built from it were orthogonal to uh only to about 1e-8; they
    # stay orthonormal to round-off
    rng = np.random.default_rng(d)
    tilt = rng.standard_normal((400, d - 1))
    tilt *= 10.0 ** rng.uniform(-12, -6, (400, 1)) / np.linalg.norm(tilt, axis=1, keepdims=True)
    U = np.column_stack([np.where(np.arange(400) % 2, 1.0, -1.0), tilt])
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    Q = norms._orthonormal_complement(U)
    assert np.abs(np.einsum("mdj,md->mj", Q, U)).max() <= 1e-15
    assert np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(d - 1)).max() <= 4e-15


def test_nonconvex_gauge_detected():
    # 1-homogeneous extension of a star-shaped, non-convex profile
    def star(U):
        r = np.linalg.norm(U, axis=1)
        ang = np.arctan2(U[:, 1], U[:, 0])
        return r / (1.0 + 0.4 * np.cos(4 * ang))

    F = wk.MinkowskiNorm.custom(2, value=star)
    angs = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    eigs = [F.restricted_hessian_min_eig([np.cos(a), np.sin(a)]) for a in angs]
    assert min(eigs) < 0  # fails ellipticity somewhere
    assert max(eigs) > 0  # but not everywhere
    # its gradient turns back on the concave arcs, so its numeric dual would
    # ascend to a local maximum there: building it raises instead
    for grid_size in (None, 64):
        with pytest.raises(ValueError, match="not convex"):
            F.dual(options=wk.NumericDualOptions(grid_size=grid_size))


def test_dual_closed_forms():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    D = F.dual()
    assert D.value([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
    E = wk.MinkowskiNorm.euclidean(3)
    v = np.array([1.0, -2.0, 2.0])
    assert E.dual().value(v) == pytest.approx(3.0, abs=1e-14)


def test_dual_numeric_matches_closed_form():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    D, Dn = F.dual(), F.dual(mode="numeric")
    rng = np.random.default_rng(7)
    V = rng.standard_normal((100, 2))
    ref = np.asarray(D.value(V))
    num = np.array([Dn.value(v) for v in V])
    assert np.max(np.abs(num - ref) / ref) < 1e-6


def test_dual_grad_closed_form():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    D = F.dual()
    assert np.allclose(D.grad([0.0, 1.0]), [0.0, 0.5], atol=1e-14)
    E = wk.MinkowskiNorm.euclidean(2)
    assert np.allclose(E.dual().grad([0.0, 3.0]), [0.0, 1.0], atol=1e-14)


def test_dual_grad_numeric_matches_fd():
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    D = Q.dual()
    rng = np.random.default_rng(8)
    for v in rng.standard_normal((10, 2)):
        g = np.asarray(D.grad(v))
        gfd = fd_gradient(lambda w: D.value(w), v)
        assert np.max(np.abs(g - gfd)) < 1e-4


def test_dual_maximizer_on_unit_gauge_level():
    F = wk.MinkowskiNorm.quartic(2, eps=0.05)
    D = F.dual()
    val, ustar = D.eval_with_maximizer([0.7, -0.3])
    assert F.value(ustar) == pytest.approx(1.0, abs=1e-10)
    assert float(np.dot(ustar, [0.7, -0.3])) == pytest.approx(val, abs=1e-12)


def test_dual_is_supremum_over_sampled_directions():
    # F°(v) >= <u,v>/F(u) for all u, with equality at the stored maximizer
    F = wk.MinkowskiNorm.quartic(2, eps=0.05)
    D = F.dual()
    rng = np.random.default_rng(9)
    v = np.array([0.4, 1.1])
    val, ustar = D.eval_with_maximizer(v)
    U = rng.standard_normal((500, 2))
    ratios = (U @ v) / np.asarray(F.value(U))
    assert np.all(ratios <= val + 1e-9)


def test_cauchy_schwarz_for_gauges():
    F = wk.MinkowskiNorm.quadratic(A_FULL)
    D = F.dual()
    rng = np.random.default_rng(10)
    U = rng.standard_normal((200, 3))
    V = rng.standard_normal((200, 3))
    lhs = np.einsum("mi,mi->m", U, V)
    rhs = np.asarray(F.value(U)) * np.asarray(D.value(V))
    assert np.all(lhs <= rhs + 1e-12)


def test_biduality_of_quadratic():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    opts = wk.NumericDualOptions(grid_size=256, grad_tol=1e-8)
    D1 = wk.DualNorm(F, mode="numeric", options=opts)
    D2 = wk.DualNorm(D1.as_norm(), mode="numeric", options=opts)
    rng = np.random.default_rng(11)
    for v in rng.standard_normal((6, 2)):
        ref = F.value(v)
        assert abs(D2.value(v) - ref) / ref < 1e-4


@pytest.mark.parametrize("d", [2, 3])
def test_dual_gauge_hessian_is_the_legendre_one(d):
    # the gauge of a numeric dual takes its Hessian from D^2 F(u*) by
    # Legendre duality; for sqrt(<A u, u>) that is the Hessian of sqrt(<A^-1 v, v>)
    rng = np.random.default_rng(20 + d)
    M = rng.standard_normal((d, d))
    A = M @ M.T + d * np.eye(d)
    G = wk.DualNorm(wk.MinkowskiNorm.quadratic(A), mode="numeric").as_norm()
    assert G.family == "dual"
    V = rng.standard_normal((30, d)) * rng.uniform(0.2, 3.0, (30, 1))
    H = G.hess(V)
    ref = wk.MinkowskiNorm.quadratic(np.linalg.inv(A)).hess(V)
    rel = np.max(np.abs(H - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(rel) <= 1e-10
    assert np.max(G.radial_kernel_residual(V)) <= 1e-10
    # one row alone is the batch's row
    assert np.array_equal(G.hess(V[3]), H[3])


@pytest.mark.parametrize("d", [2, 3])
def test_dual_gauge_hessian_matches_fd_of_its_grad(d):
    rng = np.random.default_rng(30 + d)
    M = rng.standard_normal((d, d))
    for base in (wk.MinkowskiNorm.quadratic(M @ M.T + d * np.eye(d)),
                 wk.MinkowskiNorm.quartic(d, eps=0.05)):
        G = base.dual(mode="numeric").as_norm()
        V = rng.standard_normal((8, d))
        H = G.hess(V)
        for v, Hv in zip(V, H):
            Hfd = fd_jacobian(lambda w: np.asarray(G.grad(w)), v, h=1e-4)
            assert np.max(np.abs(Hv - Hfd)) <= 1e-5 * np.max(np.abs(Hv))
        assert np.max(G.radial_kernel_residual(V)) <= 1e-10


def test_bidual_makes_two_inner_ascents_per_outer_iteration(monkeypatch):
    opts = wk.NumericDualOptions(grid_size=256)
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    inner = wk.DualNorm(F, mode="numeric", options=opts)
    bidual = wk.DualNorm(inner.as_norm(), mode="numeric", options=opts)
    counts = {"inner": 0, "outer": 0, "iterations": 0}
    ascend = wk.DualNorm._ascend

    def counted(self, V):
        out = ascend(self, V)
        if self is inner:
            counts["inner"] += 1
        else:
            counts["outer"] += 1
            counts["iterations"] += out.iterations
        return out
    monkeypatch.setattr(wk.DualNorm, "_ascend", counted)
    W = np.random.default_rng(15).standard_normal((8, 2))
    values = [bidual.value(w) for w in W]
    assert counts["outer"] == len(W)
    assert counts["inner"] <= 2 * counts["iterations"]
    assert np.max(np.abs(np.array(values) - F.value(W)) / F.value(W)) <= 1e-6


@pytest.mark.parametrize("outer_grid", [256, 5])
def test_bidual_makes_one_inner_ascent_per_outer_step(monkeypatch, outer_grid):
    # each outer step takes one jet of the dual gauge, at its Newton
    # candidate: one inner ascent, none if the Newton solve rejects the step.
    # An outer ascent's start takes one more, at the direction its table
    # gives; its last iteration only finds it converged and takes none.  A
    # row the Armijo fallback moves takes one more for its fresh jet, besides
    # the value ascents of its line search.  A 5-direction outer table starts
    # rows where the fallback takes over.
    opts = wk.NumericDualOptions(grid_size=256)
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    inner = wk.DualNorm(F, mode="numeric", options=opts)
    bidual = wk.DualNorm(inner.as_norm(), mode="numeric",
                         options=wk.NumericDualOptions(grid_size=outer_grid))
    counts = {"inner": 0, "line_search": 0, "outer": 0, "iterations": 0, "fallbacks": 0,
              "moved": 0, "rejected": 0, "starts": 0}
    ascend, armijo, newton = wk.DualNorm._ascend, wk.DualNorm._armijo, norms._spherical_newton
    start = wk.DualNorm._start
    in_line_search, ascending = [], []

    def counted(self, V):
        ascending.append(self)
        out = ascend(self, V)
        ascending.pop()
        if self is inner:
            counts["line_search" if in_line_search else "inner"] += 1
        else:
            counts["outer"] += 1
            counts["iterations"] += out.iterations
            counts["fallbacks"] += out.fallbacks
        return out

    def counted_armijo(self, U, V, q, step, gt, gn, rows):
        in_line_search.append(True)
        stalled = armijo(self, U, V, q, step, gt, gn, rows)
        in_line_search.pop()
        counts["moved"] += len(rows) - len(stalled)
        return stalled

    def counted_newton(*args):
        un, ok = newton(*args)
        counts["rejected"] += ascending[-1] is bidual and not ok.any()
        return un, ok

    def counted_start(self, V):
        counts["starts"] += (self is bidual) * len(V)
        return start(self, V)
    monkeypatch.setattr(wk.DualNorm, "_ascend", counted)
    monkeypatch.setattr(wk.DualNorm, "_armijo", counted_armijo)
    monkeypatch.setattr(norms, "_spherical_newton", counted_newton)
    monkeypatch.setattr(wk.DualNorm, "_start", counted_start)
    W = np.random.default_rng(15).standard_normal((8, 2))
    values = [bidual.value(w) for w in W]
    assert counts["outer"] == len(W)
    assert counts["inner"] == (counts["starts"] + counts["iterations"] - counts["outer"]
                               + counts["moved"] - counts["rejected"])
    assert counts["starts"] == len(W)
    assert (counts["rejected"] > 0) == (outer_grid == 5)
    assert (counts["fallbacks"] > 0) == (outer_grid == 5)
    assert (counts["line_search"] > 0) == (outer_grid == 5)
    assert np.max(np.abs(np.array(values) - F.value(W)) / F.value(W)) <= 1e-6


def test_custom_gauge_makes_one_set_of_callback_calls_per_ascent_step(monkeypatch):
    # value, gradient and Hessian are called together, once per step, at the
    # Newton candidate: the candidate takes no separate value call.  A start
    # takes them once, at the direction the table gives, which the dual built
    # from one jet of its grid
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    calls = {"value": 0, "gradient": 0, "hessian": 0}

    def counted(name, fn):
        def call(U):
            calls[name] += 1
            return fn(U)
        return call

    F = wk.MinkowskiNorm.custom(2, counted("value", Q.value), counted("gradient", Q.grad),
                                counted("hessian", Q.hess), label="counted")
    dual = wk.DualNorm(F, mode="numeric")
    assert calls == {"value": 1, "gradient": 1, "hessian": 1}     # the grid's jet
    calls.update(value=0, gradient=0, hessian=0)
    V = np.random.default_rng(16).standard_normal((12, 2))
    start, starts = wk.DualNorm._start, []

    def counted_start(self, V):
        starts.append(len(V))
        return start(self, V)
    monkeypatch.setattr(wk.DualNorm, "_start", counted_start)
    iterations = fallbacks = 0
    for v in V:
        ascent = dual._ascend(v[None, :])
        iterations += ascent.iterations
        fallbacks += ascent.fallbacks
    assert fallbacks == 0
    assert starts == [1] * len(V)
    # an ascent's last iteration only finds it converged
    sets = sum(starts) + iterations - len(V)
    assert calls == {"value": sets, "gradient": sets, "hessian": sets}


def _frame_newton(U, q, F, gF, HF, g, gu):
    """The Newton step in a Householder frame Q of u^perp: the (d-1) x (d-1)
    system Q^T (D^2 q - <g, u> I) Q delta = -Q^T g, step Q delta."""
    Q = norms._orthonormal_complement(U)
    Qt = np.swapaxes(Q, 1, 2)
    gg = g[:, :, None] * gF[:, None, :]
    Hq = -(gg + np.swapaxes(gg, 1, 2)) / F[:, None, None] - (q / F)[:, None, None] * HF
    Hs = Qt @ Hq @ Q - gu[:, None, None] * np.eye(U.shape[1] - 1)
    delta = np.linalg.solve(Hs, -(Qt @ g[:, :, None]))
    return (Q @ delta)[:, :, 0]


def _frame_legendre(dual, V):
    """D^2 F°(v) = S N S^T / F°(v) with N = Q (Q^T D^2 F(u*) Q)^-1 Q^T."""
    q, Us = dual._ascend(V)[:2]
    Q = norms._orthonormal_complement(Us / np.linalg.norm(Us, axis=1, keepdims=True))
    Qt = np.swapaxes(Q, 1, 2)
    N = Q @ np.linalg.solve(Qt @ dual.base._hess(Us) @ Q, Qt)
    S = np.eye(dual.dim) - Us[:, :, None] * (V / q[:, None])[:, None, :]
    return S @ N @ np.swapaxes(S, 1, 2) / q[:, None, None]


@st.composite
def gauge_and_rows(draw, rows=4):
    """A quartic or quadratic gauge in d = 2..4, rows V, and a tangent offset
    of each row's maximizer direction, between 0.02 and 0.2 long."""
    d = draw(st.sampled_from([2, 3, 4]))
    entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        base = wk.MinkowskiNorm.quartic(d, eps=draw(st.floats(0.05, 20.0)))
    else:
        B = draw(arrays(float, (d, d), elements=entries))
        base = wk.MinkowskiNorm.quadratic(B @ B.T + 0.5 * np.eye(d))
    V = draw(arrays(float, (rows, d), elements=entries))
    V[np.linalg.norm(V, axis=1) < 1e-2, 0] = 1.0
    T = draw(arrays(float, (rows, d), elements=entries))
    lengths = draw(arrays(float, rows, elements=st.floats(0.02, 0.2)))
    return base, V, T, lengths


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(gauge_and_rows())
def test_bordered_solves_match_the_tangent_frame(case):
    base, V, T, lengths = case
    dual = base.dual(mode="numeric")
    # the Legendre Hessian: the bordered inverse's block is the frame's N
    H, ref = dual._jet(V)[2], _frame_legendre(dual, V)
    assert np.all(np.max(np.abs(H - ref), axis=(1, 2))
                  <= 1e-12 * np.max(np.abs(ref), axis=(1, 2)))
    # the Newton step from a point near each maximizer, where the ascent takes it
    Uh = dual.grad(V)
    Uh /= np.linalg.norm(Uh, axis=1, keepdims=True)
    T -= np.einsum("md,md->m", T, Uh)[:, None] * Uh
    tn = np.linalg.norm(T, axis=1)
    T[tn < 1e-3] = norms._orthonormal_complement(Uh[tn < 1e-3])[:, :, 0]
    U = Uh + lengths[:, None] * T / np.linalg.norm(T, axis=1, keepdims=True)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    F, gF, HF = base._jet(U)
    q = np.einsum("md,md->m", U, V) / F
    g = V / F[:, None] - (q / F)[:, None] * gF
    gu = np.einsum("md,md->m", g, U)
    un, ok = norms._spherical_newton(U, q, F, gF, HF, g, gu)
    x = _frame_newton(U, q, F, gF, HF, g, gu)
    xn = np.linalg.norm(x, axis=1)
    assert ok.any() and np.all(ok == (xn <= 0.5))
    ref = (U + x) / np.linalg.norm(U + x, axis=1, keepdims=True)
    assert np.all(np.linalg.norm(un - ref, axis=1)[ok] <= 1e-12 * xn[ok])


def _custom_quartic(hessian=None):
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    return wk.MinkowskiNorm.custom(2, Q.value, Q.grad, hessian or Q.hess, label="custom")


@pytest.mark.parametrize("make", [
    lambda: wk.MinkowskiNorm.quartic(3, eps=0.05),
    lambda: wk.MinkowskiNorm.quadratic(A_FULL),
    lambda: wk.DualNorm(wk.MinkowskiNorm.quadratic(A_DIAG), mode="numeric",
                        options=wk.NumericDualOptions(grid_size=64)).as_norm(),
    _custom_quartic,
], ids=["quartic", "quadratic", "dual", "custom"])
def test_grid_scan_values_are_the_base_gauge_values(make):
    # in d >= 3 the scan scores against the grid divided by the F of the
    # constructor's grid jet: the same bits as the base gauge's value.  In
    # d = 2 the table's angles are those of the base gauge's gradient on the
    # grid, each increment taken mod 2 pi
    base = make()
    dual = wk.DualNorm(base, mode="numeric", options=wk.NumericDualOptions(grid_size=128))
    if base.dim == 2:
        theta = 2.0 * np.pi * np.arange(128) / 128
        g = base.grad(np.column_stack([np.cos(theta), np.sin(theta)]))
        turns = np.mod(dual._table[0] - np.arctan2(g[:, 1], g[:, 0]) + np.pi, 2.0 * np.pi) - np.pi
        assert np.abs(turns).max() <= 1e-13
        assert np.all(np.diff(dual._table[0]) > 0.0)
        return
    F = base.value(dual._grid)
    np.testing.assert_array_equal(dual._grid_jet[0], F)
    np.testing.assert_array_equal(dual._grid_scaled, dual._grid / F[:, None])


def test_grid_jet_of_a_capped_hessian_is_nan_on_the_cap():
    # a custom Hessian that raises on a cap of the circle: a jet of the grid
    # falls back to halves of the batch, and only the rows on the cap get a
    # NaN Hessian, in fewer calls than one per row
    Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
    calls = []

    def hessian(U):
        calls.append(len(U))
        if np.any(U[:, 0] > 0.8 * np.linalg.norm(U, axis=1)):
            raise NonConvergence("no Hessian on this cap")
        return Q.hess(U)

    grid = norms._hypersphere_grid(2, 1 << 12)
    F, gF, HF = norms._jet_rows(_custom_quartic(hessian), grid)
    cap = grid[:, 0] > 0.8 * np.linalg.norm(grid, axis=1)
    assert 0 < cap.sum() < len(grid)
    assert len(calls) < len(grid) / 2
    np.testing.assert_array_equal(np.isnan(HF).any(axis=(1, 2)), cap)
    assert np.isnan(HF[cap]).all()
    np.testing.assert_array_equal(HF[~cap], Q.hess(grid[~cap]))
    np.testing.assert_array_equal(F, Q.value(grid))
    np.testing.assert_array_equal(gF, Q.grad(grid))


def test_numeric_dual_of_an_empty_batch_is_empty():
    dual = wk.MinkowskiNorm.quartic(3).dual()
    V = np.empty((0, 3))
    assert dual.value(V).shape == (0,)
    assert dual.grad(V).shape == (0, 3)
    q, U = dual.eval_with_maximizer(V)
    assert q.shape == (0,) and U.shape == (0, 3)
    assert dual.as_norm().hess(V).shape == (0, 3, 3)


def test_wulff_points_on_unit_dual_level():
    E = wk.MinkowskiNorm.euclidean(3)
    wp = E.wulff_point([0.0, 0.0, 1.0])
    assert np.allclose(wp.point, [0.0, 0.0, 1.0], atol=1e-14)

    F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 1.0, 4.0]))
    wp = F.wulff_point([0.0, 0.0, 1.0])
    assert np.allclose(wp.point, [0.0, 0.0, 2.0], atol=1e-14)
    D = F.dual()
    # 64 sampled directions on the sphere land on {F° = 1}
    rng = np.random.default_rng(12)
    U = rng.standard_normal((64, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    pts = np.array([F.wulff_point(u).point for u in U])
    assert np.max(np.abs(np.asarray(D.value(pts)) - 1.0)) < 1e-6


def test_wulff_point_of_a_batch_is_one_point_per_row():
    # a batch was scaled by its Frobenius norm, not row by row
    F = wk.MinkowskiNorm.quartic(3, eps=0.05)
    U = np.random.default_rng(13).standard_normal((16, 3))
    wp = F.wulff_point(U)
    for u, direction, point in zip(U, wp.direction, wp.point):
        alone = F.wulff_point(u)
        np.testing.assert_allclose(direction, alone.direction, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(point, alone.point, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("options", [
    {"grid_size": 0}, {"grid_size": -4}, {"grid_size": 2}, {"grid_size": 2.5},
    {"grid_size": True}, {"grid_size": "256"}, {"grad_tol": 0.0}, {"grad_tol": -1e-10},
    {"grad_tol": float("nan")}, {"grad_tol": float("inf")}, {"grad_tol": True},
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True}],
    ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
def test_numeric_dual_options_reject_values_they_cannot_use(options):
    # grid size 0 meant the default, -4 gave an empty grid and a
    # ZeroDivisionError in the first ascent, 2.5 a 3-direction grid, True one
    with pytest.raises(ValueError, match=next(iter(options))):
        wk.NumericDualOptions(**options)


def test_dual_rejects_zero():
    D = wk.MinkowskiNorm.euclidean(2).dual(mode="numeric")
    with pytest.raises(ZeroDirection):
        D.value([0.0, 0.0])


def test_nonconvergence_budget_raises():
    F = wk.MinkowskiNorm.quadratic(A_DIAG)
    bad = wk.NumericDualOptions(grid_size=8, grad_tol=1e-10, max_iter=1)
    D = wk.DualNorm(F, mode="numeric", options=bad)
    with pytest.raises(NonConvergence):
        D.value([0.37, 0.91])


@pytest.mark.parametrize("eps", [0.0, -0.05, float("nan"), float("inf")])
def test_quartic_eps_must_be_positive_and_finite(eps):
    # NaN <= 0 is False: the range is checked as 0 < eps < inf
    with pytest.raises(ValueError, match="0 < eps < inf"):
        wk.MinkowskiNorm.quartic(2, eps=eps)


def test_invalid_quadratic_matrices_rejected():
    with pytest.raises(ValueError):
        wk.MinkowskiNorm.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        wk.MinkowskiNorm.quadratic(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("seed", range(3))
def test_quadratic_values_match_three_operand_einsum(seed):
    # F and the closed-form dual evaluate <A u, u> as (U @ A) . U; the
    # three-operand einsum they replace is the reference
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        B = rng.standard_normal((d, d))
        F = wk.MinkowskiNorm.quadratic(B @ B.T + 0.5 * np.eye(d))
        U = rng.standard_normal((3000, d))
        for got, M in ((F.value(U), F.matrix), (F.dual().value(U), F.matrix_inv)):
            ref = np.sqrt(np.einsum("mi,ij,mj->m", U, M, U))
            assert np.max(np.abs(got - ref) / ref) <= 1e-14


# symmetric to the factory's tolerance (condition 632), while its inverse is not
NEARLY_SYMMETRIC = np.array([[53.625, 26.962, -29.733], [26.962027, 14.19, -14.628],
                             [-29.733, -14.628, 16.934]])


def test_closed_dual_of_a_nearly_symmetric_matrix():
    # the closed dual evaluates sqrt(<S^-1 v, v>), S the symmetric part of A,
    # without checking S^-1 again
    A = NEARLY_SYMMETRIC
    with pytest.raises(ValueError, match="symmetric"):
        wk.MinkowskiNorm.quadratic(np.linalg.inv(A))
    D = wk.MinkowskiNorm.quadratic(A).dual()
    v = np.array([0.3, -1.0, 0.5])
    S = 0.5 * (A + A.T)
    assert D.value(v) == pytest.approx(np.sqrt(v @ np.linalg.inv(S) @ v), rel=1e-12)


def test_a_nearly_symmetric_gauge_is_the_gauge_of_its_symmetric_part():
    # F = sqrt(<A u, u>) depends on S alone: a gradient A u / F was 3.0e-6 off
    # a central difference of F, and both duals 1.6e-10 below sup <u, v>/F(u)
    F = wk.MinkowskiNorm.quadratic(NEARLY_SYMMETRIC)
    U = np.random.default_rng(0).standard_normal((200, 3))
    h = 1e-6
    fd = np.column_stack([(F.value(U + e) - F.value(U - e)) / (2 * h) for e in h * np.eye(3)])
    G = F.grad(U)
    assert np.max(np.abs(G - fd)) <= 1e-8 * np.max(np.abs(G))
    S = 0.5 * (NEARLY_SYMMETRIC + NEARLY_SYMMETRIC.T)
    v = np.array([0.3, -1.0, 0.5])
    for D in (F.dual(), F.dual(mode="numeric")):
        assert D.value(v) == pytest.approx(np.sqrt(v @ np.linalg.inv(S) @ v), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_a_dual_goes_wherever_a_gauge_goes(d):
    # a dual, closed or numeric, is a gauge: its Hessian, its diagnostics, the
    # curvature of a surface under it and its own dual need no adapter
    A = A_DIAG if d == 2 else A_FULL
    V = np.random.default_rng(d).standard_normal((16, d))
    W = norms._hypersphere_grid(d, 256)
    for D in (wk.MinkowskiNorm.quadratic(A).dual(), wk.MinkowskiNorm.quartic(d, 0.05).dual()):
        assert isinstance(D, wk.MinkowskiNorm) and D.as_norm() is D
        assert np.array_equal(D.hess(V), D._jet(V)[2])
        assert np.all(D.restricted_hessian_min_eig(V) > 0.0)
        bidual = D.dual(options=wk.NumericDualOptions(grid_size=256))
        assert np.max(np.abs(bidual.value(W) / D.base.value(W) - 1.0)) <= 1e-12
    if d == 3:
        sphere, P = wk.sphere(), wk.sphere().sample_grid(5)
        ref = wk.anisotropic_mean_curvature_batch(wk.MinkowskiNorm.quadratic(np.linalg.inv(A)),
                                                  sphere, P)
        got = wk.anisotropic_mean_curvature_batch(wk.MinkowskiNorm.quadratic(A).dual(), sphere, P)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

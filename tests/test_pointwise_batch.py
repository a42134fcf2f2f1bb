"""The batched pointwise identity checks against the per-point reference.

The reference below is the per-point formulation the batched checks
replaced: one frame and one scalar central difference per derivative
direction and point, by this module's own `central_diff`, since the library
keeps only batched stencils.  The batched checks use the same stencil points,
steps and formulas, so the two agree up to round-off amplified by the
1e-5 stencil (eps / h ~ 2e-11); 1e-10 absolute is set from that.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import wulffkit as wk
from wulffkit import surfaces as sf
from wulffkit import verify as vf
from wulffkit.errors import NotEquiaffine

AGREE = 1e-10
F3 = wk.MinkowskiNorm.quadratic(np.diag([1.0, 1.0, 4.0]))
F2 = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))

SURFACES = {
    "sphere": sf.sphere, "ellipsoid": lambda: sf.ellipsoid((1.0, 1.3, 1.7)),
    "catenoid": sf.catenoid, "enneper": sf.enneper,
    "circle": sf.circle, "graph-curve": lambda: sf.graph_curve([0.0, 0.2, 0.5, -0.3]),
}


def _field(name, dim):
    if name == "normal":
        return sf.normal_field()
    if name == "anisotropic":
        return sf.anisotropic_normal_field(F3 if dim == 3 else F2)
    return sf.constant_field([0.3, -0.7, 0.55][:dim])


# ------------------------------------------------------- per-point reference


def central_diff(f, t0, h, richardson=True):
    """Central difference d/dt f(t) at t0, optionally Richardson-extrapolated
    once: steps h and h/2 combined into an O(h^4) estimate."""
    def d(step):
        return (np.asarray(f(t0 + step)) - np.asarray(f(t0 - step))) / (2.0 * step)

    d1 = d(h)
    if not richardson:
        return d1
    return (4.0 * d(0.5 * h) - d1) / 3.0


def _frame(fb):
    """Row 0 of a one-point FrameBatch: the frame the reference works with."""
    return SimpleNamespace(p=fb.P[0], x=fb.x[0], e=fb.e[0], nu=fb.nu[0],
                           tangents=fb.tangents[0], param_dirs=fb.param_dirs[0],
                           metric_inv=fb.metric_inv[0], sec_form=fb.sec_form[0])


def _decomposition(patch, xi_field, p):
    """Row 0 of equiaffine_batch at the one point p (its step is sf.PARAM_STEP)."""
    eb = sf.equiaffine_batch(patch, xi_field, p[None, :])
    return SimpleNamespace(frame=_frame(eb.frames), xi=eb.xi[0], support=eb.support[0],
                           shape_op=eb.shape_op[0], affine_mean=eb.affine_mean[0])


def _dirderivs(patch, frame, fld, step, richardson=False):
    outs = []
    for a in range(patch.n):
        ca = frame.param_dirs[:, a]

        def g(t, ca=ca):
            return np.asarray(fld((frame.p + t * ca)[None, :]))[0]

        outs.append(central_diff(g, 0.0, step, richardson=richardson))
    return np.asarray(outs)


def _fd_div(patch, frame, fld, step):
    return float(np.einsum("ad,ad->", _dirderivs(patch, frame, fld, step), frame.e))


def _tangential_field(patch, xi_field, X_field):
    def Y(P):
        P = np.atleast_2d(P)
        return sf.affine_tangential(X_field(patch, P), xi_field(patch, P),
                                    patch.frames(P).nu)
    return Y


def _tangential_derivative(patch, xi_field, X_field, p, step):
    eq = _decomposition(patch, xi_field, p)
    fr, xi0, supp = eq.frame, eq.xi, eq.support
    dY = _dirderivs(patch, fr, _tangential_field(patch, xi_field, X_field), step)
    lhs = np.einsum("jd,id->ij", dY, fr.e)
    dX = _dirderivs(patch, fr, lambda P: X_field(patch, P), step)
    X0 = X_field(patch, fr.p[None, :])[0]
    X_nu = float(np.dot(X0, fr.nu))
    X_tan, xi_tan = fr.e @ X0, fr.e @ xi0
    sff_xi = fr.sec_form @ xi_tan
    grad_xnu = _dirderivs(
        patch, fr, lambda P: np.einsum("md,md->m", X_field(patch, P), patch.frames(P).nu),
        step)
    rhs = (supp * np.einsum("jd,id->ij", dX, fr.e) - np.outer(X_tan, sff_xi)
           - np.outer(xi_tan, grad_xnu) + X_nu * eq.shape_op)
    div_X = float(np.einsum("ad,ad->", dX, fr.e))
    sff_Xtop = np.einsum("ab,a,bd->d", fr.sec_form, X_tan, fr.e)
    div_rhs = (supp * div_X + X_nu * eq.affine_mean
               - float(np.dot(sff_Xtop + np.einsum("a,ad->d", grad_xnu, fr.e), xi0)))
    return float(np.max(np.abs(lhs - rhs))), abs(float(np.trace(lhs)) - div_rhs)


def _divergence_constant_position(patch, xi_field, p, b, step):
    eq = _decomposition(patch, xi_field, p)
    fr = eq.frame
    div_b = _fd_div(patch, fr, _tangential_field(patch, xi_field, sf.constant_field(b)), step)
    div_x = _fd_div(patch, fr, _tangential_field(patch, xi_field, sf.position_field()), step)
    return (abs(div_b - float(np.dot(b, fr.nu)) * eq.affine_mean),
            abs(div_x - patch.n * eq.support - float(np.dot(fr.x, fr.nu)) * eq.affine_mean))


def _product_rule(patch, xi_field, f_field, X_field, p, step):
    eq = _decomposition(patch, xi_field, p)
    fr = eq.frame
    Y = _tangential_field(patch, xi_field, X_field)
    div_fY = _fd_div(patch, fr, lambda P: np.asarray(f_field(patch, P))[:, None] * Y(P), step)
    f0 = float(np.asarray(f_field(patch, fr.p[None, :]))[0])
    grad_f = np.einsum("a,ad->d", _dirderivs(patch, fr, lambda P: f_field(patch, P), step),
                       fr.e)
    X0 = X_field(patch, fr.p[None, :])[0]
    rhs = (f0 * _fd_div(patch, fr, Y, step) + eq.support * float(np.dot(grad_f, X0))
           - float(np.dot(X0, fr.nu)) * float(np.dot(grad_f, eq.xi)))
    return abs(div_fY - rhs)


def _unit(n, k):
    e = np.zeros(n)
    e[k] = 1.0
    return e


def _shape_op_coord(patch, xi_field, P, step):
    fb = patch.frames(P)
    xi = xi_field(patch, P)
    support = np.einsum("md,md->m", xi, fb.nu)
    S = np.empty((P.shape[0], patch.n, patch.n))
    for j in range(patch.n):
        dP = np.zeros_like(P)
        dP[:, j] = step
        W = (xi_field(patch, P + dP) - xi_field(patch, P - dP)) / (2 * step)
        tau_j = np.einsum("md,md->m", W, fb.nu) / support
        rhs = np.einsum("md,mkd->mk", tau_j[:, None] * xi - W, fb.tangents)
        S[:, :, j] = np.einsum("mik,mk->mi", fb.metric_inv, rhs)
    return S


def _codazzi(patch, xi_field, p, inner_step, outer_step=1e-4):
    if patch.n == 1:
        return 0.0
    frame, n = _frame(patch.frame_at(p)), patch.n
    dg = np.array([central_diff(lambda t, k=k: patch.frames((p + t * _unit(n, k))[None, :])
                                .metric[0], 0.0, outer_step) for k in range(n)])
    Gamma = 0.5 * np.einsum("im,kml->ikl", frame.metric_inv,
                            dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2)))
    S0 = _shape_op_coord(patch, xi_field, p[None, :], inner_step)[0]
    dS = np.array([central_diff(
        lambda t, k=k: _shape_op_coord(patch, xi_field, (p + t * _unit(n, k))[None, :],
                                       inner_step)[0], 0.0, outer_step) for k in range(n)])

    def cov(k, j):
        return dS[k][:, j] + Gamma[:, k, :] @ S0[:, j] - S0 @ Gamma[:, k, j]

    res_amb = np.einsum("i,id->d", cov(0, 1) - cov(1, 0), frame.tangents)
    return float(np.linalg.norm(res_amb) * abs(np.linalg.det(frame.param_dirs)))


def reference_suite(patch, xi_field, grid, min_support=0.05, step=1e-5,
                    test_vector=(0.3, -0.7, 0.55), test_covector=(0.2, 0.5, -0.4)):
    """frame_identity_suite as a loop over the kept points."""
    P = patch.sample_grid(grid)
    supp = np.einsum("md,md->m", xi_field(patch, P), patch.frames(P).nu)
    kept = P[np.abs(supp) >= min_support]
    if kept.shape[0] == 0:
        raise NotEquiaffine("no grid point is safely transversal")
    b = np.asarray(test_vector, dtype=float)[: patch.dim]
    c = np.asarray(test_covector, dtype=float)[: patch.dim]
    out = {"grid_points": int(P.shape[0]), "kept_points": int(kept.shape[0]),
           "tangential_derivative": 0.0, "tangential_divergence": 0.0,
           "div_constant": 0.0, "div_position": 0.0, "product_rule": 0.0,
           "shape_sym_1": 0.0, "shape_sym_2": 0.0, "codazzi": 0.0}
    for p in kept:
        for X in (sf.position_field(), sf.constant_field(b)):
            fr, dv = _tangential_derivative(patch, xi_field, X, p, step)
            out["tangential_derivative"] = max(out["tangential_derivative"], fr)
            out["tangential_divergence"] = max(out["tangential_divergence"], dv)
        rb, rx = _divergence_constant_position(patch, xi_field, p, b, step)
        out["div_constant"] = max(out["div_constant"], rb)
        out["div_position"] = max(out["div_position"], rx)
        out["product_rule"] = max(out["product_rule"], _product_rule(
            patch, xi_field, lambda pt, Q: pt.chart(Q) @ c, sf.position_field(), p, step))
        eq = _decomposition(patch, xi_field, p)
        M1 = eq.frame.sec_form @ eq.shape_op
        M2 = M1 @ eq.shape_op
        out["shape_sym_1"] = max(out["shape_sym_1"], float(np.max(np.abs(M1 - M1.T))))
        out["shape_sym_2"] = max(out["shape_sym_2"], float(np.max(np.abs(M2 - M2.T))))
        out["codazzi"] = max(out["codazzi"], _codazzi(patch, xi_field, p, step))
    return out


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("field", ["normal", "anisotropic", "constant"])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_suite_matches_per_point_reference(surface, field):
    patch = SURFACES[surface]()
    xi = _field(field, patch.dim)
    grid = 5 if patch.n == 1 else 3
    got = vf.frame_identity_suite(patch, xi, grid=grid)
    ref = reference_suite(patch, xi, grid)
    assert got.keys() == ref.keys()
    assert got["kept_points"] == ref["kept_points"] > 0
    for key, val in ref.items():
        assert abs(got[key] - val) <= AGREE, (key, got[key], val)


@pytest.mark.parametrize("surface", ["ellipsoid", "catenoid", "circle"])
def test_batch_matches_single_points(surface):
    patch = SURFACES[surface]()
    xi = _field("anisotropic", patch.dim)
    gauge = (F3 if patch.dim == 3 else F2).dual()
    P = patch.sample_grid(3)[:4]
    checks = (lambda p: sf.codazzi_residual(patch, xi, p),
              lambda p: vf.pointwise_divergence_residual(patch, xi, gauge, p),
              lambda p: sf.surface_divergence(patch, lambda fb: fb.x, p))
    for check in checks:
        batch = check(P)
        assert batch.shape == (len(P),)
        single = [check(p) for p in P]
        assert all(isinstance(s, float) for s in single)
        assert np.max(np.abs(batch - single)) <= AGREE


# ------------------------------------------------------------ framing budget
# the Codazzi check frames every point it needs in one call (its base frames
# come from the caller), and the suite frames that batch together with its
# decomposition's stencil


def _count_frames(monkeypatch):
    """The list of batch sizes that ParametricPatch.frames receives from here on."""
    calls = []
    frames = sf.ParametricPatch.frames

    def counted(patch, P):
        calls.append(len(np.atleast_2d(P)))
        return frames(patch, P)

    monkeypatch.setattr(sf.ParametricPatch, "frames", counted)
    return calls


def _rotated(surface):
    R = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    R *= np.sign(np.linalg.det(R))
    patch = SURFACES[surface]()
    return patch if patch.n == 1 else sf.linear_image(patch, R)


@pytest.mark.parametrize("surface", ["ellipsoid", "catenoid", "circle"])
def test_one_point_codazzi_frames_at_most_twice(monkeypatch, surface):
    patch = _rotated(surface)
    xi = _field("anisotropic", patch.dim)
    p = patch.sample_grid(3)[4 if patch.n == 2 else 1]
    calls = _count_frames(monkeypatch)
    assert sf.codazzi_residual(patch, xi, p) < 1e-4
    assert len(calls) <= 2
    assert calls[0] == 1


@pytest.mark.parametrize("surface", ["ellipsoid", "catenoid", "circle"])
def test_pointwise_divergence_frames_twice(monkeypatch, surface):
    patch = _rotated(surface)
    xi = _field("anisotropic", patch.dim)
    gauge = (F3 if patch.dim == 3 else F2).dual()
    calls = _count_frames(monkeypatch)
    vf.pointwise_divergence_residual(patch, xi, gauge, patch.sample_grid(3)[1])
    assert len(calls) == 2


@pytest.mark.parametrize("field", ["normal", "anisotropic", "constant"])
@pytest.mark.parametrize("surface", ["ellipsoid", "catenoid", "circle"])
def test_frame_identity_suite_frames_at_most_three_times(monkeypatch, surface, field):
    patch = _rotated(surface)
    calls = _count_frames(monkeypatch)
    vf.frame_identity_suite(patch, _field(field, patch.dim), grid=3)
    assert len(calls) <= 3

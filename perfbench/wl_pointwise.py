"""pointwise: frame identities, the pointwise divergence identity and Codazzi.

Sphere, ellipsoid (1, 1.3, 1.7) and catenoid (v <= 1.2), each with the
normal, the anisotropic-normal (quadratic gauge diag(1, 1, 4)) and a
constant transversal field.  Surfaces, gauge and constant field are all
rotated by one seeded rotation R, so residuals change only at round-off
level from seed to seed.  The frame identity suite runs through the CLI's
lemmas check, which attaches its tolerance to every residual.  Every
identity checked here has exact value 0; the sphere's shape operator (-I,
mean curvature -n) and the catenoid's Euclidean mean curvature (0) are
checked as well.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from common import PassReport, attempt, rotation

A_ANISO = np.diag([1.0, 1.0, 4.0])
CONSTANT = np.array([0.3, -0.7, 0.55])
SUITE_GRID = 3
POINTS_PER_COMBO = 3
MIN_SUPPORT = 0.2      # keep divergence/Codazzi points well away from tangency
ZERO_TOL = 1e-4        # every exact-zero residual stays below this
SHAPE_TOL = 1e-6       # sphere shape operator and catenoid mean curvature
SURFACES = ("sphere", "ellipsoid", "catenoid")
# one-node Python calls do the work; rescaling each unit by the reference
# kernel cut the ten-run spread of wall_s from 0.11-0.12 to 0.06-0.08
NORMALIZE = True
FIELDS = ("normal", "anisotropic", "constant")


def build(seed: int) -> dict:
    import wulffkit as wk
    from wulffkit import surfaces as sf
    R = rotation(np.random.default_rng(seed), 3)
    aniso = wk.MinkowskiNorm.quadratic(R @ A_ANISO @ R.T)
    patches = {
        "sphere": sf.linear_image(sf.sphere(), R),
        "ellipsoid": sf.linear_image(sf.ellipsoid((1.0, 1.3, 1.7)), R),
        "catenoid": sf.linear_image(sf.catenoid(v_max=1.2), R),
    }
    fields = {"normal": sf.normal_field(),
              "anisotropic": sf.anisotropic_normal_field(aniso),
              "constant": sf.constant_field(R @ CONSTANT)}
    gauges = {"normal": wk.MinkowskiNorm.euclidean(3).dual(),
              "anisotropic": aniso.dual(),
              "constant": wk.MinkowskiNorm.euclidean(3).dual()}
    # evaluation points: the first grid points where every field is safely
    # transversal (the choice is rotation invariant)
    points = {}
    for name, patch in patches.items():
        grid = patch.sample_grid(6)
        fb = patch.frames(grid)
        ok = np.ones(grid.shape[0], dtype=bool)
        for field in fields.values():
            ok &= np.abs(np.einsum("md,md->m", field(patch, grid), fb.nu)) >= MIN_SUPPORT
        points[name] = grid[ok][:POINTS_PER_COMBO]
    # what cli._check_lemmas reads: the scenario's surfaces and gauges, and
    # each check's field ("aniso" names a gauge of the scenario)
    lemma_scn = SimpleNamespace(surfaces=patches, norms={"aniso": aniso})
    lemma_xi = {"normal": {"xi": "normal"}, "anisotropic": {"xi": "aniso"},
                "constant": {"xi": "constant", "constant": (R @ CONSTANT).tolist()}}
    return {"patches": patches, "fields": fields, "gauges": gauges,
            "points": points, "euclid": wk.MinkowskiNorm.euclidean(3),
            "lemma_scn": lemma_scn, "lemma_xi": lemma_xi}


def references(inp: dict) -> dict:
    return {}


def run_pass(inp: dict, timed) -> dict:
    """One pass; `timed` (a common.Stopwatch) times each surface-field pair,
    and the two shape checks together, as one unit."""
    from wulffkit import cli
    from wulffkit import surfaces as sf
    from wulffkit import verify as vf

    def pair(sname, fname):
        patch, xi = inp["patches"][sname], inp["fields"][fname]
        chk = {"surface": sname, "grid": SUITE_GRID, "min_support": 0.05,
               **inp["lemma_xi"][fname]}
        res = {("suite", sname, fname): attempt(lambda: cli._check_lemmas(
            inp["lemma_scn"], f"{sname}-{fname}", chk))}
        for i, p in enumerate(inp["points"][sname]):
            res[("divergence", sname, fname, i)] = attempt(
                lambda: vf.pointwise_divergence_residual(patch, xi, inp["gauges"][fname], p))
        p0 = inp["points"][sname][0]
        res[("codazzi", sname, fname)] = attempt(lambda: sf.codazzi_residual(patch, xi, p0))
        return res

    def shapes():
        sphere, cat = inp["patches"]["sphere"], inp["patches"]["catenoid"]
        return {("sphere-shape",): attempt(lambda: _sphere_shape(sf, sphere)),
                ("catenoid-mean",): attempt(lambda: _catenoid_mean(sf, cat, inp["euclid"]))}

    out = {}
    for sname in SURFACES:
        for fname in FIELDS:
            out.update(timed(lambda: pair(sname, fname)))
    out.update(timed(shapes))
    return out


def _sphere_shape(sf, sphere):
    P = sphere.sample_grid(9)
    eb = sf.equiaffine_batch(sphere, sf.normal_field(), P)
    return eb.shape_op, eb.frames.mean_curvature, eb.affine_mean


def _catenoid_mean(sf, cat, euclid):
    P = cat.sample_grid(9)
    return cat.frames(P).mean_curvature, sf.anisotropic_mean_curvature_batch(euclid, cat, P)


def check(inp: dict, refs: dict, out: dict) -> PassReport:
    rep = PassReport(ops=len(out))
    for key, val in out.items():
        label = "/".join(map(str, key))
        if isinstance(val, Exception):
            rep.failed += 1
            rep.problems.append(f"{label} raised {type(val).__name__}: {val}")
        elif key[0] == "suite":
            check_lemmas(rep, label, val)
        elif key[0] in ("divergence", "codazzi"):
            check_zero(rep, label, [val])
        elif key[0] == "sphere-shape":
            check_sphere(rep, *val)
        else:
            check_catenoid(rep, *val)
    return rep


def check_lemmas(rep: PassReport, label: str, outcome) -> None:
    """The suite passes by the program's own verdict, every residual is
    below the benchmark's floor, and each tolerance the program attaches
    covers its residual (the exact value is 0, so the residual is the true
    error).  The tolerances are the bars of tolerance_digits."""
    rep.expect(outcome.status == "pass", f"{label}: lemmas verdict {outcome.status}")
    check_zero(rep, label, [row["residual"] for row in outcome.rows])
    for row in outcome.rows:
        rep.expect(abs(row["residual"]) < row["tolerance"],
                   f"{label}/{row['check']}: residual {row['residual']:.3e} outside "
                   f"the program's tolerance {row['tolerance']:.3e}")
        rep.bars.append(row["tolerance"])


def check_zero(rep: PassReport, label: str, residuals) -> None:
    worst = max(abs(float(r)) for r in residuals)
    rep.expect(worst < ZERO_TOL, f"{label}: residual {worst:.3e} >= {ZERO_TOL:g}")
    rep.rel_errors.append(worst)


def check_sphere(rep: PassReport, shape_op, mean_curvature, affine_mean) -> None:
    """Unit sphere, outward normal: S = -I, H = -n in both conventions."""
    n = shape_op.shape[1]
    dev = max(float(np.max(np.abs(shape_op + np.eye(n)))),
              float(np.max(np.abs(np.asarray(mean_curvature) + n))),
              float(np.max(np.abs(np.asarray(affine_mean) + n))))
    rep.expect(dev < SHAPE_TOL, f"sphere: shape operator/mean curvature off by {dev:.3e}")
    rep.rel_errors.append(dev)


def check_catenoid(rep: PassReport, mean_curvature, aniso_mean) -> None:
    dev = max(float(np.max(np.abs(mean_curvature))), float(np.max(np.abs(aniso_mean))))
    rep.expect(dev < SHAPE_TOL, f"catenoid: Euclidean mean curvature {dev:.3e} != 0")
    rep.rel_errors.append(dev)

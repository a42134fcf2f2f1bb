"""Scenario-driven command line front end.

A scenario is a single JSON document declaring norms, surfaces, and a list
of checks; the runner executes every check, prints a one-line verdict per
check, writes one CSV per check family (header comment "# wulffkit-report
v1"), and emits a gnuplot script per monotonicity scan.  Exit codes:
0 all asserted checks passed, 1 at least one check failed or errored,
2 configuration error.

Determinism contract: same build + same config => byte-identical CSV
output.  All randomness is seeded from the config (overridable with
--seed), floats are serialized with shortest round-trip repr, and results
are emitted in declaration order regardless of worker completion order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import condition_s as cs
from . import surfaces as sf
from . import symfunc as sym
from . import verify as vf
from .errors import ConfigError, WulffkitError
from .norms import MinkowskiNorm
from .quadrature import ParamQuadrature

CSV_HEADER = "# wulffkit-report v1"

NORM_FAMILIES = {   # family: (parameters, builder)
    "euclidean": ("dim", lambda p: MinkowskiNorm.euclidean(int(p.get("dim", 3)))),
    "quadratic": ("matrix (row-major list or nested rows, symmetric positive definite)",
                  lambda p: MinkowskiNorm.quadratic(_square_matrix(p["matrix"]))),
    "quartic-regularized": ("dim, eps (smoothed quartic gauge)", lambda p: MinkowskiNorm.quartic(
        int(p.get("dim", 2)), eps=float(p.get("eps", 0.05)))),
}

SURFACE_KINDS = {   # kind: (parameters, builder)
    "hyperplane": ("normal, origin, extent", lambda p: sf.hyperplane(
        normal=p.get("normal", (0, 0, 1)), origin=p.get("origin", (0, 0, 0)),
        extent=float(p.get("extent", 2.0)))),
    "sphere": ("radius, center", lambda p: sf.sphere(
        radius=float(p.get("radius", 1.0)), center=p.get("center", (0, 0, 0)))),
    "ellipsoid": ("semiaxes", lambda p: sf.ellipsoid(p.get("semiaxes", (1.0, 1.3, 1.7)))),
    "catenoid": ("v_max", lambda p: sf.catenoid(v_max=float(p.get("v_max", 1.2)))),
    "transformed-catenoid": ("matrix (SPD; surface is sqrt(matrix) * catenoid), v_max",
                             lambda p: sf.transformed_catenoid(
                                 _square_matrix(p["matrix"]), v_max=float(p.get("v_max", 1.2)))),
    "line": ("offset, extent", lambda p: sf.line(
        offset=float(p.get("offset", 0.5)), extent=float(p.get("extent", 4.0)))),
    "circle": ("radius, center", lambda p: sf.circle(
        radius=float(p.get("radius", 1.0)), center=p.get("center", (0.0, 0.0)))),
    "graph": ("coeffs (poly coefficients; nested rows give a graph surface), extent",
              lambda p: _graph(np.asarray(p.get("coeffs", [0.0]), dtype=float),
                               extent=float(p.get("extent", 1.0)))),
    "enneper": ("scale, extent", lambda p: sf.enneper(
        scale=float(p.get("scale", 0.8)), extent=float(p.get("extent", 1.5)))),
}

DEFAULT_CONSTANT_XI = (0.3, -0.7, 0.55)


def _integer(value) -> int:
    """value as an int, where it is one: a float without a fraction counts,
    a bool, a string or a fraction does not (int() would truncate 2.5)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _int_list(value) -> list[int]:
    """A list of integers, or one integer as a list of one."""
    return [int(x) for x in (value if isinstance(value, list) else [value])]


# check kind: (the fields a check of that kind must name, its optional
# parameters as {key: (parse, default)}); it runs as the module function
# _check_<kind>, which reads its parameters through _options
CHECKS = {
    "norm-identities": (("norm",), {"samples": (int, 1000), "tolerance": (float, 1e-8)}),
    "condition-s": (("norm",), {"samples": (int, 10_000), "worst_k": (int, 10)}),
    "lemmas": (("surface",), {"tolerance": (float, 1e-4), "grid": (int, 9),
                              "min_support": (float, 0.05)}),
    "monotonicity": (("surface", "norm"), {"count": (int, 8),
                                           "assert_constant_rel": (float, None)}),
    "equiaffine": (("surface", "gauge", "s", "r"), {}),
    "corollary": (("surface", "norm"), {"rel_tol": (float, 1e-4)}),
    "minkowski": (("surface",), {"k": (_int_list, [0])}),
    "symfunc": ((), {"sizes": (_int_list, [3, 4, 5]), "count": (int, 20)}),
}


def _options(kind: str, chk: dict) -> dict:
    """The optional parameters of a check of this kind: parsed, or their defaults."""
    return {key: parse(chk[key]) if key in chk else default
            for key, (parse, default) in CHECKS[kind][1].items()}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, np.ndarray):
        return " ".join(repr(float(v)) for v in x.ravel())
    return str(x)


def _square_matrix(entries) -> np.ndarray:
    """A matrix given as nested rows or as a row-major flat list."""
    matrix = np.asarray(entries, dtype=float)
    if matrix.ndim == 1:
        d = int(round(matrix.size ** 0.5))
        matrix = matrix.reshape(d, d)
    return matrix


def _graph(coeffs: np.ndarray, extent: float) -> sf.ParametricPatch:
    return (sf.graph_curve if coeffs.ndim <= 1 else sf.graph_surface)(coeffs, extent=extent)


def _json(value, kind: type, what: str):
    """value, if it has the JSON type kind (dict: object, list: array)."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _name(what: str, name):
    """name, if it is safe as a file name and as a CSV field."""
    if not isinstance(name, str) or name in ("", ".", "..") \
            or any(c in name for c in "/\\,\n\r"):
        raise ConfigError(f"{what} {name!r}: a name must be a non-empty string other "
                          "than . and .. without /, \\, commas or line breaks")
    return name


@contextmanager
def _config_errors(what: str, name: str):
    """Report a missing or invalid parameter of a norm, surface or check as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # e.g. a matrix that is not SPD
        raise ConfigError(f"{what} {name!r}: missing or invalid parameter: {exc}") from exc


def _build(table: dict, what: str, key: str, spec, name: str):
    with _config_errors(what, name):
        choice = _json(spec, dict, f"{what} {name!r}").get(key)
        if choice not in table:
            raise ConfigError(f"{what} {name!r}: unknown {key} {choice!r}")
        return table[choice][1](spec)


def build_norm(spec: dict, name: str) -> MinkowskiNorm:
    norm = _build(NORM_FAMILIES, "norm", "family", spec, name)
    norm.label = name
    return norm


def build_surface(spec: dict, name: str) -> sf.ParametricPatch:
    return _build(SURFACE_KINDS, "surface", "kind", spec, name)


@dataclass
class CheckOutcome:
    name: str
    kind: str
    status: str          # pass | fail | info | error
    line: str            # one-line human summary
    rows: list[dict]     # CSV rows for this check's family
    plot: tuple[str, str] | None = None   # (filename, script body)

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "error")


class Scenario:
    """Validated scenario configuration."""

    def __init__(self, doc: dict, *, seed: int | None = None,
                 quad_overrides: dict | None = None):
        _json(doc, dict, "config root")
        with _config_errors("scenario", "seed"):
            self.seed = int(doc.get("seed", 0) if seed is None else seed)
        with _config_errors("scenario", "quadrature"):
            quad = dict(_json(doc.get("quadrature", {}), dict, "quadrature"))
            quad.update({k: v for k, v in (quad_overrides or {}).items() if v is not None})
            self.rule = ParamQuadrature(order=_integer(quad.get("order", 6)),
                                        base_grid=_integer(quad.get("grid", 16)))
            self.max_depth = _integer(quad.get("max_depth", 8))
            if self.max_depth < 0:
                raise ValueError(f"max_depth must be >= 0, not {self.max_depth}")
        self.out = doc.get("out", "wulffkit-out")

        self.norms = {_name("norm", name): build_norm(spec, name)
                      for name, spec in _json(doc.get("norms", {}), dict, "norms").items()}
        self.surfaces = {_name("surface", name): build_surface(spec, name) for name, spec
                         in _json(doc.get("surfaces", {}), dict, "surfaces").items()}
        self.checks = []
        for i, chk in enumerate(_json(doc.get("checks", []), list, "checks")):
            name = _name("check", _json(chk, dict, f"check 'check-{i}'")
                         .get("name", f"check-{i}"))
            if name in (c[0] for c in self.checks):
                raise ConfigError(f"check {name!r}: another check has this name")
            with _config_errors("check", name):
                self._validate(name, chk)
            self.checks.append((name, chk["kind"], chk))

    def _validate(self, name: str, chk: dict) -> None:
        kind = chk.get("kind")
        if kind not in CHECKS:
            raise ConfigError(f"check {name!r}: unknown kind {kind!r}")
        missing = [key for key in CHECKS[kind][0] if key not in chk]
        if missing:
            raise ConfigError(f"check {name!r}: a {kind} check needs {', '.join(missing)}")
        _options(kind, chk)   # a parameter that does not parse fails here, not in the run
        for key in ("norm", "gauge"):
            if key in chk and chk[key] not in self.norms:
                raise ConfigError(f"check {name!r}: unresolved norm {chk[key]!r}")
        if "surface" in chk and chk["surface"] not in self.surfaces:
            raise ConfigError(f"check {name!r}: unresolved surface {chk['surface']!r}")
        if "xi" in chk and chk["xi"] not in ("normal", "constant") \
                and chk["xi"] not in self.norms:
            raise ConfigError(f"check {name!r}: unresolved xi field {chk['xi']!r}")
        if "surface" in chk:   # gauges and fields live in the surface's space
            dim = self.surfaces[chk["surface"]].dim
            dims = {key: self.norms[chk[key]].dim for key in ("norm", "gauge", "xi")
                    if chk.get(key) in self.norms}
            if chk.get("xi") == "constant":
                dims["xi"] = np.size(chk.get("constant", DEFAULT_CONSTANT_XI))
            for key, d in dims.items():
                if d != dim:
                    raise ConfigError(f"check {name!r}: {key} {chk[key]!r} has dim {d}, "
                                      f"surface {chk['surface']!r} has dim {dim}")
        s, r = chk.get("s"), chk.get("r")
        if s is not None and r is not None and not float(s) < float(r):
            raise ConfigError(f"check {name!r}: radii must satisfy s < r "
                              f"(got s={s}, r={r})")
        if "radii" in chk:
            rr = [float(x) for x in _json(chk["radii"], list, f"check {name!r}: radii")]
            if sorted(rr) != rr or len(set(rr)) != len(rr):
                raise ConfigError(f"check {name!r}: radii must be strictly increasing")


def _xi_field(scn: Scenario, chk: dict) -> sf.TransversalField:
    xi = chk.get("xi", "normal")
    if xi == "normal":
        return sf.normal_field()
    if xi == "constant":
        vec = chk.get("constant", DEFAULT_CONSTANT_XI)
        return sf.constant_field(vec)
    return sf.anisotropic_normal_field(scn.norms[xi])


def _check_norm_identities(scn, name, chk) -> CheckOutcome:
    norm = scn.norms[chk["norm"]]
    opt = _options("norm-identities", chk)
    samples = opt["samples"]
    rng = np.random.default_rng(scn.seed)
    U = rng.standard_normal((samples, norm.dim))
    U = U[np.linalg.norm(U, axis=1) > 1e-6]
    euler = float(np.max(norm.euler_residual(U)))
    radial = float(np.max(norm.radial_kernel_residual(U)))
    vals = norm.value(U)
    homog = max(float(np.max(np.abs(norm.value(t * U) - t * vals) / (t * vals)))
                for t in (0.5, 2.0, 10.0))
    min_eig = float(np.min(norm.restricted_hessian_min_eig(U[:64])))
    tol = opt["tolerance"]
    ok = euler < tol and radial < 10 * tol and homog < 1e-10 and min_eig > 0
    row = {"name": name, "norm": chk["norm"], "samples": samples,
           "euler_max": euler, "radial_max": radial, "homogeneity_max": homog,
           "min_restricted_eig": min_eig, "pass": ok}
    return CheckOutcome(name, "norm-identities", "pass" if ok else "fail",
                        f"euler={euler:.2e} radial={radial:.2e} min_eig={min_eig:.3g}",
                        [row])


def _check_condition_s(scn, name, chk) -> CheckOutcome:
    norm = scn.norms[chk["norm"]]
    opt = _options("condition-s", chk)
    samples = opt["samples"]
    dual = norm.dual()
    verdict = cs.check_condition_s(norm, samples, seed=scn.seed, dual=dual,
                                   worst_k=opt["worst_k"])
    rows = [{"name": name, "norm": chk["norm"], "rank": i,
             "u": rep.u, "v": rep.v, "lhs": rep.lhs, "rhs": rep.rhs_sign_ref,
             "fk_residual": rep.fk_residual, "margin": rep.margin}
            for i, rep in enumerate(verdict.worst_pairs)]
    expect = chk.get("expect", "pass")
    ok = verdict.passed if expect == "pass" else not verdict.passed
    line = (f"{'sign condition holds' if verdict.passed else 'VIOLATED'} on "
            f"{samples} pairs; min margin {verdict.min_margin:.3e}, "
            f"max pairing residual {verdict.max_fk_residual:.3e}")
    return CheckOutcome(name, "condition-s", "pass" if ok else "fail", line, rows)


def _check_lemmas(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    xi = _xi_field(scn, chk)
    opt = _options("lemmas", chk)
    tol = opt["tolerance"]
    suite = vf.frame_identity_suite(patch, xi, grid=opt["grid"],
                                    min_support=opt["min_support"])
    residuals = {key: val for key, val in suite.items()
                 if key not in ("grid_points", "kept_points")}
    rows = [{"name": name, "surface": chk["surface"], "xi": xi.name, "check": key,
             "residual": val, "tolerance": tol, "pass": val < tol}
            for key, val in residuals.items()]
    worst = max([0.0, *residuals.values()])
    ok = all(row["pass"] for row in rows)    # a NaN residual fails its row
    return CheckOutcome(name, "lemmas", "pass" if ok else "fail",
                        f"max residual {worst:.2e} over {suite['kept_points']} points",
                        rows)


def _check_monotonicity(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    norm = scn.norms[chk["norm"]]
    opt = _options("monotonicity", chk)
    dual = norm.dual()
    radii = (np.asarray([float(x) for x in chk["radii"]]) if "radii" in chk
             else vf.geometric_radii(patch, dual, count=opt["count"]))
    scan = vf.monotonicity_scan(patch, norm, radii, dual=dual, rule=scn.rule,
                                max_depth=scn.max_depth)
    rows = [{"name": name, "surface": chk["surface"], "norm": chk["norm"],
             "s": rep.metadata["s"], "r": rep.metadata["r"], "lhs": rep.lhs, "rhs": rep.rhs,
             "residual": rep.residual, "tolerance": rep.tolerance, "pass": rep.status}
            for rep in scan.reports]
    ok = all(rep.status == "pass" for rep in scan.reports)
    detail = f"{len(scan.reports)} annuli"
    if chk.get("assert_monotone", True):
        mono = scan.non_decreasing()
        ok = ok and mono
        detail += f", non-decreasing={mono}"
    if opt["assert_constant_rel"] is not None:
        dev = scan.max_relative_deviation()
        ok = ok and dev <= opt["assert_constant_rel"]
        detail += f", flatness={dev:.2e}"
    plot = (f"{name}.gnuplot", _gnuplot_script(name, patch.n, radii, scan.normalized))
    return CheckOutcome(name, "monotonicity", "pass" if ok else "fail", detail,
                        rows, plot=plot)


def _check_equiaffine(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    xi = _xi_field(scn, chk)
    gauge = scn.norms[chk["gauge"]].dual()
    rep = vf.equiaffine_identity(patch, xi, gauge, float(chk["s"]), float(chk["r"]),
                                 rule=scn.rule, max_depth=scn.max_depth)
    row = {"name": name, "surface": chk["surface"], "norm": chk["gauge"],
           "s": rep.metadata["s"], "r": rep.metadata["r"], "lhs": rep.lhs,
           "rhs": rep.rhs, "residual": rep.residual, "tolerance": rep.tolerance,
           "pass": rep.status}
    return CheckOutcome(name, "equiaffine", rep.status,
                        f"residual {rep.residual:.2e} vs tol {rep.tolerance:.2e}",
                        [row])


def _check_corollary(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    norm = scn.norms[chk["norm"]]
    rep = vf.corollary_lower_bound(patch, norm, rule=scn.rule,
                                   max_depth=scn.max_depth,
                                   origin_param=chk.get("origin_param"))
    expect = chk.get("expect", "bound")
    if expect == "equality":
        ok = rep.equality_within <= _options("corollary", chk)["rel_tol"]
    elif expect == "strict":
        ok = rep.strictly_above
    else:
        ok = rep.ratio >= 1.0 - 5.0 * rep.tolerance
    ok = ok and not rep.flags
    row = {"name": name, "surface": chk["surface"], "norm": chk["norm"],
           "energy": rep.energy, "bound": rep.bound, "ratio": rep.ratio,
           "tolerance": rep.tolerance, "strict": rep.strictly_above, "pass": ok}
    return CheckOutcome(name, "corollary", "pass" if ok else "fail",
                        f"ratio={rep.ratio:.6f} ({expect})", [row])


def _check_minkowski(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    xi = _xi_field(scn, chk)
    ks = _options("minkowski", chk)["k"]
    reps = vf.minkowski_formulas(patch, xi, ks, rule=scn.rule)
    rows = [{"name": name, "surface": chk["surface"], "xi": xi.name,
             "k": rep.metadata["k"], "lhs": rep.lhs, "rhs": rep.rhs,
             "residual": rep.residual, "tolerance": rep.tolerance, "pass": rep.status}
            for rep in reps]
    ok = all(rep.passed for rep in reps)
    return CheckOutcome(name, "minkowski", "pass" if ok else "fail",
                        f"orders {ks}", rows)


def _check_symfunc(scn, name, chk) -> CheckOutcome:
    rng = np.random.default_rng(scn.seed)
    opt = _options("symfunc", chk)
    sizes, count = opt["sizes"], opt["count"]
    tols = {"recursion_vs_minors": 1e-8, "entries_oracle": 1e-10,
            "gradient_relation": 1e-6, "trace_euler": 1e-9,
            "trace_recursion": 1e-9, "cayley_hamilton": 1e-8}
    found = {key: [] for key in tols}
    for n in sizes:
        for _ in range(count):
            A = rng.standard_normal((n, n))
            for k in range(1, n + 1):
                s_k = sym.sigma_k(A, k)
                found["recursion_vs_minors"].append(
                    abs(s_k - sym.sigma_k_minors_oracle(A, k)) / max(1.0, abs(s_k)))
                e, t = sym.trace_identity_residuals(A, k)
                found["trace_euler"].append(e)
                found["trace_recursion"].append(t)
            if n <= 4:
                found["entries_oracle"] += [
                    float(np.max(np.abs(sym.newton_tensor(A, k)
                                        - sym.newton_entries_oracle(A, k))))
                    for k in range(0, min(3, n) + 1)]
            found["gradient_relation"] += [sym.gradient_relation_residual(A, k)
                                           for k in (1, min(2, n))]
            found["cayley_hamilton"].append(float(np.max(np.abs(sym.newton_tensor(A, n)))))
    # np.max keeps a NaN residual, so that it fails its row
    worst = {key: float(np.max(vals, initial=0.0)) for key, vals in found.items()}
    rows = [{"name": name, "check": key, "sizes": " ".join(map(str, sizes)),
             "residual": val, "tolerance": tols[key], "pass": val < tols[key]}
            for key, val in worst.items()]
    ok = all(row["pass"] for row in rows)
    return CheckOutcome(name, "symfunc", "pass" if ok else "fail",
                        f"{count} matrices per size {sizes}", rows)


def _gnuplot_script(name: str, n: int, radii, normalized) -> str:
    lines = [
        f"# wulffkit monotonicity scan: {name}",
        f'set title "normalized gauge energy, {name}"',
        'set xlabel "r"',
        f'set ylabel "E(r)/r^{n}"',
        "plot '-' using 1:2 with linespoints title 'E(r)/r^n'",
    ]
    for r, e in zip(radii, normalized):
        lines.append(f"{_fmt(float(r))} {_fmt(float(e))}")
    lines.append("e")
    return "\n".join(lines) + "\n"


def _write_csvs(outcomes: list[CheckOutcome], out_dir: Path) -> None:
    by_kind: dict[str, list[dict]] = {}
    for oc in outcomes:
        if oc.rows:
            by_kind.setdefault(oc.kind, []).extend(oc.rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, rows in by_kind.items():
        cols = list(rows[0].keys())
        path = out_dir / f"{kind.replace('-', '_')}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
    for oc in outcomes:
        if oc.plot is not None:
            fname, body = oc.plot
            (out_dir / fname).write_text(body, encoding="utf-8")


def run_scenario(scn: Scenario, out_dir: Path, jobs: int = 1,
                 stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    def work(item):
        # one bad check never aborts the suite: any exception becomes an
        # error outcome, and the other checks still run and write their CSVs
        name, kind, chk = item
        try:
            # looked up when the check runs, so that a wrapper set on the
            # module attribute (a tracer, a test double) is what runs
            check = getattr(sys.modules[__name__], "_check_" + kind.replace("-", "_"))
            return check(scn, name, chk)
        except Exception as exc:
            if not isinstance(exc, (WulffkitError, ValueError)):
                # not an input the library rejected: a fault, so show where it is
                traceback.print_exc(file=sys.stderr)
            return CheckOutcome(name, kind, "error", f"{type(exc).__name__}: {exc}", [])

    if jobs == 1:
        # on the calling thread: a worker thread would get a malloc arena of
        # its own, which only adds to the peak memory of a run
        outcomes = list(map(work, scn.checks))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(work, scn.checks))

    for oc in outcomes:
        print(f"[{oc.status.upper():5s}] {oc.name} ({oc.kind}): {oc.line}",
              file=stream)
    _write_csvs(outcomes, out_dir)
    n_bad = sum(oc.failed for oc in outcomes)
    print(f"{len(outcomes) - n_bad}/{len(outcomes)} checks passed; "
          f"reports in {out_dir}", file=stream)
    return 1 if n_bad else 0


def load_config(path: str) -> dict:
    """Load a scenario: a filesystem path or the name of a bundled scenario."""
    p = Path(path)
    if p.exists():
        return json.loads(p.read_text(encoding="utf-8"))
    candidate = resources.files("wulffkit").joinpath(f"scenarios/{path}.json")
    if candidate.is_file():
        return json.loads(candidate.read_text(encoding="utf-8"))
    raise ConfigError(f"config not found: {path}")


def list_builtins(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    for title, table in (("norm families", NORM_FAMILIES), ("surfaces", SURFACE_KINDS)):
        print(f"{title}:", file=stream)
        for key, (params, _) in table.items():
            print(f"  {key:22s} params: {params}", file=stream)
    print("checks:", file=stream)
    for kind, (fields, optional) in CHECKS.items():
        print(f"  {kind:22s} needs: {', '.join(fields) or '-'}; "
              f"optional: {', '.join(optional) or '-'}", file=stream)
    bundled = sorted(
        p.name[:-5] for p in resources.files("wulffkit").joinpath("scenarios").iterdir()
        if p.name.endswith(".json"))
    print("bundled scenarios: " + ", ".join(bundled), file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wulffkit",
        description="gauge-geometry identity checks: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("--config", required=True,
                      help="path to a JSON scenario, or a bundled scenario name")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--quad-order", type=int, default=None)
    runp.add_argument("--grid", type=int, default=None)
    runp.add_argument("--max-depth", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)

    sub.add_parser("list-builtins", help="list norm families, surfaces, checks")

    condp = sub.add_parser("condition-s", help="one-shot sign-condition scan")
    condp.add_argument("--norm", required=True, choices=sorted(NORM_FAMILIES))
    condp.add_argument("--dim", type=int, default=2)
    condp.add_argument("--matrix", default=None,
                       help="row-major entries for the quadratic family, JSON list")
    condp.add_argument("--eps", type=float, default=0.05)
    condp.add_argument("--samples", type=int, default=10_000)
    condp.add_argument("--worst-k", type=int, default=10)
    condp.add_argument("--seed", type=int, default=0)
    condp.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "list-builtins":
        list_builtins()
        return 0

    try:
        if args.command == "condition-s":
            spec = {"family": args.norm, "dim": args.dim, "eps": args.eps}
            if args.matrix is not None:
                spec["matrix"] = json.loads(args.matrix)
            scn = Scenario({"seed": args.seed, "norms": {"target": spec}, "checks": [
                {"kind": "condition-s", "name": "condition-s", "norm": "target",
                 "samples": args.samples, "worst_k": args.worst_k,
                 "expect": "pass" if args.norm != "quartic-regularized" else "fail"}]})
        else:
            scn = Scenario(load_config(args.config), seed=args.seed,
                           quad_overrides={"order": args.quad_order, "grid": args.grid,
                                           "max_depth": args.max_depth})
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(os.environ.get("WULFFKIT_OUT") or args.out or scn.out)
    return run_scenario(scn, out_dir, jobs=max(1, getattr(args, "jobs", 1)))


if __name__ == "__main__":
    sys.exit(main())

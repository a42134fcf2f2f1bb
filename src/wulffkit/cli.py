"""Scenario-driven command line front end.

A scenario is a single JSON document declaring norms, surfaces, and a list
of checks; the runner executes every check, prints a one-line verdict per
check, writes one CSV per check family (header comment "# wulffkit-report
v1"), and emits a gnuplot script per monotonicity scan.  Exit codes:
0 all asserted checks passed, 1 at least one check failed or errored,
2 configuration error.

Determinism contract: same build + same config => byte-identical CSV
output.  All randomness is seeded from the config (overridable with
--seed), floats are serialized with shortest round-trip repr, and the
checks run one after another on the calling thread, in declaration order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
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


def _integer(value) -> int:
    """value as an int, where it is one: a float without a fraction counts,
    a bool, a string or a fraction does not (int() would truncate 2.5)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(lo: float = -np.inf):
    """The parse of a finite JSON number >= lo (true and false are not numbers)."""
    def parse(value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not (np.isfinite(value) and value >= lo):
            raise ValueError(f"{value!r} is not a finite number >= {lo}")
        return float(value)
    return parse


def _at_least(lo: int, most: float = np.inf):
    """The parse of an integer >= lo and <= most."""
    def parse(value) -> int:
        if not lo <= _integer(value) <= most:
            ceiling = f" and <= {most}" if most < np.inf else ""
            raise ValueError(f"must be >= {lo}{ceiling}, not {value}")
        return int(value)
    return parse


def _one_of(*choices: str):
    """The parse of one of the strings choices."""
    def parse(value) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, not {value!r}")
        return value
    return parse


def _boolean(value) -> bool:
    """value, if it is true or false (a string or a number is not)."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _listed(parse):
    """The parse of a non-empty list of values, each read by parse, or of one
    value as a list of one."""
    def parse_list(value) -> list:
        if value == []:
            raise ValueError("an empty list")
        return [parse(x) for x in (value if isinstance(value, list) else [value])]
    return parse_list


def _text(value) -> str:
    """value, if it is a non-empty string: the name of a norm or surface, a
    field, or the output directory."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{value!r} is not a non-empty string")
    return value


def _radii(value) -> list:
    """A JSON array of at least two strictly increasing numbers."""
    radii = [_real()(x) for x in value] if isinstance(value, list) else []
    if len(radii) < 2 or any(a >= b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"not a JSON array of two or more strictly increasing radii: {value!r}")
    return radii


def _reals(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array, each entry read by _real()."""
    entries = np.asarray(value, dtype=object)
    return np.array([_real()(x) for x in entries.ravel()], dtype=float).reshape(entries.shape)


def _square_matrix(entries) -> np.ndarray:
    """A matrix given as nested rows or as a row-major flat list."""
    matrix = _reals(entries)
    if matrix.ndim == 1:
        d = int(round(matrix.size ** 0.5))
        matrix = matrix.reshape(d, d)
    return matrix


def _graph(coeffs=np.zeros(1), extent: float = 1.0) -> sf.ParametricPatch:
    return (sf.graph_curve if coeffs.ndim <= 1 else sf.graph_surface)(coeffs, extent=extent)


# size ceilings: a larger value is a config error, raised before anything is
# allocated, so that a run fits in memory (README, "Size ceilings")
MAX_ORDER, MAX_GRID, MAX_DEPTH = 16, 64, 16
MAX_SAMPLES, MAX_DIM = 100_000, 8
MAX_MATRIX_SIZE, MAX_MATRIX_COUNT = 10, 10_000

# the transversal field: "normal", "constant" (the vector "constant") or a norm
_XI = {"xi": (_text, "normal"), "constant": (_listed(_real()), (0.3, -0.7, 0.55))}

# check kind: (the fields a check of that kind must name, as {key: parse}, and
# its optional parameters, as {key: (parse, default)}); it runs as the module
# function _check_<kind>, which reads both through _options.  A check may name
# no other key but its kind and name.
CHECKS = {
    "norm-identities": ({"norm": _text}, {"samples": (_at_least(1, MAX_SAMPLES), 1000),
                                          "tolerance": (_real(0.0), 1e-8)}),
    "condition-s": ({"norm": _text}, {"samples": (_at_least(1, MAX_SAMPLES), 10_000),
                                      "worst_k": (_at_least(0), 10),
                                      "expect": (_one_of("pass", "fail"), "pass")}),
    "lemmas": ({"surface": _text}, {"tolerance": (_real(0.0), 1e-4),
                                    "grid": (_at_least(1, MAX_GRID), 9),
                                    "min_support": (_real(0.0), 0.05), **_XI}),
    "monotonicity": ({"surface": _text, "norm": _text}, {
        "radii": (_radii, None), "count": (_at_least(2), 8),
        "assert_constant_rel": (_real(0.0), None), "assert_monotone": (_boolean, True)}),
    "equiaffine": ({"surface": _text, "gauge": _text, "s": _real(0.0), "r": _real(0.0)}, _XI),
    "corollary": ({"surface": _text, "norm": _text}, {
        "rel_tol": (_real(0.0), 1e-4), "expect": (_one_of("bound", "equality", "strict"), "bound"),
        "origin_param": (_listed(_real()), None)}),
    "minkowski": ({"surface": _text}, {"k": (_listed(_integer), [0]), **_XI}),
    "symfunc": ({}, {"sizes": (_listed(_at_least(1, MAX_MATRIX_SIZE)), [3, 4, 5]),
                     "count": (_at_least(1, MAX_MATRIX_COUNT), 20)}),
}


# norm family or surface kind: (the keys it must name and those it may name, as
# {key: parse}, and its builder, which takes them parsed, with its own defaults)
NORM_FAMILIES = {
    "euclidean": ({}, {"dim": _at_least(1, MAX_DIM)},
                  lambda dim=3: MinkowskiNorm.euclidean(dim)),
    "quadratic": ({"matrix": _square_matrix}, {}, MinkowskiNorm.quadratic),
    "quartic-regularized": ({}, {"dim": _at_least(1, MAX_DIM), "eps": _real()},
                            MinkowskiNorm.quartic),
}
_VECTOR = _listed(_real())
SURFACE_KINDS = {
    "hyperplane": ({}, {"normal": _VECTOR, "origin": _VECTOR, "extent": _real()}, sf.hyperplane),
    "sphere": ({}, {"radius": _real(), "center": _VECTOR}, sf.sphere),
    "ellipsoid": ({}, {"semiaxes": _VECTOR}, sf.ellipsoid),
    "catenoid": ({}, {"v_max": _real()}, sf.catenoid),
    "transformed-catenoid": ({"matrix": _square_matrix}, {"v_max": _real()},
                             sf.transformed_catenoid),
    "line": ({}, {"offset": _real(), "extent": _real()}, sf.line),
    "circle": ({}, {"radius": _real(), "center": _VECTOR}, sf.circle),
    "graph": ({}, {"coeffs": _reals, "extent": _real()}, _graph),
    "enneper": ({}, {"scale": _real(), "extent": _real()}, sf.enneper),
}


def _options(kind: str, chk: dict) -> dict:
    """The fields that a check of this kind names and its optional parameters,
    parsed; an optional parameter the check does not name takes its default."""
    fields, optional = CHECKS[kind]
    return {**{key: parse(chk[key]) for key, parse in fields.items() if key in chk},
            **{key: parse(chk[key]) if key in chk else default
               for key, (parse, default) in optional.items()}}


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


def _read_keys(what: str, spec: dict, own: tuple, fields: dict, optional: dict) -> None:
    """A ConfigError unless spec names all of fields, and nothing but those, own and optional."""
    missing = [key for key in fields if key not in spec]
    if missing:
        raise ConfigError(f"{what} needs {', '.join(missing)}")
    unread = [key for key in spec if key not in (*own, *fields, *optional)]
    if unread:
        raise ConfigError(f"{what} does not read {', '.join(map(repr, unread))}")


def _build(table: dict, what: str, key: str, spec, name: str):
    with _config_errors(what, name):
        choice = _json(spec, dict, f"{what} {name!r}").get(key)
        if choice not in table:
            raise ConfigError(f"{what} {name!r}: unknown {key} {choice!r}")
        fields, optional, build = table[choice]
        _read_keys(f"{what} {name!r}: a {choice} {what}", spec, (key,), fields, optional)
        return build(**{k: parse(spec[k]) for k, parse in {**fields, **optional}.items()
                        if k in spec})


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
        _read_keys("scenario", doc, ("seed", "quadrature", "out", "norms", "surfaces", "checks"),
                   {}, {})
        with _config_errors("scenario", "seed"):
            self.seed = _at_least(0)(doc.get("seed", 0) if seed is None else seed)
        with _config_errors("scenario", "quadrature"):
            quad = dict(_json(doc.get("quadrature", {}), dict, "quadrature"))
            _read_keys("scenario 'quadrature'", quad, ("order", "grid", "max_depth"), {}, {})
            quad.update({k: v for k, v in (quad_overrides or {}).items() if v is not None})
        parsed = {}
        for key, parse, default in (("order", _at_least(2, MAX_ORDER), 6),
                                    ("grid", _at_least(1, MAX_GRID), 16),
                                    ("max_depth", _at_least(0, MAX_DEPTH), 8)):
            with _config_errors("quadrature", key):
                parsed[key] = parse(quad.get(key, default))
        self.rule = ParamQuadrature(order=parsed["order"], base_grid=parsed["grid"])
        self.max_depth = parsed["max_depth"]
        with _config_errors("scenario", "out"):
            self.out = _text(doc.get("out", "wulffkit-out"))

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
        _read_keys(f"check {name!r}: a {kind} check", chk, ("kind", "name"), *CHECKS[kind])
        opt = _options(kind, chk)   # a value that does not parse fails here, not in the run
        for key, what, known in (("norm", "norm", self.norms), ("gauge", "norm", self.norms),
                                 ("surface", "surface", self.surfaces),
                                 ("xi", "xi field", ("normal", "constant", *self.norms))):
            if key in opt and opt[key] not in known:
                raise ConfigError(f"check {name!r}: unresolved {what} {opt[key]!r}")
        if "surface" in opt:   # gauges and fields live in the surface's space
            dim = self.surfaces[opt["surface"]].dim
            dims = {key: self.norms[opt[key]].dim for key in ("norm", "gauge", "xi")
                    if opt.get(key) in self.norms}
            if opt.get("xi") == "constant":
                dims["xi"] = len(opt["constant"])
            for key, d in dims.items():
                if d != dim:
                    raise ConfigError(f"check {name!r}: {key} {opt[key]!r} has dim {d}, "
                                      f"surface {opt['surface']!r} has dim {dim}")
        if kind == "minkowski":   # a formula of order k needs 0 <= k <= n - 1
            n = self.surfaces[opt["surface"]].n
            bad = [k for k in opt["k"] if not 0 <= k < n]
            if bad:
                raise ConfigError(f"check {name!r}: k must lie in 0..{n - 1} on surface "
                                  f"{opt['surface']!r}, not {bad}")
        if kind == "corollary" and opt["origin_param"] is not None:
            n = self.surfaces[opt["surface"]].n
            if len(opt["origin_param"]) != n:
                raise ConfigError(f"check {name!r}: origin_param needs {n} numbers on "
                                  f"surface {opt['surface']!r}, not {len(opt['origin_param'])}")
        if kind == "equiaffine" and not opt["s"] < opt["r"]:
            raise ConfigError(f"check {name!r}: radii must satisfy s < r "
                              f"(got s={opt['s']}, r={opt['r']})")


def _xi_field(scn: Scenario, opt: dict) -> sf.TransversalField:
    if opt["xi"] == "normal":
        return sf.normal_field()
    if opt["xi"] == "constant":
        return sf.constant_field(opt["constant"])
    return sf.anisotropic_normal_field(scn.norms[opt["xi"]])


def _check_norm_identities(scn, name, chk) -> CheckOutcome:
    norm = scn.norms[chk["norm"]]
    opt = _options("norm-identities", chk)
    samples = opt["samples"]
    U = np.random.default_rng(scn.seed).standard_normal((samples, norm.dim))
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
    verdict = cs.check_condition_s(norm, samples, seed=scn.seed, dual=norm.dual(),
                                   worst_k=opt["worst_k"])
    rows = [{"name": name, "norm": chk["norm"], "rank": i,
             "u": rep.u, "v": rep.v, "lhs": rep.lhs, "rhs": rep.rhs_sign_ref,
             "fk_residual": rep.fk_residual, "margin": rep.margin}
            for i, rep in enumerate(verdict.worst_pairs)]
    ok = verdict.passed if opt["expect"] == "pass" else not verdict.passed
    line = (f"{'sign condition holds' if verdict.passed else 'VIOLATED'} on "
            f"{samples} pairs; min margin {verdict.min_margin:.3e}, "
            f"max pairing residual {verdict.max_fk_residual:.3e}")
    return CheckOutcome(name, "condition-s", "pass" if ok else "fail", line, rows)


def _check_lemmas(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    opt = _options("lemmas", chk)
    xi = _xi_field(scn, opt)
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
    radii = (np.asarray(opt["radii"]) if opt["radii"] is not None
             else vf.geometric_radii(patch, dual, count=opt["count"]))
    scan = vf.monotonicity_scan(patch, norm, radii, dual=dual, rule=scn.rule,
                                max_depth=scn.max_depth)
    rows = [{"name": name, "surface": chk["surface"], "norm": chk["norm"],
             "s": rep.metadata["s"], "r": rep.metadata["r"], "lhs": rep.lhs, "rhs": rep.rhs,
             "residual": rep.residual, "tolerance": rep.tolerance, "pass": rep.status}
            for rep in scan.reports]
    ok = all(rep.status == "pass" for rep in scan.reports)
    detail = f"{len(scan.reports)} annuli"
    if opt["assert_monotone"]:
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
    opt = _options("equiaffine", chk)
    gauge = scn.norms[chk["gauge"]].dual()
    rep = vf.equiaffine_identity(patch, _xi_field(scn, opt), gauge, opt["s"], opt["r"],
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
    opt = _options("corollary", chk)
    rep = vf.corollary_lower_bound(patch, norm, rule=scn.rule,
                                   max_depth=scn.max_depth,
                                   origin_param=opt["origin_param"])
    expect = opt["expect"]
    ok = {"equality": rep.equality_within <= opt["rel_tol"], "strict": rep.strictly_above,
          "bound": rep.ratio >= 1.0 - 5.0 * rep.tolerance}[expect] and not rep.flags
    row = {"name": name, "surface": chk["surface"], "norm": chk["norm"],
           "energy": rep.energy, "bound": rep.bound, "ratio": rep.ratio,
           "tolerance": rep.tolerance, "strict": rep.strictly_above, "pass": ok}
    return CheckOutcome(name, "corollary", "pass" if ok else "fail",
                        f"ratio={rep.ratio:.6f} ({expect})", [row])


def _check_minkowski(scn, name, chk) -> CheckOutcome:
    patch = scn.surfaces[chk["surface"]]
    opt = _options("minkowski", chk)
    xi, ks = _xi_field(scn, opt), opt["k"]
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
        A = rng.standard_normal((count, n, n))
        tensors, sigmas = sym.newton_tensors(A, n)
        for k in range(1, n + 1):
            found["recursion_vs_minors"].append(
                np.abs(sigmas[:, k] - sym.sigma_k_minors_oracle(A, k))
                / np.maximum(1.0, np.abs(sigmas[:, k])))
            e, t = sym.trace_identity_residuals(A, k)
            found["trace_euler"].append(e)
            found["trace_recursion"].append(t)
        if n <= 4:
            found["entries_oracle"] += [
                np.max(np.abs(tensors[:, k] - sym.newton_entries_oracle(A, k)), axis=(1, 2))
                for k in range(0, min(3, n) + 1)]
        found["gradient_relation"] += [sym.gradient_relation_residual(A, k)
                                       for k in (1, min(2, n))]
        found["cayley_hamilton"].append(np.max(np.abs(tensors[:, n]), axis=(1, 2)))
    # np.max keeps a NaN residual, so that it fails its row
    worst = {key: float(np.max(np.hstack([0.0, *vals]))) for key, vals in found.items()}
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
    for fname, body in (oc.plot for oc in outcomes if oc.plot is not None):
        (out_dir / fname).write_text(body, encoding="utf-8")


def run_scenario(scn: Scenario, out_dir: Path) -> int:
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

    outcomes = list(map(work, scn.checks))
    for oc in outcomes:
        print(f"[{oc.status.upper():5s}] {oc.name} ({oc.kind}): {oc.line}")
    _write_csvs(outcomes, out_dir)
    n_bad = sum(oc.failed for oc in outcomes)
    print(f"{len(outcomes) - n_bad}/{len(outcomes)} checks passed; reports in {out_dir}")
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


def list_builtins() -> None:
    for title, table in (("norm families", NORM_FAMILIES), ("surfaces", SURFACE_KINDS),
                         ("checks", CHECKS)):
        print(f"{title}:")
        for kind, (fields, optional, *_) in table.items():
            print(f"  {kind:22s} needs: {', '.join(fields) or '-'}; "
                  f"optional: {', '.join(optional) or '-'}")
    bundled = sorted(
        p.name[:-5] for p in resources.files("wulffkit").joinpath("scenarios").iterdir()
        if p.name.endswith(".json"))
    print("bundled scenarios: " + ", ".join(bundled))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wulffkit",
        description="gauge-geometry identity checks: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("--config", required=True,
                      help="path to a JSON scenario, or a bundled scenario name")
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
            optional = NORM_FAMILIES[args.norm][1]      # the flags that the family reads
            spec = {"family": args.norm, **{k: v for k, v in (("dim", args.dim), ("eps", args.eps))
                                            if k in optional}}
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
    return run_scenario(scn, out_dir)


if __name__ == "__main__":
    sys.exit(main())

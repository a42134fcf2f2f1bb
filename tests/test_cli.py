import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wulffkit import cli
from wulffkit.errors import ConfigError

FAST_QUAD = {"order": 4, "grid": 8, "max_depth": 5}


def run_cli(args, monkeypatch=None, env_out=None):
    if monkeypatch is not None:
        if env_out is None:
            monkeypatch.delenv("WULFFKIT_OUT", raising=False)
        else:
            monkeypatch.setenv("WULFFKIT_OUT", str(env_out))
    return cli.main(args)


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def minimal_scenario(out):
    return {
        "seed": 0,
        "out": str(out),
        "quadrature": FAST_QUAD,
        "norms": {"euclid": {"family": "euclidean", "dim": 3}},
        "surfaces": {"plane": {"kind": "hyperplane", "extent": 2.0}},
        "checks": [
            {"kind": "monotonicity", "name": "plane", "surface": "plane",
             "norm": "euclid", "radii": [0.4, 0.8]},
        ],
    }


def test_list_builtins(capsys):
    assert cli.main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for token in ("euclidean", "quadratic", "quartic-regularized"):
        assert token in out
    for token in ("hyperplane", "sphere", "ellipsoid", "catenoid",
                  "transformed-catenoid", "line", "circle", "graph"):
        assert token in out
    for token in ("norm-identities", "condition-s", "lemmas", "monotonicity",
                  "equiaffine", "corollary", "minkowski", "symfunc"):
        assert token in out


def test_run_minimal_scenario(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, minimal_scenario(tmp_path / "out"))
    code = run_cli(["run", "--config", cfg], monkeypatch)
    assert code == 0
    assert (tmp_path / "out" / "monotonicity.csv").exists()
    assert (tmp_path / "out" / "plane.gnuplot").exists()
    text = (tmp_path / "out" / "monotonicity.csv").read_text()
    assert text.startswith("# wulffkit-report v1\n")


def test_malformed_radii_exit_2(tmp_path, monkeypatch, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc["checks"] = [{"kind": "equiaffine", "name": "bad-radii",
                      "surface": "plane", "xi": "normal", "gauge": "euclid",
                      "s": 0.9, "r": 0.9}]
    cfg = write_config(tmp_path, doc)
    code = run_cli(["run", "--config", cfg], monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert "bad-radii" in err


def test_unresolved_reference_exit_2(tmp_path, monkeypatch, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc["checks"][0]["norm"] = "missing"
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 2


def test_unknown_config_exit_2(monkeypatch, capsys):
    assert run_cli(["run", "--config", "no-such-scenario"], monkeypatch) == 2


def test_check_failure_exit_1(tmp_path, monkeypatch):
    doc = minimal_scenario(tmp_path / "out")
    # quartic gauge violates the sign condition; expecting a pass must fail
    doc["norms"]["quartic"] = {"family": "quartic-regularized", "dim": 2,
                               "eps": 0.05}
    doc["checks"] = [{"kind": "condition-s", "name": "willfail",
                      "norm": "quartic", "samples": 300, "expect": "pass"}]
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 1


def test_check_error_recorded_not_fatal(tmp_path, monkeypatch, capsys):
    doc = minimal_scenario(tmp_path / "out")
    # boundary inside the region raises per-check, suite still completes
    doc["checks"] = [
        {"kind": "monotonicity", "name": "will-error", "surface": "plane",
         "norm": "euclid", "radii": [0.4, 5.0]},
        {"kind": "monotonicity", "name": "fine", "surface": "plane",
         "norm": "euclid", "radii": [0.4, 0.8]},
    ]
    cfg = write_config(tmp_path, doc)
    code = run_cli(["run", "--config", cfg], monkeypatch)
    out = capsys.readouterr().out
    assert code == 1
    assert "[ERROR]" in out
    assert "fine" in out


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, minimal_scenario(tmp_path / "ignored"))
    env_dir = tmp_path / "env-out"
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "flag-out")],
                   monkeypatch, env_out=env_dir)
    assert code == 0
    assert (env_dir / "monotonicity.csv").exists()
    assert not (tmp_path / "flag-out").exists()


def test_jobs_flag_is_gone(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, minimal_scenario(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--config", cfg, "--jobs", "2"], monkeypatch)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_checks_run_on_the_main_thread_in_declaration_order(tmp_path, monkeypatch):
    doc = minimal_scenario(tmp_path / "out")
    doc["checks"] = [{"kind": "symfunc", "name": "newton", "sizes": [3], "count": 3},
                     doc["checks"][0],
                     {"kind": "symfunc", "name": "newton-4", "sizes": [4], "count": 1}]
    cfg = write_config(tmp_path, doc)
    calls = []
    for kind in ("monotonicity", "symfunc"):
        check = getattr(cli, "_check_" + kind)

        def recorded(scn, name, chk, _check=check):
            calls.append((name, threading.current_thread()))
            return _check(scn, name, chk)
        monkeypatch.setattr(cli, "_check_" + kind, recorded)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 0
    assert calls == [(name, threading.main_thread())
                     for name in ("newton", "plane", "newton-4")]


def test_condition_s_subcommand(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cs"
    code = run_cli(["condition-s", "--norm", "quadratic",
                    "--matrix", "[[1.0, 0.0], [0.0, 4.0]]",
                    "--samples", "500", "--out", str(out)], monkeypatch)
    assert code == 0
    printed = capsys.readouterr().out
    assert "sign condition holds" in printed
    csv = (out / "condition_s.csv").read_text().splitlines()
    assert csv[0] == "# wulffkit-report v1"
    assert len(csv) > 2  # header + column names + worst pairs


def test_quadrature_flag_overrides(tmp_path, monkeypatch):
    doc = minimal_scenario(tmp_path / "out")
    del doc["quadrature"]
    cfg = write_config(tmp_path, doc)
    code = run_cli(["run", "--config", cfg, "--quad-order", "4", "--grid", "6",
                    "--max-depth", "4", "--out", str(tmp_path / "out")],
                   monkeypatch)
    assert code == 0


def test_negative_max_depth_flag_exits_2(tmp_path, monkeypatch, capsys):
    # a negative depth is a config fault, found before any check runs
    cfg = write_config(tmp_path, minimal_scenario(tmp_path / "out"))
    assert run_cli(["run", "--config", cfg, "--max-depth", "-1"], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "max_depth" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_2(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, minimal_scenario(tmp_path / "out"))
    assert run_cli(["run", "--config", cfg, "--seed", "-1"], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_scenario_validation_messages():
    with pytest.raises(ConfigError):
        cli.Scenario({"checks": [{"kind": "nope", "name": "x"}]})
    with pytest.raises(ConfigError):
        cli.Scenario({"norms": {"n": {"family": "unknown"}}})
    with pytest.raises(ConfigError):
        cli.Scenario({"checks": [{"kind": "monotonicity", "name": "x",
                                  "surface": "ghost"}]})
    with pytest.raises(ConfigError):
        cli.Scenario({"norms": {"e": {"family": "euclidean", "dim": 3}},
                      "surfaces": {"p": {"kind": "hyperplane"}},
                      "checks": [{"kind": "monotonicity", "name": "x",
                                  "surface": "p", "norm": "e",
                                  "radii": [0.8, 0.4]}]})


def test_bundled_scenarios_load():
    for name in ("hyperplane-equality", "catenoid-euclidean", "identity-suite"):
        doc = cli.load_config(name)
        scn = cli.Scenario(doc)
        assert scn.checks


def test_non_spd_matrix_is_config_error(tmp_path, monkeypatch, capsys):
    bad = {"family": "quadratic",
           "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]}
    with pytest.raises(ConfigError, match="positive definite"):
        cli.build_norm(bad, "bad")
    cfg = write_config(tmp_path, {"norms": {"bad": bad}, "checks": []})
    assert run_cli(["run", "--config", cfg], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_dim_mismatch_is_config_error(tmp_path, monkeypatch, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc["norms"]["e2"] = {"family": "euclidean", "dim": 2}
    doc["checks"][0]["norm"] = "e2"
    with pytest.raises(ConfigError, match="has dim 2"):
        cli.Scenario(doc)
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    # a constant transversal field must live in the surface's space too
    doc["checks"] = [{"kind": "lemmas", "name": "x", "surface": "plane",
                      "xi": "constant", "constant": [0.0, 1.0]}]
    with pytest.raises(ConfigError, match="has dim 2"):
        cli.Scenario(doc)


def test_rejected_argument_does_not_abort_suite(tmp_path, monkeypatch, capsys):
    doc = minimal_scenario(tmp_path / "out")
    # a radius <= 0 is rejected when the check runs; the other check still
    # runs and writes its CSV row
    doc["checks"] = [
        {"kind": "monotonicity", "name": "ok", "surface": "plane",
         "norm": "euclid", "radii": [0.4, 0.8]},
        {"kind": "monotonicity", "name": "bad", "surface": "plane",
         "norm": "euclid", "radii": [-0.5, 0.5]},
    ]
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 1
    captured = capsys.readouterr()
    assert "[ERROR] bad (monotonicity): ValueError" in captured.out
    assert "Traceback" not in captured.err
    rows = (tmp_path / "out" / "monotonicity.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[2:]] == ["ok"]


def test_program_fault_recorded_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(scn, name, chk):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "_check_symfunc", broken)
    doc = minimal_scenario(tmp_path / "out")
    doc["checks"].append({"kind": "symfunc", "name": "broken"})
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 1
    captured = capsys.readouterr()
    assert "[ERROR] broken (symfunc): ZeroDivisionError: boom" in captured.out
    assert "Traceback" in captured.err
    assert (tmp_path / "out" / "monotonicity.csv").exists()


def _with_checks(doc, checks):
    return {**doc, "checks": checks}


MONO = {"kind": "monotonicity", "name": "m", "surface": "plane", "norm": "euclid",
        "radii": [0.4, 0.8]}

CONFIG_FAULTS = {
    "missing-surface": (lambda d: _with_checks(d, [
        {"kind": "monotonicity", "name": "nosurf", "norm": "euclid"}]), "nosurf"),
    "missing-s": (lambda d: _with_checks(d, [
        {"kind": "equiaffine", "name": "nos", "surface": "plane", "gauge": "euclid",
         "r": 0.8}]), "nos"),
    "missing-norm": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "nonorm"}]), "nonorm"),
    "checks-not-list": (lambda d: {**d, "checks": {"kind": "symfunc"}}, "checks"),
    "check-not-object": (lambda d: _with_checks(d, [MONO, "symfunc"]), "check-1"),
    "norms-not-object": (lambda d: {**d, "norms": ["euclid"]}, "norms"),
    "slash-in-name": (lambda d: _with_checks(d, [{**MONO, "name": "a/b"}]), "a/b"),
    "dot-name": (lambda d: _with_checks(d, [{**MONO, "name": ".."}]), ".."),
    "duplicate-name": (lambda d: _with_checks(d, [MONO, MONO]), "'m'"),
    "comma-in-check": (lambda d: _with_checks(d, [{**MONO, "name": "a,b"}]), "a,b"),
    "newline-in-norm": (lambda d: {**d, "norms": {"e\nf": {"family": "euclidean"}}},
                        "e\\nf"),
    "comma-in-surface": (lambda d: {**d, "surfaces": {"p,q": {"kind": "sphere"}}},
                         "p,q"),
    "radii-not-list": (lambda d: _with_checks(d, [{**MONO, "radii": "0.4"}]), "'m'"),
    "seed-not-int": (lambda d: {**d, "seed": "abc"}, "seed"),
    "quadrature-order": (lambda d: {**d, "quadrature": {"order": 0}}, "quadrature"),
    # quadrature integers are parsed strictly: int() would run 2.5 as 2
    "max-depth-negative": (lambda d: {**d, "quadrature": {**FAST_QUAD, "max_depth": -1}},
                           "quadrature"),
    "order-not-integral": (lambda d: {**d, "quadrature": {**FAST_QUAD, "order": 2.5}},
                           "quadrature"),
    "grid-not-integral": (lambda d: {**d, "quadrature": {**FAST_QUAD, "grid": 2.5}},
                          "quadrature"),
    "max-depth-not-integral": (lambda d: {**d, "quadrature": {**FAST_QUAD, "max_depth": 2.5}},
                               "quadrature"),
    # optional parameters are parsed before any check runs
    "samples-not-int": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": "many"}]), "'cs'"),
    "worst-k-not-int": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 50,
         "worst_k": "ten"}]), "'cs'"),
    "tolerance-not-float": (lambda d: _with_checks(d, [
        {"kind": "norm-identities", "name": "ni", "norm": "euclid",
         "tolerance": "tight"}]), "'ni'"),
    "grid-not-int": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "grid": "fine"}]), "'lm'"),
    "min-support-not-float": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "grid": 3,
         "min_support": [0.1]}]), "'lm'"),
    "count-not-int": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [3], "count": "some"}]), "'sy'"),
    "sizes-not-ints": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": ["three"], "count": 1}]), "'sy'"),
    "assert-constant-rel-not-float": (lambda d: _with_checks(d, [
        {**MONO, "assert_constant_rel": "flat"}]), "'m'"),
    "rel-tol-not-float": (lambda d: _with_checks(d, [
        {"kind": "corollary", "name": "co", "surface": "plane", "norm": "euclid",
         "origin_param": [0.0, 0.0], "expect": "equality", "rel_tol": "tiny"}]), "'co'"),
    "k-not-int": (lambda d: {**_with_checks(d, [
        {"kind": "minkowski", "name": "mk", "surface": "sph", "k": ["one"]}]),
        "surfaces": {"sph": {"kind": "sphere"}}}, "'mk'"),
    # integer options are parsed strictly too: int() would truncate these
    "samples-fraction": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 999.9}]), "'cs'"),
    "worst-k-bool": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 50,
         "worst_k": True}]), "'cs'"),
    "grid-fraction": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "grid": 2.5}]), "'lm'"),
    "count-fraction": (lambda d: _with_checks(d, [{**MONO, "count": 3.5}]), "'m'"),
    "sizes-fraction": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [3.5], "count": 1}]), "'sy'"),
    "k-fraction": (lambda d: {**_with_checks(d, [
        {"kind": "minkowski", "name": "mk", "surface": "sph", "k": [0.7]}]),
        "surfaces": {"sph": {"kind": "sphere"}}}, "'mk'"),
    # so are the seed and the dimension of a norm
    "seed-fraction": (lambda d: {**d, "seed": 2.5}, "seed"),
    "seed-bool": (lambda d: {**d, "seed": True}, "seed"),
    "euclidean-dim-fraction": (lambda d: {**d, "norms": {
        **d["norms"], "e": {"family": "euclidean", "dim": 2.5}}}, "'e'"),
    "quartic-dim-bool": (lambda d: {**d, "norms": {
        **d["norms"], "q": {"family": "quartic-regularized", "dim": True}}}, "'q'"),
    "euclidean-dim-zero": (lambda d: {**d, "norms": {
        **d["norms"], "e": {"family": "euclidean", "dim": 0}}}, "'e'"),
    "quadratic-matrix-empty": (lambda d: {**d, "norms": {
        **d["norms"], "q": {"family": "quadratic", "matrix": []}}}, "'q'"),
    # surface vectors and matrices of the wrong shape, and a zero normal
    "hyperplane-normal-short": (lambda d: {**d, "surfaces": {
        "plane": {"kind": "hyperplane", "normal": [0, 1]}}}, "'plane'"),
    "hyperplane-normal-zero": (lambda d: {**d, "surfaces": {
        "plane": {"kind": "hyperplane", "normal": [0, 0, 0]}}}, "'plane'"),
    "hyperplane-origin-short": (lambda d: {**d, "surfaces": {
        "plane": {"kind": "hyperplane", "origin": [0, 1]}}}, "'plane'"),
    "sphere-center-short": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "sph": {"kind": "sphere", "center": [0, 0]}}}, "'sph'"),
    "circle-center-long": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "c": {"kind": "circle", "center": [0, 0, 0]}}}, "'c'"),
    "ellipsoid-semiaxes-short": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "ell": {"kind": "ellipsoid", "semiaxes": [1, 2]}}}, "'ell'"),
    "transformed-catenoid-2x2": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "tc": {"kind": "transformed-catenoid", "matrix": [[1, 0], [0, 1]]}}},
        "'tc'"),
    "graph-coeffs-empty": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "g": {"kind": "graph", "coeffs": [[]]}}}, "'g'"),
    # scalar sizes out of range, and values that are not finite
    "catenoid-v-max-zero": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "cat": {"kind": "catenoid", "v_max": 0}}}, "'cat'"),
    "transformed-catenoid-v-max-negative": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "tc": {"kind": "transformed-catenoid", "v_max": -1.2,
                                "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]}}}, "'tc'"),
    "sphere-radius-zero": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "sph": {"kind": "sphere", "radius": 0.0}}}, "'sph'"),
    "circle-radius-negative": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "c": {"kind": "circle", "radius": -1.0}}}, "'c'"),
    "hyperplane-extent-zero": (lambda d: {**d, "surfaces": {
        "plane": {"kind": "hyperplane", "extent": 0}}}, "'plane'"),
    "line-extent-negative": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "ln": {"kind": "line", "extent": -4.0}}}, "'ln'"),
    "graph-extent-zero": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "g": {"kind": "graph", "coeffs": [0.0, 1.0], "extent": 0.0}}}, "'g'"),
    "enneper-extent-negative": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "en": {"kind": "enneper", "extent": -1.5}}}, "'en'"),
    "ellipsoid-semiaxis-negative": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "ell": {"kind": "ellipsoid", "semiaxes": [-1, -1.3, 1.7]}}}, "'ell'"),
    "ellipsoid-semiaxis-zero": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "ell": {"kind": "ellipsoid", "semiaxes": [1, 1.3, 0]}}}, "'ell'"),
    "sphere-radius-nan": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "sph": {"kind": "sphere", "radius": math.nan}}}, "'sph'"),
    "hyperplane-extent-inf": (lambda d: {**d, "surfaces": {
        "plane": {"kind": "hyperplane", "extent": math.inf}}}, "'plane'"),
    "catenoid-v-max-inf": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "cat": {"kind": "catenoid", "v_max": "inf"}}}, "'cat'"),
    "sphere-center-nan": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "sph": {"kind": "sphere", "center": [0, math.nan, 0]}}}, "'sph'"),
    "line-offset-inf": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "ln": {"kind": "line", "offset": -math.inf}}}, "'ln'"),
    "enneper-scale-zero": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "en": {"kind": "enneper", "scale": 0}}}, "'en'"),
    "graph-coeffs-nan": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "g": {"kind": "graph", "coeffs": [[0.0, math.nan]]}}}, "'g'"),
    "quartic-eps-nan": (lambda d: {**d, "norms": {
        **d["norms"], "q": {"family": "quartic-regularized", "eps": math.nan}}}, "'q'"),
    "quartic-eps-inf": (lambda d: {**d, "norms": {
        **d["norms"], "q": {"family": "quartic-regularized", "eps": math.inf}}}, "'q'"),
    # check options out of range: they would check nothing and pass, or
    # abort their check at run time
    "symfunc-count-negative": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [3], "count": -1}]), "'sy'"),
    "worst-k-negative": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 50,
         "worst_k": -3}]), "'cs'"),
    "condition-s-samples-zero": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 0}]), "'cs'"),
    "norm-identities-samples-zero": (lambda d: _with_checks(d, [
        {"kind": "norm-identities", "name": "ni", "norm": "euclid", "samples": 0}]), "'ni'"),
    "lemmas-grid-zero": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "grid": 0}]), "'lm'"),
    "sizes-zero": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [0], "count": 1}]), "'sy'"),
    "sizes-empty": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [], "count": 1}]), "'sy'"),
    "k-empty": (lambda d: {**_with_checks(d, [
        {"kind": "minkowski", "name": "mk", "surface": "sph", "k": []}]),
        "surfaces": {"sph": {"kind": "sphere"}}}, "'mk'"),
    "monotonicity-count-one": (lambda d: _with_checks(d, [
        {"kind": "monotonicity", "name": "m", "surface": "plane", "norm": "euclid",
         "count": 1}]), "'m'"),
    "seed-negative": (lambda d: {**d, "seed": -1}, "seed"),
    # sizes above their ceilings: each exits 2 before it is used, where 10^6
    # asked NumPy for GiB to TiB (or ran a scan of 10^6 rows)
    "quadrature-order-huge": (lambda d: {**d, "quadrature": {**FAST_QUAD, "order": 10**6}},
                              "quadrature 'order'"),
    "quadrature-grid-huge": (lambda d: {**d, "quadrature": {**FAST_QUAD, "grid": 10**6}},
                             "quadrature 'grid'"),
    "max-depth-huge": (lambda d: {**d, "quadrature": {**FAST_QUAD, "max_depth": 10**6}},
                       "quadrature 'max_depth'"),
    "condition-s-samples-huge": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 10**6}]), "'cs'"),
    "norm-identities-samples-huge": (lambda d: _with_checks(d, [
        {"kind": "norm-identities", "name": "ni", "norm": "euclid", "samples": 10**6}]), "'ni'"),
    "lemmas-grid-huge": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "grid": 10**6}]), "'lm'"),
    "sizes-huge": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [3, 10**6], "count": 1}]), "'sy'"),
    "symfunc-count-huge": (lambda d: _with_checks(d, [
        {"kind": "symfunc", "name": "sy", "sizes": [3], "count": 10**6}]), "'sy'"),
    "euclidean-dim-huge": (lambda d: {**d, "norms": {
        **d["norms"], "e": {"family": "euclidean", "dim": 10**6}}}, "'e'"),
    "quartic-dim-huge": (lambda d: {**d, "norms": {
        **d["norms"], "q": {"family": "quartic-regularized", "dim": 10**6}}}, "'q'"),
    # a verdict key with a typo would silently flip or default the verdict
    "condition-s-expect-typo": (lambda d: _with_checks(d, [
        {"kind": "condition-s", "name": "cs", "norm": "euclid", "samples": 50,
         "expect": "pas"}]), "'cs'"),
    "corollary-expect-typo": (lambda d: _with_checks(d, [
        {"kind": "corollary", "name": "co", "surface": "plane", "norm": "euclid",
         "expect": "equalty"}]), "'co'"),
    "assert-monotone-string": (lambda d: _with_checks(d, [
        {**MONO, "assert_monotone": "no"}]), "'m'"),
    # a Minkowski order outside 0..n-1 of its surface
    "k-above-n": (lambda d: {**_with_checks(d, [
        {"kind": "minkowski", "name": "mk", "surface": "sph", "k": [0, 5]}]),
        "surfaces": {"sph": {"kind": "sphere"}}}, "'mk'"),
    "k-negative-on-curve": (lambda d: {**_with_checks(d, [
        {"kind": "minkowski", "name": "mk", "surface": "c", "k": -1}]),
        "surfaces": {"c": {"kind": "circle"}}}, "'mk'"),
    # a key the kind does not read would be ignored (a misspelled radii ran
    # the default radii), and every key a kind reads is parsed before the run
    "radii-misspelled": (lambda d: _with_checks(d, [
        {"kind": "monotonicity", "name": "m", "surface": "plane", "norm": "euclid",
         "raddii": [0.4, 0.8]}]), "'m'"),
    "origin-param-not-numbers": (lambda d: _with_checks(d, [
        {"kind": "corollary", "name": "co", "surface": "plane", "norm": "euclid",
         "origin_param": "abc"}]), "'co'"),
    "origin-param-wrong-length": (lambda d: _with_checks(d, [
        {"kind": "corollary", "name": "co", "surface": "plane", "norm": "euclid",
         "origin_param": [0.0]}]), "'co'"),
    "constant-not-numbers": (lambda d: _with_checks(d, [
        {"kind": "lemmas", "name": "lm", "surface": "plane", "xi": "constant",
         "constant": ["a", "b", "c"]}]), "'lm'"),
    # a norm or surface key its family or kind does not read was ignored (a
    # misspelled radius built the unit sphere), a bool was read as a number,
    # and a negative tolerance ran its check, which then failed
    "sphere-radius-misspelled": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "sph": {"kind": "sphere", "raduis": 2}}}, "'sph'"),
    "norm-dim-misspelled": (lambda d: {**d, "norms": {
        **d["norms"], "e": {"family": "euclidean", "dimm": 3}}}, "'e'"),
    "catenoid-v-max-bool": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "cat": {"kind": "catenoid", "v_max": True}}}, "'cat'"),
    "assert-constant-rel-negative": (lambda d: _with_checks(d, [
        {**MONO, "assert_constant_rel": -1}]), "'m'"),
    # a scenario key nothing reads was ignored (a misspelled checks ran no
    # check and exited 0, a misspelled order ran at order 6), and an out that
    # is not a path escaped as a traceback
    "checks-misspelled": (lambda d: {"chekcs": d.pop("checks"), **d}, "'chekcs'"),
    "quadrature-order-misspelled": (lambda d: {**d, "quadrature": {"ordr": 3}}, "'ordr'"),
    "out-number": (lambda d: {**d, "out": 5}, "'out'"),
    "out-empty": (lambda d: {**d, "out": ""}, "'out'"),
    # a bool was read as 1 or 0 in a matrix or in graph coefficients
    "quadratic-matrix-bools": (lambda d: {**d, "norms": {
        **d["norms"], "qb": {"family": "quadratic",
                             "matrix": [[True, 0, 0], [0, True, 0], [0, 0, True]]}}}, "'qb'"),
    "catenoid-matrix-bools": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "tc": {"kind": "transformed-catenoid",
                                "matrix": [[True, 0, 0], [0, True, 0], [0, 0, True]]}}}, "'tc'"),
    "graph-coeffs-bool": (lambda d: {**d, "surfaces": {
        **d["surfaces"], "g": {"kind": "graph", "coeffs": [True, 0]}}}, "'g'"),
}


@pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
def test_config_fault_exits_2(fault, tmp_path, monkeypatch, capsys):
    make, named = CONFIG_FAULTS[fault]
    cfg = write_config(tmp_path, make(minimal_scenario(tmp_path / "out")))
    assert run_cli(["run", "--config", cfg], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("check,key", [
    ({**MONO, "raddii": [0.4, 0.8]}, "raddii"),
    ({**MONO, "xi": "normal"}, "xi"),
    ({"kind": "symfunc", "name": "m", "surface": "plane"}, "surface"),
    ({"kind": "equiaffine", "name": "m", "surface": "plane", "gauge": "euclid",
      "s": 0.4, "r": 0.8, "radii": [0.4, 0.8]}, "radii")])
def test_unread_check_key_is_a_config_error_naming_it(check, key):
    with pytest.raises(ConfigError, match=f"check 'm': .* does not read '{key}'"):
        cli.Scenario(_with_checks(minimal_scenario("out"), [check]))


# scenario-loader fuzz: the surface or the norm of the minimal scenario
# becomes one of a kind with one parameter drawn, of any JSON type
FUZZ_SURFACES = {"hyperplane": ("normal", "origin", "extent"), "sphere": ("radius", "center"),
                 "circle": ("radius", "center"), "ellipsoid": ("semiaxes",),
                 "transformed-catenoid": ("matrix", "v_max"), "graph": ("coeffs", "extent"),
                 "catenoid": ("v_max",), "line": ("offset", "extent"),
                 "enneper": ("scale", "extent")}
FUZZ_NORMS = {"euclidean": ("dim",), "quartic-regularized": ("dim", "eps"),
              "quadratic": ("matrix",)}
NOT_FINITE = [math.nan, math.inf, -math.inf]
fuzz_numbers = st.one_of(st.integers(-3, 3), st.sampled_from([0, 0.0, -1.0] + NOT_FINITE),
                         st.floats(-3.0, 3.0))
fuzz_scalars = st.one_of(fuzz_numbers, st.booleans(), st.text("a1 ,.", max_size=3))
fuzz_values = st.one_of(st.lists(fuzz_numbers, max_size=4), fuzz_scalars,
                        st.lists(fuzz_scalars, max_size=4))


@st.composite
def fuzz_case(draw):
    """("surfaces", spec) or ("norms", spec): a spec with one parameter drawn."""
    which, table, key = draw(st.sampled_from([("surfaces", FUZZ_SURFACES, "kind"),
                                              ("norms", FUZZ_NORMS, "family")]))
    kind = draw(st.sampled_from(sorted(table)))
    return which, {key: kind, draw(st.sampled_from(table[kind])): draw(fuzz_values)}


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(fuzz_case())
@example(("norms", {"family": "quartic-regularized", "dim": 3, "eps": math.nan}))
def test_scenario_loader_fuzz(case):
    # any parameters give a documented exit code, and never a traceback
    which, spec = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        os.environ.pop("WULFFKIT_OUT", None)
        doc = minimal_scenario(Path(tmp) / "out")
        doc[which] = {"surfaces": {"plane": spec}, "norms": {"euclid": spec}}[which]
        code = cli.main(["run", "--config", write_config(Path(tmp), doc)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    eps = spec.get("eps") if spec.get("family") == "quartic-regularized" else None
    if isinstance(eps, (int, float)) and not 0 < eps < math.inf:
        assert code == 2    # the quartic gauge is elliptic for 0 < eps < inf only


# the scalar sizes of each surface kind: one that is not finite and > 0 is a
# config fault, found before any check runs
SCALAR_RANGES = {"hyperplane": "extent", "sphere": "radius", "circle": "radius",
                 "catenoid": "v_max", "line": "extent", "graph": "extent",
                 "enneper": "extent", "transformed-catenoid": "v_max"}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCALAR_RANGES)),
       st.one_of(st.floats(max_value=0.0, allow_nan=False), st.sampled_from(NOT_FINITE)))
def test_scalar_range_fault_exits_2(kind, value):
    spec = {"kind": kind, SCALAR_RANGES[kind]: value}
    if kind == "transformed-catenoid":
        spec["matrix"] = [[1, 0, 0], [0, 1, 0], [0, 0, 4]]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        os.environ.pop("WULFFKIT_OUT", None)
        doc = minimal_scenario(Path(tmp) / "out")
        doc["surfaces"]["bad"] = spec
        code = cli.main(["run", "--config", write_config(Path(tmp), doc)])
        assert not (Path(tmp) / "out").exists()
    assert code == 2
    assert "config error" in err.getvalue() and "'bad'" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_every_kind_dispatches(tmp_path, monkeypatch, capsys):
    doc = {
        "seed": 0, "out": str(tmp_path / "out"), "quadrature": FAST_QUAD,
        "norms": {"e3": {"family": "euclidean", "dim": 3},
                  "q2": {"family": "quadratic", "matrix": [[1.0, 0.0], [0.0, 4.0]]}},
        "surfaces": {"plane": {"kind": "hyperplane", "extent": 2.0},
                     "sph": {"kind": "sphere"}, "cat": {"kind": "catenoid", "v_max": 1.3}},
        "checks": [
            {"kind": "norm-identities", "name": "ni", "norm": "e3", "samples": 50},
            {"kind": "condition-s", "name": "cs", "norm": "q2", "samples": 200},
            {"kind": "lemmas", "name": "lm", "surface": "sph", "grid": 3},
            {"kind": "monotonicity", "name": "mono", "surface": "plane", "norm": "e3",
             "radii": [0.4, 0.8]},
            {"kind": "equiaffine", "name": "aff", "surface": "cat", "gauge": "e3",
             "s": 1.2, "r": 1.6},
            {"kind": "corollary", "name": "co", "surface": "plane", "norm": "e3",
             "origin_param": [0.0, 0.0]},
            {"kind": "minkowski", "name": "mk", "surface": "sph", "k": [0, 1]},
            {"kind": "symfunc", "name": "sy", "sizes": [3], "count": 2},
        ],
    }
    assert sorted(c["kind"] for c in doc["checks"]) == sorted(cli.CHECKS)
    cfg = write_config(tmp_path, doc)
    assert run_cli(["run", "--config", cfg], monkeypatch) == 0, capsys.readouterr().out
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert written == sorted(f"{kind.replace('-', '_')}.csv" for kind in cli.CHECKS)


def test_nan_lemma_residual_fails_the_check(monkeypatch):
    suite = cli.vf.frame_identity_suite

    def with_nan(*args, **kwargs):
        res = suite(*args, **kwargs)
        res["codazzi"] = float("nan")
        return res

    monkeypatch.setattr(cli.vf, "frame_identity_suite", with_nan)
    scn = cli.Scenario({"surfaces": {"s": {"kind": "sphere"}},
                        "checks": [{"kind": "lemmas", "name": "l", "surface": "s",
                                    "grid": 3}]})
    assert cli._check_lemmas(scn, "l", scn.checks[0][2]).status == "fail"


def test_nan_symfunc_residual_fails_the_check(monkeypatch):
    residuals = cli.sym.trace_identity_residuals

    def with_nan(*args, **kwargs):
        return float("nan"), residuals(*args, **kwargs)[1]

    monkeypatch.setattr(cli.sym, "trace_identity_residuals", with_nan)
    scn = cli.Scenario({"checks": [{"kind": "symfunc", "name": "s", "sizes": [3],
                                    "count": 2}]})
    assert cli._check_symfunc(scn, "s", scn.checks[0][2]).status == "fail"


def test_scaled_recursion_fails_the_newton_suite(monkeypatch):
    # sigma_k (k >= 1) of the recursion off by 1e-6 relative: the minors oracle sees it
    recursion = cli.sym.newton_tensors

    def scaled(A, k):
        tensors, sigmas = recursion(A, k)
        sigmas[..., 1:] *= 1.0 + 1e-6
        return tensors, sigmas

    scn = cli.Scenario(cli.load_config("identity-suite"))
    name, chk = next((name, chk) for name, kind, chk in scn.checks if kind == "symfunc")
    assert name == "newton-suite"
    assert cli._check_symfunc(scn, name, chk).status == "pass"
    monkeypatch.setattr(cli.sym, "newton_tensors", scaled)
    outcome = cli._check_symfunc(scn, name, chk)
    assert outcome.status == "fail"
    assert [row["check"] for row in outcome.rows if not row["pass"]][0] == "recursion_vs_minors"


def test_verdict_keys_parse_their_documented_values():
    # the default, then every documented value, reads back as given
    for kind, key, values in (("condition-s", "expect", ("pass", "fail")),
                              ("corollary", "expect", ("bound", "equality", "strict")),
                              ("monotonicity", "assert_monotone", (True, False))):
        assert cli._options(kind, {})[key] == values[0]
        for value in values:
            assert cli._options(kind, {key: value})[key] == value


def test_readme_check_table_lists_the_registry():
    # README's table of check kinds lists each kind of cli.CHECKS, its
    # required fields, and every optional parameter with its default (as
    # JSON), so that the registry and the documentation cannot drift apart
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| kind | required fields | parameters (default) |") + 2
    table = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        kind, fields, params = (cell.strip() for cell in line.strip("|").split("|"))
        table[kind.strip("`")] = (
            re.findall(r"`(\w+)`", fields),
            {key: json.loads(default.replace("`", ""))
             for key, default in re.findall(r"`(\w+)` \(([^;)]*)", params)})
    assert table == {kind: (list(fields), {key: json.loads(json.dumps(default))
                                           for key, (_, default) in optional.items()})
                     for kind, (fields, optional) in cli.CHECKS.items()}

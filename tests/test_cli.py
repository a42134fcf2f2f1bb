import json
import os
import threading

import pytest

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


def test_jobs_flag_deterministic(tmp_path, monkeypatch):
    doc = minimal_scenario(tmp_path / "o1")
    doc["checks"].append({"kind": "symfunc", "name": "newton", "sizes": [3],
                          "count": 3})
    cfg = write_config(tmp_path, doc)
    threads = []
    for kind in ("monotonicity", "symfunc"):
        check = getattr(cli, "_check_" + kind)

        def recorded(*args, _check=check):
            threads.append(threading.current_thread())
            return _check(*args)
        monkeypatch.setattr(cli, "_check_" + kind, recorded)
    assert run_cli(["run", "--config", cfg, "--jobs", "1",
                    "--out", str(tmp_path / "o1")], monkeypatch) == 0
    assert threads == [threading.main_thread()] * 2
    threads.clear()
    assert run_cli(["run", "--config", cfg, "--jobs", "2",
                    "--out", str(tmp_path / "o2")], monkeypatch) == 0
    assert len(threads) == 2 and threading.main_thread() not in threads
    for fname in ("monotonicity.csv", "symfunc.csv"):
        assert (tmp_path / "o1" / fname).read_bytes() == (tmp_path / "o2" / fname).read_bytes()


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
}


@pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
def test_config_fault_exits_2(fault, tmp_path, monkeypatch, capsys):
    make, named = CONFIG_FAULTS[fault]
    cfg = write_config(tmp_path, make(minimal_scenario(tmp_path / "out")))
    assert run_cli(["run", "--config", cfg], monkeypatch) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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

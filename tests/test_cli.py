"""Tests for config validation, the experiment registry and the
command-line front end (exit codes, determinism, artifacts)."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mdirac
from mdirac.cli import main
from mdirac.experiments import (
    EXPERIMENTS,
    CheckSet,
    ConfigError,
    ExperimentConfig,
    list_experiments,
    parse_config,
    run_experiment,
)


# ----------------------------------------------------------------------
# config parsing and registry
# ----------------------------------------------------------------------


def test_parse_config_minimal():
    cfg = parse_config({"experiment": "hygiene"})
    assert cfg.experiment == "hygiene"
    assert cfg.seed == 0
    assert cfg.model == {} and cfg.numerics == {}
    assert cfg.output_dir is None


def test_parse_config_full():
    cfg = parse_config({"experiment": "dsp_case2", "seed": 11,
                        "output_dir": "out",
                        "model": {"g": 0.0}, "numerics": {"K": 3}})
    assert cfg.seed == 11
    assert cfg.model == {"g": 0.0}
    assert cfg.numerics == {"K": 3}


@pytest.mark.parametrize("data,frag", [
    ([1, 2], "JSON object"),
    ({"experiment": "hygiene", "bogus": 1}, "unknown config keys"),
    ({}, "experiment"),
    ({"experiment": "no_such"}, "unknown experiment"),
    ({"experiment": "hygiene", "seed": "abc"}, "seed"),
    ({"experiment": "hygiene", "seed": True}, "seed"),
    ({"experiment": "hygiene", "output_dir": 3}, "output_dir"),
    ({"experiment": "hygiene", "model": 5}, "model"),
    ({"experiment": "hygiene", "numerics": []}, "numerics"),
])
def test_parse_config_rejects(data, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config(data)


def test_registry_contains_required_experiments():
    required = {"dsp_case2", "dsp_case3", "dsp_case4",
                "dsp_static_negative", "neumann_flow", "moser_separable",
                "ks_diagnostic", "oscillator_bnf"}
    assert required <= set(EXPERIMENTS)
    names = [n for n, _ in list_experiments()]
    assert names == sorted(EXPERIMENTS)
    assert all(desc for _, desc in list_experiments())


def test_unknown_numerics_key_rejected():
    with pytest.raises(ConfigError, match="numerics key"):
        run_experiment(ExperimentConfig("ks_diagnostic",
                                        numerics={"bogus": 1}))


def test_unknown_model_key_rejected():
    with pytest.raises(ConfigError, match="model key"):
        run_experiment(ExperimentConfig("oscillator_bnf",
                                        model={"gamma": 2.0}))


def test_nonpositive_tolerance_rejected():
    cfg = ExperimentConfig("ks_diagnostic",
                           numerics={"tolerances": {"hopf_norm_identity": 0}})
    with pytest.raises(ConfigError, match="positive"):
        run_experiment(cfg)


def test_unmatched_tolerance_override_rejected():
    cfg = ExperimentConfig("ks_diagnostic",
                           numerics={"tolerances": {"no_such_check": 1e-3}})
    with pytest.raises(ConfigError, match="match no check"):
        run_experiment(cfg)


def test_checkset_refuses_unlisted_checks():
    names = EXPERIMENTS["ks_diagnostic"].checks
    with pytest.raises(ConfigError, match="match no check"):
        CheckSet(names, {"origin_not_regular": 1e-3})  # a flag has no tol
    checks = CheckSet(names, {})
    with pytest.raises(ValueError, match="not listed"):
        checks.bound("no_such_check", 0.0, 1.0)
    with pytest.raises(ValueError, match="not listed"):
        checks.bound("origin_not_regular", 0.0, 1.0)
    assert checks.table == {}


def test_tolerance_override_flips_outcome():
    cfg = ExperimentConfig("ks_diagnostic", numerics={
        "tolerances": {"bl_phase_invariance": 1e-30}})
    report, _ = run_experiment(cfg)
    assert report["passed"] is False
    assert report["checks"]["bl_phase_invariance"]["passed"] is False
    # everything else still passes
    others = [c["passed"] for n, c in report["checks"].items()
              if n != "bl_phase_invariance"]
    assert all(others)


def test_report_is_json_ready():
    report, artifacts = run_experiment(ExperimentConfig("oscillator_bnf"))
    blob = json.dumps(report, sort_keys=True)
    back = json.loads(blob)
    assert back["passed"] is True
    assert isinstance(back["checks"]["commutation"]["value"], float)
    nf = json.loads(json.dumps(artifacts["nf_result.json"]))
    assert nf["frequencies"] == [1.0]


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_empty_args(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ks_diagnostic" in out and "dsp_case2" in out


def test_cli_list_json(capsys):
    assert main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in data["experiments"]]
    assert names == sorted(names)
    assert "moser_separable" in names


def test_cli_run_pass(tmp_path, capsys):
    cfg = _write(tmp_path / "ks.json", {"experiment": "ks_diagnostic"})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["experiment"] == "ks_diagnostic"
    assert "PASS" in capsys.readouterr().out


def test_cli_run_deterministic(tmp_path):
    cfg = _write(tmp_path / "ks.json",
                 {"experiment": "ks_diagnostic", "seed": 4})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    # seed override is recorded and changes the sampled numbers
    assert main(["run", cfg, "--out", str(c), "--seed", "5"]) == 0
    other = json.loads((c / "report.json").read_text())
    assert other["seed"] == 5
    assert (c / "report.json").read_bytes() != (a / "report.json").read_bytes()


def test_cli_run_check_failure_still_writes_report(tmp_path):
    cfg = _write(tmp_path / "f.json", {
        "experiment": "ks_diagnostic",
        "numerics": {"tolerances": {"hopf_norm_identity": 1e-30}}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_cli_config_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err

    unknown = _write(tmp_path / "u.json",
                     {"experiment": "ks_diagnostic", "bogus": True})
    assert main(["run", unknown]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    noexp = _write(tmp_path / "n.json", {"experiment": "no_such"})
    assert main(["run", noexp]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("numerics", [
    {"n_probes": 0}, {"K": 4.7}, {"chart_degree": -1},
    {"field_probes": 2.5}])
def test_cli_rejects_bad_integer_numerics(tmp_path, capsys, numerics):
    cfg = _write(tmp_path / "c.json",
                 {"experiment": "dsp_case3", "numerics": numerics})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# Each config is refused with exit 2 before its runner starts; the
# fragment names the broken rule.
_REFUSED = [
    ("neumann_flow", {"numerics": {"dt": 0}}, "numerics key 'dt'"),
    ("ks_diagnostic", {"seed": -1}, "seed"),
    ("oscillator_bnf", {"model": {"beta": "x"}}, "model key 'beta'"),
    ("dsp_static_negative", {"model": {"m1": "abc"}}, "model key 'm1'"),
    ("dsp_static_negative", {"model": {"m1": -1}}, "model key 'm1'"),
    ("moser_separable", {"model": {"omega": [1, 2]}}, "model key 'omega'"),
    ("moser_separable", {"numerics": {"eps": ["a"]}}, "numerics key 'eps'"),
    ("dsp_case3", {"model": {"l1": 1.3}}, "case 3 domain"),
    ("oscillator_bnf", {"numerics": {"K": 3}}, "numerics key 'K'"),
    ("ks_diagnostic", {"model": {"bogus": 1}}, "unknown model key"),
    ("hygiene", {"model": {"bogus": 1}}, "unknown model key"),
    ("ks_diagnostic",
     {"numerics": {"tolerances": {"bl_phase_invariance": True}}},
     "tolerance 'bl_phase_invariance'"),
    ("moser_separable", {"numerics": {"eps": []}}, "numerics key 'eps'"),
    ("neumann_flow", {"numerics": {"T": 1e-4}}, "at least dt"),
    ("dsp_case2", {"numerics": {"chart_degree": 3}}, "at least K"),
    ("neumann_flow", {"numerics": {"dt": 10 ** 400}}, "numerics key 'dt'"),
    ("dsp_case2", {"numerics": {"tolerances": {"no_such_check": 1e-3}}},
     "match no check"),
]


@pytest.mark.parametrize("name,config,frag", _REFUSED)
def test_cli_refuses_before_running(tmp_path, capsys, monkeypatch, name,
                                    config, frag):
    def runner(cfg, checks):
        raise AssertionError("runner entered")

    monkeypatch.setitem(EXPERIMENTS, name,
                        dataclasses.replace(EXPERIMENTS[name], runner=runner))
    cfg = _write(tmp_path / "c.json", dict(config, experiment=name))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert frag in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_seed_flag_is_validated(tmp_path, capsys):
    cfg = _write(tmp_path / "ks.json", {"experiment": "ks_diagnostic"})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_registry_defaults_validate():
    for name, rec in EXPERIMENTS.items():
        model = {k: d for k, (_, d) in rec.model.items() if d is not None}
        numerics = {k: d for k, (_, d) in rec.numerics.items()}
        cfg = ExperimentConfig(name, model=model, numerics=numerics)
        default = ExperimentConfig(name)
        assert cfg.params == default.params and cfg.num == default.num


def test_spin_selector_replaces_default():
    cfg = ExperimentConfig("dsp_case2", model={"mu": 0.5})
    assert cfg.params["mu"] == 0.5 and cfg.params["omega"] is None
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig("dsp_case2", model={"mu": 0.5, "omega": 1.0})


def test_cli_list_json_schema(capsys):
    assert main(["list", "--json"]) == 0
    rows = {e["name"]: e for e in json.loads(capsys.readouterr().out)
            ["experiments"]}
    case2 = rows["dsp_case2"]
    assert case2["numerics"]["K"] == {"kind": "positive integer >= 3",
                                      "default": 4}
    assert case2["model"]["mu"] == {"kind": "finite real", "default": None}
    assert "chart_degree >= K" in case2["rules"]
    assert rows["neumann_flow"]["rules"] == ["T >= dt"]
    assert case2["checks"]["field_negative_control"] == "min"
    assert case2["checks"]["normal_form_completed"] == "flag"
    assert "normal_form_refused" in rows["dsp_case3"]["checks"]
    assert rows["hygiene"]["checks"] == {"gradient_max_rel_err": "max",
                                         "jacobi_defect": "max"}


def test_hygiene_audits_every_constraint(tmp_path):
    cfg = _write(tmp_path / "hy.json", {"experiment": "hygiene",
                                        "numerics": {"n_points": 2}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["gradient_rel_err"]) == [
        "dsp_H", "dsp_J", "dsp_sphere1", "dsp_sphere2", "dsp_tangent1",
        "dsp_tangent2", "ks_BL", "neumann_H", "separable_H"]


def test_cli_writes_nf_artifact(tmp_path):
    cfg = _write(tmp_path / "bnf.json",
                 {"experiment": "oscillator_bnf", "model": {"beta": 0.5},
                  "output_dir": str(tmp_path / "deep" / "out")})
    assert main(["run", cfg]) == 0
    nf = json.loads((tmp_path / "deep" / "out" / "nf_result.json")
                    .read_text())
    assert nf["frequencies"] == [1.0]
    assert "4" in nf["resonant_terms"]


def test_cli_numerics_override_and_csv(tmp_path):
    cfg = _write(tmp_path / "nm.json", {
        "experiment": "neumann_flow",
        "numerics": {"T": 2.0, "n_probes": 10}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "neumann_flow.csv").read_text().splitlines()
    assert lines[0].startswith("t,x1,x2,x3,x4,x5,x6,diag:")
    assert len(lines) > 100


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate also loads scipy's optimize, sparse, spatial and
    # special; only the oscillator_bnf experiment needs it
    env = dict(os.environ)
    src = str(pathlib.Path(mdirac.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mdirac.cli; "
         "print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_log_env(monkeypatch, capsys):
    monkeypatch.setenv("MDIRAC_LOG", "debug")
    assert main(["list"]) == 0
    monkeypatch.setenv("MDIRAC_LOG", "weird")
    assert main(["list"]) == 0

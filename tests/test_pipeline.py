import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbmlab.cli import main as cli_main
from bbmlab.drift import CBAR_CRITICAL
from bbmlab.pipeline import (SAMPLE_DTAU, ConfigError, _DEFAULTS, _validate_config,
                             load_config, make_config, parse_config, rate_report,
                             resolved_run, run_experiment, selfsimilar_run)


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == _DEFAULTS


def test_parse_config_values():
    cfg = parse_config("""
# comment line
cbar = 0.0
dx = 0.02          # inline comment
v0.kind = smooth_bump
mc.replicas = 16
fit.window = 5,9
""")
    assert cfg["cbar"] == 0.0
    assert cfg["dx"] == 0.02
    assert cfg["v0.kind"] == "smooth_bump"
    assert cfg["mc.replicas"] == 16
    assert cfg["fit.window"] == (5.0, 9.0)


def test_parse_config_unknown_key_named():
    with pytest.raises(ConfigError, match="flux_capacitor"):
        parse_config("flux_capacitor = 1.21")


def test_parse_config_bad_line():
    with pytest.raises(ConfigError):
        parse_config("just words")


def test_make_config_coerces_values_and_text():
    cfg = make_config({"mc.replicas": "16", "cbar": 0, "fit.window": (5, 9), "mc.seed": " 3 "})
    assert cfg["mc.replicas"] == 16 and cfg["cbar"] == 0.0 and cfg["mc.seed"] == 3
    assert cfg["fit.window"] == (5.0, 9.0)
    assert all(type(v) is type(_DEFAULTS[k]) for k, v in cfg.items())
    assert make_config({"dx": 0.02}, base=cfg)["mc.replicas"] == 16
    for overrides, named in [({"mc.replicas": 2.5}, "mc.replicas"),
                             ({"mc.replicas": "1e5"}, "mc.replicas"),
                             ({"fit.window": "5"}, "fit.window"), ({"dx": None}, "dx"),
                             ({"x_max": 10**400}, "x_max"), ({"dx": 5e-324}, "dx")]:
        with pytest.raises(ConfigError, match=named.replace(".", r"\.")):
            make_config(overrides)


_KEYS = sorted(_DEFAULTS)
_VALUE_TEXT = st.one_of(
    st.text(max_size=12), st.floats().map(repr), st.integers().map(str),
    st.tuples(st.floats(), st.floats()).map(lambda t: f"{t[0]!r},{t[1]!r}"),
    st.sampled_from(["indicator", "smooth_bump"]))
_LINE = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)),
              _VALUE_TEXT))


@settings(deadline=None)
@given(st.lists(_LINE, max_size=8).map("\n".join))
@example("dx = 5e-324")
@example("x_max = 1e308\ndx = 1e-308")
@example("mc.replicas = " + "9" * 5000)
@example("fit.window = 1,2,3")
def test_parse_config_any_text_is_valid_or_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    _validate_config(cfg)
    assert all(type(v) is type(_DEFAULTS[k]) for k, v in cfg.items())


@st.composite
def _valid_overrides(draw):
    positive = st.floats(1e-3, 1e3)
    fraction = st.floats(0.0, 1.0)
    dx = draw(st.floats(1e-3, 1.0))
    x_max = dx * draw(st.integers(10, 10**5))
    dy = draw(st.floats(1e-3, 1.0))
    y_max = dy * draw(st.integers(math.ceil(20.0 / dy) + 1, 10**5))
    tau_end = draw(positive)
    lo, hi = 0.5 * draw(fraction), 0.6 + 0.4 * draw(fraction)
    a = x_max * (1e-6 + 0.4 * draw(fraction))
    return {
        "cbar": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "x_max": x_max, "dx": dx, "y_max": y_max, "dy": dy,
        "dt": draw(positive), "t_end": draw(positive), "t_handoff": draw(fraction),
        "tau_end": tau_end, "dtau": draw(positive),
        "fit.window": (tau_end * lo, tau_end * hi),
        "v0.kind": draw(st.sampled_from(["indicator", "smooth_bump"])),
        "v0.a": a, "v0.b": a + x_max * (0.1 + 0.4 * draw(fraction)),
        "mc.drift": draw(st.floats(-1e3, 1e3)), "mc.x0": draw(positive),
        "mc.t_end": draw(fraction), "mc.replicas": draw(st.integers(1, 10**9)),
        "mc.seed": draw(st.integers(0, 2**64)),
    }


def _as_text(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@settings(deadline=None)
@given(_valid_overrides())
def test_valid_config_text_roundtrips(overrides):
    cfg = make_config(overrides)
    text = "\n".join(f"{key} = {_as_text(value)}" for key, value in cfg.items())
    assert parse_config(text) == cfg


def test_run_experiment_empty_pipelines(tmp_path):
    out = run_experiment(None, tmp_path / "o", [])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {}
    assert manifest["pipelines"] == []
    assert not (out / "summary.json").exists()


def test_run_experiment_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        run_experiment({"bogus": 1.0}, tmp_path / "o", [])


def test_run_experiment_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment({"dt": -0.01}, tmp_path / "o", ["solve"])
    with pytest.raises(ConfigError):
        run_experiment({"y_max": 10.0}, tmp_path / "o", [])


def test_manifest_hashes_outputs(tmp_path):
    out = run_experiment({"cbar": 0.0}, tmp_path / "o", ["specfun"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert "specfun_table.csv" in manifest["files"]
    assert "summary.json" in manifest["files"]
    assert "wall_clock_seconds" in manifest and "specfun" in manifest["wall_clock_seconds"]
    assert manifest["version"]
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest


def test_solve_pipeline_writes_series(tmp_path):
    out = run_experiment({"t_end": 1.0, "dx": 0.02, "dt": 0.02}, tmp_path / "o", ["solve"])
    files = list(out.glob("physical_cbar*.csv"))
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "t,mass,slope0,flux_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initial_overlap"]["weighted"] == pytest.approx(math.e**2, abs=1e-2)


def test_reproduce_theorem_summary_has_resolution_block(tmp_path):
    out = run_experiment(None, tmp_path / "o", ["reproduce-theorem"])
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"alpha0", "alpha0_methods", "fits", "prefactor_check", "resolution"}
    res = summary["resolution"]
    assert (res["dy"], res["dtau"]) == (0.05, 0.01)
    assert res["partner"] == {"dy": 0.1, "dtau": 0.02}
    assert set(res["error"]) == set(summary["alpha0"]) == {"0", "5.31736", "10"}
    for key, err in res["error"].items():
        fits = [f for f in summary["fits"] if f"{f['cbar']:.6g}" == key]
        assert set(err["exponents"]) == {f"{f['observable']}.{f['model']}" for f in fits}
        values = [err["alpha0"], err["prefactor"], *err["exponents"].values()]
        assert all(0.0 < v < 0.01 for v in values), (key, err)
        # the samples the fits use are SAMPLE_DTAU apart in tau over fit.window = (6, 10)
        assert all(f["n_samples"] == round(4.0 / SAMPLE_DTAU) + 1 for f in fits)


def test_fine_grid_regression_at_the_critical_cbar():
    # the resolution of the earlier defaults (dy = 0.01, dtau = 0.002) against
    # the current ones; the Richardson estimate of the current run's error is
    # not below a third of its actual distance from the fine run
    fine_run = selfsimilar_run(CBAR_CRITICAL, {"dy": 0.01, "dtau": 0.002})
    fine = rate_report(CBAR_CRITICAL, *fine_run)
    _, _, report, errors = resolved_run(CBAR_CRITICAL)
    gap = abs(report["alpha0"] - fine["alpha0"])
    assert gap <= 1e-4 * fine["alpha0"]
    assert errors["alpha0"] >= gap / 3.0
    for f, g in zip(fine["fits"], report["fits"]):
        assert (f["observable"], f["model"], f["n_samples"]) == (g["observable"], g["model"],
                                                                 g["n_samples"])
        gap = abs(f["exponent"] - g["exponent"])
        assert gap <= 0.005, f
        assert errors["exponents"][f"{f['observable']}.{f['model']}"] >= gap / 3.0
    gap = abs(report["prefactor_check"]["estimate"] - fine["prefactor_check"]["estimate"])
    assert errors["prefactor"] >= gap / 3.0


def test_mc_pipeline_writes_result(tmp_path):
    out = run_experiment({"mc.replicas": 4000, "mc.seed": 3}, tmp_path / "o", ["mc"])
    result = json.loads((out / "mc_result.json").read_text())
    assert result["replicas"] == 4000
    assert "dt" not in result["config"]   # the sampler has no time step
    # e^3 int_1^2 of the killed drift-2 density from 1.5 (method of images)
    assert abs(result["mean"] - 0.0913334) <= 3.0 * result["stderr"]


def test_cli_specfun_json(capsys):
    rc = cli_main(["specfun", "--z", "0.1", "--alpha", "1.0", "--cbar", "0.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["F2"] == pytest.approx(6.756842535547e-3, abs=1e-9)
    assert out["g_slope0"] == pytest.approx(-3 * math.sqrt(math.pi), abs=1e-12)


def test_cli_specfun_json_valid_past_overflow(capsys):
    # F2 and H overflow float64 at z = 800, and their series do not converge
    # there: they print as null, G and g (closed-form tail) as numbers
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert cli_main(["specfun", "--z", "800"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["F2"] is None and out["H"] is None
    assert out["F2_scaled"] is None and out["H_scaled"] is None
    assert math.isfinite(out["G"]) and math.isfinite(out["g"])

    assert cli_main(["specfun", "--z", "300"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    # leading terms of the asymptotic series, corrected at order 1/z
    assert out["F2_scaled"] == pytest.approx(math.sqrt(math.pi) * 300.0**-1.5, rel=2e-2)
    assert out["H_scaled"] == pytest.approx(-0.25 * 300.0**-1.5, rel=2e-2)
    assert out["F2"] == pytest.approx(out["F2_scaled"] * math.exp(300.0), rel=1e-12)


def test_cli_specfun_wants_one_of_z_y(capsys):
    rc = cli_main(["specfun", "--z", "1.0", "--y", "2.0"])
    assert rc == 2


def test_cli_mc_small(tmp_path, capsys):
    rc = cli_main(["mc", "--drift", "2.0", "--x0", "1.5", "--t-end", "0.5",
                   "--replicas", "500", "--seed", "9", "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    out = json.loads(printed)
    assert out["replicas"] == 500
    assert out["stderr"] > 0
    assert out["config"]["drift"] == 2.0
    assert out["config"]["seed"] == 9
    assert out["config"]["v0"] == {"kind": "indicator", "a": 1.0, "b": 2.0}
    assert "dt" not in out["config"]   # the sampler has no time step
    # the mc pipeline wrote what was printed, with a summary and a manifest
    assert printed.strip() == (tmp_path / "mc_result.json").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) == {"mc_result.json", "summary.json"}
    assert manifest["config"]["mc.replicas"] == 500


def test_cli_mc_honours_config_file(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mc.replicas = 300\nmc.t_end = 0.5\nmc.seed = 4\n")
    assert cli_main(["--config", str(cfg), "mc", "--out", str(tmp_path / "a")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicas"] == 300
    assert out["config"]["t_end"] == 0.5 and out["config"]["seed"] == 4
    # a flag overrides the file's key
    assert cli_main(["mc", "--config", str(cfg), "--replicas", "200",
                     "--out", str(tmp_path / "b")]) == 0
    assert json.loads(capsys.readouterr().out)["replicas"] == 200


def test_cli_global_seed_reaches_mc(tmp_path, capsys):
    argv = ["mc", "--replicas", "300", "--t-end", "0.5"]
    assert cli_main(["--seed", "5", *argv, "--out", str(tmp_path / "a")]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert seeded["config"]["seed"] == 5
    assert cli_main([*argv, "--out", str(tmp_path / "b")]) == 0
    default = json.loads(capsys.readouterr().out)
    assert default["config"]["seed"] == _DEFAULTS["mc.seed"]
    assert seeded["mean"] != default["mean"]
    ref = run_experiment({"mc.replicas": 300, "mc.t_end": 0.5, "mc.seed": 5},
                         tmp_path / "c", ["mc"])
    assert json.loads((ref / "mc_result.json").read_text()) == seeded


@pytest.mark.parametrize("text, named", [
    ("unknown_key = 3", "unknown_key"),
    ("mc.replicas = 1e5", "mc.replicas"),
    ("dx = abc", "dx"),
    ("cbar = nan", "cbar"),
    ("fit.window = 11,12", "fit.window"),
    ("mc.x0 = -1", "mc.x0"),
    ("mc.x0 = 0", "mc.x0"),
    ("dx = 0.07", "dx"),
    ("dy = 0.03", "dy"),
    ("mc.t_end = -1", "mc.t_end"),
    ("dx = nan", "dx"),
    ("x_max = inf", "x_max"),
    ("mc.drift = nan", "mc.drift"),
    ("dx = abc\ndx = 0.02", "dx"),
    (None, "bad.cfg"),
    (b"cbar = 1\n# \xff\xfe\n", "bad.cfg"),
    ("n_modes = 12", "n_modes"),   # not a key: the trajectory CSV always has 8 modes
], ids=["unknown_key", "replicas_float", "dx_text", "cbar_nan", "window_beyond_tau_end",
        "mc_x0_negative", "mc_x0_zero", "dx_not_dividing_x_max", "dy_not_dividing_y_max",
        "mc_t_end_negative", "dx_nan", "x_max_inf", "mc_drift_nan", "dx_set_twice",
        "missing_file", "not_utf8", "n_modes_unknown"])
def test_cli_bad_config_exits_2(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.cfg"      # text None: the file does not exist
    if isinstance(text, bytes):
        bad.write_bytes(text)
    elif text is not None:
        bad.write_text(text + "\n")
    rc = cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "solve"])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["specfun", "--z", "1", "--cbar", "nan"], "--cbar"),
    (["specfun", "--z", "1", "--alpha", "inf"], "--alpha"),
    (["specfun", "--z", "nan"], "--z"),
    (["specfun", "--y", "inf"], "--y"),
    (["specfun", "--z", "-1"], "--z"),
    (["specfun", "--y", "1e200"], "--y"),
    (["mc", "--replicas", "0"], "mc.replicas"),
    (["mc", "--x0", "-1"], "mc.x0"),
    (["mc", "--dt", "0"], "--dt"),   # the exact sampler has no time step: unknown flag
    (["mc", "--drift", "nan"], "mc.drift"),
    (["mc", "--a", "3", "--b", "1"], "v0.a"),
    (["mc", "--replicas", "1e5"], "mc.replicas"),
    (["mc", "--seed", "-1"], "mc.seed"),
    (["--seed", "x", "solve"], "mc.seed"),
    (["solve", "--cbar", "nan"], "cbar"),
    (["fit"], "'fit'"),   # selfsim writes the rate fits: no fit subcommand
], ids=["specfun_cbar_nan", "specfun_alpha_inf", "specfun_z_nan", "specfun_y_inf",
        "specfun_z_negative", "specfun_y_overflows", "mc_replicas_0", "mc_x0_negative", "mc_dt_0",
        "mc_drift_nan", "mc_empty_payoff_support", "mc_replicas_float", "mc_seed_negative",
        "seed_text", "solve_cbar_nan", "no_fit_subcommand"])
def test_cli_bad_arguments_exit_2(capsys, argv, named):
    try:
        rc = cli_main(argv)
    except SystemExit as exc:   # argparse exits with code 2 on an unknown flag
        rc = exc.code
    assert rc == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_cli_mc_population_cap_exits_3(tmp_path, monkeypatch, capsys):
    import bbmlab.pipeline as pipeline_mod
    from bbmlab.mc import McConfig

    monkeypatch.setattr(pipeline_mod, "McConfig", functools.partial(McConfig, population_cap=50))
    rc = cli_main(["mc", "--drift", "0", "--x0", "5", "--t-end", "2", "--replicas", "40",
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "population cap 50" in capsys.readouterr().err


def test_runtime_paths_do_not_import_mpmath(tmp_path):
    # mpmath is a test-only oracle: the g profile, the closed-form tail and the
    # specfun pipeline run without it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from bbmlab.pipeline import run_experiment\n"
        "from bbmlab.specfun import G_explicit, g_profile\n"
        "g_profile(1.0, 2.0, np.linspace(0.0, 25.0, 2501))\n"
        "G_explicit(50.0, 1.0, 2.0)\n"
        f"run_experiment({{'cbar': 2.0}}, {str(tmp_path / 'o')!r}, ['specfun'])\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    from bbmlab.pde import NumericalFailure
    import bbmlab.cli as cli_mod

    def boom(*a, **k):
        raise NumericalFailure("synthetic blow-up")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    rc = cli_main(["--out", str(tmp_path / "o"), "solve"])
    assert rc == 3
    assert "synthetic blow-up" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("cbar = 0\nt_end = 0.5\ndx = 0.02\ndt = 0.02\n")
    cfg = load_config(p)
    assert cfg["cbar"] == 0.0
    out = run_experiment(p, tmp_path / "o", ["solve"])
    assert (out / "manifest.json").exists()

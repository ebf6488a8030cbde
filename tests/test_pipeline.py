import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bbmlab.cli import main as cli_main
from bbmlab.pipeline import (ConfigError, _DEFAULTS, load_config, parse_config,
                             run_experiment)


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == _DEFAULTS


def test_parse_config_values():
    cfg = parse_config("""
# comment line
cbar = 0.0
dx = 0.02          # inline comment
v0.kind = smooth_bump
n_modes = 16
fit.window = 5,9
""")
    assert cfg["cbar"] == 0.0
    assert cfg["dx"] == 0.02
    assert cfg["v0.kind"] == "smooth_bump"
    assert cfg["n_modes"] == 16
    assert cfg["fit.window"] == (5.0, 9.0)


def test_parse_config_unknown_key_named():
    with pytest.raises(ConfigError, match="flux_capacitor"):
        parse_config("flux_capacitor = 1.21")


def test_parse_config_bad_line():
    with pytest.raises(ConfigError):
        parse_config("just words")


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


def test_cli_specfun_json(capsys):
    rc = cli_main(["specfun", "--z", "0.1", "--alpha", "1.0", "--cbar", "0.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["F2"] == pytest.approx(6.756842535547e-3, abs=1e-9)
    assert out["g_slope0"] == pytest.approx(-3 * math.sqrt(math.pi), abs=1e-12)


def test_cli_specfun_wants_one_of_z_y(capsys):
    rc = cli_main(["specfun", "--z", "1.0", "--y", "2.0"])
    assert rc == 2


def test_cli_mc_small(capsys):
    rc = cli_main(["mc", "--drift", "2.0", "--x0", "1.5", "--t-end", "0.5",
                   "--replicas", "500", "--dt", "0.002", "--seed", "9"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicas"] == 500
    assert out["stderr"] > 0
    assert out["config"]["drift"] == 2.0


@pytest.mark.parametrize("text, named", [
    ("unknown_key = 3", "unknown_key"),
    ("mc.replicas = 1e5", "mc.replicas"),
    ("dx = abc", "dx"),
    ("cbar = nan", "cbar"),
    ("fit.window = 11,12", "fit.window"),
    ("mc.x0 = -1", "mc.x0"),
    ("mc.x0 = 0", "mc.x0"),
], ids=["unknown_key", "replicas_float", "dx_text", "cbar_nan", "window_beyond_tau_end",
        "mc_x0_negative", "mc_x0_zero"])
def test_cli_bad_config_exits_2(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.cfg"
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
    (["mc", "--replicas", "0"], "n_replicas"),
    (["mc", "--x0", "-1"], "--x0"),
    (["mc", "--dt", "0"], "dt"),
    (["mc", "--drift", "nan"], "--drift"),
], ids=["specfun_cbar_nan", "specfun_alpha_inf", "specfun_z_nan", "specfun_y_inf",
        "specfun_z_negative", "mc_replicas_0", "mc_x0_negative", "mc_dt_0", "mc_drift_nan"])
def test_cli_bad_arguments_exit_2(capsys, argv, named):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_cli_mc_population_cap_exits_3(monkeypatch, capsys):
    import bbmlab.cli as cli_mod
    from bbmlab.mc import McConfig

    monkeypatch.setattr(cli_mod, "McConfig", functools.partial(McConfig, population_cap=50))
    rc = cli_main(["mc", "--drift", "0", "--x0", "5", "--t-end", "2", "--replicas", "40",
                   "--dt", "0.01"])
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

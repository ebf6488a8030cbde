import hashlib
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbmlab.cli import main as cli_main
from bbmlab.drift import CBAR_CRITICAL, DriftExpansion, max_front_speed
from bbmlab.oscillator import SPECTRAL_TAU_MIN, Y_MAX
from bbmlab.pde import X_MAX, evolve
from bbmlab.pipeline import (MAX_NODE_STEPS, SAMPLE_DTAU, T_HANDOFF, ConfigError, _DEFAULTS,
                             _map_runs, _merge, _usable_cpus, _validate_config, load_config, make_config, parse_config,
                             rate_report, resolved_runs, run_experiment, selfsimilar_run,
                             specfun_row)


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
                             ({"dtau": 10**400}, "dtau"), ({"dx": 5e-324}, "dx")]:
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
@example("fit.window = 6,1e308\ndx = 1e-308")
@example("mc.replicas = " + "9" * 5000)
@example("fit.window = 1,2,3")
@example("dtau = 5e-324")
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
    cbar = draw(st.floats(-1e4, 1e4))
    # below the positivity bound dx max_front_speed < 2, with dx dividing x_max
    cells = max(30.0 * max_front_speed(DriftExpansion(cbar)) * (1.0 + 1e-9), 4.0)
    dx = X_MAX / draw(st.integers(math.floor(cells) + 1, math.floor(cells) + 10**5))
    dy = Y_MAX / draw(st.integers(25, 25_000))
    hi = draw(st.floats(SPECTRAL_TAU_MIN, 1e3))
    lo = hi * 0.5 * draw(fraction)
    # 20 samples in the window after the handoff: the spacing is at most
    # max(dtau, 4 SAMPLE_DTAU / 3), and the span at least hi / 2 >= 3
    span = hi - max(lo, math.log1p(T_HANDOFF))
    # within the node-step budget: dtau >= budget, which is below hi / 3000
    # (dy >= 0.001) and so below span / 40
    budget = (hi - math.log1p(T_HANDOFF)) * (Y_MAX / dy + 1.0) / MAX_NODE_STEPS
    a = X_MAX * (1e-6 + 0.4 * draw(fraction))
    return {
        "cbar": cbar, "dx": dx, "dy": dy,
        "t_end": draw(positive),
        "dtau": draw(st.floats(max(1e-3, budget * (1.0 + 1e-9)), span / 40)),
        "fit.window": (lo, hi),
        "v0.kind": draw(st.sampled_from(["indicator", "smooth_bump"])),
        "v0.a": a, "v0.b": a + X_MAX * (0.1 + 0.4 * draw(fraction)),
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
        run_experiment({"dx": -0.01}, tmp_path / "o", ["solve"])


def test_config_error_in_a_pipeline_removes_the_out_dir_it_made(tmp_path):
    # run_experiment makes out_dir before the pipelines run
    with pytest.raises(ConfigError, match="nope"):
        run_experiment(None, tmp_path / "e3", ["nope"])
    assert not (tmp_path / "e3").exists()


def test_cli_config_error_in_a_pipeline_leaves_no_out_dir(tmp_path, capsys):
    cfg = tmp_path / "bump.cfg"
    cfg.write_text("v0.kind = smooth_bump\nmc.replicas = 200\n")
    assert cli_main(["--config", str(cfg), "mc", "--out", str(tmp_path / "e2")]) == 2
    assert "v0.kind" in capsys.readouterr().err
    assert not (tmp_path / "e2").exists()


def test_cli_numerical_failure_in_a_pipeline_leaves_no_out_dir(tmp_path, capsys):
    # v0 reaches x = 40, past where the self-similar grid ends at the handoff
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("v0.b = 40\n")
    out = tmp_path / "n3"
    assert cli_main(["--config", str(cfg), "selfsim", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
    # at v0.b = 27.47 only the partner's field, at 2 dx, reaches past it: the
    # trajectory the run itself wrote goes too
    (tmp_path / "edge.cfg").write_text("v0.b = 27.47\n")
    assert cli_main(["--config", str(tmp_path / "edge.cfg"), "selfsim", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
    # a directory that was there before the run stays
    out.mkdir()
    assert cli_main(["--config", str(cfg), "selfsim", "--out", str(out)]) == 3
    assert out.is_dir()


def test_cli_critical_fit_window_from_tau_0(tmp_path, capsys):
    # the window takes in the handoff sample at t = 1, where log t / t = 0: the
    # log_over_t fits drop that one sample, and the power fits keep it
    cfg = tmp_path / "w.cfg"
    cfg.write_text("dx = 0.02\nfit.window = 0,6\n")
    out = tmp_path / "o"
    assert cli_main(["--config", str(cfg), "selfsim", "--out", str(out)]) == 0
    capsys.readouterr()
    fits = json.loads((out / "summary.json").read_text())["fits"]
    assert [(f["observable"], f["model"]) for f in fits] == [
        ("mass", "power"), ("mass", "log_over_t"), ("slope0", "power"), ("slope0", "log_over_t")]
    for power, log in (fits[:2], fits[2:]):
        assert power["window"][0] == T_HANDOFF < log["window"][0]
        assert log["n_samples"] == power["n_samples"] - 1


def test_reproduce_theorem_checks_every_cbar_before_it_runs(tmp_path):
    # dx = 0.2 suits the config's own cbar (3 sqrt(pi)) and cbar = 10, but the
    # partner of the cbar = 10 run, at dx = 0.4, breaks the positivity bound
    with pytest.raises(ConfigError, match=r"Richardson partner \(every step doubled\): "
                                          r"cbar = 10\.0 and dx = 0\.4"):
        run_experiment({"dx": 0.2}, tmp_path / "X", ["reproduce-theorem"])
    assert not (tmp_path / "X").exists()


def test_config_error_in_a_pipeline_keeps_an_out_dir_that_was_there(tmp_path):
    out = tmp_path / "e4"
    out.mkdir()
    with pytest.raises(ConfigError, match="v0.kind"):
        run_experiment({"v0.kind": "smooth_bump"}, out, ["mc"])
    assert out.is_dir()


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


def test_manifest_records_environment(tmp_path):
    out = run_experiment(None, tmp_path / "o", [])
    env = json.loads((out / "manifest.json").read_text())["environment"]
    host = platform.uname()
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__,
                   "platform": f"{host.system}-{host.release}-{host.machine}",
                   "cpu_count": os.cpu_count()}


def _max_interior_flux_residual(path):
    residual = np.loadtxt(path, delimiter=",", skiprows=1)[:, 3]
    return float(np.max(np.abs(residual[1:-1])))


#: a short run at coarse steps, for the pipelines' file and summary layouts
_SMALL = {"cbar": 1.5, "t_end": 1.0, "dx": 0.02, "fit.window": (3.0, 6.0)}


def test_summary_records_flux_residual_of_each_series(tmp_path):
    # solve and selfsim in one run: both series are recorded, merged under one key
    out = run_experiment(_SMALL, tmp_path / "o", ["solve", "selfsim"])
    flux = json.loads((out / "summary.json").read_text())["flux_identity_residual"]
    assert flux == {
        "physical": {"1.5": _max_interior_flux_residual(out / "physical_cbar1.5.csv")},
        "selfsim": {"1.5": _max_interior_flux_residual(out / "selfsim_series_cbar1.5.csv")},
    }
    assert 0.0 < flux["physical"]["1.5"] < 1.0 and 0.0 < flux["selfsim"]["1.5"] < 1.0
    # a solve that ends inside its startup writes two samples: no interior residual
    out = run_experiment({"t_end": 0.01, "dx": 0.02}, tmp_path / "short", ["solve"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flux_identity_residual"] == {"physical": {"5.31736": None}}


def test_solve_pipeline_writes_series(tmp_path):
    out = run_experiment({"t_end": 1.0, "dx": 0.02}, tmp_path / "o", ["solve"])
    files = list(out.glob("physical_cbar*.csv"))
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "t,mass,slope0,flux_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initial_overlap"]["weighted"] == pytest.approx(math.e**2, abs=1e-2)


@pytest.fixture(scope="module")
def theorem_dir(tmp_path_factory):
    return run_experiment(None, tmp_path_factory.mktemp("thm"), ["reproduce-theorem"])


def test_reproduce_theorem_summary_has_resolution_block(theorem_dir):
    summary = json.loads((theorem_dir / "summary.json").read_text())
    assert set(summary) == {"alpha0", "alpha0_methods", "alpha0_gap", "fits", "prefactor_check",
                            "resolution", "flux_identity_residual"}
    res = summary["resolution"]
    assert (res["dx"], res["dy"], res["dtau"]) == (0.01, 0.05, 0.01)
    assert res["partner"] == {"dx": 0.02, "dy": 0.1, "dtau": 0.02}
    assert set(res["error"]) == set(summary["alpha0"]) == {"0", "5.31736", "10"}
    for key, err in res["error"].items():
        fits = [f for f in summary["fits"] if f"{f['cbar']:.6g}" == key]
        assert set(err["exponents"]) == {f"{f['observable']}.{f['model']}" for f in fits}
        values = [err["alpha0"], err["prefactor"], *err["exponents"].values()]
        assert all(0.0 < v < 0.01 for v in values), (key, err)
        # the samples the fits use are SAMPLE_DTAU apart in tau over fit.window = (6, 10)
        assert all(f["n_samples"] == round(4.0 / SAMPLE_DTAU) + 1 for f in fits)


#: the default reproduce-theorem's numbers, recorded when each theta step
#: still applied I + (1 - theta) h L before its solve: the one-solve form moves
#: them by round-off alone.  cbar key: alpha_0 by spectral projection and by
#: slope extrapolation, the prefactor estimate
_PINNED_RUNS = {
    "0": (9.373895777534312, 9.3132891084205, -51.22123135680838),
    "5.31736": (0.01128110419991697, 0.011265044514835672, -0.0017072279152814777),
    "10": (1.2624057838865741e-05, 1.2258311126517265e-05, 5.135977938916538e-05),
}

#: (cbar key, observable, model): exponent, prefactor and r^2 of each fit, as above
_PINNED_FITS = {
    ("0", "mass", "power"): (-0.5139251334959118, 48.95409093769371, 0.9987054723751588),
    ("0", "slope0", "power"): (-0.5141452251006347, 49.05459618137097, 0.9987198677029704),
    ("5.31736", "mass", "power"): (-1.0306329235886609, 0.2936173525951511, 0.9979772234554103),
    ("5.31736", "mass", "log_over_t"): (1.180148626575757, 0.08452175197078461,
                                        0.9986678355831944),
    ("5.31736", "slope0", "power"): (-1.0310885792075148, 0.2948645278831198,
                                     0.9979946793410549),
    ("5.31736", "slope0", "log_over_t"): (1.1806677889174377, 0.08483274157836254,
                                          0.9986809117875994),
    ("10", "mass", "power"): (-0.46567714186697523, 7.324987690780572e-05, 0.9908035148965584),
    ("10", "slope0", "power"): (-0.4659790850397283, 7.345227766786273e-05, 0.9907501203430109),
}


def test_reproduce_theorem_numbers_are_pinned(theorem_dir):
    summary = json.loads((theorem_dir / "summary.json").read_text())
    for key, (spectral, slope, prefactor) in _PINNED_RUNS.items():
        methods = summary["alpha0_methods"][key]
        assert summary["alpha0"][key] == pytest.approx(spectral, rel=1e-9)
        assert methods["spectral_projection"]["value"] == pytest.approx(spectral, rel=1e-9)
        assert methods["slope_extrapolation"]["value"] == pytest.approx(slope, rel=1e-9)
        assert summary["prefactor_check"][key]["estimate"] == pytest.approx(prefactor, rel=1e-9)
    fits = {(f"{f['cbar']:.6g}", f["observable"], f["model"]):
            (f["exponent"], f["prefactor"], f["r2"]) for f in summary["fits"]}
    assert fits.keys() == _PINNED_FITS.keys()
    for key, pinned in _PINNED_FITS.items():
        assert fits[key] == pytest.approx(pinned, rel=1e-9), key


def test_reproduce_theorem_summary_has_alpha0_gap(theorem_dir):
    summary = json.loads((theorem_dir / "summary.json").read_text())
    gap = summary["alpha0_gap"]
    assert list(gap) == list(summary["alpha0"])
    for key, methods in summary["alpha0_methods"].items():
        spectral = methods["spectral_projection"]["value"]
        slope = methods["slope_extrapolation"]["value"]
        assert gap[key] == abs(slope - spectral) / abs(spectral), key
        assert 0.0 < gap[key] < 0.05, key


def test_reproduce_theorem_summary_has_flux_residuals(theorem_dir):
    summary = json.loads((theorem_dir / "summary.json").read_text())
    flux = summary["flux_identity_residual"]["selfsim"]
    assert set(flux) == set(summary["alpha0"])
    for key, residual in flux.items():
        assert residual == _max_interior_flux_residual(theorem_dir / f"selfsim_series_cbar{key}.csv")


def test_rate_table_rows_are_the_summary_fits(theorem_dir):
    fits = json.loads((theorem_dir / "summary.json").read_text())["fits"]
    lines = (theorem_dir / "rate_table.csv").read_text().splitlines()
    assert lines[0] == "cbar,observable,model,exponent,prefactor,r2"
    assert len(lines) == len(fits) + 1
    for line, f in zip(lines[1:], fits):
        cbar, observable, model, *numbers = line.split(",")
        assert (float(cbar), observable, model) == (f["cbar"], f["observable"], f["model"])
        assert [float(v) for v in numbers] == [f["exponent"], f["prefactor"], f["r2"]]


def test_specfun_table_rows_are_specfun_rows(tmp_path):
    out = run_experiment({"cbar": 0.0}, tmp_path / "o", ["specfun"])
    lines = (out / "specfun_table.csv").read_text().splitlines()
    assert lines[0] == "z,F2,H,G,g"
    zs = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert len(lines) == len(zs) + 1
    for line, z in zip(lines[1:], zs):
        row = specfun_row(z, 1.0, 0.0)
        assert [float(v) for v in line.split(",")] == [row[k] for k in ("z", "F2", "H", "G", "g")]


def test_fine_grid_regression_at_the_critical_cbar():
    # a run fourfold finer in dx and fivefold in dy and dtau against the
    # defaults; the Richardson estimate of the default run's error is not
    # below a third of its actual distance from the fine run
    fine_cfg = make_config({"dx": 0.0025, "dy": 0.01, "dtau": 0.002})
    fine = rate_report(*selfsimilar_run(fine_cfg), fine_cfg["fit.window"])
    [(_, report, _, errors)] = resolved_runs([None])
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


def _record_evolve_calls(monkeypatch, record: Path):
    """Patch pipeline.evolve to append "pid nx dt" per call to record, from
    whichever process calls it; returns a reader of those (pid, nx, dt)."""
    def spy(f0, t_end, cfg, d):
        with record.open("a") as f:
            f.write(f"{os.getpid()} {f0.grid.nx} {cfg.dt!r}\n")
        return evolve(f0, t_end, cfg, d)

    monkeypatch.setattr("bbmlab.pipeline.evolve", spy)
    return lambda: [(int(pid), int(nx), float(dt))
                    for pid, nx, dt in map(str.split, record.read_text().splitlines())]


def test_richardson_partner_coarsens_the_handoff(monkeypatch, tmp_path):
    # the run's handoff steps dx in x and t, and the partner's 2 dx; the two
    # may run at once in two workers, so the spy records to a file
    calls = _record_evolve_calls(monkeypatch, tmp_path / "calls")
    resolved_runs([{"cbar": 1.0, "dx": 0.02, "fit.window": (3.0, 6.0)}])
    assert sorted(((nx, dt) for _, nx, dt in calls()), reverse=True) == [(3000, 0.02),
                                                                         (1500, 0.04)]


def test_reproduce_theorem_in_workers_matches_in_process(tmp_path, monkeypatch):
    # six jobs on two forked workers, then in this process: the same bytes
    outs = {}
    for cpus in (2, 1):
        monkeypatch.setattr("bbmlab.pipeline._usable_cpus", lambda cpus=cpus: cpus)
        calls = _record_evolve_calls(monkeypatch, tmp_path / f"calls{cpus}")
        outs[cpus] = run_experiment(_SMALL, tmp_path / f"cpus{cpus}", ["reproduce-theorem"])
        assert multiprocessing.active_children() == []
        pids = {pid for pid, _, _ in calls()}
        assert len(calls()) == 6
        assert (os.getpid() in pids) == (cpus == 1) and len(pids) == 1 + (cpus == 2), pids
    names = sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
    assert names == ["rate_table.csv", "selfsim_series_cbar0.csv", "selfsim_series_cbar10.csv",
                     "selfsim_series_cbar5.31736.csv", "summary.json"]
    for name in names:
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _square_or_fail(job):
    """job squared; job 1 raises ValueError after job 3 has raised KeyError."""
    if job == 1:
        time.sleep(0.5)
        raise ValueError("job 1")
    if job == 3:
        raise KeyError("job 3")
    return job * job


def test_map_runs_keeps_job_order_and_raises_the_earliest_failed_job(monkeypatch):
    monkeypatch.setattr("bbmlab.pipeline._usable_cpus", lambda: 2)
    assert _map_runs(_square_or_fail, [0, 2, 4, 5, 6]) == [0, 4, 16, 25, 36]
    assert multiprocessing.active_children() == []
    # job 3 fails first in time, but job 1 comes first in job order
    with pytest.raises(ValueError, match="job 1"):
        _map_runs(_square_or_fail, [0, 1, 2, 3, 4])
    assert multiprocessing.active_children() == []


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # no affinity mask on this OS: the CPU count, or 1 where that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


def test_killed_worker_removes_the_empty_out_directory(tmp_path, monkeypatch):
    # a worker killed by a signal breaks the pool: the call raises at once,
    # no worker is left, and the --out directory it made goes again
    parent = os.getpid()

    def killed(cfg):
        if os.getpid() == parent:
            raise AssertionError("the run was not handed to a worker")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr("bbmlab.pipeline._usable_cpus", lambda: 2)
    monkeypatch.setattr("bbmlab.pipeline.selfsimilar_run", killed)
    out = tmp_path / "o"
    with pytest.raises(BrokenProcessPool):
        run_experiment(_SMALL, out, ["selfsim"])
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_selfsim_pipeline_writes_the_theorem_schema(tmp_path, theorem_dir):
    # the summary of reproduce-theorem for the one cbar of the config
    out = run_experiment(_SMALL, tmp_path / "o", ["selfsim"])
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == list(json.loads((theorem_dir / "summary.json").read_text()))
    for block in (summary["alpha0"], summary["alpha0_methods"], summary["alpha0_gap"],
                  summary["prefactor_check"], summary["resolution"]["error"],
                  summary["flux_identity_residual"]["selfsim"]):
        assert list(block) == ["1.5"]
    assert [(f["cbar"], f["observable"], f["model"]) for f in summary["fits"]] == [
        (1.5, "mass", "power"), (1.5, "slope0", "power")]
    # one trajectory row per series row, W's slope at 0 the series' slope0
    traj_csv = out / "trajectory_cbar1.5.csv"
    header = traj_csv.read_text().splitlines()[0]
    assert header == ",".join(["tau", *(f"coef_e{n}" for n in range(8)),
                               "W_slope0", "R_norm", "R_slope0"])
    traj = np.loadtxt(traj_csv, delimiter=",", skiprows=1)
    series = np.loadtxt(out / "selfsim_series_cbar1.5.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(traj[:, header.split(",").index("W_slope0")], series[:, 2])


def test_selfsim_with_reproduce_theorem_lists_each_fit_once(tmp_path):
    # selfsim at cbar = 0 and reproduce-theorem in one run: the cbar = 0 fits
    # are the same deterministic fits, merged once
    out = run_experiment({**_SMALL, "cbar": 0.0}, tmp_path / "o",
                         ["selfsim", "reproduce-theorem"])
    fits = json.loads((out / "summary.json").read_text())["fits"]
    keys = [(f"{f['cbar']:.6g}", f["observable"], f["model"]) for f in fits]
    assert len(keys) == len(set(keys)) == 8    # two power fits per cbar, two log fits at 3 sqrt(pi)
    table = (out / "rate_table.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in table] == [[o, m] for _, o, m in keys]


def test_merge_recurses_appends_new_list_items_and_replaces_scalars():
    into = {"block": {"a": 1, "inner": {"b": 2}}, "items": [{"k": 0}, 1], "value": 1}
    _merge(into, {"block": {"inner": {"c": 3}, "d": 4}, "items": [1, {"k": 0}, {"k": 1}, 2],
                  "value": 2, "new": [5]})
    assert into == {"block": {"a": 1, "inner": {"b": 2, "c": 3}, "d": 4},
                    "items": [{"k": 0}, 1, {"k": 1}, 2], "value": 2, "new": [5]}


def test_mc_pipeline_writes_result(tmp_path):
    out = run_experiment({"mc.replicas": 4000, "mc.seed": 3}, tmp_path / "o", ["mc"])
    result = json.loads((out / "mc_result.json").read_text())
    assert result["replicas"] == 4000
    assert "dt" not in result["config"]   # the sampler has no time step
    # e^3 int_1^2 of the killed drift-2 density from 1.5 (method of images)
    assert abs(result["mean"] - 0.0913334) <= 3.0 * result["stderr"]


def test_cli_mc_rejects_a_payoff_other_than_the_indicator(tmp_path, capsys):
    # mc estimates the indicator on [v0.a, v0.b]; any other v0.kind is a config error
    cfg = tmp_path / "bump.cfg"
    cfg.write_text("v0.kind = smooth_bump\nmc.replicas = 200\n")
    assert cli_main(["--config", str(cfg), "mc", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "v0.kind" in captured.err and "smooth_bump" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o" / "mc_result.json").exists()


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


@pytest.mark.parametrize("value", ["2", "1000"])
def test_cli_reproduce_theorem_takes_no_cbar(tmp_path, capsys, value):
    # it always runs cbar = 0, 3 sqrt(pi) and 10, so argparse rejects the flag
    with pytest.raises(SystemExit) as exc:
        cli_main(["reproduce-theorem", "--cbar", value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--cbar" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    ("mc.x0 = -1", "mc.x0"),
    ("mc.x0 = 0", "mc.x0"),
    ("dx = 0.07", "dx"),
    ("dy = 0.03", "dy"),
    ("mc.t_end = -1", "mc.t_end"),
    ("dx = nan", "dx"),
    ("tau_end = 10", "tau_end"),   # not a key: a self-similar run ends where fit.window does
    ("mc.drift = nan", "mc.drift"),
    ("dx = abc\ndx = 0.02", "dx"),
    (None, "bad.cfg"),
    (b"cbar = 1\n# \xff\xfe\n", "bad.cfg"),
    ("n_modes = 12", "n_modes"),   # not a key: the trajectory CSV always has 8 modes
    ("cbar = 1000", "cbar"),       # front speed 500.5 at t = 0: |speed| dx >= 2
    ("fit.window = 1,3", "fit.window"),   # ends below the spectral projection's floor
    ("dx = 0.032", "partner (every step doubled): dx = 0.064"),   # 0.064 does not divide 60
    ("fit.window = 9.9,10", "fit.window"),      # 5 samples 0.02 apart
    ("dtau = 0.03\nfit.window = 6,7",           # 34 samples, but 17 in the partner's
     "partner (every step doubled): fit.window"),
    ("fit.window = 0,1", "fit.window"),   # ends 0.31 after the handoff at tau = log 2
    # method constants, not config keys
    ("x_max = 60", "x_max"),
    ("y_max = 25", "y_max"),
    ("t_handoff = 1", "t_handoff"),
    ("dy = 12.5", "dy = 12.5 does not divide"),     # 3 nodes: slope_at_origin reads 5
    ("dy = 5", "partner (every step doubled): dy = 10.0"),   # the partner's grid has 3 nodes
    (f"dy = {25 / 301!r}", "partner (every step doubled): dy"),   # 25/301 divides y_max, 50/301 not
    ("v0.kind = foo", "v0.kind"),
    ("fit.window = 6,inf", "fit.window"),   # the run would march W forever
    ("fit.window = 6,1e308", "fit.window"),     # beyond the node-step budget
    ("dtau = 1e-7", "dtau"),                    # 4.7e10 node steps, about 3 hours
], ids=["unknown_key", "replicas_float", "dx_text", "cbar_nan",
        "mc_x0_negative", "mc_x0_zero", "dx_not_dividing_x_max", "dy_not_dividing_y_max",
        "mc_t_end_negative", "dx_nan", "tau_end_unknown", "mc_drift_nan", "dx_set_twice",
        "missing_file", "not_utf8", "n_modes_unknown", "cbar_beyond_peclet_bound",
        "window_below_spectral_floor", "partner_dx_not_dividing_x_max", "window_too_short",
        "partner_window_too_short", "handoff_past_window", "x_max_unknown", "y_max_unknown",
        "t_handoff_unknown", "dy_under_4_cells", "partner_dy_under_4_cells",
        "partner_dy_not_dividing_y_max", "v0_kind_unknown", "window_end_inf",
        "window_end_beyond_budget", "dtau_beyond_budget"])
def test_cli_bad_config_exits_2(tmp_path, capsys, text, named):
    # selfsim checks the run's config, then its Richardson partner's
    bad = tmp_path / "bad.cfg"      # text None: the file does not exist
    if isinstance(text, bytes):
        bad.write_bytes(text)
    elif text is not None:
        bad.write_text(text + "\n")
    rc = cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "selfsim"])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_solve_runs_no_partner(tmp_path, capsys):
    # dx = 0.3 keeps the positivity bound at cbar = 10, where the partner's 0.6
    # breaks it: solve runs, selfsim exits 2
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dx = 0.3\n")
    assert cli_main(["--config", str(cfg), "solve", "--cbar", "10",
                     "--out", str(tmp_path / "solve")]) == 0
    assert (tmp_path / "solve" / "physical_cbar10.csv").exists()
    assert cli_main(["--config", str(cfg), "selfsim", "--cbar", "10",
                     "--out", str(tmp_path / "selfsim")]) == 2
    assert "Richardson partner" in capsys.readouterr().err
    assert not (tmp_path / "selfsim").exists()


@pytest.mark.parametrize("text", ["t_end = 1e308", "dx = 0.001"],
                         ids=["t_end_beyond_budget", "dx_beyond_budget"])
def test_cli_solve_beyond_the_node_step_budget_exits_2(tmp_path, capsys, text):
    # (t_end/dx)(x_max/dx + 1) physical node steps: 1e310 and 6e8, over 1e8
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text + "\n")
    assert cli_main(["--config", str(cfg), "solve", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t_end" in err and "dx" in err and "node steps" in err
    assert not (tmp_path / "o").exists()
    make_config({"t_end": 1e308})     # the budget is solve's alone: the config is valid


def test_cli_out_on_an_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["mc", "--replicas", "10", "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == ""


def test_cli_selfsim_past_the_self_similar_grid_exits_3(tmp_path, capsys):
    # v0.b = 40 < x_max is a valid config, but at the handoff (t = 1) a tenth of
    # the mass lies beyond x = 25 sqrt(2), where the self-similar grid ends
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("v0.b = 40\n")
    assert cli_main(["--config", str(cfg), "selfsim", "--out", str(tmp_path / "o")]) == 3
    assert "beyond x = 35.36" in capsys.readouterr().err


def test_cli_reproduce_theorem_failure_in_a_worker_exits_3(tmp_path, monkeypatch, capfd):
    # every run fails with LossOfSupport in its forked worker, as selfsim fails above
    monkeypatch.setattr("bbmlab.pipeline._usable_cpus", lambda: 2)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("v0.b = 40\n")
    out = tmp_path / "o"
    assert cli_main(["--config", str(cfg), "reproduce-theorem", "--out", str(out)]) == 3
    err = capfd.readouterr().err
    assert "numerical failure: the field is not negligible beyond x = 35.36" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv, named", [
    (["specfun", "--z", "1", "--cbar", "nan"], "--cbar"),
    (["specfun", "--z", "1", "--alpha", "inf"], "--alpha"),
    (["specfun", "--z", "nan"], "--z"),
    (["specfun", "--y", "inf"], "--y"),
    (["specfun", "--z", "-1"], "--z"),
    (["specfun", "--y", "-1"], "--y"),
    (["specfun", "--y", "1e200"], "--y"),
    (["mc", "--replicas", "0"], "mc.replicas"),
    (["mc", "--x0", "-1"], "mc.x0"),
    (["mc", "--dt", "0"], "--dt"),   # the exact sampler has no time step: unknown flag
    (["mc", "--drift", "nan"], "mc.drift"),
    (["mc", "--a", "3", "--b", "1"], "v0.a"),
    (["mc", "--replicas", "1e5"], "mc.replicas"),
    (["mc", "--seed", "-1"], "mc.seed"),
    (["--config", "/nonexistent.cfg", "specfun", "--z", "0.1"], "--config"),
    (["specfun", "--z", "0.1", "--config", "/nonexistent.cfg"], "--config"),
    (["--out", "o", "specfun", "--z", "0.1"], "--out"),
    (["--seed", "1", "specfun", "--z", "0.1"], "--seed"),
    (["--seed", "x", "solve"], "mc.seed"),
    (["solve", "--cbar", "nan"], "cbar"),
    (["fit"], "'fit'"),   # selfsim writes the rate fits: no fit subcommand
], ids=["specfun_cbar_nan", "specfun_alpha_inf", "specfun_z_nan", "specfun_y_inf",
        "specfun_z_negative", "specfun_y_negative", "specfun_y_overflows",
        "specfun_config_before", "specfun_config_after", "specfun_out_before",
        "specfun_seed_before", "mc_replicas_0",
        "mc_x0_negative", "mc_dt_0", "mc_drift_nan", "mc_empty_payoff_support",
        "mc_replicas_float", "mc_seed_negative", "seed_text", "solve_cbar_nan",
        "no_fit_subcommand"])
def test_cli_bad_arguments_exit_2(capsys, argv, named):
    try:
        rc = cli_main(argv)
    except SystemExit as exc:   # argparse exits with code 2 on an unknown flag
        rc = exc.code
    assert rc == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_cli_specfun_overflow_exits_3(capsys):
    # alpha = 1e308 is finite, but G and g at z = 10 overflow float64
    assert cli_main(["specfun", "--z", "10", "--alpha", "1e308"]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: specfun: non-finite G = inf, g = inf" in captured.err
    assert captured.out == ""
    # y = 1e154 gives z = 2.5e307, where G0 overflows without a numpy warning
    # (the suite turns a RuntimeWarning into an error)
    assert cli_main(["specfun", "--y", "1e154"]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: specfun: non-finite G = inf, g = nan" in captured.err
    assert captured.out == ""


def test_cli_mc_population_cap_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("bbmlab.mc.POPULATION_CAP", 50)
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
    # every numerical failure is one type, which the CLI maps to exit code 3
    import bbmlab.cli as cli_mod
    from bbmlab.mc import PopulationCapExceeded
    from bbmlab.oscillator import LossOfSupport
    from bbmlab.pde import NumericalFailure
    from bbmlab.specfun import SeriesDiverged

    for failure in (NumericalFailure, LossOfSupport, SeriesDiverged, PopulationCapExceeded):
        assert issubclass(failure, NumericalFailure)

        def boom(*a, **k):
            raise failure(f"synthetic {failure.__name__}")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        rc = cli_main(["--out", str(tmp_path / "o"), "solve"])
        assert rc == 3
        assert f"synthetic {failure.__name__}" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("cbar = 0\nt_end = 0.5\ndx = 0.02\n")
    cfg = load_config(p)
    assert cfg["cbar"] == 0.0
    out = run_experiment(cfg, tmp_path / "o", ["solve"])
    assert (out / "manifest.json").exists()


"""Orchestration tests: rate fits, config plumbing, suites, sweep, and CLI.

Suite runs here use the reduced fast-mode sizes; the full-scale runs live in
the acceptance tests. Numerical pins below were measured on converged runs
and double-checked at higher resolution.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maxcool import cli, dsmc, harness, kinematics as kin, realspace as rs, spectral as sp
from maxcool.cli import run_cli
from maxcool.harness import ExperimentConfig, RateFit


# ---------------------------------------------------------------------------
# exponential rate fitting

def test_fit_exact_log_linear():
    t = np.linspace(0.0, 10.0, 11)
    fit = harness.fit_exponential_rate((t, 7.0 * np.exp(-0.3 * t)))
    assert abs(fit.rate - 0.3) < 1e-12
    assert abs(fit.intercept - math.log(7.0)) < 1e-12
    assert fit.window == (5.0, 10.0)  # default skips the t < 5 transient
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.n_points == 6


def test_fit_explicit_window_and_array_form():
    t = np.linspace(0.0, 4.0, 9)  # ends before 5: default keeps everything
    y = 2.0 * np.exp(-1.1 * t)
    fit_all = harness.fit_exponential_rate((t, y))
    assert fit_all.n_points == 9 and abs(fit_all.rate - 1.1) < 1e-12
    fit_win = harness.fit_exponential_rate((t, y), window=(1.0, 3.0))
    assert fit_win.window == (1.0, 3.0)
    assert fit_win.n_points == 5
    assert abs(fit_win.rate - 1.1) < 1e-12


def test_fit_r_squared_reported_when_poor():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 40)
    y = np.exp(rng.normal(0.0, 1.0, 40))  # pure noise, no trend
    fit = harness.fit_exponential_rate((t, y))
    assert 0.0 <= fit.r_squared < 0.5
    assert fit.residual_rms > 0.1


def test_fit_rejections():
    t = np.linspace(0.0, 1.0, 10)
    y = np.exp(-t)
    with pytest.raises(ValueError, match="at least 5"):
        harness.fit_exponential_rate((t[:4], y[:4]))
    with pytest.raises(ValueError, match="at least 5"):
        harness.fit_exponential_rate((t, y), window=(0.0, 0.2))
    bad = y.copy()
    bad[3] = -1.0
    with pytest.raises(ValueError, match="positive"):
        harness.fit_exponential_rate((t, bad))
    with pytest.raises(ValueError, match="lo < hi"):
        harness.fit_exponential_rate((t, y), window=(2.0, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        harness.fit_exponential_rate((t[::-1], y))
    with pytest.raises(ValueError, match="\\(t, y\\) pair"):
        harness.fit_exponential_rate(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# configuration

def test_config_text_round_trip_is_lossless():
    cfg = ExperimentConfig(e=0.7, dt=0.012345678901234567, tol=3e-11,
                           eps="0.2,0.1", init="bimax:0.5,0.6,1.4",
                           out="x.csv", fast=True)
    back = ExperimentConfig.from_text(cfg.to_text())
    assert back == cfg
    # and the fingerprint is stable under the round trip
    assert harness.config_fingerprint(back) == harness.config_fingerprint(cfg)


def test_config_parse_kv_keeps_only_present_keys():
    kv = ExperimentConfig.parse_kv("e=0.5\n# comment\n\nseed=9\n")
    assert kv == {"e": 0.5, "seed": 9}
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.parse_kv("nope=1\n")
    with pytest.raises(ValueError, match="key=value"):
        ExperimentConfig.parse_kv("just some words\n")


def test_config_precedence(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("e=0.5\nn_particles=5000\n")
    cfg = ExperimentConfig.from_sources(f, base={"e": 0.3, "dt": 0.02},
                                        e=None, t_max=7.0)
    assert cfg.e == 0.5          # file beats base
    assert cfg.dt == 0.02        # base beats dataclass default
    assert cfg.n_particles == 5000
    assert cfg.t_max == 7.0      # override beats file
    assert cfg.x_max == 50.0     # untouched default


def test_config_validation():
    with pytest.raises(ValueError, match="e must be"):
        ExperimentConfig(e=1.5)
    with pytest.raises(ValueError, match="grid_n"):
        ExperimentConfig(grid_n=64)
    with pytest.raises(ValueError, match="descending"):
        ExperimentConfig(eps="0.1,0.2")
    with pytest.raises(ValueError, match="0, 0.25"):
        ExperimentConfig(eps="0.3,0.1")
    with pytest.raises(ValueError, match="suite"):
        ExperimentConfig(suite="everything")
    with pytest.raises(ValueError, match="frame"):
        ExperimentConfig(frame="comoving")
    with pytest.raises(ValueError):
        ExperimentConfig(init="mixture:0.5")  # needs three parameters
    assert ExperimentConfig(eps="0.25,0.1").eps_values() == (0.25, 0.1)


def test_provenance_embedding_round_trip(tmp_path):
    ens = dsmc.sample_initial("maxwellian", 500, seed=0)
    series = dsmc.run(ens, t_max=0.2, dt=0.01, x_grid=np.array([0.0, 1.0]))
    path = tmp_path / "series.csv"
    dsmc.save_series(path, series)
    cfg = ExperimentConfig(n_particles=500, t_max=0.2, dt=0.01)
    harness.embed_provenance(path, cfg)
    text = path.read_text()
    _, sha = harness.config_fingerprint(cfg)
    assert f"# sha256 {sha}" in text
    assert "# cfg n_particles=500" in text
    back = dsmc.load_series(path)  # loader skips the provenance comments
    np.testing.assert_array_equal(back["m2"], series["m2"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        harness.embed_provenance(empty, cfg)


def test_save_trace_body_is_plain_csv(tmp_path):
    grid = sp.RadialGrid(256, 15.0)
    cfg = sp.SolverConfig(dt=0.02, t_max=0.2, frame="rescaled-g")
    trace = sp.evolve(sp.CharacteristicProfile.maxwellian(grid, 1.0), 0.9, cfg)
    path = tmp_path / "trace.csv"
    harness.save_trace(path, trace, 0.9, "rescaled")
    body = np.loadtxt(path, delimiter=",")
    assert body.shape == (len(trace.times), 1 + len(trace.diagnostics))
    np.testing.assert_allclose(body[:, 0], trace.times)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# maxcool-trace v1")
    assert lines[1].startswith("# columns: t,")


# ---------------------------------------------------------------------------
# density corpus

def test_density_corpus_fast():
    corpus = harness.density_corpus(fast=True)
    assert [c["name"] for c in corpus] == [
        "maxwellian", "mixture-a", "mixture-b", "evolved", "steady"]
    for entry in corpus:
        t_phi = sp.moment(entry["phi"], 2) / 3.0
        t_f = entry["f"].m2 / 3.0
        # profile and density describe the same state
        assert abs(t_phi - t_f) < 5e-3 * max(t_phi, t_f), entry["name"]
    assert corpus[-1]["phi"].meta["converged"]


# ---------------------------------------------------------------------------
# epsilon sweep

_SWEEP_FAST = dict(grid=sp.RadialGrid(256, 15.0),
                   r_nodes=None, tol=1e-4,
                   config=sp.SolverConfig(dt=0.05, t_max=60.0, frame="rescaled-g"))


def test_sweep_validation():
    with pytest.raises(ValueError, match="descending"):
        harness.sweep_epsilon([0.05, 0.1], **_SWEEP_FAST)
    with pytest.raises(ValueError, match="0, 0.25"):
        harness.sweep_epsilon([0.3, 0.1], **_SWEEP_FAST)
    with pytest.raises(ValueError, match="nonempty"):
        harness.sweep_epsilon([], **_SWEEP_FAST)


def test_sweep_adjacent_pair_passes_both_checks():
    # a 2x step in eps keeps the fitted constant inside the factor-3 band
    table = harness.sweep_epsilon([0.1, 0.05], **_SWEEP_FAST)
    assert table["monotone"] and table["c_stable"] and table["c_growth_ok"]
    assert len(table["rows"]) == 2 and table["dropped"] == []
    assert table["steps"] == [r["steps"] for r in table["rows"]] and min(table["steps"]) >= 1
    # distances are resolution-robust: these values match the fine-grid runs
    # (coarse dt and loose tol shift the transient cutoff by well under 2%)
    assert table["l1"][0] == pytest.approx(0.031116, rel=0.02)
    assert table["l1"][1] == pytest.approx(0.008352, rel=0.02)
    assert 1.0 < table["c_ratios"][0] < 3.0


def test_sweep_wide_step_fails_stability_only():
    # distances fall ~eps^2, far below the sqrt(eps) envelope, so a 5x step
    # moves the fitted constant by more than 3x while staying monotone
    table = harness.sweep_epsilon([0.1, 0.02], raise_on_failure=False,
                                  **_SWEEP_FAST)
    assert table["monotone"] and not table["c_stable"]
    assert table["c_growth_ok"]  # the constant shrinks; it never grows
    assert table["c_ratios"][0] > 3.0
    with pytest.raises(AssertionError, match="factor 3"):
        harness.sweep_epsilon([0.1, 0.02], **_SWEEP_FAST)


def test_sweep_records_warnings_of_a_dropped_solve():
    short = dict(_SWEEP_FAST, config=sp.SolverConfig(dt=0.05, t_max=0.05, frame="rescaled-g"))
    table = harness.sweep_epsilon([0.1], raise_on_failure=False, **short)
    assert table["rows"] == [] and len(table["dropped"]) == 1
    assert any("did not reach tol" in w for w in table["dropped"][0]["warnings"])
    assert table["dropped"][0]["steps"] == 1
    assert type(table["dropped"][0]["e"]) is float
    assert type(table["dropped"][0]["eps"]) is float


# ---------------------------------------------------------------------------
# verify

def test_verify_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        harness.verify("everything")


def test_verify_kinematics_fast_report_shape(tmp_path):
    report = harness.verify("kinematics", fast=True)
    assert report["suite"] == "kinematics" and report["fast"]
    assert report["n_pass"] == len(report["checks"]) > 0
    assert report["passed"] and report["n_fail"] == 0 == report["n_error"]
    for c in report["checks"]:
        assert c["status"] == "pass"
        assert set(c) >= {"name", "claim", "status", "measured", "bound",
                          "slack", "suite"}
        if c["slack"] is not None:
            assert c["slack"] >= 0.0
    assert len(report["config_sha256"]) == 64
    out = tmp_path / "report.json"
    harness.save_report(out, report)
    assert json.loads(out.read_text())["n_pass"] == report["n_pass"]


def test_jacobian_check_tests_the_coded_reflection(monkeypatch):
    # J is built from kinematics.reflect itself, so a wrong coefficient in
    # the coded map must show up as a wrong volume contraction
    def jacobian(e):
        rows = harness._kinematics_exactness(e, 2000, seed=2)
        return next(c for c in rows if c["name"] == f"jacobian e={e:g}")

    for e in (0.5, 0.9):
        assert jacobian(e)["status"] == "pass"
    reflect = kin.reflect
    monkeypatch.setattr(kin, "reflect",
                        lambda v, w, n, coef: reflect(v, w, n, coef * (1.0 + 1e-3)))
    for e in (0.5, 0.9):
        bad = jacobian(e)
        assert bad["status"] == "fail" and bad["measured"] > 1e-4


def test_verify_errors_propagate_without_aborting(monkeypatch):
    def boom(ws, params):
        raise RuntimeError("synthetic failure")
    monkeypatch.setitem(harness._SUITE_RUNNERS, "fisher", boom)
    report = harness.verify("fisher", fast=True)
    assert report["n_error"] == 1 and not report["passed"]
    assert "synthetic failure" in report["checks"][0]["detail"]["error"]


def test_verify_hash_covers_exactly_the_stamp(tmp_path, monkeypatch):
    # the suite's numbers play no part in the hash; skip the work
    monkeypatch.setitem(harness._SUITE_RUNNERS, "kinematics", lambda ws, params: ([], {}))
    runs = itertools.count()

    def report(*flags, config_text=""):
        k = next(runs)
        cfg = tmp_path / f"run{k}.cfg"
        cfg.write_text(config_text)
        path = tmp_path / f"report{k}.json"
        assert run_cli(["verify", "--suite", "kinematics", "--config", str(cfg),
                        "--report", str(path), *flags]) == 0
        return json.loads(path.read_text())

    base = report("--fast")
    unread = report("--fast", "--out-dir", str(tmp_path / "art"),
                    config_text="dt=0.5\ngrid_n=512\ne=0.3\n")
    assert unread["config_sha256"] == base["config_sha256"]
    assert base["provenance"]["fast"] is base["fast"] is True
    assert base["provenance"]["table"] == json.loads(json.dumps(
        dataclasses.asdict(harness.FAST)))
    assert base["provenance"]["quad_order"] == sp.QUAD_ORDER
    assert report()["config_sha256"] != base["config_sha256"]
    monkeypatch.setattr(harness, "FAST", dataclasses.replace(harness.FAST,
                                                             mc_samples=40_000))
    fewer = report("--fast")["config_sha256"]
    assert fewer != base["config_sha256"]
    monkeypatch.setattr(sp, "QUAD_ORDER", 2 * sp.QUAD_ORDER)
    assert report("--fast")["config_sha256"] != fewer


def test_verify_all_fast_smoke(tmp_path):
    report = harness.verify("all", fast=True, out_dir=tmp_path)
    assert report["n_error"] == 0
    # the known-red criterion-8 check; every other check passes
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == [
        "sweep-envelope-stability"]
    assert report["provenance"]["table"] == dataclasses.asdict(harness.FAST)
    assert report["steady_e095_warnings"] == []
    assert "artifact_error" not in report and len(report["artifacts"]) == 8
    for path in report["artifacts"]:
        assert report["config_sha256"] in Path(path).read_text()
    phi, _ = sp.load_profile(tmp_path / "steady-e0.95.csv")
    assert phi.grid.n == harness.FAST.grid[0]
    assert len(dsmc.load_series(tmp_path / "dsmc-e0.5.csv")["t"]) > 1


def test_verify_inequalities_fast():
    report = harness.verify("inequalities", fast=True)
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 5 and all(n.startswith("inequalities") for n in names)
    assert all(c["measured"] > 0 for c in report["checks"])  # positive slack


# ---------------------------------------------------------------------------
# CLI

def test_cli_usage_errors():
    assert run_cli([]) == 2
    assert run_cli(["dsmc", "--bogus"]) == 2
    assert run_cli(["dsmc", "--e", "1.5", "--n", "100"]) == 2
    assert run_cli(["evolve", "--grid-n", "64"]) == 2
    assert run_cli(["kincheck", "--e", "1.5"]) == 2
    assert run_cli(["kincheck", "--triples", "0"]) == 2
    assert run_cli(["--help"]) == 0


def test_cli_malformed_x_grid_is_usage_error(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("ensemble sampled before --x-grid was validated")

    monkeypatch.setattr(dsmc, "sample_initial", no_sampling)
    assert run_cli(["dsmc", "--n", "100", "--x-grid", "0,abc"]) == 2
    assert run_cli(["dsmc", "--n", "100", "--x-grid=0,-1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_kincheck(capsys):
    assert run_cli(["kincheck", "--e", "0.5", "--triples", "2000"]) == 0
    out = capsys.readouterr().out
    assert "[ok] swap-momentum e=0.5" in out
    assert "jacobian" in out
    assert "[ok] z-identity e=0.5" in out


def test_cli_dsmc_writes_artifact(tmp_path, capsys):
    out = tmp_path / "dsmc.csv"
    code = run_cli(["dsmc", "--e", "0.5", "--n", "2000", "--t-max", "0.5",
                    "--dt", "0.01", "--seed", "1", "--out", str(out)])
    assert code == 0
    series = dsmc.load_series(out)
    assert series["t"][-1] == pytest.approx(0.5)
    text = out.read_text()
    assert "# cfg e=0.5" in text and "# sha256 " in text


def test_cli_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_particles=1500\ne=0.5\n")
    code = run_cli(["dsmc", "--config", str(cfg), "--t-max", "0.2",
                    "--dt", "0.01", "--seed", "2"])
    assert code == 0
    # the ensemble size came from the file; summary reports the collisions
    assert "collisions" in capsys.readouterr().out


def test_cli_evolve_and_steady(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = run_cli(["evolve", "--e", "0.9", "--grid-n", "256", "--x-max", "15",
                    "--dt", "0.02", "--t-max", "0.5",
                    "--init", "bimax:0.5,0.6,1.4", "--frame", "rescaled",
                    "--out", str(trace)])
    assert code == 0
    assert np.loadtxt(trace, delimiter=",").shape[1] == 8
    prof = tmp_path / "steady.csv"
    code = run_cli(["steady", "--e", "0.8", "--grid-n", "256", "--x-max", "15",
                    "--dt", "0.05", "--t-max", "60", "--tol", "1e-4",
                    "--out", str(prof)])
    assert code == 0
    assert "steps=" in capsys.readouterr().out
    phi, meta = sp.load_profile(prof)
    assert meta["e"] == 0.8 and phi.grid.n == 256


def test_cli_steady_and_sweep_defaults_are_the_full_sweep_suites():
    parser = cli._build_parser()
    for command in ("steady", "sweep-eps"):
        cfg = cli._resolve(parser.parse_args([command]))
        assert (cfg.grid_n, cfg.x_max) == harness.FULL.sweep_grid
        assert (cfg.dt, cfg.t_max) == (harness.FULL.sweep_dt, harness.FULL.sweep_t_max)
    assert cfg.tol == harness.FULL.sweep_tol
    assert cfg.eps_values() == harness.FULL.sweep_eps


def test_cli_steady_solves_as_the_sweep_does(tmp_path):
    # the CLI, a direct call and the sweep run one and the same steady solve
    eps, tol, grid = 0.1, 1e-4, sp.RadialGrid(256, 15.0)
    e = 1.0 - 2.0 * eps
    config = sp.SolverConfig(dt=0.05, t_max=60.0, frame="rescaled-g")
    prof = tmp_path / "steady.csv"
    assert run_cli(["steady", "--e", repr(e), "--grid-n", "256", "--x-max", "15",
                    "--dt", "0.05", "--t-max", "60", "--tol", repr(tol),
                    "--out", str(prof)]) == 0
    written, _ = sp.load_profile(prof)
    direct = sp.steady_profile(e, config, tol=tol, grid=grid)
    np.testing.assert_array_equal(written.values, direct.values)  # 17 digits round-trip

    r_nodes = rs.default_r_nodes(*harness.FULL.r_nodes)
    f = rs.reconstruct(direct, r_nodes)
    l1 = rs.l1_distance(f, rs.RadialDensity.maxwellian(r_nodes, theta=f.m2 / 3.0))
    table = harness.sweep_epsilon([eps], config=config, grid=grid, tol=tol,
                                  raise_on_failure=False)
    assert table["l1"] == [l1]


def test_cli_steady_nonconvergence_is_numerical_failure(capsys):
    with pytest.warns(UserWarning, match="did not reach"):
        code = run_cli(["steady", "--e", "0.8", "--grid-n", "256", "--x-max",
                        "15", "--dt", "0.05", "--t-max", "0.05", "--tol", "1e-12"])
    assert code == 1
    assert "no convergence" in capsys.readouterr().err


def test_cli_sweep_exit_codes(tmp_path, capsys):
    common = ["--grid-n", "256", "--x-max", "15", "--dt", "0.05",
              "--t-max", "60", "--tol", "1e-4"]
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-eps", "--eps", "0.1,0.05", "--out", str(out)]
                   + common) == 0
    assert "# maxcool-sweep v1" in out.read_text()
    capsys.readouterr()
    assert run_cli(["sweep-eps", "--eps", "0.1,0.02"] + common) == 1
    err = capsys.readouterr().err
    assert "c_stable=False" in err

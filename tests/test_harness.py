"""Orchestration tests: rate fits, config plumbing, suites, sweep, and CLI.

Suite runs here use the reduced fast-mode sizes; the full-scale runs live in
the acceptance tests. Numerical pins below were measured on converged runs
and double-checked at higher resolution.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
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

def _read_stamp(path) -> tuple[dict, str]:
    """The stamp and hash after an artifact's header, the hash checked against the stamp."""
    _, prov_line, sha_line = Path(path).read_text().splitlines()[:3]
    assert prov_line.startswith("# provenance ") and sha_line.startswith("# sha256 ")
    text, digest = prov_line[len("# provenance "):], sha_line[len("# sha256 "):]
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    return json.loads(text), digest


def test_config_text_round_trip_is_lossless(tmp_path):
    cfg = ExperimentConfig(e=0.7, dt=0.012345678901234567, tol=3e-11,
                           eps="0.2,0.1", init="bimax:0.5,0.6,1.4",
                           out="x.csv", fast=True)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in dataclasses.asdict(cfg).items()))
    back = ExperimentConfig.from_sources(path)
    assert back == cfg
    # and the stamp is stable under the round trip
    assert cli._artifact_stamp(back, "sweep-eps") == cli._artifact_stamp(cfg, "sweep-eps")


def test_one_spelling_of_a_run_gets_one_stamp(tmp_path):
    parser = cli._build_parser()

    def stamp(command, *flags):
        return cli._artifact_stamp(cli._resolve(parser.parse_args([command, *flags])),
                                   command)

    cfg = tmp_path / "frame.cfg"
    cfg.write_text("frame=rescaled-g\n")
    assert stamp("evolve", "--frame", "rescaled") == stamp("evolve", "--config", str(cfg))
    assert stamp("evolve", "--frame", "rescaled")[0]["config"]["frame"] == "rescaled-g"
    assert stamp("evolve", "--frame", "unscaled") != stamp("evolve")
    assert stamp("sweep-eps", "--eps", "0.1,0.05") == stamp("sweep-eps", "--eps", "0.10,0.050")
    assert stamp("sweep-eps", "--eps", "0.1,0.05") != stamp("sweep-eps", "--eps", "0.1,0.04")
    # and so does the artifact a command writes
    shas = []
    for k, flags in enumerate((["--frame", "rescaled"], ["--config", str(cfg)])):
        path = tmp_path / f"trace{k}.csv"
        assert run_cli(["evolve", "--grid-n", "256", "--x-max", "20", "--t-max",
                        str(sp.DT), "--out", str(path), *flags]) == 0
        shas.append(_read_stamp(path)[1])
    assert shas[0] == shas[1]


def test_each_command_hashes_exactly_the_flags_it_declares():
    # a flag outside the stamp could change a result and leave its hash alone
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    for command, fields in cli._COMMAND_FIELDS.items():
        dests = {a.dest for a in commands[command]._actions} - {
            "help", "out", "config", "verbose", "x_grid"}
        assert dests == set(fields), command


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


def test_provenance_embedding_round_trip(tmp_path, read_series):
    ens = dsmc.sample_initial("maxwellian", 500, seed=0)
    series = dsmc.run(ens, t_max=0.2, dt=0.01, x_grid=np.array([0.0, 1.0]))
    path = tmp_path / "series.csv"
    dsmc.save_series(path, series)
    cfg = ExperimentConfig(n_particles=500, t_max=0.2, dt=0.01)
    stamp, sha = cli._artifact_stamp(cfg, "dsmc", x_grid=[0.0, 1.0])
    harness.embed_provenance(path, stamp, sha)
    assert _read_stamp(path) == (stamp, sha)
    assert stamp["config"]["n_particles"] == 500
    # header stays first
    assert path.read_text().startswith("# maxcool-dsmc v1 x_grid=0,1\n# provenance ")
    columns, body = read_series(path)  # the body is untouched
    assert columns[4] == "m2"
    np.testing.assert_array_equal(body[:, 4], series["m2"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        harness.embed_provenance(empty, stamp, sha)


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
    corpus = harness.density_corpus(harness.FAST)
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

_SWEEP_FAST = dict(grid=sp.RadialGrid(256, 15.0), r_nodes=None, tol=1e-4)


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
    assert table["newton_steps"] == [r["newton_steps"] for r in table["rows"]]
    assert min(table["newton_steps"]) >= 1
    # distances are resolution-robust: these values match the fine-grid runs
    # (a coarse grid and a loose tol move them by well under 2%)
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


def test_sweep_records_warnings_of_a_dropped_solve(monkeypatch):
    monkeypatch.setattr(sp, "_NEWTON_STEPS", 1)
    table = harness.sweep_epsilon([0.1], raise_on_failure=False, **_SWEEP_FAST)
    assert table["rows"] == [] and len(table["dropped"]) == 1
    assert any("did not reach tol" in w for w in table["dropped"][0]["warnings"])
    assert table["dropped"][0]["newton_steps"] == 1
    assert table["dropped"][0]["last_update_d2"] >= _SWEEP_FAST["tol"]
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


def test_exactness_does_not_depend_on_the_block_size(monkeypatch):
    n = 2 * 1000 + 7

    def measured(block, e):
        monkeypatch.setattr(harness, "_EXACTNESS_BLOCK", block)
        rows = harness._kinematics_exactness(e, n, seed=2)
        assert len(rows) == 7
        return [float(r["measured"]).hex() for r in rows]

    for e in harness._KIN_ES:
        assert measured(1000, e) == measured(n, e)


def test_kinematics_suite_draws_each_monte_carlo_block_once(monkeypatch):
    # the 6 fast Monte Carlo rows share one block per side (seed 7); the
    # exactness checks draw on seed 2
    block_rng = kin.block_rng
    drawn = []

    def spy(seed, tag):
        drawn.append((seed, tag))
        return block_rng(seed, tag)

    monkeypatch.setattr(kin, "block_rng", spy)
    report = harness.verify("kinematics", fast=True)
    assert report["passed"]
    assert [d for d in drawn if d[0] != 2] == [(7, 0), (7, 1 << 62)]


def test_a_raising_kernel_errors_only_its_own_monte_carlo_rows(monkeypatch):
    params = dataclasses.replace(harness.FAST, kin_triples=2000, kernel_seeds=(11, 23))

    def suite():
        rows, raw = [], {}
        harness._suite_kinematics({}, params, rows, raw)
        return rows, raw

    good_rows, good_raw = suite()
    kernel = harness._gaussian_kernel

    def raising(*args):
        raise RuntimeError("synthetic kernel failure")

    monkeypatch.setattr(harness, "_gaussian_kernel",
                        lambda seed: raising if seed == 23 else kernel(seed))
    rows, raw = suite()
    assert [r["name"] for r in rows] == [r["name"] for r in good_rows]
    for row, good in zip(rows, good_rows):
        if "kernel=23" in row["name"]:
            assert row["status"] == "error"
            assert "synthetic kernel failure" in row["detail"]["error"]
        else:
            assert json.dumps(row) == json.dumps(good)
    assert json.dumps(raw["mc_identities"]) == json.dumps(
        [r for r in good_raw["mc_identities"] if "kernel=23" not in r["name"]])


def test_an_elastic_swap_map_fails_the_energy_law(monkeypatch):
    # the e = 1 map keeps momentum but not the inelastic energy loss
    swap = kin._swap_velocities
    monkeypatch.setattr(kin, "_swap_velocities",
                        lambda v, w, sigma, e, rel=None: swap(v, w, sigma, 1.0, rel))
    rows = {r["name"]: r for r in harness._kinematics_exactness(0.5, 2000, seed=2)}
    assert rows["swap-momentum e=0.5"]["status"] == "pass"
    assert rows["swap-energy e=0.5"]["status"] == "fail"


def test_an_elastic_dsmc_collision_fails_the_m2_rate(monkeypatch):
    apply_events = dsmc._apply_events
    monkeypatch.setattr(dsmc, "_apply_events",
                        lambda vel, idx, sigma, e: apply_events(vel, idx, sigma, 1.0))
    report = harness.verify("weak-decay", fast=True)
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["spectral-m2-rate e=0.5"]["status"] == "pass"
    assert rows["dsmc-m2-rate e=0.5"]["status"] == "fail"


def test_verify_errors_propagate_without_aborting(monkeypatch):
    def boom(ws, params, rows, raw):
        raise RuntimeError("synthetic failure")
    monkeypatch.setitem(harness._SUITE_RUNNERS, "fisher", boom)
    report = harness.verify("fisher", fast=True)
    assert report["n_error"] == 1 and not report["passed"]
    row = report["checks"][0]
    assert (row["name"], row["claim"], row["suite"]) == ("fisher", "suite execution", "fisher")
    assert "synthetic failure" in row["detail"]["error"]


def test_a_suite_crash_keeps_the_rows_and_data_it_made(monkeypatch, tmp_path):
    def boom(ws, params):
        raise RuntimeError("synthetic corpus failure")
    monkeypatch.setattr(harness, "_ws_corpus", boom)
    report = harness.verify("fisher", fast=True, out_dir=tmp_path)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("fisher-trajectory e=0.95", "pass"), ("fisher", "error")]
    assert "synthetic corpus failure" in report["checks"][1]["detail"]["error"]
    assert [Path(p).name for p in report["artifacts"]] == ["fisher-trajectory.json"]


def test_a_failing_tracked_run_is_one_error_row_per_regularity_check(monkeypatch):
    tracked = []
    evolve = sp.evolve

    def failing_tracked_run(*args, reference=None, **kwargs):
        if reference is not None:
            tracked.append(1)
            raise FloatingPointError("synthetic tracked-run failure")
        return evolve(*args, reference=reference, **kwargs)
    monkeypatch.setattr(sp, "evolve", failing_tracked_run)
    report = harness.verify("regularity", fast=True)
    keys = [f"sup_{sp._SUP_DELTA:g}"] + [f"hr_{r:g}" for r in sp._SOBOLEV_ORDERS]
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        *((f"regularity-{k} e=0.95", "error") for k in keys),
        ("hcs-envelope-report e=0.95", "pass")]
    for key, row in zip(keys, report["checks"]):
        assert row["claim"] == f"{key} stays within 5% of max(initial, steady) along the run"
        assert "synthetic tracked-run failure" in row["detail"]["error"]
    assert report["hcs_envelope"] == report["checks"][-1]["detail"]
    assert len(tracked) == 1  # the failure is kept, not evolved again per check


def test_a_raising_check_is_an_error_row_under_its_own_name(monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic gain failure")
    monkeypatch.setattr(rs, "fisher_gain_check", boom)
    report = harness.verify("fisher", fast=True)
    rows = {c["name"]: c for c in report["checks"]}
    gain = [name for name in rows if name.startswith("fisher-gain")]
    assert gain == ["fisher-gain maxwellian e=0.9", "fisher-gain mixture-a e=0.9"]
    for name in gain:
        row = rows[name]
        assert row["status"] == "error"
        assert row["claim"] == ("one application of the gain grows Fisher "
                                "information by at most 1+growth")
        assert row["measured"] is row["bound"] is row["slack"] is None
        assert "synthetic gain failure" in row["detail"]["error"]
    # the checks around the raising one still run and pass
    assert rows["fisher-trajectory e=0.95"]["status"] == "pass"
    assert rows["fourier-sup-fisher scale-invariance"]["status"] == "pass"
    assert report["n_error"] == 2 and report["n_pass"] == 2


def test_verify_hash_covers_exactly_the_stamp(tmp_path, monkeypatch):
    # the suite's numbers play no part in the hash; skip the work
    monkeypatch.setitem(harness._SUITE_RUNNERS, "kinematics", lambda ws, params, rows, raw: None)
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
    assert base["provenance"]["dt"] == sp.DT
    assert report()["config_sha256"] != base["config_sha256"]
    monkeypatch.setattr(harness, "FAST", dataclasses.replace(harness.FAST,
                                                             mc_samples=40_000))
    fewer = report("--fast")["config_sha256"]
    assert fewer != base["config_sha256"]
    monkeypatch.setattr(sp, "QUAD_ORDER", 2 * sp.QUAD_ORDER)
    doubled_q = report("--fast")["config_sha256"]
    assert doubled_q != fewer
    monkeypatch.setattr(sp, "DT", 2 * sp.DT)
    assert report("--fast")["config_sha256"] != doubled_q


def test_cli_artifact_hash_covers_the_code_stamp(tmp_path, monkeypatch):
    # the config text alone does not fix a result: the gain quadrature
    # order and the package versions shape it too
    path = tmp_path / "trace.csv"  # the same path, so the same config

    def sha():
        assert run_cli(["evolve", "--grid-n", "256", "--x-max", "20", "--t-max",
                        str(sp.DT), "--out", str(path)]) == 0
        stamp, digest = _read_stamp(path)
        assert stamp["command"] == "evolve"
        assert set(stamp["config"]) == set(cli._COMMAND_FIELDS["evolve"])
        assert stamp["quad_order"] == sp.QUAD_ORDER
        return digest

    base = sha()
    assert sha() == base
    monkeypatch.setattr(sp, "QUAD_ORDER", 2 * sp.QUAD_ORDER)
    assert sha() != base


def test_stamp_hash_covers_the_blas_kernel_and_thread_count():
    # the kernel and the thread count of numpy's OpenBLAS change the bits of
    # reconstruct's sums, so a stamp made under another one hashes apart
    if harness._blas() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS kernel name or thread count")
    code = ("import json\nfrom maxcool import harness\n"
            "stamp, sha = harness._stamp({})\nprint(json.dumps([stamp['blas'], sha]))\n")

    def stamp(**env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**base, **env}, check=True)
        return json.loads(out.stdout)

    one, two = stamp(OPENBLAS_NUM_THREADS="1"), stamp(OPENBLAS_NUM_THREADS="2")
    sandybridge = stamp(OPENBLAS_CORETYPE="Sandybridge", OPENBLAS_NUM_THREADS="1")
    assert one[0]["threads"] == 1 and sandybridge[0]["corename"] == "Sandybridge"
    assert (sandybridge[1] != one[1]) == (one[0]["corename"] != "Sandybridge")
    if (os.cpu_count() or 1) >= 2:
        assert two[0]["threads"] == 2 and two[1] != one[1]


def test_cli_dsmc_hash_covers_exactly_its_inputs(tmp_path, monkeypatch):
    # a particle run reads no grid and runs no gain, but its ECF columns
    # come from --x-grid, which no config field holds
    def sha(*flags, name="dsmc.csv"):
        path = tmp_path / name
        assert run_cli(["dsmc", "--n", "200", "--t-max", "0.05", "--out", str(path),
                        *flags]) == 0
        stamp, digest = _read_stamp(path)
        assert set(stamp["config"]) == set(cli._COMMAND_FIELDS["dsmc"])
        assert "grid_n" not in stamp["config"] and "quad_order" not in stamp
        return digest

    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert all(set(fields) <= names for fields in cli._COMMAND_FIELDS.values())
    base = sha("--x-grid", "0,1.5")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_n=512\ntol=1e-3\n")
    assert sha("--x-grid", "0,1.5", "--config", str(cfg)) == base
    assert sha("--x-grid", "0.0,1.50", name="other.csv") == base  # same abscissae and run
    monkeypatch.setattr(sp, "QUAD_ORDER", 2 * sp.QUAD_ORDER)
    assert sha("--x-grid", "0,1.5") == base
    assert sha("--x-grid", "0,2") != base
    assert sha() != base
    assert sha("--x-grid", "0,1.5", "--seed", "1") != base


def test_verify_all_fast_smoke(tmp_path, read_series):
    report = harness.verify("all", fast=True, out_dir=tmp_path)
    assert report["n_error"] == 0
    # the known-red criterion-8 check; every other check passes
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == [
        "sweep-envelope-stability"]
    # the row contract: unique names, slack the signed margin to the bound,
    # and on this report a row passes exactly when its slack is nonnegative
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    lower = ("fisher-trajectory", "d2-decay-rate", "inequalities ")
    for c in report["checks"]:
        if c["bound"] is None:
            assert c["slack"] is None and c["status"] == "pass"
            continue
        if c["name"].startswith(lower):
            assert c["slack"] == c["measured"] - c["bound"]
        else:
            assert c["slack"] == c["bound"] - c["measured"]
        assert (c["status"] == "pass") == (c["slack"] >= 0.0)
    assert report["provenance"]["table"] == dataclasses.asdict(harness.FAST)
    assert report["steady_e095_warnings"] == []
    assert "artifact_error" not in report and len(report["artifacts"]) == 8
    for path in report["artifacts"]:
        assert report["config_sha256"] in Path(path).read_text()
    steady = np.loadtxt(tmp_path / "steady-e0.95.csv", delimiter=",", comments="#")
    assert steady.shape == (harness.FAST.grid[0], 2)
    assert len(read_series(tmp_path / "dsmc-e0.5.csv")[1]) > 1


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
    assert run_cli(["compare", "no-such-report.json", "no-such-report.json"]) == 2
    assert run_cli(["compare", "a.json", "b.json", "--rtol", "-1"]) == 2
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


def test_cli_dsmc_writes_artifact(tmp_path, capsys, read_series):
    out = tmp_path / "dsmc.csv"
    code = run_cli(["dsmc", "--e", "0.5", "--n", "2000", "--t-max", "0.5",
                    "--dt", "0.01", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, body = read_series(out)
    assert body[-1, 0] == pytest.approx(0.5)
    assert _read_stamp(out)[0]["config"]["e"] == 0.5
    # the summary names the events and the vectorized updates that applied them
    ens = dsmc.sample_initial("maxwellian", 2000, seed=1, e=0.5)
    series = dsmc.run(ens, t_max=0.5, dt=0.01)
    assert capsys.readouterr().out.endswith(
        f" {ens.collisions_applied} collisions in {series['batches']} batches\n")


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
                    "--tol", "1e-4", "--out", str(prof)])
    assert code == 0
    out = capsys.readouterr().out
    assert "newton_steps=" in out and "gmres_steps=" in out
    assert prof.read_text().startswith("# maxcool-profile v1 e=0.80000000000000004 ")
    assert np.loadtxt(prof, delimiter=",", comments="#").shape == (256, 2)


def test_cli_steady_and_sweep_defaults_are_the_full_sweep_suites():
    parser = cli._build_parser()
    for command in ("steady", "sweep-eps"):
        cfg = cli._resolve(parser.parse_args([command]))
        assert (cfg.grid_n, cfg.x_max) == harness.FULL.sweep_grid
        # the steady solve takes no time step
        for flag in ("--dt", "--t-max"):
            assert run_cli([command, flag, "1"]) == 2
    assert cfg.tol == harness.FULL.sweep_tol
    assert cfg.eps_values() == harness.FULL.sweep_eps


def test_every_spectral_solve_steps_at_the_one_dt(monkeypatch):
    assert sp.SolverConfig().dt == sp.DT
    assert ExperimentConfig().dt == sp.DT
    parser = cli._build_parser()
    assert cli._resolve(parser.parse_args(["evolve"])).dt == sp.DT
    for fast in (False, True):
        assert harness._provenance("all", fast)[0]["dt"] == sp.DT
    # the steady solve takes no step at all
    monkeypatch.setattr(sp, "step", None)
    assert sp.steady_profile(0.9, tol=1e-6, grid=sp.RadialGrid(256, 20.0)).meta["converged"]


def test_cli_steady_solves_as_the_sweep_does(tmp_path):
    # the CLI, a direct call and the sweep run one and the same steady solve
    eps, tol, grid = 0.1, 1e-4, sp.RadialGrid(256, 15.0)
    e = 1.0 - 2.0 * eps
    prof = tmp_path / "steady.csv"
    assert run_cli(["steady", "--e", repr(e), "--grid-n", "256", "--x-max", "15",
                    "--tol", repr(tol), "--out", str(prof)]) == 0
    written = np.loadtxt(prof, delimiter=",", comments="#")[:, 1]
    direct = sp.steady_profile(e, tol=tol, grid=grid)
    np.testing.assert_array_equal(written, direct.values)  # 17 digits round-trip

    r_nodes = rs.default_r_nodes(*harness.FULL.r_nodes)
    f = rs.reconstruct(direct, r_nodes)
    l1 = rs.l1_distance(f, rs.RadialDensity.maxwellian(r_nodes, theta=f.m2 / 3.0))
    table = harness.sweep_epsilon([eps], grid=grid, tol=tol, raise_on_failure=False)
    assert table["l1"] == [l1]


def test_cli_steady_nonconvergence_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(sp, "_NEWTON_STEPS", 1)
    with pytest.warns(UserWarning, match="did not reach"):
        code = run_cli(["steady", "--e", "0.8", "--grid-n", "256", "--x-max",
                        "15", "--tol", "1e-12"])
    assert code == 1
    assert "no convergence" in capsys.readouterr().err


def test_cli_sweep_exit_codes(tmp_path, capsys):
    common = ["--grid-n", "256", "--x-max", "15", "--tol", "1e-4"]
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-eps", "--eps", "0.1,0.05", "--out", str(out)]
                   + common) == 0
    assert "# maxcool-sweep v1" in out.read_text()
    capsys.readouterr()
    assert run_cli(["sweep-eps", "--eps", "0.1,0.02"] + common) == 1
    err = capsys.readouterr().err
    assert "c_stable=False" in err


# ---------------------------------------------------------------------------
# report comparison

@pytest.fixture(scope="module")
def small_report():
    return harness.verify("inequalities", fast=True)


def _compare_cli(tmp_path, old, new, *flags):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, report in zip(paths, (old, new)):
        harness.save_report(path, report)
    return run_cli(["compare", *map(str, paths), *flags])


def test_compare_of_a_report_with_itself_is_empty(small_report, tmp_path, capsys):
    new = json.loads(json.dumps(small_report))  # what a saved report reads back as
    new["checks"][0]["detail"]["nan"] = math.nan  # NaN equals NaN
    old = json.loads(json.dumps(small_report))
    old["checks"][0]["detail"]["nan"] = math.nan
    # timings and the stamp are reported, and never make reports inequivalent
    new["elapsed_seconds"] += 1.0
    new["suite_elapsed"]["inequalities"] += 1.0
    old["provenance"]["blas"] = {"corename": "SkylakeX", "threads": 1}
    new["provenance"]["blas"] = {"corename": "Sandybridge", "threads": 2}
    new["config_sha256"] = "0" * 64
    diff = harness.compare_reports(old, new)
    assert diff["equivalent"] and diff["compared"] > 5 * len(old["checks"])
    assert not (diff["verdicts"] or diff["added"] or diff["missing"] or diff["moves"])
    assert {f["field"] for f in diff["provenance"]} == {"blas.corename", "blas.threads"}
    assert diff["config_sha256"] == [old["config_sha256"], "0" * 64]
    assert _compare_cli(tmp_path, old, new) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "0 verdicts changed, 0 added, 0 missing; 0 of %d values moved, 0 beyond rtol 0; "
        "2 stamp fields differ; equivalent" % diff["compared"])


def test_compare_shows_one_changed_bit_of_measured_in_hex(small_report, tmp_path, capsys):
    new = json.loads(json.dumps(small_report))
    row = new["checks"][1]
    was = row["measured"]
    row["measured"] = float(np.nextafter(was, math.inf))
    (move,) = harness.compare_reports(small_report, new)["moves"]
    assert (move["row"], move["field"], move["beyond"]) == (row["name"], "measured", True)
    assert (move["old_hex"], move["new_hex"]) == (was.hex(), row["measured"].hex())
    assert move["bound"] == row["bound"] and 0.0 < move["rel"] < 1e-15
    assert _compare_cli(tmp_path, small_report, new) == 1
    out = capsys.readouterr().out
    assert f"{was.hex()} -> {row['measured'].hex()}" in out and "NOT equivalent" in out
    assert _compare_cli(tmp_path, small_report, new, "--rtol", "1e-15") == 0


def test_compare_exits_1_on_a_verdict_flip(small_report, tmp_path, capsys):
    new = json.loads(json.dumps(small_report))
    row = new["checks"][2]
    assert row["status"] == "pass"
    row["status"] = "fail"
    diff = harness.compare_reports(small_report, new, rtol=1.0)
    assert diff["verdicts"] == [{"row": row["name"], "suite": "inequalities",
                                 "old": "pass", "new": "fail"}]
    assert not diff["moves"] and not diff["equivalent"]
    assert _compare_cli(tmp_path, small_report, new, "--rtol", "1") == 1
    assert f"verdict inequalities/{row['name']}: pass -> fail" in capsys.readouterr().out


def test_compare_reports_a_missing_row(small_report, tmp_path, capsys):
    new = json.loads(json.dumps(small_report))
    gone = new["checks"].pop(3)
    diff = harness.compare_reports(small_report, new)
    assert diff["missing"] == [gone["name"]] and not diff["added"]
    assert diff["rows"] == [len(small_report["checks"]), len(new["checks"])]
    assert not diff["moves"] and not diff["equivalent"]
    assert harness.compare_reports(new, small_report)["added"] == [gone["name"]]
    assert _compare_cli(tmp_path, small_report, new) == 1
    assert f"missing row {gone['name']}" in capsys.readouterr().out

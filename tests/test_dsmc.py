"""Particle-solver tests: sampling, event semantics, moment laws, estimators.

Monte Carlo assertions use fixed seeds, so every band below is deterministic;
bands are sized from the CLT with generous safety factors where the law is
statistical, and tight absolute tolerances where the law is exact per event.
"""

import math
import os

import numpy as np
import pytest

from maxcool import dsmc, kinematics
from maxcool.kinematics import dissipation_rate

N_BIG = 100_000


@pytest.fixture(scope="module")
def decay_run():
    """e=0.5 cooling run used by the rate, momentum, and band tests."""
    ens = dsmc.sample_initial("maxwellian:1.0", N_BIG, seed=0, e=0.5)
    series = dsmc.run(ens, t_max=10.0, dt=0.01)
    return ens, series


@pytest.fixture(scope="module")
def rescale_run():
    """Longer e=0.5 run for rescaled-moment checks (t <= 20)."""
    ens = dsmc.sample_initial("maxwellian:1.0", 50_000, seed=0, e=0.5)
    series = dsmc.run(ens, t_max=20.0, dt=0.02)
    return ens, series


def anisotropic_ensemble(n=2000):
    vel = np.zeros((n, 3))
    vel[: n // 2, 0] = 1.0
    vel[n // 2 :, 0] = -1.0
    return dsmc.Ensemble(vel, seed=1)


# ---------------------------------------------------------------- validation


def test_ensemble_validation():
    good = np.zeros((4, 3))
    good[0, 0] = 1.0
    good[1, 0] = -1.0
    dsmc.Ensemble(good)
    with pytest.raises(ValueError, match=r"shape"):
        dsmc.Ensemble(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="2 particles"):
        dsmc.Ensemble(np.zeros((1, 3)))
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dsmc.Ensemble(bad)
    with pytest.raises(ValueError, match="nonnegative"):
        dsmc.Ensemble(good, t=-1.0)
    with pytest.raises(ValueError, match="seed"):
        dsmc.Ensemble(good, seed=-3)
    with pytest.raises(ValueError):
        dsmc.Ensemble(good, e=0.0)


def test_parse_initial_spec():
    assert dsmc.parse_initial_spec("maxwellian") == {"kind": "maxwellian", "theta": 1.0}
    assert dsmc.parse_initial_spec("maxwellian:2.5") == {"kind": "maxwellian", "theta": 2.5}
    mix = dsmc.parse_initial_spec("bimax:0.5,0.6,1.4")
    assert mix == {"kind": "mixture", "p": 0.5, "theta1": 0.6, "theta2": 1.4}
    for bad in ("gaussian:1", "mixture:0.5,0.6", "maxwellian:1,2"):
        with pytest.raises(ValueError):
            dsmc.parse_initial_spec(bad)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        dsmc.parse_initial_spec("mixture:1.5,0.6,1.4")
    with pytest.raises(ValueError, match="positive"):
        dsmc.parse_initial_spec("maxwellian:-1")


def test_run_validation():
    ens = dsmc.sample_initial("maxwellian:1.0", 100, seed=0)
    with pytest.raises(ValueError, match="dt"):
        dsmc.run(ens, t_max=1.0, dt=0.2)
    with pytest.raises(ValueError, match="dt"):
        dsmc.run(ens, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError, match="dt"):
        dsmc.run(ens, t_max=1.0, dt=float("nan"))
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_max"):
            dsmc.run(ens, t_max=t_max, dt=0.05)
    with pytest.raises(ValueError, match="record_every"):
        dsmc.run(ens, t_max=1.0, dt=0.05, record_every=0)
    with pytest.raises(ValueError, match="x_grid"):
        dsmc.run(ens, t_max=1.0, dt=0.05, x_grid=[[0.0, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        dsmc.ecf(ens, [-1.0, 0.0])


# ------------------------------------------------------------------ sampling


def test_sampling_determinism():
    a = dsmc.sample_initial("maxwellian:1.0", 5000, seed=12)
    b = dsmc.sample_initial("maxwellian", 5000, seed=12)  # the same spec, theta by default
    assert np.array_equal(a.velocities, b.velocities)
    c = dsmc.sample_initial("maxwellian:1.0", 5000, seed=13)
    assert not np.array_equal(a.velocities, c.velocities)


def test_sampling_moment_bands():
    band = 5.0 / np.sqrt(N_BIG)
    ens = dsmc.sample_initial("maxwellian:1.0", N_BIG, seed=0)
    m1, m2, _ = ens.moments()
    assert np.abs(m1).max() < 1e-14  # centered exactly, up to rounding
    assert abs(m2 - 3.0) < band
    mix = dsmc.sample_initial("mixture:0.5,0.6,1.4", N_BIG, seed=0)
    _, m2x, m4x = mix.moments()
    assert abs(m2x - 3.0) < band  # mixture mean temperature is 1
    assert abs(m4x - 17.4) < 0.5  # distributional m4 of the mixture


def test_sampling_band_warning():
    # seed 7 lands just outside the 5/sqrt(N) band: a real ~4% fluctuation
    with pytest.warns(UserWarning, match=r"5/sqrt\(N\)"):
        dsmc.sample_initial("maxwellian:1.0", N_BIG, seed=7)


def test_sampling_small_n():
    ens = dsmc.sample_initial("maxwellian:1.0", 2, seed=0)
    assert ens.n == 2
    with pytest.raises(ValueError, match="at least 2"):
        dsmc.sample_initial("maxwellian:1.0", 1, seed=0)


# ----------------------------------------------------------- event semantics


def test_levels():
    levels = dsmc._levels
    assert levels(np.array([[0, 1], [2, 3], [4, 5]])).tolist() == [0, 0, 0]
    assert levels(np.array([[0, 1], [1, 2], [2, 3]])).tolist() == [0, 1, 2]
    assert levels(np.array([[0, 1], [2, 3], [0, 2]])).tolist() == [0, 0, 1]
    assert levels(np.array([[0, 1], [0, 1], [0, 1]])).tolist() == [0, 1, 2]
    assert levels(np.array([[1, 0], [2, 3], [3, 4], [5, 0]])).tolist() == [0, 0, 1, 1]
    assert levels(np.array([[5, 9]])).tolist() == [0]


def _apply_one_by_one(vel, idx, sigma, e):
    for (i, j), s in zip(idx, sigma):
        vp, wp, _, _ = kinematics.swap_forward(vel[i][None], vel[j][None], s[None], e)
        vel[i] = vp[0]
        vel[j] = wp[0]


def test_chunked_apply_matches_sequential():
    rng = np.random.default_rng(3)
    n, k, e = 12, 600, 0.7
    vel = rng.normal(size=(n, 3))
    i = rng.integers(0, n, k)
    j = (i + rng.integers(1, n, k)) % n
    idx = np.column_stack([i, j])
    sigma = kinematics.uniform_sphere(rng, k)
    level = dsmc._levels(idx)
    assert level.max() > 100  # hundreds of levels, most of them a few events wide

    batched = vel.copy()
    assert dsmc._apply_events(batched, idx, sigma, e) == level.max() + 1
    seq = vel.copy()
    _apply_one_by_one(seq, idx, sigma, e)
    assert np.array_equal(batched, seq)  # bit-exact, not just close


def test_grazing_pairs_are_noops():
    vel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    before = vel.copy()
    sigma = kinematics.uniform_sphere(kinematics.block_rng(0, 1), 1)
    assert dsmc._apply_events(vel, np.array([[0, 1]]), sigma, 0.5) == 1
    assert np.array_equal(vel, before)


def test_per_event_conservation_laws():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v, w = rng.normal(size=3), rng.normal(size=3)
        sigma = kinematics.uniform_sphere(rng, 1)[0]
        e = rng.uniform(0.05, 1.0)
        vp, wp, _, _ = kinematics.swap_forward(v[None], w[None], sigma[None], e)
        assert np.abs((vp[0] + wp[0]) - (v + w)).max() < 1e-13
        k = (v - w) / np.linalg.norm(v - w)
        n = (k - sigma) / np.linalg.norm(k - sigma)
        d_energy = (vp[0] @ vp[0] + wp[0] @ wp[0]) - (v @ v + w @ w)
        law = -0.5 * (1.0 - e * e) * ((v - w) @ n) ** 2
        assert d_energy == pytest.approx(law, abs=1e-12)


# -------------------------------------------------------------- run behavior


def test_elastic_m2_constant():
    ens = dsmc.sample_initial("maxwellian:1.0", 20_000, seed=0, e=1.0)
    series = dsmc.run(ens, t_max=5.0, dt=0.05)
    drift = np.abs(series["m2"] / series["m2"][0] - 1.0).max()
    assert drift < 1e-12
    assert ens.t == pytest.approx(5.0, abs=1e-12)
    # Poisson event budget: N t/2 within 5 sigma
    lam = 20_000 * 5.0 / 2.0
    assert abs(ens.collisions_applied - lam) < 5.0 * np.sqrt(lam)


def test_energy_decay_rate(decay_run):
    _, series = decay_run
    slope = np.polyfit(series["t"], np.log(series["m2"]), 1)[0]
    target = -2.0 * dissipation_rate(0.5)  # -(1-e^2)/4 = -0.1875
    assert target == -0.1875
    assert slope == pytest.approx(target, rel=0.02)


def test_momentum_band(decay_run):
    ens, series = decay_run
    band = 4.0 * np.sqrt(series["m2"][:, None] / ens.n)
    assert np.all(np.abs(series["m1"]) <= band)


def test_run_determinism_and_continuation():
    def fresh():
        return dsmc.sample_initial("maxwellian:1.0", 5000, seed=5, e=0.7)

    a, b = fresh(), fresh()
    sa = dsmc.run(a, t_max=2.0, dt=0.05)
    sb = dsmc.run(b, t_max=2.0, dt=0.05)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(sa["m2"], sb["m2"])
    assert a.collisions_applied == b.collisions_applied
    # two back-to-back runs reproduce a single long run bit-exactly
    c = fresh()
    dsmc.run(c, t_max=1.0, dt=0.05)
    dsmc.run(c, t_max=1.0, dt=0.05)
    assert np.array_equal(a.velocities, c.velocities)
    assert c.t == pytest.approx(2.0, abs=1e-12)


def _replay(ens, dt, n_steps, record_steps, x):
    """Rebuild a run from the draw order `dsmc.run` documents, one event at
    a time: the final velocities, every step's moments and ECF, the number
    of events, and the numbers of batches (ending at record_steps or at N/2
    queued events) and of levels over them."""
    vel = ens.velocities.copy()
    n = ens.n
    rows = [(dsmc.Ensemble(vel).moments(), dsmc.ecf(dsmc.Ensemble(vel), x))]
    last = np.full(n, -1)  # level of each particle's latest event in the open batch
    queued = events = batches = levels = 0
    for step in range(1, n_steps + 1):
        rng = kinematics.block_rng(ens.seed, 1 + step)
        k = int(rng.poisson(0.5 * n * dt))
        if k:
            i = rng.integers(0, n, k)
            j = (i + rng.integers(1, n, k)) % n
            sigma = kinematics.uniform_sphere(rng, k)
            _apply_one_by_one(vel, np.column_stack([i, j]), sigma, ens.e)
            for a, b in zip(i, j):
                last[a] = last[b] = max(last[a], last[b]) + 1
        queued += k
        events += k
        if queued and (step in record_steps or 2 * queued >= n):
            batches += 1
            levels += last.max() + 1
            last[:] = -1
            queued = 0
        rows.append((dsmc.Ensemble(vel).moments(), dsmc.ecf(dsmc.Ensemble(vel), x)))
    return vel, rows, events, batches, levels


def test_run_follows_the_pinned_stream_event_by_event():
    n, dt, n_steps, e = 40, 0.05, 80, 0.6
    x = np.linspace(0.0, 4.0, 5)

    def fresh():
        return dsmc.sample_initial("maxwellian", n, seed=11, e=e)

    def check(ens, series, steps, record_steps):
        vel, rows, events, batches, levels = _replay(fresh(), dt, n_steps, record_steps, x)
        assert np.array_equal(ens.velocities, vel)
        assert ens.collisions_applied == events
        assert series["batches"] == levels
        for r, step in enumerate(steps):
            (m1, m2, m4), (ecf, ecf_se) = rows[step]
            assert np.array_equal(series["m1"][r], m1)
            assert series["m2"][r] == m2 and series["m4"][r] == m4
            assert np.array_equal(series["ecf"][r], ecf)
            assert np.array_equal(series["ecf_stderr"][r], ecf_se)
        return batches

    # records at 30, 60 and 80; 20 queued events close batches in between,
    # and some batches take more than one level
    one = fresh()
    series = dsmc.run(one, t_max=n_steps * dt, dt=dt, x_grid=x, record_every=30)
    batches = check(one, series, [0, 30, 60, 80], {30, 60, 80})
    assert 3 < batches < series["batches"]

    every = fresh()
    series = dsmc.run(every, t_max=n_steps * dt, dt=dt, x_grid=x, record_every=1)
    check(every, series, range(n_steps + 1), set(range(1, n_steps + 1)))

    ends = fresh()
    series = dsmc.run(ends, t_max=n_steps * dt, dt=dt, x_grid=x, record_every=n_steps)
    check(ends, series, [0, n_steps], {n_steps})

    two = fresh()
    first = dsmc.run(two, t_max=40 * dt, dt=dt, x_grid=x, record_every=30)
    second = dsmc.run(two, t_max=40 * dt, dt=dt, x_grid=x, record_every=30)
    merged = {"batches": first["batches"] + second["batches"]}
    for key in ("m1", "m2", "m4", "ecf", "ecf_stderr"):
        merged[key] = np.concatenate([first[key], second[key][1:]])
    check(two, merged, [0, 30, 40, 70, 80], {30, 40, 70, 80})
    assert np.array_equal(two.velocities, one.velocities)


def test_snapping_warning():
    ens = dsmc.sample_initial("maxwellian:1.0", 100, seed=0)
    with pytest.warns(UserWarning, match="snapping"):
        dsmc.run(ens, t_max=0.52, dt=0.05)
    assert ens.t == pytest.approx(0.5, abs=1e-12)


def test_record_schedule():
    ens = dsmc.sample_initial("maxwellian:1.0", 100, seed=0)
    series = dsmc.run(ens, t_max=5.0, dt=0.05, record_every=30)
    assert np.allclose(series["t"], [0.0, 1.5, 3.0, 4.5, 5.0], atol=1e-12)
    assert series["n_particles"] == 100
    assert series["e"] == 1.0
    assert series["m1"].shape == (5, 3)


# ---------------------------------------------------------------- estimators


def test_ecf_basics():
    ens = dsmc.sample_initial("maxwellian:1.0", N_BIG, seed=0)
    vals, err = dsmc.ecf(ens, [0.0, 1.0])
    assert vals[0] == 1.0 and err[0] == 0.0  # x = 0 is exact
    assert vals[1] == pytest.approx(np.exp(-0.5), abs=3.0 / np.sqrt(N_BIG))
    assert 0.0 < err[1] < 2.0 / np.sqrt(N_BIG)


def test_ecf_anisotropic_matches_cosine_average():
    ens = anisotropic_ensemble()
    xs = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    vals, err = dsmc.ecf(ens, xs)
    # every particle has |v| = 1, so each kernel is the sphere average of
    # cos(x d_x) over directions d, sinc(x), and the sample is constant
    sinc = np.ones_like(xs)
    sinc[1:] = np.sin(xs[1:]) / xs[1:]
    assert np.abs(vals - sinc).max() < 1e-15
    assert np.all(err == 0.0)


def test_ecf_is_rotation_invariant():
    ens = dsmc.sample_initial("maxwellian:1.0", 5000, seed=5)
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    rotated = dsmc.Ensemble(ens.velocities @ q.T, seed=5)
    xs = np.linspace(0.0, 6.0, 13)
    vals, err = dsmc.ecf(ens, xs)
    vals_rot, err_rot = dsmc.ecf(rotated, xs)
    assert np.abs(vals - vals_rot).max() < 1e-14
    assert np.abs(err - err_rot).max() < 1e-14


def test_run_with_ecf_records():
    ens = dsmc.sample_initial("maxwellian:1.0", 2000, seed=4, e=0.9)
    x = np.linspace(0.0, 5.0, 6)
    series = dsmc.run(ens, t_max=1.0, dt=0.05, x_grid=x, record_every=10)
    assert series["ecf"].shape == (3, 6)
    assert np.all(series["ecf"][:, 0] == 1.0)
    assert np.all(series["ecf_stderr"][:, 0] == 0.0)
    assert np.all(series["ecf_stderr"][:, 1:] > 0.0)


# ------------------------------------------------------------------ rescaling


def test_rescaled_m2_constant(rescale_run):
    ens, series = rescale_run
    rescaled = dsmc.rescaled_estimates(series, 0.5)
    spread = np.ptp(rescaled["m2"]) / rescaled["m2"][0]
    assert spread < 5.0 / np.sqrt(ens.n)  # Monte Carlo band
    # while the unscaled m2 decayed by e^{-2 E t} ~ 42x
    assert series["m2"][-1] < 0.03 * series["m2"][0]


def test_rescaled_m4_bounded(rescale_run):
    _, series = rescale_run
    rescaled = dsmc.rescaled_estimates(series, 0.5)
    m4 = rescaled["m4"]
    assert np.all(np.isfinite(m4))
    assert m4.max() < 1.4 * m4[0]  # uniform-in-time bound; measured ratio 1.31
    assert series["m4"][-1] < 0.01 * series["m4"][0]  # unscaled m4 collapsed


def test_rescaled_elastic_is_identity():
    ens = dsmc.sample_initial("maxwellian:1.0", 1000, seed=2, e=1.0)
    series = dsmc.run(ens, t_max=1.0, dt=0.05, x_grid=[0.0, 1.0])
    rescaled = dsmc.rescaled_estimates(series, 1.0)
    assert np.array_equal(rescaled["m2"], series["m2"])
    assert np.array_equal(rescaled["m4"], series["m4"])
    assert np.array_equal(rescaled["x_rescaled"][0], series["x_grid"])


def test_rescaled_ecf_abscissae():
    e = 0.95
    big_e = dissipation_rate(e)
    targets = np.linspace(0.0, 6.0, 7)
    ens = dsmc.sample_initial("maxwellian:1.0", 5000, seed=2, e=e)
    series = dsmc.run(ens, t_max=2.0, dt=0.05,
                      x_grid=targets * np.exp(big_e * 2.0), record_every=40)
    rescaled = dsmc.rescaled_estimates(series, e)
    # values are reused; the final-row abscissae land exactly on the targets
    assert np.array_equal(rescaled["ecf"], series["ecf"])
    assert rescaled["x_rescaled"][-1] == pytest.approx(targets, abs=1e-14)
    assert rescaled["m2"][0] == series["m2"][0]


def test_rescaled_estimates_use_closed_form_dissipation():
    # the DSMC rescaling and the spectral drift share E = (1 - e^2)/8 exactly
    e = 0.95
    t = np.linspace(0.0, 10.0, 11)
    ones = np.ones_like(t)
    series = {"t": t, "m1": np.zeros((len(t), 3)), "m2": ones, "m4": ones}
    rescaled = dsmc.rescaled_estimates(series, e)
    fac = np.exp((1.0 - e * e) / 8.0 * t)
    assert np.array_equal(rescaled["m2"], fac ** 2)
    assert np.array_equal(rescaled["m4"], fac ** 4)


# ------------------------------------------------------------------------ csv


def test_series_roundtrip(tmp_path, read_series):
    ens = dsmc.sample_initial("mixture:0.5,0.6,1.4", 2000, seed=6, e=0.8)
    series = dsmc.run(ens, t_max=1.0, dt=0.05, x_grid=np.linspace(0.0, 8.0, 9),
                      record_every=5)
    path = os.path.join(tmp_path, "series.csv")
    dsmc.save_series(path, series)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    assert header == "# maxcool-dsmc v1 x_grid=0,1,2,3,4,5,6,7,8\n"
    columns, body = read_series(path)
    assert columns == ["t", "m1x", "m1y", "m1z", "m2", "m4"] + [f"ecf_x{i}" for i in range(9)]
    assert np.array_equal(body[:, 0], series["t"])  # 17 digits round-trip
    assert np.array_equal(body[:, 1:4], series["m1"])
    assert np.array_equal(body[:, 4], series["m2"])
    assert np.array_equal(body[:, 5], series["m4"])
    assert np.array_equal(body[:, 6:], series["ecf"])


def test_series_roundtrip_without_ecf(tmp_path, read_series):
    ens = dsmc.sample_initial("maxwellian:1.0", 500, seed=6, e=0.8)
    series = dsmc.run(ens, t_max=1.0, dt=0.05)
    path = os.path.join(tmp_path, "plain.csv")
    dsmc.save_series(path, series)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == "# maxcool-dsmc v1 x_grid=\n"
    columns, body = read_series(path)
    assert columns == ["t", "m1x", "m1y", "m1z", "m2", "m4"]
    assert np.array_equal(body[:, 0], series["t"])
    assert np.array_equal(body[:, 1:4], series["m1"])
    assert np.array_equal(body[:, 4], series["m2"])
    assert np.array_equal(body[:, 5], series["m4"])


def test_moments_mean_velocity_is_the_axis_0_mean():
    rng = np.random.default_rng(8)
    for n in (2, 1500, 100_003):
        # scaled rows with a mean that is not round-off
        v = rng.standard_normal((n, 3)) * rng.uniform(0.1, 3.0, (n, 1)) + [0.1, -0.2, 0.3]
        ens = dsmc.Ensemble(v)
        assert np.array_equal(ens.moments()[0], v.mean(axis=0))

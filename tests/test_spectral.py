"""Tests for the Fourier-space spectral solver and profile functionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxcool import harness, realspace as rs, spectral as sp
from maxcool.kinematics import Restitution


# ---------------------------------------------------------------------------
# grid / profile / config validation

def test_grid_validation():
    g = sp.RadialGrid(512, 30.0)
    assert g.dx == pytest.approx(30.0 / 511)
    assert g.x[0] == 0.0 and g.x[-1] == 30.0
    with pytest.raises(ValueError):
        sp.RadialGrid(255, 30.0)
    with pytest.raises(ValueError):
        sp.RadialGrid(512, 0.0)
    with pytest.raises(ValueError):
        sp.RadialGrid(512, math.inf)


def test_profile_validation():
    g = sp.RadialGrid(256, 10.0)
    vals = np.exp(-0.5 * g.x ** 2)
    p = sp.CharacteristicProfile(g, vals)
    assert p.time == 0.0
    bad = vals.copy()
    bad[0] = 0.5
    with pytest.raises(ValueError):
        sp.CharacteristicProfile(g, bad)
    bad = vals.copy()
    bad[10] = 1.5
    with pytest.raises(ValueError):
        sp.CharacteristicProfile(g, bad)
    bad = vals.copy()
    bad[10] = np.nan
    with pytest.raises(ValueError):
        sp.CharacteristicProfile(g, bad)
    with pytest.raises(ValueError):
        sp.CharacteristicProfile(g, vals[:-1])
    with pytest.raises(ValueError):
        sp.CharacteristicProfile.maxwellian(g, -1.0)
    with pytest.raises(ValueError):
        sp.CharacteristicProfile.bimaxwellian(g, p=1.5)


def test_config_validation():
    sp.SolverConfig(dt=0.01, t_max=1.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(quad_order=16)
    with pytest.raises(ValueError):
        sp.SolverConfig(frame="lab")


# ---------------------------------------------------------------------------
# gain operator

def test_gain_scale_identities():
    # endpoint values and the exact mean square (3 + e^2)/4
    for e in (0.3, 0.5, 0.9, 1.0):
        s, w, am, ap = sp.gain_scales(e, 64)
        assert np.all(am >= 0) and np.all(am <= (1 + e) / 2 + 1e-12)
        assert np.all(ap <= 1 + 1e-12)
        mean_sq = 0.5 * float(w @ (am ** 2 + ap ** 2))
        assert mean_sq == pytest.approx((3 + e * e) / 4, abs=1e-13)
        # endpoints of the s-interval
        assert 0.25 * (1 + e) * math.sqrt(4.0) == pytest.approx((1 + e) / 2)
        a_plus_at = lambda sv: math.sqrt(((3 - e) / 4) ** 2 + ((1 + e) / 4) ** 2
                                         + sv * (3 - e) * (1 + e) / 8)
        assert a_plus_at(1.0) == pytest.approx(1.0, abs=1e-15)
        assert a_plus_at(-1.0) == pytest.approx((1 - e) / 2, abs=1e-12)


def test_gain_scales_match_3d_kinematics():
    # a-(s) and a+(s) must agree with |eta -|, |eta +| from the vector forms
    rng = np.random.default_rng(7)
    m = 10 ** 6
    e = 0.85
    eta = rng.normal(size=(m, 3)) * rng.uniform(0.1, 3.0, size=(m, 1))
    sig = rng.normal(size=(m, 3))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    norm = np.linalg.norm(eta, axis=1)
    s = np.einsum("ij,ij->i", eta, sig) / norm
    eta_minus = 0.25 * (1 + e) * (eta - norm[:, None] * sig)
    eta_plus = eta - eta_minus
    am = 0.25 * (1 + e) * np.sqrt(2.0 * (1.0 - s))
    ap = np.sqrt(((3 - e) / 4) ** 2 + ((1 + e) / 4) ** 2 + s * (3 - e) * (1 + e) / 8)
    assert np.max(np.abs(np.linalg.norm(eta_minus, axis=1) / norm - am)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(eta_plus, axis=1) / norm - ap)) < 1e-12


def test_gain_fixed_point_constant():
    g = sp.RadialGrid(512, 20.0)
    one = sp.CharacteristicProfile(g, np.ones(g.n))
    for e in (0.3, 0.9):
        out = sp.gain_fourier(one, e)
        assert np.array_equal(out.values, np.ones(g.n))


def test_interp_plan_reproduces_ones_bit_exact():
    # root cause of the gain fixed point: the Hermite value weights sum to 1
    # only to rounding, so the operator must act on phi - 1 to carry phi = 1
    # exactly
    g = sp.RadialGrid(512, 20.0)
    plan = sp._gain_plan(g, 0.3, 64).plan
    assert np.array_equal(plan.eval(np.ones(g.n)), np.ones((128, g.n)))
    one = sp.CharacteristicProfile(g, np.ones(g.n))
    xq = np.linspace(0.0, g.x_max, 1001) * 0.999
    assert np.array_equal(sp.evaluate(one, xq), np.ones(len(xq)))


def test_drift_resample_of_ones_bit_exact():
    g = sp.RadialGrid(512, 20.0)
    for e, dt in ((0.3, 0.01), (0.95, 0.005)):
        shift = sp.dissipation_rate(e) * dt / 2.0
        assert np.array_equal(sp._drift_vals(np.ones(g.n), g, shift), np.ones(g.n))


@pytest.mark.parametrize("quad_order", [32, 64])
def test_gain_fixed_point_constant_quad_orders(quad_order):
    g = sp.RadialGrid(1024, 30.0)
    one = sp.CharacteristicProfile(g, np.ones(g.n))
    for e in (0.3, 0.9, 0.95, 1.0):
        out = sp.gain_fourier(one, e, quad_order=quad_order)
        assert np.array_equal(out.values, np.ones(g.n))


def test_default_quad_order_is_at_round_off(steady_e09, monkeypatch):
    # the s-integrand is analytic, so QUAD_ORDER nodes agree with 128 to
    # round-off; bound fixed before the run (measured: <= 5.1e-15 on the
    # bimaxwellian, 3.7e-14 on the steady profile)
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})  # plans of up to 59 MB each
    B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(4096, 50.0))
    for phi, e in [(B, e) for e in (0.2, 0.5, 0.8, 0.95, 0.99)] + [(steady_e09, 0.9)]:
        dev = np.max(np.abs(sp.gain_fourier(phi, e).values
                            - sp.gain_fourier(phi, e, quad_order=128).values))
        assert dev <= 1e-13, (e, dev)
        sp._GAIN_CACHE.clear()


def test_every_gain_runs_at_the_one_quad_order(monkeypatch):
    assert sp.SolverConfig().quad_order == sp.QUAD_ORDER
    assert harness.FULL.solver(0.01, 1.0).quad_order == sp.QUAD_ORDER
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    rs.fisher_gain_check(sp.CharacteristicProfile.maxwellian(sp.RadialGrid(1024, 30.0)), 0.9)
    assert [key[-1] for key in sp._GAIN_CACHE] == [sp.QUAD_ORDER]


def test_dissipation_rate_single_source():
    from maxcool.kinematics import dissipation_rate
    for e in (0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
        exact = (1.0 - e * e) / 8.0
        assert Restitution(e).E == exact
        assert sp.dissipation_rate(e) == exact
        assert dissipation_rate(e) == exact


def test_gain_fixed_point_gaussian_elastic():
    # at e = 1, a-^2 + a+^2 = 1, so every Maxwellian is a fixed point
    g = sp.RadialGrid(1024, 30.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    out = sp.gain_fourier(M, 1.0)
    assert np.max(np.abs(out.values - M.values)) < 1e-10


def test_gain_moment_contraction():
    # m2(Q+ phi) = ((3 + e^2)/4) m2(phi) for any profile
    g = sp.RadialGrid(2048, 40.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    for e in (0.5, 0.9):
        out = sp.gain_fourier(B, e)
        assert sp.moment(out, 2) / sp.moment(B, 2) == pytest.approx(
            (3 + e * e) / 4, abs=1e-6)


def test_gain_never_clamps():
    # both scale families lie in [0, 1]: queries stay on the grid
    g = sp.RadialGrid(512, 20.0)
    plan = sp._gain_plan(g, 0.4, 64)
    assert plan.plan.clamped == 0


def _hermite_reference(v, positions, h):
    # quintic Hermite evaluation in increment form, gathered query by query;
    # the operator form of _InterpPlan must reproduce it
    n = len(v)
    p = np.minimum(np.asarray(positions, dtype=float), float(n - 1))
    i0 = np.minimum(p.astype(np.int64), n - 2)
    t = p - i0
    d, c = sp._quintic_derivs(v, h)
    H3 = 10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5
    H1 = t - 6 * t ** 3 + 8 * t ** 4 - 3 * t ** 5
    H4 = -4 * t ** 3 + 7 * t ** 4 - 3 * t ** 5
    H2 = 0.5 * (t ** 2 - 3 * t ** 3 + 3 * t ** 4 - t ** 5)
    H5 = 0.5 * (t ** 3 - 2 * t ** 4 + t ** 5)
    v0, v1 = v[i0], v[i0 + 1]
    return (v0 + H3 * (v1 - v0) + h * (H1 * d[i0] + H4 * d[i0 + 1])
            + h * h * (H2 * c[i0] + H5 * c[i0 + 1]))


def test_interp_operator_matches_hermite_reference():
    rng = np.random.default_rng(11)
    g = sp.RadialGrid(512, 20.0)
    ramp = np.arange(g.n, dtype=float)
    tol = 1e-14
    for _ in range(3):
        v = rng.uniform(-1.0, 1.0, g.n)
        v[0] = 1.0
        # gain: both scale families, and the quadrature over their products
        for e, q in ((0.3, 32), (0.95, 64)):
            gain = sp._gain_plan(g, e, q)
            idx = gain.plan.M.indices
            assert idx.min() <= 2 and idx.max() >= g.n - 5
            _, w, am, ap = sp.gain_scales(e, q)
            ref = _hermite_reference(v, np.multiply.outer(np.concatenate([am, ap]), ramp), g.dx)
            assert np.max(np.abs(gain.plan.eval(v) - ref)) <= tol
            ref_gain = 1.0 + 0.5 * (w @ (ref[:q] * ref[q:] - 1.0))
            ref_gain[0] = 1.0
            assert np.max(np.abs(gain.apply(v) - ref_gain)) <= tol
        # drift: the dilated queries run past x_max and are clamped
        for shift in (1e-4, 0.02):
            plan = sp._drift_plan(g, shift)
            assert plan.clamped > 0
            ref = _hermite_reference(v, math.exp(shift) * ramp, g.dx)
            ref[0] = 1.0
            assert np.max(np.abs(sp._drift_vals(v, g, shift) - ref)) <= tol
        # evaluate: both ends of the grid, and abscissae past x_max
        phi = sp.CharacteristicProfile(g, v)
        xq = np.concatenate([rng.uniform(0.0, 3.0, 50), [0.0, g.dx, 2.5 * g.dx],
                             g.x_max - rng.uniform(0.0, 5.0, 50) * g.dx,
                             g.x_max + rng.uniform(0.0, 2.0, 5)])
        ref = _hermite_reference(v, np.minimum(xq, g.x_max) / g.dx, g.dx)
        assert np.max(np.abs(sp.evaluate(phi, xq) - ref)) <= tol
        plan = sp._InterpPlan(np.minimum(xq, g.x_max) / g.dx, g.n, g.dx)
        assert np.max(np.abs(sp.evaluate(phi, xq) - plan.eval(v))) <= 1e-15


def test_gain_plan_footprint():
    # 48 B of weights, a 4 B block index and a 4 B row pointer per query
    g = sp.RadialGrid(4096, 50.0)
    M = sp._GainPlan(g, 0.95, 64).plan.M
    queries = 2 * 64 * g.n
    assert M.shape[0] == queries
    stored = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert stored <= 56 * queries + M.indptr.itemsize  # the closing row pointer


@settings(max_examples=15, deadline=None)
@given(p=st.floats(0.2, 0.8), th1=st.floats(0.4, 1.0), th2=st.floats(1.0, 2.5),
       e=st.floats(0.3, 1.0))
def test_gain_preserves_bounds(p, th1, th2, e):
    g = sp.RadialGrid(512, 25.0)
    phi = sp.CharacteristicProfile.bimaxwellian(g, p, th1, th2)
    out = sp.gain_fourier(phi, e)
    assert out.values[0] == 1.0
    assert np.max(np.abs(out.values)) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# moments and functionals

def test_moments_maxwellian():
    g = sp.RadialGrid(4096, 50.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    assert sp.moment(M, 2) == pytest.approx(3.0, abs=1e-7)
    assert sp.moment(M, 4) == pytest.approx(15.0, abs=1e-4)
    M2 = sp.CharacteristicProfile.maxwellian(g, 2.0)
    assert sp.moment(M2, 2) == pytest.approx(6.0, abs=1e-7)
    assert sp.moment(M2, 4) == pytest.approx(60.0, abs=1e-3)
    with pytest.raises(ValueError):
        sp.moment(M, 3)


def test_moments_bimaxwellian():
    # mixture 0.5/0.6/1.4: m2 = 3, m4 = 15 (0.5*0.36 + 0.5*1.96) = 17.4
    g = sp.RadialGrid(4096, 50.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    assert sp.moment(B, 2) == pytest.approx(3.0, abs=1e-7)
    assert sp.moment(B, 4) == pytest.approx(17.4, abs=1e-4)


def test_moment_widens_on_roundoff():
    g = sp.RadialGrid(256, 3e-5)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    with pytest.warns(UserWarning, match="widened"):
        val = sp.moment(M, 2)
    assert val == pytest.approx(3.0, rel=0.05)


def test_d2_distance_example():
    # Maxwellians theta = 1 vs 1.2: sup |e^{-x^2/2} - e^{-0.6 x^2}| / x^2 = 0.1
    g = sp.RadialGrid(4096, 50.0)
    a = sp.CharacteristicProfile.maxwellian(g, 1.0)
    b = sp.CharacteristicProfile.maxwellian(g, 1.2)
    with pytest.warns(UserWarning, match="temperature"):
        d = sp.d2_distance(a, b)
    assert d == pytest.approx(0.1, abs=1e-3)
    assert sp.d2_distance(a, a, warn_temperature=False) == 0.0
    other = sp.CharacteristicProfile.maxwellian(sp.RadialGrid(2048, 50.0), 1.0)
    with pytest.raises(ValueError):
        sp.d2_distance(a, other)


def test_sobolev_norm_example():
    # r = 0, Maxwellian theta = 1: (4 pi int x^2 e^{-x^2} dx)^{1/2} = pi^{3/4}
    g = sp.RadialGrid(4096, 50.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    assert sp.sobolev_norm(M, 0.0) == pytest.approx(math.pi ** 0.75, abs=1e-6)
    with pytest.raises(ValueError):
        sp.sobolev_norm(M, -1.0)


def test_sobolev_truncation_warning():
    g = sp.RadialGrid(256, 5.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    with pytest.warns(UserWarning, match="truncated"):
        sp.sobolev_norm(M, 2.0)


def test_sup_weighted_example():
    # delta = 1: max x e^{-x^2/2} = e^{-1/2} at x = 1
    g = sp.RadialGrid(4096, 50.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    assert sp.sup_weighted(M, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-4)
    assert sp.sup_weighted(M, 0.0) == 1.0
    with pytest.raises(ValueError):
        sp.sup_weighted(M, -0.5)


def test_gamma_constants_examples():
    A1, A2, gamma, gamma_star = sp.gamma_constants(1.0, 1.0)
    assert A1 == pytest.approx(0.8, abs=1e-14)
    assert A2 == pytest.approx(0.2, abs=1e-14)
    assert gamma == pytest.approx(2.0 / 15.0, abs=1e-14)
    assert gamma_star == pytest.approx(2.0 / 15.0, abs=1e-14)
    # e = 0.95, alpha = 0.9
    A1, A2, gamma, gamma_star = sp.gamma_constants(0.9, 0.95)
    assert gamma == pytest.approx(0.12205, abs=5e-6)
    # books balance: A1 + A2 + E (2 + alpha) = 1
    E = Restitution(0.95).E
    assert A1 + A2 + E * 2.9 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        sp.gamma_constants(0.0, 0.9)
    with pytest.raises(ValueError):
        sp.gamma_constants(1.5, 0.9)


# ---------------------------------------------------------------------------
# time stepping

def test_unscaled_temperature_decay_rate():
    # d m2/dt = -2E m2 exactly for the constant kernel
    g = sp.RadialGrid(1024, 30.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    e = 0.5
    cfg = sp.SolverConfig(dt=0.01, t_max=10.0, frame="unscaled-f")
    tr = sp.evolve(B, e, cfg, diagnostics_schedule=np.linspace(0.0, 10.0, 41))
    rate = -np.polyfit(tr.times, np.log(tr.diagnostics["m2"]), 1)[0]
    expected = 2.0 * sp.dissipation_rate(e)
    assert expected == pytest.approx(0.1875, abs=1e-15)
    assert abs(rate - expected) / expected < 5e-3


def test_rescaled_m2_conservation():
    g = sp.RadialGrid(1024, 30.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    cfg = sp.SolverConfig(dt=0.01, t_max=10.0, frame="rescaled-g")
    tr = sp.evolve(M, 0.9, cfg, diagnostics_schedule=np.linspace(0.0, 10.0, 21))
    drift = np.abs(tr.diagnostics["m2"] - 3.0)
    assert np.max(drift) < 1e-5  # 1e-6 per unit time over t = 10


def test_mass_exact_along_run():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    cfg = sp.SolverConfig(dt=0.02, t_max=1.0, frame="rescaled-g")
    phi = B
    for _ in range(50):
        phi = sp.step(phi, 0.8, cfg)
        assert phi.values[0] == 1.0


def test_time_convergence_orders():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    e = 0.7
    T = 0.5

    def run(frame, dt):
        cfg = sp.SolverConfig(dt=dt, t_max=T, frame=frame)
        phi = B
        for _ in range(int(round(T / dt))):
            phi = sp.step(phi, e, cfg)
        return phi.values

    for frame, lo, hi in [("unscaled-f", 12.0, 22.0), ("rescaled-g", 3.4, 25.0)]:
        ref = run(frame, 0.00625)
        e1 = np.max(np.abs(run(frame, 0.1) - ref))
        e2 = np.max(np.abs(run(frame, 0.05) - ref))
        ratio = e1 / e2
        # RK4 is clean fourth order; Strang is at least second order (its
        # splitting constant is tiny here, so the RK4 order can show through)
        assert lo < ratio < hi, f"{frame}: ratio {ratio}"


def test_step_abort_on_bound_violation():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    cfg = sp.SolverConfig(dt=10.0, t_max=10.0, frame="unscaled-f")
    with pytest.warns(UserWarning, match="halved"):
        with pytest.raises(RuntimeError):
            sp.step(B, 0.5, cfg)


def test_frame_consistency():
    # phi_rescaled(x, t) = phi_unscaled(x e^{Et}, t)
    g = sp.RadialGrid(1024, 30.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    e = 0.95
    E = sp.dissipation_rate(e)
    T = 5.0
    cfg_u = sp.SolverConfig(dt=0.01, t_max=T, frame="unscaled-f")
    cfg_r = sp.SolverConfig(dt=0.01, t_max=T, frame="rescaled-g")
    pu, pr = B, B
    for _ in range(int(round(T / 0.01))):
        pu = sp.step(pu, e, cfg_u)
        pr = sp.step(pr, e, cfg_r)
    lam = math.exp(E * T)
    mask = g.x <= g.x_max / lam
    err = np.max(np.abs(sp.evaluate(pu, g.x[mask] * lam) - pr.values[mask]))
    assert err < 1e-6


def test_evolve_trace_contents():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    cfg = sp.SolverConfig(dt=0.01, t_max=0.1, frame="rescaled-g")
    tr = sp.evolve(B, 0.9, cfg, reference=M, keep_profiles=True)
    assert len(tr.times) == 11
    assert np.all(np.diff(tr.times) > 0)
    for key in ("m2", "temperature", "m4", "hr_0.5", "hr_1", "hr_2",
                "sup_0.5", "d2_ref"):
        assert key in tr.diagnostics, key
        assert len(tr.diagnostics[key]) == 11
    assert len(tr.profiles) == 11
    assert tr.final.time == pytest.approx(0.1)


def test_evolve_snaps_inexact_t_max():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    cfg = sp.SolverConfig(dt=0.01, t_max=0.095, frame="unscaled-f")
    with pytest.warns(UserWarning, match="snapping"):
        tr = sp.evolve(B, 0.9, cfg)
    assert tr.final.time == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# steady state

def test_steady_profile_e09(steady_e09):
    meta = steady_e09.meta
    assert meta["converged"]
    assert meta["cauchy_d2"] < 1e-7
    # fixed-point residual of (gain - id + drift generator): 10x the tolerance
    assert meta["fixed_point_residual"] < 1e-6
    # unit temperature is preserved from the Maxwellian start
    assert sp.moment(steady_e09, 2) / 3.0 == pytest.approx(1.0, abs=1e-4)
    # stationary profile lies inside the two-sided envelope at theta = 1
    assert meta["envelope"]["lower_ok_fraction"] == 1.0
    assert meta["envelope"]["upper_ok_fraction"] == 1.0


def test_steady_profile_validation():
    with pytest.raises(ValueError):
        sp.steady_profile(0.9, config=sp.SolverConfig(frame="unscaled-f"))
    with pytest.raises(ValueError):
        sp.steady_profile(0.9, tol=0.0)


def _steady_config(t_max: float = 250.0) -> sp.SolverConfig:
    return sp.SolverConfig(dt=0.01, t_max=t_max, frame="rescaled-g")


@pytest.mark.parametrize("e", [0.8, 0.9, 0.95])
def test_steady_profile_pins_unit_temperature(e):
    phi = sp.steady_profile(e, _steady_config(), tol=1e-8, grid=sp.RadialGrid(1024, 30.0))
    assert phi.meta["converged"]
    assert abs(sp.moment(phi, 2) - 3.0) <= 1e-10


def test_steady_profile_bound_certifies_a_march():
    # the reported bound covers the d2 of a real 5-time-unit march, pinned
    config, tol = _steady_config(), 1e-7
    phi = sp.steady_profile(0.95, config, tol=tol, grid=sp.RadialGrid(1024, 30.0))
    assert phi.meta["cauchy_d2"] <= tol
    marched = phi
    for _ in range(round(5.0 / config.dt)):
        marched = sp.step(marched, 0.95, config)
    lam = math.sqrt(3.0 / sp.moment(marched, 2))
    pinned = sp.CharacteristicProfile(phi.grid, sp.evaluate(marched, lam * phi.grid.x))
    assert sp.d2_distance(pinned, phi) <= phi.meta["cauchy_d2"]


def test_steady_profile_counts_its_steps(monkeypatch):
    calls = []
    inner = sp.step

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sp, "step", counted)
    phi = sp.steady_profile(0.96, _steady_config(), tol=1e-6, grid=sp.RadialGrid(1024, 30.0))
    meta = phi.meta
    assert meta["converged"]
    assert len(calls) == meta["steps"] == len(meta["history"]) <= 50
    assert meta["history"][-1] == meta["cauchy_d2"] < 1e-6


def test_steady_profile_short_budget_reports_nonconvergence():
    with pytest.warns(UserWarning, match="did not reach tol"):
        phi = sp.steady_profile(0.2, _steady_config(t_max=0.1), tol=1e-7,
                                grid=sp.RadialGrid(1024, 30.0))
    assert not phi.meta["converged"]
    assert phi.meta["steps"] == 10
    assert phi.meta["cauchy_d2"] == min(phi.meta["history"])


def test_steady_profile_rejected_mixing_falls_back_to_the_image(monkeypatch):
    # mixing coefficients that throw every mixed iterate out of |phi| <= 1:
    # each is replaced by the unmixed image, and the solve still converges
    rejected = []

    def wild(A, b, rcond=None):
        rejected.append(1)
        return (np.full(A.shape[1], 1e6),)

    monkeypatch.setattr(np.linalg, "lstsq", wild)
    config = sp.SolverConfig(dt=0.05, t_max=60.0, frame="rescaled-g")
    phi = sp.steady_profile(0.8, config, tol=1e-4, grid=sp.RadialGrid(256, 15.0))
    assert rejected and phi.meta["converged"]


def test_steady_residual_discriminates(steady_e09):
    # a Maxwellian is far from stationary at e = 0.9
    M = sp.CharacteristicProfile.maxwellian(steady_e09.grid, 1.0)
    assert sp.steady_residual(M, 0.9) > 1e-4
    assert sp.steady_residual(steady_e09, 0.9) < 1e-6


# ---------------------------------------------------------------------------
# evaluation and persistence

def test_evaluate_accuracy_and_clamp():
    g = sp.RadialGrid(1024, 30.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    xq = np.linspace(0.0, 29.9, 777) + 0.0013
    assert np.max(np.abs(sp.evaluate(M, xq) - np.exp(-0.5 * xq ** 2))) < 1e-10
    assert sp.evaluate(M, 35.0) == pytest.approx(M.values[-1], abs=1e-12)
    assert sp.evaluate(M, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_profile_csv_roundtrip(tmp_path):
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g, time=2.5)
    path = tmp_path / "profile.csv"
    sp.save_profile(path, B, e=0.9, frame="rescaled-g")
    first = path.read_text().splitlines()[0]
    assert first.startswith("# maxcool-profile v1 e=0.9")
    assert "t=2.5 " in first and first.endswith("frame=rescaled-g")
    loaded, meta = sp.load_profile(path)
    assert np.array_equal(loaded.values, B.values)
    assert loaded.grid.n == g.n and loaded.grid.x_max == pytest.approx(g.x_max)
    assert loaded.time == 2.5
    assert meta == {"e": 0.9, "frame": "rescaled-g"}


def test_profile_csv_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,phi\n0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        sp.load_profile(path)
    # non-uniform abscissae
    g = sp.RadialGrid(256, 10.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    good = tmp_path / "good.csv"
    sp.save_profile(good, M, e=1.0, frame="unscaled-f")
    lines = good.read_text().splitlines()
    parts = lines[5].split(",")
    lines[5] = f"{float(parts[0]) + 0.01},{parts[1]}"
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        sp.load_profile(bad2)


def test_save_profile_validates_frame(tmp_path):
    g = sp.RadialGrid(256, 10.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    with pytest.raises(ValueError):
        sp.save_profile(tmp_path / "x.csv", M, e=0.9, frame="comoving")

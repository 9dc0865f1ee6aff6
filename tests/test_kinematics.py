"""Exactness and identity tests for the collision kinematics."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxcool import kinematics as kin

RNG = np.random.default_rng(20240811)

# forward and inverse map per parameterization, on (m, 3) rows; each returns
# (v, w, direction) after the collision. The reflection keeps its n.
MAPS = {
    "reflection": (
        lambda v, w, n, e: (*kin.reflect(v, w, n, 0.5 * (1.0 + e)), n),
        lambda v, w, n, e: (*kin.reflect(v, w, n, (1.0 + e) / (2.0 * e)), n)),
    "swap": (
        lambda v, w, s, e: kin.swap_forward(v, w, s, e)[:3],
        lambda v, w, s, e: kin.swap_inverse(v, w, s, e)[:3]),
}


def unit(d):
    d = np.atleast_2d(np.asarray(d, dtype=float))
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def random_rows(rng, m):
    return rng.standard_normal((m, 3)), rng.standard_normal((m, 3)), unit(rng.standard_normal((m, 3)))


finite_vec = st.tuples(*[st.floats(-5, 5) for _ in range(3)])
unit_dir = st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
    lambda t: 0.1 < math.hypot(*t) < 1.8)
res_e = st.floats(0.05, 1.0)


# ---------------------------------------------------------------- constants

def test_restitution_constants():
    assert kin.dissipation_rate(0.5) == pytest.approx(3.0 / 32.0, abs=1e-14)
    assert kin.growth_rate(0.5) == pytest.approx(3.125, abs=1e-12)
    assert kin.fisher_growth_exponent(0.5) == pytest.approx(3.125 - 3.0 / 16.0, abs=1e-12)
    assert kin.dissipation_rate(1.0) == 0.0 and kin.growth_rate(1.0) == 0.0
    assert kin.fisher_growth_exponent(1.0) == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, float("nan")])
def test_restitution_rejects(bad):
    for rate in (kin.dissipation_rate, kin.growth_rate, kin.fisher_growth_exponent,
                 lambda e: kin.moment_rate(2, e)):
        with pytest.raises(ValueError):
            rate(bad)


def test_moment_rate_energy_balance_and_elastic_limit():
    # lambda(1) = 0 is energy balance: within 1e-16 on these e, and within
    # one ulp of 1 (the size of its terms) on a dense sweep
    for e in (0.3, 0.5, 0.7, 0.95, 1.0):
        assert abs(kin.moment_rate(1, e)) <= 1e-16
    for e in np.linspace(0.001, 1.0, 400):
        assert abs(kin.moment_rate(1, e)) <= np.finfo(float).eps
    assert kin.moment_rate(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert kin.moment_rate(3, 1.0) == pytest.approx(0.5, abs=1e-16)


@pytest.mark.parametrize("e", [0.05, 0.3, 0.5, 0.8, 0.95, 1.0])
def test_moment_rate_of_m4_is_the_scale_integral(e):
    # lambda(2) = 1 - c4 - 4E with c4 = (1/2) int (a-^4 + a+^4) ds, written in
    # a-^2 = 2 al^2 (1 - s) and a+^2 = al^2 + be^2 + 2 al be s
    al, be = (1.0 + e) / 4.0, (3.0 - e) / 4.0
    p = al * al + be * be
    c4 = 16.0 / 3.0 * al ** 4 + p * p + 4.0 / 3.0 * al * al * be * be
    assert kin.moment_rate(2, e) == pytest.approx(1.0 - c4 - 4.0 * kin.dissipation_rate(e),
                                                  abs=1e-15)


@pytest.mark.parametrize("e, p_star", [(0.2, 2.800), (0.3, 3.100), (0.5, 4.127),
                                       (0.8, 9.963), (0.9, 19.91), (0.95, 39.89)])
def test_moment_rate_changes_sign_at_the_tail_exponent(e, p_star):
    # the HCS tail exponent p*(e) is the root of lambda above 1, given here to
    # its last digit
    half = 0.0005 if p_star < 10 else 0.005
    assert kin.moment_rate(p_star - half, e) > 0.0 > kin.moment_rate(p_star + half, e)


def test_e_must_be_a_number():
    # an object that carries an e is not an e
    with pytest.raises(TypeError):
        kin.dissipation_rate(SimpleNamespace(e=0.5))
    with pytest.raises(TypeError):
        kin.growth_rate(SimpleNamespace(e=0.5))


def test_dissipation_vanishes_only_at_elastic():
    for e in (0.1, 0.5, 0.9, 0.999):
        assert kin.dissipation_rate(e) > 0.0
        assert kin.growth_rate(e) > 0.0
    assert kin.dissipation_rate(1.0) == 0.0


def test_dissipation_values():
    assert kin.dissipation_rate(0.5) == pytest.approx(0.09375, abs=1e-15)


# ------------------------------------------------- collision map identities

@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e,
       param=st.sampled_from(sorted(MAPS)))
def test_momentum_conserved(v, w, d, e, param):
    v, w = np.array([v]), np.array([w])
    vp, wp, _ = MAPS[param][0](v, w, unit(d), e)
    scale = np.linalg.norm(v) + np.linalg.norm(w) + 1.0
    assert np.max(np.abs((vp + wp) - (v + w))) < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e)
def test_reflection_energy_law(v, w, d, e):
    v, w, n = np.array(v), np.array(w), unit(d)
    vp, wp = kin.reflect(v[None], w[None], n, 0.5 * (1.0 + e))
    u, up = v - w, vp[0] - wp[0]
    un = float(u @ n[0])
    expect = float(u @ u) + (e * e - 1.0) * un * un
    assert abs(float(up @ up) - expect) <= 1e-12 * max(1.0, float(u @ u))


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e)
def test_swap_energy_law(v, w, d, e):
    v, w, sigma = np.array(v), np.array(w), unit(d)
    vp, wp, _, safe = kin.swap_forward(v[None], w[None], sigma, e)
    if not safe[0]:
        # v - w is cancellation noise: the map moves the pair by no more
        scale = np.linalg.norm(v) + np.linalg.norm(w) + 1.0
        assert np.max(np.abs(vp[0] - v)) <= 1e-12 * scale
        return
    u, up = v - w, vp[0] - wp[0]
    uu = float(u @ u)
    ks = float(u @ sigma[0]) / math.sqrt(uu)
    expect = uu * ((1 + e * e) / 2 + (1 - e * e) / 2 * ks)
    assert abs(float(up @ up) - expect) <= 1e-12 * max(1.0, uu)


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=st.floats(0.1, 1.0),
       param=st.sampled_from(sorted(MAPS)))
def test_collision_roundtrip(v, w, d, e, param):
    forward, inverse = MAPS[param]
    v, w, om = np.array([v]), np.array([w]), unit(d)
    v2, w2, om2 = forward(*inverse(v, w, om, e), e)
    scale = np.linalg.norm(v) + np.linalg.norm(w) + 1.0
    assert np.max(np.abs(v2 - v)) < 1e-10 * scale
    assert np.max(np.abs(w2 - w)) < 1e-10 * scale
    # sigma recovery conditions like eps*scale/|u|; only meaningful away from grazing
    if np.linalg.norm(v - w) > 1e-5 * scale:
        assert np.max(np.abs(om2 - om)) < 1e-10


@pytest.mark.parametrize("param", sorted(MAPS))
def test_elastic_involution(param):
    forward = MAPS[param][0]
    v, w, om = random_rows(RNG, 20)
    v2, w2, om2 = forward(*forward(v, w, om, 1.0), 1.0)
    assert np.max(np.abs(v2 - v)) < 1e-12
    assert np.max(np.abs(w2 - w)) < 1e-12
    assert np.max(np.abs(om2 - om)) < 1e-12


def test_grazing_swap_is_flagged_noop():
    v = np.array([[1.0, -2.0, 0.5]])
    sigma = np.array([[0.0, 0.0, 1.0]])
    for swap in (kin.swap_forward, kin.swap_inverse):
        vp, wp, sp, safe = swap(v, v.copy(), sigma, 0.7)
        assert not safe[0]
        assert np.array_equal(vp, v) and np.array_equal(wp, v)
        assert np.array_equal(sp, sigma)


def test_velocity_only_swap_is_swap_forward_bit_for_bit():
    # DSMC applies its events with the velocity half of swap_forward alone
    rng = np.random.default_rng(17)
    v, w, sigma = random_rows(rng, 2000)
    w[:5] = v[:5]                     # v == w
    w[5:10] = v[5:10] * (1.0 + 1e-15)  # below the safe threshold
    for e in (0.2, 0.5, 0.95, 1.0):
        vp, wp = kin._swap_velocities(v, w, sigma, e)
        ref = kin.swap_forward(v, w, sigma, e)
        assert np.array_equal(vp, ref[0]) and np.array_equal(wp, ref[1])


def test_swap_inverse_rejects_e_zero():
    v, w, sigma = random_rows(RNG, 1)
    with pytest.raises(ValueError):
        kin.swap_inverse(v, w, sigma, 0.0)


def test_reflection_jacobian_is_minus_e():
    # 6x6 finite-difference Jacobian of (v,w) -> (v',w') at fixed n
    n = unit(RNG.standard_normal(3))
    x0 = RNG.standard_normal(6)
    for e in (0.3, 0.8, 1.0):
        def jacobian(coef):
            def fmap(x):
                return np.concatenate(kin.reflect(x[None, :3], x[None, 3:], n, coef), axis=1)[0]

            h = 1e-5
            J = np.empty((6, 6))
            for j in range(6):
                dx = np.zeros(6)
                dx[j] = h
                J[:, j] = (fmap(x0 + dx) - fmap(x0 - dx)) / (2 * h)
            return float(np.linalg.det(J))

        assert jacobian(0.5 * (1.0 + e)) == pytest.approx(-e, abs=1e-6)
        assert jacobian((1.0 + e) / (2.0 * e)) == pytest.approx(-1.0 / e, abs=1e-6 / e)


def test_matched_parameterizations_agree():
    # reflection at n and swap at sigma = k - 2(k.n)n produce the same pair
    for e in (0.3, 0.7, 1.0):
        v, w, n = random_rows(RNG, 30)
        k = unit(v - w)
        kn = np.einsum("ij,ij->i", k, n)[:, None]
        sigma = k - 2.0 * kn * n
        A = kin.reflect(v, w, n, 0.5 * (1.0 + e))
        B = kin.swap_forward(v, w, sigma, e)
        scale = np.linalg.norm(v, axis=1) + np.linalg.norm(w, axis=1) + 1.0
        assert np.all(np.max(np.abs(A[0] - B[0]), axis=1) < 1e-12 * scale)
        assert np.all(np.max(np.abs(A[1] - B[1]), axis=1) < 1e-12 * scale)
        # measure link |k.n|^2 = (1 - k.sigma)/2, checked without the square
        # root, and n = (k - sigma)/|k - sigma| recovered up to sign
        ks = np.einsum("ij,ij->i", k, sigma)
        assert np.allclose(1.0 - ks, 2.0 * kn[:, 0] ** 2, rtol=0.0, atol=1e-14)
        n2 = unit(k - sigma)
        err = np.minimum(np.max(np.abs(n2 - n), axis=1), np.max(np.abs(n2 + n), axis=1))
        assert np.max(err) < 1e-10


# --------------------------------------------------------- gain-term rates

def test_effective_rates_elastic_identity():
    # at e = 1 the effective rates are the bare B = 1 and Btilde(t) = 2|t|
    Bp, Btp = kin.effective_gain_rates(1.0)
    s = np.linspace(-1, 1, 201)
    assert np.allclose(Bp(s), 1.0, atol=1e-14)
    assert np.allclose(Btp(s), 2.0 * np.abs(s), atol=1e-14)


def test_effective_rates_endpoint_values():
    Bp, Btp = kin.effective_gain_rates(0.5)
    assert float(Bp(1.0)) == pytest.approx(4.0, abs=1e-13)   # 1/e^2
    assert float(Bp(-1.0)) == pytest.approx(2.0, abs=1e-13)  # 1/e
    assert float(Btp(1.0)) == pytest.approx(4.0, abs=1e-13)  # 2/e at t=1


def test_effective_gain_mass():
    # (1/2) int B_e+ = 2/(e(1+e)) for the constant rate
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(200)
    for e in (0.5, 0.8, 1.0):
        Bp, _ = kin.effective_gain_rates(e)
        mass = 0.5 * float(w @ Bp(x))
        assert mass == pytest.approx(2.0 / (e * (1 + e)), rel=1e-10)


def test_effective_rates_reject_e_zero():
    with pytest.raises(ValueError):
        kin.effective_gain_rates(0.0)


# ------------------------------------------------------------- Z identity

@settings(max_examples=80, deadline=None)
@given(eta=finite_vec, d=unit_dir, e=st.floats(0.05, 1.0))
def test_z_identity_residual(eta, d, e):
    eta = np.array([eta])
    res = kin.z_identity_residual(eta, unit(d), e)
    assert res.shape == (1,)
    assert res[0] <= 1e-10 * max(np.linalg.norm(eta), 1e-30)


def test_z_identity_special_cases():
    eta = np.array([[0.7, -1.2, 2.0]])
    sig = unit(RNG.standard_normal(3))
    assert kin.z_identity_residual(eta, sig, 1.0)[0] < 1e-14
    res = kin.z_identity_residual(np.vstack([eta, eta]), unit(np.vstack([eta, -eta])), 0.45)
    assert res[0] < 1e-14
    assert res[1] < 1e-13


# ------------------------------------------------------ Monte Carlo checks

def gaussian_pair_kernel(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.2, 1.2, size=(6, 3))
    tau = rng.uniform(0.7, 1.0, size=6)

    def K(v1, w1, o1, v2, w2, o2):
        out = 0.0
        for a, ci, ti in zip((v1, w1, o1, v2, w2, o2), c, tau):
            out = out + np.sum((np.asarray(a) - ci) ** 2, axis=-1) / (2 * ti * ti)
        return np.exp(-out)

    return K


@pytest.mark.parametrize("which", ["sigma-theorem", "n-theorem"])
def test_mc_theorem_smoke(which):
    K = gaussian_pair_kernel(17)
    lhs, rhs, sl, sr = kin.mc_change_of_variables(
        K, 0.5, which=which, samples=200_000, seed=5)
    assert abs(lhs - rhs) <= 3 * math.hypot(sl, sr)
    assert lhs > 0 and rhs > 0


def test_mc_deterministic():
    K = gaussian_pair_kernel(17)
    a = kin.mc_change_of_variables(K, 0.7, which="sigma-theorem", samples=50_000, seed=11)
    b = kin.mc_change_of_variables(K, 0.7, which="sigma-theorem", samples=50_000, seed=11)
    assert a == b


def test_mc_rejects_bad_kernel():
    def K(v1, w1, o1, v2, w2, o2):
        return np.full(np.asarray(v1).shape[0], np.nan)

    with pytest.raises(ValueError, match="non-finite"):
        kin.mc_change_of_variables(K, 0.5, samples=10_000, seed=1)
    with pytest.raises(ValueError):
        kin.mc_change_of_variables(K, 0.5, which="nonsense", samples=10, seed=1)


def reference_mc(K, e, which, samples, seed):
    # the documented sample order, rebuilt from the public maps: per block b,
    # block_rng(seed, tag0 + b) draws v, w and the direction normals as
    # C-ordered (m, 3) arrays
    Bp, Btp = kin.effective_gain_rates(e)

    def block(rng, m, side):
        v = rng.standard_normal((m, 3))
        w = rng.standard_normal((m, 3))
        d = kin.uniform_sphere(rng, m)
        wt = np.exp(0.5 * (np.sum(v * v, axis=1) + np.sum(w * w, axis=1))
                    + 3.0 * math.log(2.0 * math.pi))
        u = v - w
        unorm = np.linalg.norm(u, axis=1, keepdims=True)
        scale = np.linalg.norm(v, axis=1, keepdims=True) + np.linalg.norm(w, axis=1, keepdims=True)
        safe = (unorm > 1e-13 * (scale + 1.0))[:, 0]
        k = np.where(safe[:, None], u / np.where(safe[:, None], unorm, 1.0), 0.0)
        kd = np.sum(k * d, axis=1)
        if which == "sigma-theorem" and side == "lhs":
            vs, ws, ss, _ = kin.swap_inverse(v, w, d, e)
            val = K(vs, ws, ss, v, w, d) * Bp(kd)
        elif which == "sigma-theorem":
            vp, wp, sp, _ = kin.swap_forward(v, w, d, e)
            val = K(v, w, d, vp, wp, sp)
        elif side == "lhs":
            vs, ws = kin.reflect(v, w, d, (1.0 + e) / (2.0 * e))
            val = K(vs, ws, d, v, w, d) * Btp(kd)
        else:
            vp, wp = kin.reflect(v, w, d, 0.5 * (1.0 + e))
            val = K(v, w, d, vp, wp, d) * (2.0 * np.abs(kd))
        return np.where(safe, val * wt, 0.0)

    out = []
    for side, tag0 in (("lhs", 0), ("rhs", 1 << 62)):
        total = total_sq = 0.0
        count = b = 0
        while count < samples:
            m = min(1 << 16, samples - count)
            vals = block(kin.block_rng(seed, tag0 + b), m, side)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
            count += m
            b += 1
        mean = total / count
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
        out.append((mean, math.sqrt(var / count)))
    (lhs, se_l), (rhs, se_r) = out
    return lhs, rhs, se_l, se_r


@pytest.mark.parametrize("which", ["sigma-theorem", "n-theorem"])
def test_mc_sample_stream_is_pinned(which):
    # two full blocks and a partial one, every sample as documented
    K = gaussian_pair_kernel(23)
    samples = 2 * 65536 + 5
    got = kin.mc_change_of_variables(K, 0.6, which=which, samples=samples, seed=9)
    assert got == reference_mc(K, 0.6, which, samples, 9)


def hexed(result):
    return [x.hex() for x in result]


def test_mc_does_not_depend_on_the_tile_size(monkeypatch):
    # two full blocks and a partial one, so a partial tile too
    K = gaussian_pair_kernel(23)
    samples = 2 * 65536 + 5

    def run(tile, e, which):
        monkeypatch.setattr(kin, "_MC_TILE", tile)
        return hexed(kin.mc_change_of_variables(K, e, which=which, samples=samples, seed=9))

    for e in (0.3, 0.99):
        for which in ("sigma-theorem", "n-theorem"):
            assert run(1000, e, which) == run(1 << 16, e, which)


def test_shared_identities_equal_separate_calls():
    jobs = [(gaussian_pair_kernel(ks), e, which) for ks in (11, 23, 47) for e in (0.4, 0.95)
            for which in ("sigma-theorem", "n-theorem")]
    shared = kin._mc_identities(jobs, 70_000, 3)
    assert len(shared) == len(jobs)
    for (K, e, which), got in zip(jobs, shared):
        assert hexed(got) == hexed(kin.mc_change_of_variables(K, e, which=which,
                                                              samples=70_000, seed=3))


def test_a_failing_identity_fails_alone():
    def nan_kernel(v1, w1, o1, v2, w2, o2):
        return np.full(np.asarray(v1).shape[0], np.nan)

    def raising_kernel(*args):
        raise RuntimeError("kernel out of order")

    good = [(gaussian_pair_kernel(11), 0.5, "sigma-theorem"),
            (gaussian_pair_kernel(23), 0.7, "n-theorem")]
    jobs = [good[0], (nan_kernel, 0.5, "n-theorem"),
            (raising_kernel, 0.5, "sigma-theorem"), good[1]]
    first, nan, raised, last = kin._mc_identities(jobs, 70_000, 5)
    for (K, e, which), got in zip(good, (first, last)):
        assert hexed(got) == hexed(kin.mc_change_of_variables(K, e, which=which,
                                                              samples=70_000, seed=5))
    assert type(nan) is ValueError
    assert str(nan) == "kernel produced non-finite Monte Carlo samples"
    assert type(raised) is RuntimeError and str(raised) == "kernel out of order"
    # a job that cannot start fails alone too
    bad_e, ok = kin._mc_identities([(good[0][0], 1.5, "sigma-theorem"), good[0]], 10, 5)
    assert type(bad_e) is ValueError
    assert ok == kin.mc_change_of_variables(good[0][0], 0.5, samples=10, seed=5)


def test_mc_samples_must_be_a_positive_integer():
    K = gaussian_pair_kernel(17)
    for samples in (1e6, 2.5, True, 0, -3):
        with pytest.raises(ValueError, match="^samples must be a positive integer$"):
            kin.mc_change_of_variables(K, 0.5, samples=samples, seed=1)
    got = kin.mc_change_of_variables(K, 0.5, samples=np.int64(1000), seed=1)
    assert all(type(x) is float for x in got)
    assert hexed(got) == hexed(kin.mc_change_of_variables(K, 0.5, samples=1000, seed=1))


def test_maps_are_bit_identical_in_any_layout():
    rows = [RNG.standard_normal((257, 3)) for _ in range(3)]
    rows[2] = unit(rows[2])
    rows[1][:5] = rows[0][:5]  # v == w: the unsafe branch too
    cmaj = [np.ascontiguousarray(x.T).T for x in rows]
    assert all(x.flags.f_contiguous and not x.flags.c_contiguous for x in cmaj)
    for e in (0.3, 1.0):
        for fn in (lambda v, w, d: kin.reflect(v, w, d, 0.5 * (1.0 + e)),
                   lambda v, w, d: kin.reflect(v, w, d, (1.0 + e) / (2.0 * e)),
                   lambda v, w, d: kin.swap_forward(v, w, d, e),
                   lambda v, w, d: kin.swap_inverse(v, w, d, e)):
            for a, b in zip(fn(*rows), fn(*cmaj)):
                assert np.array_equal(a, b)

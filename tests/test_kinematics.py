"""Exactness and identity tests for the collision kinematics."""

from __future__ import annotations

import math

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
    r = kin.Restitution(0.5)
    assert r.E == pytest.approx(3.0 / 32.0, abs=1e-14)
    assert r.growth == pytest.approx(3.125, abs=1e-12)
    assert kin.fisher_growth_exponent(0.5) == pytest.approx(3.125 - 3.0 / 16.0, abs=1e-12)
    r1 = kin.Restitution(1.0)
    assert r1.E == 0.0 and r1.growth == 0.0
    assert kin.fisher_growth_exponent(1.0) == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, float("nan")])
def test_restitution_rejects(bad):
    with pytest.raises(ValueError):
        kin.Restitution(bad)


def test_e_must_be_a_number():
    # an object that carries an e, such as a Restitution, is not an e
    with pytest.raises(TypeError):
        kin.dissipation_rate(kin.Restitution(0.5))
    with pytest.raises(TypeError):
        kin.Restitution(kin.Restitution(0.5))


def test_dissipation_vanishes_only_at_elastic():
    for e in (0.1, 0.5, 0.9, 0.999):
        assert kin.dissipation_rate(e) > 0.0
        assert kin.Restitution(e).growth > 0.0
    assert kin.dissipation_rate(1.0) == 0.0


def test_dissipation_values():
    assert kin.dissipation_rate(0.5) == pytest.approx(0.09375, abs=1e-15)
    # sticky limit is allowed for the constant only
    assert kin.dissipation_rate(0.0) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        kin.Restitution(0.0)


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


def test_mc_sphere_identity_matches_closed_form():
    # phi(y) = exp(-|y|^2), u = (2,0,0): both sides equal (1 - e^-4)/4
    K = lambda y: np.exp(-np.sum(np.asarray(y) ** 2, axis=-1))
    lhs, rhs, sl, sr = kin.mc_change_of_variables(
        K, 0.5, which="sphere-identity", samples=200_000, seed=3)
    exact = (1 - math.exp(-4)) / 4
    assert abs(lhs - exact) < 3 * sl
    assert abs(rhs - exact) < 3 * sr
    assert abs(lhs - rhs) < 3 * math.hypot(sl, sr)


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

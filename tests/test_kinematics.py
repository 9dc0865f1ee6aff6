"""Exactness and identity tests for the collision kinematics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxcool import kinematics as kin

RNG = np.random.default_rng(20240811)


def random_triple(rng, param):
    return kin.CollisionTriple(rng.standard_normal(3), rng.standard_normal(3),
                               kin.UnitVector3(rng.standard_normal(3)), param)


finite_vec = st.tuples(*[st.floats(-5, 5) for _ in range(3)])
unit_dir = st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
    lambda t: 0.1 < math.hypot(*t) < 1.8)
res_e = st.floats(0.05, 1.0)


# ---------------------------------------------------------------- types

def test_restitution_constants():
    r = kin.Restitution(0.5)
    assert r.E == pytest.approx(3.0 / 32.0, abs=1e-14)
    assert r.growth == pytest.approx(3.125, abs=1e-12)
    assert r.c1 == pytest.approx(3.125 / 2 - 3.0 / 32.0, abs=1e-12)
    r1 = kin.Restitution(1.0)
    assert r1.E == 0.0 and r1.growth == 0.0
    assert r1.omega == pytest.approx(3.5, abs=1e-14)


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, float("nan")])
def test_restitution_rejects(bad):
    with pytest.raises(ValueError):
        kin.Restitution(bad)


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


def test_unit_vector_renormalizes():
    u = kin.UnitVector3((3.0, 0.0, 4.0))
    assert np.linalg.norm(u.vec) == pytest.approx(1.0, abs=1e-15)
    assert u.vec[2] == pytest.approx(0.8)
    with pytest.raises(ValueError):
        kin.UnitVector3((0.0, 0.0, 0.0))


def test_triple_validates_param():
    with pytest.raises(ValueError):
        kin.CollisionTriple(np.zeros(3), np.ones(3), kin.UnitVector3((1, 0, 0)), "bogus")


# ------------------------------------------------- collision map identities

@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e,
       param=st.sampled_from([kin.REFLECTION, kin.SWAP]))
def test_momentum_conserved(v, w, d, e, param):
    T = kin.CollisionTriple(np.array(v), np.array(w), kin.UnitVector3(d), param)
    Tp = kin.collide(T, e)
    scale = np.linalg.norm(T.v) + np.linalg.norm(T.w) + 1.0
    assert np.max(np.abs((Tp.v + Tp.w) - (T.v + T.w))) < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e)
def test_reflection_energy_law(v, w, d, e):
    T = kin.CollisionTriple(np.array(v), np.array(w), kin.UnitVector3(d), kin.REFLECTION)
    Tp = kin.collide(T, e)
    u, up = T.v - T.w, Tp.v - Tp.w
    un = float(u @ T.omega.vec)
    expect = float(u @ u) + (e * e - 1.0) * un * un
    assert abs(float(up @ up) - expect) <= 1e-12 * max(1.0, float(u @ u))


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=res_e)
def test_swap_energy_law(v, w, d, e):
    T = kin.CollisionTriple(np.array(v), np.array(w), kin.UnitVector3(d), kin.SWAP)
    Tp = kin.collide(T, e)
    if Tp.grazing:
        assert np.array_equal(Tp.v, T.v)
        return
    u, up = T.v - T.w, Tp.v - Tp.w
    uu = float(u @ u)
    ks = float(u @ T.omega.vec) / math.sqrt(uu)
    expect = uu * ((1 + e * e) / 2 + (1 - e * e) / 2 * ks)
    assert abs(float(up @ up) - expect) <= 1e-12 * max(1.0, uu)


@settings(max_examples=60, deadline=None)
@given(v=finite_vec, w=finite_vec, d=unit_dir, e=st.floats(0.1, 1.0),
       param=st.sampled_from([kin.REFLECTION, kin.SWAP]))
def test_collision_roundtrip(v, w, d, e, param):
    T = kin.CollisionTriple(np.array(v), np.array(w), kin.UnitVector3(d), param)
    T2 = kin.collide(kin.precollide(T, e), e)
    scale = np.linalg.norm(T.v) + np.linalg.norm(T.w) + 1.0
    assert np.max(np.abs(T2.v - T.v)) < 1e-10 * scale
    assert np.max(np.abs(T2.w - T.w)) < 1e-10 * scale
    # sigma recovery conditions like eps*scale/|u|; only meaningful away from grazing
    if np.linalg.norm(T.v - T.w) > 1e-5 * scale:
        assert np.max(np.abs(T2.omega.vec - T.omega.vec)) < 1e-10


@pytest.mark.parametrize("param", [kin.REFLECTION, kin.SWAP])
def test_elastic_involution(param):
    for _ in range(20):
        T = random_triple(RNG, param)
        T2 = kin.collide(kin.collide(T, 1.0), 1.0)
        assert np.max(np.abs(T2.v - T.v)) < 1e-12
        assert np.max(np.abs(T2.w - T.w)) < 1e-12
        assert np.max(np.abs(T2.omega.vec - T.omega.vec)) < 1e-12


def test_grazing_swap_is_flagged_noop():
    v = np.array([1.0, -2.0, 0.5])
    T = kin.CollisionTriple(v, v.copy(), kin.UnitVector3((0, 0, 1)), kin.SWAP)
    Tp = kin.collide(T, 0.7)
    assert Tp.grazing
    assert np.array_equal(Tp.v, v) and np.array_equal(Tp.w, v)
    Ts = kin.precollide(T, 0.7)
    assert Ts.grazing


def test_precollide_rejects_e_zero():
    T = random_triple(RNG, kin.SWAP)
    with pytest.raises(ValueError):
        kin.precollide(T, 0.0)


def test_reflection_jacobian_is_minus_e():
    # 6x6 finite-difference Jacobian of (v,w) -> (v',w') at fixed n
    n = kin.UnitVector3(RNG.standard_normal(3))
    x0 = RNG.standard_normal(6)
    for e in (0.3, 0.8, 1.0):
        def fmap(x):
            T = kin.CollisionTriple(x[:3], x[3:], n, kin.REFLECTION)
            Tp = kin.collide(T, e)
            return np.concatenate([Tp.v, Tp.w])

        h = 1e-5
        J = np.empty((6, 6))
        for j in range(6):
            dx = np.zeros(6)
            dx[j] = h
            J[:, j] = (fmap(x0 + dx) - fmap(x0 - dx)) / (2 * h)
        det = float(np.linalg.det(J))
        assert det == pytest.approx(-e, abs=1e-6)

        def imap(x):
            T = kin.CollisionTriple(x[:3], x[3:], n, kin.REFLECTION)
            Ts = kin.precollide(T, e)
            return np.concatenate([Ts.v, Ts.w])

        for j in range(6):
            dx = np.zeros(6)
            dx[j] = h
            J[:, j] = (imap(x0 + dx) - imap(x0 - dx)) / (2 * h)
        assert float(np.linalg.det(J)) == pytest.approx(-1.0 / e, abs=1e-6 / e)


# ------------------------------------------------------- parameter conversion

@settings(max_examples=60, deadline=None)
@given(kd=unit_dir, nd=unit_dir)
@example(kd=(0.0, 1.0, 0.0), nd=(0.0, 1.6748288704325392e-06, 1.0))  # near grazing
def test_convert_param_roundtrip_up_to_sign(kd, nd):
    k = kin.UnitVector3(kd)
    n = kin.UnitVector3(nd)
    sigma = kin.convert_param(k, n, "n_to_sigma")
    if np.linalg.norm(k.vec - sigma.vec) < 1e-6:
        return  # grazing ray: inverse undefined
    n2 = kin.convert_param(k, sigma, "sigma_to_n")
    err = min(np.max(np.abs(n2.vec - n.vec)), np.max(np.abs(n2.vec + n.vec)))
    assert err < 1e-10
    # measure link |k.n|^2 = (1 - k.sigma)/2, checked without the square root:
    # near grazing 1 - k.sigma cancels, and sqrt would magnify its ulp error
    assert 1 - k.dot(sigma) == pytest.approx(2 * k.dot(n) ** 2, abs=1e-14)


def test_convert_param_degenerate():
    k = kin.UnitVector3((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="undefined"):
        kin.convert_param(k, k, "sigma_to_n")
    with pytest.raises(ValueError):
        kin.convert_param(k, k, "sideways")


def test_matched_parameterizations_agree():
    # reflection at n and swap at sigma = k - 2(k.n)n produce the same pair
    for e in (0.3, 0.7, 1.0):
        for _ in range(30):
            T = random_triple(RNG, kin.REFLECTION)
            k = kin.UnitVector3(T.v - T.w)
            sigma = kin.convert_param(k, T.omega, "n_to_sigma")
            Ts = kin.CollisionTriple(T.v, T.w, sigma, kin.SWAP)
            A, B = kin.collide(T, e), kin.collide(Ts, e)
            scale = np.linalg.norm(T.v) + np.linalg.norm(T.w) + 1.0
            assert np.max(np.abs(A.v - B.v)) < 1e-12 * scale
            assert np.max(np.abs(A.w - B.w)) < 1e-12 * scale


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
    eta = np.array(eta)
    res = kin.check_z_identity(eta, kin.UnitVector3(d), e)
    assert res <= 1e-10 * max(np.linalg.norm(eta), 1e-30)


def test_z_identity_special_cases():
    eta = np.array([0.7, -1.2, 2.0])
    sig = kin.UnitVector3(RNG.standard_normal(3))
    assert kin.check_z_identity(eta, sig, 1.0) < 1e-14
    assert kin.check_z_identity(eta, kin.UnitVector3(eta), 0.45) < 1e-14
    assert kin.check_z_identity(eta, kin.UnitVector3(-eta), 0.45) < 1e-13


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

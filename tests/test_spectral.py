"""Tests for the Fourier-space spectral solver and profile functionals."""

import ast
import contextlib
import hashlib
import importlib.machinery
import importlib.metadata
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _filled_plan
from maxcool import realspace as rs, spectral as sp


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
    for theta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            sp.CharacteristicProfile.maxwellian(g, theta)
        with pytest.raises(ValueError, match="positive, finite"):
            sp.CharacteristicProfile.bimaxwellian(g, theta2=theta)
    with pytest.raises(ValueError):
        sp.CharacteristicProfile.bimaxwellian(g, p=1.5)


def test_config_validation():
    sp.SolverConfig(dt=0.01, t_max=1.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        sp.SolverConfig(t_max=-1.0)
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
    gain = sp._gain_plan(g, 0.3, 64)
    assert np.array_equal(_eval_all(gain, np.ones(g.n)), np.ones((64 * g.n, 2)))
    one = sp.CharacteristicProfile(g, np.ones(g.n))
    xq = np.linspace(0.0, g.x_max, 1001) * 0.999
    assert np.array_equal(sp.evaluate(one, xq), np.ones(len(xq)))


def test_drift_resample_of_ones_bit_exact():
    g = sp.RadialGrid(512, 20.0)
    for e, dt in ((0.3, 0.01), (0.95, 0.005)):
        shift = sp.dissipation_rate(e) * dt / 2.0
        assert np.array_equal(sp._drift_vals(np.ones(g.n), g, shift), np.ones(g.n))


@pytest.mark.parametrize("quad_order", [24, 25, 26, 27, 32, 40, 64])
def test_gain_fixed_point_constant_quad_orders(quad_order):
    g = sp.RadialGrid(1024, 30.0)
    one = sp.CharacteristicProfile(g, np.ones(g.n))
    for e in (0.3, 0.9, 0.95, 1.0):
        out = sp.gain_fourier(one, e, quad_order=quad_order)
        assert np.array_equal(out.values, np.ones(g.n))


def test_default_quad_order_is_at_round_off(steady_e09, monkeypatch):
    # QUAD_ORDER nodes in u = sqrt((1 - s)/2) agree with 128 to round-off.
    # The strongly inelastic HCS carries a C x^(2 p*) term, an (1 - s)^p*
    # endpoint singularity in s that the u-rule turns into u^(2 p* + 1);
    # 24 s-nodes read 2.0e-12 and 6.1e-13 on the e = 0.2 and 0.3 profiles.
    # Bounds fixed before the run (measured: <= 6.8e-15 on the bimaxwellian,
    # 5.6e-14 on the e = 0.9 profile, 1.8e-13 on the e = 0.2 and 0.3 ones)
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})  # plans of up to 59 MB each
    B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(4096, 50.0))
    cases = [(B, e, 1e-13) for e in (0.2, 0.5, 0.8, 0.95, 0.99)] + [(steady_e09, 0.9, 1e-13)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases += [(sp.steady_profile(e, grid=sp.RadialGrid(2048, 40.0)), e, 5e-13)
                  for e in (0.2, 0.3)]
    for phi, e, bound in cases:
        dev = np.max(np.abs(sp.gain_fourier(phi, e).values
                            - sp.gain_fourier(phi, e, quad_order=128).values))
        assert dev <= bound, (e, dev)
        sp._GAIN_CACHE.clear()


@pytest.mark.parametrize("q", [sp.QUAD_ORDER, 32, 64])
def test_gain_nodes_are_gauss_legendre_in_u(q):
    # s = 1 - 2u^2 with Gauss-Legendre nodes u on [0, 1]: the weights
    # 2 w_GL u sum to 2, a- = (1 + e) u/2 is linear in u, and at e = 1
    # a-^2 + a+^2 = 1, which makes every Maxwellian a fixed point
    t, w_gl = np.polynomial.legendre.leggauss(q)
    u = 0.5 * (t + 1.0)
    for e in (0.2, 0.5, 0.95, 1.0):
        s, w, am, ap = sp.gain_scales(e, q)
        assert abs(float(np.sum(w)) - 2.0) <= q * np.spacing(2.0)
        # a-/u is the one constant (1 + e)/2, to the rounding of a- and a-/u
        assert np.max(np.abs(am / u - (1.0 + e) / 2.0)) <= np.spacing((1.0 + e) / 2.0), e
        assert np.allclose(w, 2.0 * w_gl * u, rtol=4e-16, atol=0.0)
        assert np.allclose(s, 1.0 - 2.0 * u * u, rtol=0.0, atol=4e-16)
    s, w, am, ap = sp.gain_scales(1.0, q)
    assert np.all(np.abs(am * am + ap * ap - 1.0) <= 4 * np.spacing(1.0))


def _gain_scales_afresh(e, q):
    # gain_scales as it was before its rule was cached: the reference
    t, w = np.polynomial.legendre.leggauss(q)
    u = 0.5 * (t + 1.0)
    s = 1.0 - 2.0 * u * u
    w = 2.0 * w * u
    a_minus = 0.5 * (1.0 + e) * u
    a_plus = np.sqrt(((3.0 - e) / 4.0) ** 2 + ((1.0 + e) / 4.0) ** 2
                     + s * (3.0 - e) * (1.0 + e) / 8.0)
    return s, w, a_minus, a_plus


@pytest.mark.parametrize("q", [sp.QUAD_ORDER, 32, 64])
def test_gain_scales_from_the_kept_rule_equal_the_rule_built_afresh(q, monkeypatch):
    monkeypatch.setattr(sp, "_RULE_CACHE", {})
    for e in (0.2, 0.96, 1.0, 0.2):  # the first call builds the rule, the rest reuse it
        got = sp.gain_scales(e, q)
        for a, b in zip(got, _gain_scales_afresh(e, q)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (q, e)
    assert list(sp._RULE_CACHE) == [(q,)]


def test_gain_scales_hand_out_arrays_the_kept_rule_does_not_share(monkeypatch):
    monkeypatch.setattr(sp, "_RULE_CACHE", {})
    first = sp.gain_scales(0.9, 32)
    ref = [a.copy() for a in first]
    for a in first:  # the caller owns them
        a[:] = np.nan
    for a, b in zip(sp.gain_scales(0.9, 32), ref):
        assert a.tobytes() == b.tobytes()
    (kept,) = sp._RULE_CACHE.values()
    assert not any(a.flags.writeable for a in kept)
    with pytest.raises(ValueError, match="read-only"):
        kept[0][0] = 0.0


def test_every_gain_runs_at_the_one_quad_order(monkeypatch):
    assert sp.SolverConfig().quad_order == sp.QUAD_ORDER
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    rs.fisher_gain_check(sp.CharacteristicProfile.maxwellian(sp.RadialGrid(1024, 30.0)), 0.9)
    assert [key[-1] for key in sp._GAIN_CACHE] == [sp.QUAD_ORDER]


def test_dissipation_rate_single_source():
    from maxcool.kinematics import dissipation_rate
    for e in (0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
        exact = (1.0 - e * e) / 8.0
        assert sp.dissipation_rate is dissipation_rate
        assert dissipation_rate(e) == exact


def test_gain_rejects_a_quad_order_below_the_default(monkeypatch):
    # every gain path builds its plan through gain_scales, which holds the guard
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_RULE_CACHE", {})
    phi = sp.CharacteristicProfile.maxwellian(sp.RadialGrid(1024, 30.0))
    with pytest.raises(ValueError, match="quad_order"):
        sp.gain_fourier(phi, 0.5, 8)
    with pytest.raises(ValueError, match="quad_order"):
        sp.step(phi, 0.5, sp.SolverConfig(dt=0.01, t_max=1.0, quad_order=16))
    with pytest.raises(ValueError, match="quad_order"):
        sp.gain_scales(0.5, 8)
    assert not sp._GAIN_CACHE and not sp._RULE_CACHE  # checked before it is looked up
    for q in (32, 64):  # the orders the benchmark passes
        assert sp.gain_fourier(phi, 0.5, q).values[0] == 1.0


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
    # both scale families lie in [0, 1] for e in (0, 1]: a- = (1 + e) u/2 < 1
    # and a+ <= 1 at every Gauss node, so queries stay on the grid
    g = sp.RadialGrid(512, 20.0)
    for e in (0.05, 0.4, 0.95, 1.0):
        for q in (sp.QUAD_ORDER, 64):
            plan = sp._GainPlan(g, e, q)
            _full_head(plan, g.n)  # fills every pair
            assert plan.plan.clamped == 0, (e, q)


class _Gather(NamedTuple):
    # the arguments of one call of the CSR kernel: y += A x for the gather
    # matrix A of the first n_row queries
    n_row: int
    n_col: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    x: np.ndarray
    out: np.ndarray


@contextlib.contextmanager
def _gathers():
    # every gather run inside, as the arguments the loaded kernel receives; a
    # gather's row pointer is a view of the shared `_ROW_POINTER`, and the
    # kernel's other calls, the node tables' stencil products, are not recorded
    calls = []
    kernel = sp._csr_matvec()

    def spy(*args):
        if args[2].base is sp._ROW_POINTER:
            calls.append(_Gather(*args))
        kernel(*args)

    sp._CSR_MATVEC = spy
    try:
        yield calls
    finally:
        sp._CSR_MATVEC = kernel


def _full_head(gain, n):
    # phi = 1 has no saturated tail: one apply fills every pair of a gain
    # plan, and gathers over the plan's whole gather matrix
    with _gathers() as calls:
        gain.apply(np.ones(n))
    (M,) = calls
    assert M.n_row == 2 * gain.q * n
    return M


def _full_eval(plan, v):
    # the profile v at every filled query of a plan, in query order, all of
    # them gathered: the full evaluation that every tail skip must reproduce
    # bit for bit
    out = np.zeros(plan.filled)
    plan.gather(plan.filled, sp._node_table(v, plan.h)[0].ravel(), out)
    out += 1.0
    return out


def _eval_all(gain, v):
    # the gain plan's queries at every pair, one (a-, a+) row per pair
    _full_head(gain, len(v))
    return _full_eval(gain.plan, v).reshape(-1, 2)


def _same_start(a, b):
    # a is a view of b from its first element on, not a copy
    return a.__array_interface__["data"][0] == b.__array_interface__["data"][0]


def _quintic_derivs(v, h):
    # the oracle of the node table's stencils: sixth-order 7-point slopes and
    # fourth-order 5-point curvatures with even extension across x = 0 and
    # one-sided closures at the top edge, as array expressions
    n = len(v)
    ve = np.concatenate([v[3:0:-1], v])  # ve[i + 3] = v[i], even-reflected
    d = np.empty_like(v)
    c = np.empty_like(v)
    # slope at node i uses ve[i : i + 7]; valid for i <= n - 4
    d[: n - 3] = (-ve[:-6] + 9.0 * ve[1:-5] - 45.0 * ve[2:-4]
                  + 45.0 * ve[4:-2] - 9.0 * ve[5:-1] + ve[6:]) / (60.0 * h)
    d[0] = 0.0
    d[-3] = (v[-5] - 8.0 * v[-4] + 8.0 * v[-2] - v[-1]) / (12.0 * h)
    d[-2] = (v[-1] - v[-3]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    # curvature at node i uses ve[i + 1 : i + 6]; valid for i <= n - 3
    c[: n - 2] = (-ve[1:-4] + 16.0 * ve[2:-3] - 30.0 * ve[3:-2]
                  + 16.0 * ve[4:-1] - ve[5:]) / (12.0 * h * h)
    c[-2] = (v[-1] - 2.0 * v[-2] + v[-3]) / (h * h)
    c[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return d, c


def _hermite_reference(v, positions, h):
    # quintic Hermite evaluation in increment form, gathered query by query;
    # the operator form of _InterpPlan must reproduce it
    n = len(v)
    p = np.minimum(np.asarray(positions, dtype=float), float(n - 1))
    i0 = np.minimum(p.astype(np.int64), n - 2)
    t = p - i0
    d, c = _quintic_derivs(v, h)
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
            idx = _full_head(gain, g.n).indices[::6] // 3  # the interval of each query
            assert idx.min() <= 2 and idx.max() >= g.n - 5
            _, w, am, ap = sp.gain_scales(e, q)
            k, i = np.divmod(gain.order, g.n)
            ref = _hermite_reference(v, np.stack([am[k] * i, ap[k] * i], axis=1), g.dx)
            assert np.max(np.abs(_eval_all(gain, v) - ref)) <= tol
            ref = _hermite_reference(v, np.multiply.outer(np.concatenate([am, ap]), ramp), g.dx)
            ref_gain = 0.5 * (w @ (ref[:q] * ref[q:]))
            ref_gain[0] = 1.0
            assert np.max(np.abs(gain.apply(v) - ref_gain)) <= tol
        # drift: the dilated queries run past x_max and are clamped
        for shift in (1e-4, 0.02):
            plan = _filled_plan(sp._drift_plan(g, shift).positions, g.n, g.dx)
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
        plan = _filled_plan(np.minimum(xq, g.x_max) / g.dx, g.n, g.dx)
        assert np.array_equal(sp.evaluate(phi, xq), _full_eval(plan, v))


def test_gain_plan_footprint():
    # 48 B of weights and 24 B of column indices per query, and a view of the
    # int32 row pointer that all plans share
    g = sp.RadialGrid(4096, 50.0)
    M = _full_head(sp._GainPlan(g, 0.95, 64), g.n)
    queries = 2 * 64 * g.n
    assert M.n_row == queries
    assert M.data.nbytes == 48 * queries and M.indices.nbytes == 24 * queries
    assert M.indptr.nbytes == 4 * (queries + 1) and np.shares_memory(M.indptr, sp._ROW_POINTER)


class _FullGain:
    # every (s-node, grid node) pair evaluated: one unsorted plan over
    # outer(concat(a-, a+), arange(n)), then at each node the products
    # w_k phi(a-_k x) phi(a+_k x) summed over k left to right, and halved
    def __init__(self, grid, e, q):
        _, self.w, am, ap = sp.gain_scales(e, q)
        ramp = np.arange(grid.n, dtype=float)
        self.plan = _filled_plan(np.multiply.outer(np.concatenate([am, ap]), ramp),
                                 grid.n, grid.dx)
        self.q = q

    def apply(self, v):
        vals = _full_eval(self.plan, v).reshape(2 * self.q, -1)
        out = np.zeros(vals.shape[1])
        for k in range(self.q):
            out += self.w[k] * (vals[k] * vals[self.q + k])
        out *= 0.5
        out[0] = 1.0
        return out


def _assert_full_gain(gain, out, full, v, name=None):
    # the full evaluation bit for bit, and exact +0 at every node from
    # live[J] on, whose pairs all have their outer query in the tail
    J = sp._node_table(v, gain.plan.h)[1]
    assert np.array_equal(out, full.apply(v)), name
    L = int(gain.live[J])
    assert out[L:].tobytes() == bytes(8 * (len(out) - L)), name


def _tail_profiles():
    rng = np.random.default_rng(5)
    g1, g4 = sp.RadialGrid(1024, 30.0), sp.RadialGrid(4096, 50.0)
    noisy = rng.uniform(-1.0, 1.0, g1.n)
    noisy[0] = 1.0
    # exact u = -1 over interior nodes, below a Gaussian tail and with none
    gap = sp.CharacteristicProfile.maxwellian(g1).values
    gap[100:140] = 0.0
    hole = noisy.copy()
    hole[300:340] = 1e-300
    early = np.zeros(g1.n)
    early[:3] = (1.0, 0.9, 0.7)  # saturated from x = 3 dx
    return {
        "bimaxwellian-4096": (g4, sp.CharacteristicProfile.bimaxwellian(g4).values),
        "maxwellian-1024": (g1, sp.CharacteristicProfile.maxwellian(g1).values),
        "ones": (g1, np.ones(g1.n)),
        "random": (g1, noisy),
        "interior-hole-no-tail": (g1, hole),
        "interior-gap-and-tail": (g1, gap),
        "saturated-from-3dx": (g1, early),
    }


@pytest.mark.parametrize("e", [0.2, 0.5, 0.95, 1.0])
def test_gain_tail_skip_is_the_full_evaluation_bit_for_bit(e):
    q = sp.QUAD_ORDER
    for name, (g, v) in _tail_profiles().items():
        gain = sp._GainPlan(g, e, q)
        X, J = sp._node_table(v, g.dx)
        P = int(gain.below[J])
        _assert_full_gain(gain, gain.apply(v), _FullGain(g, e, q), v, name)
        # only the trailing run counts, and what the run skips is exact
        if name in ("ones", "random", "interior-hole-no-tail"):
            assert J == g.n - 1 and P == q * g.n, name
        else:
            assert np.array_equal(X[J:], np.tile(sp._SATURATED, (g.n - J, 1))), name
            assert not np.array_equal(X[J - 1], sp._SATURATED), name
            assert P < q * g.n, name
        if name.startswith("interior"):
            assert np.any(np.all(X[:J] == sp._SATURATED, axis=1)), name
        if name == "saturated-from-3dx":
            assert J <= 8


def test_evolve_and_steady_solve_match_the_full_gain_bit_for_bit(monkeypatch):
    def run():
        g = sp.RadialGrid(1024, 30.0)
        B = sp.CharacteristicProfile.bimaxwellian(g)
        trace = sp.evolve(B, 0.95, sp.SolverConfig(t_max=80 * sp.DT, frame="rescaled-g"),
                          keep_profiles=True)
        steady = sp.steady_profile(0.95, grid=g)
        return trace, steady, sp.steady_residual(steady, 0.95)

    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    fast_trace, fast_steady, fast_residual = run()
    plans: dict = {}
    monkeypatch.setattr(sp, "_gain_plan", lambda grid, e, q: plans.setdefault(
        (grid.n, e, q), _FullGain(grid, e, q)))
    full_trace, full_steady, full_residual = run()
    assert plans and len(fast_trace.times) == len(full_trace.times)
    for a, b in zip(fast_trace.profiles, full_trace.profiles):
        assert np.array_equal(a.values, b.values)
    for k, d in fast_trace.diagnostics.items():
        assert np.array_equal(d, full_trace.diagnostics[k]), k
    assert np.array_equal(fast_steady.values, full_steady.values)
    assert fast_steady.meta["history"] == full_steady.meta["history"]
    assert fast_residual == full_residual


def test_gain_plan_pairs_are_sorted_by_their_outer_interval():
    g = sp.RadialGrid(1024, 30.0)
    for e, q in ((0.3, 32), (0.95, 64)):
        gain = sp._GainPlan(g, e, q)
        _, _, am, ap = sp.gain_scales(e, q)
        M = _full_head(gain, g.n)
        assert gain.order.dtype == np.int32  # 2 B per query beside M's 72
        assert np.array_equal(np.sort(gain.order), np.arange(q * g.n))
        k, i = np.divmod(gain.order, g.n)
        assert len(gain.plan.data) == 2 * q * g.n
        outer = (M.indices.reshape(-1, 6)[:, 0] // 3).reshape(-1, 2).max(axis=1)
        assert np.all(np.diff(outer) >= 0)
        assert np.array_equal(outer, np.minimum(
            np.maximum(am[k], ap[k]) * i, g.n - 1).astype(int).clip(max=g.n - 2))
        assert np.array_equal(gain.below, np.searchsorted(outer, np.arange(g.n)))
        assert np.array_equal(gain.live, [1 + i[:b].max() if b else 0 for b in gain.below])
        # the pair order is stable: k n + i increases within one interval
        same = np.diff(outer) == 0
        assert np.all(np.diff(gain.order)[same] > 0)


def test_gain_gathers_are_views_of_the_plan():
    g = sp.RadialGrid(1024, 30.0)
    gain = sp._GainPlan(g, 0.9, 32)
    with _gathers() as calls:
        for v in (sp.CharacteristicProfile.maxwellian(g).values,
                  sp.CharacteristicProfile.bimaxwellian(g).values, np.ones(g.n)):
            gain.apply(v)
    plan = gain.plan
    assert len({M.n_row for M in calls}) == 3 and calls[-1].n_row == 2 * 32 * g.n
    for M in calls:
        assert M.n_col == 3 * g.n and len(M.indptr) == M.n_row + 1
        assert len(M.data) == len(M.indices) == 6 * M.n_row
        for a, b in ((M.data, plan.data), (M.indices, plan.indices),
                     (M.indptr, sp._ROW_POINTER)):
            assert np.shares_memory(a, b) and _same_start(a, b)


def test_gather_is_the_scipy_csr_product_bit_for_bit():
    from scipy.sparse import csr_matrix  # noqa: PLC0415  (the oracle only)

    g = sp.RadialGrid(1024, 30.0)
    rng = np.random.default_rng(5)
    gain = sp._GainPlan(g, 0.7, 32)
    _full_head(gain, g.n)  # phi = 1: every pair filled
    xq = np.minimum(rng.uniform(0.0, 1.05 * g.x_max, 5001), g.x_max)
    plans = {"gain": gain.plan,
             "drift": _filled_plan(sp._drift_plan(g, 0.02).positions, g.n, g.dx),
             "evaluate": _filled_plan(xq / g.dx, g.n, g.dx)}
    random = rng.uniform(-1.0, 1.0, g.n)
    random[0] = 1.0
    for name, plan in plans.items():
        for v in (sp.CharacteristicProfile.bimaxwellian(g).values, random):
            X = sp._node_table(v, g.dx)[0].ravel()
            for m in (plan.filled, plan.filled // 3):
                M = csr_matrix((plan.data[:m].ravel(), plan.indices[:m].ravel(),
                                6 * np.arange(m + 1)), shape=(m, 3 * g.n))
                out = np.zeros(m)
                plan.gather(m, X, out)
                assert out.tobytes() == (M @ X).tobytes(), (name, m)


def test_gather_rejects_what_the_kernel_would_misread():
    # csr_matvec reads past a short node table, and writes a strided output
    # to a copy that it drops
    plan = _filled_plan(np.linspace(0.0, 10.0, 7), 64, 0.1)
    X = np.zeros(3 * 64)
    for bad_X, bad_out in ((X[:-1], np.zeros(7)), (X.reshape(64, 3), np.zeros(7)),
                           (X, np.zeros(6)), (X, np.zeros(14)[::2])):
        with pytest.raises(ValueError, match="flat node table and m contiguous outputs"):
            plan.gather(7, bad_X, bad_out)
    with pytest.raises(ValueError, match="8 queries asked of a plan with 7 filled"):
        plan.gather(8, X, np.zeros(8))


def test_a_missing_kernel_fails_the_first_gather_naming_the_directory(tmp_path, monkeypatch):
    # scipy's sparse directory replaced by an empty one
    (tmp_path / "sparse").mkdir()
    find_spec = importlib.util.find_spec

    def empty_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)
    monkeypatch.setattr(sp, "_CSR_MATVEC", None)
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    g = sp.RadialGrid(256, 20.0)
    phi = sp.CharacteristicProfile.bimaxwellian(g)
    message = re.escape(f"{tmp_path / 'sparse'} (scipy {importlib.metadata.version('scipy')})")
    for run in (lambda: sp.gain_fourier(phi, 0.5),
                lambda: sp.step(phi, 0.5, sp.SolverConfig(frame="rescaled-g")),
                lambda: sp.evaluate(phi, [0.5, 1.5])):
        with pytest.raises(ImportError, match=message):
            run()
    assert not sp._GAIN_CACHE and not sp._DRIFT_CACHE and sp._CSR_MATVEC is None
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    with pytest.raises(ImportError, match="scipy is required"):
        sp.evaluate(phi, [0.5])
    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    assert np.array_equal(sp.gain_fourier(phi, 0.5).values,
                          sp._GainPlan(g, 0.5, sp.QUAD_ORDER).apply(phi.values))
    assert len(sp._GAIN_CACHE) == 1 and sp._CSR_MATVEC is not None


def test_every_plan_has_value_weights_summing_to_one(monkeypatch):
    # the saturated tail is exact because W0 + W1 == 1 in floating point
    g = sp.RadialGrid(1024, 30.0)
    gains = [sp._GainPlan(g, e, q) for e in (0.2, 0.5, 0.95, 1.0) for q in (32, 64)]
    for gain in gains:
        _full_head(gain, g.n)
    plans = [gain.plan for gain in gains]
    plans += [_filled_plan(sp._drift_plan(g, shift).positions, g.n, g.dx)
              for shift in (1e-4, 0.02)]
    plans.append(_filled_plan(np.linspace(0.0, g.n - 1, 100003), g.n, g.dx))
    for plan in plans:
        W = plan.data[:plan.filled]
        assert np.all(W[:, 0] + W[:, 1] == 1.0)
    inner = sp._hermite_weights

    def off(t, W):
        inner(t, W)
        W[:, 0] += 1e-9

    monkeypatch.setattr(sp, "_hermite_weights", off)
    with pytest.raises(ValueError, match="sum to exactly 1"):
        _filled_plan(np.linspace(0.0, 10.0, 7), g.n, g.dx)


def test_an_apply_fills_only_the_pairs_below_the_tail():
    # a gain plan starts unfilled; one apply fills its first 2 below[J]
    # queries in whole chunks and leaves the rest of the reserve untouched
    g = sp.RadialGrid(4096, 50.0)
    v = sp.CharacteristicProfile.bimaxwellian(g).values
    chunk = sp._PLAN_CHUNK
    for e in (0.2, 0.5, 0.95, 1.0):
        gain = sp._GainPlan(g, e, 32)
        assert gain.plan.filled == 0
        P = int(gain.below[sp._node_table(v, g.dx)[1]])
        with _gathers() as calls:
            gain.apply(v)
        assert 2 * P <= gain.plan.filled <= -(-2 * P // chunk) * chunk, e
        assert gain.plan.filled < 2 * 32 * g.n and [M.n_row for M in calls] == [2 * P]


def test_a_widening_run_fills_each_query_once_and_matches_the_full_gain(monkeypatch):
    # an unscaled run cools, so its tail moves out and the plan grows; every
    # apply is the full evaluation, and no query's weights are computed twice
    g = sp.RadialGrid(1024, 30.0)
    e, q = 0.5, sp.QUAD_ORDER
    full = _FullGain(g, e, q)  # built before the rows are counted
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    rows = []
    inner = sp._hermite_weights

    def counted(t, W):
        rows.append(len(t))
        inner(t, W)

    filled = []
    apply = sp._GainPlan.apply

    def checked(self, v):
        out = apply(self, v)
        _assert_full_gain(self, out, full, v)
        filled.append(self.plan.filled)
        return out

    monkeypatch.setattr(sp, "_hermite_weights", counted)
    monkeypatch.setattr(sp._GainPlan, "apply", checked)
    sp.evolve(sp.CharacteristicProfile.maxwellian(g), e,
              sp.SolverConfig(t_max=2.5, frame="unscaled-f"))
    (gain,) = sp._GAIN_CACHE.values()
    assert len(filled) == 4 * 50
    assert len(set(filled)) >= 3 and filled[-1] < 2 * q * g.n  # widened, never full
    assert sum(rows) == gain.plan.filled


def test_gain_plans_of_one_shape_share_their_node_sums_bit_for_bit(monkeypatch):
    # two plans of one (q, n) take turns while their tails move out and
    # back, so P rises and falls on each plan, both between applies of one
    # plan and across a switch to the other; each plan holds its own int32
    # index and shares the weights and the row pointer
    monkeypatch.setattr(sp, "_NODE_SUMS", {})
    g, q = sp.RadialGrid(1024, 30.0), sp.QUAD_ORDER
    widths = (1.0, 0.25, 4.0, None, 0.5, 16.0, 1.0)  # None: phi = 1, no tail
    profiles = [np.ones(g.n) if t is None else sp.CharacteristicProfile.maxwellian(g, t).values
                for t in widths]
    plans = {e: (sp._GainPlan(g, e, q), _FullGain(g, e, q)) for e in (0.5, 0.95)}
    turns = [(e, v) for v in profiles for e in (0.5, 0.5, 0.95)]
    turns += [(0.95, v) for v in profiles[::-1]] + [(0.5, v) for v in profiles]
    seen = []
    for e, v in turns:
        gain, full = plans[e]
        _assert_full_gain(gain, gain.apply(v), full, v, (e, len(seen)))
        seen.append((e, int(gain.below[sp._node_table(v, g.dx)[1]])))
    for e in plans:
        P = [p for k, p in seen if k == e]
        assert any(b < a for a, b in zip(P, P[1:])) and any(b > a for a, b in zip(P, P[1:]))
    assert max(p for _, p in seen) == q * g.n
    (a, _), (b, _) = plans.values()
    assert a.index.dtype == b.index.dtype == np.int32 and len(a.index) == q * g.n
    assert not np.shares_memory(a.index, b.index)
    assert np.shares_memory(a.weights, b.weights) and np.shares_memory(a.indptr, b.indptr)
    assert list(sp._NODE_SUMS) == [(q, g.n)]
    other = sp._GainPlan(sp.RadialGrid(512, 20.0), 0.5, q)
    assert not np.shares_memory(other.weights, a.weights)


# an order whose rounded Gauss-Legendre weights sum left to right to
# 2 + 4.4e-16, so that `gain_scales` corrects its last weight; the default
# order's sum to exactly 2
_ROUNDED_SUM_ORDER = 26


def _unscaled_tail(n, x_max, q, steps=80):
    # (J, the node table from J on is saturated, the apply of live[J] on
    # is +0, the SHA-256 of the final profile) after `steps` unscaled steps
    # of dt = 0.005 at e = 0.95 from the bimaxwellian, with the gain at order q
    g = sp.RadialGrid(n, x_max)
    phi = sp.CharacteristicProfile.bimaxwellian(g)
    config = sp.SolverConfig(dt=0.005, frame="unscaled-f", quad_order=q)
    for _ in range(steps):
        phi = sp.step(phi, 0.95, config)
    X, J = sp._node_table(phi.values, g.dx)
    gain = sp._gain_plan(g, 0.95, q)
    out = gain.apply(phi.values)
    return (J, bool(np.array_equal(X[J:], np.tile(sp._SATURATED, (n - J, 1)))),
            out[int(gain.live[J]):].tobytes() == bytes(8 * (n - int(gain.live[J]))),
            hashlib.sha256(phi.values.tobytes()).hexdigest())


def _gain_hashes(orders):
    # the SHA-256 of gain_fourier of the bimaxwellian at e = 0.95 at each
    # order on the (1024, 30) and (4093, 50) grids
    out = []
    for n, x_max in ((1024, 30.0), (4093, 50.0)):
        B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(n, x_max))
        out += [hashlib.sha256(sp.gain_fourier(B, 0.95, q).values.tobytes()).hexdigest()
                for q in orders]
    return out


def test_an_unscaled_run_keeps_its_tail_on_a_grid_of_odd_size():
    # n = 4093 is no multiple of 8, the block width of a blocked BLAS kernel;
    # the gain sums each node's products left to right whatever n, so the
    # nodes past the tail's reach read exactly +0 and the tail stays
    # saturated, at _ROUNDED_SUM_ORDER too
    for q in (sp.QUAD_ORDER, _ROUNDED_SUM_ORDER):
        J, saturated, zero, _ = _unscaled_tail(4093, 50.0, q)
        assert J < 4093 - 1 and saturated and zero, q


def test_the_tail_stays_saturated_under_a_kernel_that_rounds_the_weight_sum():
    # OpenBLAS's Sandybridge kernel and the default one round BLAS sums
    # differently; the gain calls no BLAS, so under both the gain's bytes
    # and those of an 80-step unscaled run are the same, and the run's tail
    # stays saturated. The variable picks the kernel of a DYNAMIC_ARCH
    # OpenBLAS, and other builds ignore it
    runs = [(n, x_max, q) for n, x_max in ((1024, 30.0), (4096, 50.0))
            for q in (sp.QUAD_ORDER, _ROUNDED_SUM_ORDER)]
    orders = [sp.QUAD_ORDER, _ROUNDED_SUM_ORDER, 64]
    code = ("import hashlib\nimport numpy as np\nfrom maxcool import spectral as sp\n"
            + inspect.getsource(_unscaled_tail) + inspect.getsource(_gain_hashes)
            + f"print([[_unscaled_tail(*run) for run in {runs!r}], _gain_hashes({orders!r})])\n")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    results = [ast.literal_eval(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True).stdout) for env in (base, {**base, "OPENBLAS_CORETYPE": "Sandybridge"})]
    (default_runs, default_gains), (sandybridge_runs, sandybridge_gains) = results
    for (J, saturated, zero, _), run in zip(sandybridge_runs, runs):
        assert J < run[0] - 1 and saturated and zero, run
    assert sandybridge_runs == default_runs
    assert sandybridge_gains == default_gains


def test_gathers_stay_views_after_later_fills():
    g = sp.RadialGrid(1024, 30.0)
    gain = sp._GainPlan(g, 0.9, 32)
    narrow = sp.CharacteristicProfile.maxwellian(g, 4.0).values
    wide = sp.CharacteristicProfile.maxwellian(g, 0.25).values
    with _gathers() as calls:
        gain.apply(narrow)
    plan = gain.plan
    (head,) = calls
    m = head.n_row
    before = plan.filled
    X = sp._node_table(wide, g.dx)[0].ravel()
    expected = np.zeros(m)
    plan.gather(m, X, expected)
    with _gathers() as calls:
        gain.apply(wide)
    (widened,) = calls
    wider = widened.n_row
    assert plan.filled > before
    for a, b in ((head.data, plan.data), (head.indices, plan.indices),
                 (head.indptr, widened.indptr), (widened.data, plan.data)):
        assert _same_start(a, b)
    again = np.zeros(m)
    sp._csr_matvec()(m, head.n_col, head.indptr, head.indices, head.data, X, again)
    assert np.array_equal(again, expected)
    out = np.zeros(wider)
    plan.gather(wider, X, out)
    assert wider > m and np.array_equal(out[:m], expected)


def _interval_tail_start(v, h):
    # the tail start as the (n - 1, 6) interval table defines it: the first
    # interval of the trailing run of rows [u_i, u_{i+1}, h d_i, h d_{i+1},
    # h^2 c_i, h^2 c_{i+1}] equal to (-1, -1, 0, 0, 0, 0)
    u = v - 1.0
    d, c = _quintic_derivs(u, h)
    T = np.empty((len(v) - 1, 6))
    for k, a in enumerate((u, d * h, c * (h * h))):
        T[:, 2 * k] = a[:-1]
        T[:, 2 * k + 1] = a[1:]
    live = np.flatnonzero(T != np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
    return int(live[-1]) // 6 + 1 if live.size else 0


def _edge_profiles():
    # the last node where phi - 1 != -1 at 0 to 8 nodes below x_max, where the
    # stencils of the nodes before the tail reach the top-edge closures
    g = sp.RadialGrid(1024, 30.0)
    out = {}
    for k in range(9):
        v = sp.CharacteristicProfile.maxwellian(g, 0.01).values  # 0.011 at x_max
        v[g.n - k:] = 0.0
        out[f"live-to-n-{k + 1}"] = (g, v)
    return out


def _closure_profiles():
    # profiles on grids of other sizes and parities: all but the bimaxwellian
    # have no tail, so their node tables reach the top-edge closures
    rng = np.random.default_rng(7)
    out = {}
    for n, x_max in ((256, 20.0), (4093, 50.0)):
        g = sp.RadialGrid(n, x_max)
        noisy = rng.uniform(-1.0, 1.0, n)
        noisy[0] = 1.0
        out[f"ones-{n}"] = (g, np.ones(n))
        out[f"random-{n}"] = (g, noisy)
        out[f"wide-maxwellian-{n}"] = (g, sp.CharacteristicProfile.maxwellian(g, 0.005).values)
        out[f"bimaxwellian-{n}"] = (g, sp.CharacteristicProfile.bimaxwellian(g).values)
    return out


def test_node_table_is_the_full_stencil_table_and_finds_the_interval_tail():
    profiles = {**_tail_profiles(), **_edge_profiles(), **_closure_profiles()}
    for name, (g, v) in profiles.items():
        X, J = sp._node_table(v, g.dx)
        u = v - 1.0
        d, c = _quintic_derivs(u, g.dx)
        full = np.stack([u, d * g.dx, c * (g.dx * g.dx)], axis=1)
        assert X.tobytes() == full.tobytes(), name  # every row, zero signs included
        assert J == _interval_tail_start(v, g.dx), name


@pytest.mark.parametrize("shift", [1e-4, 0.02])
def test_a_drift_that_stops_at_the_tail_is_the_full_drift_bit_for_bit(shift, monkeypatch):
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    for name, (g, v) in _tail_profiles().items():
        sp._DRIFT_CACHE.clear()
        with _gathers() as calls:
            out = sp._drift_vals(v, g, shift)
        plan = _filled_plan(sp._drift_plan(g, shift).positions, g.n, g.dx)
        assert plan.clamped > 0, name
        ((m, *_),) = calls
        full = _full_eval(plan, v)
        full[0] = 1.0
        assert out.tobytes() == full.tobytes(), name
        # the tailed profiles skip their top queries, the clamped ones among them
        if name in ("ones", "random", "interior-hole-no-tail"):
            assert m == g.n, name
        else:
            assert m < g.n - plan.clamped, name


def test_a_drift_plan_fills_its_prefix_once(monkeypatch):
    # a rescaled evolve fills the drift plan only as far as the widest live
    # prefix of its calls, far short of the grid, and a second evolve fills
    # no query; every drift call is the full evaluation bit for bit
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    g = sp.RadialGrid(4096, 50.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    config = sp.SolverConfig(dt=0.005, t_max=10 * 0.005, frame="rescaled-g")
    widest, fills, oracle = [], [], []
    values, fill = sp._PrefixPlan.values, sp._InterpPlan.fill

    def checked(self, v):
        out, M = values(self, v)
        if not oracle:  # the one drift plan of the run, every query filled
            oracle.append(_filled_plan(self.positions, g.n, g.dx))
        assert out.tobytes() == _full_eval(oracle[0], v).tobytes()
        widest.append(M)
        return out, M

    def counted(self, p):
        fills.append(len(p))
        fill(self, p)

    monkeypatch.setattr(sp._PrefixPlan, "values", checked)
    first = sp.evolve(B, 0.95, config).final
    (drift,) = sp._DRIFT_CACHE.values()
    assert len(widest) == 2 * 10 and drift.plan.filled == max(widest) < g.n // 4
    monkeypatch.setattr(sp._InterpPlan, "fill", counted)
    again = sp.evolve(B, 0.95, config).final
    assert fills == [] and drift.plan.filled == max(widest)
    assert again.values.tobytes() == first.values.tobytes()


def test_every_gather_is_a_view_of_its_plan(monkeypatch):
    # the kernel gets views of the plan's arrays, of under half of them too,
    # never copies
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    g = sp.RadialGrid(1024, 30.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    with _gathers() as calls:
        for frame in ("rescaled-g", "unscaled-f"):
            sp.evolve(B, 0.9, sp.SolverConfig(t_max=10 * sp.DT, frame=frame))
    plans = [p.plan for p in (*sp._GAIN_CACHE.values(), *sp._DRIFT_CACHE.values())]
    assert len(plans) == 2
    for plan in plans:
        mine = [M for M in calls if np.shares_memory(M.data, plan.data)]
        assert mine and min(M.n_row for M in mine) < len(plan.data) // 2
        for M in mine:
            assert _same_start(M.data, plan.data) and _same_start(M.indices, plan.indices)
            assert M.indptr.base is not None
            assert np.array_equal(M.indptr, 6 * np.arange(M.n_row + 1))


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
    for r in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="order r"):
            sp.sobolev_norm(M, r)


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
    for delta in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta"):
            sp.sup_weighted(M, delta)


def test_gamma_constants_examples():
    A2, gamma = sp.gamma_constants(1.0, 1.0)
    assert A2 == pytest.approx(0.2, abs=1e-14)
    assert gamma == pytest.approx(2.0 / 15.0, abs=1e-14)
    # e = 0.95, alpha = 0.9
    assert sp.gamma_constants(0.9, 0.95)[1] == pytest.approx(0.12205, abs=5e-6)
    with pytest.raises(ValueError):
        sp.gamma_constants(0.0, 0.9)
    with pytest.raises(ValueError):
        sp.gamma_constants(1.5, 0.9)


@pytest.mark.parametrize("e", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
def test_gamma_constants_A2_is_the_moment_rate(alpha, e):
    # A2 = lambda(1 + alpha/2), against the inline A1 form it replaced
    h = (1.0 - e) / 2.0
    A1 = (2.0 / (4.0 + alpha)) * (((1.0 + e) / 2.0) ** (2.0 + alpha)
                                  + (1.0 - h ** (4.0 + alpha)) / (1.0 - h * h))
    A2 = 1.0 - A1 - sp.dissipation_rate(e) * (2.0 + alpha)
    assert abs(sp.gamma_constants(alpha, e)[0] - A2) <= 1e-15


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


def test_default_dt_is_below_the_extractor_bias():
    # the reported numbers are decay rates and steady states, whose error is
    # set by the m4 extractor's 8e-5 relative bias; the step's own error sits
    # orders below it. Bounds fixed before the run (measured against
    # dt = 0.005: max |dphi| 6.3e-11, m4 1.5e-9 relative)
    B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(256, 20.0), 0.5, 0.6, 1.4)

    def final(dt):
        config = sp.SolverConfig(dt=dt, t_max=20.0)
        return sp.evolve(B, 0.95, config, diagnostics_schedule=[20.0]).final

    phi, ref = final(sp.DT), final(sp.DT / 5.0)
    assert np.max(np.abs(phi.values - ref.values)) <= 1e-9
    m4 = sp.moment(ref, 4)
    assert abs(sp.moment(phi, 4) - m4) <= 1e-3 * 8e-5 * m4


def test_step_abort_on_bound_violation():
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    cfg = sp.SolverConfig(dt=10.0, t_max=10.0, frame="unscaled-f")
    with pytest.warns(UserWarning, match="halved"):
        with pytest.raises(RuntimeError):
            sp.step(B, 0.5, cfg)


def test_a_step_to_nan_takes_the_halving_path_and_names_t():
    # a NaN profile fails the bound check: the step halves dt, then raises
    # the RuntimeError that names t, not the profile's finiteness ValueError
    # (the huge steps overflow on purpose; numpy's overflow notes are muted)
    B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(512, 20.0))
    for dt in (1e150, 1e300, 50.0):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.warns(UserWarning, match="halved"):
                with pytest.raises(RuntimeError, match="after dt halving at t=0;"):
                    sp.step(B, 0.9, sp.SolverConfig(dt=dt, frame="unscaled-f"))


def test_a_step_too_large_for_the_drift_raises_before_any_plan(monkeypatch):
    # exp(E dt/2) overflows: the step names dt and builds no plan
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    B = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(512, 20.0))
    for dt in (1e150, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"dt={dt!r}")):
            sp.step(B, 0.9, sp.SolverConfig(dt=dt))
    assert not sp._GAIN_CACHE and not sp._DRIFT_CACHE
    # a large step that the drift can still take keeps the halving path
    with pytest.warns(UserWarning, match="halved"):
        with pytest.raises(RuntimeError, match="dt halving"):
            sp.step(B, 0.9, sp.SolverConfig(dt=50.0))


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
    assert meta["last_update_d2"] < 1e-7
    # fixed-point residual of (gain - id + drift generator): 10x the tolerance
    assert sp.steady_residual(steady_e09, 0.9) < 1e-6
    # unit temperature is preserved from the Maxwellian start
    assert sp.moment(steady_e09, 2) / 3.0 == pytest.approx(1.0, abs=1e-4)
    # stationary profile lies inside the two-sided envelope at theta = 1
    envelope = sp.envelope_report(steady_e09)
    assert envelope["lower_ok_fraction"] == 1.0
    assert envelope["upper_ok_fraction"] == 1.0


@pytest.mark.parametrize("e", [0.05, 0.3, 0.5, 0.8, 0.95, 1.0])
def test_stationary_taylor_gives_the_closed_form_m4(e):
    # m4* = 120 c_2 = 30 c22/(1 - c4 - 4E), with c4 = (1/2) int (a-^4 + a+^4) ds
    # and c22 = (1/2) int a-^2 a+^2 ds written in a-^2 = 2 al^2 (1 - s) and
    # a+^2 = al^2 + be^2 + 2 al be s
    al, be = (1.0 + e) / 4.0, (3.0 - e) / 4.0
    p = al * al + be * be
    c4 = 16.0 / 3.0 * al ** 4 + p * p + 4.0 / 3.0 * al * al * be * be
    c22 = al * al * (2.0 * p - 4.0 / 3.0 * al * be)
    m4 = 30.0 * c22 / (1.0 - c4 - 4.0 * sp.dissipation_rate(e))
    c = sp._stationary_taylor(e, 2)
    assert c[:2] == [1.0, -0.5]
    assert abs(120.0 * c[2] - m4) <= 1e-13


@pytest.mark.parametrize("e, m6", [(0.95, 105.80), (0.8, 119.10), (0.5, 271.17)])
def test_stationary_taylor_gives_m6(e, m6):
    assert -5040.0 * sp._stationary_taylor(e, 3)[3] == pytest.approx(m6, abs=5e-3)


# (e, K): K = 2 where lambda(3) <= 0 (e < 0.2701) or phi0 at K = 3 leaves
# |phi| <= 1; K = 3 where lambda(4) <= 0 (e < 0.4823) or phi0 at K = 4 does
_START_ORDERS = [(0.001, 2), (0.1, 2), (0.2701, 2), (0.271, 2), (0.35, 2), (0.36, 3),
                 (0.4823, 3), (0.5, 3), (0.55, 4), (0.8, 4), (0.99, 4), (1.0, 4)]


@pytest.mark.parametrize("e, K", _START_ORDERS)
def test_steady_start_is_a_valid_profile_of_its_order(e, K):
    # exp(x^2/2) phi0 is a polynomial of degree K in y = x^2: fit it to degree
    # 4 on x <= 1, multiply by the series of exp(-y/2), and read back
    # c_0 .. c_K, with nothing above y^K
    for g in (sp.RadialGrid(1024, 30.0), sp.RadialGrid()):
        phi0 = sp._steady_start(g, e)
        assert phi0.values[0] == 1.0
        assert np.max(np.abs(phi0.values)) <= 1.0
        y = g.x[g.x <= 1.0] ** 2
        b = np.polynomial.polynomial.polyfit(y, np.exp(y / 2.0) * phi0.values[:len(y)], 4)
        np.testing.assert_allclose(b[K + 1:], 0.0, atol=1e-9)
        gauss = [(-0.5) ** m / math.factorial(m) for m in range(K + 1)]
        c = np.polynomial.polynomial.polymul(gauss, b[:K + 1])[:K + 1]
        np.testing.assert_allclose(c, sp._stationary_taylor(e, K), rtol=1e-9, atol=1e-12)


def test_steady_solve_without_a_start_begins_at_the_maxwellian(monkeypatch):
    # where `_steady_start` gives None, Newton starts from the unit Maxwellian;
    # bound fixed before the run: convergence at tol 1e-10 within the
    # default budget (measured: 5 and 6 steps)
    g = sp.RadialGrid(1024, 30.0)
    monkeypatch.setattr(sp, "_steady_start", lambda grid, e: None)
    for e in (0.5, 0.2):
        phi = sp.steady_profile(e, tol=1e-10, grid=g)
        assert phi.meta["converged"], e
        M = sp.CharacteristicProfile.maxwellian(g)
        assert phi.meta["history"][0]["residual"] == pytest.approx(
            sp.steady_residual(M, e), rel=1e-12)


def test_steady_solve_from_the_stationary_start_is_short():
    # the start lies about 1.1e-7 (d2) from the root: one Newton step of
    # three GMRES iterations meets tol 1e-6, at the default order and at
    # q = 32 (the solves of perfbench's `steady` workload), and from the
    # unit Maxwellian (3.7e-5 away) it takes two steps
    g = sp.RadialGrid(1024, 30.0)
    for e, q in ((0.98, sp.QUAD_ORDER), (0.96, 32), (0.98, 32)):
        config = sp.SolverConfig(quad_order=q)
        phi = sp.steady_profile(e, config, tol=1e-6, grid=g)
        meta = phi.meta
        assert meta["converged"] and meta["newton_steps"] == 1, (e, q)
        assert meta["gmres_steps"] == 3 and meta["gain_applies"] == 4, (e, q)
        ref = sp.steady_profile(e, config, tol=1e-10, grid=g)
        assert sp.d2_distance(phi, ref) <= 1e-6, (e, q)


def test_steady_profile_builds_one_loss_drift_solver_per_newton_step(monkeypatch):
    builds = []
    inner = sp._loss_drift

    def counted(E, n):
        builds.append(E)
        return inner(E, n)

    monkeypatch.setattr(sp, "_loss_drift", counted)
    phi = sp.steady_profile(0.5, tol=1e-10, grid=sp.RadialGrid(1024, 30.0))
    assert phi.meta["converged"] and phi.meta["newton_steps"] >= 2
    assert len(builds) == phi.meta["newton_steps"]


@pytest.mark.parametrize("e", [0.95, 0.98, 0.99, 1.0])
def test_steady_solve_at_a_tight_tol_is_near_its_fixed_point(e):
    # the stationary start misses the grid's root by about 1e-7 in d2,
    # mostly along near-dilations; the old march stopped 6.8 tol off at
    # e = 1. Bound fixed before the run: 2 tol from a tol-1e-12 root
    # (measured: under 1e-5 tol, in 3 Newton steps)
    g, tol = sp.RadialGrid(1024, 30.0), 1e-8
    phi = sp.steady_profile(e, tol=tol, grid=g)
    ref = sp.steady_profile(e, tol=1e-12, grid=g)
    assert phi.meta["converged"] and ref.meta["converged"]
    assert sp.d2_distance(phi, ref) <= 2.0 * tol


def test_steady_profile_validation():
    with pytest.raises(ValueError):
        sp.steady_profile(0.9, config=sp.SolverConfig(frame="unscaled-f"))
    with pytest.raises(ValueError):
        sp.steady_profile(0.9, tol=0.0)


@pytest.mark.parametrize("e", [0.8, 0.9, 0.95])
def test_steady_profile_pins_unit_temperature(e):
    phi = sp.steady_profile(e, tol=1e-8, grid=sp.RadialGrid(1024, 30.0))
    assert phi.meta["converged"]
    assert abs(sp.moment(phi, 2) - 3.0) <= 1e-10


def test_steady_profile_counts_its_steps(monkeypatch):
    calls = []
    inner = sp._GainPlan.apply

    def counted(self, v):
        calls.append(1)
        return inner(self, v)

    monkeypatch.setattr(sp._GainPlan, "apply", counted)
    phi = sp.steady_profile(0.5, tol=1e-10, grid=sp.RadialGrid(1024, 30.0))
    meta, history = phi.meta, phi.meta["history"]
    assert meta["converged"]
    assert meta["newton_steps"] == len(history) >= 2
    assert meta["gmres_steps"] == sum(h["gmres"] for h in history)
    # one residual per Newton step and one product per GMRES iteration at
    # least (a restart adds one), and no apply after the last step
    assert meta["gain_applies"] >= meta["newton_steps"] + meta["gmres_steps"]
    assert len(calls) == meta["gain_applies"]
    assert history[-1]["update_d2"] == meta["last_update_d2"] < 1e-10
    assert all(h["update_d2"] >= 1e-10 for h in history[:-1])


_STEADY_META = {"converged", "last_update_d2", "mu", "newton_steps", "gmres_steps",
                "gain_applies", "history"}


def test_steady_meta_is_the_record_of_the_solve():
    # the solve's own iterations and nothing measured after them
    phi = sp.steady_profile(0.9, tol=1e-6, grid=sp.RadialGrid(256, 20.0))
    assert phi.meta["converged"] and set(phi.meta) == _STEADY_META


def test_steady_profile_short_budget_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(sp, "_NEWTON_STEPS", 1)
    with pytest.warns(UserWarning, match="did not reach tol"):
        phi = sp.steady_profile(0.2, tol=1e-7, grid=sp.RadialGrid(1024, 30.0))
    meta = phi.meta
    assert set(meta) == _STEADY_META
    assert not meta["converged"]
    assert meta["newton_steps"] == len(meta["history"]) == 1
    assert meta["last_update_d2"] == meta["history"][0]["update_d2"] >= 1e-7


@pytest.mark.parametrize("e", [0.5, 0.2])
def test_steady_update_falls_quadratically(e):
    # once the d2 size of the update u is below 1e-6, the next is at most
    # 1e3 u^2 until the round-off floor (about 3e-14 on this grid).
    # Bound fixed before the run (measured: 1.7e-11 after 1.6e-7 at e = 0.5;
    # 1.2e-10 after 2.2e-6, then 2.6e-14, at e = 0.2). Near e = 1 the first
    # update misses the near-dilations that the second finds, so the first
    # pair there is no Newton contraction (4.8e-8, then 6.8e-8 at e = 1)
    phi = sp.steady_profile(e, tol=1e-13, grid=sp.RadialGrid(1024, 30.0))
    updates = [h["update_d2"] for h in phi.meta["history"]]
    pairs = [(u, w) for u, w in zip(updates, updates[1:]) if u < 1e-6]
    assert pairs, updates
    for u, w in pairs:
        assert w <= max(1e3 * u * u, 1e-13), updates


def test_steady_mu_is_the_grids_dissipation_defect():
    # mu is the rate by which the discrete gain misses energy balance; on
    # (1024, 30) it reads 1.00e-8 to 1.13e-8 at e >= 0.8. Below that it
    # depends on e (2.1e-8 at e = 0.5, -9.5e-8 at e = 0.2), and a wider m2
    # fit as the border moves it by under 0.2 %, so only e >= 0.8 is asserted
    g = sp.RadialGrid(1024, 30.0)
    for e in (0.8, 0.9, 0.95, 1.0):
        mu = sp.steady_profile(e, tol=1e-10, grid=g).meta["mu"]
        assert 1.0e-8 <= mu <= 1.15e-8, (e, mu)


def test_steady_mu_falls_at_fourth_order():
    # per halving of dx, mu at e = 0.95 shrinks 15.7 times to (2048, 30),
    # and on (4096, 30) it reads -8e-15 from the stationary start. There the
    # root is set only to the residual's round-off: from the unit Maxwellian
    # it reads 1.7e-10, 2e-9 away in d2. Bound fixed before the run: 12
    # times per halving
    mus = [sp.steady_profile(0.95, tol=1e-10, grid=sp.RadialGrid(n, 30.0)).meta["mu"]
           for n in (1024, 2048, 4096)]
    assert mus[0] > 0.0
    for coarse, fine in zip(mus, mus[1:]):
        assert abs(fine) <= coarse / 12.0, mus


def test_steady_residual_takes_the_stencil_slopes_to_the_top_edge():
    # every slope enters, the closures' too
    for name, (g, v) in _closure_profiles().items():
        phi = sp.CharacteristicProfile(g, v)
        for e in (0.3, 0.9):
            R = (sp.gain_fourier(phi, e).values - v
                 + sp.dissipation_rate(e) * g.x * _quintic_derivs(v, g.dx)[0])
            assert sp.steady_residual(phi, e) == float(np.max(np.abs(R))), (name, e)


def _full_sweep(r, E):
    # u - E x u' = r swept inward over every node, one node at a time
    c = E * np.arange(len(r), dtype=float)
    a = (c / (1.0 + c)).tolist()
    b = (r / (1.0 + c)).tolist()
    u = [0.0] * len(b)
    acc = 0.0
    for i in range(len(b) - 1, -1, -1):
        acc = b[i] + a[i] * acc
        u[i] = acc
    return np.array(u)


def _full_doubling(r, E):
    # the same recurrence by recursive doubling over every node, with no
    # stop at the last nonzero r
    n = len(r)
    c = E * np.arange(n, dtype=float)
    b = r / (1.0 + c)
    m, s = (c / (1.0 + c))[:n - 1], 1
    while s < n:
        b[:n - s] += m * b[s:]
        m, s = m[:max(n - 2 * s, 0)] * m[s:], 2 * s
    return b


def test_the_loss_drift_sweep_that_stops_at_the_last_nonzero_r_is_the_full_sweep():
    rng = np.random.default_rng(13)
    n = 1024
    zero_tail = rng.standard_normal(n) * 1e-3
    zero_tail[300:] = 0.0
    zero_tail[310::7] = -0.0
    nan = zero_tail.copy()
    nan[200] = math.nan
    cases = {"zero-tail": zero_tail, "no-tail": rng.standard_normal(n), "all-zero": np.zeros(n),
             "nan": nan}
    for e in (0.2, 0.95, 1.0):
        E = sp.dissipation_rate(e)
        solve = sp._loss_drift(E, n)
        for name, r in cases.items():
            u = solve(r)
            assert u.tobytes() == _full_doubling(r, E).tobytes(), (name, e)
        u = solve(zero_tail)
        assert np.all(u[300:] == 0.0) and not np.any(np.signbit(u[300:]))
        u = solve(nan)
        assert np.all(np.isnan(u[:201])) and not np.any(np.isnan(u[201:]))


@pytest.mark.parametrize("n", [1024, 4096])
def test_the_loss_drift_solve_is_the_sequential_sweep_to_rounding(n):
    # bound fixed before the run: |u - u_seq| <= 32 eps max |r| (measured
    # 0.7 eps max |r|); u_0 = r_0 exactly, since a_0 = 0
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for e in (0.2, 0.5, 0.95, 1.0):
        E = sp.dissipation_rate(e)
        solve = sp._loss_drift(E, n)
        cases = [rng.standard_normal(n), np.exp(-np.linspace(0.0, 40.0, n))]
        for K in (0, 1, 2):
            r = np.zeros(n)
            r[:K] = rng.standard_normal(K)
            cases.append(r)
        for r in cases:
            u = solve(r)
            assert u[0] == r[0], e
            assert np.max(np.abs(u - _full_sweep(r, E))) <= 32.0 * eps * np.max(np.abs(r)), e


def _dilation_profiles():
    # profiles with and without a saturated tail, dilated to m2 = 3 by
    # factors below and above 1
    out = {}
    for n, x_max in ((256, 20.0), (1024, 30.0), (4093, 50.0)):
        g = sp.RadialGrid(n, x_max)
        for theta in (0.005, 0.8, 1.3, 4.0):
            out[f"maxwellian-{theta}-{n}"] = sp.CharacteristicProfile.maxwellian(g, theta)
        out[f"bimaxwellian-{n}"] = sp.CharacteristicProfile.bimaxwellian(g)
        out[f"stepped-{n}"] = sp.step(out[f"bimaxwellian-{n}"], 0.5, sp.SolverConfig())
    return out


def test_an_evaluated_dilation_is_the_full_evaluation_bit_for_bit(monkeypatch):
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    profiles = _dilation_profiles()
    gain, drift = dict(sp._GAIN_CACHE), dict(sp._DRIFT_CACHE)
    tailed = 0
    for name, phi in profiles.items():
        lam = math.sqrt(3.0 / sp.moment(phi, 2))
        g = phi.grid
        full = _full_eval(_filled_plan(np.clip(lam * g.x, 0.0, g.x_max) / g.dx, g.n, g.dx),
                          phi.values)
        with _gathers() as calls:
            dilated = sp.evaluate(phi, lam * g.x)
        assert dilated.tobytes() == full.tobytes(), name  # zero signs included
        ((m, *_),) = calls
        J = sp._node_table(phi.values, phi.grid.dx)[1]
        assert m == phi.grid.n if J == phi.grid.n - 1 else m < phi.grid.n, name
        tailed += m < phi.grid.n
    assert 0 < tailed < len(profiles)
    assert sp._GAIN_CACHE == gain and sp._DRIFT_CACHE == drift


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


def test_evaluate_rejects_positions_a_plan_cannot_index():
    # a NaN or negative column index would read out of bounds in the CSR
    # product, so the plan rejects it before the int32 cast; evaluate checks
    # for NaN before its own cast, as its live mask keeps tail positions
    # from the plan
    g = sp.RadialGrid(256, 20.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    J = sp._node_table(M.values, g.dx)[1]
    assert J < g.n - 1
    tail = np.linspace(J * g.dx, g.x_max + 5.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of NaN warns
        for x in (math.nan, [1.0, math.nan], np.insert(tail, 5, math.nan)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                sp.evaluate(M, x)
    for p in ([math.nan], [3.0, -0.5]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _filled_plan(np.array(p), g.n, g.dx)
    # infinities still clamp to the ends of the grid
    assert sp.evaluate(M, math.inf) == pytest.approx(M.values[-1], abs=1e-12)
    assert sp.evaluate(M, -math.inf) == 1.0


def test_evaluate_of_unsorted_abscissae_past_the_tail_is_the_full_evaluation():
    # the live mask marks the abscissae below the tail start wherever they
    # sit; the others, those past x_max among them, are exactly +0. Empty,
    # 2-D and repeated abscissae give the full evaluation in the shape of x
    rng = np.random.default_rng(3)
    g512 = sp.RadialGrid(512, 20.0)  # x_max/dx rounds to n - 1 here, not on (1024, 30)
    noisy = rng.uniform(-1.0, 1.0, g512.n)
    noisy[0] = 1.0
    for name, (g, v) in {**_tail_profiles(), "random-512": (g512, noisy)}.items():
        phi = sp.CharacteristicProfile(g, v)
        x = np.concatenate([rng.permutation(np.concatenate([
            rng.uniform(0.0, g.x_max, 300), g.x_max + rng.uniform(0.0, 5.0, 20), [g.x_max]])),
            [0.0]])
        full = _full_eval(_filled_plan(np.minimum(x, g.x_max) / g.dx, g.n, g.dx), v)
        with _gathers() as calls:
            got, live = sp._evaluate(phi, x)
        assert got.tobytes() == full.tobytes(), name  # zero signs included
        assert sp.evaluate(phi, x).tobytes() == full.tobytes(), name
        ((m, *_),) = calls
        assert m == np.count_nonzero(live), name
        if sp._node_table(v, g.dx)[1] == g.n - 1:
            assert live.all(), name
        else:  # unsorted: the live abscissae are no prefix of x
            assert not live[:m].all() and live[-1], name
        for y in ([], np.zeros((0, 3)), x[:320].reshape(16, 20), np.tile(x[::7], 3)):
            shape = np.shape(y)
            ref = _full_eval(_filled_plan(np.minimum(y, g.x_max) / g.dx, g.n, g.dx), v)
            got, live = sp._evaluate(phi, y)
            assert got.shape == live.shape == shape, (name, shape)
            assert got.tobytes() == ref.tobytes(), (name, shape)
            assert got[~live].tobytes() == bytes(8 * np.count_nonzero(~live)), (name, shape)
            assert sp.evaluate(phi, y).tobytes() == ref.tobytes(), (name, shape)


def test_evaluate_leaves_the_plan_caches_alone(monkeypatch):
    # each call builds its own plan: the queries change with every call,
    # and caching those plans would evict the gain and drift plans
    monkeypatch.setattr(sp, "_GAIN_CACHE", {})
    monkeypatch.setattr(sp, "_DRIFT_CACHE", {})
    g = sp.RadialGrid(512, 20.0)
    phi = sp.step(sp.CharacteristicProfile.maxwellian(g, 1.0), 0.9, sp.SolverConfig())
    gain, drift = dict(sp._GAIN_CACHE), dict(sp._DRIFT_CACHE)
    assert gain and drift
    for lam in (0.97, 1.0, 1.03):
        sp.evaluate(phi, lam * g.x)
    assert sp._GAIN_CACHE == gain and sp._DRIFT_CACHE == drift


def test_profile_csv_roundtrip(tmp_path):
    g = sp.RadialGrid(512, 25.0)
    B = sp.CharacteristicProfile(g, sp.CharacteristicProfile.bimaxwellian(g).values, 2.5)
    path = tmp_path / "profile.csv"
    sp.save_profile(path, B, e=0.9, frame="rescaled-g")
    first = path.read_text().splitlines()[0]
    assert first == "# maxcool-profile v1 e=0.90000000000000002 t=2.5 frame=rescaled-g"
    body = np.loadtxt(path, delimiter=",", comments="#")
    assert np.array_equal(body[:, 0], g.x)  # 17 digits round-trip
    assert np.array_equal(body[:, 1], B.values)


def test_save_profile_validates_frame(tmp_path):
    g = sp.RadialGrid(256, 10.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    with pytest.raises(ValueError):
        sp.save_profile(tmp_path / "x.csv", M, e=0.9, frame="comoving")

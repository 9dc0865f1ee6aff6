"""Tests for density reconstruction and real-space functionals."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import _filled_plan
from maxcool import realspace as rs
from maxcool import spectral as sp

# high-precision oracle values (adaptive quadrature + 1e6-point Simpson
# cross-check on the closed forms; agreement 9e-16)
I_MIX_ORACLE = 3.143453653619584       # Fisher info of 0.5/0.6/1.4 mixture
L1_PAIR_ORACLE = 0.168312729121393     # L1(Maxwellian 1.0, Maxwellian 1.2)
L2_MAXW_ORACLE = 0.149827868788306     # ||M_1||_2 = (4 pi)^{-3/4}
H_MIX_ORACLE = 0.018876286765113       # H(mixture | M_1)
RATIO_MIX_ORACLE = 0.349590594471935   # sup x phi / sqrt(I) for the mixture
NASH_LHS_ORACLE = 2.890067818451       # ||M_1||_{H^1}, = sqrt(1.5) pi^{3/4}
NASH_RHS_ORACLE = 1.169427716860       # c_{1,1/2} ||M_1||_{H^{3/4}}^{10/9}
L1LEM_MAXW_ORACLE = 1.591743823583     # C(2) (int M^2)^{4/11} 15^{3/11}
L1LEM_MIX_ORACLE = 1.765100880831      # same for the mixture (m4 = 17.4)


@pytest.fixture(scope="module")
def grid():
    return sp.RadialGrid(2048, 40.0)


@pytest.fixture(scope="module")
def r10():
    return rs.default_r_nodes(10.0, 2001)


@pytest.fixture(scope="module")
def maxw(grid, r10):
    phi = sp.CharacteristicProfile.maxwellian(grid, 1.0)
    return phi, rs.reconstruct(phi, r10)


@pytest.fixture(scope="module")
def bimax(grid, r10):
    phi = sp.CharacteristicProfile.bimaxwellian(grid)
    return phi, rs.reconstruct(phi, r10)


# ---------------------------------------------------------------------------
# quadrature

@pytest.mark.parametrize("n", [9, 10, 401, 1600, 1601, 2001, 4097])
def test_simpson_matches_scipy(n):
    from scipy.integrate import simpson as scipy_simpson

    x = np.linspace(0.0, 8.0, n)
    for y in (x * x * np.exp(-x * x / 2.0), 1.0 + np.sin(3.0 * x) ** 2,
              x ** 4 * np.exp(-x) + 1e-3):
        ref = scipy_simpson(y, x=x)
        assert abs(rs.simpson(y, x) - ref) <= 1e-15 * ref


def _simpson_weights_afresh(x):
    # simpson_weights as it was before its weights were kept: the reference
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[0:m - 2:2] += h / 3.0
    w[1:m - 1:2] += 4.0 * h / 3.0
    w[2:m:2] += h / 3.0
    if m < n:
        w[-3:] += h * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


def test_kept_simpson_weights_equal_the_weights_built_afresh(monkeypatch):
    monkeypatch.setattr(rs, "_SIMPSON_CACHE", {})
    # h = 1 on the first two lattices: a float32 spacing of the same value
    # makes other weights, so it must not be served the float64 ones
    lattices = [np.linspace(0.0, 8.0, 9), np.linspace(0.0, 8.0, 9, dtype=np.float32),
                np.linspace(0.0, 8.0, 10), np.linspace(0.0, 30.0, 4097),
                np.linspace(0.0, 0.0, 9), np.linspace(8.0, 0.0, 9)]
    for x in lattices + lattices:  # built, then kept
        ref = _simpson_weights_afresh(x)
        got = rs.simpson_weights(x)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), x
        y = np.cos(x.astype(float))
        assert rs.simpson(y, x) == float(ref @ y)
    # one entry per lattice with a positive spacing
    assert len(rs._SIMPSON_CACHE) == 4


def test_simpson_weights_hand_out_arrays_the_kept_weights_do_not_share(monkeypatch):
    monkeypatch.setattr(rs, "_SIMPSON_CACHE", {})
    x = np.linspace(0.0, 8.0, 1601)
    y = x * x * np.exp(-x * x / 2.0)
    total = rs.simpson(y, x)
    w = rs.simpson_weights(x)
    ref = w.copy()
    w[:] = np.nan  # the caller owns it
    assert rs.simpson(y, x) == total
    assert rs.simpson_weights(x).tobytes() == ref.tobytes()
    (kept,) = rs._SIMPSON_CACHE.values()
    assert not kept.flags.writeable and kept.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 0.0


@pytest.mark.parametrize("n", [9, 10, 1601])
def test_trapezoid_matches_scipy_bit_for_bit(n):
    from scipy.integrate import trapezoid as scipy_trapezoid

    x = np.linspace(0.0, 30.0, n)
    y = x ** 4 * np.exp(-x * x / 3.0)
    assert sp.trapezoid(y, x) == scipy_trapezoid(y, x)


def test_import_does_not_load_scipy_integrate():
    # scipy.sparse costs 0.1-0.2 s to import; interpolation plans load only its
    # compiled CSR kernel, and code that evaluates no profile not even that
    code = """
import sys
import numpy as np
import maxcool
from maxcool import dsmc, harness, kinematics as kin, realspace as rs, spectral as sp
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded())
ens = dsmc.sample_initial("maxwellian", 200, seed=1, e=0.5)
dsmc.run(ens, t_max=0.1, dt=0.05)
dsmc.ecf(ens, [0.0, 1.0, 2.0])
kin.mc_change_of_variables(harness._gaussian_kernel(11), 0.5, samples=1000, seed=1)
harness._stamp({})
print("scipy.sparse" in loaded())
g = sp.RadialGrid(1024, 30.0)
phi = sp.CharacteristicProfile.bimaxwellian(g)
sp.gain_fourier(phi, 0.5)
for frame in ("rescaled-g", "unscaled-f"):
    sp.step(phi, 0.5, sp.SolverConfig(frame=frame))
sp.evaluate(phi, [0.5, 1.5])
rs.reconstruct(phi, np.linspace(0.0, 10.0, 2001))
print(any(m.startswith("scipy.sparse") for m in loaded()))
import scipy.sparse
(drift,) = sp._DRIFT_CACHE.values()
plan = drift.plan
X = sp._node_table(phi.values, g.dx)[0].ravel()
out = np.zeros(plan.filled)
plan.gather(plan.filled, X, out)
M = scipy.sparse.csr_matrix((plan.data.ravel(), plan.indices.ravel(),
                             6 * np.arange(plan.filled + 1)), shape=(plan.filled, 3 * g.n))
print(out.tobytes() == (M @ X).tobytes())
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:4] == ["[]", "False", "False", "True"]


# ---------------------------------------------------------------------------
# types and validation

def test_r_nodes_and_density_validation(r10):
    assert r10[0] == 0.0 and len(r10) == 2001
    for r_max in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="r_max"):
            rs.default_r_nodes(r_max, 100)
    with pytest.raises(ValueError):
        rs.RadialDensity(r10 + 0.1, np.ones_like(r10))  # not starting at 0
    bad_r = r10.copy()
    bad_r[500] += 0.001
    with pytest.raises(ValueError):
        rs.RadialDensity(bad_r, np.ones_like(r10))  # non-uniform
    # truncating a Maxwellian at r_max = 4 loses ~1e-3 mass
    short = rs.default_r_nodes(4.0, 801)
    vals = (2 * math.pi) ** -1.5 * np.exp(-short ** 2 / 2)
    with pytest.raises(ValueError, match="mass"):
        rs.RadialDensity(short, vals)
    with pytest.raises(ValueError):
        rs.RadialDensity.mixture(r10, p=1.5)
    with pytest.raises(ValueError):
        rs.RadialDensity.maxwellian(r10, -1.0)


def test_density_moments(r10):
    M = rs.RadialDensity.maxwellian(r10, 1.0)
    assert M.mass == pytest.approx(1.0, abs=1e-9)
    assert M.m2 == pytest.approx(3.0, abs=1e-9)
    assert M.moment(0.0) == pytest.approx(1.0, abs=1e-9)
    assert M.moment(4.0) == pytest.approx(15.0, abs=1e-6)
    B = rs.RadialDensity.mixture(r10)
    assert B.m2 == pytest.approx(3.0, abs=1e-9)  # 0.5*1.8 + 0.5*4.2
    assert B.moment(4.0) == pytest.approx(17.4, abs=1e-6)
    with pytest.raises(ValueError):
        M.moment(-1.0)


def test_density_clips_tiny_negative_lobes(r10):
    vals = (2 * math.pi) ** -1.5 * np.exp(-r10 ** 2 / 2)
    vals[1500:1510] = -1e-12
    f = rs.RadialDensity(r10, vals)
    assert np.all(f.values >= 0.0)
    assert 0.0 < f.clipped_mass < 1e-6
    # a fat negative lobe blows the budget
    vals[1000:1100] -= 1e-3
    with pytest.raises(ValueError, match="clipped"):
        rs.RadialDensity(r10, vals)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_gaussian(maxw, r10):
    phi, f = maxw
    exact = (2 * math.pi) ** -1.5 * np.exp(-r10 ** 2 / 2)
    assert np.max(np.abs(f.values - exact)) < 1e-10
    assert f.mass == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_mixture(bimax, r10):
    phi, f = bimax
    exact = rs.RadialDensity.mixture(r10).values
    assert np.max(np.abs(f.values - exact)) < 1e-10


def test_reconstruct_moment_consistency(bimax):
    phi, f = bimax
    assert f.m2 / sp.moment(phi, 2) == pytest.approx(1.0, abs=1e-4)


def test_reconstruct_refuses_undecayed_tail(r10):
    phi = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(256, 3.0))
    with pytest.raises(ValueError, match="required x_max"):
        rs.reconstruct(phi, r10)


def _sine_sum_reference(a, x, r):
    # the dense m x R kernel that the angle-addition form replaces
    return np.sin(np.outer(x, r)).T @ a


def _whole_sine_tables(x, R, dr):
    # the tables of a lattice built whole, as before they were filled row by row
    B = math.isqrt(R - 1) + 1
    P = -(-R // B)
    coarse = np.multiply.outer(x, (B * dr) * np.arange(P))
    fine = np.multiply.outer(x, dr * np.arange(B))
    return np.sin(coarse), np.cos(coarse), np.cos(fine), np.sin(fine)


def _angle_addition(a, tables, R):
    # the R sine sums of the coefficients a over the first len(a) rows of tables
    sin_c, cos_c, cos_f, sin_f = (t[:len(a)] for t in tables)
    out = (a[:, None] * sin_c).T @ cos_f
    out += (a[:, None] * cos_c).T @ sin_f
    return out.ravel()[:R]


@pytest.mark.parametrize("R", [9, 10, 1601])  # B = 3 with P = 3; B = 4 with P = 3; B = 41
@pytest.mark.parametrize("m", [256, 257])
def test_sine_transform_matches_dense_kernel(R, m):
    # a lattice's sums of random values without a tail, so every abscissa
    # is live, against the dense kernel over the same Simpson coefficients
    grid = sp.RadialGrid(1024, 50.0)
    v = np.random.default_rng(R * m).uniform(-1.0, 1.0, grid.n)
    v[0] = 1.0
    r = np.linspace(0.0, 8.0, R)
    lattice = rs._Lattice(grid, m, R, float(r[1]))
    origin, got = lattice.sums(v)  # cold: fills the plan and the tables
    assert lattice.filled == lattice.plan.plan.filled == m and got.shape == (R,)
    xq = lattice.xq
    assert xq.tobytes() == np.linspace(0.0, 50.0, m).tobytes()
    assert lattice.weights.tobytes() == rs.simpson_weights(xq).tobytes()
    wq = lattice.weights * _full_evaluate(sp.CharacteristicProfile(grid, v), xq)
    a = wq * xq
    assert origin == float(wq @ (xq * xq))
    assert np.max(np.abs(got - _sine_sum_reference(a, xq, r))) <= 1e-14 * np.sum(np.abs(a))
    warm = lattice.sums(v)
    assert warm[0] == origin and np.array_equal(warm[1], got)


def _tailed_values(grid, K, rng):
    # random values on the first K nodes and exactly 0 from there on, so the
    # live prefix of the Simpson abscissae ends near node K
    v = np.zeros(grid.n)
    v[:K] = rng.uniform(-1.0, 1.0, K)
    v[0] = 1.0
    return v


@pytest.mark.parametrize("R", [9, 10, 1601])
def test_sine_tables_filled_row_by_row_are_the_whole_build_bit_for_bit(R):
    # live prefixes rising, then falling: each call's rows and sums are those
    # of the whole build, and a narrower call writes no row (the reserves are
    # made read-only once the widest prefix is filled)
    grid = sp.RadialGrid(4096, 50.0)
    r = np.linspace(0.0, 8.0, R)
    lattice = rs._Lattice(grid, 4097, R, float(r[1]))
    x = lattice.xq
    whole = _whole_sine_tables(x, R, float(r[1]))
    rng = np.random.default_rng(R)
    widest, prefixes = 0, []
    for K in (1, 300, 909, 2000, 4096, 2000, 909, 300, 1):
        v = _tailed_values(grid, K, rng)
        M = int(np.searchsorted(lattice.plan.cells, sp._node_table(v, grid.dx)[1]))
        if M < widest:
            for t in lattice.tables:
                t.flags.writeable = False
        origin, got = lattice.sums(v)
        widest = max(widest, M)
        prefixes.append(M)
        assert lattice.filled == lattice.plan.plan.filled == widest
        for t, w in zip(lattice.tables, whole):
            assert t.shape == w.shape and t[:widest].tobytes() == w[:widest].tobytes()
        wq = lattice.weights[:M] * _full_evaluate(sp.CharacteristicProfile(grid, v), x[:M])
        assert origin == float(wq @ (x[:M] * x[:M]))
        assert got.tobytes() == _angle_addition(wq * x[:M], whole, R).tobytes()
    assert prefixes[4] == 4097 and prefixes[0] < prefixes[1] < prefixes[2] < prefixes[3] < 4097
    assert prefixes[::-1] == prefixes


def test_sine_tables_are_cached_per_lattice(monkeypatch):
    def cold(phi, r):
        monkeypatch.setattr(rs, "_LATTICE_CACHE", {})
        return rs.reconstruct(phi, r).values

    cases = []  # four (profile grid, r nodes) lattices, called interleaved
    for n, x_max in ((4096, 50.0), (1024, 30.0)):
        phi = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(n, x_max))
        for r_max, R in ((8.0, 1601), (10.0, 2001)):
            r = rs.default_r_nodes(r_max, R)
            cases.append((phi, r, cold(phi, r)))
    cache = {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", cache)
    for _ in range(2):
        for phi, r, f_vals in cases:
            assert np.array_equal(rs.reconstruct(phi, r).values, f_vals)
    assert len(cache) == 4

    # nodes whose step is one ulp wider are within 4 ulp of j dr, and another
    # lattice: their own tables, warm as cold
    phi, r, _ = cases[3]
    nudged = np.nextafter(r[1], 1.0) * np.arange(len(r))
    jit_cold = cold(phi, nudged)
    cache = {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", cache)
    rs.reconstruct(phi, r)
    assert np.array_equal(rs.reconstruct(phi, nudged).values, jit_cold)
    assert len(cache) == 2

    # one step with other node counts: B = 40, then B = 41, beside B = 45
    for R in (1600, 1601):
        rs.reconstruct(phi, 0.005 * np.arange(R))
    assert [len(lattice.fine) for lattice in cache.values()] == [45, 45, 40, 41]

    # the cache holds at most _CACHE_CAP lattices
    for k in range(sp._CACHE_CAP + 3):
        rs.reconstruct(phi, rs.default_r_nodes(8.0, 1603 + 2 * k))
        assert len(cache) <= sp._CACHE_CAP
    assert len(cache) == sp._CACHE_CAP


def test_reconstruct_refuses_r_nodes_off_the_lattice(bimax, r10):
    phi, _ = bimax
    for r_max, n in ((8.0, 1601), (10.0, 2001), (8.0, 801), (10.0, 1201)):
        r = rs.default_r_nodes(r_max, n)
        assert np.array_equal(r, r[1] * np.arange(n))
    jittered = r10 + 1e-10 * np.random.default_rng(5).uniform(-1.0, 1.0, len(r10))
    jittered[0] = 0.0
    rs.RadialDensity.maxwellian(jittered)  # uniform within the density's tolerance
    with pytest.raises(ValueError, match="j\\*dr"):
        rs.reconstruct(phi, jittered)


def test_reconstruct_peak_memory():
    # the dense m x R sine kernel and its products peaked at 131 MB
    phi = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(4096, 50.0))
    r = rs.default_r_nodes()
    tracemalloc.start()
    try:
        rs.reconstruct(phi, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def _full_evaluate(phi, x):
    # phi at every abscissa x, each one gathered, the tail included: the
    # full evaluation that the tail skip of sp.evaluate must reproduce
    g = phi.grid
    plan = _filled_plan(np.clip(x, 0.0, g.x_max) / g.dx, g.n, g.dx)
    out = np.zeros(plan.filled)
    plan.gather(plan.filled, sp._node_table(phi.values, g.dx)[0].ravel(), out)
    out += 1.0
    return out.reshape(np.shape(x))


def _dense_inversion(phi, r):
    # reconstruct's Simpson sum over all m abscissae, tail included, by the
    # dense m x R sine kernel in blocks of 256 output nodes: the abscissae,
    # the sine-sum coefficients a, and f before clipping
    x_max = phi.grid.x_max
    m = max(phi.grid.n, int(math.ceil(20.0 * x_max * r[-1] / (2.0 * math.pi))) + 1)
    m += 1 - m % 2
    xq = np.linspace(0.0, x_max, m)
    wq = rs.simpson_weights(xq) * _full_evaluate(phi, xq)
    a = wq * xq
    sums = np.concatenate([_sine_sum_reference(a, xq, r[k:k + 256])
                           for k in range(0, len(r), 256)])
    f = np.empty_like(r)
    f[0] = float(wq @ (xq * xq)) / (2.0 * math.pi ** 2)
    f[1:] = sums[1:] / (2.0 * math.pi ** 2 * r[1:])
    return xq, a, f


def _reconstruct_counted(phi, r, monkeypatch):
    # reconstruct(phi, r), or the error it raises, and the abscissae it
    # evaluated: each gather of a kept lattice's plan is checked against the
    # live values of one uncached `_evaluate` call, bit for bit
    seen = []
    values = sp._PrefixPlan.values

    def spy(plan, v):
        out, M = values(plan, v)
        kept = [lattice.xq for lattice in rs._LATTICE_CACHE.values() if lattice.plan is plan]
        if kept:  # not the plan of `_evaluate` itself
            (xq,) = kept
            ref, live = sp._evaluate(phi, xq)
            assert out[:M].tobytes() == ref[live].tobytes()
            assert np.array_equal(live, np.arange(len(xq)) < M)
            seen.append(xq[:M])
        return out, M

    with monkeypatch.context() as patch:
        patch.setattr(sp._PrefixPlan, "values", spy)
        try:
            return rs.reconstruct(phi, r), seen
        except ValueError as exc:
            return exc, seen


def test_a_reconstruct_builds_one_node_table(monkeypatch):
    # the tail start and the gathered values come from one table
    tables = []
    node_table = sp._node_table
    monkeypatch.setattr(sp, "_node_table", lambda v, h: tables.append(h) or node_table(v, h))
    for grid in (sp.RadialGrid(4096, 50.0), sp.RadialGrid(1024, 8.0)):  # tail, and none
        tables.clear()
        rs.reconstruct(sp.CharacteristicProfile.maxwellian(grid), rs.default_r_nodes())
        assert len(tables) == 1, grid


@pytest.mark.parametrize("case", ["bimaxwellian-4096", "maxwellian-2048", "narrow-1024"])
def test_reconstruct_of_a_tailed_profile_is_the_dense_simpson_sum(case, monkeypatch):
    # bound stated before measuring: each sine sum r_j f_j 2 pi^2 within
    # 1e-14 sum|a| of the dense kernel's (the rounding scale of the sum, as
    # in test_sine_transform_matches_dense_kernel), f(0) within 1e-14 relative
    grid, theta, r = {
        "bimaxwellian-4096": (sp.RadialGrid(4096, 50.0), None, rs.default_r_nodes()),
        "maxwellian-2048": (sp.RadialGrid(2048, 40.0), 1.0, rs.default_r_nodes(10.0, 2001)),
        "narrow-1024": (sp.RadialGrid(1024, 30.0), 0.25, rs.default_r_nodes(5.0, 1001)),
    }[case]
    phi = (sp.CharacteristicProfile.bimaxwellian(grid) if theta is None
           else sp.CharacteristicProfile.maxwellian(grid, theta))
    xq, a, dense = _dense_inversion(phi, r)
    f, (evaluated,) = _reconstruct_counted(phi, r, monkeypatch)
    M = len(evaluated)
    assert M < len(xq) and np.array_equal(evaluated, xq[:M])  # stops before x_max
    assert np.all(_full_evaluate(phi, xq[M:]) == 0.0)
    dense = np.maximum(dense, 0.0)  # clipped as the density clips
    assert abs(f.values[0] - dense[0]) <= 1e-14 * dense[0]
    scale = 1e-14 * np.sum(np.abs(a)) / (2.0 * math.pi ** 2)
    assert np.max(np.abs(r[1:] * (f.values[1:] - dense[1:]))) <= scale


def test_reconstruct_of_a_profile_saturated_from_3dx_sums_a_few_abscissae(monkeypatch):
    # phi is exactly 0 from node 3 on; its density spreads far beyond
    # r = 10, so reconstruct reaches the mass check and fails it exactly as
    # the dense sum does, after summing a handful of abscissae
    cache = {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", cache)
    grid = sp.RadialGrid(1024, 30.0)
    v = np.zeros(grid.n)
    v[:3] = (1.0, 0.9, 0.7)
    phi = sp.CharacteristicProfile(grid, v)
    r = rs.default_r_nodes(10.0, 2001)
    xq, a, dense = _dense_inversion(phi, r)
    error, (evaluated,) = _reconstruct_counted(phi, r, monkeypatch)
    M = len(evaluated)
    assert 1 <= M <= 8 and np.all(_full_evaluate(phi, xq[M:]) == 0.0)
    (lattice,) = cache.values()
    got = lattice.sums(phi.values)[1]
    assert np.max(np.abs(got - dense * 2.0 * math.pi ** 2 * r)) <= 1e-14 * np.sum(np.abs(a))
    with pytest.raises(ValueError) as dense_error:
        rs.RadialDensity(r, dense)
    assert "mass" in str(error) and str(error) == str(dense_error.value)


def test_reconstruct_of_a_tailless_profile_is_the_untruncated_sum_bit_for_bit(monkeypatch):
    # at x_max = 8 the Maxwellian ends at 1e-14, not at exact 0: no tail
    grid = sp.RadialGrid(1024, 8.0)
    phi = sp.CharacteristicProfile.maxwellian(grid)
    assert sp._node_table(phi.values, grid.dx)[1] == grid.n - 1
    r = rs.default_r_nodes(10.0, 2001)
    xq = np.linspace(0.0, grid.x_max, 1025)
    wq = rs.simpson_weights(xq) * _full_evaluate(phi, xq)
    sums = _angle_addition(wq * xq, _whole_sine_tables(xq, len(r), float(r[1])), len(r))
    f = np.empty_like(r)
    f[0] = float(wq @ (xq * xq)) / (2.0 * math.pi ** 2)
    f[1:] = sums[1:] / (2.0 * math.pi ** 2 * r[1:])
    got, (evaluated,) = _reconstruct_counted(phi, r, monkeypatch)
    assert np.array_equal(evaluated, xq)
    assert np.array_equal(got.values, rs.RadialDensity(r, f).values)


def test_reconstructs_that_stop_at_different_tails_share_one_lattice(monkeypatch):
    # the sums read row views of the lattice's tables: no new cache key, and
    # warm calls are cold calls bit for bit
    grid, r = sp.RadialGrid(4096, 50.0), rs.default_r_nodes()
    profiles = [sp.CharacteristicProfile.bimaxwellian(grid),
                sp.CharacteristicProfile.maxwellian(grid, 0.5),
                sp.CharacteristicProfile.maxwellian(grid, 2.0)]
    cold, counts = [], set()
    for phi in profiles:
        monkeypatch.setattr(rs, "_LATTICE_CACHE", {})
        f, (evaluated,) = _reconstruct_counted(phi, r, monkeypatch)
        cold.append(f.values)
        counts.add(len(evaluated))
    assert len(counts) == 3
    cache = {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", cache)
    for _ in range(2):
        for phi, values in zip(profiles, cold):
            assert np.array_equal(rs.reconstruct(phi, r).values, values)
    (lattice,) = cache.values()
    assert all(t.shape[0] == 4097 for t in lattice.tables)
    assert lattice.filled == max(counts)  # rows only as far as the widest prefix


_RESIDENT_CODE = """
import json, mmap
import numpy as np
from maxcool import realspace as rs, spectral as sp

grid = sp.RadialGrid(4096, 50.0)
phi = sp.CharacteristicProfile.bimaxwellian(grid)
gain = sp._GainPlan(grid, 0.95, 64)
gain.apply(phi.values)
sp.step(phi, 0.95, sp.SolverConfig(frame="rescaled-g"))
rs.reconstruct(phi, rs.default_r_nodes())
(drift,) = sp._DRIFT_CACHE.values()
(lattice,) = rs._LATTICE_CACHE.values()
plans = [gain.plan, drift.plan, lattice.plan.plan] + [p.plan for p in sp._GAIN_CACHE.values()]
arrays = [(p.data, 48 * p.filled) for p in plans]
arrays += [(p.indices, 24 * p.filled) for p in plans]
arrays += [(t, 8 * t.shape[1] * lattice.filled) for t in lattice.tables]
vmas = {}
with open("/proc/self/smaps") as fh:
    for line in fh:
        head = line.split()
        if "-" in head[0] and not head[0].endswith(":"):
            vma = vmas[tuple(int(v, 16) for v in head[0].split("-"))] = {}
        elif head[0] in ("Rss:", "AnonHugePages:"):
            vma[head[0]] = 1024 * int(head[1])
page = mmap.PAGESIZE
held, resident, bound, filled = set(), 0, 0, 0
with open("/proc/self/pagemap", "rb") as pagemap:
    for a, f in arrays:
        at = a.__array_interface__["data"][0]
        held |= {key for key in vmas if key[0] < at + a.nbytes and at < key[1]}
        first, stop = at // page, -(-(at + a.nbytes) // page)
        pagemap.seek(8 * first)
        entries = np.frombuffer(pagemap.read(8 * (stop - first)), dtype="<u8")
        resident += page * int(np.count_nonzero(entries >> np.uint64(63)))
        bound += -(-f // page) * page + page
        filled += f
print(json.dumps({"vmas": [vmas[key] for key in held], "resident": resident,
                  "bound": bound, "filled": filled}))
"""


def test_kept_plans_and_sine_tables_are_resident_only_as_far_as_filled():
    # a (4096, 50) q = 64 gain plan applied to the bimaxwellian, the gain
    # and drift plans of one rescaled step, and the plan and sine tables of
    # one reconstruct's lattice, in a fresh process: the memory mappings that
    # hold their arrays have no huge page, and the arrays' resident bytes are
    # at most the filled ones, rounded up to pages, plus one page per array.
    # The kernel merges adjacent anonymous mappings, so a mapping's Rss may
    # count an unlisted neighbour: each array's own pages are read from the
    # present bit (63) of /proc/self/pagemap instead
    if not all(os.path.exists(f"/proc/self/{name}") for name in ("smaps", "pagemap")):
        pytest.skip("needs /proc/self/smaps and /proc/self/pagemap")
    out = json.loads(subprocess.run([sys.executable, "-c", _RESIDENT_CODE],
                                    capture_output=True, text=True, check=True).stdout)
    assert out["filled"] > 4 * 2 ** 20
    assert all(vma["AnonHugePages:"] == 0 for vma in out["vmas"]), out
    assert out["resident"] <= out["bound"], out


def test_reconstruct_keeps_one_plan_per_lattice_filled_once(monkeypatch):
    # three profiles whose tails stop at different abscissae, in turn: one
    # kept plan of the lattice, filled once per query and never past the
    # widest prefix, a second round computes no query's weights, and the
    # values are those of the uncached `_evaluate` path bit for bit
    cache = {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", cache)
    grid, r = sp.RadialGrid(4096, 50.0), rs.default_r_nodes()
    profiles = [sp.CharacteristicProfile.maxwellian(grid, 2.0),
                sp.CharacteristicProfile.bimaxwellian(grid),
                sp.CharacteristicProfile.maxwellian(grid, 0.5)]
    rows = []
    inner = sp._hermite_weights

    def counted(t, W):
        rows.append(len(t))
        inner(t, W)

    with monkeypatch.context() as patch:
        patch.setattr(sp, "_hermite_weights", counted)
        kept = [rs.reconstruct(phi, r).values for phi in profiles]
        (lattice,) = cache.values()
        plan = lattice.plan
        assert sum(rows) == plan.plan.filled < len(plan.positions)
        rows.clear()
        for phi, ref in zip(profiles, kept):
            assert rs.reconstruct(phi, r).values.tobytes() == ref.tobytes()
        assert rows == [] and len(cache) == 1
    for phi, ref in zip(profiles, kept):
        f, _ = _reconstruct_counted(phi, r, monkeypatch)
        assert f.values.tobytes() == ref.tobytes()


def test_a_reconstruct_keeps_one_lattice_filled_to_the_widest_prefix(monkeypatch):
    # one lattice cache entry, whose plan and tables are both filled to the
    # widest live prefix; the only Simpson weights kept are the r nodes'
    lattices, weights = {}, {}
    monkeypatch.setattr(rs, "_LATTICE_CACHE", lattices)
    monkeypatch.setattr(rs, "_SIMPSON_CACHE", weights)
    grid, r = sp.RadialGrid(4096, 50.0), rs.default_r_nodes()
    widest = 0
    for theta in (1.0, 2.0, 0.5, 1.0):
        f, (evaluated,) = _reconstruct_counted(
            sp.CharacteristicProfile.maxwellian(grid, theta), r, monkeypatch)
        widest = max(widest, len(evaluated))
        (lattice,) = lattices.values()
        assert lattice.filled == lattice.plan.plan.filled == widest < len(lattice.xq)
        assert [len(w) for w in weights.values()] == [len(r)]


def test_evaluate_and_reconstruct_reject_nan_abscissae(bimax, r10):
    phi, _ = bimax
    for x in (math.nan, [0.5, math.nan], [30.0, math.nan]):  # past the tail too
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sp.evaluate(phi, x)
    for k in (5, len(r10) - 1):
        r = r10.copy()
        r[k] = math.nan
        with pytest.raises(ValueError, match="finite"):
            rs.reconstruct(phi, r)


# ---------------------------------------------------------------------------
# Fisher information

def test_fisher_maxwellian(r10):
    # I(Maxwellian theta) = 3/theta; centered differences are exact on
    # quadratic log-densities, so only quadrature error remains
    I1 = rs.fisher_information(rs.RadialDensity.maxwellian(r10, 1.0))
    assert I1 == pytest.approx(3.0, abs=1e-9)
    I2 = rs.fisher_information(rs.RadialDensity.maxwellian(rs.default_r_nodes(), 2.0))
    assert I2 == pytest.approx(1.5, abs=2e-5)  # r_max=8 truncates the integrand


def test_fisher_mixture_regression(r10):
    I = rs.fisher_information(rs.RadialDensity.mixture(r10))
    assert I == pytest.approx(I_MIX_ORACLE, abs=1e-5)


def test_fisher_dilation_covariance(r10):
    # sampling f^(lam)(v) = lam^3 f(lam v) on nodes r/lam makes the discrete
    # problem identical up to powers of lam: covariance is exact
    f = rs.RadialDensity.mixture(r10)
    I = rs.fisher_information(f)
    for lam in (0.5, 2.0):
        fl = rs.RadialDensity(f.r / lam, lam ** 3 * f.values)
        assert rs.fisher_information(fl) / (lam ** 2 * I) == pytest.approx(
            1.0, abs=1e-12)


def test_fisher_support_truncation_warns(r10):
    f = rs.RadialDensity.maxwellian(r10, 1.0)
    f.values[400] = 1e-20  # interior dip below the support floor
    with pytest.warns(UserWarning, match="truncation"):
        I = rs.fisher_information(f)
    assert 0.0 < I < 3.0  # integral over the prefix [0, r_400) only


def test_fisher_gain_bound(bimax):
    phi, _ = bimax
    for e in (0.8, 0.9, 0.99):
        rep = rs.fisher_gain_check(phi, e)
        assert rep["holds"], rep
        assert rep["ratio"] < rep["bound_factor"]
    # factor sanity: 1 + (1-e)(2+e+15e^2)/(8 e^3)
    rep = rs.fisher_gain_check(phi, 0.8)
    assert rep["bound_factor"] == pytest.approx(
        1.0 + 0.2 * (2 + 0.8 + 15 * 0.64) / (8 * 0.512), abs=1e-14)


def test_fisher_gain_check_reuses_density(bimax):
    # a density the caller already reconstructed gives the same report
    phi, _ = bimax
    r = rs.default_r_nodes(8.0, 801)
    f = rs.reconstruct(phi, r)
    for e in (0.8, 0.99):
        assert rs.fisher_gain_check(phi, e, f=f) == rs.fisher_gain_check(phi, e, r_nodes=r)
    with pytest.raises(ValueError):
        rs.fisher_gain_check(phi, 0.9, r_nodes=r[:-1], f=f)


def test_fisher_trajectory_elastic():
    g = sp.RadialGrid(1024, 30.0)
    M = sp.CharacteristicProfile.maxwellian(g, 1.0)
    cfg = sp.SolverConfig(dt=0.01, t_max=2.0, frame="rescaled-g")
    rep = rs.fisher_trajectory_check(M, 1.0, cfg, n_checks=5)
    assert rep["exponent"] == 0.0
    assert rep["holds"]
    assert max(rep["fisher"]) - min(rep["fisher"]) < 1e-9


def test_fisher_trajectory_inelastic():
    g = sp.RadialGrid(1024, 30.0)
    B = sp.CharacteristicProfile.bimaxwellian(g)
    cfg = sp.SolverConfig(dt=0.01, t_max=3.0, frame="rescaled-g")
    rep = rs.fisher_trajectory_check(B, 0.9, cfg, n_checks=4)
    assert rep["holds"]
    assert rep["nonincreasing_after_transient"]
    assert rep["exponent"] > 0
    with pytest.raises(ValueError):
        rs.fisher_trajectory_check(B, 0.9, sp.SolverConfig(frame="unscaled-f"))


# ---------------------------------------------------------------------------
# distances and entropy

def test_l1_l2_distances(maxw, r10):
    phi, fM = maxw
    assert rs.l1_distance(fM, fM) == 0.0
    f1 = rs.RadialDensity.maxwellian(r10, 1.0)
    f12 = rs.RadialDensity.maxwellian(r10, 1.2)
    assert rs.l1_distance(f1, f12) == pytest.approx(L1_PAIR_ORACLE, abs=2e-6)
    assert rs.l2_norm(f1) == pytest.approx(L2_MAXW_ORACLE, abs=1e-12)
    # Parseval tie to the Fourier-side norm
    assert rs.l2_norm(fM) == pytest.approx(
        (2 * math.pi) ** -1.5 * sp.sobolev_norm(phi, 0.0), rel=1e-5)
    other = rs.RadialDensity.maxwellian(rs.default_r_nodes(8.0, 1601), 1.0)
    with pytest.raises(ValueError):
        rs.l1_distance(f1, other)


def test_entropy_chain(r10):
    f = rs.RadialDensity.mixture(r10)
    rep = rs.entropy_route_check(f, 1.0)
    assert rep["chain_holds"]
    assert rep["entropy"] == pytest.approx(H_MIX_ORACLE, abs=1e-9)
    assert rep["csiszar_lhs"] <= rep["entropy"] <= rep["fisher_gap"]
    assert rep["ck_ratio"] == pytest.approx(1.8035, abs=1e-3)
    # identical densities: all three quantities vanish
    M = rs.RadialDensity.maxwellian(r10, 1.0)
    rep0 = rs.entropy_route_check(M, 1.0)
    assert rep0["chain_holds"]
    assert abs(rep0["entropy"]) < 1e-12 and rep0["l1"] < 1e-9


def test_entropy_validation(bimax, maxw):
    _, fB = bimax
    _, fM = maxw
    with pytest.raises(ValueError, match="theta"):
        rs.entropy_route_check(fB, 2.5)
    with pytest.raises(ValueError, match="match"):
        rs.entropy_route_check(fM, 1.5)
    assert rs.relative_entropy(fM, fM) == 0.0


def test_fourier_sup_vs_fisher(maxw, bimax, grid, r10):
    phi, fM = maxw
    ratio = rs.fourier_sup_vs_fisher(phi, fM)
    assert ratio == pytest.approx(math.exp(-0.5) / math.sqrt(3.0), abs=1e-4)
    # scale invariance: any Maxwellian temperature gives the same ratio
    phi2 = sp.CharacteristicProfile.maxwellian(grid, 2.0)
    f2 = rs.RadialDensity.maxwellian(r10, 2.0)
    assert rs.fourier_sup_vs_fisher(phi2, f2) == pytest.approx(ratio, abs=1e-5)
    phiB, fB = bimax
    ratioB = rs.fourier_sup_vs_fisher(phiB, fB)
    assert ratioB == pytest.approx(RATIO_MIX_ORACLE, abs=1e-4)
    assert ratioB <= 0.5  # empirical suite bound
    with pytest.warns(UserWarning, match="temperatures"):
        rs.fourier_sup_vs_fisher(phi2, fM)


# ---------------------------------------------------------------------------
# inequality suite

def test_inequality_suite_defaults(maxw):
    phi, fM = maxw
    rep = rs.inequality_suite(phi, fM)
    assert rep["all_hold"] and rep["n_checks"] == 27
    assert min(c["slack"] for c in rep["checks"]) > 0.0
    by = {(c["family"], tuple(sorted(c["params"].items()))): c for c in rep["checks"]}
    nash = by[("nash", (("delta", 0.5), ("r", 1.0)))]
    assert nash["lhs"] == pytest.approx(NASH_LHS_ORACLE, abs=1e-8)
    assert nash["rhs"] == pytest.approx(NASH_RHS_ORACLE, abs=1e-8)
    interp = by[("interpolation", (("beta1", 1.0), ("beta2", 0.5), ("s", 0.0)))]
    assert interp["r1"] == 2.0 and interp["r2"] == 4.0
    assert interp["constant"] == pytest.approx((16 * math.pi / 3) ** 0.5, abs=1e-12)
    assert interp["lhs"] == pytest.approx(0.388872060, abs=1e-6)
    l1c = by[("l1", (("p", 2.0),))]
    assert l1c["rhs"] == pytest.approx(L1LEM_MAXW_ORACLE, abs=1e-6)


def test_inequality_suite_mixture(bimax):
    phi, fB = bimax
    rep = rs.inequality_suite(phi, fB)
    assert rep["all_hold"]
    l1c = [c for c in rep["checks"] if c["family"] == "l1" and c["params"]["p"] == 2.0][0]
    assert l1c["rhs"] == pytest.approx(L1LEM_MIX_ORACLE, abs=1e-6)


def test_inequality_suite_failure_dumps_terms(maxw, monkeypatch):
    phi, fM = maxw
    monkeypatch.setattr(rs, "nash_constant", lambda r, d: 1e6)
    with pytest.raises(AssertionError, match="nash"):
        rs.inequality_suite(phi, fM)


def test_rate_bookkeeping():
    rep = rs.l1_decay_rate(1.0, 1.0, beta2=0.5)
    assert rep["gamma"] == pytest.approx(2.0 / 15.0, abs=1e-14)
    assert rep["gamma_tilde"] == pytest.approx(1.0 / 15.0, abs=1e-14)
    assert rep["l1_rate"] == pytest.approx(8.0 / 165.0, abs=1e-14)
    with pytest.raises(ValueError):
        rs.l1_decay_rate(1.0, 1.0, beta2=1.0)
    with pytest.raises(ValueError):
        rs.nash_constant(0.1, 0.5)
    with pytest.raises(ValueError):
        rs.interpolation_constants(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        rs.l1_lemma_constant(0.0)


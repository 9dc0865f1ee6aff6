"""Spectral solver for the isotropic characteristic profile.

The model is evolved in Fourier space, where the isotropic distribution is a
scalar radial profile phi(x) = fhat(|eta|) with the convention
fhat(eta) = integral exp(-i eta.v) f(v) dv. The gain operator collapses to a
1-D quadrature,

    (Q+ phi)(x) = (1/2) integral_{-1}^{1} phi(a-(s) x) phi(a+(s) x) ds,

with a-(s) = ((1+e)/4) sqrt(2(1-s)) and
a+(s) = sqrt(((3-e)/4)^2 + ((1+e)/4)^2 + s (3-e)(1+e)/8); both scales lie in
[0, 1], so the quadrature never queries beyond the grid. The unscaled frame
integrates d phi/dt = Q+ phi - phi with classical RK4; the rescaled frame
adds the drift generator E x d phi/dx by Strang splitting, the drift
half-steps applied as exact resampling phi(x) <- phi(x exp(E dt/2)).

Profiles live on a uniform radial grid. Gain quadrature queries and drift
resampling both evaluate the profile off the grid by quintic Hermite
interpolation with sixth-order 7-point slopes and fourth-order 5-point
curvatures. That evaluation is linear in the profile and factors into two
maps: a fixed stencil map from the deviation phi - 1 to a per-interval table
of values, slopes and curvatures, then a block-sparse gather matrix built once
per set of query positions (`_InterpPlan`). A one-off `evaluate` applies the
same weights to the gathered node data without building a plan. The table of
phi = 1 is exactly zero and the gain is evaluated in deviation form, so the
constant profile phi = 1 is a fixed point of the gain and of the drift
resample bit for bit.

The stationary rescaled profile (`steady_profile`) is the fixed point of one
rescaled step followed by a gauge pin, the dilation that sets m2 = 3, found
by Anderson mixing of the step's residual preconditioned by the inverse of the
loss and drift, from a unit Maxwellian. The pin removes the neutral dilation
mode of the rescaled flow, so m2 does not drift. The solve stops once the
one-step d2 residual bounds the d2 of a 5-time-unit march below the
tolerance, after a few dozen steps for e in [0.2, 1).
"""

from __future__ import annotations

import logging
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.sparse import bsr_matrix

from .kinematics import _check_e, dissipation_rate

__all__ = [
    "QUAD_ORDER",
    "RadialGrid",
    "CharacteristicProfile",
    "SolverConfig",
    "EvolutionTrace",
    "gain_fourier",
    "gain_scales",
    "step",
    "evolve",
    "steady_profile",
    "steady_residual",
    "envelope_report",
    "d2_distance",
    "moment",
    "sobolev_norm",
    "sup_weighted",
    "gamma_constants",
    "evaluate",
    "save_profile",
    "load_profile",
]

logger = logging.getLogger(__name__)

# Gauss-Legendre order of the gain's s-quadrature. The s-integrand is analytic
# (a-^2 and a+^2 are linear in s), so 32 nodes sit at round-off: one apply to
# the (4096, 50) bimaxwellian is within 5.1e-15 of 256 nodes for e in [0.2, 0.99].
QUAD_ORDER = 32

DEFAULT_N = 4096
DEFAULT_XMAX = 50.0


class RadialGrid:
    """Uniform radial grid x_i = i * x_max/(n-1), i = 0..n-1, with n >= 256."""

    __slots__ = ("n", "x_max", "x", "dx")

    def __init__(self, n: int = DEFAULT_N, x_max: float = DEFAULT_XMAX) -> None:
        n = int(n)
        x_max = float(x_max)
        if n < 256:
            raise ValueError(f"grid needs at least 256 nodes, got {n}")
        if not (x_max > 0.0 and math.isfinite(x_max)):
            raise ValueError(f"x_max must be positive and finite, got {x_max}")
        self.n = n
        self.x_max = x_max
        self.x = np.linspace(0.0, x_max, n)
        self.dx = x_max / (n - 1)

    def matches(self, other: "RadialGrid") -> bool:
        return self.n == other.n and abs(self.x_max - other.x_max) <= 1e-12 * self.x_max

    def __repr__(self) -> str:
        return f"RadialGrid(n={self.n}, x_max={self.x_max})"


class CharacteristicProfile:
    """Radial characteristic profile phi on a grid at a given time.

    phi(0) = 1 (unit mass) and |phi| <= 1 + 1e-9 are enforced; values must be
    real and finite. `meta` is free-form storage for solver reports.
    """

    __slots__ = ("grid", "values", "time", "meta")

    def __init__(self, grid: RadialGrid, values, time: float = 0.0,
                 meta: dict | None = None) -> None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError(f"values shape {vals.shape} does not match grid n={grid.n}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValueError(f"phi(0) must be 1, got {vals[0]!r}")
        peak = float(np.max(np.abs(vals)))
        if peak > 1.0 + 1e-9:
            raise ValueError(f"|phi| must not exceed 1 + 1e-9, got max {peak}")
        self.grid = grid
        self.values = vals
        self.time = float(time)
        self.meta = {} if meta is None else meta

    @classmethod
    def maxwellian(cls, grid: RadialGrid, theta: float = 1.0, time: float = 0.0):
        if theta <= 0:
            raise ValueError("temperature must be positive")
        return cls(grid, np.exp(-0.5 * theta * grid.x ** 2), time)

    @classmethod
    def bimaxwellian(cls, grid: RadialGrid, p: float = 0.5, theta1: float = 0.6,
                     theta2: float = 1.4, time: float = 0.0):
        if not (0.0 <= p <= 1.0) or theta1 <= 0 or theta2 <= 0:
            raise ValueError("mixture needs p in [0,1] and positive temperatures")
        x2 = grid.x ** 2
        return cls(grid, p * np.exp(-0.5 * theta1 * x2) + (1 - p) * np.exp(-0.5 * theta2 * x2),
                   time)

    def copy(self, values=None, time=None) -> "CharacteristicProfile":
        return CharacteristicProfile(
            self.grid,
            self.values.copy() if values is None else values,
            self.time if time is None else time)

    def __repr__(self) -> str:
        return f"CharacteristicProfile(n={self.grid.n}, x_max={self.grid.x_max}, t={self.time})"


_FRAMES = ("unscaled-f", "rescaled-g")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration for the spectral solver.

    `quad_order` remains only for the benchmark's explicit calls; every other
    caller runs at the default `QUAD_ORDER`.
    """

    dt: float = 0.005
    t_max: float = 10.0
    quad_order: int = QUAD_ORDER
    frame: str = "rescaled-g"

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.quad_order < QUAD_ORDER:
            raise ValueError(f"quad_order must be at least {QUAD_ORDER}, got {self.quad_order}")
        if self.frame not in _FRAMES:
            raise ValueError(f"frame must be one of {_FRAMES}, got {self.frame!r}")


@dataclass
class EvolutionTrace:
    """Time series of diagnostics recorded along an evolution."""

    times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    final: CharacteristicProfile
    profiles: list[CharacteristicProfile] | None = None
    config: SolverConfig | None = None
    e: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or (len(t) > 1 and np.any(np.diff(t) <= 0)):
            raise ValueError("trace times must be strictly increasing")
        self.times = t
        for k, v in self.diagnostics.items():
            a = np.asarray(v)
            if a.shape[0] != len(t):
                raise ValueError(f"diagnostic {k!r} length {a.shape[0]} != {len(t)} times")
            self.diagnostics[k] = a


# ---------------------------------------------------------------------------
# interpolation kernels

def _quintic_derivs(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    # sixth-order 7-point slopes and fourth-order 5-point curvatures with
    # even extension across x = 0 and one-sided closures at the top edge
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


_PLAN_CHUNK = 8192


def _intervals(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # interval index and fraction of fractional grid positions, clamped to
    # the last interval
    pc = np.minimum(p, float(n - 1))
    ic = np.minimum(pc.astype(np.int32), np.int32(n - 2))
    return ic, pc - ic


def _hermite_weights(t: np.ndarray, W: np.ndarray) -> None:
    # quintic Hermite weights [1-H3, H3, H1, H4, H2, H5](t), one row of W per t
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    W[:, 1] = 10.0 * t3 - 15.0 * t4 + 6.0 * t5         # value right, H3
    W[:, 0] = 1.0 - W[:, 1]                            # value left
    W[:, 2] = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5       # slope left
    W[:, 3] = -4.0 * t3 + 7.0 * t4 - 3.0 * t5          # slope right
    W[:, 4] = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)    # curvature left
    W[:, 5] = 0.5 * (t3 - 2.0 * t4 + t5)               # curvature right


def _quintic_nodes(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the deviation u = v - 1 with h times its slopes and h^2 times its
    # curvatures: the node data of the Hermite form
    u = v - 1.0
    d, c = _quintic_derivs(u, h)
    d *= h
    c *= h * h
    return u, d, c


class _InterpPlan:
    """Quintic Hermite evaluation at fixed query positions as a linear operator.

    For scale a the queries against profile values v are a * x_i; on the
    uniform grid the fractional position is simply a * i. Queries beyond
    x_max are clamped to the boundary node and counted in `clamped`.

    The evaluation is the product of two linear maps. The first is the fixed
    stencil map from a profile to its per-interval table T: with u = v - 1 and
    (d, c) the slopes and curvatures of u, row i of the (n-1, 6) table is
    [u_i, u_{i+1}, h d_i, h d_{i+1}, h^2 c_i, h^2 c_{i+1}]. The second is the
    plan's block-sparse gather matrix M, built once: query r has one 1x6 block
    at block column idx_r holding the Hermite weights
    [1-H3, H3, H1, H4, H2, H5](t_r), so eval(v) = 1 + M @ T. The table of the
    constant profile phi = 1 is exactly zero, so phi = 1 is reproduced bit for
    bit whatever the summation order. M stores 56 bytes per query: six
    weights, a block index and a row pointer.
    """

    __slots__ = ("shape", "h", "M", "clamped")

    def __init__(self, positions: np.ndarray, n: int, h: float) -> None:
        p = np.asarray(positions, dtype=float)
        self.shape = p.shape
        p = p.ravel()
        self.clamped = int(np.count_nonzero(p > (n - 1) + 1e-9))
        m = len(p)
        idx = np.empty(m, dtype=np.int32)
        W = np.empty((m, 1, 6))
        # built in cache-sized chunks: temporaries the size of the plan would
        # each cost a page fault per page
        for a in range(0, m, _PLAN_CHUNK):
            ic, t = _intervals(p[a:a + _PLAN_CHUNK], n)
            idx[a:a + _PLAN_CHUNK] = ic
            _hermite_weights(t, W[a:a + _PLAN_CHUNK, 0])
        rows = np.arange(m + 1, dtype=np.int32)
        self.M = bsr_matrix((W, idx, rows), shape=(m, 6 * (n - 1)))
        self.h = h

    def eval(self, v: np.ndarray) -> np.ndarray:
        T = np.empty((len(v) - 1, 6))
        for k, a in enumerate(_quintic_nodes(v, self.h)):
            T[:, 2 * k] = a[:-1]
            T[:, 2 * k + 1] = a[1:]
        out = self.M @ T.ravel()
        out += 1.0  # in place: a second array of the plan's size costs page faults
        return out.reshape(self.shape)


def gain_scales(e: float, quad_order: int = QUAD_ORDER):
    """Quadrature nodes s, weights w and the scale arrays (a-, a+)."""
    e = _check_e(e)
    s, w = leggauss(int(quad_order))
    a_minus = 0.25 * (1.0 + e) * np.sqrt(2.0 * (1.0 - s))
    a_plus = np.sqrt(((3.0 - e) / 4.0) ** 2 + ((1.0 + e) / 4.0) ** 2
                     + s * (3.0 - e) * (1.0 + e) / 8.0)
    return s, w, a_minus, a_plus


class _GainPlan:
    __slots__ = ("plan", "w", "q")

    def __init__(self, grid: RadialGrid, e: float, quad_order: int) -> None:
        s, w, a_minus, a_plus = gain_scales(e, quad_order)
        if float(max(np.max(a_minus), np.max(a_plus))) > 1.0 + 1e-12:
            # cannot happen for e in (0, 1]; guard against regressions
            warnings.warn("gain quadrature queries beyond x_max were clamped")
        scales = np.concatenate([a_minus, a_plus])
        positions = np.multiply.outer(scales, np.arange(grid.n, dtype=float))
        self.plan = _InterpPlan(positions, grid.n, grid.dx)
        self.w = w
        self.q = int(quad_order)

    def apply(self, v: np.ndarray) -> np.ndarray:
        vals = self.plan.eval(v)
        prod = vals[: self.q] * vals[self.q:]
        prod -= 1.0
        # deviation form 1 + (1/2) w.(prod - 1): (1/2) sum(w) = 1 holds only
        # to rounding, and its rounding depends on the BLAS summation order
        out = self.w @ prod
        out *= 0.5
        out += 1.0
        out[0] = 1.0  # exact mass conservation at x = 0
        return out


_GAIN_CACHE: dict[tuple, _GainPlan] = {}
_DRIFT_CACHE: dict[tuple, _InterpPlan] = {}
_CACHE_CAP = 16


def _cached(cache: dict, key: tuple, build):
    # bounded FIFO: the oldest plan goes once _CACHE_CAP are held
    plan = cache.get(key)
    if plan is None:
        if len(cache) >= _CACHE_CAP:
            cache.pop(next(iter(cache)))
        plan = cache[key] = build()
    return plan


def _gain_plan(grid: RadialGrid, e: float, quad_order: int) -> _GainPlan:
    return _cached(_GAIN_CACHE, (grid.n, round(grid.x_max, 12), round(e, 15), quad_order),
                   lambda: _GainPlan(grid, e, quad_order))


def _drift_plan(grid: RadialGrid, shift: float) -> _InterpPlan:
    return _cached(_DRIFT_CACHE, (grid.n, round(grid.x_max, 12), round(shift, 18)),
                   lambda: _InterpPlan(math.exp(shift) * np.arange(grid.n, dtype=float),
                                       grid.n, grid.dx))


def gain_fourier(phi: CharacteristicProfile, e,
                 quad_order: int = QUAD_ORDER) -> CharacteristicProfile:
    """Apply the Fourier gain operator to a profile.

    phi == 1 is a fixed point for every e, bit for bit and independent of the
    summation order of the quadrature: the interpolation operator acts on the
    deviation phi - 1, so it returns exactly 1 at every query, every product
    is exactly 1, and the
    gain is evaluated in deviation form 1 + (1/2) w.(prod - 1), which adds
    exact zeros. For e = 1 every Maxwellian is a fixed point since
    a-^2 + a+^2 = 1. Output mass is exact: (Q+ phi)(0) = 1.

    `quad_order` remains only for the benchmark's explicit calls.
    """
    e = _check_e(e)
    plan = _gain_plan(phi.grid, e, int(quad_order))
    return CharacteristicProfile(phi.grid, plan.apply(phi.values), phi.time)


def _drift_vals(v: np.ndarray, grid: RadialGrid, shift: float) -> np.ndarray:
    # exact rescaling phi(x) -> phi(x e^{shift})
    out = _drift_plan(grid, shift).eval(v)
    out[0] = 1.0
    return out


def _rk4_vals(v: np.ndarray, dt: float, gain: _GainPlan) -> np.ndarray:
    def F(u):
        return gain.apply(u) - u

    k1 = F(v)
    k2 = F(v + 0.5 * dt * k1)
    k3 = F(v + 0.5 * dt * k2)
    k4 = F(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(phi: CharacteristicProfile, e, config: SolverConfig) -> CharacteristicProfile:
    """Advance one time step in the configured frame.

    Unscaled frame: RK4 on dphi/dt = Q+ phi - phi (temperature decays at the
    exact rate 2E). Rescaled frame: Strang splitting drift(dt/2) - RK4(dt) -
    drift(dt/2), which holds the second moment fixed. If the step pushes
    |phi| above 1 + 1e-6 it is retried once as two half steps, then aborted.
    """
    e = _check_e(e)
    gain = _gain_plan(phi.grid, e, config.quad_order)
    E = dissipation_rate(e)
    rescaled = config.frame == "rescaled-g"

    def advance(v, dt):
        if rescaled and E > 0.0:
            v = _drift_vals(v, phi.grid, E * dt / 2.0)
            v = _rk4_vals(v, dt, gain)
            v = _drift_vals(v, phi.grid, E * dt / 2.0)
        else:
            v = _rk4_vals(v, dt, gain)
        return v

    new = advance(phi.values, config.dt)
    if float(np.max(np.abs(new))) > 1.0 + 1e-6:
        warnings.warn(f"profile bound violated at t={phi.time + config.dt:.4g}; "
                      "retrying with halved dt")
        new = advance(advance(phi.values, config.dt / 2.0), config.dt / 2.0)
        if float(np.max(np.abs(new))) > 1.0 + 1e-6:
            raise RuntimeError(
                f"profile bound still violated after dt halving at t={phi.time:.4g}; "
                "the step size is too large for this profile")
    return CharacteristicProfile(phi.grid, new, phi.time + config.dt)


_SOBOLEV_ORDERS = (0.5, 1.0, 2.0)
_SUP_DELTA = 0.5


def evolve(phi0: CharacteristicProfile, e, config: SolverConfig,
           diagnostics_schedule=None, reference: CharacteristicProfile | None = None,
           keep_profiles: bool = False) -> EvolutionTrace:
    """Evolve a profile to config.t_max, recording diagnostics on a schedule.

    The schedule lists absolute times (snapped to step boundaries); default is
    about 200 evenly spaced records. Standard diagnostics: temperature (m2/3),
    m2, m4, Sobolev seminorms hr_<r> for r in (0.5, 1, 2), weighted sup
    sup_0.5, and d2_ref against `reference` when given. Deterministic: no
    randomness anywhere.
    """
    e = _check_e(e)
    n_steps = int(round(config.t_max / config.dt))
    if abs(n_steps * config.dt - config.t_max) > 1e-9 * max(1.0, config.t_max):
        warnings.warn("t_max is not a multiple of dt; snapping to "
                      f"{n_steps} steps = {n_steps * config.dt:.6g}")
    if diagnostics_schedule is None:
        every = max(1, n_steps // 200)
        rec_steps = np.arange(0, n_steps + 1, every)
        if rec_steps[-1] != n_steps:
            rec_steps = np.append(rec_steps, n_steps)
    else:
        times = np.asarray(diagnostics_schedule, dtype=float)
        rec_steps = np.unique(np.clip(np.round(times / config.dt).astype(int), 0, n_steps))
    rec_set = set(int(k) for k in rec_steps)

    rows: list[dict] = []
    times: list[float] = []
    profiles: list[CharacteristicProfile] = []

    def record(p: CharacteristicProfile):
        row = {}
        m2 = moment(p, 2)
        row["m2"] = m2
        row["temperature"] = m2 / 3.0
        row["m4"] = moment(p, 4)
        for r in _SOBOLEV_ORDERS:
            row[f"hr_{r:g}"] = sobolev_norm(p, r)
        row[f"sup_{_SUP_DELTA:g}"] = sup_weighted(p, _SUP_DELTA)
        if reference is not None:
            row["d2_ref"] = d2_distance(p, reference, warn_temperature=False)
        rows.append(row)
        times.append(p.time)
        if keep_profiles:
            profiles.append(p.copy())

    phi = phi0
    if 0 in rec_set:
        record(phi)
    for k in range(1, n_steps + 1):
        phi = step(phi, e, config)
        if k in rec_set:
            record(phi)

    keys = rows[0].keys() if rows else []
    diags = {k: np.array([r[k] for r in rows]) for k in keys}
    return EvolutionTrace(np.array(times), diags, final=phi,
                          profiles=profiles if keep_profiles else None,
                          config=config, e=e)


def steady_residual(phi: CharacteristicProfile, e, quad_order: int = QUAD_ORDER) -> float:
    """Sup-norm of (Q+ phi - phi + E x phi') over the grid."""
    e = _check_e(e)
    gain = _gain_plan(phi.grid, e, int(quad_order))
    E = dissipation_rate(e)
    R = gain.apply(phi.values) - phi.values \
        + E * phi.grid.x * _quintic_derivs(phi.values, phi.grid.dx)[0]
    return float(np.max(np.abs(R)))


def envelope_report(phi: CharacteristicProfile) -> dict:
    """Qualitative two-sided envelope check exp(-x^2) <= phi <= exp(-x)(1+x).

    Stated at unit temperature (m2 = 3). Reported, never asserted: the sharp
    normalization of the stationary envelope is not reproduced numerically.
    """
    x = phi.grid.x
    v = phi.values
    lower = np.exp(-x * x)
    upper = np.exp(-x) * (1.0 + x)
    return {
        "temperature": moment(phi, 2) / 3.0,
        "lower_ok_fraction": float(np.mean(v >= lower - 1e-12)),
        "upper_ok_fraction": float(np.mean(v <= upper + 1e-12)),
        "max_lower_violation": float(np.max(lower - v)),
        "max_upper_violation": float(np.max(v - upper)),
    }


_STEADY_WINDOW = 5.0   # time units of the Cauchy d2 that a steady solve bounds
_ANDERSON_DEPTH = 10   # differences kept by the Anderson mixing of a steady solve


def _pin(phi: CharacteristicProfile) -> CharacteristicProfile:
    # the dilation phi(x) -> phi(lam x) to moment(., 2) = 3, as m2 scales as
    # lam^2; after one step (|m2 - 3| < 1e-8) it lands within 1e-12 of 3
    lam = math.sqrt(3.0 / moment(phi, 2))
    return CharacteristicProfile(phi.grid, evaluate(phi, lam * phi.grid.x), phi.time)


def _loss_drift_solve(r: np.ndarray, E: float) -> np.ndarray:
    # u - E x u' = r by implicit upwind differences, u_i - E i (u_{i+1} - u_i)
    # = r_i, swept inward from x_max: the inverse of the loss-and-drift part
    # of the rescaled generator. u_0 = r_0, and |u| <= max |r|.
    c = E * np.arange(len(r), dtype=float)
    a = (c / (1.0 + c)).tolist()
    b = (r / (1.0 + c)).tolist()
    u = [0.0] * len(b)
    acc = 0.0
    for i in range(len(b) - 1, -1, -1):
        acc = b[i] + a[i] * acc
        u[i] = acc
    return np.array(u)


def steady_profile(e, config: SolverConfig | None = None, tol: float = 1e-7,
                   grid: RadialGrid | None = None) -> CharacteristicProfile:
    """Stationary rescaled profile at unit temperature, as a fixed point.

    The map is one rescaled step followed by the gauge pin,
    G(phi) = pin(step(phi)), where the pin is the dilation phi(x) -> phi(lam x)
    that sets moment(phi, 2) = 3. The rescaled equation is dilation
    invariant, so the pin removes its one neutral mode and G contracts.
    phi = G(phi) is solved from the unit Maxwellian by Anderson mixing (type
    II, Walker & Ni 2011) of depth `_ANDERSON_DEPTH`, with its least squares
    weighted by 1/x^2 like d2. The mixed residual is that of G preconditioned
    by the loss and drift: H(phi) = phi + P^-1 (G(phi) - phi)/dt with
    P = 1 - E x d/dx, which has the fixed points of G. Without P the tail,
    which relaxes at rate ~1 and which the d2 weights do not see, is
    extrapolated with the O(1/dt) mixing coefficients of a near-identity map.

    A mixed iterate that is not a valid profile is replaced by the unmixed
    image G(phi) and the history is cleared. When no new best residual
    appears within one depth of applications, the history restarts from the
    best image, once per best image (a second restart would repeat the same
    iterates).

    Each application of G is one `step` call, at most config.t_max/dt of
    them. The solve stops when (5/dt) d2(G(phi), phi) < tol. G contracts d2,
    so that bounds the d2 between the image G(phi) and its image after the
    5 time units of pinned steps that a march would take; the bound is
    reported as meta["cauchy_d2"]. The returned profile is the image G(phi)
    with the smallest bound. Its meta carries "converged", "cauchy_d2",
    "fixed_point_residual", the qualitative "envelope" report, "e", "steps"
    (applications of G) and "history" (the bound after each application).
    On non-convergence meta["converged"] is False and a warning is issued.
    """
    e = _check_e(e)
    if grid is None:
        grid = RadialGrid()
    if config is None:
        config = SolverConfig(dt=0.005, t_max=300.0, frame="rescaled-g")
    elif config.frame != "rescaled-g":
        raise ValueError("steady_profile requires the rescaled frame")
    if not (tol > 0):
        raise ValueError("tol must be positive")

    E = dissipation_rate(e)
    window = _STEADY_WINDOW / config.dt
    budget = max(1, int(round(config.t_max / config.dt)))
    x = grid.x
    keep = x >= 2.0 * grid.dx       # the rows d2 reads, weighted like d2
    weight = 1.0 / x[keep] ** 2
    phi = _pin(CharacteristicProfile.maxwellian(grid, 1.0))
    dF: list[np.ndarray] = []
    dH: list[np.ndarray] = []
    prev = None                     # (f, h) of the last application
    history: list[float] = []
    achieved, best, best_k = math.inf, None, 0
    restarted = None                # the best image the history last restarted from
    for k in range(budget):
        image = _pin(step(phi, e, config))
        delta = image.values - phi.values
        bound = window * float(np.max(np.abs(delta[keep]) * weight))
        history.append(bound)
        if bound < achieved:
            achieved, best, best_k = bound, image, k
        if bound < tol:
            break
        if k - best_k >= _ANDERSON_DEPTH and restarted is not best:
            dF.clear()
            dH.clear()
            prev, restarted, phi = None, best, best
            continue
        u = _loss_drift_solve(delta / config.dt, E)
        h = phi.values + u
        f = u[keep] * weight
        if prev is not None:
            dF.append(f - prev[0])
            dH.append(h - prev[1])
            if len(dF) > _ANDERSON_DEPTH:
                del dF[0], dH[0]
        prev = (f, h)
        if dF:
            gamma = np.linalg.lstsq(np.column_stack(dF), f, rcond=None)[0]
            h = h - np.column_stack(dH) @ gamma
        try:
            phi = CharacteristicProfile(grid, h, image.time)
        except ValueError:
            dF.clear()
            dH.clear()
            prev, phi = None, image

    converged = achieved < tol
    if not converged:
        warnings.warn(f"steady profile did not reach tol={tol:g}; "
                      f"achieved bound={achieved:.3g} after {len(history)} steps")
    best.meta.update({
        "converged": converged,
        "cauchy_d2": achieved,
        "fixed_point_residual": steady_residual(best, e, config.quad_order),
        "envelope": envelope_report(best),
        "e": e,
        "steps": len(history),
        "history": history,
    })
    logger.info("steady profile e=%g: converged=%s cauchy_d2=%.3g residual=%.3g steps=%d",
                e, converged, achieved, best.meta["fixed_point_residual"], len(history))
    return best


# ---------------------------------------------------------------------------
# functionals on profiles

def d2_distance(phi1: CharacteristicProfile, phi2: CharacteristicProfile,
                x_floor: float | None = None, warn_temperature: bool = True) -> float:
    """sup over x >= x_floor of |phi1 - phi2| / x^2 (default floor 2 dx).

    Finite for any pair with equal mass; the metric contracts the flow when
    the first and second moments match. Temperatures differing by more than
    1e-4 relative trigger a warning (the x -> 0 limit is then half the
    temperature gap rather than 0).
    """
    if not phi1.grid.matches(phi2.grid):
        raise ValueError("profiles must share the same grid")
    if warn_temperature:
        t1, t2 = moment(phi1, 2) / 3.0, moment(phi2, 2) / 3.0
        if abs(t1 - t2) > 1e-4 * max(abs(t1), abs(t2), 1e-300):
            warnings.warn(f"temperature mismatch in d2: {t1:.6g} vs {t2:.6g}")
    x = phi1.grid.x
    if x_floor is None:
        x_floor = 2.0 * phi1.grid.dx
    mask = x >= x_floor
    if not np.any(mask):
        raise ValueError("x_floor excludes the entire grid")
    diff = np.abs(phi1.values[mask] - phi2.values[mask])
    return float(np.max(diff / x[mask] ** 2))


# Even-polynomial fit for the moment stencils: nodes k = 1..7 (scaled), basis
# 1, y^2, y^4, y^6 with y = k/7. The node x = 0 is deliberately excluded: the
# gain forces phi(0) = 1 exactly while neighbors share a smooth O(h^4)
# interpolation bias, and a fit through x = 0 would amplify that tiny cusp by
# 1/h^2. Constant offsets cancel exactly in the curvature coefficients.
_MOM_NODES = 7
_MOM_PINV = np.linalg.pinv(np.stack(
    [(np.arange(1, _MOM_NODES + 1) / _MOM_NODES) ** (2 * j) for j in range(4)], axis=1))


def _even_fit(vals: np.ndarray, h: float, spacing: int) -> tuple[float, float, float]:
    # returns (phi''(0)/2, phi''''(0)/24, roundoff scale of the fit)
    k = np.arange(1, _MOM_NODES + 1) * spacing
    span = k[-1] * h
    coef = _MOM_PINV @ vals[k]
    eps_amp = np.finfo(float).eps * float(np.max(np.abs(vals[k]))) \
        * np.abs(_MOM_PINV).sum(axis=1)
    return (coef[1] / span ** 2, coef[2] / span ** 4,
            (eps_amp[1] / span ** 2, eps_amp[2] / span ** 4))


def moment(phi: CharacteristicProfile, order: int) -> float:
    """Velocity moment from derivatives of phi at 0: m2 = -3 phi''(0),
    m4 = 5 phi''''(0).

    Uses an even-polynomial fit through the 7 nearest off-center nodes; if
    the roundoff noise estimate exceeds 1% of the value the stencil is
    widened once with a warning.
    """
    if order not in (2, 4):
        raise ValueError("only moments of order 2 and 4 are provided")
    h = phi.grid.dx
    vals = phi.values
    for spacing in (1, 2):
        b1, b2, (n1, n2) = _even_fit(vals, h, spacing)
        value = -6.0 * b1 if order == 2 else 120.0 * b2
        noise = 6.0 * n1 if order == 2 else 120.0 * n2
        if noise <= 0.01 * abs(value) or spacing == 2:
            if spacing == 2:
                warnings.warn(f"moment({order}) stencil widened: roundoff near value scale")
            return float(value)
    raise AssertionError("unreachable")


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Composite trapezoid rule for samples y at nodes x (1-D)."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def sobolev_norm(phi: CharacteristicProfile, r: float) -> float:
    """Homogeneous Sobolev seminorm (4 pi integral x^{2r+2} phi^2 dx)^{1/2}.

    Trapezoid on the profile grid; warns when the integrand has not decayed
    below 1e-8 of its peak at x_max (truncated tail).
    """
    if r < 0:
        raise ValueError("order r must be nonnegative")
    x = phi.grid.x
    g = 4.0 * math.pi * x ** (2.0 * r + 2.0) * phi.values ** 2
    peak = float(np.max(g))
    if peak > 0 and g[-1] > 1e-8 * peak:
        warnings.warn(f"sobolev_norm(r={r:g}): integrand tail {g[-1]:.2e} "
                      f"exceeds 1e-8 of peak; norm is truncated")
    return math.sqrt(trapezoid(g, x))


def sup_weighted(phi: CharacteristicProfile, delta: float) -> float:
    """max over the grid of x^delta |phi(x)|."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(np.max(phi.grid.x ** delta * np.abs(phi.values)))


def gamma_constants(alpha: float, e) -> tuple[float, float, float, float]:
    """Spectral-gap constants (A1, A2, gamma, gamma_star) for moment alpha.

    A1 = (2/(4+alpha)) [ ((1+e)/2)^{2+alpha}
         + (1 - ((1-e)/2)^{4+alpha}) / (1 - ((1-e)/2)^2) ],
    A2 = 1 - A1 - E (2+alpha),
    gamma = min( (2/(2+alpha)) A2, (3-e)(1+e)/8 ),
    gamma_star = min( 2 alpha/((2+alpha)(4+alpha)), 1/2 ).
    """
    e = _check_e(e)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    half_loss = (1.0 - e) / 2.0
    A1 = (2.0 / (4.0 + alpha)) * (((1.0 + e) / 2.0) ** (2.0 + alpha)
                                  + (1.0 - half_loss ** (4.0 + alpha))
                                  / (1.0 - half_loss ** 2))
    A2 = 1.0 - A1 - dissipation_rate(e) * (2.0 + alpha)
    gamma = min((2.0 / (2.0 + alpha)) * A2, (3.0 - e) * (1.0 + e) / 8.0)
    gamma_star = min(2.0 * alpha / ((2.0 + alpha) * (4.0 + alpha)), 0.5)
    return A1, A2, gamma, gamma_star


def evaluate(phi: CharacteristicProfile, x) -> np.ndarray:
    """Evaluate the profile at arbitrary abscissae (clamped to the grid).

    The quintic Hermite form of `_InterpPlan`, applied without building a
    plan: each query gathers the node data at the two ends of its interval
    and sums them against its six weights.
    """
    xq = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), 0.0, phi.grid.x_max)
    ic, t = _intervals(xq.ravel() / phi.grid.dx, phi.grid.n)
    W = np.empty((6, len(t)))
    _hermite_weights(t, W.T)
    out = np.zeros(len(t))
    for k, a in enumerate(_quintic_nodes(phi.values, phi.grid.dx)):
        out += W[2 * k] * a[ic]
        out += W[2 * k + 1] * a[ic + 1]
    out += 1.0
    return out.reshape(xq.shape) if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# CSV round trip

_PROFILE_HEADER = re.compile(
    r"#\s*maxcool-profile\s+v1\s+e=(?P<e>\S+)\s+t=(?P<t>\S+)\s+frame=(?P<frame>\S+)")


def save_profile(path, phi: CharacteristicProfile, e, frame: str) -> None:
    """Write (x, phi) rows under the `# maxcool-profile v1 ...` header."""
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}")
    e = _check_e(e)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# maxcool-profile v1 e={e:.17g} t={phi.time:.17g} frame={frame}\n")
        for xi, vi in zip(phi.grid.x, phi.values):
            fh.write(f"{xi:.17g},{vi:.17g}\n")


def load_profile(path) -> tuple[CharacteristicProfile, dict]:
    """Read a profile CSV; returns (profile, meta) with meta e and frame."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        m = _PROFILE_HEADER.match(header)
        if not m:
            raise ValueError(f"not a maxcool-profile file: header {header!r}")
        data = np.loadtxt(fh, delimiter=",")
    x, v = data[:, 0], data[:, 1]
    n = len(x)
    grid = RadialGrid(n, float(x[-1]))
    if np.max(np.abs(grid.x - x)) > 1e-9 * max(1.0, float(x[-1])):
        raise ValueError("profile grid is not uniform from 0 to x_max")
    phi = CharacteristicProfile(grid, v, time=float(m.group("t")))
    return phi, {"e": float(m.group("e")), "frame": m.group("frame")}

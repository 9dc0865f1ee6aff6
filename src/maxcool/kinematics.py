"""Collision kinematics for inelastic Maxwell molecules.

Two parameterizations of the same binary collision are supported: the
reflection map (impact direction n, any unit vector) and the swapping map
(post-collisional direction sigma). Both conserve momentum; energy in the
relative coordinate is contracted by the restitution coefficient e. The maps
act on (m, 3) arrays, one collision per row, in any memory layout: C-ordered
rows and component-major rows (the transpose of a (3, m) array) give
bit-identical results, since each map reads the three components as separate
columns and never reduces over the length-3 axis. The pictures meet at
sigma = k - 2(k.n)n with k = (v - w)/|v - w|. The module provides the forward
and pre-collisional (inverse) maps, the Philox streams and uniform directions
that draw collision parameters, the effective gain-term rates produced by the
change of variables, the residual of the "Z identity" behind the Fisher gain
bound, and Monte Carlo verification of the change-of-variables identities,
whose sample blocks are stored component-major.

The collision rate is the constant Maxwell rate: B(s) = 1 in the swapping
picture (s = k.sigma) and Btilde(t) = 2|t| in the reflection picture
(t = k.n). All maps are exact algebraic formulas, and the dissipation rate is
E = (1 - e^2)/8 in closed form.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "reflect",
    "swap_forward",
    "swap_inverse",
    "uniform_sphere",
    "block_rng",
    "effective_gain_rates",
    "dissipation_rate",
    "moment_rate",
    "growth_rate",
    "fisher_growth_exponent",
    "z_identity_residual",
    "mc_change_of_variables",
]


def _check_e(e) -> float:
    e = float(e)
    if not (0.0 < e <= 1.0):
        raise ValueError(f"restitution coefficient must lie in (0, 1], got {e}")
    return e


def dissipation_rate(e) -> float:
    """Energy dissipation rate E = (1 - e^2)/8 of the constant-rate model.

    The one definition of E.
    """
    e = _check_e(e)
    return (1.0 - e * e) / 8.0


def moment_rate(p, e) -> float:
    """Rescaled-frame rate lambda(p, e) at which the moment of order 2p relaxes.

    With h = (1 - e)/2,
    lambda(p, e) = 1 - [((1+e)/2)^(2p) + (1 - h^(2p+2))/(1 - h^2)]/(p + 1) - 2pE,
    where the bracket over p + 1 is the gain's share (1/2) int (a-^2p + a+^2p) ds
    in closed form. lambda(1, e) = 0 is energy balance; the moment of order 2p
    is finite in the homogeneous cooling state while lambda(p, e) > 0.
    The one definition of lambda.
    """
    e = _check_e(e)
    h = (1.0 - e) / 2.0
    gain = (((1.0 + e) / 2.0) ** (2.0 * p)
            + (1.0 - h ** (2.0 * p + 2.0)) / (1.0 - h * h)) / (p + 1.0)
    return 1.0 - gain - 2.0 * p * dissipation_rate(e)


def growth_rate(e) -> float:
    """Fisher-information growth rate (1-e)(2+e+15e^2)/(8e^3) of one gain
    application; it vanishes exactly at e = 1, together with E."""
    e = _check_e(e)
    return (1.0 - e) * (2.0 + e + 15.0 * e * e) / (8.0 * e ** 3)


def fisher_growth_exponent(e) -> float:
    """Trajectory exponent growth - 2E: bounds d/dt log I(g(t)) in the rescaled frame."""
    return growth_rate(e) - 2.0 * dissipation_rate(e)


# ---------------------------------------------------------------------------
# collision maps; (m, 3) arrays in, (m, 3) arrays out


def _dot(a, b):
    # row dot products in the order ((a0 b0 + a1 b1) + a2 b2) of a sum over
    # the last axis, on one contiguous component row at a time when the rows
    # are component-major
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _unit_rows(x):
    # x / |x| row by row, the same bits as dividing by np.linalg.norm(x, axis=-1)
    return x / np.sqrt(_dot(x, x))[..., None]


def reflect(v: np.ndarray, w: np.ndarray, n: np.ndarray, coef: float):
    """Reflection map at impact directions n (unit rows): returns (v', w').

    v' = v - coef (u.n) n, w' = w + coef (u.n) n with u = v - w. The forward
    collision is coef = (1+e)/2; its inverse is the same map at (1+e)/(2e).
    """
    un = _dot(v - w, n)[..., None]
    return v - coef * un * n, w + coef * un * n


def _rel(v: np.ndarray, w: np.ndarray):
    # the relative velocity u = v - w and |u| as an (m, 1) column
    u = v - w
    return u, np.sqrt(_dot(u, u))[..., None]


def _unit_rel(v: np.ndarray, w: np.ndarray):
    # Relative directions are flagged unsafe below ~1e-13 of the pair's
    # scale: there v - w is pure cancellation noise and k is meaningless.
    u, unorm = _rel(v, w)
    scale = np.sqrt(_dot(v, v))[..., None] + np.sqrt(_dot(w, w))[..., None]
    safe = unorm > 1e-13 * (scale + 1.0)
    k = np.where(safe, u / np.where(safe, unorm, 1.0), 0.0)
    return u, unorm, k, safe[..., 0]


def swap_forward(v, w, sigma, e: float):
    """Swap collision map at post-collisional directions sigma (unit rows).

    Returns (v', w', sigma', safe); sigma' takes (v', w') back under
    swap_inverse. safe is False where |v - w| is below 1e-13 of the pair's
    scale; there sigma' = sigma, and for v == w the map returns v, w and
    sigma unchanged. e is not validated.
    """
    rel = _unit_rel(v, w)
    vp, wp = _swap_velocities(v, w, sigma, e, rel)
    _, _, k, safe = rel
    ks = _dot(k, sigma)[..., None]
    denom = np.sqrt(2.0 * (1.0 + e * e) + 2.0 * (1.0 - e * e) * ks)
    sigmap = ((1.0 + e) * k + (1.0 - e) * sigma) / denom
    sigmap = np.where(safe[..., None], sigmap, sigma)
    return vp, wp, sigmap, safe


def _swap_velocities(v, w, sigma, e: float, rel=None):
    # (v', w') of swap_forward alone, for callers that need no sigma'; rel
    # is the (u, |u|, ...) of v and w when the caller already holds it
    u, unorm = (rel or _rel(v, w))[:2]
    z = 0.5 * (v + w)
    half = 0.25 * (1.0 - e) * u + 0.25 * (1.0 + e) * unorm * sigma
    return z + half, z - half


def swap_inverse(v, w, sigma, e: float):
    """Pre-collisional swap map, the inverse of swap_forward at the same e.

    It divides by e, so e outside (0, 1] raises ValueError. The outputs and
    the unsafe case (v == w: v, w and sigma unchanged) are as in swap_forward.
    """
    return _swap_inverse(v, w, sigma, _check_e(e), _unit_rel(v, w))


def _swap_inverse(v, w, sigma, e: float, rel):
    # swap_inverse on the _unit_rel(v, w) its caller already holds
    z = 0.5 * (v + w)
    u, unorm, k, safe = rel
    half = -(1.0 - e) / (4.0 * e) * u + (1.0 + e) / (4.0 * e) * unorm * sigma
    vs = z + half
    ws = z - half
    ks = _dot(k, sigma)[..., None]
    denom = np.sqrt(2.0 * (1.0 + e * e) - 2.0 * (1.0 - e * e) * ks)
    sigmas = ((1.0 + e) * k - (1.0 - e) * sigma) / denom
    sigmas = np.where(safe[..., None], sigmas, sigma)
    return vs, ws, sigmas, safe


def effective_gain_rates(e):
    """Effective rates appearing in the gain term after the pre-collisional
    change of variables.

    Returns callables (B_e_plus, Btilde_e_plus): the constant rates B = 1 and
    Btilde(t) = 2|t| seen through the inverse collision map. At e = 1 both
    reduce to the bare rates.
    """
    e = _check_e(e)
    one = 1.0 + e * e
    mis = 1.0 - e * e

    def B_e_plus(s, _e=e):
        s = np.asarray(s, dtype=float)
        return np.sqrt(2.0 / (one - mis * s)) / _e

    def Btilde_e_plus(t, _e=e):
        t = np.asarray(t, dtype=float)
        return 2.0 * np.abs(t / np.sqrt(_e * _e + (1.0 - _e * _e) * t * t)) / _e

    return B_e_plus, Btilde_e_plus


def z_identity_residual(eta, sigma, e) -> np.ndarray:
    """Residuals of the vector identity used in the Fisher gain bound.

    For each row, with eta- = ((1+e)/4)(eta - |eta| sigma), eta+ = eta -
    eta-, unit direction m = eta/|eta| and P_{sigma,m}(x) = (sigma.x) m +
    (m.sigma) x - (m.x) sigma, the combination

      ((3e-1)/(4e)) eta+ + ((1+e)/(4e)) P(eta+) + ((1+e)/(4e)) eta-
        - ((1+e)/(4e)) P(eta-)

    equals eta + ((1-e^2)/(4e)) ((eta.sigma) m - |eta| sigma). Takes (m, 3)
    arrays (sigma of unit rows) and returns the (m,) euclidean norms of the
    differences: ~1e-16 |eta| by exact algebra, and 0 where eta = 0.
    """
    e = _check_e(e)
    r = np.sqrt(_dot(eta, eta))[..., None]
    m = eta / np.where(r > 0.0, r, 1.0)
    eta_m = 0.25 * (1.0 + e) * (eta - r * sigma)
    eta_p = eta - eta_m

    def dot(a, b):
        return _dot(a, b)[..., None]

    def P(x):
        return dot(sigma, x) * m + dot(m, sigma) * x - dot(m, x) * sigma

    c = (1.0 + e) / (4.0 * e)
    Z = (3.0 * e - 1.0) / (4.0 * e) * eta_p + c * P(eta_p) + c * eta_m - c * P(eta_m)
    d = Z - (eta + (1.0 - e * e) / (4.0 * e) * (dot(eta, sigma) * m - r * sigma))
    return np.sqrt(_dot(d, d))


# ---------------------------------------------------------------------------
# Monte Carlo verification of the change-of-variables identities

_LOG_Q_NORM = -1.5 * math.log(2.0 * math.pi)


def block_rng(seed: int, tag: int) -> np.random.Generator:
    """Philox stream keyed by (seed, tag) mod 2^64, one independent stream per pair."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    """m uniform directions on S^2 as (m, 3) unit rows: normalised Gaussian draws."""
    return _unit_rows(rng.standard_normal((m, 3)))


def _mc_reduce(block_fn, samples: int, seed: int, tag0: int):
    # fixed ascending-block reduction keeps the estimate bit-reproducible
    block = 1 << 16
    total = 0.0
    total_sq = 0.0
    count = 0
    b = 0
    while count < samples:
        m = min(block, samples - count)
        vals = block_fn(block_rng(seed, tag0 + b), m)
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel produced non-finite Monte Carlo samples")
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        count += m
        b += 1
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / max(count - 1, 1)
    return mean, math.sqrt(var / count)


def mc_change_of_variables(K: Callable, e, which: str = "sigma-theorem",
                           samples: int = 10 ** 6, seed: int = 0):
    """Monte Carlo check of a change-of-variables identity.

    which = "sigma-theorem": LHS integrates K[pre-collisional triple, triple]
    against the effective gain rate in the swapping picture, RHS integrates
    K[triple, post-collisional triple] against the bare rate B = 1; the
    identity asserts equality. which = "n-theorem" is the reflection-picture
    analogue, with bare rate Btilde = 2|k.n|.

    Velocities are importance-sampled from a standard Gaussian; kernels must
    decay fast enough (Gaussian-bump test kernels with width <= 1 do). LHS
    and RHS use independent Philox substreams, so the two standard errors may
    be combined in quadrature. Returns (lhs, rhs, stderr_lhs, stderr_rhs).

    Sample order: each side runs blocks b = 0, 1, ... of 2^16 samples (the
    last one partial) on block_rng(seed, tag0 + b), tag0 = 0 for LHS and
    2^62 for RHS. Each block draws v, w and the Gaussian normals of the
    directions as three C-ordered (m, 3) standard-normal arrays, in that
    order; K receives (m, 3) arrays, stored component-major.
    """
    e = _check_e(e)
    if samples < 1:
        raise ValueError("samples must be positive")
    seed = int(seed)

    if which not in ("sigma-theorem", "n-theorem"):
        raise ValueError(f"unknown identity {which!r}")

    B_e_plus, Bt_e_plus = effective_gain_rates(e)

    def draw(rng, m):
        # one (3, m, 3) draw is the stream of three (m, 3) draws: v, w and the
        # direction normals. It is copied once to component-major storage and
        # handed out as (m, 3) views, so the maps work on contiguous rows.
        x = np.ascontiguousarray(rng.standard_normal((3, m, 3)).transpose(0, 2, 1))
        v, w, omega = x[0].T, x[1].T, _unit_rows(x[2].T)
        # inverse importance weight exp(|v|^2/2 + |w|^2/2) / (2 pi)^-3
        logw = 0.5 * (_dot(v, v) + _dot(w, w)) - 2.0 * _LOG_Q_NORM
        return v, w, omega, np.exp(logw)

    if which == "sigma-theorem":
        def lhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            rel = _unit_rel(v, w)
            _, _, k, safe = rel
            ks = _dot(k, sigma)
            vs, ws, ss, _ = _swap_inverse(v, w, sigma, e, rel)
            val = np.asarray(K(vs, ws, ss, v, w, sigma), dtype=float)
            return np.where(safe, val * B_e_plus(ks) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            vp, wp, sp, safe = swap_forward(v, w, sigma, e)
            val = np.asarray(K(v, w, sigma, vp, wp, sp), dtype=float)
            return np.where(safe, val * wt, 0.0)
    else:
        def lhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = _dot(k, n)
            vs, ws = reflect(v, w, n, (1.0 + e) / (2.0 * e))
            val = np.asarray(K(vs, ws, n, v, w, n), dtype=float)
            return np.where(safe, val * Bt_e_plus(kn) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = _dot(k, n)
            vp, wp = reflect(v, w, n, 0.5 * (1.0 + e))
            val = np.asarray(K(v, w, n, vp, wp, n), dtype=float)
            return np.where(safe, val * (2.0 * np.abs(kn)) * wt, 0.0)

    lhs, se_l = _mc_reduce(lhs_block, samples, seed, 0)
    rhs, se_r = _mc_reduce(rhs_block, samples, seed, 1 << 62)
    return lhs, rhs, se_l, se_r

"""Collision kinematics for inelastic Maxwell molecules.

Two parameterizations of the same binary collision are supported: the
reflection map (impact direction n, any unit vector) and the swapping map
(post-collisional direction sigma). Both conserve momentum; energy in the
relative coordinate is contracted by the restitution coefficient e. The maps
act on (m, 3) arrays, one collision per row, and the pictures meet at
sigma = k - 2(k.n)n with k = (v - w)/|v - w|. The module provides the forward
and pre-collisional (inverse) maps, the Philox streams and uniform directions
that draw collision parameters, the effective gain-term rates produced by the
change of variables, the residual of the "Z identity" behind the Fisher gain
bound, and Monte Carlo verification of the change-of-variables identities.

The collision rate is the constant Maxwell rate: B(s) = 1 in the swapping
picture (s = k.sigma) and Btilde(t) = 2|t| in the reflection picture
(t = k.n). All maps are exact algebraic formulas, and the dissipation rate is
E = (1 - e^2)/8 in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Restitution",
    "reflect",
    "swap_forward",
    "swap_inverse",
    "uniform_sphere",
    "block_rng",
    "effective_gain_rates",
    "dissipation_rate",
    "fisher_growth_exponent",
    "z_identity_residual",
    "mc_change_of_variables",
]


def _check_e(e, allow_zero: bool = False) -> float:
    e = float(e)
    lo_ok = (e >= 0.0) if allow_zero else (e > 0.0)
    if not (lo_ok and e <= 1.0):
        lo = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"restitution coefficient must lie in {lo}, got {e}")
    return e


def dissipation_rate(e) -> float:
    """Energy dissipation rate E = (1 - e^2)/8 of the constant-rate model.

    The one definition of E. The sticky limit e = 0 is allowed here (E = 1/8)
    although the collision maps themselves require e > 0.
    """
    e = _check_e(e, allow_zero=True)
    return (1.0 - e * e) / 8.0


@dataclass(frozen=True)
class Restitution:
    """Restitution coefficient with its derived rate constants.

    E is the energy dissipation constant and `growth` the Fisher-information
    growth rate (1-e)(2+e+15e^2)/(8e^3). They vanish together exactly at
    e = 1.
    """

    e: float
    E: float = field(init=False)
    growth: float = field(init=False)

    def __post_init__(self):
        e = _check_e(self.e)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "E", dissipation_rate(e))
        object.__setattr__(self, "growth",
                           (1.0 - e) * (2.0 + e + 15.0 * e * e) / (8.0 * e ** 3))


def fisher_growth_exponent(e) -> float:
    """Trajectory exponent growth - 2E: bounds d/dt log I(g(t)) in the rescaled frame."""
    r = Restitution(e)
    return r.growth - 2.0 * r.E


# ---------------------------------------------------------------------------
# collision maps; (m, 3) arrays in, (m, 3) arrays out


def reflect(v: np.ndarray, w: np.ndarray, n: np.ndarray, coef: float):
    """Reflection map at impact directions n (unit rows): returns (v', w').

    v' = v - coef (u.n) n, w' = w + coef (u.n) n with u = v - w. The forward
    collision is coef = (1+e)/2; its inverse is the same map at (1+e)/(2e).
    """
    un = np.sum((v - w) * n, axis=-1, keepdims=True)
    return v - coef * un * n, w + coef * un * n


def _unit_rel(v: np.ndarray, w: np.ndarray):
    # Relative directions are flagged unsafe below ~1e-13 of the pair's
    # scale: there v - w is pure cancellation noise and k is meaningless.
    u = v - w
    unorm = np.linalg.norm(u, axis=-1, keepdims=True)
    scale = np.linalg.norm(v, axis=-1, keepdims=True) + np.linalg.norm(w, axis=-1, keepdims=True)
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
    z = 0.5 * (v + w)
    u, unorm, k, safe = _unit_rel(v, w)
    half = 0.25 * (1.0 - e) * u + 0.25 * (1.0 + e) * unorm * sigma
    vp = z + half
    wp = z - half
    ks = np.sum(k * sigma, axis=-1, keepdims=True)
    denom = np.sqrt(2.0 * (1.0 + e * e) + 2.0 * (1.0 - e * e) * ks)
    sigmap = ((1.0 + e) * k + (1.0 - e) * sigma) / denom
    sigmap = np.where(safe[..., None], sigmap, sigma)
    return vp, wp, sigmap, safe


def swap_inverse(v, w, sigma, e: float):
    """Pre-collisional swap map, the inverse of swap_forward at the same e.

    It divides by e, so e outside (0, 1] raises ValueError. The outputs and
    the unsafe case (v == w: v, w and sigma unchanged) are as in swap_forward.
    """
    e = _check_e(e)
    z = 0.5 * (v + w)
    u, unorm, k, safe = _unit_rel(v, w)
    half = -(1.0 - e) / (4.0 * e) * u + (1.0 + e) / (4.0 * e) * unorm * sigma
    vs = z + half
    ws = z - half
    ks = np.sum(k * sigma, axis=-1, keepdims=True)
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
    r = np.linalg.norm(eta, axis=-1, keepdims=True)
    m = eta / np.where(r > 0.0, r, 1.0)
    eta_m = 0.25 * (1.0 + e) * (eta - r * sigma)
    eta_p = eta - eta_m

    def dot(a, b):
        return np.einsum("ij,ij->i", a, b)[:, None]

    def P(x):
        return dot(sigma, x) * m + dot(m, sigma) * x - dot(m, x) * sigma

    c = (1.0 + e) / (4.0 * e)
    Z = (3.0 * e - 1.0) / (4.0 * e) * eta_p + c * P(eta_p) + c * eta_m - c * P(eta_m)
    target = eta + (1.0 - e * e) / (4.0 * e) * (dot(eta, sigma) * m - r * sigma)
    return np.linalg.norm(Z - target, axis=-1)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the change-of-variables identities

_LOG_Q_NORM = -1.5 * math.log(2.0 * math.pi)


def block_rng(seed: int, tag: int) -> np.random.Generator:
    """Philox stream keyed by (seed, tag) mod 2^64, one independent stream per pair."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    """m uniform directions on S^2 as (m, 3) unit rows: normalised Gaussian draws."""
    x = rng.standard_normal((m, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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
    analogue, with bare rate Btilde = 2|k.n|. which = "sphere-identity"
    checks, for the fixed relative velocity u = (2, 0, 0) and a scalar test
    function K on R^3,

      mean_sigma K((u - |u| sigma)/2) = mean_n (2|u.n|/|u|) K((u.n) n),

    both sides as expectations over a uniformly drawn direction.

    Velocities are importance-sampled from a standard Gaussian; kernels must
    decay fast enough (Gaussian-bump test kernels with width <= 1 do). LHS
    and RHS use independent Philox substreams, so the two standard errors may
    be combined in quadrature. Returns (lhs, rhs, stderr_lhs, stderr_rhs).
    """
    e = _check_e(e)
    if samples < 1:
        raise ValueError("samples must be positive")
    seed = int(seed)

    if which == "sphere-identity":
        uvec = np.array([2.0, 0.0, 0.0])
        unorm = 2.0

        def lhs_block(rng, m):
            sigma = uniform_sphere(rng, m)
            return np.asarray(K((uvec[None] - unorm * sigma) / 2.0), dtype=float)

        def rhs_block(rng, m):
            n = uniform_sphere(rng, m)
            un = n @ uvec
            return (2.0 * np.abs(un) / unorm) * np.asarray(K(un[:, None] * n), dtype=float)

        lhs, se_l = _mc_reduce(lhs_block, samples, seed, 0)
        rhs, se_r = _mc_reduce(rhs_block, samples, seed, 1 << 62)
        return lhs, rhs, se_l, se_r

    if which not in ("sigma-theorem", "n-theorem"):
        raise ValueError(f"unknown identity {which!r}")

    B_e_plus, Bt_e_plus = effective_gain_rates(e)

    def draw(rng, m):
        v = rng.standard_normal((m, 3))
        w = rng.standard_normal((m, 3))
        omega = uniform_sphere(rng, m)
        # inverse importance weight exp(|v|^2/2 + |w|^2/2) / (2 pi)^-3
        logw = 0.5 * (np.sum(v * v, axis=1) + np.sum(w * w, axis=1)) - 2.0 * _LOG_Q_NORM
        return v, w, omega, np.exp(logw)

    if which == "sigma-theorem":
        def lhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            ks = np.sum(k * sigma, axis=1)
            vs, ws, ss, _ = swap_inverse(v, w, sigma, e)
            val = np.asarray(K(vs, ws, ss, v, w, sigma), dtype=float)
            return np.where(safe, val * B_e_plus(ks) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            _, _, _, safe = _unit_rel(v, w)
            vp, wp, sp, _ = swap_forward(v, w, sigma, e)
            val = np.asarray(K(v, w, sigma, vp, wp, sp), dtype=float)
            return np.where(safe, val * wt, 0.0)
    else:
        def lhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = np.sum(k * n, axis=1)
            vs, ws = reflect(v, w, n, (1.0 + e) / (2.0 * e))
            val = np.asarray(K(vs, ws, n, v, w, n), dtype=float)
            return np.where(safe, val * Bt_e_plus(kn) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = np.sum(k * n, axis=1)
            vp, wp = reflect(v, w, n, 0.5 * (1.0 + e))
            val = np.asarray(K(v, w, n, vp, wp, n), dtype=float)
            return np.where(safe, val * (2.0 * np.abs(kn)) * wt, 0.0)

    lhs, se_l = _mc_reduce(lhs_block, samples, seed, 0)
    rhs, se_r = _mc_reduce(rhs_block, samples, seed, 1 << 62)
    return lhs, rhs, se_l, se_r

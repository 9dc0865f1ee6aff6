"""Collision kinematics for inelastic Maxwell molecules.

Two parameterizations of the same binary collision are supported: the
reflection map (impact direction n, any unit vector) and the swapping map
(post-collisional direction sigma). Both conserve momentum; energy in the
relative coordinate is contracted by the restitution coefficient e. The
module provides the forward and pre-collisional (inverse) maps, the n <-> sigma
conversions with their measure factors, the effective gain-term rates produced
by the change of variables, and Monte Carlo verification of the
change-of-variables identities.

The collision rate is the constant Maxwell rate: B(s) = 1 in the swapping
picture (s = k.sigma) and Btilde(t) = 2|t| in the reflection picture
(t = k.n). All maps are exact algebraic formulas, and the dissipation rate is
E = (1 - e^2)/8 in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "REFLECTION",
    "SWAP",
    "UnitVector3",
    "CollisionTriple",
    "Restitution",
    "collide",
    "precollide",
    "convert_param",
    "effective_gain_rates",
    "dissipation_rate",
    "fisher_growth_exponent",
    "check_z_identity",
    "mc_change_of_variables",
]

REFLECTION = "reflection"
SWAP = "swap"


def _as_triple_of_floats(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


class UnitVector3:
    """Direction on S^2, renormalized on construction.

    Construction rejects vectors with norm below 1e-12; anything else is
    scaled to unit length so downstream formulas may assume |n| = 1 exactly
    to rounding.
    """

    __slots__ = ("vec",)

    def __init__(self, vec) -> None:
        if isinstance(vec, UnitVector3):
            self.vec = vec.vec.copy()
            return
        a = _as_triple_of_floats(vec)
        norm = float(np.linalg.norm(a))
        if norm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        self.vec = a / norm

    def dot(self, other) -> float:
        o = other.vec if isinstance(other, UnitVector3) else _as_triple_of_floats(other)
        return float(self.vec @ o)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.vec, dtype=dtype)

    def __repr__(self) -> str:
        return f"UnitVector3({self.vec.tolist()})"


@dataclass(frozen=True)
class CollisionTriple:
    """A velocity pair plus collision parameter (v, w, omega).

    `param` selects the parameterization the omega direction refers to:
    REFLECTION for the impact-direction map, SWAP for the post-collisional
    direction map. `grazing` marks a swap collision that was skipped because
    v == w leaves the direction of the relative velocity undefined.
    """

    v: np.ndarray
    w: np.ndarray
    omega: UnitVector3
    param: str
    grazing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "v", _as_triple_of_floats(self.v))
        object.__setattr__(self, "w", _as_triple_of_floats(self.w))
        if not isinstance(self.omega, UnitVector3):
            object.__setattr__(self, "omega", UnitVector3(self.omega))
        if self.param not in (REFLECTION, SWAP):
            raise ValueError(f"param must be {REFLECTION!r} or {SWAP!r}, got {self.param!r}")


def _check_e(e, allow_zero: bool = False) -> float:
    e = float(getattr(e, "e", e))
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

    E is the energy dissipation constant, `growth` the Fisher-information
    growth rate (1-e)(2+e+15e^2)/(8e^3), c1 = growth/2 - E, and omega the
    small-inelasticity entropy production rate (2+e+15e^2)/(4e^3) - (1+e)/2.
    E and growth vanish together exactly at e = 1.
    """

    e: float
    E: float = field(init=False)
    growth: float = field(init=False)
    c1: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        e = _check_e(self.e)
        object.__setattr__(self, "e", e)
        E = dissipation_rate(e)
        g = (1.0 - e) * (2.0 + e + 15.0 * e * e) / (8.0 * e ** 3)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "growth", g)
        object.__setattr__(self, "c1", g / 2.0 - E)
        object.__setattr__(self, "omega",
                           (2.0 + e + 15.0 * e * e) / (4.0 * e ** 3) - (1.0 + e) / 2.0)


def fisher_growth_exponent(e) -> tuple[float, float, float]:
    """Growth rate of Fisher information along the flow, for the constant rate.

    Returns (growth, c1, trajectory_exponent) where trajectory_exponent =
    growth - 2E bounds the log-derivative of I(g(t)) in the rescaled frame.
    """
    r = Restitution(_check_e(e))
    return r.growth, r.c1, r.growth - 2.0 * r.E


# ---------------------------------------------------------------------------
# vectorized collision maps; (m, 3) arrays in, (m, 3) arrays out


def _reflect(v: np.ndarray, w: np.ndarray, n: np.ndarray, coef: float):
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


def _swap_forward(v, w, sigma, e: float):
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


def _swap_inverse(v, w, sigma, e: float):
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


def collide(triple: CollisionTriple, e) -> CollisionTriple:
    """Apply the forward collision map in the triple's own parameterization.

    A swap triple with v == w is returned unchanged with grazing=True: the
    relative direction is undefined there and the collision is a no-op.
    """
    e = _check_e(e)
    n = triple.omega.vec
    if triple.param == REFLECTION:
        vp, wp = _reflect(triple.v, triple.w, n, 0.5 * (1.0 + e))
        return replace(triple, v=vp, w=wp)
    vp, wp, sp, safe = _swap_forward(triple.v[None], triple.w[None], n[None], e)
    if not bool(safe[0]):
        return replace(triple, grazing=True)
    return replace(triple, v=vp[0], w=wp[0], omega=UnitVector3(sp[0]))


def precollide(triple: CollisionTriple, e) -> CollisionTriple:
    """Apply the pre-collisional (inverse) map; rejects e = 0.

    collide(precollide(T, e), e) recovers T. In the reflection picture the
    inverse is the forward map run at effective restitution 1/e.
    """
    e = _check_e(e)
    n = triple.omega.vec
    if triple.param == REFLECTION:
        vs, ws = _reflect(triple.v, triple.w, n, (1.0 + e) / (2.0 * e))
        return replace(triple, v=vs, w=ws)
    vs, ws, ss, safe = _swap_inverse(triple.v[None], triple.w[None], n[None], e)
    if not bool(safe[0]):
        return replace(triple, grazing=True)
    return replace(triple, v=vs[0], w=ws[0], omega=UnitVector3(ss[0]))


def convert_param(k, omega, direction: str) -> UnitVector3:
    """Convert the collision parameter between pictures at relative direction k.

    direction "n_to_sigma": sigma = k - 2 (k.n) n.
    direction "sigma_to_n": n = (k - sigma)/|k - sigma|; sigma parallel to k
    is the degenerate grazing ray and is rejected. The round trip returns n up
    to sign, and |k.n| = sqrt((1 - k.sigma)/2) ties the two measures together.
    """
    kv = UnitVector3(k).vec
    ov = UnitVector3(omega).vec
    if direction == "n_to_sigma":
        return UnitVector3(kv - 2.0 * float(kv @ ov) * ov)
    if direction == "sigma_to_n":
        d = kv - ov
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            raise ValueError("sigma coincides with k: impact direction undefined")
        return UnitVector3(d / norm)
    raise ValueError(f"direction must be 'n_to_sigma' or 'sigma_to_n', got {direction!r}")


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


def check_z_identity(eta, sigma, e) -> float:
    """Residual of the vector identity used in the Fisher gain bound.

    With eta- = ((1+e)/4)(eta - |eta| sigma), eta+ = eta - eta-, unit
    direction m = eta/|eta| and P_{sigma,m}(x) = (sigma.x) m + (m.sigma) x
    - (m.x) sigma, the combination

      ((3e-1)/(4e)) eta+ + ((1+e)/(4e)) P(eta+) + ((1+e)/(4e)) eta-
        - ((1+e)/(4e)) P(eta-)

    equals eta + ((1-e^2)/(4e)) ((eta.sigma) m - |eta| sigma). Returns the
    euclidean norm of the difference; exact algebra gives ~1e-16 |eta|.
    """
    e = _check_e(e)
    eta = _as_triple_of_floats(eta)
    sig = UnitVector3(sigma).vec
    r = float(np.linalg.norm(eta))
    if r == 0.0:
        return 0.0
    m = eta / r
    eta_m = 0.25 * (1.0 + e) * (eta - r * sig)
    eta_p = eta - eta_m

    def P(x):
        return (sig @ x) * m + (m @ sig) * x - (m @ x) * sig

    c = (1.0 + e) / (4.0 * e)
    Z = (3.0 * e - 1.0) / (4.0 * e) * eta_p + c * P(eta_p) + c * eta_m - c * P(eta_m)
    target = eta + (1.0 - e * e) / (4.0 * e) * ((eta @ sig) * m - r * sig)
    return float(np.linalg.norm(Z - target))


# ---------------------------------------------------------------------------
# Monte Carlo verification of the change-of-variables identities

_LOG_Q_NORM = -1.5 * math.log(2.0 * math.pi)


def _block_rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
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
        vals = block_fn(_block_rng(seed, tag0 + b), m)
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
                           samples: int = 10 ** 6, seed: int = 0, u=None):
    """Monte Carlo check of a change-of-variables identity.

    which = "sigma-theorem": LHS integrates K[pre-collisional triple, triple]
    against the effective gain rate in the swapping picture, RHS integrates
    K[triple, post-collisional triple] against the bare rate B = 1; the
    identity asserts equality. which = "n-theorem" is the reflection-picture
    analogue, with bare rate Btilde = 2|k.n|. which = "sphere-identity"
    checks, for a fixed relative velocity u (default (2,0,0)) and a scalar
    test function K on R^3,

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
        uvec = _as_triple_of_floats((2.0, 0.0, 0.0) if u is None else u)
        unorm = float(np.linalg.norm(uvec))
        if unorm == 0.0:
            raise ValueError("sphere identity needs a nonzero relative velocity")

        def lhs_block(rng, m):
            sigma = _uniform_sphere(rng, m)
            return np.asarray(K((uvec[None] - unorm * sigma) / 2.0), dtype=float)

        def rhs_block(rng, m):
            n = _uniform_sphere(rng, m)
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
        omega = _uniform_sphere(rng, m)
        # inverse importance weight exp(|v|^2/2 + |w|^2/2) / (2 pi)^-3
        logw = 0.5 * (np.sum(v * v, axis=1) + np.sum(w * w, axis=1)) - 2.0 * _LOG_Q_NORM
        return v, w, omega, np.exp(logw)

    if which == "sigma-theorem":
        def lhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            ks = np.sum(k * sigma, axis=1)
            vs, ws, ss, _ = _swap_inverse(v, w, sigma, e)
            val = np.asarray(K(vs, ws, ss, v, w, sigma), dtype=float)
            return np.where(safe, val * B_e_plus(ks) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, sigma, wt = draw(rng, m)
            _, _, _, safe = _unit_rel(v, w)
            vp, wp, sp, _ = _swap_forward(v, w, sigma, e)
            val = np.asarray(K(v, w, sigma, vp, wp, sp), dtype=float)
            return np.where(safe, val * wt, 0.0)
    else:
        def lhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = np.sum(k * n, axis=1)
            vs, ws = _reflect(v, w, n, (1.0 + e) / (2.0 * e))
            val = np.asarray(K(vs, ws, n, v, w, n), dtype=float)
            return np.where(safe, val * Bt_e_plus(kn) * wt, 0.0)

        def rhs_block(rng, m):
            v, w, n, wt = draw(rng, m)
            _, _, k, safe = _unit_rel(v, w)
            kn = np.sum(k * n, axis=1)
            vp, wp = _reflect(v, w, n, 0.5 * (1.0 + e))
            val = np.asarray(K(v, w, n, vp, wp, n), dtype=float)
            return np.where(safe, val * (2.0 * np.abs(kn)) * wt, 0.0)

    lhs, se_l = _mc_reduce(lhs_block, samples, seed, 0)
    rhs, se_r = _mc_reduce(rhs_block, samples, seed, 1 << 62)
    return lhs, rhs, se_l, se_r

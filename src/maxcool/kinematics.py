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
bound, and Monte Carlo verification of the change-of-variables identities.
The Monte Carlo draws each Philox block of samples once, however many
identities share its stream, and maps it in cache-sized row tiles stored
component-major; the sample order and every estimate are those of one
whole-block reduction per identity.

The collision rate is the constant Maxwell rate: B(s) = 1 in the swapping
picture (s = k.sigma) and Btilde(t) = 2|t| in the reflection picture
(t = k.n). All maps are exact algebraic formulas, and the dissipation rate is
E = (1 - e^2)/8 in closed form.
"""

from __future__ import annotations

import math
import operator
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
    return _reflect(v, w, n, coef, _dot(v - w, n))


def _reflect(v, w, n, coef: float, un):
    # reflect on the row dot products un = (v - w).n its caller already holds
    c = coef * un[..., None] * n
    return v - c, w + c


def _rel(v: np.ndarray, w: np.ndarray):
    # the relative velocity u = v - w and |u| as an (m, 1) column
    u = v - w
    return u, np.sqrt(_dot(u, u))[..., None]


def _where(mask, x, y):
    # np.where(mask, x, y), skipped when every row is selected: np.where(True,
    # x, y) is x bit for bit when x already has the broadcast shape
    return x if mask.all() else np.where(mask, x, y)


def _unit_rel(v: np.ndarray, w: np.ndarray, vv=None, ww=None):
    # Relative directions are flagged unsafe below ~1e-13 of the pair's
    # scale: there v - w is pure cancellation noise and k is meaningless.
    # vv, ww are |v|^2 and |w|^2 when the caller already holds them.
    u, unorm = _rel(v, w)
    if vv is None:
        vv, ww = _dot(v, v), _dot(w, w)
    scale = np.sqrt(vv)[..., None] + np.sqrt(ww)[..., None]
    safe = unorm > 1e-13 * (scale + 1.0)
    if safe.all():
        k = u / unorm
    else:
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
    return _swap_forward(v, w, sigma, e, rel, _dot(rel[2], sigma))


def _swap_forward(v, w, sigma, e: float, rel, ks):
    # swap_forward on the _unit_rel(v, w) and row dot products ks = k.sigma
    # its caller already holds
    vp, wp = _swap_velocities(v, w, sigma, e, rel)
    _, _, k, safe = rel
    denom = np.sqrt(2.0 * (1.0 + e * e) + 2.0 * (1.0 - e * e) * ks[..., None])
    sigmap = ((1.0 + e) * k + (1.0 - e) * sigma) / denom
    return vp, wp, _where(safe[..., None], sigmap, sigma), safe


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
    rel = _unit_rel(v, w)
    return _swap_inverse(v, w, sigma, _check_e(e), rel, _dot(rel[2], sigma))


def _swap_inverse(v, w, sigma, e: float, rel, ks):
    # swap_inverse on the _unit_rel(v, w) and row dot products ks = k.sigma
    # its caller already holds
    z = 0.5 * (v + w)
    u, unorm, k, safe = rel
    half = -(1.0 - e) / (4.0 * e) * u + (1.0 + e) / (4.0 * e) * unorm * sigma
    vs = z + half
    ws = z - half
    denom = np.sqrt(2.0 * (1.0 + e * e) - 2.0 * (1.0 - e * e) * ks[..., None])
    sigmas = ((1.0 + e) * k - (1.0 - e) * sigma) / denom
    return vs, ws, _where(safe[..., None], sigmas, sigma), safe


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


_MC_BLOCK = 1 << 16  # samples per Philox block
_MC_TILE = 1 << 13  # rows of a block mapped at a time; a tile's (t, 3) array is 192 KiB


def _mc_sides(K: Callable, e, which: str):
    # (lhs, rhs) of one identity: each takes a tile's shared (v, w, d, rel,
    # k.d, (v - w).d) to K times the collision rate, before the importance weight
    e = _check_e(e)
    if which not in ("sigma-theorem", "n-theorem"):
        raise ValueError(f"unknown identity {which!r}")
    B_e_plus, Bt_e_plus = effective_gain_rates(e)

    def kernel(*args):
        return np.asarray(K(*args), dtype=float)

    if which == "sigma-theorem":
        def lhs(v, w, sigma, rel, ks, un):
            vs, ws, ss, _ = _swap_inverse(v, w, sigma, e, rel, ks)
            return kernel(vs, ws, ss, v, w, sigma) * B_e_plus(ks)

        def rhs(v, w, sigma, rel, ks, un):
            vp, wp, sp, _ = _swap_forward(v, w, sigma, e, rel, ks)
            return kernel(v, w, sigma, vp, wp, sp)
    else:
        def lhs(v, w, n, rel, kn, un):
            vs, ws = _reflect(v, w, n, (1.0 + e) / (2.0 * e), un)
            return kernel(vs, ws, n, v, w, n) * Bt_e_plus(kn)

        def rhs(v, w, n, rel, kn, un):
            vp, wp = _reflect(v, w, n, 0.5 * (1.0 + e), un)
            return kernel(v, w, n, vp, wp, n) * (2.0 * np.abs(kn))
    return lhs, rhs


def _mc_tile(x):
    # the quantities every identity shares on one tile, from a component-major
    # (3, 3, t) copy of its rows of the draw: the side arguments (v, w, unit
    # directions d, _unit_rel(v, w), k.d, (v - w).d), the inverse importance
    # weight exp(|v|^2/2 + |w|^2/2) / (2 pi)^-3, and the safe rows
    v, w, d = x[0].T, x[1].T, _unit_rows(x[2].T)
    vv, ww = _dot(v, v), _dot(w, w)
    rel = _unit_rel(v, w, vv, ww)
    wt = np.exp(0.5 * (vv + ww) - 2.0 * _LOG_Q_NORM)
    return (v, w, d, rel, _dot(rel[2], d), _dot(rel[0], d)), wt, rel[3]


def _mc_identities(jobs, samples, seed):
    """Several change-of-variables identities on one sample stream.

    jobs are (K, e, which) triples, read as in mc_change_of_variables at the
    given samples and seed. Each side draws its Philox blocks once for all
    jobs and maps each block in tiles of _MC_TILE rows; every job evaluates
    each tile and writes its values into its own block array, which is then
    reduced whole, so each job gets the bits of its own call. Returns one
    entry per job: (lhs, rhs, stderr_lhs, stderr_rhs), or the exception that
    stopped that job (the others run on).
    """
    try:  # numpy bools have no __index__; Python's would count as 0 or 1
        samples = None if isinstance(samples, bool) else operator.index(samples)
    except TypeError:
        samples = None
    if samples is None or samples < 1:
        raise ValueError("samples must be a positive integer")
    seed = int(seed)

    out: list = [None] * len(jobs)
    live = {}
    for j, job in enumerate(jobs):
        try:
            live[j] = _mc_sides(*job)
        except Exception as exc:
            out[j] = exc

    def fail(j, exc):
        out[j] = exc
        del live[j]

    moments = {j: [] for j in live}
    for side, tag0 in enumerate((0, 1 << 62)):
        # fixed ascending-block reduction keeps the estimate bit-reproducible
        sums = {j: [0.0, 0.0] for j in live}
        count = b = 0
        while count < samples and live:
            m = min(_MC_BLOCK, samples - count)
            x = block_rng(seed, tag0 + b).standard_normal((3, m, 3))
            vals = {j: np.empty(m) for j in live}
            for lo in range(0, m, _MC_TILE):
                hi = min(lo + _MC_TILE, m)
                args, wt, safe = _mc_tile(np.ascontiguousarray(x[:, lo:hi].transpose(0, 2, 1)))
                for j in list(vals):
                    try:
                        vals[j][lo:hi] = _where(safe, live[j][side](*args) * wt, 0.0)
                    except Exception as exc:
                        fail(j, exc)
                        del vals[j]
            for j, y in vals.items():
                if not np.all(np.isfinite(y)):
                    fail(j, ValueError("kernel produced non-finite Monte Carlo samples"))
                    continue
                sums[j][0] += float(np.sum(y))
                sums[j][1] += float(np.sum(y * y))
            count += m
            b += 1
        for j in live:
            total, total_sq = sums[j]
            mean = total / count
            var = max(total_sq - count * mean * mean, 0.0) / max(count - 1, 1)
            moments[j].append((mean, math.sqrt(var / count)))
    for j in live:
        (lhs, se_l), (rhs, se_r) = moments[j]
        out[j] = (lhs, rhs, se_l, se_r)
    return out


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
    be combined in quadrature. samples must be a positive integer (bool is
    not). Returns (lhs, rhs, stderr_lhs, stderr_rhs) as Python floats.

    Sample order: each side runs blocks b = 0, 1, ... of 2^16 samples (the
    last one partial) on block_rng(seed, tag0 + b), tag0 = 0 for LHS and
    2^62 for RHS. Each block draws v, w and the Gaussian normals of the
    directions as three C-ordered (m, 3) standard-normal arrays, in that
    order (one (3, m, 3) draw), and each block's values are summed whole.
    K is called on row tiles of a block, (t, 3) arrays stored
    component-major, so it must act row by row (the value of a row may
    depend on that row alone); every kernel in this package does.
    """
    (result,) = _mc_identities([(K, e, which)], samples, seed)
    if isinstance(result, Exception):
        raise result
    return result

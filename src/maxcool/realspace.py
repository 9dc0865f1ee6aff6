"""Isotropic velocity densities and their real-space functionals.

A radial characteristic profile phi(x) determines an isotropic density by
Fourier inversion, f(r) = (1/(2 pi^2 r)) int_0^inf phi(x) x sin(xr) dx, with
the r = 0 limit (1/(2 pi^2)) int x^2 phi dx. The Simpson sum over m abscissae
is taken at all R output nodes r_j = j dr at once by angle addition: writing
j = pB + l with B = ceil(sqrt(R)) splits
sin(x r_j) = sin(x pB dr) cos(x l dr) + cos(x pB dr) sin(x l dr), so the sum
is two (sqrt(R) x m)(m x sqrt(R)) matrix products instead of an m x R
kernel, and requires the output nodes to equal j dr to a few ulp, as
np.linspace gives. Everything but phi is fixed by the lattice, the profile
grid with m and the R nodes of spacing dr, so `reconstruct` keeps one
`_Lattice` per lattice, in a FIFO cache of at most `spectral._CACHE_CAP`:
the abscissae, their Simpson weights, a `spectral._PrefixPlan` of them (the
one path of every evaluation at fixed positions; the drift and
`spectral.evaluate` take it too) and the four m x sqrt(R) sine and cosine
tables. Only the abscissae below the profile's saturated tail, past which
phi is exactly +0, are summed (x ~ 11 for a Gaussian tail on the (4096, 50)
grid, so the first M = 909 of 4097): the plan gathers phi there and is
filled only as far as a profile's live prefix has needed, and a table row is
computed when a call first needs it, once (about 4 sqrt(R) sines per row).
So a lattice holds 32 M sqrt(R) bytes of resident tables for the widest
live prefix M asked of it, not 32 m sqrt(R).

On top of reconstructed (or closed-form sampled) densities this module
provides the Fisher information I(f) = int 4 pi r^2 f (d ln f / dr)^2 dr,
L1/L2 distances, relative entropy, and a suite of functional inequalities
with explicit constants:

  - Nash:        ||f||_{Hdot r} >= c_{r,d} ||f||_{Hdot (r-d/2)}^{(2r+3)/(2r+3-d)}
  - interpolation: ||f-g||_{Hdot s} <= C(b1,b2) d2(f,g)^{1-b2}
                     min(||f-g||_{Hdot r1}, ||f-g||_{Hdot r2})^{b2}
  - L2 + moment -> L1: ||f||_1 <= C(p) ||f||_2^{4p/(3+4p)} m_{2p}^{3/(3+4p)}

Sobolev seminorms are Fourier-side throughout: ||f||_{Hdot r}^2 =
int |eta|^{2r} |fhat|^2 d eta = 4 pi int x^{2r+2} phi(x)^2 dx for radial fhat,
matching spectral.sobolev_norm. Fisher bounds along the flow use the rate
constants from kinematics (growth exponent and its rescaled-frame variant).
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np

from . import spectral
from .kinematics import _check_e, fisher_growth_exponent, growth_rate
from .spectral import CharacteristicProfile, trapezoid

__all__ = [
    "RadialDensity",
    "simpson_weights",
    "simpson",
    "default_r_nodes",
    "reconstruct",
    "fisher_information",
    "fisher_gain_check",
    "fisher_trajectory_check",
    "fourier_sup_vs_fisher",
    "l1_distance",
    "l2_norm",
    "relative_entropy",
    "entropy_route_check",
    "nash_constant",
    "interpolation_constants",
    "l1_lemma_constant",
    "l1_decay_rate",
    "inequality_suite",
]

logger = logging.getLogger(__name__)

FOUR_PI = 4.0 * math.pi

# negative lobes from truncated inversion: clip to 0, budget on clipped mass
_CLIP_BUDGET = 1e-6
_MASS_TOL = 1e-6
# Fisher support cut: the log-derivative amplifies tail noise quadratically
_SUPPORT_FLOOR = 1e-14
_TAIL_TARGET = 1e-8  # required profile decay at x_max before inversion
# multiplicative allowance of the Fisher trajectory bound for discretization
_FISHER_SLACK = 0.02


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on the uniform grid x (n >= 3).

    An even node count integrates the first n - 1 nodes by the plain rule and
    the last interval by Cartwright's correction, weights 5h/12, 2h/3 and
    -h/12 on the last three nodes, as scipy.integrate.simpson does.

    The weights depend only on n and the spacing h = (x[-1] - x[0])/(n - 1),
    so for h > 0 they are computed once per (n, h) and kept, read-only,
    while that lattice is among the last `spectral._CACHE_CAP` built;
    `simpson` and `RadialDensity` read the kept weights, and each kept
    reconstruction lattice holds its own. The values are those of computing
    them afresh, bit for bit, and this function returns a new array that the
    caller owns.
    """
    return _simpson_table(x).copy()


_SIMPSON_CACHE: dict[tuple, np.ndarray] = {}


def _simpson_table(x) -> np.ndarray:
    # the weights of `simpson_weights`, kept per lattice and read-only; the
    # key holds h's type beside its value, since a float32 h makes other
    # weights, and a zero, negative or NaN spacing is not kept
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    if not h > 0:
        return _simpson_build(n, h)
    return spectral._cached(_SIMPSON_CACHE, (n, type(h), h), lambda: _simpson_build(n, h))


def _simpson_build(n: int, h) -> np.ndarray:
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[0:m - 2:2] += h / 3.0
    w[1:m - 1:2] += 4.0 * h / 3.0
    w[2:m:2] += h / 3.0
    if m < n:
        w[-3:] += h * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    w.flags.writeable = False
    return w


def simpson(y, x: np.ndarray) -> float:
    """Composite Simpson rule for samples y on the uniform grid x (n >= 3)."""
    return float(_simpson_table(x) @ np.asarray(y, dtype=float))


def default_r_nodes(r_max: float = 8.0, n: int = 1601) -> np.ndarray:
    """Uniform radial velocity grid [0, r_max] (odd n keeps Simpson clean)."""
    if not (0 < r_max < math.inf) or n < 9:
        raise ValueError("need a finite r_max > 0 and at least 9 nodes")
    return np.linspace(0.0, float(r_max), int(n))


def _check_r_nodes(r_nodes) -> np.ndarray:
    r = np.asarray(r_nodes, dtype=float)
    if r.ndim != 1 or len(r) < 9:
        raise ValueError("r_nodes must be a 1-D array with at least 9 nodes")
    if not np.all(np.isfinite(r)):
        raise ValueError("r_nodes must be finite")
    if r[0] != 0.0:
        raise ValueError("r_nodes must start at r = 0")
    dr = r[1] - r[0]
    if dr <= 0 or np.max(np.abs(np.diff(r) - dr)) > 1e-9 * max(1.0, r[-1]):
        raise ValueError("r_nodes must be uniformly increasing")
    return r


class RadialDensity:
    """Isotropic probability density sampled on a uniform radial grid.

    Negative values (tiny lobes from truncated inversion) are clipped to 0;
    the clipped mass is logged and must stay below 1e-6. Total mass
    4 pi int r^2 f dr must equal 1 within 1e-6. mass and m2 are cached.
    """

    __slots__ = ("r", "values", "dr", "mass", "m2", "clipped_mass")

    def __init__(self, r_nodes, f_values) -> None:
        r = _check_r_nodes(r_nodes)
        f = np.asarray(f_values, dtype=float)
        if f.shape != r.shape:
            raise ValueError("f_values must match r_nodes in shape")
        if not np.all(np.isfinite(f)):
            raise ValueError("density values must be finite")
        neg = np.minimum(f, 0.0)
        clipped = -FOUR_PI * float(simpson(r * r * neg, r))
        if clipped > _CLIP_BUDGET:
            raise ValueError(
                f"clipped negative mass {clipped:.3e} exceeds budget {_CLIP_BUDGET:g}")
        if clipped > 0.0:
            logger.info("RadialDensity: clipped negative mass %.3e", clipped)
        f = np.maximum(f, 0.0)
        mass = FOUR_PI * float(simpson(r * r * f, r))
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"density mass {mass:.9f} deviates from 1 beyond {_MASS_TOL:g}")
        self.r = r
        self.values = f
        self.dr = float(r[1] - r[0])
        self.mass = mass
        self.m2 = FOUR_PI * float(simpson(r ** 4 * f, r))
        self.clipped_mass = clipped

    @classmethod
    def maxwellian(cls, r_nodes, theta: float = 1.0) -> "RadialDensity":
        r = _check_r_nodes(r_nodes)
        if not (theta > 0):
            raise ValueError("theta must be positive")
        vals = (2.0 * math.pi * theta) ** -1.5 * np.exp(-r * r / (2.0 * theta))
        return cls(r, vals)

    @classmethod
    def mixture(cls, r_nodes, p: float = 0.5, theta1: float = 0.6,
                theta2: float = 1.4) -> "RadialDensity":
        r = _check_r_nodes(r_nodes)
        if not (0.0 < p < 1.0):
            raise ValueError("mixture weight p must lie in (0, 1)")
        if not (theta1 > 0 and theta2 > 0):
            raise ValueError("temperatures must be positive")
        vals = (p * (2.0 * math.pi * theta1) ** -1.5 * np.exp(-r * r / (2.0 * theta1))
                + (1.0 - p) * (2.0 * math.pi * theta2) ** -1.5
                * np.exp(-r * r / (2.0 * theta2)))
        return cls(r, vals)

    def moment(self, order: float) -> float:
        """Radial velocity moment 4 pi int r^{2+order} f dr (order >= 0)."""
        if order < 0:
            raise ValueError("moment order must be nonnegative")
        return FOUR_PI * float(simpson(self.r ** (2.0 + order) * self.values, self.r))

    def __repr__(self) -> str:
        return (f"RadialDensity(n={len(self.r)}, r_max={self.r[-1]:g}, "
                f"mass={self.mass:.6f})")


# ---------------------------------------------------------------------------
# reconstruction

def _required_xmax(x: np.ndarray, absv: np.ndarray, target: float) -> float:
    # extrapolate the tail decay exponentially to estimate where |phi| = target
    tail = max(float(np.max(absv[-max(2, len(x) // 100):])), 1e-300)
    above = np.nonzero(absv > max(1e-3, 10.0 * tail))[0]
    if len(above) == 0 or above[-1] >= len(x) - 2:
        return math.inf
    i1 = above[-1]
    rate = (math.log(absv[i1]) - math.log(tail)) / (x[-1] - x[i1])
    if rate <= 0:
        return math.inf
    return float(x[-1] + math.log(tail / target) / rate)


class _Lattice:
    """The kept state of one reconstruction lattice: a profile grid and an r-lattice.

    The Simpson abscissae xq = linspace(0, x_max, m) of the profile grid,
    their Simpson weights, a `spectral._PrefixPlan` of their grid positions
    and the four sine and cosine tables of the R output nodes r_j = j dr.
    Row i of sin/cos(x pB dr) holds xq_i times the P coarse angles, and row i
    of cos/sin(x l dr) xq_i times the B fine ones. The tables are
    `spectral._on_demand` reserves of m rows, of which the first `filled`
    are computed. `sums(v)` computes rows [filled, M) when a profile's live
    prefix M is wider than any before, with the expressions of a whole build
    applied to those rows alone, so every row holds the bits a whole build
    gives it, and the plan likewise fills each query once.
    """

    __slots__ = ("xq", "weights", "plan", "R", "coarse", "fine", "tables", "filled")

    def __init__(self, grid, m: int, R: int, dr: float) -> None:
        xq = self.xq = np.linspace(0.0, grid.x_max, m)
        self.weights = _simpson_build(m, (xq[-1] - xq[0]) / (m - 1))
        self.plan = spectral._PrefixPlan(xq / grid.dx, grid.n, grid.dx)
        B = math.isqrt(R - 1) + 1
        P = -(-R // B)
        self.R = R
        self.coarse = (B * dr) * np.arange(P)
        self.fine = dr * np.arange(B)
        self.tables = tuple(spectral._on_demand((m, k)) for k in (P, P, B, B))
        self.filled = 0

    def sums(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """(sum_i w_i phi_i x_i^2, sum_i w_i phi_i x_i sin(x_i r_j) for each j).

        Both run over the live prefix M of the profile values v (phi is
        exactly +0 past it). With j = pB + l the sine sums are the two
        (P x M)(M x B) products of angle addition.
        """
        values, M = self.plan.values(v)
        f = self.filled
        if M > f:
            sin_c, cos_c, cos_f, sin_f = (t[f:M] for t in self.tables)
            coarse = np.multiply.outer(self.xq[f:M], self.coarse)
            fine = np.multiply.outer(self.xq[f:M], self.fine)
            np.sin(coarse, out=sin_c)
            np.cos(coarse, out=cos_c)
            np.cos(fine, out=cos_f)
            np.sin(fine, out=sin_f)
            self.filled = M
        sin_c, cos_c, cos_f, sin_f = (t[:M] for t in self.tables)
        xs = self.xq[:M]
        wq = self.weights[:M] * values[:M]
        a = (wq * xs)[:, None]
        out = (a * sin_c).T @ cos_f
        out += (a * cos_c).T @ sin_f
        return float(wq @ (xs * xs)), out.ravel()[:self.R]


_LATTICE_CACHE: dict[tuple, _Lattice] = {}


def reconstruct(phi: CharacteristicProfile, r_nodes) -> RadialDensity:
    """Invert a characteristic profile to an isotropic density.

    f(r) = (1/(2 pi^2 r)) int_0^xmax phi(x) x sin(xr) dx by composite Simpson
    on m abscissae, at least 20 per sin period at the largest r; the r = 0
    node uses the limit (1/(2 pi^2)) int x^2 phi dx. The sums come from the
    kept `_Lattice` of (phi's grid, m, r_nodes): its prefix plan gathers phi
    at the abscissae below the saturated tail, with the values
    `spectral.evaluate` gives there (`spectral.evaluate` builds a plan per
    call), the rest, exactly +0, are left out, and its tables give all R
    sine sums at once by angle addition. So the sums differ from the full
    ones only by the BLAS grouping of the products, and a profile without a
    tail gets the full sums bit for bit. The angle addition needs r_j = j dr
    to 4 ulp of r_max, which is stricter than `RadialDensity`'s uniformity
    check; np.linspace nodes meet it. Refuses such off-lattice nodes,
    nonfinite ones, profiles that have not decayed at x_max (tail above
    1e-8) and inversions whose negative lobes exceed the clipped-mass
    budget, reporting the x_max that the tail decay suggests would be needed.
    """
    r = _check_r_nodes(r_nodes)
    grid = phi.grid
    x_max = grid.x_max
    absv = np.abs(phi.values)
    tail = float(np.max(absv[grid.x >= 0.98 * x_max]))
    if tail >= _TAIL_TARGET:
        need = _required_xmax(grid.x, absv, _TAIL_TARGET)
        raise ValueError(
            f"profile tail {tail:.2e} at x_max={x_max:g} exceeds {_TAIL_TARGET:g}; "
            f"estimated required x_max ~ {need:.3g}")
    R = len(r)
    dr = float(r[1])
    if np.max(np.abs(r - dr * np.arange(R))) > 4.0 * np.spacing(r[-1]):
        raise ValueError("output nodes must be j*dr to rounding (as np.linspace gives)")

    # >= 20 quadrature points per period of sin(x r_max), never coarser than
    # the profile's own grid; odd count for plain composite Simpson
    m = max(grid.n, int(math.ceil(20.0 * x_max * r[-1] / (2.0 * math.pi))) + 1)
    if m % 2 == 0:
        m += 1
    lattice = spectral._cached(_LATTICE_CACHE, (grid.n, x_max, m, R, dr),
                               lambda: _Lattice(grid, m, R, dr))
    origin, integrals = lattice.sums(phi.values)
    f = np.empty_like(r)
    f[0] = origin / (2.0 * math.pi ** 2)
    f[1:] = integrals[1:] / (2.0 * math.pi ** 2 * r[1:])

    neg = np.minimum(f, 0.0)
    clipped = -FOUR_PI * float(simpson(r * r * neg, r))
    if clipped > _CLIP_BUDGET:
        need = _required_xmax(grid.x, absv, 1e-12)
        raise ValueError(
            f"inversion clipped mass {clipped:.3e} exceeds budget {_CLIP_BUDGET:g}; "
            f"estimated required x_max ~ {need:.3g}")
    return RadialDensity(r, f)


# ---------------------------------------------------------------------------
# Fisher information

def fisher_information(f: RadialDensity) -> float:
    """I(f) = int 4 pi r^2 f (d ln f / dr)^2 dr on the truncated support.

    The support is the largest prefix with f >= 1e-14 max f (the integrand is
    quadratic in the log-derivative and amplifies tail noise); truncation
    removing more than 1e-6 mass triggers a warning. The log-derivative uses
    centered differences, with d(0) = 0 by even symmetry.
    """
    v = f.values
    fmax = float(np.max(v))
    if fmax <= 0:
        raise ValueError("density is identically zero")
    below = np.nonzero(v < _SUPPORT_FLOOR * fmax)[0]
    n_sup = int(below[0]) if len(below) else len(v)
    if n_sup < 9:
        raise ValueError("density support too small for the Fisher stencil")
    r = f.r[:n_sup]
    vs = v[:n_sup]
    removed = f.mass - FOUR_PI * float(simpson(r * r * vs, r))
    if removed > 1e-6:
        warnings.warn(f"Fisher support truncation removed mass {removed:.2e}")

    h = f.dr
    ln = np.log(vs)
    d = np.empty(n_sup)
    d[0] = 0.0  # even extension: f'(0) = 0 exactly for isotropic densities
    d[1:-1] = (ln[2:] - ln[:-2]) / (2.0 * h)
    d[-1] = (3.0 * ln[-1] - 4.0 * ln[-2] + ln[-3]) / (2.0 * h)
    return FOUR_PI * float(simpson(r * r * vs * d * d, r))


def fisher_gain_check(phi: CharacteristicProfile, e, r_nodes=None,
                      f: RadialDensity | None = None) -> dict:
    """Check I(Q+ f) <= (1 + growth(e)) I(f) for the density behind phi.

    growth(e) = (1-e)(2+e+15e^2)/(8e^3); the factor tends to 1 as e -> 1.
    A caller that holds f = reconstruct(phi, r_nodes) may pass it to skip
    the rebuild; the gained density is then reconstructed on f.r.
    Returns a report dict; the `holds` flag carries the verdict.
    """
    e = _check_e(e)
    if f is None:
        if r_nodes is None:
            r_nodes = default_r_nodes()
        f = reconstruct(phi, r_nodes)
    elif r_nodes is not None and not np.array_equal(np.asarray(r_nodes, dtype=float), f.r):
        raise ValueError("f must be reconstructed on r_nodes")
    gained = reconstruct(spectral.gain_fourier(phi, e), f.r)
    I_f = fisher_information(f)
    I_gain = fisher_information(gained)
    factor = 1.0 + growth_rate(e)
    report = {
        "e": e,
        "fisher_before": I_f,
        "fisher_after_gain": I_gain,
        "bound_factor": factor,
        "ratio": I_gain / I_f,
        "holds": bool(I_gain <= factor * I_f * (1.0 + 1e-9)),
    }
    if not report["holds"]:
        logger.error("fisher gain bound violated: %r", report)
    return report


def fisher_trajectory_check(phi0: CharacteristicProfile, e, config,
                            r_nodes=None, n_checks: int = 9) -> dict:
    """Evolve in the rescaled frame and check the Fisher growth bound.

    Asserts I(g(t)) <= exp((growth - 2E) t) I(g(0)) (1 + slack), with the
    fixed slack 0.02 for discretization, which the report carries. Also
    reports whether I is non-increasing after the first sample (typically
    observed; stronger than the bound, not asserted).
    On failure the report carries the full trace and an error is logged.
    """
    e = _check_e(e)
    if config.frame != "rescaled-g":
        raise ValueError("fisher_trajectory_check requires the rescaled frame")
    if r_nodes is None:
        r_nodes = default_r_nodes()
    schedule = np.linspace(0.0, config.t_max, int(n_checks))
    trace = spectral.evolve(phi0, e, config, diagnostics_schedule=schedule,
                            keep_profiles=True)
    fisher = np.array([fisher_information(reconstruct(p, r_nodes))
                       for p in trace.profiles])
    exponent = fisher_growth_exponent(e)
    bounds = fisher[0] * np.exp(exponent * trace.times) * (1.0 + _FISHER_SLACK)
    holds = bool(np.all(fisher <= bounds))
    report = {
        "e": e,
        "exponent": exponent,
        "slack": _FISHER_SLACK,
        "times": trace.times.tolist(),
        "fisher": fisher.tolist(),
        "bounds": bounds.tolist(),
        "holds": holds,
        "nonincreasing_after_transient": bool(
            np.all(np.diff(fisher[1:]) <= 1e-9 * fisher[0])),
    }
    if not holds:
        logger.error("fisher trajectory bound violated: %r", report)
    return report


def fourier_sup_vs_fisher(phi: CharacteristicProfile, f: RadialDensity) -> float:
    """Ratio sup_x x |phi(x)| / sqrt(I(f)) for a matched profile/density pair.

    Scale invariant: dilations move numerator and denominator together. The
    suite pins an empirical bound (<= 0.5 on the corpus); no analytic constant
    is asserted.
    """
    t_phi = spectral.moment(phi, 2) / 3.0
    t_f = f.m2 / 3.0
    if abs(t_phi - t_f) > 1e-3 * max(t_phi, t_f):
        warnings.warn(f"profile/density temperatures differ: {t_phi:.6g} vs {t_f:.6g}")
    return spectral.sup_weighted(phi, 1.0) / math.sqrt(fisher_information(f))


# ---------------------------------------------------------------------------
# distances and entropy

def _check_common_grid(f1: RadialDensity, f2: RadialDensity) -> None:
    if len(f1.r) != len(f2.r) or np.max(np.abs(f1.r - f2.r)) > 1e-9 * max(1.0, f1.r[-1]):
        raise ValueError("densities must share a common radial grid")


def l1_distance(f1: RadialDensity, f2: RadialDensity) -> float:
    """4 pi int r^2 |f1 - f2| dr."""
    _check_common_grid(f1, f2)
    return FOUR_PI * float(simpson(f1.r ** 2 * np.abs(f1.values - f2.values), f1.r))


def l2_norm(f: RadialDensity) -> float:
    """(4 pi int r^2 f^2 dr)^{1/2}; equals (2 pi)^{-3/2} sobolev_norm(phi, 0)."""
    return math.sqrt(FOUR_PI * float(simpson(f.r ** 2 * f.values ** 2, f.r)))


def relative_entropy(f: RadialDensity, ref: RadialDensity) -> float:
    """H(f|ref) = 4 pi int r^2 f ln(f/ref) dr (0 where f = 0)."""
    _check_common_grid(f, ref)
    fv, rv = f.values, ref.values
    if np.any((fv > 0) & (rv <= 0)):
        return math.inf
    integrand = np.where(fv > 0, fv * np.log(np.where(fv > 0, fv, 1.0)
                                             / np.where(rv > 0, rv, 1.0)), 0.0)
    return FOUR_PI * float(simpson(f.r ** 2 * integrand, f.r))


def entropy_route_check(f: RadialDensity, theta: float) -> dict:
    """Check the chain (1/2)||f - M||_1^2 <= H(f|M) <= I(f) - I(M).

    M is the Maxwellian at temperature theta, which must match f's
    temperature; the unit-constant upper bound comes from the Gaussian
    log-Sobolev inequality with constant theta/2 and therefore requires
    theta <= 2 (enforced). Returns a report; `chain_holds` is the verdict.
    """
    if not (0.0 < theta <= 2.0):
        raise ValueError("entropy chain requires 0 < theta <= 2 "
                         "(log-Sobolev constant theta/2 must be <= 1)")
    t_f = f.m2 / 3.0
    if abs(t_f - theta) > 1e-3 * theta:
        raise ValueError(f"density temperature {t_f:.6g} does not match theta={theta:g}")
    M = RadialDensity.maxwellian(f.r, theta)
    l1 = l1_distance(f, M)
    H = relative_entropy(f, M)
    gap = fisher_information(f) - fisher_information(M)
    lhs = 0.5 * l1 * l1
    tol = 1e-12 + 1e-9 * max(abs(H), abs(gap))
    report = {
        "theta": theta,
        "l1": l1,
        "csiszar_lhs": lhs,
        "entropy": H,
        "fisher_gap": gap,
        "ck_ratio": H / lhs if lhs > 0 else math.inf,
        "chain_holds": bool(lhs <= H + tol and H <= gap + tol),
    }
    if not report["chain_holds"]:
        logger.error("entropy chain violated: %r", report)
    return report


# ---------------------------------------------------------------------------
# inequality suite

def nash_constant(r: float, delta: float) -> float:
    """c_{r,delta} = (1/2pi)^{2/(2r+3-d)} ((2r+3-d)/(2r+3))^{(2r+3)/(2r+3-d)}."""
    if not (0.0 < delta < 1.0 and r >= delta / 2.0):
        raise ValueError("need 0 < delta < 1 and r >= delta/2")
    a = 2.0 * r + 3.0
    return ((1.0 / (2.0 * math.pi)) ** (2.0 / (a - delta))
            * ((a - delta) / a) ** (a / (a - delta)))


def interpolation_constants(s: float, beta1: float, beta2: float) -> tuple[float, float, float]:
    """(C(b1,b2), r1, r2) with r1 = (s+2(1-b2))/b2, r2 = (2s+(7+b1)(1-b2))/(2 b2)."""
    if not (s >= 0 and beta1 > 0 and 0.0 < beta2 < 1.0):
        raise ValueError("need s >= 0, beta1 > 0, 0 < beta2 < 1")
    r1 = (s + 2.0 * (1.0 - beta2)) / beta2
    r2 = (2.0 * s + (7.0 + beta1) * (1.0 - beta2)) / (2.0 * beta2)
    C = ((4.0 * math.pi / 3.0) * (1.0 + 3.0 / beta1)) ** (1.0 - beta2)
    return C, r1, r2


def l1_lemma_constant(p: float) -> float:
    """C(p) = [(3/4p)^{4p/(3+4p)} + (4p/3)^{3/(3+4p)}] (4pi/3)^{2p/(3+4p)}."""
    if not (p > 0):
        raise ValueError("need p > 0")
    q = 3.0 + 4.0 * p
    return (((3.0 / (4.0 * p)) ** (4.0 * p / q) + (4.0 * p / 3.0) ** (3.0 / q))
            * (4.0 * math.pi / 3.0) ** (2.0 * p / q))


def l1_decay_rate(alpha: float, e, beta2: float = 0.5) -> dict:
    """L1 rate bookkeeping: gamma_tilde = (1-beta2) gamma, l1 rate = (8/11) gamma_tilde."""
    if not (0.0 < beta2 < 1.0):
        raise ValueError("need 0 < beta2 < 1")
    gamma = spectral.gamma_constants(alpha, e)[1]
    gt = (1.0 - beta2) * gamma
    return {"gamma": gamma, "gamma_tilde": gt, "l1_rate": (8.0 / 11.0) * gt}


def _hdot(x: np.ndarray, vals: np.ndarray, r: float) -> float:
    # Fourier-side Hdot^r seminorm of the (possibly signed) radial transform
    return math.sqrt(FOUR_PI * trapezoid(x ** (2.0 * r + 2.0) * vals ** 2, x))


_NASH = tuple((r, d) for r in (0.75, 1.0, 1.5) for d in (0.25, 0.5, 0.75))
_INTERPOLATION = tuple((0.0, b1, b2) for b1 in (0.5, 1.0, 2.0) for b2 in (0.3, 0.5, 0.7))
_L1_P = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)


def inequality_suite(phi: CharacteristicProfile, f: RadialDensity) -> dict:
    """Evaluate the Nash, interpolation, and L2+moment->L1 inequalities.

    Nash at the (r, delta) pairs of `_NASH`, interpolation at the
    (s, beta1, beta2) triples of `_INTERPOLATION`, L2+moment->L1 at the p
    values of `_L1_P`. The interpolation difference is taken against the
    Maxwellian at 1.2x the profile's temperature, so it is nonzero for every
    input including Maxwellians themselves. Asserts every inequality; on
    failure raises with all terms dumped.
    Returns {"checks": [...], "all_hold": True, "n_checks": ...}.
    """
    checks = []

    for r, d in _NASH:
        c = nash_constant(r, d)
        expo = (2.0 * r + 3.0) / (2.0 * r + 3.0 - d)
        lhs = spectral.sobolev_norm(phi, r)
        rhs = c * spectral.sobolev_norm(phi, r - d / 2.0) ** expo
        checks.append({"family": "nash", "params": {"r": r, "delta": d},
                       "constant": c, "lhs": lhs, "rhs": rhs,
                       "slack": lhs - rhs, "holds": bool(lhs >= rhs)})

    theta_ref = 1.2 * spectral.moment(phi, 2) / 3.0
    phi_ref = CharacteristicProfile.maxwellian(phi.grid, theta_ref)
    diff = phi.values - phi_ref.values
    x = phi.grid.x
    d2 = spectral.d2_distance(phi, phi_ref, warn_temperature=False)
    for s, b1, b2 in _INTERPOLATION:
        C, r1, r2 = interpolation_constants(s, b1, b2)
        lhs = _hdot(x, diff, s)
        rhs = C * d2 ** (1.0 - b2) * min(_hdot(x, diff, r1), _hdot(x, diff, r2)) ** b2
        checks.append({"family": "interpolation",
                       "params": {"s": s, "beta1": b1, "beta2": b2},
                       "constant": C, "r1": r1, "r2": r2, "d2": d2,
                       "lhs": lhs, "rhs": rhs,
                       "slack": rhs - lhs, "holds": bool(lhs <= rhs)})

    l2sq = l2_norm(f) ** 2
    for p in _L1_P:
        C = l1_lemma_constant(p)
        q = 3.0 + 4.0 * p
        rhs = C * l2sq ** (2.0 * p / q) * f.moment(2.0 * p) ** (3.0 / q)
        lhs = f.mass
        checks.append({"family": "l1", "params": {"p": p}, "constant": C,
                       "lhs": lhs, "rhs": rhs,
                       "slack": rhs - lhs, "holds": bool(lhs <= rhs)})

    all_hold = all(c["holds"] for c in checks)
    if not all_hold:
        failing = [c for c in checks if not c["holds"]]
        raise AssertionError(f"inequality suite failed {len(failing)} checks: {failing!r}")
    return {"checks": checks, "all_hold": True, "n_checks": len(checks)}


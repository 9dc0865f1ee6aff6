"""Closed-form references for the benchmark's output checks.

Independent of maxcool: every quantity here is derived on paper from the
constant-kernel inelastic Maxwell model, so a check that compares the
program against this module does not compare it against itself.

Writing the radial characteristic profile as phi = 1 - A x^2 + B x^4 + ...
with A = m2/6 and B = m4/120, the gain (1/2) int phi(a- x) phi(a+ x) ds over
s in [-1, 1] has x^2 coefficient -A (1 - 2E) and x^4 coefficient
B c4 + A^2 c22, which gives the moment laws below.
"""

from __future__ import annotations

import math

import numpy as np


def dissipation(e: float) -> float:
    """Energy dissipation rate E = (1 - e^2)/8 of the constant kernel."""
    return (1.0 - e * e) / 8.0


def _scale_coeffs(e: float) -> tuple[float, float, float]:
    # a-^2 = 2 al^2 (1 - s) and a+^2 = al^2 + be^2 + 2 al be s, both linear in s
    al = (1.0 + e) / 4.0
    be = (3.0 - e) / 4.0
    return al, be, al * al + be * be


def second_moment_coeff(e: float) -> float:
    """(1/2) int (a-^2 + a+^2) ds, exact (the integrand is linear in s)."""
    al, _, p = _scale_coeffs(e)
    return 2.0 * al * al + p


def c4(e: float) -> float:
    """(1/2) int (a-^4 + a+^4) ds, exact: int 1, s, s^2 ds = 2, 0, 2/3."""
    al, be, p = _scale_coeffs(e)
    return 16.0 / 3.0 * al ** 4 + p * p + 4.0 / 3.0 * al * al * be * be


def c22(e: float) -> float:
    """(1/2) int a-^2 a+^2 ds, exact."""
    al, be, p = _scale_coeffs(e)
    return al * al * (2.0 * p - 4.0 / 3.0 * al * be)


def rescaled_rate(e: float) -> float:
    """Relaxation rate 1 - c4 - 4E of B in the rescaled frame."""
    return 1.0 - c4(e) - 4.0 * dissipation(e)


def steady_m4(e: float, m2: float = 3.0) -> float:
    """m4* = 120 B* with B* = A^2 c22 / (1 - c4 - 4E) and A = m2/6."""
    a = m2 / 6.0
    return 120.0 * a * a * c22(e) / rescaled_rate(e)


def rescaled_moments(e: float, m2_0: float, m4_0: float, t) -> tuple:
    """(m2, m4) at times t in the rescaled frame: A is constant and B relaxes
    to B* at rate 1 - c4 - 4E."""
    t = np.asarray(t, dtype=float)
    m4s = steady_m4(e, m2_0)
    return np.full_like(t, m2_0), m4s + (m4_0 - m4s) * np.exp(-rescaled_rate(e) * t)


def unscaled_moments(e: float, m2_0: float, m4_0: float, t) -> tuple:
    """(m2, m4) at times t in the unscaled frame: A ~ exp(-2E t) and
    B' = -(1 - c4) B + c22 A^2, solved exactly."""
    t = np.asarray(t, dtype=float)
    E = dissipation(e)
    lam = 1.0 - c4(e)
    a0 = m2_0 / 6.0
    b0 = m4_0 / 120.0
    # lam - 4E = 1 - c4 - 4E > 0 for every e in (0, 1]
    b = b0 * np.exp(-lam * t) + c22(e) * a0 * a0 * (
        np.exp(-4.0 * E * t) - np.exp(-lam * t)) / (lam - 4.0 * E)
    return m2_0 * np.exp(-2.0 * E * t), 120.0 * b


def unscaled_jacobian(e: float, m2: float) -> np.ndarray:
    """d(m2, m4)/dt linearized about (m2, .) in the unscaled frame."""
    return np.array([[-2.0 * dissipation(e), 0.0],
                     [20.0 / 3.0 * c22(e) * m2, -(1.0 - c4(e))]])


def growth(e: float) -> float:
    """Fisher-information growth rate (1 - e)(2 + e + 15 e^2)/(8 e^3)."""
    return (1.0 - e) * (2.0 + e + 15.0 * e * e) / (8.0 * e ** 3)


def sweep_envelope(eps: float) -> float:
    """Upper envelope sqrt(eps) (1 + sqrt|log eps|) of the steady L1 distance."""
    return math.sqrt(eps) * (1.0 + math.sqrt(abs(math.log(eps))))


def mixture_moments(p: float, theta1: float, theta2: float) -> tuple[float, float]:
    """(m2, m4) of a two-temperature Gaussian mixture in 3-D."""
    return (3.0 * (p * theta1 + (1.0 - p) * theta2),
            15.0 * (p * theta1 ** 2 + (1.0 - p) * theta2 ** 2))


def mixture_density(r, p: float, theta1: float, theta2: float) -> np.ndarray:
    """Density of the mixture whose profile is p e^{-theta1 x^2/2} + ..."""
    r = np.asarray(r, dtype=float)
    return sum(w * (2.0 * math.pi * th) ** -1.5 * np.exp(-r * r / (2.0 * th))
               for w, th in ((p, theta1), (1.0 - p, theta2)))


def swap_collision(v: np.ndarray, w: np.ndarray, sigma: np.ndarray, e: float):
    """Post-collision velocities of the sigma-parameterized (swapping) map."""
    z = 0.5 * (v + w)
    u = v - w
    half = 0.25 * (1.0 - e) * u + 0.25 * (1.0 + e) * np.linalg.norm(
        u, axis=1, keepdims=True) * sigma
    return z + half, z - half

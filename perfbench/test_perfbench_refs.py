"""Quick checks of the benchmark's closed-form references."""

import numpy as np
import pytest

import refs

ES = (0.3, 0.5, 0.8, 0.95, 1.0)


def _scales(e, order=16):
    s, w = np.polynomial.legendre.leggauss(order)
    am2 = 2.0 * ((1.0 + e) / 4.0) ** 2 * (1.0 - s)
    ap2 = ((3.0 - e) / 4.0) ** 2 + ((1.0 + e) / 4.0) ** 2 + s * (3.0 - e) * (1.0 + e) / 8.0
    return w, am2, ap2


@pytest.mark.parametrize("e", ES)
def test_second_moment_identity(e):
    assert refs.second_moment_coeff(e) == pytest.approx((3.0 + e * e) / 4.0, abs=1e-15)
    assert refs.second_moment_coeff(e) == pytest.approx(1.0 - 2.0 * refs.dissipation(e),
                                                        abs=1e-15)


@pytest.mark.parametrize("e", ES)
def test_coefficients_match_quadrature_of_scale_formulas(e):
    w, am2, ap2 = _scales(e)
    assert refs.c4(e) == pytest.approx(0.5 * w @ (am2 ** 2 + ap2 ** 2), abs=1e-14)
    assert refs.c22(e) == pytest.approx(0.5 * w @ (am2 * ap2), abs=1e-14)


def test_elastic_limit():
    assert refs.dissipation(1.0) == 0.0
    assert refs.growth(1.0) == 0.0
    assert refs.steady_m4(1.0) == pytest.approx(15.0, abs=1e-13)


@pytest.mark.parametrize("e", (0.5, 0.9))
def test_moment_laws_solve_their_equations(e):
    t = np.array([0.3, 1.7])
    h = 1e-5
    m2, m4 = refs.unscaled_moments(e, 3.0, 17.4, t)
    _, m4p = refs.unscaled_moments(e, 3.0, 17.4, t + h)
    _, m4m = refs.unscaled_moments(e, 3.0, 17.4, t - h)
    rhs = -(1.0 - refs.c4(e)) * m4 + 120.0 * refs.c22(e) * (m2 / 6.0) ** 2
    np.testing.assert_allclose((m4p - m4m) / (2 * h), rhs, rtol=1e-8)
    _, r4 = refs.rescaled_moments(e, 3.0, 17.4, np.array([0.0, 1e3]))
    np.testing.assert_allclose(r4, [17.4, refs.steady_m4(e)], rtol=1e-13)

"""Classical Laguerre/Jacobi polynomials and Bessel zeros.

Oracle values were computed by hand from the explicit coefficient
formulas before the implementation existed and are frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xfekete as xf


# ---------------------------------------------------------------- coefficients

def test_laguerre_coeffs_degree_one():
    # L_1^{(1)}(x) = 2 - x
    np.testing.assert_allclose(xf.laguerre_coeffs(1, 1.0), [2.0, -1.0], rtol=1e-15)


def test_laguerre_coeffs_degree_two():
    # L_2^{(0)}(x) = 1 - 2x + x^2/2
    np.testing.assert_allclose(xf.laguerre_coeffs(2, 0.0), [1.0, -2.0, 0.5], rtol=1e-15)


def test_jacobi_coeffs_degree_one():
    # P_1^{(1,0)}(x) = 1/2 + 3x/2
    np.testing.assert_allclose(xf.jacobi_coeffs(1, 1.0, 0.0), [0.5, 1.5], rtol=1e-15)


def test_jacobi_coeffs_negative_parameter():
    # P_1^{(-3,0)}(x) = -3/2 - x/2, valid despite the nonclassical parameter
    np.testing.assert_allclose(xf.jacobi_coeffs(1, -3.0, 0.0), [-1.5, -0.5], rtol=1e-15)


def test_jacobi_degree_collapse_raises():
    # m + a + b + 1 = -1 kills the leading binomial of P_2^{(-4,0)}
    with pytest.raises(xf.DegreeCollapse):
        xf.jacobi_coeffs(2, -4.0, 0.0)


def test_jacobi_collapse_decided_by_closed_form():
    # the expanded top coefficient cancels at m = 120, but
    # 2^-m C(2m+a+b, m) is far from zero: no collapse
    c = xf.jacobi_coeffs(120, 2.376, -0.071)
    assert c.size == 121
    with pytest.raises(xf.DegreeCollapse):
        xf.jacobi_coeffs(3, -5.0, 0.0)     # 2m+a+b = 1 in {0, 1, 2}


def test_laguerre_leading_coefficient():
    for m in range(1, 9):
        c = xf.laguerre_coeffs(m, 1.5)
        assert c[-1] == pytest.approx((-1.0) ** m / math.factorial(m), rel=1e-14)


# ---------------------------------------------------------------- evaluation

def test_poly_eval_at_root():
    assert xf.poly_eval(np.array([2.0, -1.0]), 2.0) == 0.0


def test_poly_eval_derivatives():
    p = np.array([1.0, -2.0, 0.5])  # 1 - 2x + x^2/2
    assert xf.poly_eval(p, 0.0, k=1) == -2.0
    assert xf.poly_eval(p, 3.0, k=1) == 1.0
    assert xf.poly_eval(p, 3.0, k=2) == 1.0


def test_poly_eval_vectorized():
    p = np.array([0.5, 1.5])
    x = np.array([0.0, 1.0, -1.0])
    np.testing.assert_allclose(xf.poly_eval(p, x), [0.5, 2.0, -1.0], rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 12), a=st.floats(0.0, 5.0), x=st.floats(0.0, 40.0))
def test_recurrence_matches_coefficients(m, a, x):
    """Three-term recurrence agrees with the explicit coefficients to
    within the conditioning of monomial evaluation (sum |c_k| x^k)."""
    via_rec = xf.laguerre_eval(m, a, np.array([x]))[0]
    c = xf.laguerre_coeffs(m, a)
    via_coef = xf.poly_eval(c, x)
    cond = np.sum(np.abs(c) * np.maximum(x, 1.0) ** np.arange(m + 1))
    assert abs(via_rec - via_coef) < 1e-12 * cond


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 10), a=st.floats(0.5, 4.0), b=st.floats(0.0, 3.0),
       x=st.floats(-1.0, 1.0))
def test_jacobi_recurrence_matches_coefficients(m, a, b, x):
    via_rec = xf.jacobi_eval(m, a, b, np.array([x]))[0]
    c = xf.jacobi_coeffs(m, a, b)
    via_coef = xf.poly_eval(c, x)
    cond = np.sum(np.abs(c))
    assert abs(via_rec - via_coef) < 1e-12 * cond


def test_laguerre_derivative_identity():
    # (L_{m+1}^{(a-1)})' = -L_m^{(a)}
    for m in range(0, 8):
        up = xf.laguerre_coeffs(m + 1, 1.5)
        dn = xf.laguerre_coeffs(m, 2.5)
        deriv = up[1:] * np.arange(1, m + 2)
        np.testing.assert_allclose(deriv, -dn, rtol=1e-12, atol=1e-14)


def test_laguerre_ode_residual():
    # x y'' + (a+1-x) y' + m y = 0, scaled by the term sizes before
    # cancellation (monomial evaluation with |c_k|)
    a = 2.5
    x = np.linspace(0.3, 25.0, 40)
    for m in (1, 4, 9, 12):
        p = xf.laguerre_coeffs(m, a)
        y, y1, y2 = (xf.poly_eval(p, x, k=k) for k in range(3))
        ay, ay1, ay2 = (xf.poly_eval(np.abs(p), x, k=k) for k in range(3))
        r = x * y2 + (a + 1 - x) * y1 + m * y
        cond = x * ay2 + np.abs(a + 1 - x) * ay1 + m * ay + 1.0
        assert np.max(np.abs(r) / cond) < 1e-12


def test_jacobi_ode_residual():
    # (1-x^2) y'' + (b-a-(a+b+2)x) y' + m(m+a+b+1) y = 0
    a, b = 1.5, 0.5
    x = np.linspace(-0.95, 0.95, 40)
    for m in (1, 3, 7):
        p = xf.jacobi_coeffs(m, a, b)
        y, y1, y2 = (xf.poly_eval(p, x, k=k) for k in range(3))
        ax = np.abs(x)
        ay, ay1, ay2 = (xf.poly_eval(np.abs(p), ax, k=k) for k in range(3))
        r = (1 - x**2) * y2 + (b - a - (a + b + 2) * x) * y1 + m * (m + a + b + 1) * y
        cond = (1 + x**2) * ay2 + (abs(b - a) + (a + b + 2) * ax) * ay1 \
            + m * (m + a + b + 1) * ay + 1.0
        assert np.max(np.abs(r) / cond) < 1e-12


# ---------------------------------------------------------------- zeros

def test_laguerre_zeros_small():
    np.testing.assert_allclose(xf.laguerre_zeros(1, 1.0), [2.0], rtol=1e-14)
    # L_2^{(0)} zeros are 2 +/- sqrt(2)
    np.testing.assert_allclose(xf.laguerre_zeros(2, 0.0),
                               [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-13)


def test_laguerre_zeros_empty():
    assert xf.laguerre_zeros(0, 1.0).size == 0


def test_laguerre_zeros_are_roots():
    for n in (5, 20, 80):
        z = xf.laguerre_zeros(n, 2.0)
        assert np.all(np.diff(z) > 0)
        vals = xf.laguerre_eval(n, 2.0, z)
        slope = xf.laguerre_eval(n - 1, 3.0, z)  # derivative up to sign
        assert np.max(np.abs(vals / slope)) < 1e-10


def test_laguerre_zeros_large_n():
    # must not overflow at quadrature sizes where naive scaling fails
    z = xf.laguerre_zeros(400, 1.0)
    assert z.size == 400 and np.all(z > 0) and np.all(np.diff(z) > 0)


def test_jacobi_zeros_legendre():
    # P_2^{(0,0)} zeros at +/- 1/sqrt(3)
    r = 1 / math.sqrt(3)
    np.testing.assert_allclose(xf.jacobi_zeros(2, 0.0, 0.0), [-r, r], atol=1e-14)


def test_jacobi_zeros_at_parameter_sum_minus_one():
    # the k = 1 entry of the Jacobi matrix is 0/0 in its general form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = xf.jacobi_zeros(2, -0.5, -0.5)
    np.testing.assert_allclose(z, [-2 ** -0.5, 2 ** -0.5], atol=1e-15)
    z = xf.jacobi_zeros(6, -0.3, -0.7)
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)
    assert np.max(np.abs(xf.jacobi_eval(6, -0.3, -0.7, z))) < 1e-12


def test_jacobi_zeros_symmetric():
    z = xf.jacobi_zeros(9, 1.5, 1.5)
    np.testing.assert_allclose(z, -z[::-1], atol=1e-13)


# ---------------------------------------------------------------- bessel

def test_bessel_first_zeros():
    j0 = xf.bessel_first_zero(0.0)
    j1 = xf.bessel_first_zero(1.0)
    assert j0 == pytest.approx(2.404825557695773, rel=1e-12)
    assert j1 == pytest.approx(3.8317059702075123, rel=1e-12)
    assert abs(xf.bessel_j(0.0, j0)) < 1e-12
    assert abs(xf.bessel_j(1.0, j1)) < 1e-12


def test_bessel_j_normalization():
    # J_0 -> 1 and J_1(x) ~ x/2 as x -> 0+
    assert xf.bessel_j(0.0, 1e-8) == pytest.approx(1.0, rel=1e-12)
    assert xf.bessel_j(1.0, 1e-6) == pytest.approx(5e-7, rel=1e-9)


def test_bessel_first_zero_monotone_in_order():
    js = [xf.bessel_first_zero(a) for a in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(x < y for x, y in zip(js, js[1:]))

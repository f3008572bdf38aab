"""Classical Laguerre/Jacobi polynomials, their zeros and seeds.

Oracle values were computed by hand from the explicit coefficient
formulas before the implementation existed and are frozen here.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete import classical_poly
from xfekete.classical_poly import (_jacobi_coeffs_top_down,
                                    jacobi_seed_ladder, laguerre_seed_ladder)

from reference import jacobi_zeros, laguerre_zeros


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


def mp_jacobi_coeffs(n, a, b):
    """Monomial coefficients of P_n^(a,b) at 40 + n digits, from the
    expansion in powers of (x-1)/2, whose terms are polynomial in a, b:
    P_n = sum_m C(n,m) (n+a+b+1)_m (a+m+1)_(n-m) / n! ((x-1)/2)^m."""
    with mpmath.workdps(40 + n):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        c = []
        for m in range(n, -1, -1):      # Horner in t = (x-1)/2
            c = [(u - v) / 2 for u, v in zip([0] + c, c + [0])]
            c[0] += (mpmath.binomial(n, m) * mpmath.rf(n + a + b + 1, m)
                     * mpmath.rf(a + m + 1, n - m) / mpmath.factorial(n))
        return np.array([float(v) for v in c])


@pytest.mark.parametrize("n,a,b", [(20, 3.5, 0.5), (120, 3.5, 0.5),
                                   (200, 3.841, -0.133), (3, 0.5, -2.5)])
def test_jacobi_coeffs_top_down_against_mpmath(n, a, b):
    # (3, 0.5, -2.5): a + b = -2, where the coefficient-space three-term
    # recurrence divides by 0
    want = mp_jacobi_coeffs(n, a, b)
    got = _jacobi_coeffs_top_down(n, a, b)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_laguerre_leading_coefficient():
    for m in range(1, 9):
        c = xf.laguerre_coeffs(m, 1.5)
        assert c[-1] == pytest.approx((-1.0) ** m / math.factorial(m), rel=1e-14)


# ---------------------------------------------------------------- evaluation

@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 12), a=st.floats(0.0, 5.0), x=st.floats(0.0, 40.0))
def test_recurrence_matches_coefficients(m, a, x):
    """Three-term recurrence agrees with the explicit coefficients to
    within the conditioning of monomial evaluation (sum |c_k| x^k)."""
    via_rec = xf.laguerre_pass(m, a, np.array([x]))[0][0]
    c = xf.laguerre_coeffs(m, a)
    via_coef = npoly.polyval(x, c)
    cond = np.sum(np.abs(c) * np.maximum(x, 1.0) ** np.arange(m + 1))
    assert abs(via_rec - via_coef) < 1e-12 * cond


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 10), a=st.floats(0.5, 4.0), b=st.floats(0.0, 3.0),
       x=st.floats(-1.0, 1.0))
def test_jacobi_recurrence_matches_coefficients(m, a, b, x):
    via_rec = xf.jacobi_pass(m, a, b, np.array([x]))[0][0]
    c = xf.jacobi_coeffs(m, a, b)
    via_coef = npoly.polyval(x, c)
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
        y, y1, y2 = (npoly.polyval(x, npoly.polyder(p, k)) for k in range(3))
        ay, ay1, ay2 = (npoly.polyval(x, npoly.polyder(np.abs(p), k))
                        for k in range(3))
        r = x * y2 + (a + 1 - x) * y1 + m * y
        cond = x * ay2 + np.abs(a + 1 - x) * ay1 + m * ay + 1.0
        assert np.max(np.abs(r) / cond) < 1e-12


def test_jacobi_ode_residual():
    # (1-x^2) y'' + (b-a-(a+b+2)x) y' + m(m+a+b+1) y = 0
    a, b = 1.5, 0.5
    x = np.linspace(-0.95, 0.95, 40)
    for m in (1, 3, 7):
        p = xf.jacobi_coeffs(m, a, b)
        y, y1, y2 = (npoly.polyval(x, npoly.polyder(p, k)) for k in range(3))
        ax = np.abs(x)
        ay, ay1, ay2 = (npoly.polyval(ax, npoly.polyder(np.abs(p), k))
                        for k in range(3))
        r = (1 - x**2) * y2 + (b - a - (a + b + 2) * x) * y1 + m * (m + a + b + 1) * y
        cond = (1 + x**2) * ay2 + (abs(b - a) + (a + b + 2) * ax) * ay1 \
            + m * (m + a + b + 1) * ay + 1.0
        assert np.max(np.abs(r) / cond) < 1e-12


# ---------------------------------------------------------------- zeros

def test_laguerre_zeros_small():
    np.testing.assert_allclose(laguerre_zeros(1, 1.0), [2.0], rtol=1e-14)
    # L_2^{(0)} zeros are 2 +/- sqrt(2)
    np.testing.assert_allclose(laguerre_zeros(2, 0.0),
                               [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-13)


def test_laguerre_zeros_empty():
    assert laguerre_zeros(0, 1.0).size == 0


def test_laguerre_zeros_are_roots():
    for n in (5, 20, 80):
        z = laguerre_zeros(n, 2.0)
        assert np.all(np.diff(z) > 0)
        vals = xf.laguerre_pass(n, 2.0, z)[0]
        slope = xf.laguerre_pass(n - 1, 3.0, z)[0]  # derivative up to sign
        assert np.max(np.abs(vals / slope)) < 1e-10


def test_laguerre_zeros_large_n():
    # must not overflow at quadrature sizes where naive scaling fails
    z = laguerre_zeros(400, 1.0)
    assert z.size == 400 and np.all(z > 0) and np.all(np.diff(z) > 0)


def test_jacobi_zeros_legendre():
    # P_2^{(0,0)} zeros at +/- 1/sqrt(3)
    r = 1 / math.sqrt(3)
    np.testing.assert_allclose(jacobi_zeros(2, 0.0, 0.0), [-r, r], atol=1e-14)


def test_jacobi_zeros_at_parameter_sum_minus_one():
    # the k = 1 entry of the Jacobi matrix is 0/0 in its general form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = jacobi_zeros(2, -0.5, -0.5)
    np.testing.assert_allclose(z, [-2 ** -0.5, 2 ** -0.5], atol=1e-15)
    z = jacobi_zeros(6, -0.3, -0.7)
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)
    assert np.max(np.abs(xf.jacobi_pass(6, -0.3, -0.7, z)[0])) < 1e-12


def test_jacobi_zeros_symmetric():
    z = jacobi_zeros(9, 1.5, 1.5)
    np.testing.assert_allclose(z, -z[::-1], atol=1e-13)


# ---------------------------------------------------------------- seeds

SEED_PARAMS = (-0.5, 0.0, 0.3, 2.0, 6.0, 9.0)


def spacing_error(seeds, nodes):
    """max |seed - node| over the distance to the node's nearest
    neighbour; a lone node is measured against 1 + |node|."""
    if nodes.size == 1:
        return abs(seeds[0] - nodes[0]) / (1 + abs(nodes[0]))
    gap = np.diff(nodes)
    near = np.minimum(np.r_[gap[0], gap], np.r_[gap, gap[-1]])
    return np.max(np.abs(seeds - nodes) / near)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 139, 140, 300])
def test_laguerre_seeds_sit_next_to_the_nodes(n):
    # n = 300 is below the recurrence's overflow, so every seed is polished
    for a in SEED_PARAMS:
        assert spacing_error(*laguerre_seed_ladder([n], a),
                             laguerre_zeros(n, a)) < 1e-2


@pytest.mark.parametrize("n", [1, 2, 5, 20, 139, 140, 400])
def test_jacobi_seeds_sit_next_to_the_nodes(n):
    for a in SEED_PARAMS:
        for b in SEED_PARAMS:
            assert spacing_error(*jacobi_seed_ladder([n], a, b),
                                 jacobi_zeros(n, a, b)) < 1e-2


def test_jacobi_seeds_sit_next_to_the_nodes_at_n_1000():
    # six parameter pairs: each dense reference is a 1000 x 1000 solve
    for a, b in zip(SEED_PARAMS, SEED_PARAMS[::-1]):
        assert spacing_error(*jacobi_seed_ladder([1000], a, b),
                             jacobi_zeros(1000, a, b)) < 1e-2


@pytest.mark.parametrize("a,b", [(-0.5, 0.3), (0.0, 0.0), (2.0, -0.5),
                                 (9.0, 6.0)])
def test_wkb_phase_is_bohr_sommerfeld(a, b):
    # Phi(0) = 0, Phi(pi) = (n + 1/2 + (a - abar)/2 [+ (b - bbar)/2]) pi,
    # and dPhi/dpsi is the derivative of Phi
    psi = np.linspace(0.2, 3.0, 8)
    for n in (140, 400):
        total = n + 0.5 + (a - max(a, 0.0)) / 2
        phases = [(classical_poly._laguerre_wkb(n, a), total),
                  (classical_poly._jacobi_wkb(n, a, b),
                   total + (b - max(b, 0.0)) / 2)]
        for (_, phase, dphase, _), want in phases:
            assert phase(0.0) == 0.0
            assert phase(np.pi) == pytest.approx(want * np.pi, rel=1e-14)
            h = 1e-6
            numeric = (phase(psi + h) - phase(psi - h)) / (2 * h)
            np.testing.assert_allclose(dphase(psi), numeric, rtol=1e-7)


@pytest.mark.parametrize("n", [3, 140])
def test_seeds_refuse_parameters_at_minus_one(n):
    # a ladder of one holds the member's error in place of its seeds
    for (err,), message in [
            (laguerre_seed_ladder([n], -1.0), "need a > -1, got -1"),
            (jacobi_seed_ladder([n], -1.0, 2.0), "need a, b > -1, got -1, 2"),
            (jacobi_seed_ladder([n], 2.0, -1.0), "need a, b > -1, got 2, -1")]:
        assert isinstance(err, xf.ValidationError)
        assert message in str(err)


def test_laguerre_seeds_are_quiet_where_the_recurrence_overflows():
    # L_400 overflows at the largest nodes: those keep their WKB place
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (x,) = laguerre_seed_ladder([400], 2.0)
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
    assert spacing_error(x, laguerre_zeros(400, 2.0)) < 2e-2


def _off_derivative_zeros(k, a):
    """Real points away from the zeros of (L_k^(a))' = -L_{k-1}^(a+1): 0,
    a negative point, midpoints of those zeros (the first six, where the
    error is largest, then every 20th) and a point past the last; below
    1000, where degree 400 stays finite."""
    z = laguerre_zeros(max(k - 1, 0), a + 1.0)
    mid = (z[1:] + z[:-1]) / 2
    x = np.concatenate([[0.0, -3.0], mid[:6], mid[6::20], z[-1:] + 5.0])
    return x[x < 1000.0]


@pytest.mark.parametrize("a", [-0.5, 0.0, 2.0, 7.25])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 150, 400])
def test_laguerre_pass_derivatives_against_mpmath(n, a):
    # L_n' and L_{n-1}' of both kernels (running sum, differentiated
    # recurrence) to 50-digit mpmath derivatives of L_n and L_{n-1}, at
    # real and complex points; the identically zero derivatives (degree
    # 0 and -1) exactly
    for j, k in enumerate((n, n - 1)):
        real = _off_derivative_zeros(k, a)
        for x in (real, real + 0.5j, real - 2.0j):
            got = [xf.laguerre_pass(n, a, x, differentiated=diff)[2 + j]
                   for diff in (False, True)]
            with mpmath.workdps(50):
                for i, xi in enumerate(x):
                    want = complex(mpmath.diff(
                        lambda t: mpmath.laguerre(k, a, t),
                        mpmath.mpmathify(xi))) if k > 0 else 0.0
                    for g in got:
                        assert abs(g[i] - want) <= 2e-12 * abs(want), (k, xi)

"""Construction of the X_m polynomials from their second-order ODEs.

Hand oracles (worked out from the cleared-denominator ODE before
implementation):

  laguerre1, m=1, alpha=2:        S(x) = 2 + x
      A = x S            = [0, 2, 1]
      B = (3 - x)S - 2xS' = [6, -1, -1]
      C = (m+n)S - 4S'    = [-2, 1]          (n = 0)
      degree-1 member:      3 + x
      degree-2 member:      8 - x^2          (n = 1)
  laguerre2, m=1, alpha=3:        S(x) = -3 - x
  jacobi,    m=1, alpha=2, b=1:   S(x) = -3/2 - x/2
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete.exceptional import leading_coefficient

from conftest import built_of, spec_of


# ---------------------------------------------------------------- spec validation

def test_family_name_rejected():
    with pytest.raises(xf.InvalidFamily):
        xf.FamilySpec("hermite", 1, 2.0, 3)


def test_beta_required_for_jacobi_only():
    with pytest.raises(xf.ValidationError):
        xf.FamilySpec("jacobi", 1, 2.0, 3)
    with pytest.raises(xf.ValidationError):
        xf.FamilySpec("laguerre1", 1, 2.0, 3, beta=1.0)


def test_negative_codimension_rejected():
    with pytest.raises(xf.ValidationError):
        xf.FamilySpec("laguerre1", -1, 2.0, 3)


def test_regime_warnings_are_advisory():
    b = xf.build_exceptional(xf.FamilySpec("laguerre2", 2, 0.5, 2))
    assert b.warnings and "alpha <= m-1" in b.warnings[0]
    bj = xf.build_exceptional(xf.FamilySpec("jacobi", 2, 0.5, 3, beta=2.0))
    assert bj.warnings
    assert built_of("laguerre1", 1, 2.0, 3).warnings == ()


# ---------------------------------------------------------------- S and the ODE

def test_build_S_oracles():
    np.testing.assert_allclose(
        xf.build_S(spec_of("laguerre1", 1, 2.0, 0)), [2.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(
        xf.build_S(spec_of("laguerre2", 1, 3.0, 0)), [-3.0, -1.0], rtol=1e-15)
    np.testing.assert_allclose(
        xf.build_S(spec_of("jacobi", 1, 2.0, 0, 1.0)), [-1.5, -0.5], rtol=1e-15)


def test_build_S_degenerate_jacobi_raises():
    # alpha+1-m-beta = 1 lies in {0..m-1}: S would drop degree
    with pytest.raises(xf.DegreeCollapse):
        xf.build_S(spec_of("jacobi", 2, 3.0, 4, 1.0))


def test_ode_coeffs_hand_oracle():
    ode = xf.ode_coeffs(spec_of("laguerre1", 1, 2.0, 0))
    np.testing.assert_allclose(ode.A, [0.0, 2.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(ode.B, [6.0, -1.0, -1.0], rtol=1e-15)
    np.testing.assert_allclose(ode.C, [-2.0, 1.0], rtol=1e-15)


def test_rational_ode_values_and_poles():
    ode = xf.ode_coeffs(spec_of("laguerre1", 1, 2.0, 0))
    assert ode.M(1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert ode.N(1.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    with pytest.raises(xf.SingularEvaluation):
        ode.M(0.0)


# ---------------------------------------------------------------- build

def test_build_degree_one_member():
    b = built_of("laguerre1", 1, 2.0, 0)
    np.testing.assert_allclose(b.coeffs, [3.0, 1.0], rtol=1e-12, atol=1e-14)
    assert b.residual < 1e-12


def test_build_degree_two_member():
    b = built_of("laguerre1", 1, 2.0, 1)
    np.testing.assert_allclose(b.coeffs, [8.0, 0.0, -1.0], rtol=1e-12, atol=1e-12)


def test_build_alpha_one():
    b = built_of("laguerre1", 1, 1.0, 1)
    np.testing.assert_allclose(b.coeffs, [3.0, 0.0, -1.0], rtol=1e-12, atol=1e-12)


def test_leading_coefficient_exact():
    for m in (1, 2, 3):
        for n in (0, 1, 5, 17):
            b = built_of("laguerre1", m, 1.5, n)
            expected = (-1.0) ** n / (math.factorial(m) * math.factorial(n))
            assert b.coeffs[-1] == expected
            assert leading_coefficient(b.spec) == expected


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 1, 2.0, 4, None),
    ("laguerre1", 3, 1.5, 7, None),
    ("laguerre2", 2, 3.0, 5, None),
    ("jacobi", 2, 4.0, 6, 1.0),
    ("jacobi", 1, 2.0, 9, 1.0),
])
def test_ode_residual_by_polynomial_arithmetic(family, m, alpha, n, beta):
    """A y'' + B y' + C y must vanish identically, checked coefficientwise."""
    b = built_of(family, m, alpha, n, beta)
    ode = xf.ode_coeffs(b.spec)
    y = b.coeffs
    y1 = npoly.polyder(y)
    y2 = npoly.polyder(y, 2)
    r = npoly.polyadd(npoly.polyadd(npoly.polymul(ode.A, y2),
                                    npoly.polymul(ode.B, y1)),
                      npoly.polymul(ode.C, y))
    scale = max(np.max(np.abs(npoly.polymul(ode.C, y))), 1e-300)
    assert np.max(np.abs(r)) < 1e-8 * scale


def test_out_of_regime_rank_defect():
    # integer alpha <= m-1 makes S pick up a root at 0; the reduced
    # system loses rank and the failure is reported, not masked
    with pytest.raises(xf.NullspaceDefect):
        xf.build_exceptional(xf.FamilySpec("laguerre2", 3, 1.0, 3))


def test_failed_least_squares_is_nullspace_defect():
    # at n = 400 the magnitude profile overflows; that is a typed error
    # raised before the solve, with no RuntimeWarning on the way
    with pytest.raises(xf.NullspaceDefect, match="profile"):
        xf.build_exceptional(xf.FamilySpec("jacobi", 1, 2.841, 400,
                                           beta=0.867))


def test_nan_residual_is_not_a_successful_build(monkeypatch):
    def nan_lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, a.shape[1], None

    monkeypatch.setattr(np.linalg, "lstsq", nan_lstsq)
    with pytest.raises(xf.NullspaceDefect, match="residual nan"):
        xf.build_exceptional(xf.FamilySpec("laguerre1", 1, 2.0, 5))


def test_representation_overflow_guard():
    with pytest.raises(xf.RepresentationOverflow):
        xf.build_exceptional(xf.FamilySpec("laguerre1", 1, 1.0, 200))


# ---------------------------------------------------------------- evaluator

@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 1, 2.0, 3, None),
    ("laguerre1", 2, 1.5, 5, None),
    ("laguerre2", 2, 3.0, 4, None),
    ("jacobi", 2, 4.0, 5, 1.0),
])
def test_eval_matches_coefficients(family, m, alpha, n, beta):
    b = built_of(family, m, alpha, n, beta)
    x = np.linspace(0.1, 9.0, 25) if family != "jacobi" else np.linspace(-0.9, 0.9, 25)
    direct = xf.exceptional_eval(b.spec, x)
    via = xf.poly_eval(b.coeffs, x)
    scale = np.max(np.abs(via)) + 1.0
    assert np.max(np.abs(direct - via)) < 1e-9 * scale


def test_eval_derivatives_match_finite_differences():
    s = spec_of("laguerre1", 2, 1.5, 4)
    x = np.array([0.7, 3.3, 11.0])
    h = 1e-6
    for d in (1, 2):
        fd = (xf.exceptional_eval(s, x + h, d - 1)
              - xf.exceptional_eval(s, x - h, d - 1)) / (2 * h)
        an = xf.exceptional_eval(s, x, d)
        assert np.max(np.abs(fd - an) / (np.abs(an) + 1.0)) < 1e-6


def test_eval_third_derivative_rejected():
    with pytest.raises(xf.ValidationError):
        xf.exceptional_eval(spec_of("laguerre1", 1, 2.0, 2), 1.0, deriv=3)


def test_eval_beyond_coefficient_range():
    # n = 200 coefficients are not float64-representable, but the
    # closed-form evaluator still works
    s = xf.FamilySpec("laguerre1", 1, 1.0, 200)
    y = xf.exceptional_eval(s, np.array([1.0, 50.0]))
    assert np.all(np.isfinite(y))


def test_eval_preserves_complex_dtype():
    s = spec_of("laguerre2", 2, 3.0, 4)
    z = np.array([0.5 + 0.5j, 2.0 - 1.0j])
    got = xf.exceptional_eval(s, z)
    want = xf.poly_eval(built_of("laguerre2", 2, 3.0, 4).coeffs, z)
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - want)) < 1e-9 * (np.max(np.abs(want)) + 1.0)


def test_classical_reduction_at_m_zero():
    # m = 0 must reproduce the classical Laguerre polynomial exactly
    b = built_of("laguerre1", 0, 2.0, 6)
    target = xf.laguerre_coeffs(6, 2.0)
    np.testing.assert_allclose(b.coeffs, target, rtol=1e-10, atol=1e-14)

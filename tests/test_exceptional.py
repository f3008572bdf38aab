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

import json
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete import cli, exceptional
from xfekete.exceptional import leading_coefficient

from conftest import built_of, spec_of
from reference import (SingularEvaluation, phi, rational_terms,
                       second_derivative, singular_points)


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


@pytest.mark.parametrize("m,n", [(1.5, 3), (1, 3.0), (2.0, 3)])
def test_non_integer_degree_rejected(m, n):
    with pytest.raises(xf.ValidationError, match="integers"):
        xf.FamilySpec("laguerre1", m, 2.0, n)


def test_numpy_integer_degrees_accepted():
    spec = xf.FamilySpec("laguerre1", np.int64(2), 2.0, np.int32(5))
    ref = xf.find_zeros(xf.FamilySpec("laguerre1", 2, 2.0, 5))
    zs = xf.find_zeros(spec)
    assert zs.regular.tobytes() == ref.regular.tobytes()
    assert zs.exceptional.tobytes() == ref.exceptional.tobytes()


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


def test_degenerate_jacobi_S_is_a_regime_warning():
    # reaches _jac_regime's "S degenerates" warning, which only a caller
    # that reads the warnings before S sees: S's DegreeCollapse comes
    # first in every command
    warned = xf.FamilySpec("jacobi", 2, 3.0, 4, 1.0).regime_warnings()
    assert any("S degenerates" in w for w in warned)


def test_ode_coeffs_hand_oracle():
    ode = xf.ode_coeffs(spec_of("laguerre1", 1, 2.0, 0))
    np.testing.assert_allclose(ode.A, [0.0, 2.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(ode.B, [6.0, -1.0, -1.0], rtol=1e-15)
    np.testing.assert_allclose(ode.C, [-2.0, 1.0], rtol=1e-15)


def test_rational_ode_values_and_poles():
    ode = xf.ode_coeffs(spec_of("laguerre1", 1, 2.0, 0))
    M, N, _ = rational_terms(ode, 1.0)
    assert M == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert N == pytest.approx(-1.0 / 3.0, rel=1e-14)
    with pytest.raises(SingularEvaluation):
        rational_terms(ode, 0.0)


@pytest.mark.parametrize("family,m,alpha,beta,real_zeros", [
    ("laguerre1", 2, -2.5, None, (0.0,)),
    ("laguerre2", 2, 2.5, None, (0.0,)),
    ("jacobi", 2, 2.7, 2.6, (1.0, -1.0))])
def test_singular_guard_measures_complex_distance(family, m, alpha, beta,
                                                  real_zeros):
    # S has a complex pair of zeros; at their real part A is far from 0,
    # while y'' at a real zero of A would be 0/0
    spec = xf.FamilySpec(family, m, alpha, 4, beta)
    ode = xf.ode_coeffs(spec)
    sing = singular_points(ode)
    r = sing[np.argmax(np.abs(sing.imag))]
    assert abs(r.imag) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = r.real
        M = rational_terms(ode, x)[0]
        assert M == npoly.polyval(x, ode.B) / npoly.polyval(x, ode.A)
        assert np.isfinite(phi(spec, x))
        assert np.isfinite(second_derivative(spec, x))
        for z in real_zeros:
            with pytest.raises(SingularEvaluation):
                second_derivative(spec, z)
            with pytest.raises(xf.PoleEvaluation):
                phi(spec, z)


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


def ref_nullspace_solve(spec):
    """The least-squares build the closed form replaced: the ODE as a
    dense map from monomial coefficients to residual coefficients,
    columns scaled by the expected magnitude profile, rows by their sup
    norm, the top entry fixed to the closed-form lead."""
    ode = xf.ode_coeffs(spec)
    A, B, C = ode.A, ode.B, ode.C
    m, n, al, deg = spec.m, spec.n, spec.alpha, spec.degree
    top = leading_coefficient(spec)
    rows = max(len(A) + max(deg - 2, 0), len(B) + max(deg - 1, 0),
               len(C) + deg)
    M = np.zeros((rows, deg + 1))
    for k in range(deg + 1):
        if k >= 2:
            M[k - 2: k - 2 + len(A), k] += A * (k * (k - 1))
        if k >= 1:
            M[k - 1: k - 1 + len(B), k] += B * k
        M[k: k + len(C), k] += C
    if spec.family == "laguerre1":
        f, g = xf.laguerre_coeffs(m, al), xf.laguerre_coeffs(n, al - 1.0)
    elif spec.family == "laguerre2":
        f = xf.laguerre_coeffs(m, -al - 1.0)
        g = xf.laguerre_coeffs(n, al + 1.0)
    else:
        f = spec.S.c
        g = xf.jacobi_coeffs(n, al + 1.0, spec.beta - 1.0)
    d = np.convolve(np.abs(f), np.abs(g))
    if spec.family != "laguerre1":
        d = np.maximum(d, np.concatenate([[d[0]], d[:-1]]))
    d = np.maximum(d, np.max(d) * 1e-300)[: deg + 1]
    d = d * (abs(top) / d[deg])
    if deg == 0:
        return np.array([top])
    Ms = M * d
    Msub = Ms[:, :deg]
    rn = np.max(np.abs(Msub), axis=1)
    rn[rn == 0] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(Msub / rn[:, None],
                                      -Ms[:, deg] * (top / d[deg]) / rn,
                                      rcond=None)
    assert rank == deg, spec
    return np.concatenate([sol * d[:deg], [top]])


REFERENCE_GRID = [xf.FamilySpec(family, m, alpha, n, beta)
                  for m in range(4) for n in (0, 1, 2, 5, 20, 60)
                  for family, alpha, beta in [
                      ("laguerre1", 1.5, None), ("laguerre1", 0.7, None),
                      ("laguerre2", m + 0.5, None),
                      ("jacobi", m + 0.7, 1.3)]]
# alpha + beta = -2: a three-term recurrence for the coefficients of
# P_n^(alpha+1, beta-1) would divide by 0 there
REFERENCE_GRID.append(xf.FamilySpec("jacobi", 1, -0.5, 3, -1.5))


def test_closed_form_matches_the_nullspace_solve():
    for spec in REFERENCE_GRID:
        got = xf.build_exceptional(spec).coeffs
        want = ref_nullspace_solve(spec)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), spec


def test_leading_coefficient_exact():
    for m in (1, 2, 3):
        for n in (0, 1, 5, 17):
            b = built_of("laguerre1", m, 1.5, n)
            expected = (-1.0) ** n / (math.factorial(m) * math.factorial(n))
            assert b.coeffs[-1] == expected
            assert leading_coefficient(
                spec_of("laguerre1", m, 1.5, n)) == expected


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre2", 3, 1.0, 1, None),     # n + alpha + 1 - m = 0
    ("laguerre2", 4, 0.0, 3, None),
    ("jacobi", 2, 1.0, 0, 0.5),         # m - n - alpha - 1 = 0
    ("jacobi", 4, 1.0, 2, 2.0),
])
def test_member_degree_collapse_raises_before_newton(monkeypatch, family, m,
                                                     alpha, n, beta):
    from xfekete import roots
    calls = []
    monkeypatch.setattr(roots, "ladder_eval_pair", lambda *a: calls.append(a))
    spec = xf.FamilySpec(family, m, alpha, n, beta)
    for fn in (leading_coefficient, xf.build_exceptional, xf.find_zeros):
        with pytest.raises(xf.DegreeCollapse, match="coefficient is 0"):
            fn(spec)
    assert calls == []
    # S itself is still there; only the member collapses
    assert xf.build_S(spec).size == m + 1


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
    ode = xf.ode_coeffs(spec_of(family, m, alpha, n, beta))
    y = b.coeffs
    y1 = npoly.polyder(y)
    y2 = npoly.polyder(y, 2)
    r = npoly.polyadd(npoly.polyadd(npoly.polymul(ode.A, y2),
                                    npoly.polymul(ode.B, y1)),
                      npoly.polymul(ode.C, y))
    scale = max(np.max(np.abs(npoly.polymul(ode.C, y))), 1e-300)
    assert np.max(np.abs(r)) < 1e-8 * scale


def test_out_of_regime_rank_defect():
    # integer alpha <= m-1 gives S a root at 0: the member still builds,
    # and carries the regime warning
    b = xf.build_exceptional(xf.FamilySpec("laguerre2", 3, 1.0, 3))
    assert b.residual < 1e-14
    assert b.warnings and "alpha <= m-1" in b.warnings[0]


def test_failed_least_squares_is_nullspace_defect():
    # at n = 400 the coefficients still solve the ODE and vanish at the
    # certified zeros
    spec = xf.FamilySpec("jacobi", 1, 2.841, 400, beta=0.867)
    b = xf.build_exceptional(spec)
    assert b.residual < 1e-14
    assert cli._max_log_excess(b.coeffs, xf.find_zeros(spec)) < -10.0


def _patch_coeffs(monkeypatch, fill):
    fam = exceptional.FAMILY["laguerre1"]
    monkeypatch.setitem(exceptional.FAMILY, "laguerre1", fam._replace(
        coeffs=lambda s: np.full(s.degree + 1, fill)))


def test_nan_residual_is_not_a_successful_build(monkeypatch):
    # finite coefficients whose ODE residual overflows to NaN
    _patch_coeffs(monkeypatch, 1e308)
    with pytest.raises(xf.NullspaceDefect, match="residual nan"):
        xf.build_exceptional(xf.FamilySpec("laguerre1", 1, 2.0, 5))


def test_non_finite_coefficients_overflow_quietly(monkeypatch):
    _patch_coeffs(monkeypatch, np.inf)
    with pytest.raises(xf.RepresentationOverflow, match="overflow binary64"):
        xf.build_exceptional(xf.FamilySpec("laguerre1", 1, 2.0, 5))


def test_representation_overflow_guard():
    with pytest.raises(xf.RepresentationOverflow):
        xf.build_exceptional(xf.FamilySpec("laguerre1", 1, 1.0, 200))


def test_jacobi_lead_scales_by_ldexp(capsys):
    # the lead divided by 2.0 ** n, which raised OverflowError from
    # n = 1024 on; below it ldexp gives the same bits
    for n in (0, 1, 5, 120, 500, 1023):
        s = xf.FamilySpec("jacobi", 1, 2.5, n, 1.5)
        f = s.fam.lead_factor(s)
        old = f * s.S.c[-1] * (
            exceptional.gen_binom(2 * n + 2.5 + 1.5, n) / 2.0 ** n)
        assert np.float64(s.fam.lead(s, f)).tobytes() == \
            np.float64(old).tobytes(), n
    with pytest.raises(xf.RepresentationOverflow) as err:
        xf.build_exceptional(xf.FamilySpec("jacobi", 1, 2.5, 1100, 1.5))
    sel = ["--family", "jacobi", "--m", "1", "--alpha", "2.5",
           "--beta", "1.5", "--n", "1100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["poly", *sel]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "RepresentationOverflow"
        assert cli.main(["verify", *sel]) == 2
    checks = {c["name"]: c for c in
              json.loads(capsys.readouterr().out)["checks"]}
    assert checks["construction"]["detail"] == str(err.value)


# ---------------------------------------------------------------- evaluator

@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 1, 2.0, 3, None),
    ("laguerre1", 2, 1.5, 5, None),
    ("laguerre2", 2, 3.0, 4, None),
    ("jacobi", 2, 4.0, 5, 1.0),
])
def test_eval_matches_coefficients(family, m, alpha, n, beta):
    spec = spec_of(family, m, alpha, n, beta)
    b = built_of(family, m, alpha, n, beta)
    x = np.linspace(0.1, 9.0, 25) if family != "jacobi" else np.linspace(-0.9, 0.9, 25)
    direct = xf.exceptional_eval(spec, x)
    via = npoly.polyval(x, b.coeffs)
    scale = np.max(np.abs(via)) + 1.0
    assert np.max(np.abs(direct - via)) < 1e-9 * scale


def test_eval_derivatives_match_finite_differences():
    # y' from the pair evaluator, y'' from the family ODE (reference)
    s = spec_of("laguerre1", 2, 1.5, 4)
    x = np.array([0.7, 3.3, 11.0])
    h = 1e-6
    derivs = [xf.exceptional_eval,
              lambda s, x: exceptional.ladder_eval_pair(s, s.n, x)[1],
              second_derivative]
    for d in (1, 2):
        fd = (derivs[d - 1](s, x + h) - derivs[d - 1](s, x - h)) / (2 * h)
        an = derivs[d](s, x)
        assert np.max(np.abs(fd - an) / (np.abs(an) + 1.0)) < 1e-6


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
    want = npoly.polyval(z, built_of("laguerre2", 2, 3.0, 4).coeffs)
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - want)) < 1e-9 * (np.max(np.abs(want)) + 1.0)


def test_classical_reduction_at_m_zero():
    # m = 0 must reproduce the classical Laguerre polynomial exactly
    b = built_of("laguerre1", 0, 2.0, 6)
    target = xf.laguerre_coeffs(6, 2.0)
    np.testing.assert_allclose(b.coeffs, target, rtol=1e-10, atol=1e-14)

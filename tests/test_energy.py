"""Weighted log-energy, Fejér constants, Hessian structure, and the
ODE potential Φ.

Hand oracles, worked before implementation:

  hat  laguerre m=0, a=2 (alpha = 1, S = 1, the classical base weight):
      log w(1) = -1,  (log w)'(2) = 0
  hat  laguerre m=1, a=2 (S = 2+x):  (log w)''(1) = -3 + 2/9
  hat  jacobi  m=1, a=2, b=1 (S = -(3+x)/2):
      log w(0) = -log(9/4),  (log w)'(0) = -5/3,  (log w)''(0) = -43/9
  classical potential, m=0, a=0, n=1:  M = (1-x)/x, N = 1/x,
      Phi(2) = 1/2 - 1/16 + 1/8 = 0.5625
"""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf

from conftest import random_nodes, spec_of, zeros_of
from reference import (lagrange_basis, log_energy, maximize_log_T, phi,
                       phi_closed, transfinite_d)


# the hat weight at m = 0 (S = 1) and alpha = -1 is e^-x
HAT0 = xf.WeightSpec(xf.FamilySpec("laguerre1", 0, -1.0, 2))


def hat(family, m, alpha, n, beta=None):
    return xf.WeightSpec(spec_of(family, m, alpha, n, beta))


# ---------------------------------------------------------------- weight_logs

def test_base_laguerre_oracles():
    w = hat("laguerre1", 0, 1.0, 2)
    lw, d1, d2 = xf.weight_logs(w, 1.0)
    assert lw == pytest.approx(-1.0, abs=1e-14)
    assert xf.weight_logs(w, 2.0)[1] == pytest.approx(0.0, abs=1e-14)
    assert d2 == pytest.approx(-2.0, abs=1e-14)


def test_hat_laguerre_second_derivative_oracle():
    lw, d1, d2 = xf.weight_logs(hat("laguerre1", 1, 2.0, 3), 1.0)
    assert d2 == pytest.approx(-3 + 2 / 9, rel=1e-13)


def test_hat_jacobi_oracles():
    w = hat("jacobi", 1, 2.0, 3, 1.0)
    lw, d1, d2 = xf.weight_logs(w, 0.0)
    assert lw == pytest.approx(-np.log(9 / 4), rel=1e-13)
    assert d1 == pytest.approx(-5 / 3, rel=1e-13)
    assert d2 == pytest.approx(-43 / 9, rel=1e-13)


def test_hat_is_even_power_of_s():
    # hat differs from the classical weight x^alpha e^-x (hat at m = 0
    # and alpha - 1) exactly by S^{-2} and the shifted exponent
    s = spec_of("laguerre1", 1, 2.0, 3)
    x = 1.7
    lb = xf.weight_logs(hat("laguerre1", 0, 1.0, 3), x)[0]
    lh = xf.weight_logs(xf.WeightSpec(s), x)[0]
    S = npoly.polyval(x, xf.build_S(s))
    assert lh == pytest.approx(lb + np.log(x) - 2 * np.log(abs(S)), rel=1e-13)


def test_hat_extends_to_negative_axis():
    lw, d1, d2 = xf.weight_logs(hat("laguerre1", 1, 2.0, 3), -1.0)
    assert lw == pytest.approx(1.0, rel=1e-13)
    assert d1 == pytest.approx(-6.0, rel=1e-13)
    assert d2 == pytest.approx(-1.0, rel=1e-13)


def test_poles_raise():
    w = hat("laguerre1", 1, 2.0, 3)
    with pytest.raises(xf.PoleEvaluation):
        xf.weight_logs(w, 0.0)
    with pytest.raises(xf.PoleEvaluation):
        xf.weight_logs(w, -2.0)  # zero of S
    with pytest.raises(xf.PoleEvaluation):
        xf.weight_logs(hat("jacobi", 1, 2.0, 3, 1.0), 1.0)


def test_v_weight_polynomial_factor():
    s = spec_of("laguerre1", 1, 2.0, 4)
    zs = zeros_of("laguerre1", 1, 2.0, 4)
    v = xf.v_weight(zs)
    x = 3.1
    lh = xf.weight_logs(xf.WeightSpec(s), x)[0]
    lv = xf.weight_logs(v, x)[0]
    P = np.prod(x - zs.exceptional.real)
    assert lv == pytest.approx(lh + 2 * np.log(abs(P)), rel=1e-12)


def test_v_weight_refuses_an_unpaired_complex_zero():
    # reaches _node_polynomial's "not closed under conjugation": an only
    # exceptional zero -1 + 1i gives P = x + 1 - 1i
    zs = dataclasses.replace(zeros_of("laguerre1", 1, 2.0, 4),
                             exceptional=np.array([-1 + 1j]))
    with pytest.raises(xf.ValidationError,
                       match="not closed under conjugation"):
        xf.v_weight(zs)


def test_v_weight_laguerre2_real_closure():
    # complex-conjugate exceptional zeros must give a real P
    s = spec_of("laguerre2", 2, 3.0, 6)
    v = xf.v_weight(zeros_of("laguerre2", 2, 3.0, 6))
    assert np.isrealobj(v.P)
    assert np.isfinite(xf.weight_logs(v, 2.0)[0])


# ---------------------------------------------------------------- log_energy

def test_log_energy_single_node():
    w = hat("laguerre1", 0, 1.0, 1)
    assert log_energy(np.array([1.0]), w) == pytest.approx(-1.0, abs=1e-14)


def test_log_energy_pair_oracle():
    got = log_energy(np.array([1.0, 3.0]), HAT0)
    assert got == pytest.approx(-4 + 2 * np.log(2), rel=1e-14)


def test_log_energy_permutation_invariant():
    w = hat("laguerre1", 1, 2.0, 4)
    x = np.array([0.5, 2.0, 5.0, 9.0])
    a = log_energy(x, w)
    b = log_energy(x[::-1].copy(), w)
    assert a == b


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_nodes_are_invalid(bad):
    # the input's fault (CLI exit 1), raised before any arithmetic warns
    nodes = np.array([1.0, bad, 7.0])
    calls = [lambda: log_energy(nodes, HAT0),
             lambda: xf.energy_hessian(nodes, HAT0),
             lambda: transfinite_d(nodes, HAT0),
             lambda: lagrange_basis(nodes),
             lambda: maximize_log_T(HAT0, (0.0, 10.0), 3, init=nodes)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(xf.ValidationError, match="finite"):
                call()


def test_coincident_nodes_raise():
    with pytest.raises(xf.CoincidentNodes):
        log_energy(np.array([1.0, 1.0]), HAT0)


# ---------------------------------------------------------------- gradient

def test_fejer_single_node_is_weight_derivative():
    w = hat("laguerre1", 1, 2.0, 1)
    x = np.array([1.0])
    assert xf.energy_hessian(x, w).gradient[0] == xf.weight_logs(w, 1.0)[1]


def test_fejer_antisymmetry_even_weight():
    w = hat("jacobi", 0, 0.0, 2, 0.0)
    c = xf.energy_hessian(np.array([-0.4, 0.4]), w).gradient
    assert c[0] == pytest.approx(-c[1], rel=1e-13)


def test_gradient_matches_finite_differences():
    """Central differences of log T reproduce the Fejér constants."""
    rng = np.random.default_rng(7)
    cases = [hat("laguerre1", 1, 2.0, 4),
             hat("laguerre2", 2, 3.0, 4),
             hat("jacobi", 1, 2.0, 4, 1.0)]
    for w in cases:
        jac = w.spec.family == "jacobi"
        for _ in range(20):
            x = (np.sort(rng.uniform(-0.8, 0.8, 4)) + np.arange(4) * 1e-3
                 if jac else random_nodes(rng, 4, 0.5, 20.0))
            grad = xf.energy_hessian(x, w).gradient
            for k in range(4):
                h = 1e-6 * max(1.0, abs(x[k]))
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (log_energy(xp, w) - log_energy(xm, w)) / (2 * h)
                assert abs(fd - grad[k]) < 1e-5


# ---------------------------------------------------------------- hessian

def test_offdiagonal_entry_exact():
    H = xf.energy_hessian(np.array([0.0, 2.0]), HAT0).hessian
    assert H[0, 1] == 0.5 and H[1, 0] == 0.5


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(11)
    w = hat("laguerre1", 1, 2.0, 4)

    def F(x):
        return log_energy(x, w)

    def shifted(x, moves):
        y = x.copy()
        for k, dk in moves:
            y[k] += dk
        return y

    h = 1e-5
    for _ in range(3):
        x = random_nodes(rng, 4, 0.5, 15.0)
        H = xf.energy_hessian(x, w).hessian
        for i in range(4):
            for j in range(4):
                if i == j:
                    fd = (F(shifted(x, [(i, h)])) - 2 * F(x)
                          + F(shifted(x, [(i, -h)]))) / (h * h)
                else:
                    fd = (F(shifted(x, [(i, h), (j, h)]))
                          - F(shifted(x, [(i, h), (j, -h)]))
                          - F(shifted(x, [(i, -h), (j, h)]))
                          + F(shifted(x, [(i, -h), (j, -h)]))) / (4 * h * h)
                assert abs(fd - H[i, j]) < 1e-4 * (1 + abs(H[i, j]))


def test_concavity_of_v_energy_everywhere():
    """With the fully polynomial-corrected weight, every diagonal entry
    is negative at any node configuration in (0, inf)."""
    s = spec_of("laguerre1", 1, 1.5, 5)
    v = xf.v_weight(zeros_of("laguerre1", 1, 1.5, 5))
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_nodes(rng, 5, 0.05, 40.0)
        H = xf.energy_hessian(x, v).hessian
        assert np.all(np.diag(H) < 0)


# ---------------------------------------------------------------- classification

def test_full_zero_set_is_saddle():
    s = spec_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    nodes = np.sort(np.concatenate([zs.exceptional.real, zs.regular]))
    rep = xf.energy_hessian(nodes, xf.WeightSpec(s))
    assert rep.stationary
    assert rep.classification == "saddle"
    assert list(rep.diag_signs) == [1] + [-1] * 5
    assert rep.block_dominant


def test_regular_zeros_are_local_max():
    s = spec_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    rep = xf.energy_hessian(zs.regular, xf.v_weight(zs))
    assert rep.stationary
    assert rep.classification == "local-max"
    assert rep.diagonally_dominant


def test_nonstationary_points_classified_none():
    rep = xf.energy_hessian(np.array([1.0, 2.0, 7.0]), hat("laguerre1", 1, 2.0, 3))
    assert not rep.stationary
    assert rep.classification == "none"


# ---------------------------------------------------------------- potential

def test_phi_classical_oracle():
    s = xf.FamilySpec("laguerre1", 0, 0.0, 1)
    assert phi(s, 2.0) == pytest.approx(0.5625, rel=1e-13)


def test_phi_pole():
    with pytest.raises(xf.PoleEvaluation):
        phi(spec_of("laguerre1", 1, 2.0, 3), 0.0)
    with pytest.raises(xf.PoleEvaluation):
        phi(spec_of("jacobi", 1, 2.0, 3, 1.0), 1.0)


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 1, 2.0, 5, None),
    ("laguerre1", 2, 1.5, 6, None),
    ("jacobi", 1, 3.0, 5, 1.0),
    ("jacobi", 2, 4.0, 6, 1.0),
])
def test_phi_closed_form_matches_ode_form(family, m, alpha, n, beta):
    s = spec_of(family, m, alpha, n, beta)
    pts = np.linspace(-0.9, 0.9, 7) if family == "jacobi" else np.linspace(0.3, 12.0, 7)
    for x in pts:
        a = phi(s, x)
        b = phi_closed(s, x)
        assert abs(a - b) < 1e-10 * (1 + abs(a))


def test_hessian_diagonal_equals_phi_at_zeros():
    s = spec_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    nodes = np.sort(np.concatenate([zs.exceptional.real, zs.regular]))
    H = xf.energy_hessian(nodes, xf.WeightSpec(s)).hessian
    for i, z in enumerate(nodes):
        assert H[i, i] == pytest.approx(-(2 / 3) * phi(s, z), rel=1e-8)

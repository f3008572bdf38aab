"""Lagrange fundamentals, the weighted squared-basis operator, and the
stability certification on regular zeros."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete.interp import scan_grid

from conftest import random_nodes, spec_of, zeros_of


def v_of(family, m, alpha, n, beta=None):
    return xf.v_weight(zeros_of(family, m, alpha, n, beta))


# ---------------------------------------------------------------- basis

def test_kronecker_property():
    L = xf.lagrange_basis(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(L(0.0), [1.0, 0.0])
    np.testing.assert_array_equal(L(1.0), [0.0, 1.0])


def test_middle_basis_value():
    L = xf.lagrange_basis(np.array([0.0, 1.0, 2.0]))
    assert L(0.5)[1] == pytest.approx(0.75, rel=1e-14)


def test_basis_shapes():
    L = xf.lagrange_basis(np.array([0.0, 1.0, 2.0]))
    assert L(0.5).shape == (3,)
    assert L(np.array([0.5, 1.5])).shape == (3, 2)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    zs = zeros_of("laguerre1", 1, 2.0, 6)
    for nodes in (np.linspace(0.0, 5.0, 6), zs.regular):
        x = rng.uniform(nodes[0], nodes[-1], 20)
        total = xf.lagrange_basis(nodes)(x).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_partition_of_unity_scales_with_conditioning(seed, n):
    rng = np.random.default_rng(seed)
    nodes = 0.1 + np.cumsum(rng.uniform(0.2, 5.0, n))
    x = rng.uniform(nodes[0] - 2.0, nodes[-1] + 2.0, 20)
    vals = xf.lagrange_basis(nodes)(x)
    # adversarial node sets are tested against the Lebesgue function,
    # the conditioning of any pointwise statement about the basis
    lebesgue = np.abs(vals).sum(axis=0)
    err = np.abs(vals.sum(axis=0) - 1.0)
    assert np.all(err < 5e-15 * (1.0 + lebesgue))


def test_coincident_nodes_rejected():
    with pytest.raises(xf.CoincidentNodes):
        xf.lagrange_basis(np.array([1.0, 1.0]))


@pytest.mark.parametrize("nodes", [[], [[1.0, 2.0]], 1.0])
def test_nodes_that_are_not_a_nonempty_1d_array_are_invalid(nodes):
    # the input's fault, not a numerical failure (CLI exit 1, not 2)
    with pytest.raises(xf.ValidationError):
        xf.lagrange_basis(np.array(nodes))


# ---------------------------------------------------------------- operator

def test_operator_interpolates():
    zs = zeros_of("laguerre1", 1, 2.0, 2)
    v = v_of("laguerre1", 1, 2.0, 2)
    y = np.array([0.3, 0.7])
    G = xf.grunwald(zs.regular, v, y=y)
    assert G(zs.regular[0]) == 0.3
    assert G(zs.regular[1]) == 0.7


def test_operator_annihilates_zero_data():
    zs = zeros_of("laguerre1", 1, 2.0, 4)
    G = xf.grunwald(zs.regular, v_of("laguerre1", 1, 2.0, 4),
                    y=np.zeros(4))
    x = np.linspace(0.1, 20.0, 50)
    assert np.max(np.abs(G(x))) == 0.0


def test_operator_default_data_is_unit():
    zs = zeros_of("laguerre1", 1, 2.0, 3)
    G = xf.grunwald(zs.regular, v_of("laguerre1", 1, 2.0, 3))
    assert G(zs.regular[2]) == 1.0


def test_monotone_bound_in_stable_regime():
    """0 <= y <= 1 forces 0 <= G y <= max y within rounding."""
    zs = zeros_of("laguerre1", 1, 2.0, 8)
    v = v_of("laguerre1", 1, 2.0, 8)
    rng = np.random.default_rng(5)
    grid = scan_grid(zs.regular, "laguerre1", grid_size=400)
    for _ in range(5):
        y = rng.uniform(0.0, 1.0, 8)
        vals = xf.grunwald(zs.regular, v, y=y)(grid)
        assert np.min(vals) >= 0.0
        assert np.max(vals) <= np.max(y) + 1e-10


def test_operator_matches_hermite_form():
    """At the regular zeros the Fejér constants vanish, so the
    first-order Hermite interpolant collapses onto the squared-basis
    operator with unit data."""
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    G = xf.grunwald(zs.regular, v)
    Hm = xf.hermite_form(zs.regular, v)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.05, 30.0, 50)
    gv, hv = G(x), Hm(x)
    assert np.max(np.abs(gv - hv) / (np.abs(gv) + 1e-30)) < 1e-8


def test_total_degree_accounting():
    """With the weight stripped, sum_k l_k(x)^2 / v(x_k) times P(x)^2 is
    a single polynomial of degree exactly 2n - 2 + 2m."""
    n, m = 4, 1
    zs = zeros_of("laguerre1", m, 2.0, n)
    v = v_of("laguerre1", m, 2.0, n)
    L = xf.lagrange_basis(zs.regular)
    inv_v = np.exp(-np.array([xf.weight_logs(v, t)[0] for t in zs.regular]))
    deg = 2 * n - 2 + 2 * m

    def H(x):
        q = (L(x) ** 2 * inv_v[:, None]).sum(axis=0)
        P = np.prod(x[:, None] - zs.exceptional.real[None, :], axis=1)
        return q * P * P

    # interpolating at deg+1 points reproduces H; one degree less cannot
    t_fit = np.linspace(0.5, 14.0, deg + 1)
    c = npoly.polyfit(t_fit, H(t_fit), deg)
    t_new = np.linspace(1.0, 13.0, 17)
    scale = np.abs(H(t_new)) + 1.0
    assert np.max(np.abs(npoly.polyval(t_new, c) - H(t_new)) / scale) < 1e-8
    c_low = npoly.polyfit(t_fit, H(t_fit), deg - 1)
    assert np.max(np.abs(npoly.polyval(t_new, c_low) - H(t_new)) / scale) > 1e-4


# ---------------------------------------------------------------- stability

def test_stability_scan_passes_in_regime():
    rep = xf.stability_scan(zeros_of("laguerre1", 1, 2.0, 3), grid_size=400)
    assert rep["passed"]
    assert rep["one_minus_g_min_offnode"] > 0
    assert rep["max"] <= 1 + 1e-10
    assert rep["min"] >= 0
    assert rep["total_degree"] == 3 * (2 * 3 - 2 + 2 * 1)


def test_stability_scan_classical_control():
    rep = xf.stability_scan(zeros_of("laguerre1", 0, 1.0, 5), grid_size=400)
    assert rep["passed"]


def test_scan_grid_refines_near_nodes():
    nodes = np.array([1.0, 4.0])
    grid = scan_grid(nodes, "laguerre1", grid_size=100)
    assert np.min(np.abs(grid - 1.0)) < 1e-4
    assert np.all(grid > 0)


# ---------------------------------------------------------------- brackets

def test_inverse_weight_brackets_positive():
    """Second and fourth logarithmic brackets of 1/v stay positive on
    the positive axis, the convexity input to the error bound."""
    v = v_of("laguerre1", 1, 2.0, 5)
    x = np.linspace(0.4, 25.0, 10)
    b2, b4 = xf.inv_weight_brackets(v, x)
    assert np.all(b2 > 0) and np.all(b4 > 0)


def test_inverse_weight_brackets_match_finite_differences():
    v = v_of("laguerre1", 1, 2.0, 4)
    x0 = 3.0
    h = 1e-2
    stencil = x0 + h * np.arange(-4, 5)
    e = np.exp(-np.array([xf.weight_logs(v, t)[0] for t in stencil]))
    b2, b4 = xf.inv_weight_brackets(v, np.array([x0]))
    d2 = (e[5] - 2 * e[4] + e[3]) / h**2
    d4 = (e[6] - 4 * e[5] + 6 * e[4] - 4 * e[3] + e[2]) / h**4
    assert b2[0] * e[4] == pytest.approx(d2, rel=1e-3)
    assert b4[0] * e[4] == pytest.approx(d4, rel=1e-2)

"""Transfinite-diameter sequence and the zero-sum trace identity."""

import numpy as np
import pytest

import xfekete as xf

from conftest import spec_of, zeros_of


# ---------------------------------------------------------------- transfinite_d

def test_unit_weight_pair_oracle():
    # -log(1/2) - 2 log 2 / 2 = 0 exactly
    assert xf.transfinite_d(np.array([0.0, 2.0])) == 0.0


def test_scaling_constant_enters_additively():
    x = np.array([0.0, 2.0])
    assert xf.transfinite_d(x, c=2.0) - xf.transfinite_d(x) == pytest.approx(
        -np.log(2.0), rel=1e-15)


def test_needs_two_nodes():
    with pytest.raises(xf.ValidationError):
        xf.transfinite_d(np.array([1.0]))
    with pytest.raises(xf.CoincidentNodes):
        xf.transfinite_d(np.array([1.0, 1.0]))


def test_diameter_minimized_at_regular_zeros():
    """The value at the regular zeros matches the optimizer's maximum
    of log T (d is a decreasing transform of it)."""
    zs = zeros_of("laguerre1", 1, 2.0, 8)
    v = xf.v_weight(spec_of("laguerre1", 1, 2.0, 8), zs)
    at_zeros = xf.transfinite_d(zs.regular, v)
    nodes, _ = xf.maximize_log_T(v, xf.default_domain(v, 8), 8,
                                 init=zs.regular * 1.05)
    assert abs(xf.transfinite_d(nodes, v) - at_zeros) < 1e-8
    # any perturbation can only increase d
    assert xf.transfinite_d(zs.regular * 1.1, v) > at_zeros


# ---------------------------------------------------------------- zero sum

def test_zero_sum_hand_oracles():
    r = xf.zero_sum_check(spec_of("laguerre1", 1, 2.0, 5))
    assert r.rhs == 32.0
    assert r.abs_err < 1e-8
    assert r.flags == ()

    r0 = xf.zero_sum_check(spec_of("laguerre1", 0, 1.0, 1))
    assert r0.lhs == pytest.approx(2.0, rel=1e-13)
    assert r0.rhs == 2.0


def test_zero_sum_out_of_regime_flagged():
    r = xf.zero_sum_check(spec_of("laguerre1", 2, 3.0, 1))
    assert r.rhs == -6.0
    assert r.flags


def test_zero_sum_other_families_rejected():
    with pytest.raises(xf.ValidationError):
        xf.zero_sum_check(spec_of("laguerre2", 1, 3.0, 5))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.5])
def test_zero_sum_identity_grid(m, alpha):
    for n in (2, 7, 19, 34, 60):
        r = xf.zero_sum_check(xf.FamilySpec("laguerre1", m, alpha, n))
        assert r.abs_err < 1e-6 * (1 + abs(r.rhs))


def test_zero_sum_splits_total():
    r = xf.zero_sum_check(spec_of("laguerre1", 2, 1.5, 9))
    assert r.lhs == pytest.approx(r.regular_sum + r.exceptional_sum, rel=1e-14)


# ---------------------------------------------------------------- d_sequence

def test_sequence_fields_and_first_delta():
    ser = xf.d_sequence(1, 2.0, range(10, 16))
    np.testing.assert_array_equal(ser.n_values, np.arange(10, 16))
    assert ser.skipped == ()
    # the member below the range start is computed so every delta exists
    assert np.all(np.isfinite(ser.deltas))
    assert ser.d.shape == ser.deltas.shape == ser.ps_ratio_max.shape
    assert np.all(ser.ps_ratio_max > 0)
    assert 0 < ser.rate_stat < 10


def test_sequence_deltas_cancel_scaling_constant():
    a = xf.d_sequence(1, 2.0, range(10, 21), c=1.0)
    b = xf.d_sequence(1, 2.0, range(10, 21), c=3.0)
    assert np.max(np.abs(a.deltas - b.deltas)) < 1e-12
    np.testing.assert_allclose(a.d - b.d, np.log(3.0) * np.ones(11), rtol=1e-12)


def test_sequence_classical_control():
    ser = xf.d_sequence(0, 2.0, range(10, 16))
    assert ser.skipped == ()
    assert np.all(np.isfinite(ser.d))


def test_sequence_degree_cap():
    with pytest.raises(xf.ValidationError):
        xf.d_sequence(1, 2.0, range(199, 202))


"""Transfinite-diameter sequence and the zero-sum trace identity."""

import warnings

import mpmath
import numpy as np
import pytest

import xfekete as xf
from xfekete import roots

from conftest import spec_of, zeros_of
from reference import maximize_log_T, transfinite_d


# ---------------------------------------------------------------- transfinite_d

def v_pair():
    """The regular zeros of laguerre1 m = 1, alpha = 2, n = 2, and their
    v weight: a two-node diameter member."""
    zs = zeros_of("laguerre1", 1, 2.0, 2)
    return zs.regular, xf.v_weight(zs)


def test_scaling_constant_enters_additively():
    x, v = v_pair()
    assert transfinite_d(x, v, c=2.0) - transfinite_d(x, v) == \
        pytest.approx(-np.log(2.0), rel=1e-15)


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
def test_scaling_constant_is_finite_and_positive(c):
    x, v = v_pair()
    with pytest.raises(xf.ValidationError):
        transfinite_d(x, v, c=c)
    # the sweep refuses it up front instead of skipping every member
    with pytest.raises(xf.ValidationError):
        xf.d_sequence(1, 2.0, range(5, 7), c=c)


def test_needs_two_nodes():
    _, v = v_pair()
    with pytest.raises(xf.ValidationError):
        transfinite_d(np.array([1.0]), v)
    with pytest.raises(xf.CoincidentNodes):
        transfinite_d(np.array([1.0, 1.0]), v)


def test_diameter_minimized_at_regular_zeros():
    """The value at the regular zeros matches the optimizer's maximum
    of log T (d is a decreasing transform of it)."""
    zs = zeros_of("laguerre1", 1, 2.0, 8)
    v = xf.v_weight(zs)
    at_zeros = transfinite_d(zs.regular, v)
    nodes, _ = maximize_log_T(v, xf.default_domain(v, 8), 8,
                              init=zs.regular * 1.05)
    assert abs(transfinite_d(nodes, v) - at_zeros) < 1e-8
    # any perturbation can only increase d
    assert transfinite_d(zs.regular * 1.1, v) > at_zeros


# ---------------------------------------------------------------- zero sum

def test_zero_sum_hand_oracles():
    r = xf.zero_sum_check(zeros_of("laguerre1", 1, 2.0, 5))
    assert r.rhs == 32.0
    assert r.abs_err < 1e-8

    r0 = xf.zero_sum_check(zeros_of("laguerre1", 0, 1.0, 1))
    assert r0.lhs == pytest.approx(2.0, rel=1e-13)
    assert r0.rhs == 2.0
    # out of the regime (n < m) the rhs is reported as it is
    assert xf.zero_sum_check(zeros_of("laguerre1", 2, 3.0, 1)).rhs == -6.0


def test_zero_sum_other_families_rejected():
    with pytest.raises(xf.ValidationError):
        xf.zero_sum_check(zeros_of("laguerre2", 1, 3.0, 5))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.5])
def test_zero_sum_identity_grid(m, alpha):
    for n in (2, 7, 19, 34, 60):
        r = xf.zero_sum_check(
            xf.find_zeros(xf.FamilySpec("laguerre1", m, alpha, n)))
        assert r.abs_err < 1e-6 * (1 + abs(r.rhs))


def test_zero_sum_splits_total():
    zs = zeros_of("laguerre1", 2, 1.5, 9)
    r = xf.zero_sum_check(zs)
    assert r.lhs == pytest.approx(
        np.sum(zs.regular) + np.sum(zs.exceptional.real), rel=1e-14)


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


def mp_diameter(zs, c=1.0):
    """d at the float regular zeros of zs from a 40-digit pair sum: the
    pair product and the v weight (float coefficients of S and P) in
    mpmath, whose exponent range holds the product whole."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(t)) for t in zs.regular]
        S = [mpmath.mpf(float(t)) for t in zs.spec.S.c[::-1]]
        P = [mpmath.mpf(float(t)) for t in xf.v_weight(zs).P[::-1]]
        a, n = zs.spec.alpha + 1.0, len(x)
        logv = mpmath.fsum(a * mpmath.log(t) - t
                           - 2 * mpmath.log(abs(mpmath.polyval(S, t)))
                           + 2 * mpmath.log(abs(mpmath.polyval(P, t)))
                           for t in x)
        pairs = mpmath.fprod(x[j] - x[i] for j in range(n)
                             for i in range(j))
        F = logv + 2 * mpmath.log(pairs)
        return -mpmath.log(mpmath.mpf(c) / n) - F / (n * (n - 1))


@pytest.mark.parametrize("m,alpha", [(1, 2.0), (3, 2.7), (5, 4.2)])
def test_sequence_matches_a_40_digit_pair_sum(m, alpha):
    # log T from y' at the zeros against the pair sum on the same float
    # nodes, across n = 166..168, where 1/(m! n!) leaves binary64
    ns = (2, 3, 4, 10, 17, 40, 99, 150, 165, 166, 167, 168, 200)
    ser = xf.d_sequence(m, alpha, ns)
    assert ser.skipped == () and tuple(ser.n_values) == ns
    found = roots.find_zeros_ladder(xf.FamilySpec("laguerre1", m, alpha, 2),
                                    list(ns))
    for d, zs in zip(ser.d, found):
        want = mp_diameter(zs)
        assert abs((d - want) / want) < 1e-14, zs.spec


def test_sequence_skips_members_past_the_recurrence_range():
    # no degree cap: at (1, 2) the sweep certifies to n = 362, and each
    # later member, whose recurrence leaves binary64, is skipped with a
    # NonConvergence that names its own n, and no warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ser = xf.d_sequence(1, 2.0, range(355, 371))
    assert ser.n_values.tolist() == list(range(355, 363))
    assert np.all(np.isfinite(ser.d))
    assert [n for n, _ in ser.skipped] == list(range(363, 371))
    for n, reason in ser.skipped:
        assert reason.startswith("NonConvergence: ")
        assert f"n={n}, beta=None" in reason


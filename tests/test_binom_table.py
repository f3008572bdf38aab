"""Generalized binomials as one prefix table per parameter.

The references are the loops the tables replaced: each binomial its own
falling-factorial product, each Laguerre coefficient divided by 2..k in
its own loop.  The tables make the same floating-point operations in the
same order, so every comparison is on the bytes, overflow included.
"""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete.classical_poly import _power_table, binom_table, gen_binom


def ref_gen_binom(z, k):
    out = 1.0
    for i in range(k):
        out *= (z - i) / (i + 1)
    return out


def ref_laguerre_coeffs(m, a):
    c = np.zeros(m + 1)
    for k in range(m + 1):
        t = ref_gen_binom(m + a, m - k)
        for r in range(2, k + 1):
            t /= r
        c[k] = -t if k % 2 else t
    return c


def ref_jacobi_coeffs(m, a, b):
    lo, hi = _power_table([-1.0, 1.0], m), _power_table([1.0, 1.0], m)
    c = np.zeros(m + 1)
    for k in range(m + 1):
        term = ref_gen_binom(m + a, k) * ref_gen_binom(m + b, m - k)
        if term == 0.0:
            continue
        part = npoly.polymul(lo[m - k], hi[k])
        c[: len(part)] += term * part
    return np.ldexp(c, -m)


DEGREES = list(range(0, 80)) + [120, 150, 200, 400]


def _params(m, count=5):
    rng = np.random.default_rng(300 + m)
    return list(rng.uniform(-6.0, 6.0, size=count)) + [-3.0, 2.0]


def test_binom_table_entries_are_the_loop():
    for z in (7.5, -2.25, 3.0, np.float64(11.125), 400.7):
        g = binom_table(z, 60)
        for k in range(61):
            assert np.float64(g[k]).tobytes() == \
                np.float64(ref_gen_binom(z, k)).tobytes()
            assert type(g[k]) is type(ref_gen_binom(z, k)) or k == 0
        assert gen_binom(z, 60) == ref_gen_binom(z, 60)


@pytest.mark.parametrize("m", DEGREES)
def test_laguerre_coeffs_match_the_loops(m):
    for a in _params(m):
        with np.errstate(all="ignore"):
            assert xf.laguerre_coeffs(m, a).tobytes() == \
                ref_laguerre_coeffs(m, a).tobytes()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 40, 79, 120, 200, 400])
def test_jacobi_coeffs_match_the_loops(m):
    rng = np.random.default_rng(700 + m)
    for a, b in rng.uniform(-6.0, 6.0, size=(3, 2)):
        with np.errstate(all="ignore"):
            assert xf.jacobi_coeffs(m, a, b).tobytes() == \
                ref_jacobi_coeffs(m, a, b).tobytes()


@pytest.mark.parametrize("m,a", [(400, 700.0), (400, np.float64(900.5)),
                                 (300, 1500.25)])
def test_overflowing_laguerre_binomials_match_the_loops(m, a):
    # C(m + a, m - k) exceeds binary64: a Python float goes to inf
    # silently, a numpy scalar under over="raise" raises, as before
    with np.errstate(all="ignore"):
        ref = ref_laguerre_coeffs(m, a)
        new = xf.laguerre_coeffs(m, a)
    assert not np.all(np.isfinite(ref))
    assert new.tobytes() == ref.tobytes()
    with np.errstate(over="raise"):
        outcomes = []
        for fn in (ref_laguerre_coeffs, xf.laguerre_coeffs):
            try:
                outcomes.append(fn(m, a).tobytes())
            except FloatingPointError:
                outcomes.append(FloatingPointError)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is FloatingPointError) == isinstance(a, np.float64)


def test_overflowing_jacobi_binomials_match_the_loops():
    m, a, b = 400, 1.22, 4.89
    with np.errstate(all="ignore"):
        ref = ref_jacobi_coeffs(m, a, b)
        new = xf.jacobi_coeffs(m, a, b)
    assert not np.all(np.isfinite(ref))
    assert new.tobytes() == ref.tobytes()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            ref_jacobi_coeffs(m, a, b)
        with pytest.raises(FloatingPointError):
            xf.jacobi_coeffs(m, a, b)

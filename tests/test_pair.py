"""The fused value-and-derivative evaluators against independent references.

The references are the evaluators the package used before the fused
pass: one value-only recurrence per classical factor, derivatives from
the parameter-shift identities
    d/dx L_n^(a) = -L_{n-1}^(a+1),
    d/dx P_n^(a,b) = (n+a+b+1)/2 P_{n-1}^(a+1,b+1),
and, for laguerre1, the Leibniz sum over the two products.  Agreement is
required to 1e-12 on the scale |f| + |f'| (1 + |x|) for f = y and
f = y', i.e. relative where |f| dominates and as a relative shift of the
nearby zero where it does not.  A 30-digit mpmath evaluation of the
closed forms is the third, independent check.
"""

from math import comb

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import exceptional, roots

from reference import (jacobi_sweep, jacobi_zeros, laguerre_sweep,
                       laguerre_zeros, second_derivative)

TOL = 1e-12


# ---------------------------------------------------------------- references

def ref_laguerre(n, a, x):
    x = np.asarray(x)
    if n == 0:
        return np.ones_like(x)
    pm1 = np.ones_like(x)
    p = 1.0 + a - x
    for k in range(1, n):
        pm1, p = p, ((2 * k + 1 + a - x) * p - (k + a) * pm1) / (k + 1)
    return p


def ref_laguerre_deriv(n, a, x, d):
    if n - d < 0:
        return np.zeros_like(np.asarray(x))
    val = ref_laguerre(n - d, a + d, x)
    return -val if d % 2 else val


def ref_jacobi(n, a, b, x):
    # the serial scaled monic recurrence's P_n
    return jacobi_sweep(n, a, b, x)[0]


def ref_jacobi_deriv(n, a, b, x, d):
    if n - d < 0:
        return np.zeros_like(np.asarray(x))
    fac = 1.0
    for i in range(d):
        fac *= 0.5 * (n + a + b + 1 + i)
    return fac * ref_jacobi(n - d, a + d, b + d, x)


def ref_lag1(m, n, al, x, deriv):
    tot = np.zeros_like(x)
    for d in range(deriv + 1):
        cb = comb(deriv, d)
        f1 = ref_laguerre(m - d, al + d, -x) if m - d >= 0 \
            else np.zeros_like(x)
        g1 = ref_laguerre_deriv(n, al - 1.0, x, deriv - d)
        f2 = ref_laguerre(m - d, al - 1.0 + d, -x) if m - d >= 0 \
            else np.zeros_like(x)
        g2 = ref_laguerre_deriv(n - 1, al, x, deriv - d) if n >= 1 \
            else np.zeros_like(x)
        tot = tot + cb * (f1 * g1 + f2 * g2)
    return tot


def _S_and_Sp(spec, x):
    Sc = xf.build_S(spec)
    Sp = npoly.polyder(Sc) if spec.m >= 1 else np.zeros(1)
    return npoly.polyval(x, Sc), npoly.polyval(x, Sp)


def ref_lag2(spec, x, deriv):
    m, n, al = spec.m, spec.n, spec.alpha
    S, Sp = _S_and_Sp(spec, x)
    u = ref_laguerre(n, al + 1.0, x)
    up = ref_laguerre_deriv(n, al + 1.0, x, 1)
    if deriv == 0:
        return x * S * up + ((al + 1.0) * S - x * Sp) * u
    if deriv == 1:
        return x * S * up + ((m - n) * S - x * Sp) * u
    return ((x - al + m - n - 1.0) * S * up
            + ((m - n) * S + (m - n - 1.0 - al - x) * Sp) * u)


def ref_jac(spec, x, deriv):
    m, n, al, be = spec.m, spec.n, spec.alpha, spec.beta
    S, Sp = _S_and_Sp(spec, x)
    u = ref_jacobi(n, al + 1.0, be - 1.0, x)
    up = ref_jacobi_deriv(n, al + 1.0, be - 1.0, x, 1)
    lam = m * (al - be - m + 1.0) + n * (n + al + be + 1.0)
    y = (1 - x) * S * up - ((al + 1.0) * S + (1 - x) * Sp) * u
    yp = (-be * (1 - x) * S * up + (-lam * S + be * (1 - x) * Sp) * u) \
        / (1 + x)
    if deriv == 0:
        return y
    if deriv == 1:
        return yp
    Av = (1 - x ** 2) * S
    Bv = (be - al - (al + be + 2) * x) * S - 2 * (1 - x ** 2) * Sp
    Cv = lam * S - 2 * be * (1 - x) * Sp
    return -(Bv * yp + Cv * y) / Av


def reference(spec, x, deriv):
    if spec.family == "laguerre1":
        return ref_lag1(spec.m, spec.n, spec.alpha, x, deriv)
    if spec.family == "laguerre2":
        return ref_lag2(spec, x, deriv)
    return ref_jac(spec, x, deriv)


# ---------------------------------------------------------------- cases

def spec_for(family, m, n):
    """In-regime parameters for each family."""
    if family == "laguerre1":
        return xf.FamilySpec(family, m, 1.7, n)
    if family == "laguerre2":
        return xf.FamilySpec(family, m, m + 0.6, n)
    return xf.FamilySpec(family, m, m + 0.4, n, beta=0.7)


def sample_points(spec):
    """A grid across and beyond the orthogonality interval plus the
    classical Gauss nodes, where y is near its zeros."""
    n, al = spec.n, spec.alpha
    if spec.family == "jacobi":
        grid = np.linspace(-1.3, 1.3, 41)
        nodes = jacobi_zeros(n, al, spec.beta)
    else:
        grid = np.linspace(-3.0 - 2 * spec.m, 4.0 * n + 2 * al + 10, 41)
        nodes = laguerre_zeros(n, al)
    return np.concatenate([grid, nodes])


def assert_close(got, want, scale, what):
    err = np.abs(got - want) / np.maximum(scale, 1e-300)
    worst = int(np.argmax(err))
    assert err[worst] <= TOL, (what, worst, err[worst])


CASES = [(fam, m, n) for fam in xf.exceptional.FAMILIES
         for m in range(6) for n in (0, 1, 2, 20, 150)]


@pytest.mark.parametrize("family,m,n", CASES)
@pytest.mark.parametrize("shift", [0.0, 0.3j], ids=["real", "complex"])
def test_pair_matches_reference(family, m, n, shift):
    spec = spec_for(family, m, n)
    x = sample_points(spec) + shift
    y0, y1, y2 = (reference(spec, x, d) for d in (0, 1, 2))
    y, yp = exceptional.ladder_eval_pair(spec, spec.n, x)
    assert np.iscomplexobj(y) == bool(shift)
    w = 1 + np.abs(x)
    assert_close(y, y0, np.abs(y0) + np.abs(y1) * w, "y")
    assert_close(yp, y1, np.abs(y1) + np.abs(y2) * w, "y'")


@pytest.mark.parametrize("family", xf.exceptional.FAMILIES)
def test_second_derivative_from_the_ode(family):
    spec = spec_for(family, 2, 20)
    lo, hi = (-0.9, 0.9) if family == "jacobi" else (0.2, 60.0)
    x = np.linspace(lo, hi, 37)
    want = reference(spec, x, 2)
    got = second_derivative(spec, x)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("family", xf.exceptional.FAMILIES)
def test_newton_ratios_match_mpmath(family):
    # t2 = y''/y' and t3 = y'''/y' from the family ODE and its derivative,
    # against 40-digit derivatives of the closed form, inside and outside
    # the interval and at a complex point; the pair keeps its bits
    spec = spec_for(family, 2, 20)
    if family == "jacobi":
        x = np.r_[np.linspace(-0.9, 0.9, 37), -3.0, 2.5] + 0j
        x[-1] = 0.3 + 0.4j
    else:
        x = np.r_[np.linspace(0.2, 60.0, 37), -4.0, 90.0] + 0j
        x[-1] = 5.0 + 2.0j
    y, yp, t2, t3 = exceptional._ladder_eval_ratios(spec, spec.n, x)
    for g, w in zip((y, yp), exceptional.ladder_eval_pair(spec, spec.n, x)):
        assert g.tobytes() == w.tobytes()
    f = mp_member(spec)
    with mpmath.workdps(40):
        for k, xk in enumerate(x):
            z = mpmath.mpmathify(complex(xk))
            d1, d2, d3 = (mpmath.diff(f, z, d) for d in (1, 2, 3))
            for got, want in ((t2[k], complex(d2 / d1)),
                              (t3[k], complex(d3 / d1))):
                assert abs(got - want) <= 1e-12 * abs(want), (xk, got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 20, 150])
def test_classical_pass_matches_reference(n):
    """Values are bit-identical to the serial scaled monic recurrence;
    the carried derivatives agree with the parameter-shift identities."""
    xl = np.linspace(-2.0, 1.5 * n + 10, 31)
    xj = np.linspace(-1.2, 1.2, 31)
    for a in (-0.5, 0.0, 2.3):
        for x in (xl, xl + 0.2j):
            p, pm1, d, _ = xf.laguerre_pass(n, a, x)
            want = laguerre_sweep(n, a, x)
            np.testing.assert_array_equal(p, want[0])
            if n:
                np.testing.assert_array_equal(pm1, want[1])
            scale = np.abs(d) + np.abs(ref_laguerre_deriv(n, a, x, 2)) \
                * (1 + np.abs(x))
            assert_close(d, ref_laguerre_deriv(n, a, x, 1), scale, "L'")
        for b in (-0.4, 1.1):
            for x in (xj, xj + 0.2j):
                p, pm1, d, _ = xf.jacobi_pass(n, a, b, x)
                np.testing.assert_array_equal(p, ref_jacobi(n, a, b, x))
                scale = np.abs(d) + np.abs(ref_jacobi_deriv(n, a, b, x, 2)) \
                    * (1 + np.abs(x))
                assert_close(d, ref_jacobi_deriv(n, a, b, x, 1), scale, "P'")


# ---------------------------------------------------------------- mpmath

def mp_member(spec):
    """The closed form of each family at working precision."""
    m, n, al = spec.m, spec.n, mpmath.mpf(spec.alpha)
    L, P = mpmath.laguerre, mpmath.jacobi
    if spec.family == "laguerre1":
        return lambda x: (L(m, al, -x) * L(n, al - 1, x)
                          + L(m, al - 1, -x) * L(n - 1, al, x))
    if spec.family == "laguerre2":
        S = lambda x: L(m, -al - 1, x)
        u = lambda x: L(n, al + 1, x)
        return lambda x: (x * S(x) * mpmath.diff(u, x)
                          + ((al + 1) * S(x) - x * mpmath.diff(S, x)) * u(x))
    be = mpmath.mpf(spec.beta)
    S = lambda x: P(m, -al - 1, be - 1, x)
    u = lambda x: P(n, al + 1, be - 1, x)
    return lambda x: ((1 - x) * S(x) * mpmath.diff(u, x)
                      - ((al + 1) * S(x) + (1 - x) * mpmath.diff(S, x)) * u(x))


@pytest.mark.parametrize("family,m,n,xs", [
    ("laguerre1", 2, 20, [-3.1, 0.45, 7.7, 41.0]),
    ("laguerre1", 1, 150, [-2.6, 3.3, 200.0]),
    ("laguerre2", 3, 20, [0.9, 12.5, 3.0 + 1.5j]),
    ("jacobi", 2, 20, [-0.83, 0.11, 1.4, 0.2 + 0.4j]),
])
def test_pair_matches_mpmath(family, m, n, xs):
    spec = spec_for(family, m, n)
    f = mp_member(spec)
    x = np.array(xs, dtype=complex if any(np.iscomplex(xs)) else float)
    y, yp = exceptional.ladder_eval_pair(spec, spec.n, x)
    with mpmath.workdps(30):
        for k, xk in enumerate(xs):
            z = mpmath.mpmathify(xk)
            v0, v1, v2 = (complex(mpmath.diff(f, z, d)) for d in range(3))
            w = 1 + abs(xk)
            assert abs(y[k] - v0) <= TOL * (abs(v0) + abs(v1) * w)
            assert abs(yp[k] - v1) <= TOL * (abs(v1) + abs(v2) * w)


# ---------------------------------------------------------------- Newton

def test_regular_newton_stops_at_the_rounding_floor(monkeypatch):
    """n = 150 never reaches the 1e-15 step; the stop on a largest step
    that did not shrink ends the polish within a handful of
    evaluations."""
    calls = []
    ratios = roots._ladder_eval_ratios

    def counted(spec, n, x):
        calls.append(np.size(x))
        return ratios(spec, n, x)

    monkeypatch.setattr(roots, "_ladder_eval_ratios", counted)
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 150)
    (x,) = roots._newton_ladder(spec, [150], [laguerre_zeros(150, 2.0)])
    assert 0 < len(calls) <= 10
    y, yp = exceptional.ladder_eval_pair(spec, spec.n, x)
    assert np.max(np.abs(y / yp) / (1 + np.abs(x))) < 1e-13


def test_a_creeping_iterate_ends_by_its_own_order(monkeypatch):
    """The zero of S seeds a regular iterate, so nothing divides the 80
    regular zeros out of y: the step from it (plain Newton, since A = 0
    there) overshoots to 2.15, and the quartic steps creep back by about
    2e-2 relative per round.  The largest step shrinks every round, so
    no round count stops the iterate: it lands on the exceptional zero
    (the reference of the next test) after more than 20 rounds."""
    calls = []
    ratios = roots._ladder_eval_ratios
    monkeypatch.setattr(roots, "_ladder_eval_ratios", lambda s, k, x:
                        calls.append(x.copy()) or ratios(s, k, x))
    spec = xf.FamilySpec("jacobi", 1, 0.289, 80, beta=2.53)
    seeds = np.roots(xf.build_S(spec)[::-1]).astype(complex)
    (x,) = roots._newton_ladder(spec, [80], [seeds])
    assert 20 < len(calls) < 30
    assert abs(calls[1][0] - 2.15) < 1e-2
    assert x[0] == pytest.approx(1.2673319736426718, rel=1e-14)


@pytest.mark.parametrize("alpha,beta,n,zero", [
    (0.289, 2.53, 80, 1.2673319736426718),
    (0.647, 0.846, 60, 7.62492483381299),
])
def test_exceptional_newton_divides_out_the_regular_zeros(alpha, beta, n,
                                                          zero):
    """With the regular zeros divided out, Newton from the zero of S lands
    on the exceptional zero in a few steps (references: 40-digit mpmath
    refinement of the closed form)."""
    zs = xf.find_zeros(xf.FamilySpec("jacobi", 1, alpha, n, beta=beta))
    assert zs.certificate["passed"]
    assert zs.exceptional[0].real == pytest.approx(zero, rel=1e-14)

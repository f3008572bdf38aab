"""Classical Laguerre and Jacobi polynomials with general real parameters.

Coefficient builders use explicit sums with generalized binomials computed
as falling-factorial products, so negative and non-integer parameters are
handled without gamma-function poles.  Pointwise evaluation goes through
one three-term sweep per family that carries the differentiated
recurrence along, so a single pass gives p_n, p_{n-1} and both
derivatives; it stays accurate far beyond the degrees at which monomial
coefficients become unusable.  Also provides Gauss-type
zeros via the symmetric tridiagonal eigenproblem and the first positive
zero of the Bessel function J_a from its ascending series.
"""

import functools
import numpy as np
import numpy.polynomial.polynomial as npoly
from math import lgamma, log

from .errors import (DegreeCollapse, NoSignChange, SeriesDivergence,
                     ValidationError)

TRIM_REL = 1e-13


def trim(coeffs):
    """Drop trailing coefficients below TRIM_REL relative to the largest.

    Returns a float array of length >= 1.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > TRIM_REL * scale)[0]
    return c[: keep[-1] + 1].copy()


def gen_binom(z, k):
    """Generalized binomial C(z, k) as a falling-factorial product.

    Division is interleaved so intermediates stay near the result's scale.
    """
    out = 1.0
    for i in range(k):
        out *= (z - i) / (i + 1)
    return out


def laguerre_coeffs(m, a):
    """Monomial coefficients (ascending) of the Laguerre polynomial L_m^(a).

    L_m^(a)(x) = sum_k (-1)^k C(m+a, m-k) x^k / k!.  Valid for any real a;
    the leading coefficient is (-1)^m/m! and never vanishes.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    c = np.zeros(m + 1)
    for k in range(m + 1):
        t = gen_binom(m + a, m - k)
        for r in range(2, k + 1):
            t /= r
        c[k] = -t if k % 2 else t
    return c


def _power_table(base, m):
    """[base^0, ..., base^m] for a linear base, by repeated convolution."""
    base = np.array(base, dtype=float)
    out = [np.ones(1), base]
    for _ in range(2, m + 1):
        out.append(np.convolve(out[-1], base))
    return out


def jacobi_coeffs(m, a, b):
    """Monomial coefficients (ascending) of the Jacobi polynomial P_m^(a,b).

    Expanded from 2^-m sum_k C(m+a,k) C(m+b,m-k) (x-1)^(m-k) (x+1)^k
    (Szego, Orthogonal Polynomials, (4.3.2)).  The powers (x-1)^j and
    (x+1)^j for j <= m are tabulated once, each entry one convolution of
    the one before it, which is the operation sequence of npoly.polypow,
    so the expansion costs O(m^2) and gives polypow's bits.
    Raises DegreeCollapse when the leading coefficient 2^-m C(2m+a+b, m)
    vanishes, which happens exactly when 2m+a+b is an integer in
    {0..m-1}.  The test is on that closed form: the expanded top
    coefficient cancels badly at large m and is no evidence of a collapse.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    t = 2 * m + a + b
    if abs(t - round(t)) < 1e-12 and 0 <= round(t) <= m - 1:
        raise DegreeCollapse(
            f"P_{m}^({a},{b}) has leading coefficient 2^-{m} C({t:g}, {m}) "
            f"= 0; degree drops below {m}")
    lo, hi = _power_table([-1.0, 1.0], m), _power_table([1.0, 1.0], m)
    c = np.zeros(m + 1)
    for k in range(m + 1):
        term = gen_binom(m + a, k) * gen_binom(m + b, m - k)
        if term == 0.0:
            continue
        part = npoly.polymul(lo[m - k], hi[k])
        c[: len(part)] += term * part
    return np.ldexp(c, -m)


def poly_eval(p, x, k=0):
    """k-th derivative of the polynomial with ascending coefficients p at x.

    Differentiation acts on the coefficient sequence; evaluation is Horner.
    Orders beyond the degree return 0.
    """
    c = np.atleast_1d(np.asarray(p, dtype=float))
    if k > 0:
        if k >= len(c):
            return np.zeros_like(np.asarray(x, dtype=float)) + 0.0
        c = npoly.polyder(c, k)
    return npoly.polyval(x, c)


class PolyTable:
    """Read-only table of a fixed polynomial: ascending coefficients c,
    abs_c = |c| (the scale of a pole guard), d1 = c', d2 = c'' and the
    complex roots, found on first use.  _horner evaluates the entries."""

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        self.c, self.abs_c = c, np.abs(c)
        self.d1, self.d2 = npoly.polyder(c), npoly.polyder(c, 2)
        for t in (c, self.abs_c, self.d1, self.d2):
            t.setflags(write=False)

    @functools.cached_property
    def roots(self):
        r = np.roots(self.c[::-1]).astype(complex)
        r.setflags(write=False)
        return r


def _horner(c, x):
    """npoly.polyval(x, c) in the same operation order: bit-identical."""
    y = c[-1] + x * 0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _as_float_or_complex(x):
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.complexfloating):
        return x.astype(complex)
    return x.astype(float)


def laguerre_pass(n, a, x):
    """One three-term sweep for L^(a) at x, vectorized and complex-safe.

    Returns (L_n, L_{n-1}, L_n', L_{n-1}') with L_{-1} = 0.  The
    derivatives come from differentiating the recurrence,
      (k+1) L_{k+1}' = (2k+1+a-x) L_k' - L_k - (k+a) L_{k-1}'.
    """
    x = _as_float_or_complex(x)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    d, dm1 = np.zeros_like(x), np.zeros_like(x)
    for k in range(n):
        s = 2 * k + 1 + a - x
        pm1, p, dm1, d = (p, (s * p - (k + a) * pm1) / (k + 1),
                          d, (s * d - p - (k + a) * dm1) / (k + 1))
    return p, pm1, d, dm1


def laguerre_eval(n, a, x):
    """L_n^(a)(x), the value part of laguerre_pass."""
    return laguerre_pass(n, a, x)[0]


def jacobi_pass(n, a, b, x):
    """One three-term sweep for P^(a,b) at x, vectorized and complex-safe.

    Returns (P_n, P_{n-1}, P_n', P_{n-1}') with P_{-1} = 0; the
    derivatives follow the differentiated recurrence.
    """
    x = _as_float_or_complex(x)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    d, dm1 = np.zeros_like(x), np.zeros_like(x)
    if n == 0:
        return p, pm1, d, dm1
    # P_1 is written out: the k = 0 recurrence coefficient
    # 2 (a+b+1)(a+b) vanishes at a + b = 0 or -1
    p, pm1 = 0.5 * (a - b + (a + b + 2) * x), p
    d = d + 0.5 * (a + b + 2)
    for k in range(1, n):
        k1 = k + 1
        c1 = 2 * k1 * (k1 + a + b) * (2 * k1 + a + b - 2)
        c2 = (2 * k1 + a + b - 1) * (a * a - b * b)
        c3 = (2 * k1 + a + b - 2) * (2 * k1 + a + b - 1) * (2 * k1 + a + b)
        c4 = 2 * (k1 + a - 1) * (k1 + b - 1) * (2 * k1 + a + b)
        s = c2 + c3 * x
        pm1, p, dm1, d = (p, (s * p - c4 * pm1) / c1,
                          d, (s * d + c3 * p - c4 * dm1) / c1)
    return p, pm1, d, dm1


def jacobi_eval(n, a, b, x):
    """P_n^(a,b)(x), the value part of jacobi_pass."""
    return jacobi_pass(n, a, b, x)[0]


def laguerre_zeros(n, a):
    """Zeros of L_n^(a) (a > -1) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.empty(0)
    if not a > -1:
        raise ValidationError(f"Gauss nodes need a > -1, got {a:g}")
    k = np.arange(n)
    diag = 2 * k + a + 1
    off = np.sqrt(k[1:] * (k[1:] + a))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def jacobi_zeros(n, a, b):
    """Zeros of P_n^(a,b) (a, b > -1) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.empty(0)
    if not (a > -1 and b > -1):
        raise ValidationError(f"Gauss nodes need a, b > -1, got {a:g}, {b:g}")
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)
    k = np.arange(1, n, dtype=float)
    off = np.empty(n - 1)
    if n > 1:
        diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
        # k = 1 with the common factor 1 + a + b cancelled; that factor
        # is 0 at a + b = -1, inside the range
        off[0] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    k = k[1:]
    num = 4 * k * (k + a) * (k + b) * (k + a + b)
    den = (2 * k + a + b) ** 2 * (2 * k + a + b + 1) * (2 * k + a + b - 1)
    off[1:] = num / den
    off = np.sqrt(off)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


_BESSEL_TERM_CAP = 500


def bessel_j(a, z):
    """J_a(z) for z > 0 from the ascending series, log-scaled terms.

    Terms are accumulated until the next one falls below 1e-18 of the
    partial sum.  Raises SeriesDivergence if the cap is hit first.
    """
    if z <= 0:
        raise ValueError("series evaluation requires z > 0")
    lh = log(z / 2.0)
    total = 0.0
    for k in range(_BESSEL_TERM_CAP):
        lt = (2 * k + a) * lh - lgamma(k + 1) - lgamma(k + a + 1)
        term = np.exp(lt)
        if k % 2:
            term = -term
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            return total
    raise SeriesDivergence(f"Bessel series did not settle within "
                           f"{_BESSEL_TERM_CAP} terms at a={a}, z={z}")


def bessel_first_zero(a):
    """Smallest positive zero of J_a, a > -1.

    A coarse scan over (0, 50) brackets the first sign change; bisection
    then resolves it to machine precision.
    """
    if a <= -1:
        raise ValueError("requires a > -1")
    zs = np.linspace(1e-3, 50.0, 2001)
    prev_z, prev_f = zs[0], bessel_j(a, zs[0])
    lo = hi = None
    for z in zs[1:]:
        f = bessel_j(a, z)
        if prev_f == 0.0:
            return prev_z
        if prev_f * f < 0:
            lo, flo, hi = prev_z, prev_f, z
            break
        prev_z, prev_f = z, f
    if lo is None:
        raise NoSignChange(f"no sign change of J_{a} found in (0, 50)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(a, mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-15 * hi:
            break
    return 0.5 * (lo + hi)

"""Classical Laguerre and Jacobi polynomials with general real parameters.

Coefficient builders use explicit sums with generalized binomials computed
as falling-factorial products, one prefix table per parameter, so negative
and non-integer parameters are handled without gamma-function poles.
Pointwise evaluation goes through one three-term sweep per family, so a
single pass gives p_n, p_{n-1} and both derivatives, each point at its
own degree; it stays accurate far beyond the degrees at which monomial
coefficients become unusable; a degree step is a few in-place ufunc
calls on preallocated rows.  Both differentiated sweeps run one kernel
(_monic_pass): the monic recurrence scaled by a power of two per degree,
five calls and no division, on a Recurrence table of its scalars that a
caller builds once and reads for every sweep up to its top degree; the
normalization goes on once per point at the end.  A Laguerre sweep of
the values alone, in the classical recurrence (_laguerre_values),
serves the callers that read no derivative.
Also provides the Newton seeds of the classical zeros (the Gauss nodes)
at every degree: closed-form Langer-WKB nodes, with no recurrence sweep
(laguerre_seed_ladder, jacobi_seed_ladder); the degrees of a ladder
share one phase table and one Newton step in the angle, with the degree
per point, the members laid out as one array by Ladder.
"""

import functools
from itertools import accumulate

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DegreeCollapse, ValidationError

TRIM_REL = 1e-13

# recurrences that overflow, y' = 0 and coinciding points give
# non-finite values, steps and ratios, which the callers test for (a
# zero set fails typed: not rel <= CERT_TOL); none may raise a warning
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


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


def binom_table(z, m):
    """[C(z, 0), ..., C(z, m)], generalized binomials as one prefix
    product of falling-factorial steps, C(z, j) = C(z, j-1) ((z - j + 1) / j).

    Division is interleaved so intermediates stay near the result's
    scale.  The entries are scalars of z's type, so an overflow behaves
    as it does in z's own arithmetic (a Python float goes to inf
    silently).
    """
    out = [1.0]
    for i in range(m):
        out.append(out[-1] * ((z - i) / (i + 1)))
    return out


def gen_binom(z, k):
    """Generalized binomial C(z, k), the last entry of binom_table."""
    return binom_table(z, k)[k]


def laguerre_coeffs(m, a):
    """Monomial coefficients (ascending) of the Laguerre polynomial L_m^(a).

    L_m^(a)(x) = sum_k (-1)^k C(m+a, m-k) x^k / k!.  Valid for any real a;
    the leading coefficient is (-1)^m/m! and never vanishes.  The
    binomials are one binom_table, and entry k is divided by 2, ..., k in
    that order, one slice per divisor.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    c = np.array(binom_table(m + a, m)[::-1], dtype=float)
    for r in range(2, m + 1):
        c[r:] /= r
    c[1::2] = -c[1::2]
    return c


def _power_table(base, m):
    """[base^0, ..., base^m] for a linear base, by repeated convolution."""
    base = np.array(base, dtype=float)
    out = [np.ones(1), base]
    for _ in range(2, m + 1):
        out.append(np.convolve(out[-1], base))
    return out


def _jacobi_collapses(m, a, b):
    """True where the leading coefficient 2^-m C(2m+a+b, m) of
    P_m^(a,b) vanishes: exactly when 2m+a+b is an integer in {0..m-1}."""
    t = 2 * m + a + b
    return abs(t - round(t)) < 1e-12 and 0 <= round(t) <= m - 1


def jacobi_coeffs(m, a, b):
    """Monomial coefficients (ascending) of the Jacobi polynomial P_m^(a,b).

    Expanded from 2^-m sum_k C(m+a,k) C(m+b,m-k) (x-1)^(m-k) (x+1)^k
    (Szego, Orthogonal Polynomials, (4.3.2)).  The powers (x-1)^j and
    (x+1)^j for j <= m are tabulated once, each entry one convolution of
    the one before it, which is the operation sequence of npoly.polypow,
    so the expansion costs O(m^2) and gives polypow's bits; both
    binomial factors are read from one binom_table each.
    Raises DegreeCollapse when the leading coefficient 2^-m C(2m+a+b, m)
    vanishes (_jacobi_collapses).  The test is on that closed form: the
    expanded top coefficient cancels badly at large m and is no evidence
    of a collapse.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if _jacobi_collapses(m, a, b):
        raise DegreeCollapse(
            f"P_{m}^({a},{b}) has leading coefficient 2^-{m} "
            f"C({2 * m + a + b:g}, {m}) = 0; degree drops below {m}")
    lo, hi = _power_table([-1.0, 1.0], m), _power_table([1.0, 1.0], m)
    ga, gb = binom_table(m + a, m), binom_table(m + b, m)
    c = np.zeros(m + 1)
    for k in range(m + 1):
        term = ga[k] * gb[m - k]
        if term == 0.0:
            continue
        part = npoly.polymul(lo[m - k], hi[k])
        c[: len(part)] += term * part
    return np.ldexp(c, -m)


def _jacobi_coeffs_top_down(n, a, b):
    """Monomial coefficients (ascending) of P_n^(a,b), top-down from the
    classical ODE: c_n = 2^-n C(2n+a+b, n), c_k = -[(k+2)(k+1) c_{k+2}
    + (b-a)(k+1) c_{k+1}] / ((n-k)(n+k+a+b+1)).  It keeps its digits
    where Szego's expansion (jacobi_coeffs) has lost them all.  The
    divisor vanishes where c_n does, which the caller tests first."""
    k = np.arange(n, dtype=float)
    p, q = (k + 2) * (k + 1), (b - a) * (k + 1)
    d = (n - k) * (n + k + a + b + 1)
    c = np.zeros(n + 2)
    c[n] = np.ldexp(gen_binom(2 * n + a + b, n), -n)
    for j in range(n - 1, -1, -1):
        c[j] = -(p[j] * c[j + 2] + q[j] * c[j + 1]) / d[j]
    return c[: n + 1]


def polyder(c, k=1):
    """npoly.polyder(c, k) of ascending float coefficients c, bit for bit.

    Each order multiplies entry j by j, the products numpy forms one
    scalar at a time, here as one vector product.  An order beyond the
    degree returns c[:1] * 0 of the input, as numpy does, so a negative
    constant gives -0.0.
    """
    c = np.asarray(c, dtype=float)
    if k >= len(c):
        return c[:1] * 0
    for _ in range(k):
        c = c[1:] * np.arange(1.0, len(c))
    return c


class PolyTable:
    """Read-only table of a fixed polynomial: ascending coefficients c,
    abs_c = |c| (the scale of a pole guard), d1 = c', d2 = c'' and, on
    first use, the complex roots.  _stack_tables stacks the entries of
    tables for _horner to evaluate together."""

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        self.c, self.abs_c = c, np.abs(c)
        self.d1, self.d2 = polyder(c), polyder(c, 2)
        for t in (c, self.abs_c, self.d1, self.d2):
            t.setflags(write=False)

    @functools.cached_property
    def roots(self):
        r = np.roots(self.c[::-1]).astype(complex)
        r.setflags(write=False)
        return r


def _stack_tables(*tables):
    """Read-only (L, 4, k) stack of k PolyTables: entry [j, :, i] holds
    the j-th coefficients of c, d1, d2 and abs_c of table i, zero above
    its top coefficient.  A zero coefficient above the top one keeps
    Horner's bits at every finite x, the sign of a zero included."""
    L = max(t.c.size for t in tables)
    out = np.zeros((L, 4, len(tables)))
    for i, t in enumerate(tables):
        for k, c in enumerate((t.c, t.d1, t.d2, t.abs_c)):
            out[:c.size, k, i] = c
    out.setflags(write=False)
    return out


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


def _sweep(n, x, state, advance, finish):
    """Run a three-term sweep at every point of x up to its own degree.

    n is a nonnegative int or integer array broadcast with x, else
    ValueError.  The sweep state is S = zeros(state + (N,)) over the N
    points, its buffers S[0], S[1], ... in the pass's order: S[0] holds
    p_k, its first entry p_0 = 1 at k = 0.  advance(lo, hi, x, S) steps
    the buffers of the points x in place from degree k = lo to hi and
    returns them in that order again (buffers may rotate; a ufunc call
    takes its output last); finish(k, *S) reads the outputs, such as
    (p_n, p_{n-1}, p_n', p_{n-1}'), off the state at degree k.  The
    points are sorted by descending degree, so the live ones are a
    prefix: the sweep runs to max(n) on shrinking column views, and a
    point leaves it at its own degree, so it meets exactly the operations
    of a sweep of its own degree alone; elementwise array arithmetic
    gives the same bits at any array length.  A 0-d x is swept as a one-element array (numpy's
    complex scalar arithmetic rounds differently).  Returns finish's
    outputs, arrays no other call shares, in the order and shape of x.
    """
    x = _as_float_or_complex(x)
    out = None
    if isinstance(n, (int, np.integer)):
        # one degree: a single run, already in order
        shape, order, xs = x.shape, None, x.ravel()
        runs = [(0, xs.size, int(n))]
    else:
        if not np.issubdtype(np.asarray(n).dtype, np.integer):
            raise ValueError(f"degree must be an integer, got {n!r}")
        shape = np.broadcast_shapes(np.shape(n), x.shape)
        # signed, so that -deg orders unsigned degrees as well
        deg = np.broadcast_to(n, shape).astype(np.intp).ravel()
        order = np.argsort(-deg, kind="stable")
        deg, xs = deg[order], np.broadcast_to(x, shape).ravel()[order]
        # runs [start, end) of equal degree, highest degree first
        ends = (np.flatnonzero(np.diff(deg)) + 1).tolist() + [deg.size]
        runs = [(s, e, int(deg[s]))
                for s, e in zip([0] + ends[:-1], ends) if e > s]
    if runs and runs[-1][2] < 0:
        raise ValueError("degree must be nonnegative")
    S = np.zeros(state + (xs.size,), xs.dtype)
    S[(0,) * len(state)] = 1.0
    k = 0
    for start, end, stop in runs[::-1]:
        S = advance(k, stop, xs[:end], [s[..., :end] for s in S])
        k = stop
        if order is not None:     # the run's points leave the sweep
            vals = finish(stop, *(s[..., start:] for s in S))
            if out is None:
                out = np.empty((len(vals), xs.size), xs.dtype)
            out[:, start:end] = vals
    if out is None:     # one degree, or no point
        vals = finish(k, *S)
    else:
        out[:, order] = out.copy()
        vals = tuple(out)
    if shape != xs.shape:
        vals = tuple(v.reshape(shape)[()] for v in vals)
    return vals


class Recurrence:
    """The scalars of one classical sweep in its scaled monic form,
        p_{k+1} = (c x - shift_k) p_k - weight_k p_{k-1},
    with q_k = p_k'/c beside it, for the degrees k = 0 .. top: the scale
    c (a power of two), shift_k and weight_k for k < top, and the
    factors f_k and c f_k for k <= top (lists f and df) that give
    P_k = f_k p_k and P_k' = c f_k q_k.  Built from np.longdouble
    vectors (x87 extended on x86-64; float64 where the platform has
    nothing wider), rounded to float64 once: the zeros move with the
    rounding of the scalars.  Entry k does not depend on top, so a
    table built to a higher degree gives a sweep the bits of its own
    (cumprod is one serial product)."""

    def __init__(self, top, scale, shift, weight, f):
        f = f.astype(float)
        self.top, self.scale = top, scale
        self.f, self.df = f.tolist(), (scale * f).tolist()
        self._steps = shift.astype(float), weight.astype(float)
        self._cast = {}

    def steps(self, dtype):
        """(shift, weight) as lists of 0-d arrays of dtype, made once per
        dtype.  A ufunc takes a 0-d operand of its own dtype faster than
        a Python float, and with the same bits: numpy casts the float to
        that dtype first."""
        if dtype not in self._cast:
            shift, weight = (v.astype(dtype) for v in self._steps)
            self._cast[dtype] = ([shift[k, ...] for k in range(self.top)],
                                 [weight[k, ...] for k in range(self.top)])
        return self._cast[dtype]


def _laguerre_table(top, a):
    """The Recurrence of L^(a) to degree top >= 1, for p_k = (-1)^k k!
    L_k^(a), the monic Laguerre polynomial, scaled by 2^(-8k): shift_k =
    2^-8 (2k + 1 + a), weight_k = 2^-16 k (k + a) and f_k = (-1)^k
    2^(8k) / k!, with c = 2^-8.  The scale is a power of two, so it
    commutes with rounding and no bit depends on it; it keeps p_k
    below |L_k| k! 2^(-8k) < |L_k| (k < 696), so the sweep overflows
    nowhere L_k itself does not."""
    with np.errstate(**_QUIET):
        a = np.longdouble(a)
        k = np.arange(top, dtype=np.longdouble)
        f = np.cumprod(np.concatenate([np.ones(1, np.longdouble),
                                       -256 / (k + 1)]))
        return Recurrence(top, 2.0 ** -8, (2 * k + 1 + a) / 256,
                          k * (k + a) / 65536, f)


def _jacobi_table(top, a, b):
    """The Recurrence of P^(a,b) to degree top >= 1, for p_k = 2^k P~_k,
    the monic Jacobi polynomial scaled by an exact 2^k: shift_k = 2 a_k,
    weight_k = 4 b_k, f_k = l_k / 2^k, with c = 2.

    With t = 2k + a + b, a_k = (b^2 - a^2)/(t (t + 2)) and
    b_k = 4k (k+a)(k+b)(k+a+b)/(t^2 (t+1)(t-1)) (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, OUP 2004, section 1.3);
    a_0 = (b - a)/(a + b + 2) and b_1 = 4(1+a)(1+b)/((a+b+2)^2 (a+b+3))
    are the closed forms with the factor that vanishes at a + b = 0 or
    -1 cancelled, and 4 b_0 = 0.  l_k is the leading coefficient of
    P_k^(a,b): l_0 = 1, l_1 = (a + b + 2)/2 and l_{k+1}/l_k =
    (t+1)(t+2)/(2(k+1)(k+a+b+1)).  A parameter beyond binary64 gives
    inf or nan, never an OverflowError.
    """
    with np.errstate(**_QUIET):
        a, b = np.longdouble(a), np.longdouble(b)
        k = np.arange(top, dtype=np.longdouble)
        t = 2 * k + a + b
        a2 = 2 * (b * b - a * a) / (t * (t + 2))
        a2[0] = 2 * (b - a) / (a + b + 2)
        b4 = 16 * k * (k + a) * (k + b) * (k + a + b) / (t * t * (t + 1)
                                                           * (t - 1))
        b4[0] = 0.0
        if top > 1:
            b4[1] = 16 * (1 + a) * (1 + b) / ((a + b + 2) * (a + b + 2)
                                              * (a + b + 3))
        # f_{k+1}/f_k = (l_{k+1}/l_k)/2
        r = (t + 1) * (t + 2) / (4 * (k + 1) * (k + a + b + 1))
        r[0] = (a + b + 2) / 4
        f = np.cumprod(np.concatenate([np.ones(1, np.longdouble), r]))
        return Recurrence(top, 2.0, a2, b4, f)


def _top(n):
    """The table degree a sweep to the degrees n needs (at least 1)."""
    return int(np.max(n, initial=1))


def _monic_pass(n, x, tab):
    """One scaled monic sweep on the Recurrence tab at x: (P_n, P_{n-1},
    P_n', P_{n-1}') with P_{-1} = 0; n is an int or a per-point integer
    array broadcast with x (see _sweep), at most tab.top.

    On stacked (p, q) rows,
      p_{k+1} = (c x - shift_k) p_k - weight_k p_{k-1},
      q_{k+1} = (c x - shift_k) q_k + p_k - weight_k q_{k-1},
    a degree is five in-place ufunc calls with no division: s = c x -
    shift_k, then s (p_k, q_k), the coupling p_k added to the q row,
    weight_k (p_{k-1}, q_{k-1}) and the difference.  The outputs are
    P_k = f_k p_k and P_k' = (c f_k) q_k, one product per point at its
    own degree.
    """
    c, f, df = tab.scale, tab.f, tab.df

    def advance(lo, hi, x, S):
        add, sub, mul = np.add, np.subtract, np.multiply
        shift, weight = tab.steps(x.dtype)
        B, A, C = S     # (p_k, q_k), (p_{k-1}, q_{k-1}) and scratch
        # c x in both rows: a (2, N) product with no broadcast is faster
        # than one that broadcasts an N row over the state.  It is
        # scaled part by part: numpy would multiply a complex x by
        # c + 0j, which can flip the sign of a zero part
        xc = np.stack([x, x])
        xc = (xc.view(float) * c).view(xc.dtype)
        s = np.empty_like(xc)
        A0, A1, B0, B1, C0, C1 = A[0], A[1], B[0], B[1], C[0], C[1]
        for k in range(lo, hi):
            sub(xc, shift[k], s)
            mul(s, B, C)
            add(C1, B0, C1)
            mul(weight[k], A, A)
            sub(C, A, C)
            A, B, C, A0, B0, C0 = B, C, A, B0, C0, A0
            A1, B1, C1 = B1, C1, A1
        return B, A, C

    def finish(k, B, A, C):
        fk1, dfk1 = (f[k - 1], df[k - 1]) if k else (0.0, 0.0)
        return f[k] * B[0], fk1 * A[0], df[k] * B[1], dfk1 * A[1]

    return _sweep(n, x, (3, 2), advance, finish)


def laguerre_pass(n, a, x, *, table=None):
    """One three-term sweep for L^(a) at x, vectorized and complex-safe.

    Returns (L_n, L_{n-1}, L_n', L_{n-1}') with L_{-1} = 0; n is an int
    or a per-point integer array broadcast with x (see _sweep).  The
    sweep runs the monic recurrence scaled by an exact 2^(-8k),
      p_{k+1} = (2^-8 x - 2^-8 (2k+1+a)) p_k - 2^-16 k(k+a) p_{k-1},
    p_k = 2^(-8k) (-1)^k k! L_k, and q_k = 2^8 p_k' beside it
    (_monic_pass: five in-place ufunc calls per degree, no division).
    The derivative row takes the value row's rounded multiplier, so a
    combination of L_n and L_n' that cancels (Laguerre-II's pair at its
    smallest zeros) keeps its digits.  table is the _laguerre_table of this a to degree max(n) or higher,
    which a caller that sweeps many times builds once; by default this
    call builds its own.  Its values are not the bits of
    _laguerre_values, which runs the classical recurrence.
    """
    return _monic_pass(n, x, table or _laguerre_table(_top(n), a))


def _laguerre_values(n, a, x):
    """(L_n, L_{n-1}) of L^(a) at x, with L_{-1} = 0, from the classical
    recurrence in its own order,
      (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1},
    five in-place ufunc calls per degree, one of them a division, and
    no table; n as in _sweep.  Laguerre-I's two factors and _brackets
    read it.  It differs from laguerre_pass's values at rounding level:
    the monic form of this sweep moves laguerre1's exceptional zeros
    (ROADMAP item 29)."""
    def advance(lo, hi, x, S):
        sub, mul, div = np.subtract, np.multiply, np.divide
        B, A, C = S      # L_k, L_{k-1} and scratch
        s = np.empty_like(x)
        for k in range(lo, hi):
            sub(2 * k + 1 + a, x, s)
            mul(s, B, C)
            mul(k + a, A, A)
            sub(C, A, C)
            div(C, k + 1.0, C)      # a float k + 1 takes a faster path
            A, B, C = B, C, A
        return B, A, C

    return _sweep(n, x, (3,), advance, lambda k, B, A, C: (B, A))


def jacobi_pass(n, a, b, x, *, table=None):
    """One three-term sweep for P^(a,b) at x, vectorized and complex-safe.

    Returns (P_n, P_{n-1}, P_n', P_{n-1}') with P_{-1} = 0; n is an int
    or a per-point integer array broadcast with x (see _sweep).  The
    sweep runs the monic recurrence scaled by an exact 2^k,
      p_{k+1} = (2x - 2a_k) p_k - 4b_k p_{k-1},    p_k = 2^k P~_k,
    and q_k = p_k'/2 beside it (_monic_pass: five in-place ufunc calls
    per degree, no division).  table is the _jacobi_table of these a, b
    to degree max(n) or higher, as for laguerre_pass.
    """
    return _monic_pass(n, x, table or _jacobi_table(_top(n), a, b))


def _gauss_range(*params):
    """Raise ValidationError unless every classical parameter is > -1,
    the range of the Gauss nodes."""
    if not all(p > -1 for p in params):
        names = ", ".join("ab"[:len(params)])
        got = ", ".join(f"{p:g}" for p in params)
        raise ValidationError(f"Gauss nodes need {names} > -1, got {got}")


def _laguerre_wkb(n, a):
    """The Langer-WKB phase of L_n^(a): (x(psi), Phi(psi), dPhi/dpsi,
    shift), the k-th zero at Phi = (k - 1/4 + shift) pi.

    With abar = max(a, 0), nu = 4n + 2a + 2 and D = sqrt(nu^2 - 4 abar^2),
    Q = (nu x - x^2 - abar^2)/(4x^2) has the turning points (nu -+ D)/2,
    and Phi, the integral of sqrt(Q) from the left one, is
    (1/2)[sqrt(nu x - x^2 - abar^2) - (nu/2) asin((nu - 2x)/D)
    - abar asin((nu x - 2 abar^2)/(x D)) + nu pi/4 - abar pi/2].  On
    x = (nu - D cos psi)/2, psi in [0, pi], that is
        Phi = (nu psi + D sin psi)/4 - abar theta/2,
        tan(theta/2) = (nu + D)/(2 abar) tan(psi/2),
    with dPhi/dpsi = D^2 sin^2 psi / (8x), and Phi(pi) is
    (n + 1/2 + (a - abar)/2) pi (Bohr-Sommerfeld); shift = (a - abar)/2.
    n is an int, or a degree per point broadcast with psi: every
    operation is elementwise.
    """
    ab = max(a, 0.0)
    nu = 4 * n + 2 * a + 2
    d = np.sqrt(nu * nu - 4 * ab * ab)

    def x_of(psi):
        return (nu - d * np.cos(psi)) / 2

    def phase(psi):
        theta = 2 * np.arctan2((nu + d) * np.sin(psi / 2),
                               2 * ab * np.cos(psi / 2))
        return (nu * psi + d * np.sin(psi)) / 4 - ab * theta / 2

    def dphase(psi):
        return d * d * np.sin(psi) ** 2 / (8 * x_of(psi))

    return x_of, phase, dphase, (a - ab) / 2


def _jacobi_wkb(n, a, b):
    """The Langer-WKB phase of P_n^(a,b): (x(psi), Phi(psi), dPhi/dpsi,
    shift), the k-th zero from x = 1 at Phi = (k - 1/4 + shift) pi.

    In s = (1 - x)/2, with abar, bbar = max(a, 0), max(b, 0) and
    rho = n + (a + b + 1)/2, Phi is the integral of sqrt(R)/(2s(1 - s))
    from the left turning point, R = 4 rho^2 s(1 - s) - abar^2 (1 - s)
    - bbar^2 s.  With A = 4 rho^2, B = A + abar^2 - bbar^2,
    B' = A - abar^2 + bbar^2 and E = sqrt(B^2 - 4 A abar^2), the turning
    points are (B -+ E)/(2A), and on s = (B - E cos psi)/(2A) the split
    1/(s(1 - s)) = 1/s + 1/(1 - s) and the asin forms give
        Phi = rho psi - abar theta_a/2 - bbar theta_b/2,
        tan(theta_a/2) = (B + E)/(4 rho abar) tan(psi/2),
        tan((pi - theta_b)/2) = (B' + E)/(4 rho bbar) cot(psi/2),
    with dPhi/dpsi = E^2 sin^2 psi / (64 rho^3 s(1 - s)), and Phi(pi) is
    (n + 1/2 + (a - abar)/2 + (b - bbar)/2) pi; shift = (a - abar)/2.
    n is an int, or a degree per point broadcast with psi, as for
    _laguerre_wkb.
    """
    ab, bb = max(a, 0.0), max(b, 0.0)
    # a numpy float, so that rho ** 3 beyond binary64 is inf, not an
    # OverflowError
    rho = np.float64(n + (a + b + 1) / 2)
    A = 4 * rho * rho
    B, B1 = A + ab * ab - bb * bb, A - ab * ab + bb * bb
    e = np.sqrt(B * B - 4 * A * ab * ab)

    def s_of(psi):
        return (B - e * np.cos(psi)) / (2 * A)

    def phase(psi):
        c, s = np.cos(psi / 2), np.sin(psi / 2)
        theta_a = 2 * np.arctan2((B + e) * s, 4 * rho * ab * c)
        theta_b = np.pi - 2 * np.arctan2((B1 + e) * c, 4 * rho * bb * s)
        return rho * psi - (ab * theta_a + bb * theta_b) / 2

    def dphase(psi):
        s = s_of(psi)
        return e * e * np.sin(psi) ** 2 / (64 * rho ** 3 * s * (1 - s))

    return lambda psi: 1 - 2 * s_of(psi), phase, dphase, (a - ab) / 2


class Ladder:
    """The layout of a ladder's members as one array, member after
    member, sizes[i] points each: the one place that knows the members'
    offsets.  A ladder of one is its one array, and its one value holds
    at every point: cat, per_point and split hand them back as they are,
    with no copy (an int degree takes _sweep's single run)."""

    def __init__(self, sizes):
        self.sizes = list(sizes)
        self.ends = list(accumulate(self.sizes))
        self.starts = [e - z for e, z in zip(self.ends, self.sizes)]
        self.one = len(self.sizes) == 1

    def cat(self, arrays):
        """The members' arrays as one array."""
        return arrays[0] if self.one else np.concatenate(arrays)

    def per_point(self, values):
        """values[i] (a row, for an array) at each point of member i."""
        return values[0] if self.one else np.repeat(values, self.sizes,
                                                    axis=0)

    def index(self):
        """Each point's index within its member."""
        return np.arange(sum(self.sizes)) - self.per_point(self.starts)

    def split(self, x):
        """The members' parts of x, as views."""
        return [x] if self.one else [x[s:e] for s, e in zip(self.starts,
                                                            self.ends)]

    def reduce(self, ufunc, a, empty):
        """ufunc over each member's points of a, in one reduceat: exact
        for np.maximum, np.logical_and or np.logical_or (not for a sum,
        whose order is not np.sum's pairwise one); empty for a member
        with no points."""
        if all(self.sizes):
            return ufunc.reduceat(a, self.starts)
        live = np.flatnonzero(self.sizes)
        out = np.full(len(self.sizes), empty, a.dtype)
        out[live] = ufunc.reduceat(a, np.take(self.starts, live))
        return out

    def member(self, pos):
        """The member of each flat position pos."""
        return np.searchsorted(self.ends, pos, "right")


def _grids(grids):
    """np.linspace(0, pi, 2n + 1) for each member of the Ladder grids,
    of sizes 2n + 1 (n >= 1), bit for bit: numpy forms each as
    arange(2n + 1) * (pi / 2n), its last point set to pi."""
    grid = grids.index() * grids.per_point([np.pi / (z - 1)
                                            for z in grids.sizes])
    grid[[end - 1 for end in grids.ends]] = np.pi
    return grid


def _seed_ladder(ns, params, wkb, step=1):
    """Newton seeds of the classical zeros at each degree of ns: the zeros
    of the WKB phase wkb(n) = (x_of, phase, dphase, shift), n per point,
    in the order of increasing phase, with no recurrence sweep.  A node
    that is not finite (a phase beyond binary64, at extreme parameters)
    stays so, and Newton fails on it typed; no warning leaks.

    The members are one array: every member's phase, increasing from 0
    at psi = 0, is tabulated on its 2n equal steps of [0, pi] in one
    pass, inverted by np.interp at its targets (k - 1/4 + shift) pi on
    that member's own table, then solved by one Newton step in psi for
    every node at once, each member's nodes read with the given step
    (-1: descending).  Each operation on a member's points is
    elementwise or its own np.interp, so each member keeps the bits of a
    ladder of one.

    Returns per member its seeds, or, for n >= 1 with a parameter at or
    below -1, its own ValidationError (_gauss_range, checked once for
    the ladder's shared parameters); n = 0 gives no seeds, at any
    parameters."""
    try:
        _gauss_range(*params)
    except ValidationError as exc:
        # the members share the parameters: each gets its own error
        return [ValidationError(*exc.args) if n else np.empty(0)
                for n in ns]
    live = [n for n in ns if n]
    if not live:
        return [np.empty(0) for _ in ns]
    grids, nodes = Ladder([2 * n + 1 for n in live]), Ladder(live)
    grid = _grids(grids)
    with np.errstate(**_QUIET):
        table = wkb(grids.per_point(live))[1](grid)
        x_of, phase, dphase, shift = wkb(nodes.per_point(live))
        target = (nodes.index() + 1 - 0.25 + shift) * np.pi
        psi = nodes.cat([np.interp(t, tab, g) for t, tab, g in zip(
            nodes.split(target), grids.split(table), grids.split(grid))])
        x = x_of(psi - (phase(psi) - target) / dphase(psi))
    x = iter(nodes.split(x))
    return [next(x)[::step] if n else np.empty(0) for n in ns]


def laguerre_seed_ladder(ns, a):
    """Newton seeds of the zeros of L_n^(a) (a > -1), ascending, for each
    n of ns: the zeros of the Langer-WKB phase (_laguerre_wkb;
    Gatteschi, J. Comput. Appl. Math. 144 (2002)), within 1.5e-2 of the
    local zero spacing at every n up to 300 for a in [-0.5, 9] (the
    largest zeros are the furthest off).  A member with n = 0 gets no
    seeds, at any a, and one with n >= 1 and a <= -1 its
    ValidationError in place of its seeds (see _seed_ladder)."""
    return _seed_ladder(ns, (a,), lambda n: _laguerre_wkb(n, a))


def jacobi_seed_ladder(ns, a, b):
    """Newton seeds of the zeros of P_n^(a,b) (a, b > -1), ascending, for
    each n of ns: the zeros of the Langer-WKB phase (_jacobi_wkb),
    asymptotic first guesses as in Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013); within 1.5e-2 of the local zero spacing at every
    n up to 1000 for a, b in [-0.5, 9].  A member with n = 0 gets no
    seeds, at any a and b, and one with n >= 1 and a or b <= -1 its
    ValidationError in place of its seeds (see _seed_ladder)."""
    # the phase counts the zeros from x = 1: its nodes descend
    return _seed_ladder(ns, (a, b), lambda n: _jacobi_wkb(n, a, b), -1)

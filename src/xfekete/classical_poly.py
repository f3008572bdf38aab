"""Classical Laguerre and Jacobi polynomials with general real parameters.

Coefficient builders use explicit sums with generalized binomials computed
as falling-factorial products, one prefix table per parameter, so negative
and non-integer parameters are handled without gamma-function poles.
Pointwise evaluation goes through one three-term sweep per family, so a
single pass gives p_n, p_{n-1} and both derivatives, each point at its
own degree; it stays accurate far beyond the degrees at which monomial
coefficients become unusable; a degree step is a few in-place ufunc
calls on preallocated rows: the Jacobi sweep carries the differentiated
recurrence, the Laguerre sweep the values and their running sum (or, on
request, the differentiated recurrence too).
Also provides the Newton seeds of the classical zeros (the Gauss nodes)
at every degree: closed-form Langer-WKB nodes polished by one
recurrence Newton step, one sweep for all the degrees of a ladder
(laguerre_seed_ladder, jacobi_seed_ladder).
"""

import functools
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
    takes its output last); finish(*S) reads (p_n, p_{n-1}, p_n',
    p_{n-1}') off the final state.  The points are
    sorted by descending degree, so the live ones are a prefix: the sweep
    runs to max(n) on shrinking column views, and a point leaves it at its
    own degree, so it meets exactly the operations of a sweep of its own
    degree alone; elementwise array arithmetic gives the same bits at any
    array length.  A 0-d x is swept as a one-element array (numpy's
    complex scalar arithmetic rounds differently).  Returns (p_n, p_{n-1},
    p_n', p_{n-1}'), arrays no other call shares, in the order and shape
    of x.
    """
    x = _as_float_or_complex(x)
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
        out = np.empty((4, xs.size), xs.dtype)
    if runs and runs[-1][2] < 0:
        raise ValueError("degree must be nonnegative")
    S = np.zeros(state + (xs.size,), xs.dtype)
    S[(0,) * len(state)] = 1.0
    k = 0
    for start, end, stop in runs[::-1]:
        S = advance(k, stop, xs[:end], [s[..., :end] for s in S])
        k = stop
        if order is not None:     # the run's points leave the sweep
            out[:, start:end] = finish(*(s[..., start:] for s in S))
    if order is None:
        vals = finish(*S)
    else:
        out[:, order] = out.copy()
        vals = tuple(out)
    if shape != xs.shape:
        vals = tuple(v.reshape(shape)[()] for v in vals)
    return vals


def laguerre_pass(n, a, x, differentiated=False):
    """One three-term sweep for L^(a) at x, vectorized and complex-safe.

    Returns (L_n, L_{n-1}, L_n', L_{n-1}') with L_{-1} = 0; n is an int
    or a per-point integer array broadcast with x (see _sweep).  The
    values follow the recurrence in its own order,
      (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1},
    five in-place ufunc calls per degree.  By default the sweep carries
    the running sum T_k = sum_{j<k} L_j, which is L_{k-1}^(a+1)
    (telescope L_j^(a) = L_j^(a+1) - L_{j-1}^(a+1), DLMF 18.9, 18.18),
    and L_k' = -L_{k-1}^(a+1), so the derivatives are read off at the
    end, L_n' = -T_n, L_{n-1}' = L_{n-1} - T_n: one more call per degree,
    no division by x.  differentiated=True carries the differentiated
    recurrence instead,
      (k+1) L_{k+1}' = (2k+1+a-x) L_k' - L_k - (k+a) L_{k-1}',
    on stacked (value, derivative) rows, six calls per degree, five of
    them on both rows; the values' bits are the same.  Its derivatives
    see the rounded 2k+1+a-x that the values see, so a combination of
    L_n and L_n' that cancels (Laguerre-II's pair at its smallest zeros)
    keeps about 0.17 digits that the running sum loses there.
    """
    if differentiated:
        def advance(lo, hi, x, S):
            sub, mul, div = np.subtract, np.multiply, np.divide
            B, A, C = S     # (L_k, L_k'), (L_{k-1}, L_{k-1}') and scratch
            # 2k+1+a-x in both rows: a (2, N) product with no broadcast
            # is faster than one that broadcasts an N row over the state
            x = np.stack([x, x])
            s = np.empty_like(x)
            A0, A1, B0, B1, C0, C1 = A[0], A[1], B[0], B[1], C[0], C[1]
            for k in range(lo, hi):
                sub(2 * k + 1 + a, x, s)
                mul(s, B, C)
                sub(C1, B0, C1)
                mul(k + a, A, A)
                sub(C, A, C)
                div(C, k + 1.0, C)
                A, B, C, A0, B0, C0 = B, C, A, B0, C0, A0
                A1, B1, C1 = B1, C1, A1
            return B, A, C

        return _sweep(n, x, (3, 2), advance,
                      lambda B, A, C: (B[0], A[0], B[1], A[1]))

    def advance(lo, hi, x, S):
        add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
        B, A, T, C = S      # L_k, L_{k-1}, T_k and scratch
        s = np.empty_like(x)
        for k in range(lo, hi):
            sub(2 * k + 1 + a, x, s)
            mul(s, B, C)
            mul(k + a, A, A)
            sub(C, A, C)
            div(C, k + 1.0, C)      # a float k + 1 takes a faster path
            add(T, B, T)
            A, B, C = B, C, A
        return B, A, T, C

    return _sweep(n, x, (4,), advance,
                  lambda B, A, T, C: (B, A, -T, A - T))


def jacobi_pass(n, a, b, x):
    """One three-term sweep for P^(a,b) at x, vectorized and complex-safe.

    Returns (P_n, P_{n-1}, P_n', P_{n-1}') with P_{-1} = 0; n is an int
    or a per-point integer array broadcast with x (see _sweep).  The
    derivatives follow the differentiated recurrence.  Each degree is
    eight in-place ufunc calls in the formulas' order.
    """
    # c1..c4 of the steps k = 1 .. max(n) - 1, as numpy vectors over k
    k1 = np.arange(2, int(np.max(n, initial=1)) + 1)
    t = 2 * k1 + a + b
    c1, c2 = 2 * k1 * (k1 + a + b) * (t - 2), (t - 1) * (a * a - b * b)
    c3, c4 = (t - 2) * (t - 1) * t, 2 * (k1 + a - 1) * (k1 + b - 1) * t
    coeffs = list(zip(c1.tolist(), c2.tolist(), c3.tolist(), c4.tolist()))

    def advance(lo, hi, x, S):
        B, A, C = S     # (P_k, P_k'), (P_{k-1}, P_{k-1}') and scratch
        if lo == 0 < hi:
            # P_1 is written out: the k = 0 recurrence coefficient
            # 2 (a+b+1)(a+b) vanishes at a + b = 0 or -1
            C[0] = 0.5 * (a - b + (a + b + 2) * x)
            C[1] = B[1] + 0.5 * (a + b + 2)
            A, B, C, lo = B, C, A, 1
        add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
        s = np.empty_like(x)
        A0, A1, B0, B1, C0, C1 = A[0], A[1], B[0], B[1], C[0], C[1]
        for c1, c2, c3, c4 in coeffs[lo - 1:hi - 1]:
            mul(c3, x, s)
            add(c2, s, s)
            mul(s, B, C)
            mul(c3, B0, s)
            add(C1, s, C1)
            mul(c4, A, A)
            sub(C, A, C)
            div(C, c1, C)
            A, B, C, A0, B0, C0 = B, C, A, B0, C0, A0
            A1, B1, C1 = B1, C1, A1
        return B, A, C

    return _sweep(n, x, (3, 2), advance,
                  lambda B, A, C: (B[0], A[0], B[1], A[1]))


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


def _wkb_nodes(n, wkb):
    """The n zeros of a WKB phase wkb = (x_of, phase, dphase, shift), in
    the order of increasing phase.

    The phase, increasing from 0 at psi = 0, is tabulated on 2n equal
    steps of [0, pi] and inverted by np.interp at its targets
    (k - 1/4 + shift) pi, then solved by one Newton step in psi."""
    x_of, phase, dphase, shift = wkb
    target = (np.arange(1, n + 1) - 0.25 + shift) * np.pi
    grid = np.linspace(0.0, np.pi, 2 * n + 1)
    psi = np.interp(target, phase(grid), grid)
    return x_of(psi - (phase(psi) - target) / dphase(psi))


def _ladder_call(f, ns, xs):
    """f(n, x), a tuple of arrays elementwise in x, for several members at
    once, member i at degree ns[i] and points xs[i]: with several
    members, one call with the degree per point; with one, a call at its
    int degree and no concatenation; with none, no call.  Returns f's
    outputs split back per member, one tuple each, in the order of ns."""
    if len(ns) <= 1:
        return [f(n, x) for n, x in zip(ns, xs)]
    sizes = [x.size for x in xs]
    outs = f(np.repeat(ns, sizes), np.concatenate(xs))
    split, at = [], 0
    for size in sizes:
        split.append(tuple(o[at:at + size] for o in outs))
        at += size
    return split


def _seed_ladder(ns, params, nodes, sweep):
    """Newton seeds of the classical zeros at each degree of ns: the WKB
    nodes(n), ascending, after one Newton step of sweep(n, x), the
    classical pass; every member's step is taken in one sweep
    (_ladder_call), which gives each point the bits of a sweep at its
    own degree.  A node whose step is not finite (the recurrence
    overflows there) keeps its place; a node that is not finite (a
    phase beyond binary64, at extreme parameters) stays so, and Newton
    fails on it typed; no warning leaks from either.

    Returns per member its seeds, or, for n >= 1 with a parameter at or
    below -1, its own ValidationError (_gauss_range, checked once for
    the ladder's shared parameters); n = 0 gives no seeds, at any
    parameters: its WKB nodes, and its share of the sweep, are empty."""
    try:
        _gauss_range(*params)
    except ValidationError as exc:
        # the members share the parameters: each gets its own error
        return [ValidationError(*exc.args) if n else np.empty(0)
                for n in ns]

    def polished(n, x):
        p, _, dp, _ = sweep(n, x)
        step = p / dp
        return (np.where(np.isfinite(step), x - step, x),)

    with np.errstate(**_QUIET):
        seeds = _ladder_call(polished, ns, [nodes(n) for n in ns])
    return [x for (x,) in seeds]


def laguerre_seed_ladder(ns, a):
    """Newton seeds of the zeros of L_n^(a) (a > -1), ascending, for each
    n of ns, from one polishing sweep: the zeros of the Langer-WKB phase
    (_laguerre_wkb; Gatteschi, J. Comput. Appl. Math. 144 (2002)) after
    one Newton step of laguerre_pass, within 3.6e-3 of the local zero
    spacing at every n up to 300 for a in [-0.999, 40].  The step takes
    the differentiated derivative, the one Laguerre-II's pair takes: a
    seed's last bits decide where Newton lands within the evaluator's
    rounding floor, so Laguerre-II's zeros then rest on that one kernel.
    A member with n = 0 gets no seeds, at any a, and one with n >= 1 and
    a <= -1 its ValidationError in place of its seeds (see
    _seed_ladder)."""
    return _seed_ladder(
        ns, (a,), lambda n: _wkb_nodes(n, _laguerre_wkb(n, a)),
        lambda n, x: laguerre_pass(n, a, x, differentiated=True))


def jacobi_seed_ladder(ns, a, b):
    """Newton seeds of the zeros of P_n^(a,b) (a, b > -1), ascending, for
    each n of ns, from one polishing sweep: the zeros of the Langer-WKB
    phase (_jacobi_wkb) after one Newton step of jacobi_pass, asymptotic
    first guesses plus Newton as in Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013); within 5.1e-3 of the local zero spacing at every
    n up to 300 for a, b in [-0.999, 40].  A member with n = 0 gets no
    seeds, at any a and b, and one with n >= 1 and a or b <= -1 its
    ValidationError in place of its seeds (see _seed_ladder)."""
    # the phase counts the zeros from x = 1: its nodes descend
    return _seed_ladder(
        ns, (a, b), lambda n: _wkb_nodes(n, _jacobi_wkb(n, a, b))[::-1],
        lambda n, x: jacobi_pass(n, a, b, x))

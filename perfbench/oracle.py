"""Independent 40-digit oracle for the exceptional members.

Members are assembled from the same classical closed forms the package
documents, but every classical factor is evaluated by mpmath:

  laguerre1  y = L_m^(a)(-x) L_n^(a-1)(x) + L_m^(a-1)(-x) L_{n-1}^(a)(x)
  laguerre2  y = x S u' + ((a+1) S - x S') u,
             S = L_m^(-a-1),  u = L_n^(a+1)
  jacobi     y = (1-x) S u' - ((a+1) S + (1-x) S') u,
             S = P_m^(-a-1, b-1),  u = P_n^(a+1, b-1)

The degree-n factors have parameters > -1 and go through mpmath's
hypergeometric laguerre/jacobi, which share no code with the package's
three-term recurrences.  The low-degree factors whose parameters may be
negative integers go through their explicit finite sums.  A computed zero
is refined by Newton's method at 40 digits; its distance to the refined
zero is the error the benchmark reports.
"""

import mpmath as mp

DPS = 40
# digits reported for errors at or below rounding level
DIGITS_CAP = 15.0


def _lag_coeffs(m, a):
    """Ascending coefficients of L_m^(a): (-1)^k C(m+a, m-k) / k!."""
    return [(-1) ** k * mp.binomial(m + a, m - k) / mp.factorial(k)
            for k in range(m + 1)]


def _jac_coeffs(m, a, b):
    """Ascending coefficients of P_m^(a,b) from
    2^-m sum_k C(m+a, k) C(m+b, m-k) (x-1)^(m-k) (x+1)^k."""
    out = [mp.mpf(0)] * (m + 1)
    for k in range(m + 1):
        term = mp.binomial(m + a, k) * mp.binomial(m + b, m - k)
        poly = [mp.mpf(1)]
        for root, count in ((1, m - k), (-1, k)):
            for _ in range(count):
                poly = [(poly[i - 1] if i else 0)
                        - root * (poly[i] if i < len(poly) else 0)
                        for i in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            out[i] += term * c
    return [c / 2 ** m for c in out]


def _horner(c, x):
    """Value and first derivative of the ascending polynomial c at x."""
    v, d = mp.mpf(0), mp.mpf(0)
    for ck in reversed(c):
        d = d * x + v
        v = v * x + ck
    return v, d


class Member:
    """Pointwise evaluator of one exceptional member at DPS digits."""

    def __init__(self, family, m, alpha, n, beta=None):
        with mp.workdps(DPS):
            self.family, self.m, self.n = family, m, n
            self.a = mp.mpf(alpha)
            self.b = None if beta is None else mp.mpf(beta)
            a, b = self.a, self.b
            if family == "laguerre1":
                self.s1 = _lag_coeffs(m, a)
                self.s0 = _lag_coeffs(m, a - 1)
            elif family == "laguerre2":
                self.s = _lag_coeffs(m, -a - 1)
            else:
                self.s = _jac_coeffs(m, -a - 1, b - 1)

    def value(self, x):
        m, n, a, b = self.m, self.n, self.a, self.b
        if self.family == "laguerre1":
            f1, _ = _horner(self.s1, -x)
            f0, _ = _horner(self.s0, -x)
            g = f0 * mp.laguerre(n - 1, a, x) if n >= 1 else 0
            return f1 * mp.laguerre(n, a - 1, x) + g
        S, Sp = _horner(self.s, x)
        if self.family == "laguerre2":
            u = mp.laguerre(n, a + 1, x)
            up = -mp.laguerre(n - 1, a + 2, x) if n >= 1 else 0
            return x * S * up + ((a + 1) * S - x * Sp) * u
        u = mp.jacobi(n, a + 1, b - 1, x)
        up = ((n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 2, b, x)
              if n >= 1 else 0)
        return (1 - x) * S * up - ((a + 1) * S + (1 - x) * Sp) * u

    def refine(self, x0, itmax=8):
        """Newton from x0 (real or complex) with a forward-difference
        derivative; returns the zero as an mpf or mpc.  The derivative's
        relative error (~1e-15) only scales each step, so once a step is
        below 1e-22 the iterate is within ~1e-37 of the zero."""
        with mp.workdps(DPS):
            x = mp.mpmathify(x0)
            for _ in range(itmax):
                h = mp.mpf(10) ** -15 * (1 + abs(x))
                fx = self.value(x)
                step = fx * h / (self.value(x + h) - fx)
                x -= step
                if abs(step) <= mp.mpf(10) ** -22 * (1 + abs(x)):
                    break
            return x


def rel_error(x, exact):
    """|x - exact| / |exact| as a float (absolute error when exact is 0)."""
    with mp.workdps(DPS):
        exact = mp.mpmathify(exact)
        err = abs(mp.mpmathify(x) - exact)
        return float(err / abs(exact)) if exact != 0 else float(err)


def digits(err):
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return float(-mp.log10(err))


def diameter(member, regular, exceptional, c=1.0):
    """d_n = -log(c/n) - log T / (n(n-1)) at the given zeros, with the v
    weight x^(a+1) e^-x P(x)^2 / S(x)^2 and P monic over the exceptional
    zeros; everything in DPS digits."""
    with mp.workdps(DPS):
        xs = [mp.mpf(x) for x in regular]
        ez = [mp.mpmathify(z) for z in exceptional]
        n = len(xs)
        s = member.s0 if member.family == "laguerre1" else member.s
        # for laguerre1 S(x) = L_m^(a-1)(-x)
        sign = -1 if member.family == "laguerre1" else 1
        logT = mp.mpf(0)
        for x in xs:
            S, _ = _horner(s, sign * x)
            P = mp.mpf(1)
            for z in ez:
                P *= x - z
            logT += ((member.a + 1) * mp.log(x) - x
                     - 2 * mp.log(abs(S)) + 2 * mp.log(abs(P)))
        for i in range(n):
            for j in range(i + 1, n):
                logT += 2 * mp.log(abs(xs[i] - xs[j]))
        return -mp.log(mp.mpf(c) / n) - logT / (n * (n - 1))

"""Zeros of the exceptional polynomials.

Each degree-(m+n) member has n simple zeros inside the orthogonality
interval (the regular zeros) and m zeros outside its closure (the
exceptional zeros; real and negative for laguerre1, possibly complex for
laguerre2 and jacobi).  Root finding never touches monomial coefficients:
everything runs on the pointwise closed-form evaluators, seeded by
classical Gauss zeros for the regular part and by bracketing or deflation
for the exceptional part.  Where the coefficient vector is representable
it is built independently and every root is certified against it.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import jacobi_zeros, laguerre_zeros, trim
from .errors import (CountMismatch, DeflationInstability, NonConvergence,
                     RepresentationOverflow)
from .exceptional import build_S, build_exceptional, exceptional_eval_pair

# classification margin: a zero within this distance of the closed
# orthogonality interval is neither safely inside nor safely outside
MARGIN = 1e-9

CERT_TOL = 1e-10

# Newton stops below NEWTON_TOL, or below NEWTON_FLOOR once the step has
# stopped shrinking (the rounding floor; n >~ 100 never reaches
# NEWTON_TOL).  Bisection only has to land in Newton's basin.
NEWTON_TOL = 1e-15
NEWTON_FLOOR = 1e-13
BISECT_ITERS = 30

# real parts that agree to SORT_RTOL (1 + |x|) are a tie when listing
# complex zeros, so the last bits of a conjugate pair's real parts do not
# decide its order
SORT_RTOL = 1e-12


@dataclass(frozen=True)
class ZeroSet:
    """Computed zeros of one exceptional polynomial.

    regular:      sorted real zeros inside the orthogonality interval
    exceptional:  the m zeros outside its closure (complex array)
    s_zeros:      zeros of the denominator polynomial S, for reference
    certificate:  residual certificate record (method, margin, passed)
    """

    spec: object
    regular: np.ndarray
    exceptional: np.ndarray
    s_zeros: np.ndarray
    certificate: dict


def _newton(spec, x0, itmax=60, deflate=None):
    """Vectorized Newton polish on the closed-form evaluator, one
    exceptional_eval_pair call per iteration.

    deflate holds zeros already found (the regular ones, when polishing
    exceptional zeros).  Their linear factors are divided out of y
    implicitly (Maehly's correction), so a seed near an exceptional zero
    is not thrown off by the n zeros inside the interval: without it,
    Newton from a zero of S can overshoot and then creep back by about
    1/n of the distance per step.

    Stops once the largest relative step max|dx|/(1+|x|) falls below
    NEWTON_TOL, or falls below NEWTON_FLOOR and no longer shrinks: the
    iterate then sits at the rounding floor of the evaluator, where
    further steps only move it around.  A stage whose last relative step
    is above CERT_TOL, or not finite, raises NonConvergence.
    """
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    if x.size == 0:
        return x
    prev = np.inf
    for it in range(1, itmax + 1):
        v, dv = exceptional_eval_pair(spec, x)
        step = v / dv
        if deflate is not None:
            step = step / (1 - step * np.sum(1.0 / (x[:, None] - deflate),
                                             axis=1))
        x = x - step
        rel = float(np.max(np.abs(step) / (1 + np.abs(x))))
        if (not np.isfinite(rel) or rel < NEWTON_TOL
                or NEWTON_FLOOR > rel >= prev):
            break
        prev = rel
    if not rel <= CERT_TOL:
        raise NonConvergence(
            f"Newton stopped after {it} iterations with relative step "
            f"{rel:.3e} for {spec}",
            [{"iterations": it, "relative_step": rel}])
    return x


def _bisect(f, lo, hi, flo, iters=BISECT_ITERS):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _lag1_exceptional(spec):
    """Negative real zeros via the nesting brackets
    (-z_{m,j}, -z_{m-1,j-1}) built from classical Laguerre zeros."""
    m, n, al = spec.m, spec.n, spec.alpha
    zm = laguerre_zeros(m, al)
    if n == 0:
        # the member degenerates to L_m^(alpha)(-x); its zeros are
        # exactly the negated classical ones
        return _newton(spec, -zm)
    zm1 = laguerre_zeros(m - 1, al)
    f = lambda x: float(exceptional_eval_pair(spec, x)[0])
    out = []
    for j in range(m):
        lo = -zm[j]
        hi = -zm1[j - 1] if j >= 1 else -1e-12
        flo, fhi = f(lo), f(hi)
        if flo * fhi > 0:
            # nudge the lower end outward, then scan for a sign change
            lo *= 1.0001
            flo = f(lo)
        if flo * fhi > 0:
            grid = np.linspace(lo, hi, 41)
            vals = exceptional_eval_pair(spec, grid)[0]
            idx = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
            if idx.size == 0:
                out.append(0.5 * (lo + hi))   # Newton will have to do
                continue
            lo, hi, flo = grid[idx[0]], grid[idx[0] + 1], vals[idx[0]]
        out.append(_bisect(f, lo, hi, flo))
    return _newton(spec, np.array(out))


def _aberth(coeffs, itmax=200, tol=1e-12):
    """All complex roots of a low-degree polynomial by simultaneous
    (Aberth-Ehrlich) iteration, circle initialization."""
    c = trim(coeffs).astype(complex)
    deg = len(c) - 1
    if deg == 0:
        return np.empty(0, dtype=complex)
    centroid = -c[deg - 1] / (deg * c[deg])
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1]))
    k = np.arange(deg)
    z = centroid + radius * np.exp(2j * np.pi * (k + 0.25) / deg)
    dc = npoly.polyder(c)
    for _ in range(itmax):
        p = npoly.polyval(z, c)
        dp = npoly.polyval(z, dc)
        ratio = p / dp
        dif = z[:, None] - z[None, :]
        np.fill_diagonal(dif, np.inf)
        corr = ratio / (1.0 - ratio * np.sum(1.0 / dif, axis=1))
        z = z - corr
        if np.max(np.abs(corr)) < tol * (1 + np.max(np.abs(z))):
            break
    return z


def _deflate(coeffs, roots):
    """Synthetic division of the ascending coefficient vector by each
    (x - r); returns the quotient and checks the reconstruction."""
    q = np.asarray(coeffs, dtype=float)
    for r in roots:
        deg = len(q) - 1
        b = np.empty(deg)
        acc = q[deg]
        for k in range(deg - 1, -1, -1):
            b[k] = acc
            acc = q[k] + r * acc
        q = b
    rebuilt = np.asarray(q, dtype=float)
    for r in roots:
        rebuilt = npoly.polymul(rebuilt, [-r, 1.0])
    err = np.max(np.abs(rebuilt - coeffs)) / np.max(np.abs(coeffs))
    if err > 1e-8:
        raise DeflationInstability(
            f"deflation reconstruction error {err:.3e}")
    return q


def _sort_zeros(z):
    """Zeros ascending by real part, ties (SORT_RTOL) by imaginary part."""
    z = np.sort_complex(np.asarray(z, dtype=complex))
    out = []
    i = 0
    while i < z.size:
        j = i + 1
        while (j < z.size and abs(z[j].real - z[i].real)
               <= SORT_RTOL * (1.0 + abs(z[i].real))):
            j += 1
        run = z[i:j]
        out.extend(run[np.argsort(run.imag, kind="stable")])
        i = j
    return np.array(out, dtype=complex)


def _classify(spec, reg, exc):
    """Count and margin checks; raises CountMismatch on any violation."""
    a, b = spec.interval
    n, m = spec.n, spec.m
    if len(reg) != n:
        raise CountMismatch(f"expected {n} regular zeros, found {len(reg)}")
    if len(exc) != m:
        raise CountMismatch(f"expected {m} exceptional zeros, "
                            f"found {len(exc)}")
    if n:
        if np.any(reg <= a + MARGIN) or (np.isfinite(b)
                                         and np.any(reg >= b - MARGIN)):
            raise CountMismatch("regular zero on or outside the "
                                "orthogonality interval")
        if np.any(np.diff(reg) <= 0):
            raise CountMismatch("regular zeros not strictly increasing")
    for z in exc:
        inside_strip = abs(z.imag) <= MARGIN
        re_in = (a - MARGIN) <= z.real and (z.real <= b + MARGIN
                                            if np.isfinite(b) else True)
        if inside_strip and re_in:
            raise CountMismatch(
                f"exceptional zero {z} inside the classification margin "
                f"of the orthogonality interval")


def _certificate(spec, roots):
    """Residual certificate for the computed roots.

    Where the coefficient vector is representable in binary64 the roots
    are checked against an independently built polynomial:
    |p(r)| <= 1e-10 max|c| max(1,|r|)^deg, compared in log space.
    Beyond that range the certificate bounds the Newton correction of the
    closed-form evaluator: |y(r)| <= 1e-10 |y'(r)| (1 + |r|).
    """
    roots = np.asarray(roots)
    try:
        built = build_exceptional(spec)
    except RepresentationOverflow:
        built = None
    if built is not None:
        c = built.coeffs
        pv = npoly.polyval(roots, c.astype(complex))
        with np.errstate(divide="ignore"):
            logp = np.log(np.abs(pv))
        logbound = (np.log(CERT_TOL) + np.log(np.max(np.abs(c)))
                    + (len(c) - 1) * np.log(np.maximum(1.0, np.abs(roots))))
        margin = float(np.max(logp - logbound)) if roots.size else -np.inf
        return {"method": "coefficient", "passed": bool(margin <= 0.0),
                "max_log_excess": margin, "build_residual": built.residual}
    v, dv = exceptional_eval_pair(spec, roots)
    ratio = np.abs(v) / (np.abs(dv) * (1 + np.abs(roots)))
    worst = float(np.max(ratio)) if roots.size else 0.0
    return {"method": "evaluator", "passed": bool(worst <= CERT_TOL),
            "max_ratio": worst}


def find_zeros(spec):
    """All zeros of the exceptional polynomial, classified and certified.

    Regular zeros are polished by Newton from classical Gauss seeds
    (bracketed bisection backs up the laguerre1 path if the seeds
    misbehave).  Exceptional zeros come from nesting brackets
    (laguerre1), coefficient deflation plus simultaneous iteration
    (laguerre2), or the zeros of S (jacobi), polished by Newton with the
    regular zeros divided out.  Raises CountMismatch if counts or the
    location margins fail, and NonConvergence if a Newton stage or the
    residual certificate fails.
    """
    m, n, al = spec.m, spec.n, spec.alpha
    if spec.family == "laguerre1":
        reg = np.sort(_newton(spec, laguerre_zeros(n, al)).real) \
            if n else np.empty(0)
        exc = np.sort(_lag1_exceptional(spec)) if m else np.empty(0)
        exc = exc.astype(complex)
    elif spec.family == "laguerre2":
        reg = np.sort(_newton(spec, laguerre_zeros(n, al)).real) \
            if n else np.empty(0)
        if m:
            try:
                built = build_exceptional(spec)
                quotient = _deflate(built.coeffs, reg)
                seeds = _aberth(quotient)
            except RepresentationOverflow:
                seeds = np.roots(build_S(spec)[::-1]).astype(complex)
            exc = _sort_zeros(_newton(spec, seeds.astype(complex),
                                      deflate=reg))
        else:
            exc = np.empty(0, dtype=complex)
    else:
        be = spec.beta
        reg = np.sort(_newton(spec, jacobi_zeros(n, al, be)).real) \
            if n else np.empty(0)
        if m:
            seeds = np.roots(build_S(spec)[::-1]).astype(complex)
            exc = _sort_zeros(_newton(spec, seeds, deflate=reg))
        else:
            exc = np.empty(0, dtype=complex)
    _classify(spec, reg, exc)
    roots = np.concatenate([exc, reg.astype(complex)])
    cert = _certificate(spec, roots)
    if not cert["passed"]:
        raise NonConvergence(f"residual certificate failed: {cert}", [cert])
    s_roots = np.roots(build_S(spec)[::-1]).astype(complex) if m \
        else np.empty(0, dtype=complex)
    return ZeroSet(spec=spec, regular=reg, exceptional=exc,
                   s_zeros=_sort_zeros(s_roots), certificate=cert)


def check_interlacing(zs):
    """Interlacing and location report for a ZeroSet.

    laguerre1 (n >= 1): with classical Laguerre zeros z_{k,j} at the same
    alpha,
        0 < x_1 < z_{n,1},   z_{n-1,j-1} < x_j < z_{n,j}
    and, ordering the exceptional zeros downward from 0,
        -z_{m,1} < e_1 < 0,  -z_{m,j} < e_j < -z_{m-1,j-1}.
    For n = 0 the member reduces to a reflected classical polynomial and
    the exceptional zeros sit exactly on the bracket ends, so only the
    count and sign structure is checked.  For laguerre2 and jacobi the
    report checks counts, realness patterns and exclusion from the
    closed interval.
    """
    spec = zs.spec
    m, n, al = spec.m, spec.n, spec.alpha
    checks = []

    def add(name, ok):
        checks.append({"check": name, "passed": bool(ok)})

    if spec.family == "laguerre1":
        reg, exc = zs.regular, np.sort(zs.exceptional.real)[::-1]
        add("regular count", len(reg) == n)
        add("exceptional count", len(exc) == m)
        add("exceptional negative", np.all(exc < 0))
        mode = "full" if n >= 1 and m >= 1 else "structure"
        if n >= 1 and m >= 1:
            zn = laguerre_zeros(n, al)
            zn1 = laguerre_zeros(n - 1, al)
            add("x_1 in (0, z_n1)", 0 < reg[0] < zn[0])
            ok = all(zn1[j - 1] < reg[j] < zn[j] for j in range(1, n))
            add("regular interlacing", ok)
            zm = laguerre_zeros(m, al)
            zm1 = laguerre_zeros(m - 1, al)
            add("e_1 in (-z_m1, 0)", -zm[0] < exc[0] < 0 if m else True)
            ok = all(-zm[j] < exc[j] < -zm1[j - 1] for j in range(1, m))
            add("exceptional interlacing", ok)
    elif spec.family == "laguerre2":
        mode = "structure"
        add("regular count", len(zs.regular) == n)
        add("exceptional count", len(zs.exceptional) == m)
        neg_real = np.sum((np.abs(zs.exceptional.imag) <= MARGIN)
                          & (zs.exceptional.real < 0))
        add("negative real exceptional parity",
            neg_real == (m % 2) if not spec.regime_warnings() else True)
    else:
        mode = "structure"
        add("regular count", len(zs.regular) == n)
        add("regular inside (-1, 1)",
            np.all((zs.regular > -1) & (zs.regular < 1)))
        add("exceptional count", len(zs.exceptional) == m)
        outside = np.all((np.abs(zs.exceptional.imag) > MARGIN)
                         | (np.abs(zs.exceptional.real) > 1 + MARGIN))
        add("exceptional outside closed interval", outside)
    return {"mode": mode, "passed": all(c["passed"] for c in checks),
            "checks": checks}

"""Zeros of the exceptional polynomials.

Each degree-(m+n) member has n simple zeros inside the orthogonality
interval (the regular zeros) and m zeros outside its closure (the
exceptional zeros; real and negative for laguerre1, possibly complex for
laguerre2 and jacobi).  Root finding never touches monomial coefficients:
one engine serves all three families.  Newton on the pointwise
closed-form evaluator polishes the regular zeros from classical Gauss
seeds, then the exceptional zeros from the zeros of S, to which they
tend (Gomez-Ullate, Marcellan & Milson 2013), with the regular zeros
divided out and the exceptional iterates coupled (Aberth-Ehrlich).
Specs that differ only in n (a ladder, such as the members of a diameter
sweep) are polished together: each Newton round evaluates every pending
point of every member in one call, and a single spec is a ladder of one.
Where the coefficient vector is representable it is built independently
and every root is certified against it; beyond that the certificate
bounds the evaluator's Newton correction.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import laguerre_zeros
from .errors import (CountMismatch, NonConvergence, RepresentationOverflow,
                     ValidationError, XFeketeError)
from .exceptional import (_nonzero_lead, build_exceptional,
                          exceptional_eval_pair, ladder_eval_pair)

# classification margin: a zero within this distance of the closed
# orthogonality interval is neither safely inside nor safely outside
MARGIN = 1e-9

CERT_TOL = 1e-10

# Newton stops below NEWTON_TOL, or below NEWTON_FLOOR once the step has
# stopped shrinking (the rounding floor; n >~ 100 never reaches
# NEWTON_TOL)
NEWTON_TOL = 1e-15
NEWTON_FLOOR = 1e-13

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


def _newton_ladder(specs, x0s, itmax=60, deflates=None):
    """Newton polish of a ladder of specs, one iterate array x0s[i] per
    spec, all in lockstep: each round makes one ladder_eval_pair call for
    every pending point of every pending spec.

    The specs differ only in n.  Each keeps its own iterates, step
    history, iteration count and stop test, and drops out once it stops.
    deflates[i], where given, holds zeros of spec i already found (the
    regular ones, when polishing exceptional zeros), held fixed.  With
    it the step is the Aberth-Ehrlich correction
        rho / (1 - rho (sum_k 1/(x_i - r_k) + sum_{j != i} 1/(x_i - x_j))),
    rho = y/y', over that spec's own iterates.  The first sum divides the
    fixed zeros out of y (Maehly's correction), so a seed near an
    exceptional zero is not thrown off by the n zeros inside the
    interval: without it, Newton from a zero of S can overshoot and then
    creep back by about 1/n of the distance per step.  The second sum
    couples the iterates, so two of them cannot converge to the same
    zero; for a single iterate it is exactly 0.

    A spec stops once the largest relative step max|dx|/(1+|x|) of its
    iterates falls below NEWTON_TOL, or falls below NEWTON_FLOOR and no
    longer shrinks: the iterates then sit at the rounding floor of the
    evaluator, where further steps only move them around.  Returns, per
    spec, the polished iterates, or the NonConvergence of a stage whose
    last relative step is above CERT_TOL or not finite, or the error its
    evaluation raised.  Every operation on a spec's points is the one a
    ladder of that spec alone makes, so the results do not depend on the
    other members.
    """
    xs = [np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
          for x0 in x0s]
    deflates = deflates or [None] * len(specs)
    out = [x if x.size == 0 else None for x in xs]
    prev = [np.inf] * len(specs)
    live = [i for i, x in enumerate(xs) if x.size]
    for it in range(1, itmax + 1):
        if not live:
            break
        pairs = _ladder_pairs(specs, xs, live, out)
        live = [i for i in live if out[i] is None]
        # y' = 0 or coinciding points make the step non-finite; rel ends it
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in live:
                x, (v, dv) = xs[i], pairs[i]
                step = v / dv
                if deflates[i] is not None:
                    dif = x[:, None] - x[None, :]
                    np.fill_diagonal(dif, np.inf)
                    step = step / (1 - step * (
                        np.sum(1.0 / (x[:, None] - deflates[i]), axis=1)
                        + np.sum(1.0 / dif, axis=1)))
                xs[i] = x = x - step
                rel = float(np.max(np.abs(step) / (1 + np.abs(x))))
                if (not np.isfinite(rel) or rel < NEWTON_TOL
                        or NEWTON_FLOOR > rel >= prev[i] or it == itmax):
                    out[i] = x if rel <= CERT_TOL else NonConvergence(
                        f"Newton stopped after {it} iterations with relative "
                        f"step {rel:.3e} for {specs[i]}",
                        [{"iterations": it, "relative_step": rel}])
                prev[i] = rel
        live = [i for i in live if out[i] is None]
    return out


def _ladder_pairs(specs, xs, live, out):
    """{i: (y, y')} at the iterates xs[i] of the live specs, from one
    ladder_eval_pair call for all of them (with an int degree when one
    spec is left).  Where that call raises (only the table of S can, and
    the specs share it), each spec is evaluated on its own, and one whose
    evaluation raises gets that error in out, as its own first step
    would."""
    sizes = [xs[i].size for i in live]
    if len(live) == 1:
        n, x = specs[live[0]].n, xs[live[0]]
    else:
        n = np.repeat([specs[i].n for i in live], sizes)
        x = np.concatenate([xs[i] for i in live])
    try:
        v, dv = ladder_eval_pair(specs[live[0]], n, x)
    except XFeketeError:
        pairs = {}
        for i in live:
            try:
                pairs[i] = ladder_eval_pair(specs[i], specs[i].n, xs[i])
            except XFeketeError as exc:
                out[i] = exc
        return pairs
    pairs, at = {}, 0
    for i, size in zip(live, sizes):
        pairs[i], at = (v[at:at + size], dv[at:at + size]), at + size
    return pairs


def _newton(spec, x0, itmax=60, deflate=None):
    """Newton polish of one spec's iterates x0: _newton_ladder on a ladder
    of one.  Returns the polished iterates; raises the NonConvergence of
    an unconverged stage."""
    (x,) = _newton_ladder([spec], [x0], itmax, [deflate])
    if isinstance(x, XFeketeError):
        raise x
    return x


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

    Where the coefficient vector is representable in binary64
    (build_exceptional(spec) does not raise RepresentationOverflow) the
    roots are checked against that independently built polynomial:
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

    One engine for all three families.  The regular zeros are polished
    by Newton from the classical Gauss nodes (Laguerre or Jacobi at the
    same parameters).  The exceptional zeros are polished from the zeros
    of S by the coupled Newton of _newton_ladder, with the regular zeros
    held fixed and divided out.  Raises DegreeCollapse first where the
    closed-form leading coefficient is 0, CountMismatch if counts or the
    location margins fail, and NonConvergence if a Newton stage or the
    residual certificate fails.

    Once the zeros are classified the certificate takes
    build_exceptional(spec), which is kept on the spec and so solved at
    most once per spec.  This is find_zeros_ladder on a ladder of one.
    """
    (zs,) = find_zeros_ladder([spec])
    if isinstance(zs, XFeketeError):
        raise zs
    return zs


def find_zeros_ladder(specs):
    """find_zeros for each spec of a ladder, specs that differ only in n,
    with each Newton stage solved for all of them in lockstep.

    Returns, in the order of specs, each spec's ZeroSet, or the
    XFeketeError that find_zeros raises for it; a spec that fails drops
    out of the later stages.  Raises ValidationError when the specs
    differ in more than n.
    """
    specs = list(specs)
    if len({(s.family, s.m, s.alpha, s.beta) for s in specs}) > 1:
        raise ValidationError("the specs of a ladder differ only in n")
    out = [None] * len(specs)
    seeds = {}
    for i, spec in enumerate(specs):
        try:
            # a collapsed degree fails before any Newton step
            _nonzero_lead(spec, spec.fam.lead_factor(spec))
            seeds[i] = spec.fam.gauss(spec)
        except XFeketeError as exc:
            out[i] = exc
    reg = {}
    for i, x in zip(seeds, _newton_ladder([specs[i] for i in seeds],
                                          list(seeds.values()))):
        if isinstance(x, XFeketeError):
            out[i] = x
        else:
            reg[i] = np.sort(x.real)
    s_zeros = {}
    for i in reg:
        try:
            s_zeros[i] = specs[i].S.roots
        except XFeketeError as exc:
            out[i] = exc
    for i, x in zip(s_zeros, _newton_ladder(
            [specs[i] for i in s_zeros], list(s_zeros.values()),
            deflates=[reg[i] for i in s_zeros])):
        try:
            if isinstance(x, XFeketeError):
                raise x
            out[i] = _certified(specs[i], reg[i], _sort_zeros(x))
        except XFeketeError as exc:
            out[i] = exc
    return out


def _certified(spec, reg, exc):
    """The ZeroSet of the polished zeros, classified and certified."""
    _classify(spec, reg, exc)
    roots = np.concatenate([exc, reg.astype(complex)])
    cert = _certificate(spec, roots)
    if not cert["passed"]:
        raise NonConvergence(f"residual certificate failed: {cert}", [cert])
    return ZeroSet(spec=spec, regular=reg, exceptional=exc,
                   s_zeros=_sort_zeros(spec.S.roots), certificate=cert)


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
        a, b = spec.interval
        add("regular count", len(zs.regular) == n)
        add(f"regular inside ({a:g}, {b:g})",
            np.all((zs.regular > a) & (zs.regular < b)))
        add("exceptional count", len(zs.exceptional) == m)
        re, im = zs.exceptional.real, zs.exceptional.imag
        outside = np.all((np.abs(im) > MARGIN) | (re < a - MARGIN)
                         | (re > b + MARGIN))
        add("exceptional outside closed interval", outside)
    return {"mode": mode, "passed": all(c["passed"] for c in checks),
            "checks": checks}

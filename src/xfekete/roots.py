"""Zeros of the exceptional polynomials.

Each degree-(m+n) member has n simple zeros inside the orthogonality
interval (the regular zeros) and m zeros outside its closure (the
exceptional zeros; real and negative for laguerre1, possibly complex for
laguerre2 and jacobi).  Root finding never touches monomial coefficients:
one engine serves all three families.  One Newton iteration on the
pointwise closed-form evaluator polishes all m + n zeros together: the
regular ones from the classical zeros, the exceptional ones from the
zeros of S, to which they tend (Gomez-Ullate, Marcellan & Milson 2013),
each exceptional iterate coupled to every other (Aberth-Ehrlich).  The
members of a ladder, one spec and a list of degree indices n (such as
the members of a diameter sweep), are seeded and polished together: S
does not depend on n, so the ladder reads it and its zeros once; one
polishing sweep gives every member its classical seeds, each Newton
round evaluates every pending point of every member in one call, and a
single spec is a ladder of one.  The same evaluator certifies the zeros:
the certificate bounds its Newton correction at every zero, one more
lockstep round for the whole ladder.  The monomial coefficients
(build_exceptional) play no part.
"""

from dataclasses import dataclass, replace

import numpy as np

from .classical_poly import _QUIET, _ladder_call, laguerre_pass
from .errors import CountMismatch, NonConvergence, XFeketeError
from .exceptional import _nonzero_lead, _s_zeros, ladder_eval_pair

# classification margin: a zero within this distance of the closed
# orthogonality interval is neither safely inside nor safely outside
MARGIN = 1e-9

# the certificate's bound on the relative Newton correction at a zero
CERT_TOL = 1e-10

# Newton stops once every point's next step is predicted below
# NEWTON_TOL, the prediction trusted while every step is at most
# PREDICT_TRUST (see _newton_ladder), or else below NEWTON_FLOOR once the
# step has stopped shrinking (the rounding floor; n >~ 100 never reaches
# NEWTON_TOL)
NEWTON_TOL = 1e-15
NEWTON_FLOOR = 1e-13
PREDICT_TRUST = 1e-8

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
                  (read-only, one array for every member of a ladder)
    certificate:  evaluator certificate record (method, max_ratio, passed)
    regular_dy:   y' at the regular zeros, from the certificate's
                  evaluation (complex where that evaluation was)
    """

    spec: object
    regular: np.ndarray
    exceptional: np.ndarray
    s_zeros: np.ndarray
    certificate: dict
    regular_dy: np.ndarray


def _newton_ladder(spec, ns, x0s, itmax=60):
    """Newton polish of the ladder of spec at the degree indices ns, one
    iterate array x0s[i] per member, all in lockstep: each round makes
    one ladder_eval_pair call for every pending point of every pending
    member.

    Each member keeps its own iterates, step history, iteration count
    and stop test, and drops out once it stops.  The first n iterates of
    member i (n = ns[i]) seek its regular zeros by plain Newton,
    rho = y/y'.  Any after them seek its exceptional zeros by the
    Aberth-Ehrlich correction
        rho_i / (1 - rho_i sum_{j != i} 1/(x_i - x_j)),
    summed over all the member's other iterates, at a cost of O(n m) per
    round.  The sum divides the regular iterates out of y (Maehly's
    correction), so a seed near an exceptional zero is not thrown off by
    the n zeros inside the interval: without it, Newton from a zero of S
    can overshoot and then creep back by about 1/n of the distance per
    step.  It also couples the exceptional iterates, so two of them
    cannot converge to the same zero.  The coupling is one-way: were
    the regular iterates to divide out the exceptional ones too, a zero
    of S near the interval's end could push a regular iterate onto a
    zero that another one already holds (laguerre1 m=4 alpha=0.1264
    n=5, for one).  With no exceptional iterate every step is plain
    Newton, bit for bit.

    A member stops once quadratic convergence predicts that its next step
    would fall below NEWTON_TOL, so it does not take the rounds that only
    move its iterates about the evaluator's rounding floor.  Each point
    has its relative step a = |dx|/(1+|x|) and its step p one round
    earlier; it is done once a < NEWTON_TOL, or a < p and
    a^3 <= NEWTON_TOL p^2 (the next step, about a (a/p)^2, lies below
    NEWTON_TOL).  Done points stay done, and the member stops when all
    are, but only while its largest step max a is at most PREDICT_TRUST; a
    larger one clears every mark.  So a member still stops once max a
    falls below NEWTON_TOL, and the fallback stops it once max a falls
    below NEWTON_FLOOR and no longer shrinks.  Returns, per member, the
    polished iterates, or the NonConvergence of a member whose last max
    a is not finite, or above CERT_TOL without the prediction; the
    certificate of find_zeros_ladder, not the prediction, proves the
    zeros.  Every operation on a member's points is the one a ladder of
    that member alone makes, so the results do not depend on the other
    members.  spec's S must be readable (find_zeros_ladder reads it
    first), so the evaluation raises nothing.
    """
    xs = [np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
          for x0 in x0s]
    out = [x if x.size == 0 else None for x in xs]
    prev = [np.inf] * len(ns)
    # per point: its last relative step (0 before the first, so the
    # prediction needs two) and whether it is predicted done
    last = [np.zeros(x.shape) for x in xs]
    done = [np.zeros(x.shape, dtype=bool) for x in xs]
    live = [i for i, x in enumerate(xs) if x.size]
    for it in range(1, itmax + 1):
        if not live:
            break
        with np.errstate(**_QUIET):
            pairs = _ladder_pairs(spec, ns, xs, live)
            for i in live:
                x, (v, dv), n = xs[i], pairs[i], ns[i]
                step = v / dv
                # row k: 1/(e_k - x_j) over every other iterate x_j of an
                # exceptional iterate e_k (the inf puts 0 at x_j = e_k)
                dif = x[n:, None] - x[None, :]
                np.fill_diagonal(dif[:, n:], np.inf)
                e = step[n:]
                step[n:] = e / (1 - e * np.sum(1.0 / dif, axis=1))
                xs[i] = x = x - step
                a, p = np.abs(step) / (1 + np.abs(x)), last[i]
                rel = float(np.max(a))
                done[i] = (rel <= PREDICT_TRUST) & (
                    done[i] | (a < NEWTON_TOL)
                    | ((a < p) & (a ** 3 <= NEWTON_TOL * p ** 2)))
                predicted = bool(done[i].all())
                if (not np.isfinite(rel) or predicted
                        or NEWTON_FLOOR > rel >= prev[i] or it == itmax):
                    out[i] = x if rel <= CERT_TOL or predicted \
                        else NonConvergence(
                            f"Newton stopped after {it} iterations with "
                            f"relative step {rel:.3e} for "
                            f"{replace(spec, n=n)}",
                            [{"iterations": it, "relative_step": rel}])
                prev[i], last[i] = rel, a
        live = [i for i in live if out[i] is None]
    return out


def _ladder_pairs(spec, ns, xs, live):
    """{i: (y, y')} at the points xs[i] of the live members i of spec's
    ladder, member i at degree index ns[i], from one ladder_eval_pair
    call for all of them (_ladder_call: an int degree when one member is
    left)."""
    return dict(zip(live, _ladder_call(
        lambda n, x: ladder_eval_pair(spec, n, x),
        [ns[i] for i in live], [xs[i] for i in live])))


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
    """Margin and order checks of the regular zeros reg and the
    exceptional zeros exc; raises CountMismatch on any violation.  Their
    counts, n and m, hold by construction: find_zeros_ladder splits n
    seeds from the zeros of S, of which _s_zeros gives exactly m."""
    a, b = spec.interval
    # a Laguerre b = inf bounds nothing; Newton refused non-finite zeros
    if np.any(reg <= a + MARGIN) or np.any(reg >= b - MARGIN):
        raise CountMismatch("regular zero on or outside the "
                            "orthogonality interval")
    if np.any(np.diff(reg) <= 0):
        raise CountMismatch("regular zeros not strictly increasing")
    near = exc[(np.abs(exc.imag) <= MARGIN) & (a - MARGIN <= exc.real)
               & (exc.real <= b + MARGIN)]
    if near.size:
        raise CountMismatch(
            f"exceptional zero {near[0]} inside the classification margin "
            f"of the orthogonality interval")


def _certificate(roots, v, dv):
    """Evaluator certificate of the roots from (y, y') there: the Newton
    correction is small, |y(r)| <= 1e-10 |y'(r)| (1 + |r|)."""
    ratio = np.abs(v) / (np.abs(dv) * (1 + np.abs(roots)))
    worst = float(np.max(ratio)) if roots.size else 0.0
    return {"method": "evaluator", "passed": bool(worst <= CERT_TOL),
            "max_ratio": worst}


def find_zeros(spec):
    """All zeros of the exceptional polynomial, classified and certified.

    One engine for all three families.  The coupled Newton of
    _newton_ladder polishes the regular zeros from the classical zeros
    (Laguerre or Jacobi at the same parameters, as laguerre_seed_ladder
    and jacobi_seed_ladder give them: Langer-WKB nodes after one
    recurrence Newton step, at an int degree) and the exceptional zeros
    from the zeros of S, all together.
    Raises DegreeCollapse first where the closed-form leading coefficient
    is 0, RepresentationOverflow where S's coefficients or its monic
    ones (exceptional._s_zeros) leave binary64, CountMismatch if the
    location margins or the order of the regular zeros fail, and
    NonConvergence if the Newton polish or the certificate fails.

    The certificate bounds the closed-form evaluator's Newton correction
    at every zero (_certificate); the monomial coefficients are never
    built.  This is find_zeros_ladder on a ladder of one.
    """
    (zs,) = find_zeros_ladder(spec, [spec.n])
    if isinstance(zs, XFeketeError):
        raise zs
    return zs


def find_zeros_ladder(spec, ns):
    """find_zeros for each member of spec's ladder, spec at each degree
    index n of ns (ints), in order: each member's ZeroSet, or the
    XFeketeError that find_zeros raises for it.  A member whose
    closed-form lead collapses fails first; the rest take their seeds
    from one call of the family's seed ladder (Family.gauss: each
    member's WKB phase inverted on its own, then one polishing sweep
    over every member's nodes, each at its own degree, so every seed
    has the bits of its member's own seeds) and S and its zeros from one
    read through spec; the Newton polish is solved for all of them in
    lockstep and their certificates in one more lockstep round, whose y'
    at the regular zeros each ZeroSet keeps.  A member that fails drops
    out of the later stages.  A member's spec is spec itself at
    n = spec.n, else replace(spec, n=n), which tables S only if read.
    """
    members = [spec if n == spec.n else replace(spec, n=n) for n in ns]
    out = [None] * len(members)
    for i, member in enumerate(members):
        try:
            # a collapsed degree fails before any seed is used
            _nonzero_lead(member, member.fam.lead_factor(member))
        except XFeketeError as exc:
            out[i] = exc
    live = [i for i, o in enumerate(out) if o is None]
    # every member's classical seeds from one polishing sweep
    gauss = dict(zip(live, spec.fam.gauss(spec, [ns[i] for i in live])))
    seeds, r = {}, None
    for i in live:
        try:
            if isinstance(gauss[i], XFeketeError):
                raise gauss[i]
            if r is None:
                try:
                    r = _s_zeros(spec)
                except XFeketeError as exc:
                    r = exc
            if isinstance(r, XFeketeError):
                # S fails alike at every n, but its error names the
                # spec: each other member builds S again to raise its own
                if members[i] is not spec:
                    _s_zeros(members[i])
                raise r
            # the n classical seeds, then the m zeros of S: a real array
            # when all of those are real
            seeds[i] = np.concatenate([gauss[i],
                                       r if r.imag.any() else r.real])
        except XFeketeError as exc:
            out[i] = exc
    if seeds:
        # one read-only copy for every member's ZeroSet
        s_zeros = _sort_zeros(r)
        s_zeros.setflags(write=False)
    found = {}
    for i, x in zip(seeds, _newton_ladder(spec, [ns[i] for i in seeds],
                                          list(seeds.values()))):
        try:
            if isinstance(x, XFeketeError):
                raise x
            reg, z = np.sort(x[:ns[i]].real), _sort_zeros(x[ns[i]:])
            _classify(members[i], reg, z)
            found[i] = reg, z
        except XFeketeError as exc:
            out[i] = exc
    # every classified member's certificate, in one more lockstep round,
    # in real arithmetic for a member whose zeros are all real
    rts = {i: np.concatenate([z if z.imag.any() else z.real, reg])
           for i, (reg, z) in found.items()}
    with np.errstate(**_QUIET):
        pairs = _ladder_pairs(spec, ns, rts, list(rts))
        certs = {i: _certificate(rts[i], *pairs[i]) for i in pairs}
    for i, cert in certs.items():
        if cert["passed"]:
            reg, z = found[i]
            out[i] = ZeroSet(spec=members[i], regular=reg, exceptional=z,
                             s_zeros=s_zeros, certificate=cert,
                             regular_dy=pairs[i][1][z.size:])
        else:
            out[i] = NonConvergence(f"residual certificate failed: {cert}",
                                    [cert])
    return out


def _brackets(deg, al, x):
    """(x_1 in (0, z_1), x_j in (z'_{j-1}, z_j) for every j >= 2) for deg
    ascending points x, with z_j the zeros of L_deg^(al) and z'_j those
    of L_{deg-1}^(al), decided by signs from one laguerre_pass at 0 and
    the x_j, with no nodes.

    The x_j increase, so x_j in (z_{j-1}, z_j) for every j iff x_1 > 0
    and sign L_deg(x_j) = sign L_deg(0) (-1)^(j-1) (deg points in
    brackets of alternating sign, the last one, after z_deg, of the
    wrong sign), and then x_j > z'_{j-1}, the one zero of L_{deg-1} in
    its bracket, iff sign L_{deg-1}(x_j) = sign L_{deg-1}(0) (-1)^(j-1).
    A sign alone places x_j only in some bracket of the right parity, so
    the two verdicts are exact together, not one by one: an x_1 two
    brackets off fails the second, not the first.
    """
    p, q, _, _ = laguerre_pass(deg, al, np.concatenate([[0.0], x]))
    alt = (-1.0) ** np.arange(x.size)
    inside = np.sign(p[1:]) == np.sign(p[0]) * alt
    above = np.sign(q[1:]) == np.sign(q[0]) * alt
    return x[0] > 0 and inside[0], np.all(inside[1:] & above[1:])


def check_interlacing(zs):
    """Interlacing and location report for a ZeroSet.

    laguerre1 (n >= 1): with classical Laguerre zeros z_{k,j} at the same
    alpha,
        0 < x_1 < z_{n,1},   z_{n-1,j-1} < x_j < z_{n,j}
    and, ordering the exceptional zeros downward from 0,
        -z_{m,1} < e_1 < 0,  -z_{m,j} < e_j < -z_{m-1,j-1},
    so the -e_j, ascending, sit in the brackets of degree m as the x_j
    sit in those of degree n.  Both sets of brackets are decided by signs
    (_brackets), with no Gauss rule solved.
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
            first, rest = _brackets(n, al, reg)
            add("x_1 in (0, z_n1)", first)
            add("regular interlacing", rest)
            first, rest = _brackets(m, al, -exc)
            add("e_1 in (-z_m1, 0)", first)
            add("exceptional interlacing", rest)
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

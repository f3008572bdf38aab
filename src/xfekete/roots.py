"""Zeros of the exceptional polynomials.

Each degree-(m+n) member has n simple zeros inside the orthogonality
interval (the regular zeros) and m zeros outside its closure (the
exceptional zeros; real and negative for laguerre1, possibly complex for
laguerre2 and jacobi).  Root finding never touches monomial coefficients:
one engine serves all three families.  One Newton iteration on the
pointwise closed-form evaluator polishes all m + n zeros together: the
regular ones by quartic steps, whose y''/y' and y'''/y' the family ODE
gives from (y, y'), from the raw WKB nodes of the classical zeros; the
exceptional ones from the zeros of S moved by their one-term law in n
(they tend to the zeros of S: Gomez-Ullate, Marcellan & Milson 2013),
each exceptional iterate coupled to every other (Aberth-Ehrlich).  The
members of a ladder, one spec and a list of degree indices n (such as
the members of a diameter sweep), are seeded and polished together: S
does not depend on n, so the ladder reads it and its zeros once, and
its sweeps read one recurrence table of the classical factor; the
seeds take no recurrence sweep, each Newton round evaluates every
pending point of every member in one call, and a single spec is a
ladder of one.  The same evaluator certifies the zeros: the
certificate bounds its Newton correction at every zero, one more
lockstep round for the whole ladder.  A ladder's members are laid out
as one array, member after member (classical_poly.Ladder): each stage
(seeds, Newton steps and stop tests, the margin and order checks,
certificate) runs once per ladder on that array, with exact segment
reductions for each member's verdict; only the sorting and the Aberth
sums run member by member, and every member keeps the bits it has
alone.  The monomial coefficients (build_exceptional) play no part.
stieltjes_system reads the family ODE at a member's certified zeros
alone, the Stieltjes relations and the Van Vleck identity: `verify`'s
construction, saddle and Fekete checks.
"""

from dataclasses import dataclass, replace
from itertools import count
from math import isfinite

import numpy as np

from .classical_poly import _QUIET, Ladder, _laguerre_values
from .energy import _derivatives
from .errors import CountMismatch, NonConvergence, XFeketeError
from .exceptional import (_ladder_eval_ratios, _nonzero_lead, _ode_at,
                          _product_coeffs, _s_zeros, ladder_eval_pair)

# classification margin: a zero within this distance of the closed
# orthogonality interval is neither safely inside nor safely outside
MARGIN = 1e-9

# the certificate's bound on the relative Newton correction at a zero
CERT_TOL = 1e-10

# Newton stops once every point's next step is predicted below
# NEWTON_TOL, the prediction trusted while every step is at most
# PREDICT_TRUST (see _newton_ladder), or else once its largest step no
# longer shrinks (the rounding floor; n >~ 100 never reaches
# NEWTON_TOL), which ends a member that does not converge as well.  A
# quartic step of 1e-6 predicts a next one far below NEWTON_TOL, so the
# bound trusts the prediction after two rounds from raw WKB seeds: at
# 1e-8, the top regular zero of a Laguerre member (round-2 step 1.4e-7
# at laguerre1 m=3 alpha=2.7 n=200, from a seed 1.1e-2 of the local
# spacing off) would force a third round
NEWTON_TOL = 1e-15
PREDICT_TRUST = 1e-6

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


def _newton_ladder(spec, ns, x0s):
    """Newton polish of the ladder of spec at the degree indices ns, one
    iterate array x0s[i] per member, all in lockstep: each round makes
    one _ladder_eval_ratios call for every point of every pending
    member, with the degree per point (an int for one member).

    Each member has its own stop test and drops out once it stops.  The
    first n iterates of member i (n = ns[i]) seek its regular zeros by
    the fourth-order Householder step
        rho (1 - rho t2/2) / (1 - rho t2 + rho^2 t3/6),
    rho = y/y', with t2 = y''/y' and t3 = y'''/y' from the family ODE
    (Segura, SIAM J. Numer. Anal. 48 (2010)), or by plain Newton where
    that step is not finite (A = 0: an iterate on a zero of S).  Any
    after them seek its exceptional zeros by the Aberth-Ehrlich
    correction
        rho_i / (1 - rho_i sum_{j != i} 1/(x_i - x_j)),
    summed over all the member's other iterates, the regular ones after
    this round's step (they never read the exceptional ones), at a cost
    of O(n m) per round.  The sum divides the regular iterates out of y
    (Maehly's correction), so a seed near an exceptional zero is not
    thrown off by the n zeros inside the interval: without it, Newton
    from a zero of S can overshoot and then creep back by about 1/n of
    the distance per step.  It also couples the exceptional iterates, so
    two of them cannot converge to the same zero.  The coupling is
    one-way: were the regular iterates to divide out the exceptional
    ones too, a zero of S near the interval's end could push a regular
    iterate onto a zero that another one already holds (laguerre1 m=4
    alpha=0.1264 n=5, for one).

    A member stops once the order of its steps predicts that its next
    step would fall below NEWTON_TOL, so it does not take the rounds
    that only move its iterates about the evaluator's rounding floor.
    Each point has its relative step a = |dx|/(1+|x|), its step p one
    round earlier and the order q + 1 of its step, q = 4 for a regular
    point (quartic) and 2 for an exceptional one; it is done once
    a < NEWTON_TOL, or a < p and a^(q+1) <= NEWTON_TOL p^q (the next
    step, about a (a/p)^q, lies below NEWTON_TOL).  Done points stay
    done, and the member stops when all are, but only while its largest
    step max a is at most PREDICT_TRUST; a larger one clears every mark.
    A member also stops once max a is not finite, or is no smaller than
    one round earlier: at the rounding floor (n >~ 100 never reaches
    NEWTON_TOL), or where the iterates do not converge.  No round count
    ends the polish, so a member whose steps keep shrinking takes the
    rounds it needs.  Returns, per member, the polished iterates, or the
    NonConvergence of a member whose last max a is not finite, or above
    CERT_TOL without the prediction; the certificate of
    find_zeros_ladder, not the prediction, proves the zeros.

    The pending members' iterates are one array, member after member:
    the steps, the marks and the relative steps run on all of it, each
    member's max a and whether all its points are done are exact
    segment reductions, and the members that stop leave through one
    mask.  Only the Aberth sums run member by member, each over its own
    row, since a segment sum would not reproduce the bits of its
    pairwise np.sum.  So every operation on a member's points is the one
    a ladder of that member alone makes, and the results do not depend
    on the other members.  spec's S must be readable (find_zeros_ladder
    reads it first), so the evaluation raises nothing.
    """
    xs = [np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
          for x0 in x0s]
    out = [x if x.size == 0 else None for x in xs]
    ids = [i for i, x in enumerate(xs) if x.size]
    if not ids:
        return out
    n = [ns[i] for i in ids]
    lad, rows, deg = _layout(n, [xs[i].size for i in ids])
    x = lad.cat([xs[i] for i in ids])
    # per point: whether it is regular, the order exponent q of its step,
    # its last relative step (0 before the first, so the prediction
    # needs two) and whether it is predicted done
    reg = lad.index() < deg
    q = np.where(reg, 4.0, 2.0)
    last, done = np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
    prev = [np.inf] * len(ids)
    for it in count(1):
        with np.errstate(**_QUIET):
            v, dv, t2, t3 = _ladder_eval_ratios(spec, deg, x)
            rho = v / dv
            h = rho * t2
            step = rho * (1 - h / 2) / (1 - h + rho * rho * t3 / 6)
            # the ratios are not finite where A = sigma S vanishes (a
            # zero of S or of sigma): a plain Newton step there
            step = np.where(np.isfinite(step), step, rho)
            np.subtract(x, step, out=x, where=reg)
            for s, e0, e1 in rows:
                # row k: 1/(e_k - x_j) over every other iterate x_j of an
                # exceptional iterate e_k (the inf puts 0 at x_j = e_k,
                # every (size + 1)-th flat entry from n on), the regular
                # ones after this round's step
                dif = x[e0:e1, None] - x[None, s:e1]
                dif.ravel()[e0 - s::e1 - s + 1] = np.inf
                e = rho[e0:e1]
                step[e0:e1] = e / (1 - e * np.add.reduce(1.0 / dif, axis=1))
            np.subtract(x, step, out=x, where=~reg)
            a = np.abs(step) / (1 + np.abs(x))
            rel = lad.reduce(np.maximum, a, 0.0)
            done = (lad.per_point(rel) <= PREDICT_TRUST) & (
                done | (a < NEWTON_TOL)
                | ((a < last) & (a ** (q + 1) <= NEWTON_TOL * last ** q)))
        predicted = lad.reduce(np.logical_and, done, True).tolist()
        rel = rel.tolist()
        stops = [j for j, (r, p, r0) in enumerate(zip(rel, predicted, prev))
                 if not isfinite(r) or p or r >= r0]
        prev, last = rel, a
        parts = lad.split(x) if stops else []
        for j in stops:
            r = rel[j]
            out[ids[j]] = parts[j].copy() \
                if r <= CERT_TOL or predicted[j] else NonConvergence(
                    f"Newton stopped after {it} iterations with "
                    f"relative step {r:.3e} for {replace(spec, n=n[j])}",
                    [{"iterations": it, "relative_step": r}])
        if len(stops) == len(ids):
            break
        if stops:
            keep = np.ones(len(ids), dtype=bool)
            keep[stops] = False
            kept = lad.per_point(keep)
            x, reg, q, last, done = (x[kept], reg[kept], q[kept], last[kept],
                                     done[kept])
            ids, n, sizes, prev = ([v for v, k in zip(seq, keep) if k]
                                   for seq in (ids, n, lad.sizes, prev))
            lad, rows, deg = _layout(n, sizes)
    return out


def _layout(ns, sizes):
    """(Ladder, Aberth rows, degree per point) of the members of a
    ladder at the degree indices ns laid out as one array, sizes[i]
    points each; a row (start, first exceptional iterate, end) for each
    member with exceptional iterates."""
    lad = Ladder(sizes)
    rows = [(s, s + n, e) for s, e, n in zip(lad.starts, lad.ends, ns)
            if e > s + n]
    return lad, rows, lad.per_point(ns)


def _law_seeds(spec, ns, s):
    """Newton seeds of the exceptional zeros of the members of spec's
    ladder at the degree indices ns from the zeros s of S (complex), one
    broadcast of the family's one-term law (Family.law) over (members,
    zeros of S): the law at n >= 1, s itself at a real s whose law value
    is not real.  A member at n = 0 is a S - w S' (u = 1), so it starts
    from its own zeros, the roots of the coefficients that
    exceptional._product_coeffs forms, or from s where monic they leave
    binary64 or they give fewer than m roots.  Per member, a real array
    when every seed is real."""
    n = np.array(ns)[:, None]
    with np.errstate(**_QUIET):
        e = spec.fam.law(s, n)
        e = np.where((s.imag == 0) & (e.imag != 0), s, e)
        if 0 in ns:
            c = _product_coeffs(spec if spec.n == 0 else replace(spec, n=0))
            own = c.size == s.size + 1 and np.all(np.isfinite(c / c[-1]))
            e[n[:, 0] == 0] = np.roots(c[::-1]) if own else s
    return [row if row.imag.any() else row.real for row in e]


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


def _classify(spec, found):
    """{i: CountMismatch} of the members i of found ({i: (regular,
    exceptional zeros)}, members of spec's ladder) whose zeros fail the
    margin or order checks, in one pass over every member's zeros.  A
    member reports its first failing check, in this order: a regular
    zero on or outside the interval's margin, regular zeros not strictly
    increasing, then an exceptional zero inside the margin of the closed
    interval, naming the member's first such zero.  The counts, n and m,
    hold by construction: find_zeros_ladder splits n seeds from the
    zeros of S, of which _s_zeros gives exactly m."""
    if not found:
        return {}
    ids = list(found)
    regs, excs = zip(*found.values())
    rl, el = Ladder([r.size for r in regs]), Ladder([z.size for z in excs])
    reg, exc = rl.cat(regs), el.cat(excs)
    a, b = spec.interval
    # a Laguerre b = inf bounds nothing; Newton refused non-finite zeros
    outside = rl.reduce(np.logical_or,
                        (reg <= a + MARGIN) | (reg >= b - MARGIN), False)
    # the order within each member: no pair across two members
    unordered = rl.reduce(np.logical_or, np.concatenate(
        ([False], reg[1:] <= reg[:-1])) & (rl.index() > 0), False)
    near = np.flatnonzero((np.abs(exc.imag) <= MARGIN)
                          & (a - MARGIN <= exc.real)
                          & (exc.real <= b + MARGIN))[::-1]
    # each member's first near zero: the last one written
    first = dict(zip(el.member(near).tolist(), near.tolist()))
    bad = {}
    for k in sorted(set(np.flatnonzero(outside | unordered).tolist())
                    | set(first)):
        if outside[k]:
            msg = "regular zero on or outside the orthogonality interval"
        elif unordered[k]:
            msg = "regular zeros not strictly increasing"
        else:
            msg = (f"exceptional zero {exc[first[k]]} inside the "
                   f"classification margin of the orthogonality interval")
        bad[ids[k]] = CountMismatch(msg)
    return bad


def _certificate(roots, v, dv, lad):
    """Evaluator certificate records of the roots of a ladder's members,
    laid out as the Ladder lad, from (y, y') there: the Newton
    correction is small, |y(r)| <= 1e-10 |y'(r)| (1 + |r|).  Each
    member's worst ratio is an exact segment max, 0.0 for a member with
    no root.  A y' beyond binary64 bounds no correction, so its ratio
    reads inf."""
    ratio = np.abs(v) / (np.abs(dv) * (1 + np.abs(roots)))
    ratio[~np.isfinite(dv)] = np.inf
    return [{"method": "evaluator", "passed": bool(w <= CERT_TOL),
             "max_ratio": w}
            for w in lad.reduce(np.maximum, ratio, 0.0).tolist()]


@dataclass(frozen=True)
class StieltjesSystem:
    """The Stieltjes system of a ZeroSet (stieltjes_system).

    z:          all m + n zeros, the exceptional ones first, then the
                regular ones (ascending for laguerre1, whose exceptional
                zeros are negative); real where every zero is
    d1:         B/A at z, the hat weight's (log w)'
    F:          F_j = 2 sum_{i != j} 1/(z_j - z_i) + B/A (z_j), the hat
                weight's energy gradient at z
    J:          its Jacobian: 2/(z_j - z_i)^2 off the diagonal and
                (B/A)' - 2 sum_{i != j} 1/(z_j - z_i)^2 on it
    stieltjes:  max_j |F_j| over its bound
    van_vleck:  max |R + C| over its bound at the m + 2 points
    """

    z: np.ndarray
    d1: np.ndarray
    F: np.ndarray
    J: np.ndarray
    stieltjes: float
    van_vleck: float


def _worst(res, bound):
    """max res/bound, 0 where both are 0 and 0.0 for no entry."""
    ratio = np.divide(res, bound, out=np.zeros(res.shape), where=res != 0)
    return float(np.max(ratio, initial=0.0))


def stieltjes_system(zs):
    """The Stieltjes system of the certified zeros z of zs, read off the
    family ODE A y'' + B y' + C y = 0 at the zeros alone, with no
    coefficient of y, no lead and no sweep.

    At a simple zero y''/y' = 2 sum_{i != j} 1/(z_j - z_i), so every zero
    of the member satisfies F_j = 0 (Stieltjes 1885); F and J are
    energy._derivatives with d1 = B/A and d2 = (B/A)' = (B' - d1 A')/A,
    from exceptional._ode_at.  F = 0 says A p'' + B p' = R p for
    p = prod (x - z_j), with R of degree <= m, the Van Vleck polynomial,
    R(x) = A (s1^2 - s2) + B s1, s_k = sum_j (x - z_j)^-k off the
    zeros.  R = -C at m + 1 points makes p a solution of the family
    ODE; it is read at m + 2 points on a circle about the zeros, of
    twice their largest distance from their centroid, plus 1.

    Each residual is held to a derived bound: to first order in the
    zeros' errors e_i <= CERT_TOL (1 + |z_i|), the certificate's level,
    sum_i |dF_j/dz_i| e_i (and the same sum for R), plus the rounding of
    the sums, gamma_{N+4} times a bound on the sum of the moduli of
    their terms (N = m + n; Higham, Accuracy and Stability, 2nd ed.,
    sections 3.1 and 3.6).  The certificate's max_ratio is no bound on the zeros'
    errors: it reads y with its rounding, and at laguerre1 (2, 0.854,
    120) the smallest regular zero lies 6.2e-15 (1 + |z|) from the
    40-digit oracle where max_ratio reads 3.3e-15.  The ODE reads the
    spec, so a wrong parameter or degree, or a wrong zero, fails it.
    That a polynomial solution of degree N is the member (one such
    solution up to scale) is not shown here."""
    spec, m = zs.spec, zs.spec.m
    z = np.concatenate([zs.exceptional, zs.regular])
    N, u = z.size, np.finfo(float).eps / 2
    gamma = (N + 4) * u / (1 - (N + 4) * u)
    c = z.mean() if N else 0.0
    r = 2.0 * np.max(np.abs(z - c), initial=0.0) + 1.0
    x = c + r * np.exp(1j * np.pi * (2 * np.arange(m + 2) + 1) / (m + 2))
    with np.errstate(**_QUIET):
        # one evaluation at the zeros and the m + 2 points
        A, B, C, dA, dB, _ = _ode_at(spec, spec.n, np.concatenate([z, x]))
        d1 = B[:N] / A[:N]
        d2 = (dB[:N] - d1 * dA[:N]) / A[:N]
        if not z.imag.any():
            z, d1, d2 = z.real, d1.real, d2.real
        e = CERT_TOL * (1 + np.abs(z))
        (F,), (J,) = _derivatives((z[:, None] - z[None, :])[None], d1[None],
                                  d2[None])
        # |dF_j/dz_i| = |J_ji| = 2/|z_j - z_i|^2 off the diagonal, and the
        # sum of the moduli of J_jj's terms on it; by Cauchy-Schwarz F_j's
        # terms have moduli summing to at most sqrt(2 (N - 1) off_j) + |d1|
        a = np.abs(J)
        a.ravel()[::N + 1] = 0.0
        off = a.sum(axis=1)
        a.ravel()[::N + 1] = off + np.abs(d2)
        stieltjes = _worst(np.abs(F), a @ e + gamma * (
            np.sqrt(2.0 * (N - 1) * off) + np.abs(d1)))
        A, B, C = A[N:], B[N:], C[N:]
        q = 1.0 / (x[:, None] - z[None, :])
        s1, s2, p = q.sum(axis=1), (q * q).sum(axis=1), np.abs(q).sum(axis=1)
        # dR/dz_j = (2 A s1 + B) q_j^2 - 2 A q_j^3, q_j = 1/(x - z_j); as
        # |s1| <= p and |s2| <= p^2, the moduli of R + C's products, their
        # first-order perturbations included, are at most
        # 4 |A| p^2 + |B| p + |C|
        dR = np.abs(q * q * (2 * A * s1 + B)[:, None]
                    - 2 * A[:, None] * q ** 3)
        van_vleck = _worst(np.abs(A * (s1 * s1 - s2) + B * s1 + C), dR @ e
                           + gamma * (4 * np.abs(A) * p * p + np.abs(B) * p
                                      + np.abs(C)))
    return StieltjesSystem(z=z, d1=d1, F=F, J=J, stieltjes=stieltjes,
                           van_vleck=van_vleck)


def _caught(f, *args):
    """f(*args), or the XFeketeError it raises, kept as a value without
    its traceback, so that it holds no frame."""
    try:
        return f(*args)
    except XFeketeError as exc:
        err = exc
    return err.with_traceback(None)


def find_zeros(spec):
    """All zeros of the exceptional polynomial, classified and certified.

    One engine for all three families.  The coupled Newton of
    _newton_ladder polishes the regular zeros from the classical zeros
    (Laguerre or Jacobi at the same parameters, as laguerre_seed_ladder
    and jacobi_seed_ladder give them: raw Langer-WKB nodes) and the
    exceptional zeros from the law seeds (_law_seeds), all together.
    Raises DegreeCollapse first where the closed-form leading coefficient
    is 0, RepresentationOverflow where S's coefficients or its monic
    ones (exceptional._s_zeros) leave binary64, CountMismatch if the
    location margins or the order of the regular zeros fail, and
    NonConvergence if the Newton polish or the certificate fails.

    The certificate bounds the closed-form evaluator's Newton correction
    at every zero (_certificate); the monomial coefficients are never
    built.  This is find_zeros_ladder on a ladder of one, and the one
    place that raises a member's stored error.
    """
    (zs,) = find_zeros_ladder(spec, [spec.n])
    if isinstance(zs, XFeketeError):
        try:
            raise zs
        finally:
            # the traceback holds this frame: without the name, the
            # error, the frame and the spec's tables wait for the cyclic
            # collector
            del zs
    return zs


def find_zeros_ladder(spec, ns):
    """find_zeros for each member of spec's ladder, spec at each degree
    index n of ns (ints), in order: each member's ZeroSet, or the
    XFeketeError that find_zeros raises for it.  A member whose
    closed-form lead collapses fails first; the rest take their regular
    seeds from one call of the family's seed ladder (Family.gauss: one
    WKB phase table for all, each member's inverted on its own, with no
    sweep) and S and its zeros from one read through spec, which one
    broadcast of the law moves to every member's exceptional seeds
    (_law_seeds).  The Newton polish runs on all members' iterates as
    one array, and their certificates are one more lockstep round on
    one array of every classified member's zeros, whose y' at the
    regular zeros each ZeroSet keeps (a slice of that round's y').
    The margin and order checks (_classify) are one pass over all the
    zeros.  A member that fails a stage (lead, seeds, S, Newton,
    classification, certificate) keeps that stage's error as its value,
    stored once and never raised here, and drops out of the later stages;
    an error caught from a raise (lead, S) is kept without its traceback
    (_caught), so none holds a frame.  A member's spec is spec itself at
    n = spec.n, else replace(spec, n=n), which tables S only if read.
    """
    members = [spec if n == spec.n else replace(spec, n=n) for n in ns]
    # out[i]: member i's value from the last stage it passed (lead,
    # seeds, ZeroSet) or its error; a collapsed lead fails it first
    out = [_caught(_nonzero_lead, s, s.fam.lead_factor(s)) for s in members]
    live = [i for i, o in enumerate(out) if not isinstance(o, XFeketeError)]
    # every member's classical seeds: its raw WKB nodes
    for i, g in zip(live, spec.fam.gauss(spec, [ns[i] for i in live])):
        out[i] = g
    seeded = [i for i in live if not isinstance(out[i], XFeketeError)]
    r = _caught(_s_zeros, spec)
    if isinstance(r, XFeketeError):
        # S fails alike at every n: each member's error is the one read's,
        # naming the member where it names the spec
        for i in seeded:
            out[i] = type(r)(str(r).replace(str(spec), str(members[i])))
        return out
    # one read-only copy for every member's ZeroSet
    s_zeros = _sort_zeros(r)
    s_zeros.setflags(write=False)
    # the n classical seeds, then the m law seeds of the exceptional
    # zeros: a real array when all of those are real
    law = _law_seeds(spec, [ns[i] for i in seeded], r)
    polished = _newton_ladder(
        spec, [ns[i] for i in seeded],
        [np.concatenate([out[i], e]) for i, e in zip(seeded, law)])
    found = {}
    for i, x in zip(seeded, polished):
        if isinstance(x, XFeketeError):
            out[i] = x
            continue
        reg = x[:ns[i]]
        off = np.flatnonzero(reg.imag)
        if off.size:
            # a regular iterate that left the real axis is no zero
            # inside the interval, whatever its real part
            out[i] = CountMismatch(f"regular zero {reg[off[0]]} off the "
                                   f"real axis for {members[i]}")
        else:
            found[i] = np.sort(reg.real), _sort_zeros(x[ns[i]:])
    for i, exc in _classify(spec, found).items():
        out[i] = exc
        del found[i]
    if not found:
        return out
    # every classified member's certificate, in one more lockstep round
    # on one array, in real arithmetic for a member whose zeros are all
    # real
    rts = [np.concatenate([z if z.imag.any() else z.real, reg])
           for reg, z in found.values()]
    lad = Ladder([x.size for x in rts])
    rts = lad.cat(rts)
    with np.errstate(**_QUIET):
        y, dy = ladder_eval_pair(
            spec, lad.per_point([ns[i] for i in found]), rts)
        certs = _certificate(rts, y, dy, lad)
    for (i, (reg, z)), cert, d in zip(found.items(), certs, lad.split(dy)):
        if cert["passed"]:
            out[i] = ZeroSet(spec=members[i], regular=reg, exceptional=z,
                             s_zeros=s_zeros, certificate=cert,
                             regular_dy=d[z.size:])
        else:
            out[i] = NonConvergence(f"residual certificate failed: {cert}",
                                    [cert])
    return out


def _brackets(deg, al, x):
    """(x_1 in (0, z_1), x_j in (z'_{j-1}, z_j) for every j >= 2) for deg
    ascending points x, with z_j the zeros of L_deg^(al) and z'_j those
    of L_{deg-1}^(al), decided by signs from one _laguerre_values at 0 and
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
    p, q = _laguerre_values(deg, al, np.concatenate([[0.0], x]))
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

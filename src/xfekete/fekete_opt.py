"""Maximization of the weighted log-energy over node configurations.

The functional F from the energy module is concave near its maximizers,
so a damped Newton iteration with a gradient-ascent fallback (used while
the Hessian is not negative definite) converges quickly; started from
the regular zeros of a member it stops within a couple of steps.  -H is
certified positive definite by strict diagonal dominance, which its
positive off-diagonal entries reduce to a sign test of the row sums of
H; only a Hessian without the certificate is tested by a Cholesky
factorization, and the Newton step is one LU solve.  Each
step is capped at 0.9 of the way to the edge of the search box (the
fraction-to-the-boundary rule, Nocedal & Wright, Numerical
Optimization, 2nd ed., 2006, sec. 19.2) and halved only when F drops or
the candidate is inadmissible; a row that converges in Newton mode is
polished by one more full Newton step, kept only when it verifies.

One core ascends a whole stack of starts in lockstep, and every try of
a round has the stack's fixed shape: a pending row offers its
candidate, every other row its iterate, and one weight evaluation for
the whole stack gives F (plain row sums), the gradient and the Hessian
of each row; an accepted candidate's values serve the next iteration.
Order, box and pole checks are row masks, the weight's pole guards
included (energy._weight_logs), so a candidate on a pole of the
weight is rejected like any other, with no retry.  S is tabled once
per spec (FamilySpec.S) and P once per weight (WeightSpec), which also
stacks both tables so that one Horner pass evaluates S and P.  In the
common round every row steps and every candidate is accepted: the
round then keeps the candidate stacks as they are, with no copy of
rows.  F is summed exactly (math.fsum) once per maximizer returned.
The multistart probe (uniqueness_probe) runs all its random starts as
one stack and clusters the maximizers found to test uniqueness of the
weighted Fekete set.
"""

import numpy as np

from .errors import (DomainEscape, NonConvergence, NumericalError,
                     ValidationError)
from .energy import _assemble, _coincident, _compensated, _weight_logs

GTOL = 1e-9
ITMAX = 500


def default_domain(w, n):
    """Search box for n nodes: (0, 4n + 2 alpha + 4m) for the Laguerre
    families, the open interval (-1, 1) for jacobi, whose extreme zeros
    come within 1e-3 of the ends from n ~ 90 on (the weight's pole guard
    refuses nodes within 1e-12 of them)."""
    return w.spec.fam.domain(w.spec, n)


def _check_box(w, lo, hi):
    """ValidationError when the open box (lo, hi) holds a real zero of S
    (imaginary part within 1e-9 (1 + |real part|)): log w tends to +inf
    there, so F has no maximizer in the box and every ascent would climb
    into that zero."""
    for r in w.spec.S.roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and lo < r.real < hi:
            raise ValidationError(
                f"search box ({lo:g}, {hi:g}) holds the zero x = "
                f"{r.real:g} of S, where log w tends to +inf: F has no "
                f"maximizer there")


def _masks(X, domain):
    """Row masks (pole, order, out) of a stack X (T, n) of sorted node
    rows: two nodes within 1e-14 (relative) of each other, consecutive
    nodes not increasing, a node on or past the edge of the box.  A row
    with none of them is admissible."""
    lo, hi = domain
    dif = X[:, 1:] - X[:, :-1]
    return (_coincident(X, dif), (dif <= 0).any(axis=1),
            ((X <= lo) | (X >= hi)).any(axis=1))


def _evaluate(w, X):
    """Energy terms of a stack X (T, n) of admissible rows, from one
    weight evaluation for the whole stack.

    Returns (pole, F, G, H, logw, cross): pole flags the rows with a
    node inside one of the weight's pole guards (_weight_logs), whose
    terms are finite and mean nothing; the others are the terms of every
    row as _assemble gives them (F the plain row sums of logw and
    cross), each row's with the bits of a stack of that row alone.
    """
    logs, guards = _weight_logs(w, X)
    pole = np.zeros(len(X), dtype=bool)
    for _, near in guards:
        pole |= near.any(axis=1)
    F, G, H, cross = _assemble(X, *logs)
    return pole, F, G, H, logs[0], cross


def _steps(G, H):
    """(newton, step) per row: the Newton step where -H is positive
    definite, else the scaled gradient g / (1 + ||H||_inf).

    H's off-diagonal entries 2/(x_i - x_j)^2 are positive, so -H is
    diag(-(log w)'') plus a graph Laplacian and a row sum of H is
    (log w)'' at its node.  A matrix whose every row sum of H is below
    -1e-10 max_k |H_kk| makes -H strictly diagonally dominant with a
    positive diagonal, hence positive definite (Horn & Johnson, Matrix
    Analysis, Thm 6.1.10); the margin is far above the rounding of the
    computed sums.  Only the matrices without this certificate are
    factored by Cholesky, one at a time, and np.linalg.solve is the one
    factorization of the Newton rows.  When every row is certified it
    solves the stack as it is: LAPACK factors each matrix on its own, so
    a row's step has the bits it has in any other stack.
    """
    diag = np.diagonal(H, axis1=1, axis2=2)
    bound = -1e-10 * np.abs(diag).max(axis=1)
    newton = (H.sum(axis=2) < bound[:, None]).all(axis=1)
    if newton.all():
        return newton, np.linalg.solve(H, -G[..., None])[..., 0]
    rest = np.flatnonzero(~newton)
    newton[rest] = [_negative_definite(h) for h in H[rest]]
    step = np.empty_like(G)
    a = ~newton
    if a.any():
        nrm = np.linalg.norm(H[a], np.inf, axis=(1, 2))
        step[a] = G[a] / (1.0 + nrm)[:, None]
    if newton.any():
        rhs = -G[newton][..., None]
        step[newton] = np.linalg.solve(H[newton], rhs)[..., 0]
    return newton, step


def _negative_definite(h):
    try:
        np.linalg.cholesky(-h)
    except np.linalg.LinAlgError:
        return False
    return True


def _box_scale(X, step, domain):
    """Per row, min(1, 0.9 t_box), where t_box is the largest t that
    keeps every node of X + t step inside the open box: the fraction to
    the boundary rule.  A zero step component sets no bound.  At 0.99
    instead of 0.9 the nodes land nearer the box edge, and the probes
    take about 3 % more Newton iterations."""
    lo, hi = domain
    room = np.where(step > 0, hi - X, lo - X)
    t_box = np.divide(room, step, out=np.full_like(step, np.inf),
                      where=step != 0)
    return np.minimum(1.0, 0.9 * t_box.min(axis=1))


def _accepted(C, F, gmax, polish):
    """Per candidate row of the terms C (F, G, ...) of _evaluate, against
    its iterate's F, max|grad F| and polish flag: True unless F drops by
    more than 1e-10 (1 + |F|) or a polish raises max|grad F|."""
    acc = C[0] >= F - 1e-10 * (1.0 + np.abs(F))
    if polish.any():
        acc &= ~polish | (np.abs(C[1]).max(axis=1) <= gmax)
    return acc


def _copy_rows(rows, src, dst):
    """Copy the rows flagged in rows of each array of src into the same
    rows of the matching array of dst, in place."""
    for a, b in zip(src, dst):
        np.copyto(b, a, where=rows.reshape(rows.shape + (1,) * (a.ndim - 1)))


def _line_search(w, domain, X, V, step, t, live, polish, gmax):
    """One round of _ascend's damped steps from the iterates X and
    their terms V (F, G, H, logw, cross).

    Every polish and every live row with t > 1e-14 is pending.  Each try
    evaluates the whole stack: a pending row offers its candidate, the
    sorted X + t step, where that is admissible (_masks), and every other
    row, a row that has moved included, offers its iterate X.  A
    candidate off the weight's poles and _accepted is written into X and
    V in place; a live row whose candidate is not halves its t, in
    place, and tries again until t falls to 1e-14; a polish gets one
    try.  A try with no admissible candidate makes no weight evaluation.

    Returns (X, V, moved, escape): moved flags the rows that took a
    step and escape the rows whose last inadmissible candidate left the
    box or, with none, whose step the cap bound (t < 1).  When every row
    is accepted at the first try, as in the common round, the candidate
    stacks are the new X and V as they are, and no row is copied.
    """
    pending = polish | live & (t > 1e-14)
    escape = t < 1.0
    moved = np.zeros(len(X), dtype=bool)
    while pending.any():
        cand = np.sort(X + t[:, None] * step, axis=1)
        if not pending.all():
            cand = np.where(pending[:, None], cand, X)
        pole, order, out = _masks(cand, domain)
        bad = pole | order | out
        if bad.any():
            escape[bad] = out[bad]
            cand = np.where(bad[:, None], X, cand)
        ok = pending & ~bad
        if ok.any():
            pole, *C = _evaluate(w, cand)
            escape[pole] = False        # inadmissible, but inside the box
            ok &= ~pole & _accepted(C, V[0], gmax, polish)
            if ok.all():
                X, V = cand, C
            else:
                _copy_rows(ok, [cand, *C], [X, *V])
            # the candidate terms go before the next try evaluates
            del C
            moved |= ok
        # a polish gets one try; a live row halves t until it moves
        pending &= live & ~moved
        t[pending] *= 0.5
        pending &= t > 1e-14
    return X, V, moved, escape


def _ascend(w, domain, X, gtol, itmax):
    """Ascend F from every row of a stack X (T, n) of sorted starts, all
    rows in lockstep.

    Each iteration takes every live row's Newton (or gradient) step at
    the scale t of _box_scale, which keeps the row inside the box, and
    halves the t of the rows still pending, evaluating the whole stack
    at each try, until a row's candidate is admissible and does not
    lower F by more than 1e-10 (1 + |F|), or its t falls to 1e-14 (at
    once when the cap is already there).  The accept test reads plain
    row sums of F.

    A row is done once max|grad F| < gtol.  If it got there in Newton
    mode, its full Newton step joins the next round's stack, and the
    polished row replaces it when that is admissible, does not lower F
    beyond the same tolerance and has no larger max|grad F|.

    Returns one entry per row: (nodes, trace) for a done row, else the
    DomainEscape or NonConvergence that ends that row.  A trace entry
    per iteration holds its logT, max_gradient, mode ("newton" or
    "ascent") and, once a step from it is accepted, its step_scale t; a
    kept polish adds an entry of mode "polish".  The last entry's logT
    is the compensated F of the nodes returned, the others plain sums.
    """
    if X.shape[1] == 0:
        raise ValidationError("nodes must be a nonempty 1-d array")
    out = [None] * len(X)
    pole, order, outside = _masks(X, domain)
    rows = np.flatnonzero(~(pole | order | outside))
    if rows.size:
        weight_pole, *V = _evaluate(w, X[rows])
        if weight_pole.any():
            pole[rows[weight_pole]] = True
            rows, V = rows[~weight_pole], [a[~weight_pole] for a in V]
    for r in np.flatnonzero(pole | order | outside):
        why = "domain" if outside[r] else "order" if order[r] else "pole"
        out[r] = DomainEscape(f"initial nodes invalid ({why})")
    X = X[rows]
    traces = [[] for _ in rows]
    for it in range(itmax):
        if not rows.size:
            break
        # V holds F, G, H and the summed terms, row by row
        F, G = V[0], V[1]
        newton, step = _steps(G, V[2])
        gmax = np.abs(G).max(axis=1)
        for tr, f, g, nt in zip(traces, F.tolist(), gmax.tolist(),
                                newton.tolist()):
            tr.append({"iteration": it, "logT": f, "max_gradient": g,
                       "mode": "newton" if nt else "ascent"})
        live = ~(gmax < gtol)
        polish = ~live & newton
        t = np.where(live, _box_scale(X, step, domain), 1.0)
        X, V, moved, escape = _line_search(w, domain, X, V, step, t, live,
                                           polish, gmax)
        for k in np.flatnonzero(moved):
            traces[k][-1]["step_scale"] = float(t[k])
        for k in np.flatnonzero(~live):
            logT = _compensated(V[3][k], V[4][k])
            if moved[k]:
                gk = float(np.abs(V[1][k]).max())
                traces[k].append({"iteration": it + 1, "logT": logT,
                                  "max_gradient": gk, "mode": "polish"})
            else:
                traces[k][-1]["logT"] = logT
            out[rows[k]] = (X[k].copy(), traces[k])
        for k in np.flatnonzero(live & ~moved):
            out[rows[k]] = (
                DomainEscape("no damped step stays inside the domain")
                if escape[k]
                else NonConvergence("line search stalled", traces[k]))
        keep = live & moved
        if not keep.all():
            rows, X, V = rows[keep], X[keep], [a[keep] for a in V]
            traces = [tr for tr, kept in zip(traces, keep) if kept]
    for r, tr in zip(rows, traces):
        out[r] = NonConvergence(
            f"gradient above {gtol} after {itmax} iterations", tr)
    return out


def uniqueness_probe(w, domain, n, trials=20, seed=0):
    """Multistart search for distinct maximizers of F.

    Ascends from `trials` sorted-uniform random initial configurations,
    all in one lockstep batch, and clusters the converged results in
    trial order with absolute tolerance 1e-5 per node.  A unique
    weighted Fekete set shows up as a single cluster collecting every
    converged run.  A box that holds a real zero of S of a hat or v
    weight raises ValidationError (_check_box).
    """
    if trials < 0:
        raise ValidationError(f"trials {trials} is negative")
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    lo, hi = float(domain[0]), float(domain[1])
    _check_box(w, lo, hi)
    starts = np.sort(rng.uniform(lo, hi, size=(trials, n)), axis=1)
    clusters = []
    converged = failed = 0
    for res in _ascend(w, (lo, hi), starts, GTOL, ITMAX):
        if isinstance(res, NumericalError):
            failed += 1
            continue
        nodes, trace = res
        converged += 1
        for c in clusters:
            if np.max(np.abs(c["nodes"] - nodes)) < 1e-5:
                c["count"] += 1
                break
        else:
            clusters.append({"nodes": nodes, "count": 1,
                             "logT": trace[-1]["logT"]})
    clusters.sort(key=lambda c: -c["count"])
    return {"clusters": clusters, "trials": trials,
            "converged": converged, "failed": failed}

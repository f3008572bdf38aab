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

One core ascends a whole stack of starts in lockstep: each round
evaluates every pending candidate together, with one weight evaluation
for all of them that gives F (plain row sums), the gradient and the
Hessian of each, and an accepted candidate's values serve the next
iteration; S is tabled once per spec (FamilySpec.S) and P once per
weight (WeightSpec), which also stacks both tables so that one Horner
pass evaluates S and P.  In the common round every row steps, every
candidate is admissible and accepted and every -H is certified: the
round then solves, evaluates and keeps the stacks as they are, with no
gather, scatter or copy of rows.  Only a round with a failing row takes
the gathered path.  F is summed exactly (math.fsum) once per maximizer
returned.  A single ascent is a stack of one; a multistart probe runs
all its random starts as one stack and clusters the maximizers found
to test uniqueness of the weighted Fekete set.
"""

import numpy as np

from .errors import (DomainEscape, NonConvergence, NumericalError,
                     ValidationError)
from .energy import (_assemble, _coincident, _compensated,
                     gradient_and_hessian, v_weight, weight_logs)
from .exceptional import FamilySpec
from .roots import find_zeros

GTOL = 1e-9
ITMAX = 500


def default_domain(w, n):
    """Search box for n nodes: (0, 4n + 2 alpha + 4m) for the Laguerre
    families, the open interval (-1, 1) for jacobi, whose extreme zeros
    come within 1e-3 of the ends from n ~ 90 on (the weight's pole guard
    refuses nodes within 1e-12 of them)."""
    return w.spec.fam.domain(w.spec, n)


def _evaluate(w, X, domain):
    """Admissibility and energy terms of a stack X (T, n) of sorted node
    rows, with one weight evaluation for all admissible rows (none when
    no row is admissible).

    Returns (reason, F, G, H, logw, cross): reason is "" when every row
    is admissible, else an array whose entry reason[r] is "" for an
    admissible row and otherwise "domain", "order" or "pole", the first
    check that row fails; the others are the terms of the admissible
    rows, in order, as _assemble gives them (F the plain row sums of
    logw and cross).  A row is a pole when two of its nodes lie within
    1e-14 (relative) of each other or its weight evaluation raises
    NumericalError.  Only a stack with a failing row is gathered.
    """
    lo, hi = domain
    dif = X[:, 1:] - X[:, :-1]
    pole = _coincident(X, dif)
    order = (dif <= 0).any(axis=1)
    out = ((X <= lo) | (X >= hi)).any(axis=1)
    reason = ""
    if (pole | order | out).any():
        reason = _reasons(pole, order, out)
    Y = X if isinstance(reason, str) else X[reason == ""]
    try:
        logs = weight_logs(w, Y) if len(Y) else None
    except NumericalError:
        # find the rows that raised, then evaluate the others together
        if isinstance(reason, str):
            reason = _reasons(pole, order, out)
        for r in np.flatnonzero(reason == ""):
            try:
                weight_logs(w, X[r])
            except NumericalError:
                reason[r] = "pole"
        Y = X[reason == ""]
        logs = weight_logs(w, Y) if len(Y) else None
    if logs is None:
        n = X.shape[1]
        return (reason, np.empty(0), np.empty((0, n)), np.empty((0, n, n)),
                np.empty((0, n)), np.empty((0, n * (n - 1) // 2)))
    F, G, H, cross = _assemble(Y, *logs)
    return reason, F, G, H, logs[0], cross


def _reasons(pole, order, out):
    """The reason array of _evaluate from its three row masks."""
    reason = np.full(len(pole), "", dtype="<U6")
    reason[pole] = "pole"
    reason[order] = "order"
    reason[out] = "domain"
    return reason


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


def _line_search(w, domain, X, V, step, t, live, polish, gmax):
    """One round of _ascend's damped steps from the iterates X and
    their terms V (F, G, H, logw, cross), row by row.

    Every polish and every live row with t > 1e-14 is pending.  All of
    them take their steps at their t together, and a live row whose
    candidate is inadmissible or rejected (_accepted) halves its t, in
    place, and tries again until t falls to 1e-14; a polish gets one try.

    Returns (X, V, moved, escape): moved flags the rows that took a
    step and escape the rows whose last inadmissible candidate left the
    box or, with none, whose step the cap bound (t < 1).  In the common
    round every row is pending and every first candidate admissible and
    accepted: the candidates, taken with no gather, are then the new X
    and V, and escape, which no row needs, is None.  Otherwise the
    accepted candidates are written into X and V in place.
    """
    tried = None
    pending = polish | live & (t > 1e-14)
    if pending.all():
        cand = np.sort(X + t[:, None] * step, axis=1)
        reason, *C = _evaluate(w, cand, domain)
        if isinstance(reason, str) and _accepted(C, V[0], gmax,
                                                 polish).all():
            return cand, C, pending, None
        tried = cand, reason, C
    escape = t < 1.0
    moved = np.zeros(len(X), dtype=bool)
    pend = np.flatnonzero(pending)
    while pend.size:
        if tried is None:
            cand = np.sort(X[pend] + t[pend, None] * step[pend], axis=1)
            reason, *C = _evaluate(w, cand, domain)
        else:
            (cand, reason, C), tried = tried, None
        reason = np.broadcast_to(reason, len(cand))
        ok = np.flatnonzero(reason == "")
        p = pend[ok]
        acc = _accepted(C, V[0][p], gmax[p], polish[p])
        X[p[acc]] = cand[ok[acc]]
        for a, c in zip(V, C):
            a[p[acc]] = c[acc]
        moved[p[acc]] = True
        bad = reason != ""
        escape[pend[bad]] = reason[bad] == "domain"
        # a polish gets one round; a live row halves t until it moves
        pend = pend[live[pend] & ~moved[pend]]
        t[pend] *= 0.5
        pend = pend[t[pend] > 1e-14]
    return X, V, moved, escape


def _ascend(w, domain, X, gtol, itmax):
    """Ascend F from every row of a stack X (T, n) of sorted starts, all
    rows in lockstep.

    Each iteration takes every live row's Newton (or gradient) step at
    the scale t of _box_scale, which keeps the row inside the box, and
    halves the t of the rows still pending, evaluating them together,
    until a row's candidate is admissible and does not lower F by more
    than 1e-10 (1 + |F|), or its t falls to 1e-14 (at once when the
    cap is already there).  The accept test reads plain row sums of F.

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
    reason, *V = _evaluate(w, X, domain)
    reason = np.broadcast_to(reason, len(X))
    for r in np.flatnonzero(reason != ""):
        out[r] = DomainEscape(f"initial nodes invalid ({reason[r]})")
    rows = np.flatnonzero(reason == "")
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


def maximize_log_T(w, domain, n, init=None, gtol=GTOL, itmax=ITMAX):
    """Ascend F to a stationary configuration of n nodes.

    Returns (nodes, trace) once max|grad F| < gtol, the nodes polished
    by one more verified Newton step where that is kept (see _ascend).
    trace is a list of per-iteration records: logT, max_gradient, mode
    and step_scale, the scale of the step accepted from that iterate (1
    unless capped at the box edge or halved); a kept polish adds a last
    record of mode "polish".  The last record's logT is the compensated
    F of the nodes returned.  Raises DomainEscape when no damped step
    can stay inside the open domain, and NonConvergence (with the trace
    attached) after itmax iterations.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if init is None:
        init = lo + (hi - lo) * (np.arange(1, n + 1)) / (n + 1.0)
    x = np.sort(np.asarray(init, dtype=float))
    if x.size != n:
        raise ValidationError(f"init has {x.size} nodes, expected {n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("init nodes must be finite")
    (res,) = _ascend(w, (lo, hi), x[None], gtol, itmax)
    if isinstance(res, NumericalError):
        raise res
    return res


def uniqueness_probe(w, domain, n, trials=20, seed=0):
    """Multistart search for distinct maximizers of F.

    Ascends from `trials` sorted-uniform random initial configurations,
    all in one lockstep batch, and clusters the converged results in
    trial order with absolute tolerance 1e-5 per node.  A unique
    weighted Fekete set shows up as a single cluster collecting every
    converged run.
    """
    if trials < 0:
        raise ValidationError(f"trials {trials} is negative")
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    lo, hi = float(domain[0]), float(domain[1])
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


def search_positive_h11(trials=400, seed=0):
    """Hunt for a configuration whose first Hessian diagonal is positive.

    (log v)'' can exceed 0 just right of the origin when alpha is small
    (m = 1, low n); placing the remaining nodes far away keeps the
    off-diagonal repulsion below that curvature, so H_11 > 0 even though
    every diagonal entry is negative at the zero configuration itself.
    Samples alpha log-uniformly in [0.01, 0.3] and returns the first
    witness found.
    """
    rng = np.random.default_rng(seed)
    probe = np.geomspace(0.01, 1.0, 60)
    for _ in range(trials):
        alpha = float(10.0 ** rng.uniform(-2.0, np.log10(0.3)))
        n = int(rng.integers(1, 3))
        spec = FamilySpec("laguerre1", 1, alpha, n)
        try:
            v = v_weight(find_zeros(spec))
            _, _, d2 = weight_logs(v, probe)
        except NumericalError:
            continue
        k = int(np.argmax(d2))
        if d2[k] <= 0.0:
            continue
        x1, curv = float(probe[k]), float(d2[k])
        far = max(10.0, np.sqrt(16.0 / curv))
        nodes = np.concatenate([[x1], x1 + far * np.arange(1, 3)])
        _, H = gradient_and_hessian(nodes, v)
        if H[0, 0] > 0.0:
            return {"spec": spec, "alpha": alpha, "nodes": nodes,
                    "h11": float(H[0, 0]), "log_v_dd": curv}
    raise NonConvergence(f"no positive H_11 witness in {trials} trials")

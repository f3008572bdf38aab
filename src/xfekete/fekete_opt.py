"""Maximization of the weighted log-energy over node configurations.

The functional F from the energy module is concave near its maximizers,
so a damped Newton iteration with a gradient-ascent fallback (used while
the Hessian is not negative definite) converges quickly; started from
the regular zeros of a member it stops within a couple of steps.  One
core ascends a whole stack of starts in lockstep: each Newton iteration
and each line-search halving evaluates every pending start together,
with one weight evaluation for all of them that gives F, the gradient
and the Hessian of each candidate, and an accepted candidate's values
serve the next iteration; S is tabled once per spec (FamilySpec.S) and
P once per weight (WeightSpec).  A single ascent is a stack of one; a
multistart probe runs all its random starts as one stack and clusters
the maximizers found to test uniqueness of the weighted Fekete set.
"""

import numpy as np

from .errors import (DomainEscape, NonConvergence, NumericalError,
                     ValidationError)
from .energy import _assemble, gradient_and_hessian, v_weight, weight_logs
from .exceptional import FamilySpec
from .roots import find_zeros

GTOL = 1e-9
ITMAX = 500


def default_domain(w, n):
    """Search box for n nodes: (0, 4n + 2 alpha + 4m) for the Laguerre
    families, (-1 + 1e-3, 1 - 1e-3) for jacobi."""
    return w.spec.fam.domain(w.spec, n)


def _evaluate(w, X, domain):
    """Admissibility and energy terms of a stack X (T, n) of sorted node
    rows, with one weight evaluation for all admissible rows (none when
    no row is admissible).

    Returns (reason, F, G, H): reason[r] is "" for an admissible row and
    otherwise "domain", "order" or "pole", the first check that row
    fails; F, G and H are the terms of the admissible rows, in order.
    A row is a pole when two of its nodes lie within 1e-14 (relative)
    of each other or its weight evaluation raises NumericalError.
    """
    lo, hi = domain
    reason = np.full(len(X), "", dtype="<U6")
    dif = np.diff(X, axis=1)
    scale = np.fmax(1.0, np.max(np.abs(X), axis=1, initial=0.0))
    reason[np.min(dif, axis=1, initial=np.inf) < 1e-14 * scale] = "pole"
    reason[np.any(dif <= 0, axis=1)] = "order"
    reason[np.any((X <= lo) | (X >= hi), axis=1)] = "domain"
    ok = reason == ""
    try:
        logs = weight_logs(w, X[ok]) if ok.any() else None
    except NumericalError:
        # find the rows that raised, then evaluate the others together
        for r in np.flatnonzero(ok):
            try:
                weight_logs(w, X[r])
            except NumericalError:
                reason[r] = "pole"
        ok = reason == ""
        logs = weight_logs(w, X[ok]) if ok.any() else None
    if logs is None:
        n = X.shape[1]
        return reason, np.empty(0), np.empty((0, n)), np.empty((0, n, n))
    F, G, H = _assemble(X[ok], *logs)
    return reason, np.array(F), G, H


def _steps(G, H):
    """(newton, step) per row: the Newton step where -H is positive
    definite, else the scaled gradient g / (1 + ||H||_inf)."""
    try:
        np.linalg.cholesky(-H)
        newton = np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        newton = np.array([_negative_definite(h) for h in H], dtype=bool)
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


def _ascend(w, domain, X, gtol, itmax):
    """Ascend F from every row of a stack X (T, n) of sorted starts, all
    rows in lockstep.

    Each iteration takes every live row's Newton (or gradient) step and
    halves the step scale t of the rows still pending, evaluating them
    together, until a row's candidate is admissible and does not lower
    F by more than 1e-10 (1 + |F|), or its t falls to 1e-14.  Returns
    one entry per row: (nodes, trace) once max|grad F| < gtol, else the
    DomainEscape or NonConvergence that ends that row.
    """
    if X.shape[1] == 0:
        raise ValidationError("nodes must be a nonempty 1-d array")
    out = [None] * len(X)
    reason, F, G, H = _evaluate(w, X, domain)
    for r in np.flatnonzero(reason != ""):
        out[r] = DomainEscape(f"initial nodes invalid ({reason[r]})")
    rows = np.flatnonzero(reason == "")
    X = X[rows]
    traces = [[] for _ in rows]
    for it in range(itmax):
        if not rows.size:
            break
        newton, step = _steps(G, H)
        gmax = np.max(np.abs(G), axis=1)
        for k in range(rows.size):
            traces[k].append({"iteration": it, "logT": float(F[k]),
                              "max_gradient": float(gmax[k]),
                              "mode": "newton" if newton[k] else "ascent"})
        live = ~(gmax < gtol)
        for k in np.flatnonzero(~live):
            out[rows[k]] = (X[k].copy(), traces[k])
        blocker = np.full(rows.size, "order", dtype="<U6")
        pend = np.flatnonzero(live)
        t = 1.0
        while t > 1e-14 and pend.size:
            cand = np.sort(X[pend] + t * step[pend], axis=1)
            reason, Fc, Gc, Hc = _evaluate(w, cand, domain)
            ok = np.flatnonzero(reason == "")
            f0 = F[pend[ok]]
            acc = Fc >= f0 - 1e-10 * (1.0 + np.abs(f0))
            done = pend[ok[acc]]
            X[done], F[done], G[done], H[done] = (
                cand[ok[acc]], Fc[acc], Gc[acc], Hc[acc])
            for k in done:
                traces[k][-1]["step_scale"] = t
            bad = reason != ""
            blocker[pend[bad]] = reason[bad]
            pend = np.delete(pend, ok[acc])
            t *= 0.5
        for k in pend:
            live[k] = False
            out[rows[k]] = (
                DomainEscape("no damped step stays inside the domain")
                if blocker[k] == "domain"
                else NonConvergence("line search stalled", traces[k]))
        rows, X, F, G, H = rows[live], X[live], F[live], G[live], H[live]
        traces = [tr for tr, keep in zip(traces, live) if keep]
    for r, tr in zip(rows, traces):
        out[r] = NonConvergence(
            f"gradient above {gtol} after {itmax} iterations", tr)
    return out


def maximize_log_T(w, domain, n, init=None, gtol=GTOL, itmax=ITMAX):
    """Ascend F to a stationary configuration of n nodes.

    Returns (nodes, trace) once max|grad F| < gtol.  trace is a list of
    per-iteration records.  Raises DomainEscape when no damped step can
    stay inside the open domain, and NonConvergence (with the trace
    attached) after itmax iterations.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if init is None:
        init = lo + (hi - lo) * (np.arange(1, n + 1)) / (n + 1.0)
    x = np.sort(np.asarray(init, dtype=float))
    if x.size != n:
        raise ValidationError(f"init has {x.size} nodes, expected {n}")
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

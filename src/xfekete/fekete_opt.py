"""Maximization of the weighted log-energy over node configurations.

The functional F from the energy module is concave near its maximizers,
so a damped Newton iteration with a gradient-ascent fallback (used while
the Hessian is not negative definite) converges quickly; started from
the regular zeros of a member it stops within a couple of steps.  Each
ascent point costs one weight evaluation: a line-search candidate gets
F, its gradient and its Hessian together from energy_terms, and an
accepted candidate's values serve the next iteration; the weight's
polynomial tables are built once per weight, in WeightSpec.  A
multistart probe clusters the maximizers found from random initial
configurations to test uniqueness of the weighted Fekete set.
"""

import numpy as np

from .errors import (DomainEscape, NonConvergence, NumericalError,
                     ValidationError)
from .energy import energy_terms, gradient_and_hessian, v_weight, weight_logs
from .exceptional import FamilySpec

GTOL = 1e-9
ITMAX = 500


def default_domain(w, n):
    """Search box for n nodes: (0, 4n + 2 alpha + 4m) for the Laguerre
    families, (-1 + 1e-3, 1 - 1e-3) for jacobi."""
    spec = w.spec
    if spec.family == "jacobi":
        return (-1.0 + 1e-3, 1.0 - 1e-3)
    return (0.0, 4.0 * n + 2.0 * spec.alpha + 4.0 * spec.m)


def _valid(w, x, domain):
    """(True, (F, g, H)) for an admissible configuration, else (False,
    the reason)."""
    lo, hi = domain
    if np.any(x <= lo) or np.any(x >= hi):
        return False, "domain"
    if np.any(np.diff(x) <= 0):
        return False, "order"
    try:
        return True, energy_terms(x, w)
    except NumericalError:
        return False, "pole"


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
    ok, terms = _valid(w, x, (lo, hi))
    if not ok:
        raise DomainEscape(f"initial nodes invalid ({terms})")
    f0, g, H = terms
    trace = []
    for it in range(itmax):
        gmax = float(np.max(np.abs(g)))
        mode = "newton"
        try:
            np.linalg.cholesky(-H)
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            mode = "ascent"
            step = g / (1.0 + np.linalg.norm(H, np.inf))
        trace.append({"iteration": it, "logT": f0, "max_gradient": gmax,
                      "mode": mode})
        if gmax < gtol:
            return x, trace
        t = 1.0
        placed = False
        blocker = "order"
        while t > 1e-14:
            cand = np.sort(x + t * step)
            ok, terms = _valid(w, cand, (lo, hi))
            if ok and terms[0] >= f0 - 1e-10 * (1.0 + abs(f0)):
                x, (f0, g, H) = cand, terms
                placed = True
                break
            if not ok:
                blocker = terms
            t *= 0.5
        if not placed:
            if blocker == "domain":
                raise DomainEscape("no damped step stays inside the domain")
            raise NonConvergence("line search stalled", trace)
        trace[-1]["step_scale"] = t
    raise NonConvergence(f"gradient above {gtol} after {itmax} iterations",
                         trace)


def uniqueness_probe(w, domain, n, trials=20, seed=0):
    """Multistart search for distinct maximizers of F.

    Runs maximize_log_T from `trials` sorted-uniform random initial
    configurations and clusters the converged results with absolute
    tolerance 1e-5 per node.  A unique weighted Fekete set shows up as a
    single cluster collecting every converged run.
    """
    rng = np.random.default_rng(seed)
    lo, hi = float(domain[0]), float(domain[1])
    clusters = []
    converged = failed = 0
    for _ in range(trials):
        init = np.sort(rng.uniform(lo, hi, size=n))
        try:
            nodes, trace = maximize_log_T(w, domain, n, init)
        except (NonConvergence, DomainEscape):
            failed += 1
            continue
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
    from .roots import find_zeros

    rng = np.random.default_rng(seed)
    probe = np.geomspace(0.01, 1.0, 60)
    for _ in range(trials):
        alpha = float(10.0 ** rng.uniform(-2.0, np.log10(0.3)))
        n = int(rng.integers(1, 3))
        spec = FamilySpec("laguerre1", 1, alpha, n)
        try:
            v = v_weight(spec, find_zeros(spec))
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

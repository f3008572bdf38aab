"""Weighted interpolation operators on the regular zeros.

The central object is the Gruenwald mean

    G[f](x) = sum_k f(x_k) (v(x)/v(x_k)) l_k(x)^2,

a positive operator built from squared Lagrange fundamentals and weight
ratios.  v-stability means 0 <= G[1](x) <= 1 across the domain.  All
products are assembled in log space: the fundamentals of a hundred-node
set underflow long before their logarithms lose accuracy.
"""

import numpy as np

from .energy import _node_array, fejer_constants, v_weight, weight_logs
from .errors import CoincidentNodes, PoleEvaluation, ValidationError
from .exceptional import FAMILY


def _node_logs(nodes):
    """log|barycentric weight| and its sign for each node."""
    nodes = _node_array(nodes)
    dif = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dif, 1.0)
    if np.min(np.abs(dif)) == 0.0:
        raise CoincidentNodes("nodes are not distinct")
    logbw = -np.sum(np.log(np.abs(dif)), axis=1)
    sgnbw = np.prod(np.sign(dif), axis=1)
    return nodes, logbw, sgnbw


def _log_fundamentals(nodes, logbw, x):
    """log|l_k(x)| and an exact-hit mask, shapes (n, nx) and (nx,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x[None, :] - nodes[:, None]
    # x - x_k is 0 exactly where x equals a node
    anyhit = np.isin(x, nodes)
    hit = (d == 0.0) if anyhit.any() else None
    if hit is not None:
        d[hit] = 1.0
    # log|x - x_k|, then log|l_k(x)|, in place
    logd = np.log(np.abs(d, out=d), out=d)
    total_log = np.sum(logd, axis=0)
    loglk = np.subtract(total_log[None, :], logd, out=logd)
    loglk += logbw[:, None]
    if hit is not None:
        # a column containing an exact node hit is pure Kronecker
        loglk[:, anyhit] = -np.inf
        loglk[hit] = 0.0
    return loglk, anyhit


def _sign_fundamentals(nodes, sgnbw, x):
    """sign(l_k(x)), shape (n, nx); 1 in a column with an exact node hit,
    whose fundamentals are the Kronecker 0s and 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sgnd = np.sign(x[None, :] - nodes[:, None])
    sgnlk = np.prod(sgnd, axis=0)[None, :] * sgnd * sgnbw[:, None]
    sgnlk[:, np.isin(x, nodes)] = 1.0
    return sgnlk


def lagrange_basis(nodes):
    """Evaluator for the Lagrange fundamentals of the given nodes.

    The returned callable maps a scalar to an array of length n and an
    array of length nx to shape (n, nx).  Values at the nodes themselves
    are exact Kronecker deltas.
    """
    nodes, logbw, sgnbw = _node_logs(nodes)

    def basis(x):
        scalar = np.ndim(x) == 0
        loglk, _ = _log_fundamentals(nodes, logbw, x)
        vals = _sign_fundamentals(nodes, sgnbw, x) * np.exp(loglk)
        return vals[:, 0] if scalar else vals

    return basis


def _weighted_log_terms(nodes, w):
    """Shared set-up of the Gruenwald operators over the nodes.

    Returns the validated nodes and an evaluator mapping a 1-d x to
    (2 log|l_k(x)| + log v(x) - log v(x_k), exact-hit mask), the first
    of shape (n, nx), the log of each term v(x)/v(x_k) l_k(x)^2.
    """
    nodes, logbw, _ = _node_logs(nodes)
    logv_nodes, _, _ = weight_logs(w, nodes)

    def log_terms(x1):
        loglk, anyhit = _log_fundamentals(nodes, logbw, x1)
        logv_x, _, _ = weight_logs(w, x1)
        loglk *= 2.0
        loglk += logv_x[None, :]
        loglk -= logv_nodes[:, None]
        return loglk, anyhit

    return nodes, log_terms


def grunwald(nodes, w, y=None):
    """Evaluator of the Gruenwald mean over the nodes.

    y holds the interpolated values at the nodes; omitted it defaults to
    all ones, giving the fundamental sum whose range [0, 1] is the
    v-stability statement.  Each term is assembled as
    exp(log v(x) - log v(x_k) + 2 log|l_k(x)|) so no intermediate
    fundamental is ever formed directly.
    """
    nodes, log_terms = _weighted_log_terms(nodes, w)
    fvals = None if y is None else np.asarray(y, dtype=float)

    def G(x):
        scalar = np.ndim(x) == 0
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        arg, anyhit = log_terms(x1)
        with np.errstate(over="ignore"):
            terms = np.exp(arg, out=arg)
        if fvals is None:
            # the fundamental sum: each y_k = 1, and so is G at a node
            out = np.sum(terms, axis=0)
            out[anyhit] = 1.0
        else:
            out = np.sum(fvals[:, None] * terms, axis=0)
            if np.any(anyhit):
                k = np.argmin(np.abs(x1[anyhit][None, :]
                                     - nodes[:, None]), axis=0)
                out[anyhit] = fvals[k]
        return float(out[0]) if scalar else out

    return G


def hermite_form(nodes, w):
    """Gruenwald mean written as a first-order Hermite interpolant.

    H(x) = sum_k (v(x)/v(x_k)) l_k(x)^2 (1 - (x - x_k) C_k) with the
    stationarity constants C_k of the configuration.  At the regular
    zeros the C_k vanish to rounding and H coincides with the
    fundamental sum.
    """
    nodes, log_terms = _weighted_log_terms(nodes, w)
    C = fejer_constants(nodes, w)

    def H(x):
        scalar = np.ndim(x) == 0
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        arg, anyhit = log_terms(x1)
        bracket = 1.0 - (x1[None, :] - nodes[:, None]) * C[:, None]
        with np.errstate(over="ignore"):
            out = np.sum(np.exp(arg) * bracket, axis=0)
        out[anyhit] = 1.0
        return float(out[0]) if scalar else out

    return H


def scan_grid(nodes, family, grid_size=1000):
    """Stress grid for the stability scan: log-spaced coverage of the
    domain, points hugging each node at relative offsets 1e-5 and 1e-7,
    and a linear tail reaching three times the top node (Laguerre)."""
    if grid_size < 0:
        raise ValidationError(f"grid size {grid_size} is negative")
    nodes = np.sort(np.asarray(nodes, dtype=float))
    n = nodes.size
    lo, hi = FAMILY[family].interval
    if np.isfinite(hi):
        t = np.geomspace(1e-6, 1.0, grid_size // 2)
        base = np.concatenate([lo + t, hi - t])
    else:
        top = nodes[-1] * (1.0 + 10.0 / n)
        base = np.concatenate([np.geomspace(1e-6, top, grid_size),
                               np.linspace(top, 3.0 * top, 50)])
    near = []
    for xk in nodes:
        for eps in (1e-5, 1e-7):
            off = eps * (1.0 + abs(xk))
            near.extend([xk - off, xk + off])
    grid = np.unique(np.concatenate([base, np.asarray(near)]))
    return grid[(grid > lo + 1e-9) & (grid < hi - 1e-9)]


def _nearest_node_distance(grid, nodes):
    """min_k |g - x_k| / (1 + |x_k|) for each grid point g, over the
    sorted nodes, read at the two nodes that bracket g.

    That suffices, because the ratio f(x) = |g - x| / (1 + |x|) grows
    as x moves away from g on either side.  Right of g, f is
    (x - g)/(1 + x) with derivative (1 + g)/(1 + x)^2 > 0 for x >= 0
    (g > -1), and (x - g)/(1 - x) for g <= x < 0, whose numerator grows
    and positive denominator falls.  Left of g, f is (g - x)/(1 + x)
    with derivative -(1 + g)/(1 + x)^2 < 0 for x >= 0, and
    (g - x)/(1 - x) with derivative (g - 1)/(1 - x)^2 < 0 for x < 0
    when g < 1.  The scan grids meet these conditions: the Laguerre
    grid and nodes are positive, and the Jacobi grid lies in (-1, 1).
    """
    i = np.searchsorted(nodes, grid)
    near = nodes[[np.maximum(i - 1, 0), np.minimum(i, nodes.size - 1)]]
    dist = np.abs(grid - near)
    dist /= 1.0 + np.abs(near)
    return np.min(dist, axis=0)


def stability_scan(zs, grid_size=1000):
    """Scan the fundamental Gruenwald sum of a member's regular zeros.

    Builds the v weight of the member's ZeroSet zs (v_weight), evaluates
    G(x) = v(x) sum_k l_k(x)^2 / v(x_k) over the stress grid and reports
    the extremes.  passed means 0 <= G <= 1 + 1e-10 held everywhere;
    one_minus_g_min is the margin of the 1 - G > 0 form.  total_degree
    records the polynomial degree budget n(2n - 2 + 2m) of the operator.
    """
    spec, nodes = zs.spec, zs.regular
    G = grunwald(nodes, v_weight(zs))
    grid = scan_grid(nodes, spec.family, grid_size)
    vals = G(grid)
    finite = np.isfinite(vals)
    gmax = float(np.max(vals[finite]))
    gmin = float(np.min(vals[finite]))
    # off-node margin of 1 - G: exclude the near-node refinement points,
    # where 1 - G sits at rounding level by construction
    off = finite & (_nearest_node_distance(grid, nodes) > 1e-4)
    off_margin = float(np.min(1.0 - vals[off])) if np.any(off) else np.nan
    n, m = spec.n, spec.m
    return {"passed": bool(np.all(finite) and gmin >= 0.0
                           and gmax <= 1.0 + 1e-10),
            "max": gmax, "min": gmin,
            "argmax": float(grid[np.argmax(np.where(finite, vals,
                                                    -np.inf))]),
            "argmin": float(grid[np.argmin(np.where(finite, vals,
                                                    np.inf))]),
            "one_minus_g_min": 1.0 - gmax,
            "one_minus_g_min_offnode": off_margin,
            "points": int(grid.size),
            "total_degree": int(n * (2 * n - 2 + 2 * m))}


def _log_deriv_terms(w):
    """(root, coefficient) pairs and exponential flag describing
    (log v)^(k) as sum c_r (-1)^(k-1) (k-1)! / (x - r)^k."""
    terms = [(complex(r), e) for r, e in zip(w.spec.fam.poles,
                                             w.exponents()) if e != 0]
    if w.variant in ("hat", "v"):
        terms += [(complex(r), -2.0) for r in w.spec.S.roots]
    if w.variant == "v":
        terms += [(complex(r), 2.0) for r in w._P_table.roots]
    return terms, w.spec.fam.exp_weight


def inv_weight_brackets(w, x):
    """Sign brackets of the second and fourth derivatives of 1/v.

    With g = -log v, (1/v)'' = (g'' + g'^2) e^g and
    (1/v)'''' = (g'''' + 4 g''' g' + 3 g''^2 + 6 g'' g'^2 + g'^4) e^g.
    The brackets are returned without the positive factor e^g, so their
    signs are the derivative signs.  Complex conjugate root pairs of S
    or P combine to real contributions.
    """
    x = np.asarray(x, dtype=float)
    terms, has_exp = _log_deriv_terms(w)
    logd = np.zeros((5,) + x.shape, dtype=complex)
    fact = [1.0, 1.0, 1.0, 2.0, 6.0]
    for r, c in terms:
        d = x - r
        if np.any(np.abs(d) < 1e-12):
            raise PoleEvaluation("bracket evaluation at a weight pole")
        for k in range(1, 5):
            logd[k] += c * (-1.0) ** (k - 1) * fact[k] / d ** k
    if has_exp:
        logd[1] -= 1.0
    g = -logd.real
    b2 = g[2] + g[1] ** 2
    b4 = (g[4] + 4.0 * g[3] * g[1] + 3.0 * g[2] ** 2
          + 6.0 * g[2] * g[1] ** 2 + g[1] ** 4)
    if x.ndim == 0:
        return float(b2), float(b4)
    return b2, b4

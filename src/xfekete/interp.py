"""Weighted interpolation operators on the regular zeros.

The central object is the Gruenwald mean

    G[f](x) = sum_k f(x_k) (v(x)/v(x_k)) l_k(x)^2,

a positive operator built from squared Lagrange fundamentals and weight
ratios.  v-stability means 0 <= G[1](x) <= 1 across the domain.  All
products are assembled in log space: the fundamentals of a hundred-node
set underflow long before their logarithms lose accuracy.

The stability scan evaluates the fundamental sum G[1] in column
blocks of at most _BLOCK_BYTES of (n, B) log terms: each block
finds its exact node hits (np.searchsorted on the nodes, sorted once),
its points' weight logs, its log-fundamentals and their exponentials,
in place, and is summed before the next is formed.  The working set is
one block, whatever the number of points, and every value has the
bits of one table over all the points, because numpy sums each column
of an (n, B) array row by row for every B >= 2 (a one-column array is
summed pairwise, so a one-column tail joins the block before it).
"""

import numpy as np

from .energy import _checked, _weight_logs, v_weight, weight_logs
from .errors import NumericalError, PoleEvaluation, ValidationError
from .exceptional import FAMILY

# bytes of the one (n, B) block of log terms alive in an evaluation;
# 640 KiB keeps the scan of n = 120 nodes on the default grid (1529
# points, three blocks) under 1 MB of traced memory
_BLOCK_BYTES = 5 << 17


def _node_logs(nodes):
    """The nodes as a float array, checked as energy._checked checks
    them, and log|barycentric weight| of each."""
    nodes = _checked(nodes)[0]
    dif = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dif, 1.0)
    return nodes, -np.sum(np.log(np.abs(dif)), axis=1)


def _column_blocks(n, nx):
    """Slices of nx points in blocks of B = max(2, _BLOCK_BYTES // 8n)
    columns; a one-column tail joins the block before it, so that every
    block of two or more points is summed row by row."""
    step = max(2, _BLOCK_BYTES // (8 * n))
    starts = list(range(0, nx, step))
    if len(starts) > 1 and nx - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [nx])]


def _hits(srt, order, x):
    """(rows, cols): the points x[cols] equal to a node exactly, and the
    row of that node, from the sorted nodes srt = nodes[order]."""
    i = np.searchsorted(srt, x)
    np.minimum(i, srt.size - 1, out=i)
    cols = np.flatnonzero(srt[i] == x)
    return order[i[cols]], cols


def _log_fundamentals(nodes, logbw, x, rows, cols):
    """log|l_k(x)| of the 1-d points x, shape (n, nx), formed in place;
    a column cols of an exact node hit (_hits) is pure Kronecker."""
    d = x[None, :] - nodes[:, None]
    # x - x_k is 0 exactly where x equals a node
    d[rows, cols] = 1.0
    # log|x - x_k|, then log|l_k(x)|, in place
    logd = np.log(np.abs(d, out=d), out=d)
    total_log = np.sum(logd, axis=0)
    loglk = np.subtract(total_log[None, :], logd, out=logd)
    loglk += logbw[:, None]
    if cols.size:
        loglk[:, cols] = -np.inf
        loglk[rows, cols] = 0.0
    return loglk


def _weighted_terms(nodes, w):
    """Set-up of the Gruenwald mean over the nodes.

    Returns the validated nodes and terms(x, sl), which gives for the
    points x[sl] of a 1-d x the terms v(x)/v(x_k) l_k(x)^2, shape
    (n, B), each exp(2 log|l_k(x)| + log v(x) - log v(x_k)) formed in
    place, and their exact node hits (rows, cols) (_hits).  A weight
    pole among x[sl] raises the PoleEvaluation of one evaluation of the
    weight over all of x.
    """
    nodes, logbw = _node_logs(nodes)
    order = np.argsort(nodes)
    srt = nodes[order]
    logv_nodes, _, _ = weight_logs(w, nodes)

    def terms(x, sl):
        xb = x[sl]
        (logv_x, _, _), guards = _weight_logs(w, xb)
        if guards:
            weight_logs(w, x)
        hits = _hits(srt, order, xb)
        arg = _log_fundamentals(nodes, logbw, xb, *hits)
        arg *= 2.0
        arg += logv_x[None, :]
        arg -= logv_nodes[:, None]
        with np.errstate(over="ignore"):
            np.exp(arg, out=arg)
        return arg, hits

    return nodes, terms


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
    # x_k -+ eps (1 + |x_k|) for eps in (1e-5, 1e-7), one row per eps
    off = np.array([[1e-5], [1e-7]]) * (1.0 + np.abs(nodes))
    # np.unique's sort and repeat mask, in place on the one concatenation
    # (np.unique copies it), the base freed first: a scan's working set
    # stays near one block
    grid = np.concatenate([base, (nodes - off).ravel(),
                           (nodes + off).ravel()])
    del base
    grid.sort()
    keep = np.empty(grid.size, dtype=bool)
    keep[:1] = True
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    keep &= grid > lo + 1e-9
    keep &= grid < hi - 1e-9
    return grid[keep]


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
    The grid is scanned block by block (_column_blocks), each folded
    into the running first extremes and least off-node margin.  A grid
    with no finite G raises NumericalError.
    """
    spec = zs.spec
    nodes, terms = _weighted_terms(zs.regular, v_weight(zs))
    grid = scan_grid(nodes, spec.family, grid_size)
    finite_all = True
    gmax, gmin, margin = -np.inf, np.inf, np.inf
    top_at = low_at = None
    for sl in _column_blocks(nodes.size, grid.size):
        t, (_, cols) = terms(grid, sl)
        # each y_k = 1, and so is G at a node; the block is freed before
        # the next is formed
        vals = np.sum(t, axis=0)
        del t
        vals[cols] = 1.0
        finite = np.isfinite(vals)
        finite_all = finite_all and bool(finite.all())
        hi = np.where(finite, vals, -np.inf)
        lo = np.where(finite, vals, np.inf)
        k, j = np.argmax(hi), np.argmin(lo)
        # strict: the first one wins; a block with no finite G moves neither
        if hi[k] > gmax:
            gmax, top_at = float(hi[k]), sl.start + k
        if lo[j] < gmin:
            gmin, low_at = float(lo[j]), sl.start + j
        # off-node margin of 1 - G: exclude the near-node refinement
        # points, where 1 - G sits at rounding level by construction
        off = finite & (_nearest_node_distance(grid[sl], nodes) > 1e-4)
        margin = min(margin, np.min(1.0 - vals[off], initial=np.inf))
    if top_at is None:
        raise NumericalError("no finite G on the scan grid")
    n, m = spec.n, spec.m
    return {"passed": finite_all and gmin >= 0.0 and gmax <= 1.0 + 1e-10,
            "max": gmax, "min": gmin,
            "argmax": float(grid[top_at]),
            "argmin": float(grid[low_at]),
            "one_minus_g_min": 1.0 - gmax,
            "one_minus_g_min_offnode": (float(margin) if np.isfinite(margin)
                                        else np.nan),
            "points": int(grid.size),
            "total_degree": int(n * (2 * n - 2 + 2 * m))}


def _log_deriv_terms(w):
    """(root, coefficient) pairs and exponential flag describing
    (log v)^(k) as sum c_r (-1)^(k-1) (k-1)! / (x - r)^k."""
    terms = [(complex(r), e) for r, e in zip(w.spec.fam.poles,
                                             w.exponents()) if e != 0]
    terms += [(complex(r), -2.0) for r in w.spec.S.roots]
    if w.P is not None:
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

"""Weighted logarithmic energy of node systems.

For a weight w and nodes x_1 < ... < x_N the energy functional is

    F(x) = sum_i log w(x_i) + 2 sum_{i<j} log|x_i - x_j|,

the log of the weighted product T = prod w(x_i) prod (x_i - x_j)^2.
A weight is one of two per family:

    hat   x^a e^-x / S^2            (1-x)^a (1+x)^b / S^2
    v     hat * P^2                 hat * P^2

with a = alpha + 1 (b = beta + 1), S the denominator polynomial of the
family and P a supplied node polynomial, normally the monic polynomial
over the exceptional zeros.  At m = 0 (S = 1) hat is the classical
weight of the shifted exponents.  On the negative axis the Laguerre
factor is read as |x|^a so that the full (regular plus exceptional)
zero configuration can be evaluated.

F has one public view, energy_hessian: the report at the sorted nodes
(gradient, Hessian, classification and, on read, F from the pair logs).
The Fekete ascent reads the same terms off a stack of node rows
(_assemble).  At the regular zeros the diameter sweep needs no pair
log: it reads F from y' there (asymptotics.d_sequence).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classical_poly import PolyTable, _horner, _stack_tables
from .errors import CoincidentNodes, PoleEvaluation, ValidationError
from .exceptional import FamilySpec

# stationarity is judged relative to the scale of the weight's log-derivative
GRAD_RTOL = 1e-7

_POLE_RTOL = 1e-12
_POLY_POLE = "evaluation point too close to a zero of a weight polynomial"


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """A concrete weight: the hat weight of spec, times P^2 when P is
    given (the v weight).

    P holds ascending coefficients of the node polynomial, stored
    read-only in its PolyTable, built here once per weight (S is tabled
    once per spec, in FamilySpec.S).  The weight stacks the entries of
    its tables here, _stack_tables(S) or _stack_tables(S, P), for
    weight_logs to evaluate them in one Horner pass.
    """

    spec: FamilySpec
    P: np.ndarray | None = None
    _P_table = None     # PolyTable of P (v); not a dataclass field
    _stack = None       # _stack_tables of S (and P); not a dataclass field

    def __post_init__(self):
        tables = ()
        if self.P is not None:
            object.__setattr__(self, "_P_table", PolyTable(self.P))
            object.__setattr__(self, "P", self._P_table.c)
            tables = (self._P_table,)
        object.__setattr__(self, "_stack", _stack_tables(self.spec.S, *tables))

    def exponents(self):
        """(alpha + 1, beta + 1); b is None for the Laguerre families."""
        b = self.spec.beta
        return self.spec.alpha + 1.0, (None if b is None else b + 1.0)


def _check_poles(p, scale):
    """Mask of the values p (x - r or a polynomial's) with |p| <= 1e-12
    scale; p is set to 1 there, in place, so that nothing warns."""
    near = np.abs(p) <= _POLE_RTOL * scale
    p[near] = 1.0
    return near


def _stacked_logs(stack, x):
    """log|p|, (log p)' and (log p)'' of every table p of a _stack_tables
    stack (L, 4, k) at x, from one Horner pass over all its entries: an
    array (3, k, ...), column i table i's, and the mask (k, ...) of each
    table's pole guard (_check_poles), the one evaluator of the weight
    polynomials."""
    z = np.empty((4, 1) + x.shape)
    z[:3] = x
    z[3] = np.abs(x)
    y = _horner(stack.reshape(stack.shape + (1,) * x.ndim), z)
    p = y[0]
    near = _check_poles(p, y[3])
    out = np.empty((3,) + p.shape)
    np.log(np.abs(p), out=out[0])
    r = np.divide(y[1], p, out=out[1])
    np.subtract(y[2] / p, r * r, out=out[2])
    return out, near


def _weight_logs(w, x):
    """(log w, (log w)', (log w)'') at x, and the (message, mask) pair of
    each pole guard that fired, in weight_logs' check order, each mask
    following x.  Values at a guarded point are finite and mean nothing;
    every other point keeps its bits.  S comes from the spec's table and
    P from the weight's, through one evaluator (_stacked_logs) of the
    weight's stack."""
    x = np.asarray(x, dtype=float)
    fam = w.spec.fam
    guards = []
    # the sums start from the scalar 0.0: adding the first term gives
    # the bits that an array of zeros gave, with no such array
    logw = d1 = d2 = 0.0
    for r, e in zip(fam.poles, w.exponents()):
        if e == 0:
            continue
        d = np.asarray(x - r)
        near = _check_poles(d, 1.0)
        if near.any():
            guards.append((f"evaluation point too close to x = {r:g}", near))
        # the half-line factor x^a is read as |x|^a
        logw = logw + e * np.log(np.abs(d))
        d1 = d1 + e / d
        d2 = d2 - e / d ** 2
    if fam.exp_weight:
        logw = logw - x
        d1 = d1 - 1.0
    # t[k] holds twice the k-th log term of S, then of P (v)
    t, near = _stacked_logs(w._stack, x)
    if near.any():
        guards.append((_POLY_POLE, near.any(axis=0)))
    t *= 2.0
    logw = logw - t[0, 0]
    d1 = d1 - t[1, 0]
    d2 = d2 - t[2, 0]
    if w.P is not None:
        logw = logw + t[0, 1]
        d1 = d1 + t[1, 1]
        d2 = d2 + t[2, 1]
    if x.ndim == 0:
        return (float(logw), float(d1), float(d2)), guards
    return (logw, d1, d2), guards


def weight_logs(w, x):
    """log w and its first two derivatives at x (arrays follow x).

    Raises PoleEvaluation within 1e-12 (relative) of a pole of the
    classical factor (x=0, x=+-1) or a zero of S or P (v); the message
    is that of the first guard that fires (_weight_logs).
    """
    logs, guards = _weight_logs(w, x)
    if guards:
        raise PoleEvaluation(guards[0][0])
    return logs


def _coincident(X, dif):
    """Per row of a stack X (..., n) of node rows and their consecutive
    differences dif: True where a difference falls below 1e-14
    max(1, max |x|) of the row."""
    scale = np.fmax(1.0, np.abs(X).max(axis=-1, initial=0.0))
    return dif.min(axis=-1, initial=np.inf) < 1e-14 * scale


def _checked(nodes):
    """(nodes, their ascending copy): nodes as a float array, sorted once;
    ValidationError unless it is 1-d, nonempty and finite, and
    CoincidentNodes when two of them lie within 1e-14 (relative) of each
    other."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValidationError("nodes must be a nonempty 1-d array")
    if not np.all(np.isfinite(nodes)):
        raise ValidationError("nodes must be finite")
    srt = np.sort(nodes)
    if _coincident(srt, np.diff(srt)):
        raise CoincidentNodes("node separation below 1e-14 relative")
    return nodes, srt


@functools.lru_cache(maxsize=2)
def _pair_index(n):
    """Read-only flat index i n + j of each pair i < j among n nodes into
    a row of n x n entries, in C order (np.triu_indices).

    _cross_logs reads it for its two callers: the Fekete ascent
    (_assemble), whose one n serves a whole ascent from one entry, and
    EnergyReport.logT.  The cache stays small so that a process working
    at many sizes keeps the index of two sizes alive, not of every one:
    at n = 150 one entry is about 90 kB.
    """
    i, j = np.triu_indices(n, k=1)
    k = i * n + j
    k.flags.writeable = False
    return k


def _cross_logs(D):
    """cross[r] = log|x_i - x_j| (i < j) of each row r of a stack D
    (T, n, n) of node differences x_i - x_j, in C order, so each row
    sums alone, as in a stack of one.  The plain row sums of _assemble
    need the C order; EnergyReport.logT reads the same gather off a
    stack of its one node row and sums it exactly.  np.take returns
    contiguous rows; the index D[:, k] would return them strided, and
    numpy sums a strided row sequentially, not pairwise, so F's bits
    would move."""
    T, n = D.shape[:2]
    cross = np.take(D.reshape(T, n * n), _pair_index(n), axis=1)
    np.log(np.abs(cross, out=cross), out=cross)
    return cross


def _derivatives(D, d1, d2):
    """(gradients, Hessians) of a stack from its node differences D
    (T, n, n), x_i - x_j, and the weight's log-derivatives d1, d2 at its
    nodes (T, n).  The Hessians are built in place in D: 1/dif, its
    square and twice that; the diagonal is written through a strided
    view."""
    T, n = D.shape[:2]
    Dd = D.reshape(T, n * n)[:, ::n + 1]
    Dd[...] = np.inf
    np.divide(1.0, D, out=D)
    g = d1 + 2.0 * D.sum(axis=2)
    np.square(D, out=D)
    diag = d2 - 2.0 * D.sum(axis=2)
    D *= 2.0
    Dd[...] = diag
    return g, D


def _assemble(X, logw, d1, d2):
    """(F, gradients, Hessians, cross) of a stack X (T, n) of node rows
    from the weight logs at its nodes.  F holds the plain row sums of
    the terms, log w at the nodes and the cross logs (_cross_logs), read
    off the node differences before _derivatives turns them into the
    Hessians; _compensated reads one row's F from the same terms by
    compensated sums."""
    D = X[:, :, None] - X[:, None, :]
    cross = _cross_logs(D)
    F = logw.sum(axis=1) + 2.0 * cross.sum(axis=1)
    return (F,) + _derivatives(D, d1, d2) + (cross,)


def _compensated(logw, cross):
    """F of one node row from its terms, a row of log w and of the cross
    logs (_cross_logs, from _assemble or EnergyReport.logT), by
    compensated sums; fsum rounds once, so the order of the terms is
    free."""
    # fsum reads a row through a memoryview, as Python floats: faster
    # than as numpy scalars, the same sum, and no list of the row
    return math.fsum(memoryview(logw)) + 2.0 * math.fsum(memoryview(cross))


@dataclass(frozen=True)
class EnergyReport:
    """Stationarity and curvature summary of F at a node configuration.

    Every array follows the nodes in ascending order.  The constructor
    takes the stored terms: log w at the nodes (logw), the gradient, the
    Hessian, its diagonal signs and the stationarity flag.  logT, the
    two dominance flags and the classification are computed on first
    read and kept (functools.cached_property): logT sums logw and the
    cross logs of the sorted nodes (_cross_logs, the ascent's gather) by
    compensated sums, so it rounds F once.
    """

    nodes: np.ndarray
    logw: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    diag_signs: np.ndarray
    stationary: bool

    @functools.cached_property
    def logT(self):
        x = self.nodes
        (cross,) = _cross_logs((x[:, None] - x[None, :])[None])
        return _compensated(self.logw, cross)

    @functools.cached_property
    def diagonally_dominant(self):
        """Strict diagonal dominance of every row of the Hessian."""
        return _row_dominant(self.hessian)

    @functools.cached_property
    def block_dominant(self):
        return _block_dominant(self.hessian)

    @functools.cached_property
    def classification(self):
        """'none' when the gradient is not at rounding level, 'saddle'
        for mixed diagonal signs, 'local-max' when every diagonal entry
        is negative and the Hessian is diagonally dominant (the one case
        that tests dominance), 'indefinite' otherwise."""
        if not self.stationary:
            return "none"
        d = np.diag(self.hessian)
        if np.any(d > 0) and np.any(d < 0):
            return "saddle"
        if np.all(d < 0) and self.diagonally_dominant:
            return "local-max"
        return "indefinite"


def _row_dominant(M):
    """Strict diagonal dominance of every row of a square matrix M:
    |M_ii| above the sum of the other |M_ij| of row i."""
    A = np.abs(M)
    d = np.diag(A)
    return bool(np.all(d > np.sum(A, axis=1) - d))


def _block_dominant(H):
    """Strict diagonal dominance inside each same-diagonal-sign block."""
    d = np.diag(H)
    for sign in (-1.0, 1.0):
        idx = np.nonzero(np.sign(d) == sign)[0]
        if idx.size < 2:
            continue
        if not _row_dominant(H[np.ix_(idx, idx)]):
            return False
    return True


def energy_hessian(nodes, w):
    """Full second-order report of F at the nodes, sorted ascending.

    Classification follows the diagonal sign pattern rather than the
    spectrum (EnergyReport.classification); the spectrum stays available
    to callers through the hessian field.  The nodes are sorted and the
    weight evaluated once; the gradient, the Hessian, the diagonal signs
    and the stationarity flag are formed here, the rest of the report on
    first read.
    """
    x = _checked(nodes)[1]
    X = x[None]
    logw, d1, d2 = weight_logs(w, X)
    (g,), (H,) = _derivatives(X[:, :, None] - X[:, None, :], d1, d2)
    stat = float(np.max(np.abs(g))) < GRAD_RTOL * (1 + np.max(np.abs(d1)))
    return EnergyReport(nodes=x, logw=logw[0], gradient=g, hessian=H,
                        diag_signs=np.sign(np.diag(H)).astype(int),
                        stationary=stat)


def _node_polynomial(zs):
    """P, monic over the exceptional zeros of zs, as a real array;
    ValidationError where those zeros are not closed under conjugation
    (the imaginary parts of P above 1e-9 of its real ones).

    P is npoly.polyfromroots(zs.exceptional), bit for bit, without its
    per-call series checks: the sorted roots' factors x - r multiplied
    in its pairwise np.convolve tree.  Every factor and product is
    monic, so polymul's trimming never fires."""
    r = np.sort(zs.exceptional)
    p = np.empty((r.size, 2), r.dtype)
    p[:, 0], p[:, 1] = -r, 1.0
    p = list(p)
    while len(p) > 1:
        half, odd = divmod(len(p), 2)
        q = [np.convolve(p[i], p[i + half]) for i in range(half)]
        if odd:
            q[0] = np.convolve(q[0], p[-1])
        p = q
    P = p[0] if p else np.ones(1)
    if np.max(np.abs(P.imag)) > 1e-9 * np.max(np.abs(P.real)):
        raise ValidationError("exceptional zeros are not closed under "
                              "conjugation; P would be complex")
    return P.real


def v_weight(zs):
    """The v WeightSpec of zs.spec, P monic over the exceptional zeros of
    zs (_node_polynomial)."""
    return WeightSpec(zs.spec, P=_node_polynomial(zs))

"""Weighted logarithmic energy of node systems.

For a weight w and nodes x_1 < ... < x_N the energy functional is

    F(x) = sum_i log w(x_i) + 2 sum_{i<j} log|x_i - x_j|,

the log of the weighted product T = prod w(x_i) prod (x_i - x_j)^2.
Three weight variants are supported per family:

    base  x^a e^-x                  (1-x)^a (1+x)^b
    hat   x^a e^-x / S^2            (1-x)^a (1+x)^b / S^2
    v     hat * P^2                 hat * P^2

with a = alpha + shift (b = beta + shift), S the denominator polynomial
of the family and P a supplied node polynomial, normally the monic
polynomial over the exceptional zeros.  The default shift is 0 for base
and 1 for hat and v.  On the negative axis the Laguerre factor is read
as |x|^a so that the full (regular plus exceptional) zero configuration
can be evaluated.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import PolyTable, _horner
from .errors import CoincidentNodes, PoleEvaluation, SingularEvaluation, ValidationError
from .exceptional import FamilySpec, ode_coeffs

VARIANTS = ("base", "hat", "v")

# stationarity is judged relative to the scale of the weight's log-derivative
GRAD_RTOL = 1e-7

_POLE_RTOL = 1e-12


@dataclass(frozen=True)
class WeightSpec:
    """A concrete weight: family data, variant and normalization.

    shift=None resolves to the variant default (0 for base, 1 for hat
    and v).  P holds ascending coefficients of the extra node polynomial
    for the v variant, stored read-only in its PolyTable, built here once
    per weight (S is tabled once per spec, in FamilySpec.S).  log_scale
    adds a constant to log w; the energy shifts by N * log_scale and
    nothing else changes.
    """

    spec: FamilySpec
    variant: str = "hat"
    shift: float | None = None
    P: np.ndarray | None = None
    log_scale: float = 0.0
    _P_table = None     # PolyTable of P (v); not a dataclass field

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown weight variant {self.variant!r}")
        if self.variant == "v":
            if self.P is None:
                raise ValidationError("variant 'v' needs the node polynomial P")
            object.__setattr__(self, "_P_table", PolyTable(self.P))
            object.__setattr__(self, "P", self._P_table.c)
        elif self.P is not None:
            raise ValidationError("P is only meaningful for variant 'v'")

    @property
    def resolved_shift(self):
        if self.shift is not None:
            return float(self.shift)
        return 0.0 if self.variant == "base" else 1.0

    def exponents(self):
        """(a, b); b is None for the Laguerre families."""
        s, b = self.resolved_shift, self.spec.beta
        return self.spec.alpha + s, (None if b is None else b + s)


def _poly_logs(table, x):
    """log|p|, (log p)' and (log p)'' of a PolyTable at x, with a relative
    pole guard on |p(x)|."""
    p = _horner(table.c, x)
    scale = _horner(table.abs_c, np.abs(x))
    if np.any(np.abs(p) <= _POLE_RTOL * scale):
        raise PoleEvaluation("evaluation point too close to a zero of a "
                             "weight polynomial")
    d1 = _horner(table.d1, x)
    d2 = _horner(table.d2, x)
    r = d1 / p
    return np.log(np.abs(p)), r, d2 / p - r * r


def weight_logs(w, x):
    """log w and its first two derivatives at x (arrays follow x).

    S comes from the spec's table and P from the weight's.  Raises
    PoleEvaluation within 1e-12 (relative) of a base-weight pole (x=0,
    x=+-1) or a zero of S or P, whichever the variant involves.
    """
    x = np.asarray(x, dtype=float)
    fam = w.spec.fam
    zero = np.zeros_like(x)
    logw = np.full_like(x, w.log_scale)
    d1 = zero.copy()
    d2 = zero.copy()
    for r, e in zip(fam.poles, w.exponents()):
        if e == 0:
            continue
        d = x - r
        if np.any(np.abs(d) <= _POLE_RTOL):
            raise PoleEvaluation(f"evaluation point too close to x = {r:g}")
        # hat and v read the half-line factor x^a as |x|^a; base does not
        if (fam.exp_weight and w.variant == "base" and e != round(e)
                and np.any(x < r)):
            raise PoleEvaluation("base Laguerre weight undefined for "
                                 "x < 0 at non-integer exponent")
        logw = logw + e * np.log(np.abs(d))
        d1 = d1 + e / d
        d2 = d2 - e / d ** 2
    if fam.exp_weight:
        logw = logw - x
        d1 = d1 - 1.0
    if w.variant in ("hat", "v"):
        ls, ls1, ls2 = _poly_logs(w.spec.S, x)
        logw = logw - 2.0 * ls
        d1 = d1 - 2.0 * ls1
        d2 = d2 - 2.0 * ls2
    if w.variant == "v":
        lp, lp1, lp2 = _poly_logs(w._P_table, x)
        logw = logw + 2.0 * lp
        d1 = d1 + 2.0 * lp1
        d2 = d2 + 2.0 * lp2
    if x.ndim == 0:
        return float(logw), float(d1), float(d2)
    return logw, d1, d2


def _check_nodes(nodes):
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValidationError("nodes must be a nonempty 1-d array")
    scale = max(1.0, float(np.max(np.abs(nodes))))
    srt = np.sort(nodes)
    if nodes.size > 1 and np.min(np.diff(srt)) < 1e-14 * scale:
        raise CoincidentNodes("node separation below 1e-14 relative")
    return nodes


@functools.lru_cache(maxsize=2)
def _upper_pairs(n):
    """Read-only index arrays (i, j) of the pairs i < j among n nodes.

    An ascent reuses one n on every point.  The cache stays small
    because a sweep over n would otherwise keep every size alive: at
    n = 150 one entry is about 180 kB.
    """
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _assemble(X, logw, d1, d2):
    """(F, gradients, Hessians) of a stack X (T, n) of node rows from the
    weight logs at its nodes: F a list of T floats, one compensated sum
    per row.  Each row's Hessian is built in place from the node
    differences: dif, then 1/dif, its square and twice that."""
    n = X.shape[1]
    H = X[:, :, None] - X[:, None, :]
    i, j = _upper_pairs(n)
    cross = np.log(np.abs(H[:, i, j]))
    F = [math.fsum(a) + 2.0 * math.fsum(b) for a, b in zip(logw, cross)]
    k = np.arange(n)
    H[:, k, k] = np.inf
    np.divide(1.0, H, out=H)
    g = d1 + 2.0 * np.sum(H, axis=2)
    np.square(H, out=H)
    diag = d2 - 2.0 * np.sum(H, axis=2)
    H *= 2.0
    H[:, k, k] = diag
    return F, g, H


def energy_terms(nodes, w):
    """F, its gradient and its Hessian at the nodes, from one evaluation
    of the weight.

    F = sum log w + 2 sum_{i<j} log|x_i - x_j| (compensated sums),
    g_k = (log w)'(x_k) + 2 sum_{j!=k} 1/(x_k - x_j) and
    H_kj = 2/(x_k - x_j)^2 off the diagonal,
    H_kk = (log w)''(x_k) - 2 sum_{j!=k} 1/(x_k - x_j)^2.
    """
    X = _check_nodes(nodes)[None]
    (F,), (g,), (H,) = _assemble(X, *weight_logs(w, X))
    return F, g, H


def log_energy(nodes, w):
    """F(nodes) = sum log w + 2 sum_{i<j} log|x_i - x_j| (compensated)."""
    return energy_terms(nodes, w)[0]


def fejer_constants(nodes, w):
    """Gradient of F: C_k = (log w)'(x_k) + 2 sum_{j!=k} 1/(x_k - x_j).

    These vanish exactly at a stationary configuration; the members'
    zero sets drive them to rounding level.
    """
    return energy_terms(nodes, w)[1]


def gradient_and_hessian(nodes, w):
    """Gradient and Hessian of F at the given nodes."""
    return energy_terms(nodes, w)[1:]


@dataclass(frozen=True)
class EnergyReport:
    """Stationarity and curvature summary of F at a node configuration."""

    weight: WeightSpec
    nodes: np.ndarray
    logT: float
    gradient: np.ndarray
    hessian: np.ndarray
    diag_signs: np.ndarray
    stationary: bool
    diagonally_dominant: bool
    block_dominant: bool
    classification: str


def _block_dominant(H):
    """Strict diagonal dominance inside each same-diagonal-sign block."""
    d = np.diag(H)
    for sign in (-1.0, 1.0):
        idx = np.nonzero(np.sign(d) == sign)[0]
        if idx.size < 2:
            continue
        sub = np.abs(H[np.ix_(idx, idx)])
        off = np.sum(sub, axis=1) - np.diag(sub)
        if not np.all(np.diag(sub) > off):
            return False
    return True


def energy_hessian(nodes, w):
    """Full second-order report of F at the nodes.

    Classification follows the diagonal sign pattern rather than the
    spectrum: 'none' when the gradient is not at rounding level,
    'saddle' for mixed diagonal signs, 'local-max' when every diagonal
    entry is negative and the matrix is diagonally dominant, and
    'indefinite' for the remaining cases.  The spectrum stays available
    to callers through the hessian field.
    """
    X = _check_nodes(nodes)[None]
    logs = weight_logs(w, X)
    (F,), (g,), (H,) = _assemble(X, *logs)
    d1 = logs[1][0]
    stat = float(np.max(np.abs(g))) < GRAD_RTOL * (1 + np.max(np.abs(d1)))
    d = np.diag(H)
    row_off = np.sum(np.abs(H), axis=1) - np.abs(d)
    dominant = bool(np.all(np.abs(d) > row_off))
    if not stat:
        cls = "none"
    elif np.any(d > 0) and np.any(d < 0):
        cls = "saddle"
    elif np.all(d < 0) and dominant:
        cls = "local-max"
    else:
        cls = "indefinite"
    return EnergyReport(weight=w, nodes=np.sort(X[0]),
                        logT=F, gradient=g, hessian=H,
                        diag_signs=np.sign(d).astype(int), stationary=stat,
                        diagonally_dominant=dominant,
                        block_dominant=_block_dominant(H),
                        classification=cls)


def phi(spec, x):
    """Potential of the normal form u'' + phi u = 0 of the family ODE.

    With y'' + M y' + N y = 0 (M = B/A, N = C/A from the cleared
    operator), phi = N - M^2/4 - M'/2.  Evaluation at a zero of A is a
    pole of the weight and raises PoleEvaluation.
    """
    ode = ode_coeffs(spec)
    try:
        M = ode.M(x)
        N = ode.N(x)
        Mp = ode.M_prime(x)
    except SingularEvaluation as exc:
        raise PoleEvaluation(str(exc)) from exc
    return N - 0.25 * M * M - 0.5 * Mp


def phi_closed(spec, x):
    """Closed form of phi in terms of S'/S (laguerre1 and jacobi).

    laguerre1:
        -phi = 2 (S'/S + 1/2 + (2a-1)/(4x))^2 - 1/4
               - (2a^2 - 4a + 3) / (8 x^2) - (4m + 2n + 3a) / (2x)
    jacobi, with q = 2 (S'/S)(1-x^2) + (a+b) + (a-b+1) x and
    g = g2 x^2 + g1 x + g0:
        phi = -(2 q^2 + g) / (4 (1-x^2)^2)
    where, writing t = 2m(a-b-m+1) + n(n+a+b+1),
        g2 = -a^2 - b^2 + 6ab - 2a + 6b - 2 + 4t
        g1 = 2(b^2 - a^2) - 4(a + b)
        g0 = -a^2 - b^2 - 6ab - 2a - 2b - 4 - 4t
    """
    x = np.asarray(x, dtype=float)
    al, m, n = spec.alpha, spec.m, spec.n
    _, r, _ = _poly_logs(spec.S, x)
    if spec.family == "laguerre1":
        if np.any(np.abs(x) <= _POLE_RTOL):
            raise PoleEvaluation("evaluation point too close to x = 0")
        neg = (2.0 * (r + 0.5 + (2 * al - 1) / (4 * x)) ** 2 - 0.25
               - (2 * al ** 2 - 4 * al + 3) / (8 * x ** 2)
               - (4 * m + 2 * n + 3 * al) / (2 * x))
        out = -neg
    elif spec.family == "jacobi":
        if np.any(np.abs(1.0 - x ** 2) <= _POLE_RTOL):
            raise PoleEvaluation("evaluation point too close to x = +-1")
        be = spec.beta
        t = 2 * m * (al - be - m + 1) + n * (n + al + be + 1)
        q = 2.0 * r * (1.0 - x ** 2) + (al + be) + (al - be + 1) * x
        g2 = (-al ** 2 - be ** 2 + 6 * al * be - 2 * al + 6 * be - 2
              + 4 * t)
        g1 = 2 * (be ** 2 - al ** 2) - 4 * (al + be)
        g0 = (-al ** 2 - be ** 2 - 6 * al * be - 2 * al - 2 * be - 4
              - 4 * t)
        g = (g2 * x + g1) * x + g0
        out = -(2.0 * q ** 2 + g) / (4.0 * (1.0 - x ** 2) ** 2)
    else:
        raise ValidationError("closed form implemented for laguerre1 and "
                              "jacobi")
    return float(out) if out.ndim == 0 else out


def v_weight(zs, shift=None):
    """WeightSpec (v) of zs.spec, P monic over the exceptional zeros of zs."""
    P = npoly.polyfromroots(zs.exceptional)
    if np.max(np.abs(P.imag)) > 1e-9 * np.max(np.abs(P.real)):
        raise ValidationError("exceptional zeros are not closed under "
                              "conjugation; P would be complex")
    return WeightSpec(spec=zs.spec, variant="v", shift=shift, P=P.real)

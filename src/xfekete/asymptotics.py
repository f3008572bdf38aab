"""Transfinite-diameter sequence and the exact zero-sum identity.

For n nodes and the modified pair kernel

    k_n(x, y) = -log((c/n) |x-y| v(x)^{1/(2(n-1))} v(y)^{1/(2(n-1))})

the diameter functional is d = (2/(n(n-1))) sum_{i<j} k_n(u_i, u_j),
which collapses to -log(c/n) - log T / (n(n-1)), with log T the energy
F of the v weight.  Evaluated at the regular zeros (the Fekete set of
the v weight) this gives the sequence d_n whose consecutive differences
decay like log^2(n)/n^2.  There log T needs no pair log: with lead c_y
of the member y and P monic over its exceptional zeros, y'(x_i) = c_y
prod_{j != i} (x_i - z_j) over all its zeros z, so (Stieltjes; Szego,
Orthogonal Polynomials, 6.71)

    2 sum_{i<j} log|x_i - x_j|
        = sum_i log|y'(x_i)| - n log|c_y| - sum_i log|P(x_i)|,
    log T = sum_i log hat(x_i) + sum_i log|P(x_i)|
            + sum_i log|y'(x_i)| - n log|c_y|,

with y' at the x_i from the certificate round (ZeroSet.regular_dy) and
log|c_y| from lgamma (Family.log_lead).  A sweep solves its members as
one ladder, whose seeds, Newton rounds and certificate each run once on
one array of all its members (find_zeros_ladder), forms each member's P
by the lean product tree of energy._node_polynomial, then evaluates the
weight, P and (P/S)^2 of all of them in one pass each.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .classical_poly import Ladder, _horner
from .energy import (_POLY_POLE, WeightSpec, _check_poles, _node_polynomial,
                     _weight_logs)
from .errors import ValidationError, XFeketeError
from .exceptional import FamilySpec
from .roots import find_zeros_ladder


def _check_c(c):
    if not 0 < c < math.inf:
        raise ValidationError(f"c must be finite and positive, got {c!r}")


@dataclass(frozen=True)
class DiameterSeries:
    """d_n over a range of n, with consecutive differences.

    deltas[i] = d(n_i) - d(n_i - 1), NaN when the predecessor was not
    computed.  rate_stats[i] = |deltas[i]| n_i^2 / log^2(n_i), NaN with
    the delta, the CSV's column; rate_stat is their sup (nanmax).
    skipped lists (n, reason) for members that failed to build or
    certify.  ps_ratio_max records max over a domain grid of
    (P(x)/S(x))^2 per n, the constant the kernel modification relies on.
    """

    n_values: np.ndarray
    d: np.ndarray
    deltas: np.ndarray
    rate_stats: np.ndarray
    rate_stat: float
    skipped: tuple
    ps_ratio_max: np.ndarray


def _diameters(spec, members, P, c):
    """{n: (d_n, max (P/S)^2)} of certified ZeroSets members of spec's
    ladder, P their node polynomials stacked by row, and {n: reason} of
    the members whose nodes trip a pole guard of the v weight (the first
    that fires, in weight_logs' check order).  log T comes from the
    identity of the module docstring, each member's terms in one
    compensated sum; the hat weight, P at the nodes and (P/S)^2 on the
    grids are each one pass over every member."""
    lad = Ladder([zs.spec.n for zs in members])
    x = lad.cat([zs.regular for zs in members])
    (loghat, _, _), guards = _weight_logs(WeightSpec(spec), x)
    # P's coefficients at every node, its member's row; the pole guard
    # of P as the v weight's, which shares its message with that of S
    C = lad.per_point(P).T
    p = _horner(C, x)
    guards.append((_POLY_POLE, _check_poles(p, _horner(np.abs(C),
                                                       np.abs(x)))))
    # per guard, the members with a node that trips it
    guards = [(msg, lad.reduce(np.logical_or, mask, False))
              for msg, mask in guards if mask.any()]
    logp = np.log(np.abs(p))
    logdy = np.log(np.abs(lad.cat([zs.regular_dy for zs in members])))
    # sup of (P/S)^2 over a stretch of the positive axis, recorded as
    # supporting data for the kernel normalization: column k the grid of
    # member k
    grid = np.geomspace(1e-3, spec.fam.domain(spec, np.array(lad.sizes))[1],
                        200)
    ratios = np.max((_horner(P.T, grid) / _horner(spec.S.c, grid)) ** 2,
                    axis=0)
    results, skipped = {}, {}
    for k, (zs, n, ratio, *logs) in enumerate(zip(
            members, lad.sizes, ratios, lad.split(loghat), lad.split(logp),
            lad.split(logdy))):
        fired = [msg for msg, hit in guards if hit[k]]
        if fired:
            skipped[n] = f"PoleEvaluation: {fired[0]}"
            continue
        logT = math.fsum(chain(*map(memoryview, logs),
                               (-n * spec.fam.log_lead(zs.spec),)))
        results[n] = -math.log(c / n) - logT / (n * (n - 1)), float(ratio)
    return results, skipped


def d_sequence(m, alpha, n_range, c=1.0):
    """DiameterSeries at the regular zeros for each n in n_range.

    Every d value comes from a certified ZeroSet; per-n failures are
    skipped and logged in the series rather than aborting the sweep: a
    find that fails, a P that would be complex, nodes that trip a pole
    guard of the v weight, a member whose recurrence leaves binary64
    (NonConvergence, from n ~ 350 on).  An invalid m, alpha, range or c
    raises ValidationError.  One extra member below the range start is
    computed so the first delta is defined.  The members' zeros are
    found as one ladder, one spec and its degree indices
    (find_zeros_ladder), each stage run once on one array of every
    member; each P is its own _node_polynomial call, and each log T
    comes from y' at the zeros, with no pair log (_diameters).
    """
    wanted = sorted(set(int(n) for n in n_range))
    if not wanted:
        raise ValidationError("empty n range")
    if wanted[0] < 2:
        raise ValidationError("diameter sequence needs n >= 2")
    _check_c(c)     # here, or every member would be skipped for it
    compute = sorted(set(wanted) | ({wanted[0] - 1} if wanted[0] > 2
                                    else set()))
    spec = FamilySpec("laguerre1", m, alpha, compute[0])
    members, P, skipped = [], [], {}
    for n, zs in zip(compute, find_zeros_ladder(spec, compute)):
        try:
            if isinstance(zs, XFeketeError):
                raise zs
            P.append(_node_polynomial(zs))
            members.append(zs)
        except XFeketeError as exc:
            skipped[n] = f"{type(exc).__name__}: {exc}"
    results = {}
    if members:
        results, guarded = _diameters(spec, members, np.array(P), c)
        skipped.update(guarded)

    n_values = np.array([n for n in wanted if n in results], dtype=int)
    d = np.array([results[n][0] for n in n_values])
    ratios = np.array([results[n][1] for n in n_values])
    deltas = np.array([results[n][0] - results[n - 1][0]
                       if (n - 1) in results else np.nan
                       for n in n_values])
    with np.errstate(invalid="ignore"):
        stats = np.abs(deltas) * n_values ** 2 / np.log(n_values) ** 2
    rate = float(np.nanmax(stats)) if np.any(np.isfinite(stats)) else np.nan
    return DiameterSeries(n_values=n_values, d=d, deltas=deltas,
                          rate_stats=stats, rate_stat=rate,
                          skipped=tuple(sorted(skipped.items())),
                          ps_ratio_max=ratios)


@dataclass(frozen=True)
class ZeroSumReport:
    """Vieta check: the zeros of the degree-(m+n) member sum to
    (n - m)(n + m + alpha), n being the regular count."""

    lhs: float
    rhs: float
    abs_err: float


def zero_sum_check(zs):
    """Evaluate the zero-sum identity on a laguerre1 member's ZeroSet.

    lhs sums every zero (regular plus real parts of the exceptional
    ones, which pair off conjugate).  rhs is reported as it is, negative
    out of the regime (n < m).
    """
    spec = zs.spec
    if spec.family != "laguerre1":
        raise ValidationError("zero-sum identity applies to laguerre1")
    lhs = float(np.sum(zs.regular)) + float(np.sum(zs.exceptional.real))
    rhs = float((spec.n - spec.m) * (spec.n + spec.m + spec.alpha))
    return ZeroSumReport(lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs))

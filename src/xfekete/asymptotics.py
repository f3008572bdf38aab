"""Transfinite-diameter sequence and the exact zero-sum identity.

For n nodes and the modified pair kernel

    k_n(x, y) = -log((c/n) |x-y| v(x)^{1/(2(n-1))} v(y)^{1/(2(n-1))})

the diameter functional is d = (2/(n(n-1))) sum_{i<j} k_n(u_i, u_j),
which collapses to -log(c/n) - log T / (n(n-1)) with the same log T the
energy module computes, its cross logs read off the node vector in
prefix order.  Evaluated at the regular zeros (the Fekete set of the v
weight) this gives the sequence d_n whose consecutive differences decay
like log^2(n)/n^2.  A sweep solves its members as one ladder, then takes
each member's d from its own log T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .classical_poly import _horner
from .energy import log_energy, v_weight
from .errors import ValidationError, XFeketeError
from .exceptional import FamilySpec
from .roots import find_zeros_ladder

# log-domain pair sums stay within the 1e-8 budget up to here
N_CAP = 200


def _check_c(c):
    if not 0 < c < math.inf:
        raise ValidationError(f"c must be finite and positive, got {c!r}")


def transfinite_d(nodes, v, c=1.0):
    """Diameter functional of a node configuration under weight v.

    c is finite and > 0.  The value is -log(c/n) - log T / (n(n-1)),
    log T = log_energy(nodes, v); larger log T (better configurations)
    gives smaller d, so the Fekete set minimizes d at fixed n.
    """
    _check_c(c)
    n = np.size(nodes)
    if n < 2:
        raise ValidationError("diameter needs at least two nodes")
    return -math.log(c / n) - log_energy(nodes, v) / (n * (n - 1))


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

    m: int
    alpha: float
    c: float
    n_values: np.ndarray
    d: np.ndarray
    deltas: np.ndarray
    rate_stats: np.ndarray
    rate_stat: float
    skipped: tuple
    ps_ratio_max: np.ndarray


def d_sequence(m, alpha, n_range, c=1.0):
    """DiameterSeries at the regular zeros for each n in n_range.

    Every d value comes from a certified ZeroSet; per-n failures are
    skipped and logged in the series rather than aborting the sweep.  An
    invalid m, alpha, range or c raises ValidationError.  One extra
    member below the range start is computed so the first delta is
    defined.  The members' zeros are found as one ladder
    (find_zeros_ladder), the Newton polish solved for all n together.
    """
    wanted = sorted(set(int(n) for n in n_range))
    if not wanted:
        raise ValidationError("empty n range")
    if wanted[0] < 2:
        raise ValidationError("diameter sequence needs n >= 2")
    if wanted[-1] > N_CAP:
        raise ValidationError(f"n above {N_CAP} exceeds the double "
                              f"precision budget")
    _check_c(c)     # here, or every member would be skipped for it
    compute = sorted(set(wanted) | ({wanted[0] - 1} if wanted[0] > 2
                                    else set()))
    specs = [FamilySpec("laguerre1", m, alpha, n) for n in compute]
    results, skipped = {}, []
    for n, zs in zip(compute, find_zeros_ladder(specs)):
        try:
            if isinstance(zs, XFeketeError):
                raise zs
            spec, v = zs.spec, v_weight(zs)
            dval = transfinite_d(zs.regular, v, c)
            # sup of (P/S)^2 over a stretch of the positive axis, recorded
            # as supporting data for the kernel normalization
            grid = np.geomspace(1e-3, spec.fam.domain(spec, n)[1], 200)
            ratio = np.max((_horner(v.P, grid) / _horner(spec.S.c, grid)) ** 2)
            results[n] = dval, float(ratio)
        except XFeketeError as exc:
            skipped.append((n, f"{type(exc).__name__}: {exc}"))

    n_values = np.array([n for n in wanted if n in results], dtype=int)
    d = np.array([results[n][0] for n in n_values])
    ratios = np.array([results[n][1] for n in n_values])
    deltas = np.array([results[n][0] - results[n - 1][0]
                       if (n - 1) in results else np.nan
                       for n in n_values])
    with np.errstate(invalid="ignore"):
        stats = np.abs(deltas) * n_values ** 2 / np.log(n_values) ** 2
    rate = float(np.nanmax(stats)) if np.any(np.isfinite(stats)) else np.nan
    return DiameterSeries(m=m, alpha=alpha, c=c, n_values=n_values, d=d,
                          deltas=deltas, rate_stats=stats, rate_stat=rate,
                          skipped=tuple(skipped), ps_ratio_max=ratios)


@dataclass(frozen=True)
class ZeroSumReport:
    """Vieta check: the zeros of the degree-(m+n) member sum to
    (n - m)(n + m + alpha), n being the regular count."""

    spec: FamilySpec
    lhs: float
    rhs: float
    abs_err: float
    regular_sum: float
    exceptional_sum: float
    flags: tuple


def zero_sum_check(zs):
    """Evaluate the zero-sum identity on a laguerre1 member's ZeroSet.

    lhs sums every zero (regular plus real parts of the exceptional
    ones, which pair off conjugate).  A negative rhs marks an
    out-of-regime instance; it is flagged, not asserted against.
    """
    spec = zs.spec
    if spec.family != "laguerre1":
        raise ValidationError("zero-sum identity applies to laguerre1")
    reg = float(np.sum(zs.regular))
    exc = float(np.sum(zs.exceptional.real))
    lhs = reg + exc
    rhs = float((spec.n - spec.m) * (spec.n + spec.m + spec.alpha))
    flags = []
    if rhs < 0:
        flags.append("rhs negative: identity holds only for n >= m")
    flags.extend(spec.regime_warnings())
    return ZeroSumReport(spec=spec, lhs=lhs, rhs=rhs,
                         abs_err=abs(lhs - rhs), regular_sum=reg,
                         exceptional_sum=exc, flags=tuple(flags))

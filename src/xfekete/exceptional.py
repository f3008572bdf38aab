"""Exceptional-family construction.

Each family is a codimension-m deformation of a classical orthogonal
system: a fixed degree-m polynomial S (a classical polynomial with
shifted or negated parameters) divides the weight as 1/S^2, and the
degree-(m+n) members solve a second-order ODE with polynomial
coefficients A y'' + B y' + C y = 0 built from S.

Three families are supported, declared in the FAMILY table at the end:

  laguerre1   S(x) = L_m^(alpha-1)(-x)          orthogonality on (0, inf)
  laguerre2   S(x) = L_m^(-alpha-1)(x)          orthogonality on (0, inf)
  jacobi      S(x) = P_m^(-alpha-1, beta-1)(x)  orthogonality on (-1, 1)

Degree-(m+n) members are produced two ways that cross-check each other.
Closed-form pointwise evaluators assembled from classical polynomials
(exceptional_eval_pair, which returns y and y' from one recurrence sweep
per classical factor) stay accurate at degrees where monomial
coefficients are useless; they find and certify the zeros.  A
least-squares nullspace solve of the ODE in the monomial basis
(build_exceptional) gives the coefficients, for the `poly` command and
the construction check of `verify`, which tests them at the certified
zeros.  Every layer reads S from one PolyTable per spec, FamilySpec.S,
the only caller of build_S.
"""

import functools
from dataclasses import dataclass, field
from math import factorial, isfinite, lgamma
from typing import NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import (PolyTable, _as_float_or_complex as _coerce,
                             _horner, gen_binom, jacobi_coeffs, jacobi_pass,
                             jacobi_zeros, laguerre_coeffs, laguerre_pass,
                             laguerre_zeros, trim)
from .errors import (DegreeCollapse, InvalidFamily, NullspaceDefect,
                     RepresentationOverflow, SingularEvaluation,
                     ValidationError)

# residual ceiling for an accepted nullspace solve (relative, see
# build_exceptional)
BUILD_RESIDUAL_TOL = 1e-9

# |leading coeff| below exp(-_LOG_RANGE_CAP) cannot be normalized in
# binary64; the monomial representation is refused beyond it
_LOG_RANGE_CAP = 690.0


@dataclass(frozen=True)
class FamilySpec:
    """Selects one exceptional polynomial: family tag, codimension m,
    parameters alpha (and beta for jacobi), and degree index n.

    The polynomial degree is m + n; n counts the zeros inside the
    orthogonality interval.
    """

    family: str
    m: int
    alpha: float
    n: int
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidFamily(f"unknown family {self.family!r}; "
                                f"expected one of {FAMILIES}")
        if self.m < 0 or self.n < 0:
            raise ValidationError("m and n must be nonnegative")
        if len(self.fam.poles) == 2:
            if self.beta is None:
                raise ValidationError(f"{self.family} requires beta")
        elif self.beta is not None:
            raise ValidationError(f"{self.family} takes no beta")
        if not all(map(isfinite, (self.alpha, self.beta or 0.0))):
            raise ValidationError("alpha and beta must be finite")

    @property
    def fam(self):
        return FAMILY[self.family]

    @functools.cached_property
    def S(self):
        """PolyTable of S, built on first use, so that a DegreeCollapse
        of S is raised there and not at construction.  Coefficients
        beyond binary64 raise RepresentationOverflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = build_S(self)
        if not np.all(np.isfinite(c)):
            raise RepresentationOverflow(
                f"coefficients of S overflow binary64 for {self}")
        return PolyTable(c)

    @property
    def degree(self):
        return self.m + self.n

    @property
    def interval(self):
        """Open orthogonality interval (a, b); b may be inf."""
        return self.fam.interval

    def regime_warnings(self):
        """Out-of-regime diagnostics.  Construction still proceeds; the
        electrostatic and stability statements are only claimed inside
        the listed ranges."""
        return self.fam.regime(self)

    def as_dict(self):
        d = {"family": self.family, "m": self.m, "alpha": self.alpha,
             "n": self.n}
        if self.beta is not None:
            d["beta"] = self.beta
        return d


def build_S(spec):
    """Monomial coefficients (ascending) of the denominator polynomial S."""
    return spec.fam.S(spec)


@dataclass(frozen=True)
class RationalODE:
    """Polynomial ODE data A y'' + B y' + C y = 0 and the rational
    functions M = B/A, N = C/A used by the potential transform."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    singular_points: np.ndarray = field(repr=False)

    def _guard(self, x):
        x = np.asarray(x, dtype=float)
        if self.singular_points.size:
            d = np.abs(x[..., None] - self.singular_points[None, ...].real)
            if np.any(np.min(d, axis=-1) < 1e-12):
                raise SingularEvaluation(
                    "evaluation within 1e-12 of a zero of A")
        return x

    def M(self, x):
        x = self._guard(x)
        return npoly.polyval(x, self.B) / npoly.polyval(x, self.A)

    def N(self, x):
        x = self._guard(x)
        return npoly.polyval(x, self.C) / npoly.polyval(x, self.A)

    def M_prime(self, x):
        x = self._guard(x)
        av = npoly.polyval(x, self.A)
        bv = npoly.polyval(x, self.B)
        apv = npoly.polyval(x, npoly.polyder(self.A))
        bpv = npoly.polyval(x, npoly.polyder(self.B))
        return (bpv * av - bv * apv) / av ** 2


def ode_coeffs(spec):
    """Coefficient vectors of the family ODE at degree index n:
    A = sigma S, B = tau S - 2 sigma S', C = lam S + k (q S') with the
    parts of the family's FAMILY record.  For m = 0 each reduces to the
    classical second-order equation.
    """
    fam, Sc, Sp = spec.fam, spec.S.c, spec.S.d1
    A = fam.sigma(Sc)
    B = npoly.polysub(npoly.polymul(fam.tau(spec), Sc), 2.0 * fam.sigma(Sp))
    C = npoly.polyadd(fam.lam(spec, spec.n) * Sc, fam.k(spec) * fam.q(Sp))
    A, B, C = trim(A), trim(B), trim(C)
    sing = np.roots(A[::-1]) if len(A) > 1 else np.empty(0)
    return RationalODE(A=A, B=B, C=C, singular_points=sing)


def _nonzero_lead(spec, v):
    """v, the closed-form leading coefficient of spec or a factor of it;
    DegreeCollapse where it is 0."""
    if v == 0:
        raise DegreeCollapse(f"closed-form leading coefficient is 0 for "
                             f"{spec}; its degree is below {spec.degree}")
    return v


def leading_coefficient(spec):
    """Normalizing leading coefficient of the degree-(m+n) member.

    laguerre1: (-1)^n / (m! n!)
    laguerre2: (-1)^(m+n) (n+alpha+1-m) / (m! n!), collapsing at 0
    jacobi:    (m-n-alpha-1) lead(S) lead(P_n^(alpha+1,beta-1)), likewise
    Raises DegreeCollapse wherever the closed form is 0.
    """
    f = _nonzero_lead(spec, spec.fam.lead_factor(spec))
    return _nonzero_lead(spec, spec.fam.lead(spec, f))


def _magnitude_profile(spec):
    """Expected |coefficient| profile, used to precondition the nullspace
    solve.  Convolution of the absolute coefficients of the classical
    factors in the closed-form product; for the families whose product
    carries an extra factor of x the profile is max-combined with its
    shift.  A profile that overflows binary64 cannot precondition
    anything and raises NullspaceDefect."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            f, g = spec.fam.profile(spec)
            d = np.convolve(np.abs(f), np.abs(g))
            if spec.fam.shifted:
                d = np.maximum(d, np.concatenate([[d[0]], d[:-1]]))
            d = np.maximum(d, np.max(d) * 1e-300)
    except FloatingPointError as exc:
        raise NullspaceDefect(
            f"coefficient magnitude profile overflows for {spec}") from exc
    if not np.all(np.isfinite(d)):
        raise NullspaceDefect(
            f"coefficient magnitude profile is not finite for {spec}")
    return d[: spec.degree + 1]


@dataclass(frozen=True)
class BuiltPolynomial:
    """Monomial coefficients of one exceptional polynomial together with
    the relative ODE residual of the solve and regime diagnostics."""

    spec: FamilySpec
    coeffs: np.ndarray
    residual: float
    warnings: tuple


def build_exceptional(spec):
    """Solve A y'' + B y' + C y = 0 for the degree-(m+n) coefficient
    vector, fixing the leading coefficient to the family normalization.

    The linear system maps monomial coefficients to the coefficients of
    the residual polynomial.  Columns are rescaled by the magnitude
    profile of the expected solution (otherwise the system is hopelessly
    ill-scaled for n beyond ~15), rows are sup-norm equilibrated, and the
    reduced system is solved by least squares.  The coefficient-space
    residual, relative to max(|A y''|, |C y|) coefficient norms, must
    come in below 1e-9; a larger or NaN residual, an overflowing
    magnitude profile, a rank-deficient reduced matrix or a
    least-squares solve that fails outright (LinAlgError) raises
    NullspaceDefect.  Zero finding never calls it: its callers are the
    `poly` command and the construction check of `verify`, each of which
    solves once per spec.
    """
    ode = ode_coeffs(spec)
    A, B, C = ode.A, ode.B, ode.C
    deg = spec.degree
    top = leading_coefficient(spec)
    if abs(top) < 1e-300 or not np.isfinite(top):
        raise RepresentationOverflow(
            f"leading coefficient {top!r} cannot be normalized")
    rows = max(len(A) + max(deg - 2, 0), len(B) + max(deg - 1, 0),
               len(C) + deg)
    M = np.zeros((rows, deg + 1))
    for k in range(deg + 1):
        if k >= 2:
            M[k - 2: k - 2 + len(A), k] += A * (k * (k - 1))
        if k >= 1:
            M[k - 1: k - 1 + len(B), k] += B * k
        M[k: k + len(C), k] += C
    d = _magnitude_profile(spec)
    d = d * (abs(top) / d[deg])
    Ms = M * d
    if deg == 0:
        coeffs = np.array([top])
    else:
        rhs = -Ms[:, deg] * (top / d[deg])
        Msub = Ms[:, :deg]
        rn = np.max(np.abs(Msub), axis=1)
        rn[rn == 0] = 1.0
        try:
            sol, _, rank, _ = np.linalg.lstsq(Msub / rn[:, None], rhs / rn,
                                              rcond=None)
        except np.linalg.LinAlgError as exc:
            raise NullspaceDefect(
                f"least-squares solve failed for {spec}: {exc}") from exc
        if rank < deg:
            raise NullspaceDefect(
                f"reduced system rank {rank} < {deg}: solution space has "
                f"dimension >= 2")
        coeffs = np.concatenate([sol * d[:deg], [top]])
    Ay2 = (npoly.polymul(A, npoly.polyder(coeffs, 2)) if deg >= 2
           else np.zeros(1))
    By1 = (npoly.polymul(B, npoly.polyder(coeffs)) if deg >= 1
           else np.zeros(1))
    Cy = npoly.polymul(C, coeffs)
    res = npoly.polyadd(npoly.polyadd(Ay2, By1), Cy)
    scale = max(np.max(np.abs(Ay2)), np.max(np.abs(Cy)))
    rel = np.max(np.abs(res)) / scale if scale > 0 else np.max(np.abs(res))
    if not rel <= BUILD_RESIDUAL_TOL:
        raise NullspaceDefect(
            f"ODE residual {rel:.3e} exceeds {BUILD_RESIDUAL_TOL:.0e} "
            f"for {spec}")
    return BuiltPolynomial(spec=spec, coeffs=coeffs, residual=float(rel),
                           warnings=tuple(spec.regime_warnings()))


# The pair evaluators take the degree index n per point (ladder_eval_pair)
# and read everything else from the spec.
def _lag1_pair(spec, n, x):
    # y = L_m^(al)(-x) L_n^(al-1)(x) + L_m^(al-1)(-x) L_{n-1}^(al)(x).
    # Both parameters come from one sweep of L^(al) each side, via
    # L_k^(al-1) = L_k^(al) - L_{k-1}^(al); the chain rule flips the sign
    # of the derivatives of the factors at -x.
    fm, fm1, dfm, dfm1 = laguerre_pass(spec.m, spec.alpha, -x)
    gn, gn1, dgn, dgn1 = laguerre_pass(n, spec.alpha, x)
    f1, f2 = fm, fm - fm1
    g1, g2 = gn - gn1, gn1
    y = f1 * g1 + f2 * g2
    yp = f1 * (dgn - dgn1) + f2 * dgn1 - dfm * g1 - (dfm - dfm1) * g2
    return y, yp


def _lag2_pair(spec, n, x):
    # y  = x S u' + ((al+1) S - x S') u,  u = L_n^(al+1)
    # y' = x S u' + ((m-n) S - x S') u, from eliminating u'' and S'' via
    # the classical ODEs of u and S.
    m, al = spec.m, spec.alpha
    S, Sp = _horner(spec.S.c, x), _horner(spec.S.d1, x)
    u, _, up, _ = laguerre_pass(n, al + 1.0, x)
    y = x * S * up + ((al + 1.0) * S - x * Sp) * u
    yp = x * S * up + ((m - n) * S - x * Sp) * u
    return y, yp


def _jac_pair(spec, n, x):
    # y  = (1-x) S u' - ((al+1) S + (1-x) S') u,  u = P_n^(al+1, be-1)
    # y' = (-be (1-x) S u' + (-lam S + be (1-x) S') u) / (1+x)
    al, be = spec.alpha, spec.beta
    S, Sp = _horner(spec.S.c, x), _horner(spec.S.d1, x)
    u, _, up, _ = jacobi_pass(n, al + 1.0, be - 1.0, x)
    lam = spec.fam.lam(spec, n)
    y = (1 - x) * S * up - ((al + 1.0) * S + (1 - x) * Sp) * u
    yp = (-be * (1 - x) * S * up + (-lam * S + be * (1 - x) * Sp) * u) \
        / (1 + x)
    return y, yp


def ladder_eval_pair(spec, n, x):
    """(y, y') of the members of spec's ladder, the specs that differ
    from it only in the degree index, at real or complex x; n is that
    index per point (an int, or an integer array broadcast with x).  One
    call evaluates the members together: each classical factor takes one
    recurrence sweep in which every point stops at its own degree."""
    return spec.fam.pair(spec, n, _coerce(x))


def exceptional_eval_pair(spec, x):
    """Value and first derivative (y, y') of the exceptional polynomial at
    real or complex x, each classical factor taken from one recurrence
    sweep.

    Carries the same normalization as build_exceptional and stays
    accurate at degrees far beyond what monomial coefficients support.
    """
    return ladder_eval_pair(spec, spec.n, x)


def exceptional_eval(spec, x, deriv=0):
    """Pointwise value (or first or second derivative) of the exceptional
    polynomial, from exceptional_eval_pair.

    The second derivative comes from the family ODE,
    y'' = -(B y' + C y) / A, so it is undefined at the zeros of A.
    """
    if deriv not in (0, 1, 2):
        raise ValidationError("deriv must be 0, 1 or 2")
    y, yp = exceptional_eval_pair(spec, x)
    if deriv < 2:
        return yp if deriv else y
    x = _coerce(x)
    ode = ode_coeffs(spec)
    return -(npoly.polyval(x, ode.B) * yp + npoly.polyval(x, ode.C) * y) \
        / npoly.polyval(x, ode.A)


class Family(NamedTuple):
    """What sets one family apart.  The callables take the FamilySpec (lam
    and pair also the degree index n, which pair takes per point) and
    look public functions up as module globals when called."""

    interval: tuple     # open orthogonality interval (a, b); b may be inf
    poles: tuple        # r of each base-weight factor |x - r|^(alpha, beta)
    exp_weight: bool    # base weight also carries e^-x (the half-line)
    S: object           # coefficients of S, a classical polynomial
    gauss: object       # classical Gauss nodes, the regular-zero seeds
    sigma: object       # the ODE: A = sigma S, B = tau S - 2 sigma S',
    tau: object         # C = lam S + k (q S'); sigma and q multiply a
    lam: object         # coefficient vector (by polymulx for x, which
    k: object           # keeps the sign of the zero it writes)
    q: object
    lead_factor: object  # the signed factor of lead that can vanish
    lead: object        # (spec, lead_factor) -> closed-form leading coeff.
    profile: object     # classical factors of the closed-form product
    shifted: bool       # the product carries one more linear factor
    pair: object        # (spec, n, x) -> (y, y'), n per point
    regime: object      # out-of-regime diagnostics
    domain: object      # (spec, n) -> Fekete search box for n nodes


def _half_line_lead(spec, f):
    if lgamma(spec.m + 1) + lgamma(spec.n + 1) > _LOG_RANGE_CAP:
        raise RepresentationOverflow(
            f"1/(m! n!) underflows binary64 at m={spec.m}, n={spec.n}")
    return f * (1.0 / float(factorial(spec.m) * factorial(spec.n)))


def _jac_regime(spec):
    w = []
    t = spec.alpha + 1 - spec.m - spec.beta
    if abs(t - round(t)) < 1e-12 and 0 <= round(t) <= spec.m - 1:
        w.append("alpha+1-m-beta is an integer in {0..m-1}: S "
                 "degenerates (degree collapse)")
    cond_a = -1 < spec.beta < 0 and -1 < spec.alpha + 1 - spec.m < 0
    cond_b = spec.beta > 0 and spec.alpha + 1 - spec.m > 0
    if not (cond_a or cond_b):
        w.append("(beta, alpha+1-m) not jointly in (-1,0) or "
                 "(0,inf): zero clustering of S unguaranteed")
    return w


_HALF_LINE = dict(
    interval=(0.0, np.inf), poles=(0.0,), exp_weight=True,
    gauss=lambda s: laguerre_zeros(s.n, s.alpha), lead=_half_line_lead,
    sigma=npoly.polymulx, tau=lambda s: (s.alpha + 1.0, -1.0),
    domain=lambda s, n: (0.0, 4.0 * n + 2.0 * s.alpha + 4.0 * s.m))

FAMILY = {
    "laguerre1": Family(
        **_HALF_LINE, S=lambda s: laguerre_coeffs(s.m, s.alpha - 1.0)
        * (-1.0) ** np.arange(s.m + 1),
        lam=lambda s, n: s.m + n, k=lambda s: -2.0 * s.alpha, q=lambda c: c,
        lead_factor=lambda s: (-1.0) ** s.n, shifted=False, pair=_lag1_pair,
        profile=lambda s: (laguerre_coeffs(s.m, s.alpha),
                           laguerre_coeffs(s.n, s.alpha - 1.0)),
        regime=lambda s: ["alpha <= 0: weight not integrable at 0 and S "
                          "may vanish on the positive axis"]
        if s.alpha <= 0 else []),
    "laguerre2": Family(
        **_HALF_LINE, S=lambda s: laguerre_coeffs(s.m, -s.alpha - 1.0),
        lam=lambda s, n: n - s.m, k=lambda s: 2.0, q=npoly.polymulx,
        lead_factor=lambda s: (-1) ** (s.m + s.n)
        * (s.n + s.alpha + 1.0 - s.m),
        shifted=True, pair=_lag2_pair,
        profile=lambda s: (laguerre_coeffs(s.m, -s.alpha - 1.0),
                           laguerre_coeffs(s.n, s.alpha + 1.0)),
        regime=lambda s: ["alpha <= m-1: S may vanish on the positive axis"]
        if s.alpha <= s.m - 1 else []),
    "jacobi": Family(
        interval=(-1.0, 1.0), poles=(1.0, -1.0), exp_weight=False,
        S=lambda s: jacobi_coeffs(s.m, -s.alpha - 1.0, s.beta - 1.0),
        gauss=lambda s: jacobi_zeros(s.n, s.alpha, s.beta),
        sigma=lambda c: npoly.polymul((1.0, 0.0, -1.0), c),
        tau=lambda s: (s.beta - s.alpha, -(s.alpha + s.beta + 2.0)),
        lam=lambda s, n: (s.m * (s.alpha - s.beta - s.m + 1.0)
                          + n * (n + s.alpha + s.beta + 1.0)),
        k=lambda s: -2.0 * s.beta, q=lambda c: npoly.polymul((1.0, -1.0), c),
        lead_factor=lambda s: s.m - s.n - s.alpha - 1.0,
        lead=lambda s, f: f * s.S.c[-1] * (
            gen_binom(2 * s.n + s.alpha + s.beta, s.n) / 2.0 ** s.n),
        profile=lambda s: (s.S.c, jacobi_coeffs(
            s.n, s.alpha + 1.0, s.beta - 1.0)),
        shifted=True, pair=_jac_pair, regime=_jac_regime,
        domain=lambda s, n: (-1.0 + 1e-3, 1.0 - 1e-3)),
}

FAMILIES = tuple(FAMILY)

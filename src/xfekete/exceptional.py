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

Degree-(m+n) members are closed-form products of classical polynomials
(Gomez-Ullate, Marcellan & Milson, J. Math. Anal. Appl. 399 (2013)) of
one shape for all three, y = w S u' + (a S - w S') u, with w and y'
read off the ODE record.  Each is formed two ways that cross-check
each other.  The pointwise evaluator
(ladder_eval_pair, which returns y and y' from one recurrence sweep per
classical factor) stays accurate at degrees where monomial coefficients
are useless; it finds and certifies the zeros.
build_exceptional multiplies the same factors out in the monomial basis,
for the `poly` command alone, and the family ODE checks the result: its
residual must vanish.  `verify` builds nothing: its construction check
reads the family ODE at the certified zeros (_ode_at, which Newton's
ratios read too; roots.stieltjes_system).  Every layer reads
S's coefficients from one PolyTable per spec, FamilySpec.S, the only
caller of build_S; laguerre1's evaluator sweeps S instead.  Likewise
the evaluator's sweeps of laguerre2's and jacobi's classical factor u
read one recurrence table per spec (FamilySpec.recurrence).
"""

import functools
from dataclasses import dataclass
from math import factorial, inf, isfinite, lgamma, log
from typing import NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import (_QUIET, PolyTable,
                             _as_float_or_complex as _coerce,
                             _horner, _jacobi_coeffs_top_down,
                             _jacobi_collapses, _jacobi_table,
                             _laguerre_table, _laguerre_values, _top,
                             gen_binom, jacobi_coeffs, jacobi_pass,
                             jacobi_seed_ladder, laguerre_coeffs,
                             laguerre_pass, laguerre_seed_ladder, polyder,
                             trim)
from .errors import (DegreeCollapse, InvalidFamily, NullspaceDefect,
                     RepresentationOverflow, ValidationError)

# ODE residual ceiling for an accepted build (relative, see
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
        if not all(isinstance(k, (int, np.integer))
                   for k in (self.m, self.n)):
            raise ValidationError("m and n must be integers")
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
        return PolyTable(_representable(c, "coefficients of S", self))

    def recurrence(self, n):
        """The Recurrence table (classical_poly) of the classical factor
        u up to the largest degree of n, an int or an integer array.  It
        is kept on the spec, as S's table is, and built again only for a
        higher degree: every sweep of a ladder reads its one spec, and
        the first, at the ladder's largest degree, builds the table for
        them all.  An entry does not depend on the table's top degree,
        so a sweep gets the bits of a table of its own.  laguerre1 sweeps
        with no table."""
        top = _top(n)
        tab = self.__dict__.get("_recurrence")
        if tab is None or tab.top < top:
            tab = self.fam.recurrence(self, top)
            # the dataclass is frozen: the cache is written as
            # functools.cached_property writes S
            self.__dict__["_recurrence"] = tab
        return tab

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


def _representable(c, what, spec):
    """c, if every entry is finite; else RepresentationOverflow, "what
    overflow binary64 for spec"."""
    if not np.all(np.isfinite(c)):
        raise RepresentationOverflow(f"{what} overflow binary64 for {spec}")
    return c


def _s_zeros(spec):
    """The zeros of S (spec.S.roots), the eigenvalues of the companion
    matrix of monic S; RepresentationOverflow where its coefficients
    leave binary64 (laguerre1 at alpha = 2 from m = 167 on)."""
    S = spec.S
    with np.errstate(**_QUIET):
        _representable(S.c / S.c[-1], "monic coefficients of S", spec)
    return S.roots


@dataclass(frozen=True)
class RationalODE:
    """Polynomial ODE data A y'' + B y' + C y = 0."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def ode_coeffs(spec):
    """Coefficient vectors of the family ODE at degree index n:
    A = sigma S, B = tau S - 2 sigma S', C = lam S + k (q S') with the
    parts of the family's FAMILY record.  For m = 0 each reduces to the
    classical second-order equation.  Coefficients beyond binary64
    raise RepresentationOverflow.
    """
    fam, Sc, Sp = spec.fam, spec.S.c, spec.S.d1
    with np.errstate(**_QUIET):
        A = fam.sigma(Sc)
        B = npoly.polysub(npoly.polymul(fam.tau(spec), Sc),
                          2.0 * fam.sigma(Sp))
        C = npoly.polyadd(fam.lam(spec, spec.n) * Sc, fam.k(spec) * fam.q(Sp))
    _representable(np.concatenate([A, B, C]), "ODE coefficients", spec)
    return RationalODE(A=trim(A), B=trim(B), C=trim(C))


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


@dataclass(frozen=True)
class BuiltPolynomial:
    """Monomial coefficients of one exceptional polynomial together with
    the relative ODE residual of the solve and regime diagnostics."""

    coeffs: np.ndarray
    residual: float
    warnings: tuple


def build_exceptional(spec):
    """Monomial coefficients of the degree-(m+n) member, checked by the
    family ODE A y'' + B y' + C y = 0.

    The family's closed-form product of classical polynomials (the one
    ladder_eval_pair evaluates) is multiplied out in coefficient
    space, and its top entry is written as the closed-form leading
    coefficient.  The coefficient-space residual of the ODE, relative to
    max(|A y''|, |C y|) coefficient norms, must come in below 1e-9; a
    larger or NaN residual raises NullspaceDefect.  S's errors come
    first, then the ODE's RepresentationOverflow (ode_coeffs), then the
    lead's DegreeCollapse or RepresentationOverflow;
    coefficients beyond binary64 raise RepresentationOverflow.  Below
    degree 2, polyder's zero stands for y'' (and below 1 for y'), whose
    sign the residual's max of absolute values cannot show.  Zero
    finding and `verify` never call it: its one caller is the `poly`
    command.
    """
    ode = ode_coeffs(spec)
    A, B, C = ode.A, ode.B, ode.C
    deg = spec.degree
    top = leading_coefficient(spec)
    if abs(top) < 1e-300 or not np.isfinite(top):
        raise RepresentationOverflow(
            f"leading coefficient {float(top)!r} cannot be normalized")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = _product_coeffs(spec)
        coeffs = np.zeros(deg + 1)
        coeffs[: y.size] = y
        coeffs[-1] = top
        _representable(coeffs, "coefficients", spec)
        Ay2 = npoly.polymul(A, polyder(coeffs, 2))
        By1 = npoly.polymul(B, polyder(coeffs))
        Cy = npoly.polymul(C, coeffs)
        res = npoly.polyadd(npoly.polyadd(Ay2, By1), Cy)
        scale = max(np.max(np.abs(Ay2)), np.max(np.abs(Cy)))
        rel = np.max(np.abs(res)) / (scale if scale > 0 else 1.0)
    if not rel <= BUILD_RESIDUAL_TOL:
        raise NullspaceDefect(
            f"ODE residual {rel:.3e} exceeds {BUILD_RESIDUAL_TOL:.0e} "
            f"for {spec}")
    return BuiltPolynomial(coeffs=coeffs, residual=float(rel),
                           warnings=tuple(spec.regime_warnings()))


@functools.cache
def _w_r(fam):
    # coefficients of w = q, r = sigma/q, w' and sigma' = (r w)', read off
    # the family's ODE; cached, since forming them costs about as much as
    # a short sweep
    w, sigma = fam.q(np.ones(1)), fam.sigma(np.ones(1))
    return w, npoly.polydiv(sigma, w)[0], polyder(w), polyder(sigma)


def _product_coeffs(spec):
    # y = w S u' + (a S - w S') u, the product of _product_pair
    fam, S, Sp = spec.fam, spec.S.c, spec.S.d1
    w, u = _w_r(fam)[0], fam.u_coeffs(spec)
    return npoly.polyadd(
        npoly.polymul(npoly.polymul(w, S), polyder(u)),
        npoly.polymul(npoly.polysub(fam.a(spec) * S, npoly.polymul(w, Sp)), u))


def _product_pair(spec, n, x):
    # y  = w S u' + (a S - w S') u, (S, S') from the family's S_at and
    # (u, u') from its classical factor u at degree index n per point;
    # y' = (w1 S u' + (a1 S - w1 S') u) / r with w1 = (k/2) w, a1 = -lam
    # and r = sigma/q, from eliminating u'' and S'' via the classical
    # ODEs of u and S, so y' is the family ODE's own.  Returns (y, y')
    # and the (S, S', w, r) at x that _ladder_eval_ratios reads.
    fam = spec.fam
    wc, rc = _w_r(fam)[:2]
    S, Sp = fam.S_at(spec, x)
    u, up = fam.u(spec, n, x)
    w = _horner(wc, x)
    w1, a1 = 0.5 * fam.k(spec) * w, -fam.lam(spec, n)
    y = w * S * up + (fam.a(spec) * S - w * Sp) * u
    r = _horner(rc, x)
    yp = (w1 * S * up + (a1 * S - w1 * Sp) * u) / r
    big = ~np.isfinite(yp)
    if big.any():
        # the sum leaves binary64 a factor |r| before y' does (laguerre1's
        # r = -x at its largest zeros): there, divide first
        yp = np.where(big, w1 * S / r * up + (a1 * S - w1 * Sp) / r * u, yp)
    return y, yp, (S, Sp, w, r)


def ladder_eval_pair(spec, n, x):
    """(y, y') of the members of spec's ladder, the specs that differ
    from it only in the degree index, at real or complex x; n is that
    index per point (an int, or an integer array broadcast with x).  One
    call evaluates the members together: each classical factor takes one
    recurrence sweep in which every point stops at its own degree."""
    return _product_pair(spec, n, _coerce(x))[:2]


def _ode_at(spec, n, x, pair=None):
    """(A, B, C, A', B', C') of the family ODE A y'' + B y' + C y = 0 at
    degree index n (an int, or an integer array broadcast with x) at
    real or complex x: A = sigma S, B = tau S - 2 sigma S' and
    C = lam S + k w S' (ode_coeffs).  pair is (S, S', w = q, r = sigma/q)
    at x, as _product_pair returns it; without it they are evaluated as
    _product_pair evaluates them (the family's S_at, Horner on w and r).
    S'' is Horner on S's table.  No sweep: a few products of
    polynomials of degree m + 2 at most."""
    fam = spec.fam
    wc, rc, dwc, dsc = _w_r(fam)
    S, Sp, w, r = pair or (*fam.S_at(spec, x), _horner(wc, x),
                           _horner(rc, x))
    t0, t1 = fam.tau(spec)
    lam, k = fam.lam(spec, n), fam.k(spec)
    S2, sig, dsig = _horner(spec.S.d2, x), r * w, _horner(dsc, x)
    tau = t0 + t1 * x
    A, B, C = sig * S, tau * S - 2 * sig * Sp, lam * S + k * w * Sp
    dA = dsig * S + sig * Sp
    dB = t1 * S + (tau - 2 * dsig) * Sp - 2 * sig * S2
    dC = lam * Sp + k * (_horner(dwc, x) * Sp + w * S2)
    return A, B, C, dA, dB, dC


def _ladder_eval_ratios(spec, n, x):
    """(y, y', y''/y', y'''/y') of spec's ladder at x, n as in
    ladder_eval_pair: its pair, bit for bit, and the ratios t2 and t3
    from the family ODE (_ode_at, on the pair's S, S', w and r) and its
    derivative, with rho = y/y',
        t2 = -(B + C rho)/A,
        t3 = -((A' + B) t2 + B' + C' rho + C)/A,
    so the ratios take no sweep.  Newton's quartic step reads them; they
    set its rate of convergence, not its fixed point y = 0."""
    x = _coerce(x)
    y, yp, pair = _product_pair(spec, n, x)
    A, B, C, dA, dB, dC = _ode_at(spec, n, x, pair)
    rho = y / yp
    t2 = -(B + C * rho) / A
    return y, yp, t2, -((dA + B) * t2 + dB + dC * rho + C) / A


def exceptional_eval(spec, x):
    """Value of the exceptional polynomial at real or complex x, with the
    normalization of build_exceptional: ladder_eval_pair's y at the
    spec's own degree index."""
    return ladder_eval_pair(spec, spec.n, x)[0]


def _lag1_S(spec, x):
    # S = L_m^(al-1)(-x) = (L_m^(al) - L_{m-1}^(al))(-x) and S' =
    # L_{m-1}^(al)(-x), values of one L^(al) sweep (DLMF 18.9): Horner on
    # S's same-sign monomials cancels at the negative exceptional zeros
    fm, fm1 = _laguerre_values(spec.m, spec.alpha, -x)
    return fm - fm1, fm1


def _lag1_u(spec, n, x):
    # u = L_n^(al-1) = L_n^(al) - L_{n-1}^(al) and u' = -L_{n-1}^(al),
    # values of one L^(al) sweep
    gn, gn1 = _laguerre_values(n, spec.alpha, x)
    return gn - gn1, -gn1


class Family(NamedTuple):
    """What sets one family apart.  The callables take the FamilySpec (lam
    and u also the degree index n, which u takes per point, and gauss a
    list of them, the degrees of a ladder) and look public functions up
    as module globals when called.  Every member is the product
    y = w S u' + (a S - w S') u: a family declares a, its classical
    factor u and how S is evaluated, and _product_pair and
    _product_coeffs read w, y' and the rest off its ODE fields."""

    interval: tuple     # open orthogonality interval (a, b); b may be inf
    poles: tuple        # r of each base-weight factor |x - r|^(alpha, beta)
    exp_weight: bool    # base weight also carries e^-x (the half-line)
    S: object           # coefficients of S, a classical polynomial
    gauss: object       # (spec, ns) -> per n, the seeds of the regular
                        # zeros (the classical zeros' WKB nodes) or
                        # their ValidationError
    sigma: object       # the ODE: A = sigma S, B = tau S - 2 sigma S',
    tau: object         # C = lam S + k (q S'); sigma and q multiply a
    lam: object         # coefficient vector (by polymulx for x, which
    k: object           # keeps the sign of the zero it writes)
    q: object
    lead_factor: object  # the signed factor of lead that can vanish
    lead: object        # (spec, lead_factor) -> closed-form leading coeff.
    log_lead: object    # spec -> log|leading coeff.| from lgamma, finite
                        # where the float lead leaves binary64
    regime: object      # out-of-regime diagnostics
    domain: object      # (spec, n) -> Fekete search box for n nodes
    a: object           # the product y = w S u' + (a S - w S') u, w = q
    u: object           # (spec, n, x) -> (u, u') of the classical factor
    u_coeffs: object    # spec -> monomial coefficients of u
    law: object         # (s, n) -> the one-term law of the exceptional
                        # zeros about the zeros s of S (complex) at
                        # degree index n >= 1, on the principal branch
    # (spec, x) -> (S, S'); by default Horner on S's table
    S_at: object = lambda s, x: (_horner(s.S.c, x), _horner(s.S.d1, x))
    # (spec, top) -> the Recurrence table of u to degree top, which u
    # reads through FamilySpec.recurrence; None where u takes no table
    recurrence: object = None


def _half_line_lead(spec, f):
    if lgamma(spec.m + 1) + lgamma(spec.n + 1) > _LOG_RANGE_CAP:
        raise RepresentationOverflow(
            f"1/(m! n!) underflows binary64 at m={spec.m}, n={spec.n}")
    return f * (1.0 / float(factorial(spec.m) * factorial(spec.n)))


def _log_abs(v):
    return log(abs(v)) if v else -inf


def _log_binom(z, k):
    """log|C(z, k)| from lgamma; -inf where C(z, k) = 0 (z an integer in
    [0, k)), and a negative integer z read as C(k - z - 1, k), of the
    same modulus."""
    if z == int(z):
        if z < 0:
            z = k - z - 1
        elif z < k:
            return -inf
    return lgamma(z + 1) - lgamma(k + 1) - lgamma(z - k + 1)


def _jac_regime(spec):
    w = []
    # S = P_m^(-alpha-1, beta-1): 2m+a+b = m-1-(alpha+1-m-beta)
    if _jacobi_collapses(spec.m, -spec.alpha - 1.0, spec.beta - 1.0):
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
    gauss=lambda s, ns: laguerre_seed_ladder(ns, s.alpha),
    lead=_half_line_lead,
    log_lead=lambda s: (_log_abs(s.fam.lead_factor(s)) - lgamma(s.m + 1)
                        - lgamma(s.n + 1)),
    sigma=npoly.polymulx, tau=lambda s: (s.alpha + 1.0, -1.0),
    # Perron's formula outside the support: (log u)'(s) ~ -sqrt(n/(-s))
    law=lambda s, n: s - np.sqrt(-s / n),
    domain=lambda s, n: (0.0, 4.0 * n + 2.0 * s.alpha + 4.0 * s.m))

FAMILY = {
    "laguerre1": Family(
        **_HALF_LINE, S=lambda s: laguerre_coeffs(s.m, s.alpha - 1.0)
        * (-1.0) ** np.arange(s.m + 1),
        lam=lambda s, n: s.m + n, k=lambda s: 2.0 * s.alpha,
        q=lambda c: -c, lead_factor=lambda s: (-1.0) ** s.n,
        a=lambda s: 1.0, u=_lag1_u,
        u_coeffs=lambda s: laguerre_coeffs(s.n, s.alpha - 1.0),
        S_at=_lag1_S,
        regime=lambda s: ["alpha <= 0: weight not integrable at 0 and S "
                          "may vanish on the positive axis"]
        if s.alpha <= 0 else []),
    "laguerre2": Family(
        **_HALF_LINE, S=lambda s: laguerre_coeffs(s.m, -s.alpha - 1.0),
        lam=lambda s, n: n - s.m, k=lambda s: 2.0, q=npoly.polymulx,
        lead_factor=lambda s: (-1) ** (s.m + s.n)
        * (s.n + s.alpha + 1.0 - s.m),
        a=lambda s: s.alpha + 1.0,
        u=lambda s, n, x: laguerre_pass(n, s.alpha + 1.0, x,
                                        table=s.recurrence(n))[::2],
        recurrence=lambda s, top: _laguerre_table(top, s.alpha + 1.0),
        u_coeffs=lambda s: laguerre_coeffs(s.n, s.alpha + 1.0),
        regime=lambda s: ["alpha <= m-1: S may vanish on the positive axis"]
        if s.alpha <= s.m - 1 else []),
    "jacobi": Family(
        interval=(-1.0, 1.0), poles=(1.0, -1.0), exp_weight=False,
        S=lambda s: jacobi_coeffs(s.m, -s.alpha - 1.0, s.beta - 1.0),
        gauss=lambda s, ns: jacobi_seed_ladder(ns, s.alpha, s.beta),
        sigma=lambda c: npoly.polymul((1.0, 0.0, -1.0), c),
        tau=lambda s: (s.beta - s.alpha, -(s.alpha + s.beta + 2.0)),
        lam=lambda s, n: (s.m * (s.alpha - s.beta - s.m + 1.0)
                          + n * (n + s.alpha + s.beta + 1.0)),
        k=lambda s: -2.0 * s.beta, q=lambda c: npoly.polymul((1.0, -1.0), c),
        lead_factor=lambda s: s.m - s.n - s.alpha - 1.0,
        lead=lambda s, f: f * s.S.c[-1] * (
            np.ldexp(gen_binom(2 * s.n + s.alpha + s.beta, s.n), -s.n)),
        log_lead=lambda s: (_log_abs(s.fam.lead_factor(s))
                            + _log_abs(s.S.c[-1])
                            + _log_binom(2 * s.n + s.alpha + s.beta, s.n)
                            - s.n * log(2.0)),
        a=lambda s: -(s.alpha + 1.0),
        # Darboux's formula outside [-1, 1]: (log u)'(s) ~ n/sqrt(s^2 - 1)
        law=lambda s, n: s + s * np.sqrt(1 - 1 / (s * s)) / n,
        u=lambda s, n, x: jacobi_pass(n, s.alpha + 1.0, s.beta - 1.0, x,
                                      table=s.recurrence(n))[::2],
        recurrence=lambda s, top: _jacobi_table(top, s.alpha + 1.0,
                                                s.beta - 1.0),
        u_coeffs=lambda s: _jacobi_coeffs_top_down(s.n, s.alpha + 1.0,
                                                   s.beta - 1.0),
        regime=_jac_regime,
        domain=lambda s, n: (-1.0, 1.0)),
}

FAMILIES = tuple(FAMILY)

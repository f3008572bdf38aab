"""Exceptional-family construction.

Each family is a codimension-m deformation of a classical orthogonal
system: a fixed degree-m polynomial S (a classical polynomial with
shifted or negated parameters) divides the weight as 1/S^2, and the
degree-(m+n) members solve a second-order ODE with polynomial
coefficients A y'' + B y' + C y = 0 built from S.

Three families are supported:

  laguerre1   S(x) = L_m^(alpha-1)(-x)          orthogonality on (0, inf)
  laguerre2   S(x) = L_m^(-alpha-1)(x)          orthogonality on (0, inf)
  jacobi      S(x) = P_m^(-alpha-1, beta-1)(x)  orthogonality on (-1, 1)

Degree-(m+n) members are produced two ways that cross-check each other:
a least-squares nullspace solve of the ODE in the monomial basis
(build_exceptional), and closed-form pointwise evaluators assembled from
classical polynomials (exceptional_eval_pair, which returns y and y' from
one recurrence sweep per classical factor), which stay accurate at
degrees where monomial coefficients are useless.
"""

from dataclasses import dataclass, field
from math import factorial, lgamma

import numpy as np
import numpy.polynomial.polynomial as npoly

from .classical_poly import (gen_binom, jacobi_coeffs, jacobi_pass,
                             laguerre_coeffs, laguerre_pass, trim)
from .errors import (InvalidFamily, NullspaceDefect, RepresentationOverflow,
                     SingularEvaluation, ValidationError)

FAMILIES = ("laguerre1", "laguerre2", "jacobi")

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
        if self.family == "jacobi":
            if self.beta is None:
                raise ValidationError("jacobi requires beta")
        elif self.beta is not None:
            raise ValidationError(f"{self.family} takes no beta")

    @property
    def degree(self):
        return self.m + self.n

    @property
    def interval(self):
        """Open orthogonality interval (a, b); b may be inf."""
        if self.family == "jacobi":
            return (-1.0, 1.0)
        return (0.0, np.inf)

    def regime_warnings(self):
        """Out-of-regime diagnostics.  Construction still proceeds; the
        electrostatic and stability statements are only claimed inside
        the listed ranges."""
        w = []
        if self.family == "laguerre1":
            if self.alpha <= 0:
                w.append("alpha <= 0: weight not integrable at 0 and S "
                         "may vanish on the positive axis")
        elif self.family == "laguerre2":
            if self.alpha <= self.m - 1:
                w.append("alpha <= m-1: S may vanish on the positive axis")
        else:
            t = self.alpha + 1 - self.m - self.beta
            if abs(t - round(t)) < 1e-12 and 0 <= round(t) <= self.m - 1:
                w.append("alpha+1-m-beta is an integer in {0..m-1}: S "
                         "degenerates (degree collapse)")
            cond_a = -1 < self.beta < 0 and -1 < self.alpha + 1 - self.m < 0
            cond_b = self.beta > 0 and self.alpha + 1 - self.m > 0
            if not (cond_a or cond_b):
                w.append("(beta, alpha+1-m) not jointly in (-1,0) or "
                         "(0,inf): zero clustering of S unguaranteed")
        return w

    def as_dict(self):
        d = {"family": self.family, "m": self.m, "alpha": self.alpha,
             "n": self.n}
        if self.beta is not None:
            d["beta"] = self.beta
        return d


def build_S(spec):
    """Monomial coefficients (ascending) of the denominator polynomial S."""
    m, al = spec.m, spec.alpha
    if spec.family == "laguerre1":
        c = laguerre_coeffs(m, al - 1.0)
        c = c * (-1.0) ** np.arange(m + 1)     # compose with x -> -x
        return c
    if spec.family == "laguerre2":
        return laguerre_coeffs(m, -al - 1.0)
    return jacobi_coeffs(m, -al - 1.0, spec.beta - 1.0)


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
    """Coefficient vectors of the family ODE at degree index n.

    With S' the derivative of S:

      laguerre1: A = x S, B = (alpha+1-x) S - 2 x S',
                 C = (m+n) S - 2 alpha S'
      laguerre2: A = x S, B = (alpha+1-x) S - 2 x S',
                 C = (n-m) S + 2 x S'
      jacobi:    A = (1-x^2) S,
                 B = (beta-alpha-(alpha+beta+2) x) S - 2 (1-x^2) S',
                 C = lambda S - 2 beta (1-x) S',
                 lambda = m(alpha-beta-m+1) + n(n+alpha+beta+1)

    For m = 0 each reduces to the classical second-order equation.
    """
    Sc = build_S(spec)
    Sp = npoly.polyder(Sc) if len(Sc) > 1 else np.zeros(1)
    m, n, al = spec.m, spec.n, spec.alpha
    if spec.family in ("laguerre1", "laguerre2"):
        A = npoly.polymulx(Sc)
        B = npoly.polysub(npoly.polymul([al + 1.0, -1.0], Sc),
                          2.0 * npoly.polymulx(Sp))
        if spec.family == "laguerre1":
            C = npoly.polysub((m + n) * Sc, 2.0 * al * Sp)
        else:
            C = npoly.polyadd((n - m) * Sc, 2.0 * npoly.polymulx(Sp))
    else:
        be = spec.beta
        lam = m * (al - be - m + 1.0) + n * (n + al + be + 1.0)
        one_m_x2 = np.array([1.0, 0.0, -1.0])
        A = npoly.polymul(one_m_x2, Sc)
        B = npoly.polysub(npoly.polymul([be - al, -(al + be + 2.0)], Sc),
                          2.0 * npoly.polymul(one_m_x2, Sp))
        C = npoly.polysub(lam * Sc, 2.0 * be * npoly.polymul([1.0, -1.0], Sp))
    A, B, C = trim(A), trim(B), trim(C)
    sing = np.roots(A[::-1]) if len(A) > 1 else np.empty(0)
    return RationalODE(A=A, B=B, C=C, singular_points=sing)


def leading_coefficient(spec):
    """Normalizing leading coefficient of the degree-(m+n) member.

    laguerre1: (-1)^n / (m! n!)
    laguerre2: (-1)^(m+n) (n+alpha+1-m) / (m! n!)
    jacobi:    (m-n-alpha-1) * lead(S) * lead(P_n^(alpha+1,beta-1))
    """
    m, n, al = spec.m, spec.n, spec.alpha
    if spec.family in ("laguerre1", "laguerre2"):
        if lgamma(m + 1) + lgamma(n + 1) > _LOG_RANGE_CAP:
            raise RepresentationOverflow(
                f"1/(m! n!) underflows binary64 at m={m}, n={n}")
        base = 1.0 / float(factorial(m) * factorial(n))
        if spec.family == "laguerre1":
            return -base if n % 2 else base
        val = (n + al + 1.0 - m) * base
        return -val if (m + n) % 2 else val
    s_lead = build_S(spec)[-1]
    u_lead = gen_binom(2 * n + al + spec.beta, n) / 2.0 ** n
    return (m - n - al - 1.0) * s_lead * u_lead


def _magnitude_profile(spec):
    """Expected |coefficient| profile, used to precondition the nullspace
    solve.  Convolution of the absolute coefficients of the classical
    factors in the closed-form product; for the families whose product
    carries an extra factor of x the profile is max-combined with its
    shift.  A profile that overflows binary64 cannot precondition
    anything and raises NullspaceDefect."""
    m, n, al = spec.m, spec.n, spec.alpha
    try:
        with np.errstate(over="raise", invalid="raise"):
            if spec.family == "laguerre1":
                f = np.abs(laguerre_coeffs(m, al))
                g = np.abs(laguerre_coeffs(n, al - 1.0))
                d = np.convolve(f, g)
            elif spec.family == "laguerre2":
                f = np.abs(laguerre_coeffs(m, -al - 1.0))
                g = np.abs(laguerre_coeffs(n, al + 1.0))
                d = np.convolve(f, g)
                d = np.maximum(d, np.concatenate([[d[0]], d[:-1]]))
            else:
                f = np.abs(build_S(spec))
                g = np.abs(jacobi_coeffs(n, al + 1.0, spec.beta - 1.0))
                d = np.convolve(f, g)
                d = np.maximum(d, np.concatenate([[d[0]], d[:-1]]))
            d = np.maximum(d, np.max(d) * 1e-300)
    except FloatingPointError as exc:
        raise NullspaceDefect(
            f"coefficient magnitude profile overflows for {spec}") from exc
    if not np.all(np.isfinite(d)):
        raise NullspaceDefect(
            f"coefficient magnitude profile is not finite for {spec}")
    return d[: m + n + 1]


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
    NullspaceDefect.
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
    res = npoly.polyadd(
        npoly.polyadd(npoly.polymul(A, npoly.polyder(coeffs, 2))
                      if deg >= 2 else np.zeros(1),
                      npoly.polymul(B, npoly.polyder(coeffs))
                      if deg >= 1 else np.zeros(1)),
        npoly.polymul(C, coeffs))
    scale = max(np.max(np.abs(npoly.polymul(A, npoly.polyder(coeffs, 2))))
                if deg >= 2 else 0.0,
                np.max(np.abs(npoly.polymul(C, coeffs))))
    rel = np.max(np.abs(res)) / scale if scale > 0 else np.max(np.abs(res))
    if not rel <= BUILD_RESIDUAL_TOL:
        raise NullspaceDefect(
            f"ODE residual {rel:.3e} exceeds {BUILD_RESIDUAL_TOL:.0e} "
            f"for {spec}")
    return BuiltPolynomial(spec=spec, coeffs=coeffs, residual=float(rel),
                           warnings=tuple(spec.regime_warnings()))


def _coerce(x):
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.complexfloating):
        return x.astype(complex)
    return x.astype(float)


def _lag1_pair(m, n, al, x):
    # y = L_m^(al)(-x) L_n^(al-1)(x) + L_m^(al-1)(-x) L_{n-1}^(al)(x).
    # Both parameters come from one sweep of L^(al) each side, via
    # L_k^(al-1) = L_k^(al) - L_{k-1}^(al); the chain rule flips the sign
    # of the derivatives of the factors at -x.
    fm, fm1, dfm, dfm1 = laguerre_pass(m, al, -x)
    gn, gn1, dgn, dgn1 = laguerre_pass(n, al, x)
    f1, f2 = fm, fm - fm1
    g1, g2 = gn - gn1, gn1
    y = f1 * g1 + f2 * g2
    yp = f1 * (dgn - dgn1) + f2 * dgn1 - dfm * g1 - (dfm - dfm1) * g2
    return y, yp


def _S_pair(spec, x):
    Sc = build_S(spec)
    Sp = npoly.polyval(x, npoly.polyder(Sc)) if spec.m >= 1 \
        else np.zeros_like(x)
    return npoly.polyval(x, Sc), Sp


def _lag2_pair(spec, x):
    # y  = x S u' + ((al+1) S - x S') u,  u = L_n^(al+1)
    # y' = x S u' + ((m-n) S - x S') u, from eliminating u'' and S'' via
    # the classical ODEs of u and S.
    m, n, al = spec.m, spec.n, spec.alpha
    S, Sp = _S_pair(spec, x)
    u, _, up, _ = laguerre_pass(n, al + 1.0, x)
    y = x * S * up + ((al + 1.0) * S - x * Sp) * u
    yp = x * S * up + ((m - n) * S - x * Sp) * u
    return y, yp


def _jac_pair(spec, x):
    # y  = (1-x) S u' - ((al+1) S + (1-x) S') u,  u = P_n^(al+1, be-1)
    # y' = (-be (1-x) S u' + (-lam S + be (1-x) S') u) / (1+x)
    m, n, al, be = spec.m, spec.n, spec.alpha, spec.beta
    S, Sp = _S_pair(spec, x)
    u, _, up, _ = jacobi_pass(n, al + 1.0, be - 1.0, x)
    lam = m * (al - be - m + 1.0) + n * (n + al + be + 1.0)
    y = (1 - x) * S * up - ((al + 1.0) * S + (1 - x) * Sp) * u
    yp = (-be * (1 - x) * S * up + (-lam * S + be * (1 - x) * Sp) * u) \
        / (1 + x)
    return y, yp


def exceptional_eval_pair(spec, x):
    """Value and first derivative (y, y') of the exceptional polynomial at
    real or complex x, each classical factor taken from one recurrence
    sweep.

    Carries the same normalization as build_exceptional and stays
    accurate at degrees far beyond what monomial coefficients support.
    """
    x = _coerce(x)
    if spec.family == "laguerre1":
        return _lag1_pair(spec.m, spec.n, spec.alpha, x)
    if spec.family == "laguerre2":
        return _lag2_pair(spec, x)
    return _jac_pair(spec, x)


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

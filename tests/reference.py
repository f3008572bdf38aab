"""Independent references that the tests check the package against.

No command of the package reaches these; each stays because a test
checks a formula or a result with it:

- laguerre_zeros, jacobi_zeros: the Gauss nodes by Golub-Welsch, the
  eigenvalues of the symmetric tridiagonal Jacobi matrix, independent
  of the package's WKB seeds;
- second_derivative: y'' from the family ODE, y'' = -(B y' + C y)/A,
  refused near the zeros of A (singular_points, SingularEvaluation);
- phi, phi_closed: the potential of the normal form u'' + phi u = 0 of
  the family ODE, and the paper's closed form of it;
- maximize_log_T: the single-start ascent, a stack of one of the
  package's lockstep ascent; search_positive_h11, the small-alpha hunt
  for a positive Hessian diagonal entry;
- lagrange_basis, grunwald, hermite_form: the Lagrange fundamentals, the
  Gruenwald mean of any data and its first-order Hermite form, in the
  column blocks of the stability scan;
- log_energy, transfinite_d: F and the diameter functional of any nodes
  from the n(n-1)/2 pair logs, the pair-sum oracle of the diameter
  sweep's y' identity and of EnergyReport.logT.

pytest collects no test here; test files import it as they import
conftest.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly

from xfekete import interp
from xfekete.asymptotics import _check_c
from xfekete.classical_poly import (_as_float_or_complex, _gauss_range,
                                    _stack_tables, polyder)
from xfekete.energy import (_POLE_RTOL, _POLY_POLE, _checked, _compensated,
                            _stacked_logs, energy_hessian, v_weight,
                            weight_logs)
from xfekete.errors import (NonConvergence, NumericalError, PoleEvaluation,
                            ValidationError)
from xfekete.exceptional import FamilySpec, ladder_eval_pair, ode_coeffs
from xfekete.fekete_opt import ITMAX, _ascend, _check_box
from xfekete.roots import find_zeros


# ---------------------------------------------------------------- Gauss nodes

def _jacobi_matrix_eigvals(diag, off):
    """Eigenvalues of the symmetric tridiagonal (Jacobi) matrix with
    diagonal diag and off-diagonal off, filled into one zero matrix."""
    n = diag.size
    M = np.zeros((n, n))
    M.flat[::n + 1] = diag
    M.flat[1::n + 1] = off
    M.flat[n::n + 1] = off
    return np.linalg.eigvalsh(M)


def laguerre_zeros(n, a):
    """Zeros of L_n^(a) (a > -1) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.empty(0)
    _gauss_range(a)
    k = np.arange(n)
    diag = 2 * k + a + 1
    off = np.sqrt(k[1:] * (k[1:] + a))
    return _jacobi_matrix_eigvals(diag, off)


def jacobi_zeros(n, a, b):
    """Zeros of P_n^(a,b) (a, b > -1) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.empty(0)
    _gauss_range(a, b)
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)
    k = np.arange(1, n, dtype=float)
    off = np.empty(n - 1)
    if n > 1:
        diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
        # k = 1 with the common factor 1 + a + b cancelled; that factor
        # is 0 at a + b = -1, inside the range
        off[0] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    k = k[1:]
    num = 4 * k * (k + a) * (k + b) * (k + a + b)
    den = (2 * k + a + b) ** 2 * (2 * k + a + b + 1) * (2 * k + a + b - 1)
    off[1:] = num / den
    off = np.sqrt(off)
    return _jacobi_matrix_eigvals(diag, off)


# ---------------------------------------------------------------- the ODE

class SingularEvaluation(NumericalError):
    """Evaluation requested within 1e-12 of a zero of A."""


def singular_points(ode):
    """The zeros of A of a RationalODE, which may be complex."""
    A = ode.A
    return np.roots(A[::-1]) if len(A) > 1 else np.empty(0)


def _guard(ode, x):
    """x as a float or complex array; SingularEvaluation within 1e-12 of
    a zero of A (singular_points), measured in the complex plane."""
    x = _as_float_or_complex(x)
    if np.any(np.abs(x[..., None] - singular_points(ode)) < 1e-12):
        raise SingularEvaluation("evaluation within 1e-12 of a zero of A")
    return x


def second_derivative(spec, x):
    """y'' of the exceptional polynomial at x from the family ODE,
    y'' = -(B y' + C y) / A, with (y, y') from ladder_eval_pair;
    SingularEvaluation within 1e-12 of a zero of A."""
    ode = ode_coeffs(spec)
    x = _guard(ode, x)
    y, yp = ladder_eval_pair(spec, spec.n, x)
    return -(npoly.polyval(x, ode.B) * yp + npoly.polyval(x, ode.C) * y) \
        / npoly.polyval(x, ode.A)


# ---------------------------------------------------------------- potential

def rational_terms(ode, x):
    """M = B/A, N = C/A and M' of a RationalODE at x; SingularEvaluation
    within 1e-12 of a zero of A (_guard)."""
    x = _guard(ode, x)
    av = npoly.polyval(x, ode.A)
    bv = npoly.polyval(x, ode.B)
    apv = npoly.polyval(x, polyder(ode.A))
    bpv = npoly.polyval(x, polyder(ode.B))
    return (bv / av, npoly.polyval(x, ode.C) / av,
            (bpv * av - bv * apv) / av ** 2)


def phi(spec, x):
    """Potential of the normal form u'' + phi u = 0 of the family ODE.

    With y'' + M y' + N y = 0 (M = B/A, N = C/A from the cleared
    operator), phi = N - M^2/4 - M'/2.  Evaluation at a zero of A is a
    pole of the weight and raises PoleEvaluation.
    """
    try:
        M, N, Mp = rational_terms(ode_coeffs(spec), x)
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
    (_, (r,), _), near = _stacked_logs(_stack_tables(spec.S), x)
    if near.any():
        raise PoleEvaluation(_POLY_POLE)
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


# ---------------------------------------------------------------- pair sums

def _pair_logs(x):
    """log|x_j - x_i| of the pairs j > i of a node vector x, gathered in
    prefix order (np.tril_indices: sorted by j, then i), with no n x n
    difference matrix.  fsum rounds once in any order and |x_j - x_i| =
    |x_i - x_j| exactly, so an fsum of these is the fsum of the package's
    C-order cross logs (energy._cross_logs), bit for bit."""
    j, i = np.tril_indices(x.size, -1)
    cross = x[j]
    np.subtract(cross, x[i], out=cross)
    np.log(np.abs(cross, out=cross), out=cross)
    return cross


def log_energy(nodes, w):
    """F(nodes) = sum log w + 2 sum_{i<j} log|x_i - x_j| (compensated),
    from the weight logs and the cross logs alone: no gradient, Hessian
    or n x n difference matrix is formed; the cross logs come in prefix
    order (_pair_logs)."""
    x = _checked(nodes)[0]
    logw, _, _ = weight_logs(w, x)
    return _compensated(logw, _pair_logs(x))


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


# ---------------------------------------------------------------- ascent

def maximize_log_T(w, domain, n, init=None, itmax=ITMAX):
    """Ascend F to a stationary configuration of n nodes.

    Returns (nodes, trace) once max|grad F| < GTOL, the nodes polished
    by one more verified Newton step where that is kept (see _ascend).
    trace is a list of per-iteration records: logT, max_gradient, mode
    and step_scale, the scale of the step accepted from that iterate (1
    unless capped at the box edge or halved); a kept polish adds a last
    record of mode "polish".  The last record's logT is the compensated
    F of the nodes returned.  Raises DomainEscape when no damped step
    can stay inside the open domain, and NonConvergence (with the trace
    attached) after itmax iterations.  A box that holds a real zero of S
    of a hat or v weight raises ValidationError (_check_box).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if init is None:
        init = lo + (hi - lo) * (np.arange(1, n + 1)) / (n + 1.0)
    x = np.sort(np.asarray(init, dtype=float))
    if x.size != n:
        raise ValidationError(f"init has {x.size} nodes, expected {n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("init nodes must be finite")
    _check_box(w, lo, hi)
    (res,) = _ascend(w, (lo, hi), x[None], itmax)
    if isinstance(res, NumericalError):
        raise res
    return res


def search_positive_h11(trials=400, seed=0):
    """Hunt for a configuration whose first Hessian diagonal is positive.

    (log v)'' can exceed 0 just right of the origin when alpha is small
    (m = 1, low n); placing the remaining nodes far away keeps the
    off-diagonal repulsion below that curvature, so H_11 > 0 even though
    every diagonal entry is negative at the zero configuration itself.
    Samples alpha log-uniformly in [0.01, 0.3] and returns the first
    witness found.
    """
    rng = np.random.default_rng(seed)
    probe = np.geomspace(0.01, 1.0, 60)
    for _ in range(trials):
        alpha = float(10.0 ** rng.uniform(-2.0, np.log10(0.3)))
        n = int(rng.integers(1, 3))
        spec = FamilySpec("laguerre1", 1, alpha, n)
        try:
            v = v_weight(find_zeros(spec))
            _, _, d2 = weight_logs(v, probe)
        except NumericalError:
            continue
        k = int(np.argmax(d2))
        if d2[k] <= 0.0:
            continue
        x1, curv = float(probe[k]), float(d2[k])
        far = max(10.0, np.sqrt(16.0 / curv))
        nodes = np.concatenate([[x1], x1 + far * np.arange(1, 3)])
        H = energy_hessian(nodes, v).hessian
        if H[0, 0] > 0.0:
            return {"spec": spec, "alpha": alpha, "nodes": nodes,
                    "h11": float(H[0, 0]), "log_v_dd": curv}
    raise NonConvergence(f"no positive H_11 witness in {trials} trials")


# ---------------------------------------------------------------- operators

def _sign_fundamentals(nodes, sgnbw, x, cols):
    """sign(l_k(x)), shape (n, nx); 1 in a column cols with an exact node
    hit, whose fundamentals are the Kronecker 0s and 1."""
    sgnd = np.sign(x[None, :] - nodes[:, None])
    sgnlk = np.prod(sgnd, axis=0)[None, :] * sgnd * sgnbw[:, None]
    sgnlk[:, cols] = 1.0
    return sgnlk


def lagrange_basis(nodes):
    """Evaluator for the Lagrange fundamentals of the given nodes.

    The returned callable maps a scalar to an array of length n and an
    array of length nx to shape (n, nx).  Values at the nodes themselves
    are exact Kronecker deltas.
    """
    nodes, logbw = interp._node_logs(nodes)
    dif = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dif, 1.0)
    sgnbw = np.prod(np.sign(dif), axis=1)
    order = np.argsort(nodes)
    srt = nodes[order]

    def basis(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rows, cols = interp._hits(srt, order, x)
        loglk = interp._log_fundamentals(nodes, logbw, x, rows, cols)
        vals = _sign_fundamentals(nodes, sgnbw, x, cols) * np.exp(loglk)
        return vals[:, 0] if scalar else vals

    return basis


def _blockwise(n, block):
    """Evaluator over scalars and 1-d arrays x that fills its result
    from block(x, sl), column block by column block (_column_blocks)."""

    def evaluate(x):
        scalar = np.ndim(x) == 0
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x1.size)
        for sl in interp._column_blocks(n, x1.size):
            out[sl] = block(x1, sl)
        return float(out[0]) if scalar else out

    return evaluate


def grunwald(nodes, w, y=None):
    """Evaluator of the Gruenwald mean over the nodes.

    y holds the interpolated values at the nodes; omitted it defaults to
    all ones, giving the fundamental sum of the stability scan, whose
    range [0, 1] is the v-stability statement, with the scan's bits (a
    term times 1.0 is the term, and G is 1 at a node).  Each term is
    assembled as exp(log v(x) - log v(x_k) + 2 log|l_k(x)|) so no
    intermediate fundamental is ever formed directly.
    """
    nodes, terms = interp._weighted_terms(nodes, w)
    fvals = (np.ones(nodes.size) if y is None
             else np.asarray(y, dtype=float))

    def block(x, sl):
        t, (rows, cols) = terms(x, sl)
        t *= fvals[:, None]
        out = np.sum(t, axis=0)
        out[cols] = fvals[rows]
        return out

    return _blockwise(nodes.size, block)


def hermite_form(nodes, w):
    """Gruenwald mean written as a first-order Hermite interpolant.

    H(x) = sum_k (v(x)/v(x_k)) l_k(x)^2 (1 - (x - x_k) C_k) with the
    stationarity constants C_k, the gradient of F at the nodes
    (energy_hessian's, which follows the sorted nodes).  At the regular
    zeros the C_k vanish to rounding and H coincides with the
    fundamental sum.
    """
    nodes, terms = interp._weighted_terms(nodes, w)
    C = np.empty(nodes.size)
    C[np.argsort(nodes)] = energy_hessian(nodes, w).gradient

    def block(x, sl):
        t, (_, cols) = terms(x, sl)
        bracket = 1.0 - (x[sl][None, :] - nodes[:, None]) * C[:, None]
        with np.errstate(over="ignore"):
            out = np.sum(np.multiply(t, bracket, out=t), axis=0)
        out[cols] = 1.0
        return out

    return _blockwise(nodes.size, block)

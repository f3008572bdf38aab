"""A ladder, one spec and its degree indices n, solved in lockstep.

The references below are the serial forms the ladder replaced: the
recurrence sweeps with one degree for all points, and the Newton polish,
find_zeros and d_sequence one spec at a time.  Every operation a ladder
makes on one member's points is the operation the serial form makes, so
every comparison is on the bytes, errors included.  Each side of a
comparison builds its own spec objects, so neither reads what the other
cached on a spec.
"""

import itertools
import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest

import xfekete as xf
from xfekete import asymptotics, classical_poly, energy, exceptional, roots
from xfekete.classical_poly import Ladder, _as_float_or_complex, _horner

from reference import jacobi_sweep, laguerre_sweep


# ------------------------------------------------------------ references

def ref_laguerre_pass(n, a, x):
    # the serial scaled monic recurrence
    return laguerre_sweep(n, a, x)


def ref_laguerre_values(n, a, x):
    # the serial classical recurrence, values only
    x = _as_float_or_complex(x)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        s = 2 * k + 1 + a - x
        pm1, p = p, (s * p - (k + a) * pm1) / (k + 1)
    return p, pm1


def ref_jacobi_pass(n, a, b, x):
    # the serial scaled monic recurrence
    return jacobi_sweep(n, a, b, x)


def ref_newton(spec, x0, its=None):
    """The serial polish: one _ladder_eval_ratios call per iteration
    for this spec alone, until the prediction stops it, or a largest
    step that is not finite or did not shrink; its (if given) collects
    the iteration count.
    The first spec.n iterates take the quartic Householder step
    rho (1 - h/2) / (1 - h + rho^2 t3/6), h = rho t2 (rho where that is
    not finite); then each later
    one x_i takes rho_i / (1 - rho_i c_i), c_i the sum of 1/(x_i - x_j)
    over every other iterate x_j, the regular ones after their step."""
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    if x.size == 0:
        return x
    n = spec.n
    prev, last = np.inf, np.zeros(x.shape)
    done = np.zeros(x.shape, dtype=bool)
    # the order exponent q: the next step is about a (a/p)^q
    q = np.where(np.arange(x.size) < n, 4.0, 2.0)
    # coinciding iterates (an out-of-regime zero of S on a regular one)
    # give inf and NaN steps quietly, as in roots
    with np.errstate(**roots._QUIET):
        for it in itertools.count(1):
            v, dv, t2, t3 = exceptional._ladder_eval_ratios(spec, spec.n, x)
            rho = v / dv
            h = rho * t2
            step = rho * (1 - h / 2) / (1 - h + rho * rho * t3 / 6)
            step = np.where(np.isfinite(step), step, rho)
            x = np.concatenate([x[:n] - step[:n], x[n:]])
            dif = x[n:, None] - x[None, :]
            np.fill_diagonal(dif[:, n:], np.inf)
            c = np.sum(1.0 / dif, axis=1)
            step[n:] = rho[n:] / (1 - rho[n:] * c)
            x[n:] -= step[n:]
            a = np.abs(step) / (1 + np.abs(x))
            rel = float(np.max(a))
            # a point is done once the order of its step puts its next
            # step below NEWTON_TOL; trusted while every step is small
            done = (rel <= roots.PREDICT_TRUST) & (
                done | (a < roots.NEWTON_TOL)
                | ((a < last)
                   & (a ** (q + 1) <= roots.NEWTON_TOL * last ** q)))
            predicted = bool(done.all())
            if not np.isfinite(rel) or predicted or rel >= prev:
                break
            prev, last = rel, a
    if its is not None:
        its.append(it)
    if not (rel <= roots.CERT_TOL or predicted):
        raise xf.NonConvergence(
            f"Newton stopped after {it} iterations with relative step "
            f"{rel:.3e} for {spec}",
            [{"iterations": it, "relative_step": rel}])
    return x


def ref_gauss(spec):
    """The n seeds of spec's regular zeros alone: its family's raw WKB
    nodes on a ladder of one; raises their ValidationError."""
    (x,) = spec.fam.gauss(spec, [spec.n])
    if isinstance(x, xf.XFeketeError):
        raise x
    return x


def ref_law(spec):
    """The m seeds of the exceptional zeros: at n >= 1 each zero s of S
    moved by its family's one-term law, Laguerre's s - sqrt(-s/n) or
    Jacobi's s + s sqrt(1 - 1/s^2)/n (principal branch), unless s is
    real and its law value is not.  At n = 0 the member is a S - w S',
    so its own zeros, the roots of those coefficients (a and w: 1 and -1
    for laguerre1, alpha + 1 and x for laguerre2, -(alpha + 1) and 1 - x
    for jacobi), unless monic they leave binary64 or there are fewer
    than m of them: s then."""
    s, n = spec.S.roots, spec.n
    with np.errstate(**roots._QUIET):
        if n:
            e = (s + s * np.sqrt(1 - 1 / (s * s)) / n
                 if spec.family == "jacobi" else s - np.sqrt(-s / n))
            return np.where((s.imag == 0) & (e.imag != 0), s, e)
        a, w = {"laguerre1": (1.0, [-1.0]),
                "laguerre2": (spec.alpha + 1.0, [0.0, 1.0]),
                "jacobi": (-(spec.alpha + 1.0), [1.0, -1.0])}[spec.family]
        c = npoly.polysub(a * spec.S.c, npoly.polymul(w, spec.S.d1))
        if c.size == s.size + 1 and np.all(np.isfinite(c / c[-1])):
            return np.roots(c[::-1])
    return s


def ref_wkb_nodes(n, wkb):
    """The n zeros of one WKB phase wkb = (x_of, phase, dphase, shift) of
    degree n alone, in the order of increasing phase: the phase
    tabulated on 2n equal steps of [0, pi], inverted by np.interp at its
    targets (k - 1/4 + shift) pi, then one Newton step in psi."""
    x_of, phase, dphase, shift = wkb
    target = (np.arange(1, n + 1) - 0.25 + shift) * np.pi
    grid = np.linspace(0.0, np.pi, 2 * n + 1)
    psi = np.interp(target, phase(grid), grid)
    return x_of(psi - (phase(psi) - target) / dphase(psi))


def ref_seeds(spec):
    """The n seeds of the regular zeros, then the m of the exceptional
    ones; real when all of those are."""
    e = ref_law(spec)
    return np.concatenate([ref_gauss(spec), e if e.imag.any() else e.real])


def ref_find_zeros(spec, its=None):
    exceptional._nonzero_lead(spec, spec.fam.lead_factor(spec))
    x = ref_newton(spec, ref_seeds(spec), its=its)
    reg = np.sort(x[:spec.n].real)
    exc = roots._sort_zeros(x[spec.n:])
    for bad in roots._classify(spec, {0: (reg, exc)}).values():
        raise bad
    rts = np.concatenate([exc if exc.imag.any() else exc.real, reg])
    y, dy = exceptional.ladder_eval_pair(spec, spec.n, rts)
    (cert,) = roots._certificate(rts, y, dy, Ladder([rts.size]))
    if not cert["passed"]:
        raise xf.NonConvergence(f"residual certificate failed: {cert}",
                                [cert])
    return roots.ZeroSet(spec=spec, regular=reg, exceptional=exc,
                         s_zeros=roots._sort_zeros(spec.S.roots),
                         certificate=cert, regular_dy=dy[exc.size:])


def ref_d_sequence(m, alpha, n_range, c=1.0):
    wanted = sorted(set(int(n) for n in n_range))
    compute = sorted(set(wanted) | ({wanted[0] - 1} if wanted[0] > 2
                                    else set()))
    results, skipped = {}, []
    for n in compute:
        try:
            spec = xf.FamilySpec("laguerre1", m, alpha, n)
            zs = ref_find_zeros(spec)
            v, x = xf.v_weight(zs), zs.regular
            xf.weight_logs(v, x)    # the v weight's pole guards
            # log T from y' at the zeros, one compensated sum
            loghat, _, _ = xf.weight_logs(xf.WeightSpec(spec), x)
            logT = math.fsum([*loghat, *np.log(np.abs(_horner(v.P, x))),
                              *np.log(np.abs(zs.regular_dy)),
                              -n * spec.fam.log_lead(spec)])
            dval = -math.log(c / n) - logT / (n * (n - 1))
            hi = spec.fam.domain(spec, n)[1]
            grid = np.geomspace(1e-3, hi, 200)
            ratio = float(np.max(
                (_horner(v.P, grid) / _horner(spec.S.c, grid)) ** 2))
            results[n] = dval, ratio
        except xf.XFeketeError as exc:
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
    return xf.DiameterSeries(n_values=n_values, d=d, deltas=deltas,
                             rate_stats=stats, rate_stat=rate,
                             skipped=tuple(skipped), ps_ratio_max=ratios)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def outcome(fn, *args, **kwargs):
    """Comparable form of what fn returns, or of the error it raises."""
    try:
        res = fn(*args, **kwargs)
    except xf.XFeketeError as exc:
        res = exc
    return _outcome(res)


def _outcome(res):
    """Comparable form of a ZeroSet, an iterate array or an error."""
    if isinstance(res, Exception):
        return type(res), str(res), repr(getattr(res, "trace", None))
    if isinstance(res, np.ndarray):
        return res.dtype, res.shape, res.tobytes()
    return (res.spec, res.regular.tobytes(), res.exceptional.tobytes(),
            res.s_zeros.tobytes(), repr(res.certificate),
            res.regular_dy.tobytes())


# ------------------------------------------------- per-point degree sweeps

def _points():
    """Real, complex and 0-d points, with a Jacobi and a Laguerre scale."""
    rng = np.random.default_rng(5)
    real = rng.uniform(-1.5, 40.0, 13)
    cplx = real[:9] + 1j * rng.uniform(-3.0, 3.0, 9)
    return [real, cplx, np.asarray(real[3]), np.asarray(cplx[4]),
            real[:12].reshape(3, 4)]


def _arr(x):
    """x with at least one axis.  The reference sweeps work in array
    arithmetic throughout: numpy's complex scalar arithmetic (what a 0-d
    point decays to) rounds differently from its array loops, and the
    sweep gives a 0-d point the bits it has inside an array."""
    return np.atleast_1d(x)


def _one(x, idx):
    """The point x[idx] as a one-element array."""
    return np.asarray(x)[idx].reshape(1)


def _degrees(x, rng):
    """Per-point degrees for x: all 0, all 1, and mixed with repeats."""
    shape = np.shape(x)
    return [np.zeros(shape, dtype=int), np.ones(shape, dtype=int),
            rng.integers(0, 25, size=shape),
            np.full(shape, 7, dtype=int)]


@pytest.mark.parametrize("a", [-0.5, 0.0, 2.0, 7.25])
def test_laguerre_pass_per_point_degree_is_the_scalar_pass(a):
    rng = np.random.default_rng(1)
    for x in _points():
        for n in (0, 1, 2, 17):
            for got, want in zip(xf.laguerre_pass(n, a, x),
                                 ref_laguerre_pass(n, a, _arr(x))):
                assert _same(got, want.reshape(np.shape(x))), (n, x)
        for deg in _degrees(x, rng):
            got = xf.laguerre_pass(deg, a, x)
            for idx in np.ndindex(np.shape(x)):
                want = ref_laguerre_pass(int(deg[idx]), a, _one(x, idx))
                for g, w in zip(got, want):
                    assert _same(np.asarray(g)[idx], w[0]), (deg, x, idx)


@pytest.mark.parametrize("a,b", [(0.5, -0.5), (-0.3, -0.7), (0.0, 0.0),
                                 (2.5, 0.5), (-0.5, 3.0)])
def test_jacobi_pass_per_point_degree_is_the_scalar_pass(a, b):
    # a + b = 0 and a + b = -1 are where the k = 0 coefficient vanishes
    rng = np.random.default_rng(2)
    for x in _points():
        x = x / 40.0
        for n in (0, 1, 2, 17):
            for got, want in zip(xf.jacobi_pass(n, a, b, x),
                                 ref_jacobi_pass(n, a, b, _arr(x))):
                assert _same(got, want.reshape(np.shape(x))), (n, x)
        for deg in _degrees(x, rng):
            got = xf.jacobi_pass(deg, a, b, x)
            for idx in np.ndindex(np.shape(x)):
                want = ref_jacobi_pass(int(deg[idx]), a, b, _one(x, idx))
                for g, w in zip(got, want):
                    assert _same(np.asarray(g)[idx], w[0]), (deg, x, idx)


@pytest.mark.parametrize("a", [-0.5, 0.0, 2.0, 7.25])
def test_laguerre_values_against_mpmath(a):
    # the values-only sweep (the classical recurrence, which laguerre1
    # reads) to 40-digit mpmath at scalar and per-point degrees; each
    # error is measured against the local amplitude of the oscillation,
    # sqrt(|L_k|^2 + |x| |L_k'|^2 / k) (|L_k| where k = 0), and L_{-1} = 0
    # exactly.  The worst error here is 4.9e-15 of the amplitude
    rng = np.random.default_rng(1)
    for x in _points():
        for n in [0, 1, 2, 17] + _degrees(x, rng):
            got = classical_poly._laguerre_values(n, a, x)
            assert len(got) == 2
            deg = np.broadcast_to(n, np.shape(x))
            for idx in np.ndindex(np.shape(x)):
                with mpmath.workdps(40):
                    z = mpmath.mpmathify(complex(np.asarray(x)[idx]))
                    for g, k in zip(got, (deg[idx], deg[idx] - 1)):
                        g = np.asarray(g)[idx]
                        if k < 0:
                            assert g == 0, (n, x, idx)
                            continue
                        want = complex(mpmath.laguerre(k, a, z))
                        amp = abs(want)
                        if k > 0:
                            slope = abs(mpmath.laguerre(k - 1, a + 1, z))
                            amp = math.hypot(amp, float(slope) * math.sqrt(
                                abs(z) / k))
                        assert abs(g - want) <= 2e-14 * amp, (k, z, g, want)


def test_pass_broadcasts_degrees_over_a_0d_point():
    x = np.asarray(3.5)
    deg = np.array([4, 0, 9, 4])
    got = xf.laguerre_pass(deg, 1.5, x)
    assert got[0].shape == (4,)
    for i, n in enumerate(deg):
        want = ref_laguerre_pass(int(n), 1.5, _arr(x))
        assert all(_same(g[i], w[0]) for g, w in zip(got, want))


def test_pass_never_sweeps_a_point_past_its_degree():
    # at degree 400 the sweep overflows at x = 1600; the points of low
    # degree stop long before and stay finite, with no warning
    x = np.array([1600.0, 1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        top = xf.laguerre_pass(np.array([400, 5, 8]), 2.0, x)
    low = xf.laguerre_pass(np.array([5, 8]), 2.0, x[1:])
    for t, lo in zip(top, low):
        assert not np.isfinite(t[0])
        assert _same(t[1:], lo)


# ------------------------------------------------ sweeps at workload sizes

N_LARGE = 1500
LADDER_DEGREES = (0, 1, 20, 21, 150, 399, 400)

# family: (sweep, reference sweep, (lo, hi) near the interval, far reach)
SWEEPS = {
    "laguerre": (lambda n, x: classical_poly._laguerre_values(n, 2.0, x),
                 lambda n, x: ref_laguerre_values(n, 2.0, x),
                 (-2.0, 60.0), 3000.0),
    "laguerre_differentiated": (
        lambda n, x: xf.laguerre_pass(n, 2.0, x),
        lambda n, x: ref_laguerre_pass(n, 2.0, x),
        (-2.0, 60.0), 3000.0),
    "jacobi": (lambda n, x: xf.jacobi_pass(n, 2.5, 0.5, x),
               lambda n, x: ref_jacobi_pass(n, 2.5, 0.5, x),
               (-1.2, 1.2), 40.0),
}


def _large_points(near, far, rng):
    """N_LARGE real points, half near the orthogonality interval and
    half far out, where a degree-400 sweep overflows to inf and NaN;
    with a complex copy."""
    real = np.concatenate([rng.uniform(*near, N_LARGE // 2),
                           rng.uniform(-far, far, N_LARGE - N_LARGE // 2)])
    return real, real + 1j * rng.uniform(-3.0, 3.0, N_LARGE)


def _by_degree(ref, deg, x):
    """The reference pass of every point at its own degree: one
    reference sweep per distinct degree, over that degree's points."""
    want = [np.empty_like(x) for _ in range(4)]
    for d in np.unique(deg):
        at = deg == d
        for w, r in zip(want, ref(int(d), x[at])):
            w[at] = r
    return want


@pytest.mark.parametrize("family", SWEEPS)
def test_pass_is_the_reference_at_workload_sizes(family):
    sweep, ref, near, far = SWEEPS[family]
    rng = np.random.default_rng(7)
    for x in _large_points(near, far, rng):
        with np.errstate(over="ignore", invalid="ignore"):
            for n in (25, 150, 400):
                got = sweep(n, x)
                for g, w in zip(got, ref(n, x)):
                    assert _same(g, w), (n, x.dtype)
            # the far points overflow; the comparison holds NaN positions
            assert np.isnan(got[0]).any() and np.isfinite(got[0]).any()
            deg = rng.choice(LADDER_DEGREES, size=x.size)
            for g, w in zip(sweep(deg, x), _by_degree(ref, deg, x)):
                assert _same(g, w), x.dtype


@pytest.mark.parametrize("family", SWEEPS)
def test_pass_returns_fresh_arrays(family):
    sweep = SWEEPS[family][0]
    x = np.linspace(-0.9, 0.9, 7)
    for n in (6, np.array([6, 0, 3, 6, 1, 2, 5])):
        first = sweep(n, x)
        kept = [v.copy() for v in first]
        second = sweep(n + 3, x)
        assert all(_same(v, k) for v, k in zip(first, kept))
        assert not any(np.shares_memory(u, v)
                       for u in first for v in second)


@pytest.mark.parametrize("family", SWEEPS)
def test_pass_takes_unsigned_degrees(family):
    sweep = SWEEPS[family][0]
    x, deg = np.array([0.5, 0.7, 0.2]), np.array([0, 3, 1])
    for got, want in zip(sweep(deg.astype(np.uint8), x), sweep(deg, x)):
        assert _same(got, want)


@pytest.mark.parametrize("family", SWEEPS)
def test_pass_rejects_negative_and_non_integer_degrees(family):
    sweep = SWEEPS[family][0]
    x = np.array([0.2, 0.5])
    for n in (-1, np.array([2, -1]), np.array([[0], [-3]])):
        with pytest.raises(ValueError, match="nonnegative"):
            sweep(n, x)
    for n in (2.5, np.array([2.0, 3.5]), np.float64(1.0)):
        with pytest.raises(ValueError, match="integer"):
            sweep(n, x)


# ------------------------------------------------------- Newton ladders

LADDERS = [
    ("laguerre1", 1, 2.0, None, (20, 150, 400)),
    ("laguerre1", 3, 1.5, None, (0, 1, 5, 30, 80)),
    ("laguerre2", 2, 3.3, None, (0, 3, 20, 60)),
    ("laguerre2", 4, 1.5, None, (0, 1, 10)),          # out of regime
    ("jacobi", 3, 1.0, 0.5, (0, 1, 2, 10)),           # n = 1 collapses
    ("jacobi", 1, 2.5, 1.5, (5, 60, 100, 200)),
    ("jacobi", 2, 1.8, 0.7, (0, 2, 10, 40)),
    ("jacobi", 1, -0.3, -0.7, (3, 12)),
]


def _ladder(family, m, alpha, beta, ns):
    """The arguments of find_zeros_ladder: the spec at the first n, and
    every n."""
    return xf.FamilySpec(family, m, alpha, ns[0], beta), list(ns)


def _members(family, m, alpha, beta, ns):
    """The serial side's specs, one per n."""
    return [xf.FamilySpec(family, m, alpha, n, beta) for n in ns]


@pytest.mark.parametrize("ladder", LADDERS, ids=lambda c: f"{c[0]}-m{c[1]}")
def test_ladder_find_zeros_is_the_serial_find_zeros(ladder):
    # laguerre1 at n = 400 overflows in the recurrence (a known defect);
    # its failure must be the serial one, so its warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        got = roots.find_zeros_ladder(*_ladder(*ladder))
        want = [outcome(ref_find_zeros, s) for s in _members(*ladder)]
        alone = [outcome(xf.find_zeros, s) for s in _members(*ladder)]
    assert [_outcome(g) for g in got] == want == alone
    # reversed order gives the same members
    spec, ns = _ladder(*ladder)
    with np.errstate(over="ignore", invalid="ignore"):
        back = roots.find_zeros_ladder(spec, ns[::-1])
    assert [_outcome(g) for g in back[::-1]] == want


# laguerre2 ladders from n = 5 to 200, every member certified: each
# sweep of the ladder reads the one recurrence table its spec keeps,
# built at the ladder's largest degree
LAGUERRE2_LADDERS = [(1, 1.909), (2, 4.5), (3, 4.5), (4, 5.6), (5, 7.212)]


@pytest.mark.parametrize("m,alpha", LAGUERRE2_LADDERS)
def test_laguerre2_ladder_members_are_their_single_finds(m, alpha):
    ladder = ("laguerre2", m, alpha, None, (5, 20, 80, 150, 200))
    got = roots.find_zeros_ladder(*_ladder(*ladder))
    alone = [outcome(xf.find_zeros, s) for s in _members(*ladder)]
    assert all(isinstance(g, roots.ZeroSet) for g in got)
    assert [_outcome(g) for g in got] == alone


@pytest.mark.parametrize("ladder", [
    ("laguerre2", 2, 3.3, None, (0, 3, 20, 60)),
    ("jacobi", 1, 2.5, 1.5, (5, 60, 100, 200)),
    ("laguerre1", 3, 1.5, None, (1, 5, 30, 80))],
    ids=lambda c: f"{c[0]}-m{c[1]}")
def test_a_ladder_builds_one_table_per_classical_factor(monkeypatch,
                                                        ladder):
    # every Newton round and the certificate sweep u on one Recurrence
    # table, built once, at the ladder's largest degree; laguerre1's
    # sweeps (the classical recurrence) take none.  A later find on the
    # spec, which keeps its table, builds none
    builds = []
    for name in ("_laguerre_table", "_jacobi_table"):
        def counted(top, *params, build=getattr(exceptional, name)):
            builds.append(top)
            return build(top, *params)

        monkeypatch.setattr(exceptional, name, counted)
    calls = _record_pair_calls(monkeypatch)
    spec, ns = _ladder(*ladder)
    got = roots.find_zeros_ladder(spec, ns)
    assert all(isinstance(g, roots.ZeroSet) for g in got)
    assert len(calls) >= 3
    assert builds == ([] if ladder[0] == "laguerre1" else [max(ns)])
    builds.clear()
    xf.find_zeros(spec)
    assert builds == []


def test_ladders_mix_passing_and_failing_members():
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for ladder in LADDERS:
            for res in roots.find_zeros_ladder(*_ladder(*ladder)):
                kinds.add(type(res))
    assert {roots.ZeroSet, xf.NonConvergence, xf.DegreeCollapse} <= kinds


# the benchmark's diameter chunks as ladders (10..19, 70..79 and 140..150,
# each with the member below it) and its whole n = 10..150 sweep as one
# ladder of 142 members
BENCHMARK_LADDERS = [range(9, 20), range(69, 80), range(139, 151),
                     range(9, 151)]


@pytest.mark.parametrize("ns", BENCHMARK_LADDERS,
                         ids=lambda r: f"n{r.start}-{r.stop - 1}")
def test_benchmark_ladders_are_the_serial_find_zeros(ns):
    got = roots.find_zeros_ladder(xf.FamilySpec("laguerre1", 1, 2.0, ns[0]),
                                  list(ns))
    alone = [outcome(xf.find_zeros, xf.FamilySpec("laguerre1", 1, 2.0, n))
             for n in ns]
    assert [_outcome(g) for g in got] == alone
    assert all(isinstance(g, roots.ZeroSet) for g in got)


def test_ladder_members_end_at_different_stages(monkeypatch):
    # n = 7's lead collapses (patched), n = 400's recurrence overflows in
    # its first Newton round (a NaN step), n = 12's polish hands back its
    # seeds, so its certificate fails (patched), and the rest certify;
    # each member gets the outcome it has alone, under the same patches
    lead, polish = roots._nonzero_lead, roots._newton_ladder

    def collapsing(spec, v):
        return lead(spec, 0 if spec.n == 7 else v)

    def unpolished(spec, ns, x0s):
        got = polish(spec, ns, x0s)
        return [x0 if n == 12 else g for n, x0, g in zip(ns, x0s, got)]

    monkeypatch.setattr(roots, "_nonzero_lead", collapsing)
    monkeypatch.setattr(roots, "_newton_ladder", unpolished)
    ns = [20, 7, 400, 12, 5, 150]
    with np.errstate(over="ignore", invalid="ignore"):
        got = roots.find_zeros_ladder(xf.FamilySpec("laguerre1", 1, 2.0, 20),
                                      ns)
        alone = [outcome(xf.find_zeros, xf.FamilySpec("laguerre1", 1, 2.0, n))
                 for n in ns]
    assert [_outcome(g) for g in got] == alone
    assert isinstance(got[1], xf.DegreeCollapse)
    assert isinstance(got[2], xf.NonConvergence)
    assert "Newton stopped after 1 iterations" in str(got[2])
    assert math.isnan(got[2].trace[0]["relative_step"])
    assert isinstance(got[3], xf.NonConvergence)
    assert "residual certificate failed" in str(got[3])
    assert all(isinstance(got[i], roots.ZeroSet) for i in (0, 4, 5))


def test_ladder_classifies_each_member_as_alone(monkeypatch):
    # the one pass over a ladder's zeros flags exactly the members whose
    # own checks fail: a repeated regular zero (n = 12), a regular zero
    # outside the interval (n = 14) and an exceptional zero inside it
    # (n = 16), among members with no regular zero (n = 0) at both ends
    polish = roots._newton_ladder

    def corrupted(spec, ns, x0s):
        got = polish(spec, ns, x0s)
        for n, x in zip(ns, got):
            if n == 12:
                x[1] = x[0]
            elif n == 14:
                x[3] = -0.5
            elif n == 16:
                x[n] = 0.5
        return got

    monkeypatch.setattr(roots, "_newton_ladder", corrupted)
    ns = [0, 10, 12, 14, 16, 18, 0]
    got = roots.find_zeros_ladder(xf.FamilySpec("laguerre1", 1, 2.0, 0), ns)
    alone = [outcome(xf.find_zeros, xf.FamilySpec("laguerre1", 1, 2.0, n))
             for n in ns]
    assert [_outcome(g) for g in got] == alone
    assert [type(g) for g in got] == [roots.ZeroSet] * 2 + [
        xf.CountMismatch] * 3 + [roots.ZeroSet] * 2
    assert len({str(g) for g in got[2:5]}) == 3


def test_classify_reports_each_members_first_failing_check():
    # one ladder (laguerre1: the interval (0, inf)) with clean members,
    # one with no regular zero, beside members that fail: each reports
    # the first of interval, order, exceptional zero inside the margin,
    # and the last names the member's first such zero
    spec = xf.FamilySpec("laguerre1", 2, 2.0, 3)
    clean = np.array([-2.0 + 0j, -1.0 + 0j])
    found = {
        3: (np.array([1.0, 2.0, 3.0]), clean),
        # outside the interval and out of order
        4: (np.array([-0.5, 2.0, 2.0]), clean),
        # out of order, with an exceptional zero inside the interval
        6: (np.array([1.0, 3.0, 2.0]), np.array([0.25 + 0j, 1.0 + 0j])),
        7: (np.empty(0), clean),
        # two exceptional zeros inside the interval
        9: (np.array([1.0, 2.0, 3.0]), np.array([0.5 + 0j, 0.75 + 0j])),
        # within the margin of the interval's end
        10: (np.array([5e-10, 2.0, 3.0]), clean),
        11: (np.array([1.0, 2.0, 3.0]), np.array([-1.0 - 2.0j,
                                                  -1.0 + 2.0j])),
    }
    got = roots._classify(spec, found)
    assert {i: (type(e), str(e)) for i, e in got.items()} == {
        4: (xf.CountMismatch,
            "regular zero on or outside the orthogonality interval"),
        6: (xf.CountMismatch, "regular zeros not strictly increasing"),
        9: (xf.CountMismatch, "exceptional zero (0.5+0j) inside the "
            "classification margin of the orthogonality interval"),
        10: (xf.CountMismatch,
             "regular zero on or outside the orthogonality interval")}
    assert roots._classify(spec, {}) == {}


def test_ladder_members_share_a_failing_S_each_with_its_own_error():
    # S overflows binary64 at m = 600; the ladder reads S first, and
    # each member fails with the message naming itself
    ladder = ("jacobi", 600, 600.5, 1.0, (2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        got = roots.find_zeros_ladder(*_ladder(*ladder))
        want = [outcome(ref_find_zeros, s) for s in _members(*ladder)]
    assert [_outcome(g) for g in got] == want
    assert all(isinstance(g, xf.RepresentationOverflow) for g in got)
    assert str(got[0]) != str(got[1])
    # a ladder with no degree has no members
    assert roots.find_zeros_ladder(_ladder(*ladder)[0], []) == []


def test_newton_ladder_is_the_serial_newton():
    ladder = ("jacobi", 1, 0.289, 2.53, (20, 80, 120))
    specs = _members(*ladder)
    # the full iterate arrays, and the Gauss seeds alone (plain Newton)
    for x0s in ([ref_seeds(s) for s in specs],
                [ref_gauss(s) for s in specs]):
        got = roots._newton_ladder(*_ladder(*ladder), x0s)
        for s, x0, g in zip(specs, x0s, got):
            want = outcome(ref_newton, s, x0)
            assert _outcome(g) == want
            (alone,) = roots._newton_ladder(s, [s.n], [x0])
            assert _outcome(alone) == want


def _record_pair_calls(monkeypatch):
    """Each pair evaluation that roots makes, a Newton round's
    _ladder_eval_ratios or the certificate's ladder_eval_pair, as (spec,
    degree per point, points)."""
    calls = []
    for name in ("ladder_eval_pair", "_ladder_eval_ratios"):
        def recorded(spec, n, x, evaluate=getattr(roots, name)):
            calls.append((spec, np.broadcast_to(n, np.shape(x)),
                          np.asarray(x)))
            return evaluate(spec, n, x)

        monkeypatch.setattr(roots, name, recorded)
    return calls


def _whole_members(call):
    """Whether a call holds m + n points of each member n it touches:
    every iterate of each live member, never the m exceptional ones
    alone."""
    spec, deg, _ = call
    ns, counts = np.unique(deg, return_counts=True)
    return bool(np.all(counts == spec.m + ns))


# ladders whose members all certify
WHOLE_LADDERS = [
    ("laguerre1", 3, 1.5, None, (1, 5, 30, 80)),
    ("laguerre2", 2, 3.3, None, (0, 3, 20, 60)),
    ("jacobi", 2, 1.8, 0.7, (0, 2, 10, 40)),
    ("jacobi", 1, 2.5, 1.5, (5, 60, 100, 200)),
]


@pytest.mark.parametrize("ladder", WHOLE_LADDERS,
                         ids=lambda c: f"{c[0]}-m{c[1]}")
def test_one_stage_sweeps_every_iterate_each_round(monkeypatch, ladder):
    """Every round, the certificate's included, evaluates all m + n
    iterates of each live member in one call; the calls are the slowest
    member's Newton rounds and one certificate round.  An in-regime
    laguerre1 member (all zeros of S real) sweeps real points only, its
    certificate's included."""
    members = _members(*ladder)
    its = []
    for s in members:
        ref_find_zeros(s, its=its)
    calls = _record_pair_calls(monkeypatch)
    # each member alone, then the whole ladder
    for group in [[i] for i in range(len(members))] + [range(len(members))]:
        calls.clear()
        got = roots.find_zeros_ladder(members[group[0]],
                                      [members[i].n for i in group])
        assert all(isinstance(g, roots.ZeroSet) for g in got)
        assert all(_whole_members(c) for c in calls)
        assert len(calls) == max(its[i] for i in group) + 1
        if ladder[0] == "laguerre1":
            assert not any(np.iscomplexobj(x) for *_, x in calls)


# ------------------------------------------------------------ d_sequence

# (m, alpha, ns, c): n = 190..200 is a large table, m = 0 has P = 1 and
# m = 5 a P of six coefficients
D_SEQUENCES = [
    (1, 2.0, range(10, 21), 1.0), (2, 1.5, range(3, 9), 1.0),
    (1, 0.3, range(2, 6), 1.0), (3, -0.5, range(4, 7), 1.0),
    (-1, 2.0, range(5, 7), 1.0), (1, np.inf, range(5, 7), 1.0),
    (1, 2.0, range(190, 201), 1.0), (0, 1.5, range(10, 16), 1.0),
    (5, 4.2, range(10, 16), 1.0), (2, 1.5, range(3, 9), 0.5)]


@pytest.mark.parametrize("m,alpha,ns,c", D_SEQUENCES, ids=[
    f"{m}-{alpha}-ns{k}" + ("" if c == 1.0 else f"-c{c}")
    for k, (m, alpha, _, c) in enumerate(D_SEQUENCES)])
def test_d_sequence_is_the_serial_sweep(m, alpha, ns, c):
    if m < 0 or not np.isfinite(alpha):
        # an invalid m or alpha ends the sweep typed, before any member
        with pytest.raises(xf.ValidationError):
            xf.d_sequence(m, alpha, ns, c)
        return
    got = xf.d_sequence(m, alpha, ns, c)
    _assert_same_series(got, ref_d_sequence(m, alpha, ns, c))


def _assert_same_series(got, want):
    assert got.skipped == want.skipped
    for f in ("n_values", "d", "deltas", "rate_stats", "ps_ratio_max"):
        assert _same(getattr(got, f), getattr(want, f)), f
    assert repr(got.rate_stat) == repr(want.rate_stat)


@pytest.mark.parametrize("guard", ["pole", "P"])
def test_d_sequence_skips_the_members_a_pole_guard_takes(monkeypatch,
                                                         guard):
    # the sweep's guards are the v weight's, with its messages in its
    # order: widened to 0.4, the guard of the pole at 0 takes n = 15..20,
    # whose smallest zeros lie below 0.4; a P with a zero at a node of
    # n = 15 trips the polynomial guard there alone
    if guard == "pole":
        monkeypatch.setattr(energy, "_POLE_RTOL", 0.4)
        taken, msg = range(15, 21), "evaluation point too close to x = 0"
    else:
        node_polynomial = energy._node_polynomial

        def at_a_node(zs):
            if zs.spec.n == 15:
                return np.array([-zs.regular[3], 1.0])
            return node_polynomial(zs)

        for mod in (energy, asymptotics):
            monkeypatch.setattr(mod, "_node_polynomial", at_a_node)
        taken, msg = [15], energy._POLY_POLE
    got = xf.d_sequence(1, 2.0, range(10, 21))
    assert got.skipped == tuple((n, f"PoleEvaluation: {msg}") for n in taken)
    _assert_same_series(got, ref_d_sequence(1, 2.0, range(10, 21)))


def test_d_sequence_runs_no_pair_sum(monkeypatch):
    # log T comes from y' at the zeros: no pair log is formed
    def refused(*args):
        raise AssertionError("a pair sum ran")

    for name in ("_cross_logs", "_assemble"):
        monkeypatch.setattr(energy, name, refused)
    series = xf.d_sequence(3, 2.7, range(140, 151))
    assert series.skipped == () and np.isfinite(series.d).all()


def test_d_sequence_skips_a_member_that_fails_its_diameter(monkeypatch):
    # n = 15 certifies but its node polynomial raises: its row goes,
    # n = 16 loses its delta, and every other row keeps its bits
    whole = xf.d_sequence(1, 2.0, range(10, 21))
    node_polynomial = asymptotics._node_polynomial

    def failing(zs):
        if zs.spec.n == 15:
            raise xf.ValidationError("P would be complex")
        return node_polynomial(zs)

    monkeypatch.setattr(asymptotics, "_node_polynomial", failing)
    got = xf.d_sequence(1, 2.0, range(10, 21))
    assert got.skipped == ((15, "ValidationError: P would be complex"),)
    keep = whole.n_values != 15
    assert _same(got.n_values, whole.n_values[keep])
    for f in ("d", "ps_ratio_max"):
        assert _same(getattr(got, f), getattr(whole, f)[keep]), f
    deltas = whole.deltas[keep]
    lost = got.n_values == 16
    assert np.isnan(got.deltas[lost]).all()
    assert _same(got.deltas[~lost], deltas[~lost])
    assert _same(got.rate_stats[~lost], whole.rate_stats[keep][~lost])


def test_d_sequence_sweeps_once_per_lockstep_round(monkeypatch):
    """Each lockstep round makes one sweep for all members, each member
    with all its m + n iterates, so the sweeps of degree >= 10 are no
    more than the rounds of the slowest member and the one certificate
    round; one spec at a time they were the sum over members, a
    certificate for each."""
    its = []
    for n in range(9, 21):
        ref_find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, n), its=its)
    rounds = max(its) + 1
    serial = sum(i + 1 for n, i in zip(range(9, 21), its) if n >= 10)
    sweeps = []
    real_pass = exceptional._laguerre_values

    def counted_pass(n, a, x):
        if np.size(x) and np.max(n) >= 10:
            sweeps.append(np.max(n))
        return real_pass(n, a, x)

    monkeypatch.setattr(exceptional, "_laguerre_values", counted_pass)
    calls = _record_pair_calls(monkeypatch)
    xf.d_sequence(1, 2.0, range(10, 21))
    assert len(calls) == rounds
    assert all(_whole_members(c) for c in calls)
    assert 0 < len(sweeps) <= rounds < serial


# ------------------------------------------------------------ seeds

# degrees unsorted, repeated and 0, and ladders whose members are all 0
# (no point in the sweep) or none
SEED_LADDERS = [[300, 0, 20, 1, 140, 2, 139, 0, 20], [0, 12, 0], [0, 0],
                [0], []]


@pytest.mark.parametrize("family,m,alpha,beta", [
    ("laguerre1", 1, 2.0, None), ("laguerre1", 3, 0.3, None),
    ("laguerre2", 2, 3.3, None), ("jacobi", 1, 2.5, 1.5),
    ("jacobi", 2, -0.3, -0.7), ("laguerre1", 1, -0.5, None),
    ("laguerre1", 1, 1e20, None), ("laguerre1", 1, 1e308, None),
    ("jacobi", 1, 1e308, 2.0)])
def test_ladder_seeds_are_each_members_own_seeds(family, m, alpha, beta):
    # one polishing sweep for all members gives every member the bits of
    # its own int-degree sweep; at alpha = 1e20 and 1e308 the WKB phase
    # leaves binary64, and the non-finite nodes keep their bits too
    spec = xf.FamilySpec(family, m, alpha, 0, beta)
    params = (alpha,) if beta is None else (alpha, beta)
    own = (classical_poly.laguerre_seed_ladder if beta is None
           else classical_poly.jacobi_seed_ladder)
    for ns in SEED_LADDERS:
        got = spec.fam.gauss(spec, ns)
        assert len(got) == len(ns)
        for n, x in zip(ns, got):
            # a ladder of one
            (alone,) = own([n], *params)
            assert _same(x, alone), (ns, n)


def test_seed_ladder_members_fail_alone_below_the_gauss_range():
    got = classical_poly.laguerre_seed_ladder([0, 3, 5], -1.5)
    assert _same(got[0], np.empty(0))
    assert all(isinstance(e, xf.ValidationError) for e in got[1:])
    assert got[1] is not got[2]
    got = classical_poly.jacobi_seed_ladder([2, 0], 2.0, -1.0)
    assert isinstance(got[0], xf.ValidationError)
    assert _same(got[1], np.empty(0))
    # in find_zeros_ladder each n >= 1 member records its own error, and
    # the n = 0 member (nothing to seed) its find_zeros outcome
    for ladder in [("laguerre1", 1, -1.5, None, (0, 3, 5)),
                   ("jacobi", 1, -2.0, 0.5, (0, 1, 3))]:
        got = roots.find_zeros_ladder(*_ladder(*ladder))
        alone = [outcome(xf.find_zeros, s) for s in _members(*ladder)]
        assert [_outcome(g) for g in got] == alone
        assert all(isinstance(g, xf.ValidationError) for g in got[1:])
        assert not isinstance(got[0], xf.ValidationError)
        assert got[1] is not got[2]


def test_phase_grids_are_linspace():
    # every member's phase table sits on np.linspace(0, pi, 2n + 1), bit
    # for bit, the members' grids laid out as one array
    for ns in ([1], [2], [5, 7], list(range(1, 400)), [1000, 3, 1]):
        sizes = [2 * n + 1 for n in ns]
        want = np.concatenate([np.linspace(0.0, np.pi, z) for z in sizes])
        assert _same(classical_poly._grids(Ladder(sizes)), want), ns


@pytest.mark.parametrize("seed", range(6))
def test_ladder_layout_is_per_member_numpy(seed):
    # the layout against each member's own array, over random sizes with
    # members of no point among them
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 6, rng.integers(1, 9)).tolist()
    lad = Ladder(sizes)
    parts = [rng.standard_normal(z) for z in sizes]
    x = lad.cat(parts)
    assert _same(x, np.concatenate(parts))
    assert all(_same(g, w) for g, w in zip(lad.split(x), parts))
    assert len(lad.split(x)) == len(sizes)
    assert _same(lad.index(), np.concatenate(
        [np.arange(z) for z in sizes]).astype(int))
    values = rng.integers(0, 100, len(sizes))
    assert _same(lad.per_point(values),
                 np.concatenate([np.full(z, v) for z, v in zip(sizes, values)]))
    rows = rng.standard_normal((len(sizes), 3))
    assert _same(lad.per_point(rows),
                 np.concatenate([np.tile(r, (z, 1))
                                 for z, r in zip(sizes, rows)]))
    assert _same(lad.reduce(np.maximum, x, -7.0),
                 [np.max(p) if p.size else -7.0 for p in parts])
    assert _same(lad.reduce(np.logical_and, x > 0.3, True),
                 [np.all(p > 0.3) for p in parts])
    assert _same(lad.member(np.arange(x.size)),
                 np.concatenate([np.full(z, i) for i, z in enumerate(sizes)])
                 .astype(np.intp))


def test_a_ladder_of_one_hands_back_its_array_and_value():
    x = np.arange(5.0)
    lad = Ladder([5])
    assert lad.cat([x]) is x
    (part,) = lad.split(x)
    assert part is x
    assert lad.per_point([7]) == 7 and isinstance(lad.per_point([7]), int)
    row = np.arange(3.0)
    assert lad.per_point([row]) is row
    assert _same(lad.index(), np.arange(5))
    assert _same(lad.reduce(np.maximum, x, 0.0), [4.0])


def _record_seed_degrees(monkeypatch, name):
    """The degrees each call of exceptional's seed ladder name asks for."""
    calls = []
    ladder = getattr(exceptional, name)

    def recorded(ns, *params):
        calls.append(list(ns))
        return ladder(ns, *params)

    monkeypatch.setattr(exceptional, name, recorded)
    return calls


@pytest.mark.parametrize("ladder", [("jacobi", 3, 1.0, 0.5, (0, 1, 2, 10)),
                                    ("jacobi", 1, -2.0, 0.5, (0, 1, 2, 3))])
def test_a_collapsed_lead_fails_before_any_seed(monkeypatch, ladder):
    # n = 1 (m - n - alpha - 1 = 0) and n = 2 collapse; at alpha = -2 the
    # others are below the Gauss range, and the collapse comes first
    collapsed = {3: 1, 1: 2}[ladder[1]]
    calls = _record_seed_degrees(monkeypatch, "jacobi_seed_ladder")
    got = roots.find_zeros_ladder(*_ladder(*ladder))
    assert calls == [[n for n in ladder[4] if n != collapsed]]
    alone = [outcome(xf.find_zeros, s) for s in _members(*ladder)]
    assert [_outcome(g) for g in got] == alone
    assert isinstance(got[ladder[4].index(collapsed)], xf.DegreeCollapse)


def _refuse_seed_sweeps(monkeypatch):
    """Every classical sweep of classical_poly, where the seeds are made,
    recorded and refused; the pair reads its own names in exceptional."""
    sweeps = []
    for name in ("laguerre_pass", "_laguerre_values", "jacobi_pass"):
        def refused(*args, name=name):
            sweeps.append(name)
            raise AssertionError(f"a seed sweep ran: {name}")

        monkeypatch.setattr(classical_poly, name, refused)
    return sweeps


def test_d_sequence_makes_no_seed_sweep(monkeypatch):
    # the seeds of the 12 members n = 9..20, and of a ladder of one
    # (find_zeros), are their raw WKB nodes: no recurrence sweep
    sweeps = _refuse_seed_sweeps(monkeypatch)
    series = xf.d_sequence(1, 2.0, range(10, 21))
    assert series.skipped == ()
    xf.find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, 20))
    assert sweeps == []
    for n in (9, 20):
        (seeds,) = classical_poly.laguerre_seed_ladder([n], 2.0)
        phase = classical_poly._laguerre_wkb(n, 2.0)
        assert _same(seeds, ref_wkb_nodes(n, phase))


# certified at parent with the seed polish sweep and 4 pair evaluations
# (3 for the jacobi n = 300 member)
THREE_ROUND_SPECS = [("laguerre1", 3, 2.7, 200, None),
                     ("laguerre2", 3, 4.5, 200, None),
                     ("jacobi", 2, 2.6, 120, 0.8),
                     ("laguerre1", 1, 2.0, 300, None),
                     ("laguerre2", 5, 7.212, 300, None),
                     ("jacobi", 1, 2.5, 300, 1.5)]


@pytest.mark.parametrize("family,m,alpha,n,beta", THREE_ROUND_SPECS)
def test_find_zeros_takes_two_rounds_and_the_certificate(monkeypatch, family,
                                                         m, alpha, n, beta):
    # quartic steps from raw WKB seeds and law seeds: two Newton rounds,
    # then the certificate, and no seed sweep
    sweeps = _refuse_seed_sweeps(monkeypatch)
    calls = _record_pair_calls(monkeypatch)
    zs = xf.find_zeros(xf.FamilySpec(family, m, alpha, n, beta))
    assert zs.certificate["passed"]
    assert len(calls) == 3 and sweeps == []

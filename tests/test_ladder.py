"""A ladder, one spec and its degree indices n, solved in lockstep.

The references below are the serial forms the ladder replaced: the
recurrence sweeps with one degree for all points, and the Newton polish,
find_zeros and d_sequence one spec at a time.  Every operation a ladder
makes on one member's points is the operation the serial form makes, so
every comparison is on the bytes, errors included.  Each side of a
comparison builds its own spec objects, so neither reads what the other
cached on a spec.
"""

import math

import numpy as np
import pytest

import xfekete as xf
from xfekete import asymptotics, classical_poly, energy, exceptional, roots
from xfekete.classical_poly import _as_float_or_complex, _horner


# ------------------------------------------------------------ references

def ref_laguerre_pass(n, a, x, differentiated=False):
    # the derivatives from the running sum t = L_0 + ... + L_{n-1},
    # which is L_{n-1}^(a+1): L_n' = -t, L_{n-1}' = L_{n-1} - t; or,
    # differentiated, from the differentiated recurrence
    x = _as_float_or_complex(x)
    p, pm1, t = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    d, dm1 = np.zeros_like(x), np.zeros_like(x)
    for k in range(n):
        s = 2 * k + 1 + a - x
        t = t + p
        pm1, p, dm1, d = (p, (s * p - (k + a) * pm1) / (k + 1),
                          d, (s * d - p - (k + a) * dm1) / (k + 1))
    if differentiated:
        return p, pm1, d, dm1
    return p, pm1, -t, pm1 - t


def ref_jacobi_pass(n, a, b, x):
    x = _as_float_or_complex(x)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    d, dm1 = np.zeros_like(x), np.zeros_like(x)
    if n == 0:
        return p, pm1, d, dm1
    p, pm1 = 0.5 * (a - b + (a + b + 2) * x), p
    d = d + 0.5 * (a + b + 2)
    for k in range(1, n):
        k1 = k + 1
        c1 = 2 * k1 * (k1 + a + b) * (2 * k1 + a + b - 2)
        c2 = (2 * k1 + a + b - 1) * (a * a - b * b)
        c3 = (2 * k1 + a + b - 2) * (2 * k1 + a + b - 1) * (2 * k1 + a + b)
        c4 = 2 * (k1 + a - 1) * (k1 + b - 1) * (2 * k1 + a + b)
        s = c2 + c3 * x
        pm1, p, dm1, d = (p, (s * p - c4 * pm1) / c1,
                          d, (s * d + c3 * p - c4 * dm1) / c1)
    return p, pm1, d, dm1


def ref_newton(spec, x0, itmax=60, its=None):
    """The serial polish: one ladder_eval_pair call per iteration
    for this spec alone; its (if given) collects the iteration count.
    The first spec.n iterates take plain Newton steps rho = y/y'; each
    later one x_i takes rho_i / (1 - rho_i c_i), c_i the sum of
    1/(x_i - x_j) over every other iterate x_j."""
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    if x.size == 0:
        return x
    n = spec.n
    prev, last = np.inf, np.zeros(x.shape)
    done = np.zeros(x.shape, dtype=bool)
    # coinciding iterates (an out-of-regime zero of S on a regular one)
    # give inf and NaN steps quietly, as in roots
    with np.errstate(**roots._QUIET):
        for it in range(1, itmax + 1):
            v, dv = exceptional.ladder_eval_pair(spec, spec.n, x)
            step = v / dv
            dif = x[n:, None] - x[None, :]
            np.fill_diagonal(dif[:, n:], np.inf)
            c = np.sum(1.0 / dif, axis=1)
            step[n:] = step[n:] / (1 - step[n:] * c)
            x = x - step
            a = np.abs(step) / (1 + np.abs(x))
            rel = float(np.max(a))
            # a point is done once quadratic convergence puts its next
            # step below NEWTON_TOL; trusted while every step is small
            done = (rel <= roots.PREDICT_TRUST) & (
                done | (a < roots.NEWTON_TOL)
                | ((a < last) & (a ** 3 <= roots.NEWTON_TOL * last ** 2)))
            predicted = bool(done.all())
            if (not np.isfinite(rel) or predicted
                    or roots.NEWTON_FLOOR > rel >= prev):
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
    """The n Gauss nodes of spec alone: its family's seeds on a ladder of
    one, an int-degree polishing sweep; raises their ValidationError."""
    (x,) = spec.fam.gauss(spec, [spec.n])
    if isinstance(x, xf.XFeketeError):
        raise x
    return x


def ref_seeds(spec):
    """The n Gauss nodes, then the m zeros of S; real when they are."""
    gauss, r = ref_gauss(spec), spec.S.roots
    return np.concatenate([gauss, r if r.imag.any() else r.real])


def ref_find_zeros(spec, its=None):
    exceptional._nonzero_lead(spec, spec.fam.lead_factor(spec))
    x = ref_newton(spec, ref_seeds(spec), its=its)
    reg = np.sort(x[:spec.n].real)
    exc = roots._sort_zeros(x[spec.n:])
    roots._classify(spec, reg, exc)
    rts = np.concatenate([exc if exc.imag.any() else exc.real, reg])
    y, dy = exceptional.ladder_eval_pair(spec, spec.n, rts)
    cert = roots._certificate(rts, y, dy)
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
def test_differentiated_laguerre_pass_is_the_reference(a):
    # the values of the scalar pass, the derivatives of the
    # differentiated recurrence, at scalar and per-point degrees
    rng = np.random.default_rng(1)
    for x in _points():
        for n in (0, 1, 2, 17):
            got = xf.laguerre_pass(n, a, x, differentiated=True)
            want = ref_laguerre_pass(n, a, _arr(x), differentiated=True)
            assert all(_same(g, w.reshape(np.shape(x)))
                       for g, w in zip(got, want)), (n, x)
            assert all(_same(g, v) for g, v in
                       zip(got[:2], xf.laguerre_pass(n, a, x)[:2]))
        for deg in _degrees(x, rng):
            got = xf.laguerre_pass(deg, a, x, differentiated=True)
            for idx in np.ndindex(np.shape(x)):
                want = ref_laguerre_pass(int(deg[idx]), a, _one(x, idx),
                                         differentiated=True)
                for g, w in zip(got, want):
                    assert _same(np.asarray(g)[idx], w[0]), (deg, x, idx)


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
    "laguerre": (lambda n, x: xf.laguerre_pass(n, 2.0, x),
                 lambda n, x: ref_laguerre_pass(n, 2.0, x),
                 (-2.0, 60.0), 3000.0),
    "laguerre_differentiated": (
        lambda n, x: xf.laguerre_pass(n, 2.0, x, differentiated=True),
        lambda n, x: ref_laguerre_pass(n, 2.0, x, differentiated=True),
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


def test_ladders_mix_passing_and_failing_members():
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for ladder in LADDERS:
            for res in roots.find_zeros_ladder(*_ladder(*ladder)):
                kinds.add(type(res))
    assert {roots.ZeroSet, xf.NonConvergence, xf.DegreeCollapse} <= kinds


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


@pytest.mark.parametrize("itmax", [1, 2, 60])
def test_newton_ladder_is_the_serial_newton(itmax):
    ladder = ("jacobi", 1, 0.289, 2.53, (20, 80, 120))
    specs = _members(*ladder)
    # the full iterate arrays, and the Gauss seeds alone (plain Newton)
    for x0s in ([ref_seeds(s) for s in specs],
                [ref_gauss(s) for s in specs]):
        got = roots._newton_ladder(*_ladder(*ladder), x0s, itmax)
        for s, x0, g in zip(specs, x0s, got):
            want = outcome(ref_newton, s, x0, itmax)
            assert _outcome(g) == want
            (alone,) = roots._newton_ladder(s, [s.n], [x0], itmax)
            assert _outcome(alone) == want


def _record_pair_calls(monkeypatch):
    """Each ladder_eval_pair call that roots makes, as (spec, degree per
    point, points)."""
    calls = []
    pair = roots.ladder_eval_pair

    def recorded(spec, n, x):
        calls.append((spec, np.broadcast_to(n, np.shape(x)), np.asarray(x)))
        return pair(spec, n, x)

    monkeypatch.setattr(roots, "ladder_eval_pair", recorded)
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

# (m, alpha, ns, c): n = 190..200 is the largest table under N_CAP, m = 0
# has P = 1 and m = 5 a P of six coefficients
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
    real_pass = exceptional.laguerre_pass

    def counted_pass(n, a, x):
        if np.size(x) and np.max(n) >= 10:
            sweeps.append(np.max(n))
        return real_pass(n, a, x)

    monkeypatch.setattr(exceptional, "laguerre_pass", counted_pass)
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


def test_d_sequence_makes_one_seed_polishing_sweep(monkeypatch):
    # the seeds of the 12 members n = 9..20 take one sweep, each point at
    # its member's degree; a ladder of one (find_zeros) sweeps at an int
    # degree, with no concatenation
    sweeps = []
    real_pass = classical_poly.laguerre_pass

    def counted_pass(n, a, x, differentiated=False):
        sweeps.append((n, np.size(x), differentiated))
        return real_pass(n, a, x, differentiated)

    monkeypatch.setattr(classical_poly, "laguerre_pass", counted_pass)
    xf.d_sequence(1, 2.0, range(10, 21))
    ((n, size, differentiated),) = sweeps
    assert differentiated and size == sum(range(9, 21))
    assert _same(n, np.repeat(np.arange(9, 21), np.arange(9, 21)))
    sweeps.clear()
    xf.find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, 20))
    assert sweeps == [(20, 20, True)]

"""A ladder, specs that differ only in n, solved in lockstep.

The references below are the serial forms the ladder replaced: the
recurrence sweeps with one degree for all points, and the Newton polish,
find_zeros and d_sequence one spec at a time.  Every operation a ladder
makes on one member's points is the operation the serial form makes, so
every comparison is on the bytes, errors included.  Each side of a
comparison builds its own spec objects: a spec keeps its build, and a
build shared by both sides would compare with itself.
"""

import numpy as np
import pytest

import xfekete as xf
from xfekete import exceptional, roots
from xfekete.classical_poly import _as_float_or_complex, _horner


# ------------------------------------------------------------ references

def ref_laguerre_pass(n, a, x):
    x = _as_float_or_complex(x)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    d, dm1 = np.zeros_like(x), np.zeros_like(x)
    for k in range(n):
        s = 2 * k + 1 + a - x
        pm1, p, dm1, d = (p, (s * p - (k + a) * pm1) / (k + 1),
                          d, (s * d - p - (k + a) * dm1) / (k + 1))
    return p, pm1, d, dm1


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


def ref_newton(spec, x0, itmax=60, deflate=None, its=None):
    """The serial polish: one exceptional_eval_pair call per iteration
    for this spec alone; its (if given) collects the iteration count."""
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    if x.size == 0:
        return x
    prev = np.inf
    for it in range(1, itmax + 1):
        v, dv = xf.exceptional_eval_pair(spec, x)
        step = v / dv
        if deflate is not None:
            dif = x[:, None] - x[None, :]
            np.fill_diagonal(dif, np.inf)
            step = step / (1 - step * (
                np.sum(1.0 / (x[:, None] - deflate), axis=1)
                + np.sum(1.0 / dif, axis=1)))
        x = x - step
        rel = float(np.max(np.abs(step) / (1 + np.abs(x))))
        if (not np.isfinite(rel) or rel < roots.NEWTON_TOL
                or roots.NEWTON_FLOOR > rel >= prev):
            break
        prev = rel
    if its is not None:
        its.append(it)
    if not rel <= roots.CERT_TOL:
        raise xf.NonConvergence(
            f"Newton stopped after {it} iterations with relative step "
            f"{rel:.3e} for {spec}",
            [{"iterations": it, "relative_step": rel}])
    return x


def ref_find_zeros(spec, reg_its=None, exc_its=None):
    exceptional._nonzero_lead(spec, spec.fam.lead_factor(spec))
    reg = np.sort(ref_newton(spec, spec.fam.gauss(spec), its=reg_its).real)
    exc = roots._sort_zeros(ref_newton(spec, spec.S.roots, deflate=reg,
                                       its=exc_its))
    roots._classify(spec, reg, exc)
    rts = np.concatenate([exc, reg.astype(complex)])
    cert = roots._certificate(spec, rts)
    if not cert["passed"]:
        raise xf.NonConvergence(f"residual certificate failed: {cert}",
                                [cert])
    return roots.ZeroSet(spec=spec, regular=reg, exceptional=exc,
                         s_zeros=roots._sort_zeros(spec.S.roots),
                         certificate=cert)


def ref_d_sequence(m, alpha, n_range, c=1.0):
    wanted = sorted(set(int(n) for n in n_range))
    compute = sorted(set(wanted) | ({wanted[0] - 1} if wanted[0] > 2
                                    else set()))
    results, skipped = {}, []
    for n in compute:
        try:
            spec = xf.FamilySpec("laguerre1", m, alpha, n)
            zs = ref_find_zeros(spec)
            v = xf.v_weight(zs)
            dval = xf.transfinite_d(zs.regular, v, c)
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
    return xf.DiameterSeries(m=m, alpha=alpha, c=c, n_values=n_values, d=d,
                             deltas=deltas, rate_stat=rate,
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
            res.s_zeros.tobytes(), repr(res.certificate))


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
    return [xf.FamilySpec(family, m, alpha, n, beta) for n in ns]


@pytest.mark.parametrize("ladder", LADDERS, ids=lambda c: f"{c[0]}-m{c[1]}")
def test_ladder_find_zeros_is_the_serial_find_zeros(ladder):
    # laguerre1 at n = 400 overflows in the recurrence (a known defect);
    # its failure must be the serial one, so its warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        got = roots.find_zeros_ladder(_ladder(*ladder))
        want = [outcome(ref_find_zeros, s) for s in _ladder(*ladder)]
        alone = [outcome(xf.find_zeros, s) for s in _ladder(*ladder)]
    assert [_outcome(g) for g in got] == want == alone
    # reversed order gives the same members
    with np.errstate(over="ignore", invalid="ignore"):
        back = roots.find_zeros_ladder(_ladder(*ladder)[::-1])
    assert [_outcome(g) for g in back[::-1]] == want


def test_ladders_mix_passing_and_failing_members():
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for ladder in LADDERS:
            for res in roots.find_zeros_ladder(_ladder(*ladder)):
                kinds.add(type(res))
    assert {roots.ZeroSet, xf.NonConvergence, xf.DegreeCollapse,
            xf.NullspaceDefect} <= kinds


def test_ladder_takes_each_members_build(monkeypatch):
    ladder = ("laguerre2", 2, 2.5, None, (3, 5, 8))
    specs = _ladder(*ladder)
    built = xf.build_exceptional(specs[0])

    def given(spec):
        raise xf.NullspaceDefect("given")

    monkeypatch.setattr(exceptional, "_nullspace_solve", given)
    with pytest.raises(xf.NullspaceDefect):
        xf.build_exceptional(specs[1])
    monkeypatch.undo()
    got = roots.find_zeros_ladder(specs)
    want = [outcome(ref_find_zeros, s) for s in _ladder(*ladder)]
    # member 1 raises the failure it keeps, where a fresh spec certifies
    assert type(got[1]) is xf.NullspaceDefect and str(got[1]) == "given"
    assert want[1][0] == specs[1]
    assert [_outcome(g) for g in got[::2]] == want[::2]
    assert got[0].certificate["build_residual"] == built.residual


def test_ladder_members_share_a_failing_S_each_with_its_own_error():
    # S overflows binary64 at m = 600; the regular stage reads S, and
    # each member fails with the message naming itself
    ladder = ("jacobi", 600, 600.5, 1.0, (2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        got = roots.find_zeros_ladder(_ladder(*ladder))
        want = [outcome(ref_find_zeros, s) for s in _ladder(*ladder)]
    assert [_outcome(g) for g in got] == want
    assert all(isinstance(g, xf.RepresentationOverflow) for g in got)
    assert str(got[0]) != str(got[1])


def test_a_ladder_differs_only_in_n():
    with pytest.raises(xf.ValidationError):
        roots.find_zeros_ladder([xf.FamilySpec("laguerre1", 1, 2.0, 5),
                                 xf.FamilySpec("laguerre1", 1, 2.5, 6)])
    assert roots.find_zeros_ladder([]) == []


@pytest.mark.parametrize("itmax", [1, 2, 60])
def test_newton_ladder_is_the_serial_newton(itmax):
    specs = _ladder("jacobi", 1, 0.289, 2.53, (20, 80, 120))
    regs = [np.sort(ref_newton(s, s.fam.gauss(s)).real) for s in specs]
    for stage in ([s.fam.gauss(s) for s in specs], [None] * 3), \
            ([s.S.roots for s in specs], regs):
        got = roots._newton_ladder(specs, stage[0], itmax, stage[1])
        for s, x0, defl, g in zip(specs, *stage, got):
            want = outcome(ref_newton, s, x0, itmax, defl)
            assert _outcome(g) == want
            assert outcome(roots._newton, s, x0, itmax, defl) == want


# ------------------------------------------------------------ d_sequence

@pytest.mark.parametrize("m,alpha,ns", [
    (1, 2.0, range(10, 21)), (2, 1.5, range(3, 9)), (1, 0.3, range(2, 6)),
    (3, -0.5, range(4, 7)), (-1, 2.0, range(5, 7))])
def test_d_sequence_is_the_serial_sweep(m, alpha, ns):
    got = xf.d_sequence(m, alpha, ns)
    want = ref_d_sequence(m, alpha, ns)
    for f in ("m", "alpha", "c", "skipped"):
        assert getattr(got, f) == getattr(want, f)
    for f in ("n_values", "d", "deltas", "ps_ratio_max"):
        assert _same(getattr(got, f), getattr(want, f)), f
    assert repr(got.rate_stat) == repr(want.rate_stat)


def test_d_sequence_sweeps_once_per_lockstep_round(monkeypatch):
    """Each lockstep round makes one sweep for all members, so the sweeps
    of degree >= 10 are no more than the rounds of the slowest member of
    each stage; one spec at a time they were the sum over members."""
    reg_its, exc_its = [], []
    for n in range(9, 21):
        ref_find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, n),
                       reg_its=reg_its, exc_its=exc_its)
    rounds = max(reg_its) + max(exc_its)
    serial = sum(i for n, i in zip(range(9, 21), reg_its) if n >= 10) \
        + sum(i for n, i in zip(range(9, 21), exc_its) if n >= 10)
    sweeps, calls = [], []
    real_pass, real_pair = exceptional.laguerre_pass, roots.ladder_eval_pair

    def counted_pass(n, a, x):
        if np.size(x) and np.max(n) >= 10:
            sweeps.append(np.max(n))
        return real_pass(n, a, x)

    def counted_pair(*args):
        calls.append(1)
        return real_pair(*args)

    monkeypatch.setattr(exceptional, "laguerre_pass", counted_pass)
    monkeypatch.setattr(roots, "ladder_eval_pair", counted_pair)
    xf.d_sequence(1, 2.0, range(10, 21))
    assert len(calls) == rounds
    assert 0 < len(sweeps) <= rounds < serial


"""Regular and exceptional zeros: counts, location, certificates."""

import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete import cli, exceptional, roots
from xfekete.classical_poly import Ladder
from xfekete.roots import _sort_zeros

from conftest import built_of, spec_of, zeros_of
from reference import jacobi_zeros, laguerre_zeros
from test_pair import mp_member


def test_a_failed_certificate_is_a_nonconvergence(monkeypatch):
    # a polish that hands back its seeds: they classify, and the
    # certificate, not Newton, refuses them
    monkeypatch.setattr(roots, "_newton_ladder",
                        lambda spec, ns, x0s: x0s)
    spec = xf.FamilySpec("laguerre1", 2, 2.0, 10)
    with pytest.raises(xf.NonConvergence,
                       match="residual certificate failed") as info:
        xf.find_zeros(spec)
    (cert,) = info.value.trace
    assert cert["method"] == "evaluator" and not cert["passed"]
    assert 0.021 < cert["max_ratio"] < 0.023


def test_a_derivative_beyond_binary64_certifies_nothing():
    # |y/y'| reads 0 at an infinite y', which would pass any root
    (cert,) = roots._certificate(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                                 np.array([1.0, np.inf]), Ladder([2]))
    assert not cert["passed"] and cert["max_ratio"] == np.inf


def test_laguerre1_derivative_stays_finite_past_its_numerator_range():
    # at n = 360 (m = 1, alpha = 2) the ODE's numerator of y' at the
    # largest zeros leaves binary64 a factor |r| = x before y' does; there
    # the pair divides first, and the top zero stays on the oracle
    zs = xf.find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, 360))
    assert np.all(np.isfinite(zs.regular_dy))
    f = mp_member(zs.spec)
    with mpmath.workdps(40):
        w = mpmath.mpf(zs.regular[-1])
        for _ in range(6):
            w -= f(w) / mpmath.diff(f, w)
        assert abs(w - zs.regular[-1]) <= 1e-15 * w


def test_a_repeated_regular_zero_is_a_count_mismatch(monkeypatch):
    # reaches _classify's "regular zeros not strictly increasing": a
    # polish whose second regular iterate lands on the first
    polish = roots._newton_ladder

    def repeated(spec, ns, x0s):
        out = polish(spec, ns, x0s)
        for x in out:
            x[1] = x[0]
        return out

    monkeypatch.setattr(roots, "_newton_ladder", repeated)
    with pytest.raises(xf.CountMismatch,
                       match="^regular zeros not strictly increasing$"):
        xf.find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, 5))


def test_degree_one_member_single_zero():
    zs = zeros_of("laguerre1", 1, 2.0, 0)
    assert zs.regular.size == 0
    np.testing.assert_allclose(zs.exceptional, [-3.0 + 0j], atol=1e-12)
    np.testing.assert_allclose(zs.s_zeros, [-2.0 + 0j], atol=1e-12)


def test_classical_mode_matches_quadrature_nodes():
    zs = zeros_of("laguerre1", 0, 2.0, 5)
    assert zs.exceptional.size == 0
    np.testing.assert_allclose(zs.regular, laguerre_zeros(5, 2.0), rtol=1e-10)


def test_counts_and_sign_split():
    for (m, n) in [(1, 4), (2, 6), (3, 9)]:
        zs = zeros_of("laguerre1", m, 1.5, n)
        assert zs.regular.size == n and zs.exceptional.size == m
        assert np.all(zs.regular > 0)
        assert np.all(zs.exceptional.real < 0)
        assert np.all(np.abs(zs.exceptional.imag) < 1e-9)


def test_zeros_simple():
    zs = zeros_of("laguerre1", 2, 1.0, 12)
    allz = np.concatenate([zs.exceptional.real, zs.regular])
    assert np.min(np.diff(np.sort(allz))) > 1e-6


def test_certificate_evaluator_mode_at_large_degree():
    zs = zeros_of("laguerre1", 1, 1.0, 200)
    c = zs.certificate
    assert c["method"] == "evaluator" and c["passed"]
    assert c["max_ratio"] < 1e-10


# jacobi specs whose S has a zero far off [-1, 1] (at -317.1 for the
# second): the sweep at that zero leaves binary64 from the last n on, and
# Newton ends in NonConvergence.  Each spec certifies from the n where it
# first failed with the unscaled recurrence up to its last certified n;
# lane rescaling (ROADMAP item 2) moves the pin up
@pytest.mark.parametrize("m,alpha,beta,first,last", [
    (2, 2.6, 0.8, 162, 164), (2, 4.548, 2.504, 108, 108),
    (1, 2.296, 2.301, 93, 94)])
def test_jacobi_overflow_range_is_pinned(m, alpha, beta, first, last):
    spec = xf.FamilySpec("jacobi", m, alpha, first, beta)
    *ok, bad = roots.find_zeros_ladder(spec, list(range(first, last + 2)))
    assert all(isinstance(z, roots.ZeroSet) and z.certificate["passed"]
               for z in ok)
    assert isinstance(bad, xf.NonConvergence)


# laguerre2 specs whose certificate's evaluation leaves binary64 from the
# first failing n on (max_ratio inf, a NonConvergence).  Each certifies
# up to the same last n with the classical and the scaled monic sweep:
# the 2^(-8k) scale keeps the sweep below |L_k| (k < 696), so it leaves
# binary64 no earlier
@pytest.mark.parametrize("m,alpha,last", [
    (1, 1.909, 360), (2, 4.5, 356), (5, 7.212, 347)])
def test_laguerre2_overflow_range_is_pinned(m, alpha, last):
    spec = xf.FamilySpec("laguerre2", m, alpha, last - 2)
    *ok, bad = roots.find_zeros_ladder(spec, list(range(last - 2, last + 2)))
    assert all(isinstance(z, roots.ZeroSet) and z.certificate["passed"]
               for z in ok)
    assert isinstance(bad, xf.NonConvergence)
    assert bad.trace[0]["max_ratio"] == np.inf


def test_a_regular_iterate_off_the_real_axis_fails_its_member(monkeypatch):
    # a polish that leaves one regular iterate of the middle member off
    # the real axis: that member fails, naming it, and the others keep
    # the bytes they have without the fault
    spec, ns = xf.FamilySpec("laguerre2", 3, 4.5, 8), [7, 8, 9]
    clean = roots.find_zeros_ladder(spec, ns)
    polish = roots._newton_ladder

    def strayed(spec, ns, x0s):
        out = polish(spec, ns, x0s)
        assert np.iscomplexobj(out[1])
        out[1][2] += 1e-3j
        return out

    monkeypatch.setattr(roots, "_newton_ladder", strayed)
    got = roots.find_zeros_ladder(dataclasses.replace(spec), ns)
    assert isinstance(got[1], xf.CountMismatch)
    assert str(got[1]).endswith(
        f"off the real axis for {dataclasses.replace(spec, n=8)}")
    for i in (0, 2):
        for field in ("regular", "exceptional", "regular_dy"):
            assert getattr(got[i], field).tobytes() == \
                getattr(clean[i], field).tobytes()
        assert got[i].certificate == clean[i].certificate


def test_reconstruction_from_zeros():
    """Monic product over all computed zeros times the leading
    coefficient reproduces the built coefficients."""
    for (fam, m, a, n, b) in [("laguerre1", 1, 2.0, 5, None),
                              ("laguerre1", 3, 1.0, 8, None),
                              ("laguerre2", 2, 3.0, 6, None),
                              ("jacobi", 2, 4.0, 7, 1.0)]:
        zs = zeros_of(fam, m, a, n, b)
        coeffs = built_of(fam, m, a, n, b).coeffs
        allz = np.concatenate([zs.exceptional, zs.regular.astype(complex)])
        rec = npoly.polyfromroots(allz) * coeffs[-1]
        assert np.max(np.abs(rec.real - coeffs)) < 1e-8 * np.max(np.abs(coeffs))
        assert np.max(np.abs(rec.imag)) < 1e-8 * np.max(np.abs(coeffs))


# ---------------------------------------------------------------- interlacing

def test_interlacing_full_mode():
    for (m, n) in [(1, 1), (1, 6), (2, 5), (3, 11)]:
        rep = xf.check_interlacing(zeros_of("laguerre1", m, 2.0, n))
        assert rep["mode"] == "full"
        assert rep["passed"], rep["checks"]


BRACKETS = ("x_1 in (0, z_n1)", "regular interlacing", "e_1 in (-z_m1, 0)",
            "exceptional interlacing")


def node_brackets(zs):
    """The bracket checks of check_interlacing by node comparison, the
    Laguerre zeros of degree n, n - 1, m and m - 1 from the dense
    eigensolve: the reference of its sign rule."""
    reg, n, m, al = zs.regular, zs.spec.n, zs.spec.m, zs.spec.alpha
    exc = np.sort(zs.exceptional.real)[::-1]
    zn, zn1 = laguerre_zeros(n, al), laguerre_zeros(n - 1, al)
    zm, zm1 = laguerre_zeros(m, al), laguerre_zeros(m - 1, al)
    return {"x_1 in (0, z_n1)": bool(0 < reg[0] < zn[0]),
            "regular interlacing": all(zn1[j - 1] < reg[j] < zn[j]
                                       for j in range(1, n)),
            "e_1 in (-z_m1, 0)": bool(-zm[0] < exc[0] < 0),
            "exceptional interlacing": all(-zm[j] < exc[j] < -zm1[j - 1]
                                           for j in range(1, m))}


def sign_brackets(zs):
    return {c["check"]: c["passed"] for c in xf.check_interlacing(zs)["checks"]
            if c["check"] in BRACKETS}


def test_interlacing_matches_the_node_reference():
    for (m, a, n) in [(1, 2.0, 1), (1, 0.3, 6), (2, 2.0, 5), (3, 4.5, 11),
                      (5, 1.5, 8), (2, 2.0, 120), (2, 2.0, 300)]:
        zs = xf.find_zeros(spec_of("laguerre1", m, a, n))
        assert sign_brackets(zs) == node_brackets(zs)
        assert xf.check_interlacing(zs)["passed"]


@pytest.mark.parametrize("m,a,n", [(2, 2.0, 12), (1, 0.3, 7), (3, 4.5, 30)])
def test_interlacing_signs_catch_a_zero_just_past_its_bracket(m, a, n):
    # each x_j pushed 1e-9 (relative) past either end of its bracket
    # (z_{n-1,j-1}, z_{n,j}), or x_1 past 0: the order of the zeros holds
    zs = xf.find_zeros(spec_of("laguerre1", m, a, n))
    zn, zn1 = laguerre_zeros(n, a), laguerre_zeros(n - 1, a)
    ends = [(0, -1e-9)] + [(j, zn[j] * (1 + 1e-9)) for j in range(n)] \
        + [(j, zn1[j - 1] * (1 - 1e-9)) for j in range(1, n)]
    for j, x in ends:
        reg = zs.regular.copy()
        reg[j] = x
        bad = dataclasses.replace(zs, regular=reg)
        want = node_brackets(bad)
        assert not all(want.values())
        assert sign_brackets(bad) == want


@pytest.mark.parametrize("m,a,n", [(2, 2.0, 12), (3, 0.3, 7), (5, 4.5, 9)])
def test_interlacing_signs_catch_an_exceptional_zero_past_its_bracket(m, a,
                                                                      n):
    # each e_j (ordered downward from 0) pushed 1e-9 (relative) past
    # either end of its bracket (-z_{m,j}, -z_{m-1,j-1}), or e_1 past 0
    zs = xf.find_zeros(spec_of("laguerre1", m, a, n))
    zm, zm1 = laguerre_zeros(m, a), laguerre_zeros(m - 1, a)
    ends = [(0, 1e-9)] + [(j, -zm[j] * (1 + 1e-9)) for j in range(m)] \
        + [(j, -zm1[j - 1] * (1 - 1e-9)) for j in range(1, m)]
    for j, e in ends:
        exc = np.sort(zs.exceptional.real)[::-1]
        exc[j] = e
        bad = dataclasses.replace(zs, exceptional=exc.astype(complex))
        want = node_brackets(bad)
        assert not all(want.values())
        assert sign_brackets(bad) == want


def test_laguerre1_verify_solves_each_gauss_rule_once(monkeypatch, capsys):
    # every Gauss rule (the reference laguerre_zeros, jacobi_zeros) is
    # one symmetric eigensolve of its Jacobi matrix
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code = cli.main(["verify", "--family", "laguerre1", "--m", "2",
                     "--alpha", "2", "--n", "120"])
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"]
    # the seeds are WKB nodes and both sets of brackets take signs, so no
    # rule is solved, not even of degree m or m - 1
    assert calls == []
    laguerre_zeros(2, 2.0)
    assert calls == [2]


def test_interlacing_classical_is_structure_mode():
    rep = xf.check_interlacing(zeros_of("laguerre1", 0, 2.0, 4))
    assert rep["mode"] == "structure" and rep["passed"]


def test_laguerre2_conjugate_pair():
    zs = zeros_of("laguerre2", 2, 3.0, 6)
    assert zs.exceptional.size == 2
    np.testing.assert_allclose(zs.exceptional[0], np.conj(zs.exceptional[1]),
                               rtol=1e-12)
    assert np.all(np.abs(zs.exceptional.imag) > 1e-3)
    assert xf.check_interlacing(zs)["passed"]


def test_laguerre2_negative_real_parity():
    # the number of negative real exceptional zeros has the parity of m
    for (m, a, n) in [(2, 3.0, 6), (3, 4.0, 10), (1, 3.0, 5)]:
        zs = zeros_of("laguerre2", m, a, n)
        nr = np.sum((np.abs(zs.exceptional.imag) <= 1e-9)
                    & (zs.exceptional.real < 0))
        assert nr % 2 == m % 2
        assert xf.check_interlacing(zs)["passed"]


def test_coinciding_exceptional_seeds_end_the_stage_quietly():
    # S = L_3^(-2) has a double zero at 0, so two exceptional seeds
    # coincide; the non-finite Aberth step ends Newton, and no
    # division warning leaks on the way
    with pytest.raises(xf.NonConvergence, match="relative step nan"):
        xf.find_zeros(xf.FamilySpec("laguerre2", 3, 1.0, 4))


def test_jacobi_exceptional_outside_interval():
    zs = zeros_of("jacobi", 2, 4.0, 10, 1.0)
    assert np.all(np.abs(zs.regular) < 1.0)
    real = zs.exceptional[np.abs(zs.exceptional.imag) <= 1e-9].real
    assert np.all((real < -1.0) | (real > 1.0))
    assert xf.check_interlacing(zs)["passed"]


# ---------------------------------------------------------------- asymptotic location

def _s_zero_distances(m, alpha, ns=(20, 60, 120, 200)):
    target = np.sort_complex(zeros_of("laguerre1", m, alpha, 0).s_zeros)
    out = []
    for n in ns:
        exc = np.sort_complex(zeros_of("laguerre1", m, alpha, n).exceptional)
        out.append(np.max(np.abs(exc - target)))
    return out


@pytest.mark.parametrize("m,alpha", [(1, 2.0), (2, 1.0), (1, 0.35)])
def test_exceptional_zeros_approach_s_zeros(m, alpha):
    """As n grows the exceptional zeros drift onto the zeros of S."""
    d = _s_zero_distances(m, alpha)
    assert all(b < a for a, b in zip(d, d[1:])), d


def test_exceptional_zero_distance_constant():
    # the gap scales like c/sqrt(n) with c growing in alpha and m;
    # at small alpha the n=200 distance is already below 0.05
    d = _s_zero_distances(1, 0.35, ns=(200,))
    assert d[0] < 0.05


def test_classical_bracket_bound():
    # largest zero of L_m^{(a)}, which bounds the laguerre1 exceptional
    # zeros from below in check_interlacing, stays below the quadratic bound
    for m in range(1, 9):
        for a in (0.5, 1.0, 2.5):
            top = 2 * m + a + 1 + math.sqrt((2 * m + a + 1) ** 2 + 0.25 - a * a)
            assert laguerre_zeros(m, a)[-1] <= top


def test_scaled_smallest_zero_near_bessel():
    # n * x_1 approaches (first positive zero of J_1)^2 / 4
    zs = zeros_of("laguerre1", 1, 1.0, 200)
    target = float(mpmath.besseljzero(1, 1)) ** 2 / 4
    assert abs(200 * zs.regular[0] - target) / target < 0.05


def test_conjugate_pair_listed_by_imaginary_part():
    # the pair's real parts differ by about 1e-15; that must not decide
    # which member comes first
    exc = zeros_of("laguerre2", 3, 5.164, 5).exceptional
    assert exc[1].imag < 0.0 < exc[2].imag
    assert abs(exc[1].real - exc[2].real) <= 1e-12 * (1.0 + abs(exc[1].real))
    z = np.array([-3.4949736382466066 + 3.4173289279207695j,
                  -3.4949736382466052 - 3.4173289279207695j,
                  -4.46774335752569 + 0.0j])
    want = z[[2, 1, 0]]
    for perm in ([0, 1, 2], [1, 0, 2], [2, 0, 1]):
        np.testing.assert_array_equal(_sort_zeros(z[perm]), want)


# ------------------------------------------------- predicted stop

@pytest.mark.parametrize("family,m,alpha,n,most", [
    ("laguerre2", 3, 4.5, 200, 4), ("laguerre1", 1, 2.0, 120, 3)])
def test_regular_stage_stops_at_its_predicted_floor(monkeypatch, family, m,
                                                    alpha, n, most):
    # the step-size rule alone took 8 and 6 rounds, the last ones at the
    # rounding floor
    calls = []
    ratios = roots._ladder_eval_ratios
    monkeypatch.setattr(roots, "_ladder_eval_ratios",
                        lambda *a: calls.append(1) or ratios(*a))
    spec = xf.FamilySpec(family, m, alpha, n)
    (x,) = roots._newton_ladder(spec, [n], spec.fam.gauss(spec, [n]))
    assert isinstance(x, np.ndarray)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 3, 1.5, 200, None), ("laguerre2", 3, 4.5, 200, None),
    ("jacobi", 2, 2.6, 120, 0.8)])
def test_predicted_stop_matches_40_digit_newton(family, m, alpha, n, beta):
    zs = zeros_of(family, m, alpha, n, beta)
    reg = zs.regular
    f = mp_member(zs.spec)
    with mpmath.workdps(40):
        for z in [reg[0], reg[n // 2], reg[-1], *zs.exceptional]:
            r = mpmath.mpmathify(z)
            for _ in range(6):
                r = r - f(r) / mpmath.diff(f, r)
            assert abs(mpmath.mpmathify(z) - r) <= 1e-11 * abs(r), z


# ------------------------------------------------- WKB seeds

WKB_GRID = [("laguerre1", 1, 2.0, None), ("laguerre1", 3, 0.7, None),
            ("laguerre1", 5, 4.1, None), ("laguerre2", 1, 3.5, None),
            ("laguerre2", 3, 4.5, None), ("laguerre2", 5, 6.2, None),
            ("jacobi", 1, 2.5, 1.5), ("jacobi", 2, 2.6, 0.8),
            ("jacobi", 3, 3.2, 1.1)]


def _outcome(spec):
    try:
        return xf.find_zeros(spec)
    except xf.XFeketeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family,m,alpha,beta", WKB_GRID)
def test_wkb_seeds_give_the_eigensolve_outcome(monkeypatch, family, m, alpha,
                                               beta):
    # the regular zeros start from polished WKB nodes; the reference
    # seeds every member from the dense eigensolve, patched in where
    # find_zeros takes its seeds (the family's seed ladder).  n = 400
    # fails on the recurrence's overflow either way, with the same
    # message
    ns = (1, 2, 5, 20, 80, 139, 140, 200, 300, 400)
    got = [_outcome(xf.FamilySpec(family, m, alpha, n, beta)) for n in ns]
    solved = []

    def eigensolve(zeros):
        def ladder(degrees, *params):
            solved.extend(degrees)
            return [zeros(n, *params) for n in degrees]
        return ladder

    monkeypatch.setattr(exceptional, "laguerre_seed_ladder",
                        eigensolve(laguerre_zeros))
    monkeypatch.setattr(exceptional, "jacobi_seed_ladder",
                        eigensolve(jacobi_zeros))
    want = [_outcome(xf.FamilySpec(family, m, alpha, n, beta)) for n in ns]
    # the reference is live: every member took the eigensolve's seeds
    assert solved == list(ns)
    for g, w in zip(got, want):
        if not isinstance(w, roots.ZeroSet):
            assert g == w
            continue
        assert isinstance(g, roots.ZeroSet)
        assert g.certificate["passed"]
        for a, b in [(g.regular, w.regular), (g.exceptional, w.exceptional)]:
            assert np.max(np.abs(a - b) / (1 + np.abs(b)), initial=0) <= 1e-13


# ------------------------------------------------- law seeds

@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 2, 2.7, 80, None), ("laguerre1", 3, 2.7, 200, None),
    ("laguerre2", 2, 4.5, 80, None), ("laguerre2", 5, 7.212, 300, None),
    ("jacobi", 3, 4.344, 40, 0.543)])
def test_law_seeds_sit_next_to_the_exceptional_zeros(monkeypatch, family, m,
                                                      alpha, n, beta):
    # the first round moves each exceptional iterate by at most 5e-3
    # relative (6.7e-5 to 1.4e-3 measured; 2.2e-2 to 5.1e-2 from the
    # zeros of S themselves); laguerre2's pairs are complex
    spec = xf.FamilySpec(family, m, alpha, n, beta)
    seen = []
    ratios = roots._ladder_eval_ratios
    monkeypatch.setattr(roots, "_ladder_eval_ratios", lambda s, k, x:
                        seen.append(x.copy()) or ratios(s, k, x))
    zs = xf.find_zeros(spec)
    assert zs.certificate["passed"]
    seeds, first = seen[0][n:], seen[1][n:]
    assert not np.array_equal(seeds, exceptional._s_zeros(spec))
    assert np.max(np.abs(first - seeds) / (1 + np.abs(first))) <= 5e-3
    assert bool(zs.exceptional.imag.any()) == (family == "laguerre2")


def test_law_seeds_keep_the_zeros_of_S_off_the_law():
    # a real s whose law value is not real keeps its place: a positive
    # zero of S for Laguerre, one inside (-1, 1) for Jacobi; the
    # ladder's members are the rows of one broadcast, and an n = 0
    # member whose coefficients give fewer roots than there are s keeps
    # s (these s are not the m = 1 spec's)
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 5)
    s = np.array([-2.0 + 0j, 3.0 + 0j, -1.0 + 1.0j])
    e, at0 = roots._law_seeds(spec, [5, 0], s)
    assert e[0] == -2.0 - np.sqrt(0.4) and e[1] == 3.0
    assert e[2] == s[2] - np.sqrt(-s[2] / 5)
    assert at0.tobytes() == s.tobytes()
    jac = xf.FamilySpec("jacobi", 1, 2.5, 4, 1.5)
    (e,) = roots._law_seeds(jac, [4], np.array([0.5 + 0j, -3.0 + 0j]))
    assert e.dtype == float and e[0] == 0.5
    assert e[1] == -3.0 - 3.0 * np.sqrt(1 - 1 / 9.0) / 4


def test_an_n0_member_seeds_from_its_own_zeros():
    # laguerre1 (1, 2): S = 2 + x, and the member S + S' = 3 + x, real;
    # every n = 0 row of the ladder takes it, the others the law
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 5)
    s = spec.S.roots
    e, at0, again = roots._law_seeds(spec, [5, 0, 0], s)
    assert at0.dtype == float and at0.tolist() == again.tolist() == [-3.0]
    assert e[0] == s[0].real - np.sqrt(-s[0].real / 5)
    # jacobi on the beta < 0 branch: the seeds are the roots of the
    # member's coefficients, a conjugate pair
    jac = xf.FamilySpec("jacobi", 2, 0.294, 0, -0.644)
    (at0,) = roots._law_seeds(jac, [0], jac.S.roots)
    c = exceptional._product_coeffs(jac)
    assert np.iscomplexobj(at0)
    assert at0.tobytes() == np.roots(c[::-1]).tobytes()
    # at alpha = 1e308 the monic coefficients leave binary64: s, quietly
    big = xf.FamilySpec("jacobi", 1, 1e308, 0, 2.0)
    (at0,) = roots._law_seeds(big, [0], big.S.roots)
    assert at0.tobytes() == big.S.roots.real.tobytes()


# ------------------------------------------- n = 0 and out of regime

# a fixed slice of the specs whose Newton polish the largest step, not a
# round cap, ends: (family, m, alpha, n, beta, in regime)
STOP_SLICE = [
    # jacobi's beta < 0 branch at n = 0: from the zeros of S these
    # wandered (all 60 rounds, or 38 for the last) before certifying
    ("jacobi", 2, 0.294, 0, -0.644, True),
    ("jacobi", 2, 0.45, 0, -0.093, True),
    ("jacobi", 2, 0.153, 0, -0.328, True),
    ("jacobi", 2, 0.254, 0, -0.929, True),
    ("jacobi", 2, 0.769, 0, -0.207, True),
    ("jacobi", 2, 0.95, 0, -0.104, True),
    ("jacobi", 3, 1.385, 0, -0.927, True),
    # the regime edge, whose round-2 steps are more than half of round 1's
    ("laguerre2", 3, 2.0117, 1, None, True),
    ("laguerre2", 5, 4.0283, 1, None, True),
    # out of regime: alpha < 0, alpha < m - 1, and jacobi off both
    # branches
    ("laguerre1", 1, -0.5, 2, None, False),
    ("laguerre1", 2, -0.5, 20, None, False),
    ("laguerre1", 3, -0.3, 5, None, False),
    ("laguerre2", 3, 1.2, 2, None, False),
    ("laguerre2", 2, 0.5, 5, None, False),
    ("laguerre2", 4, 1.7, 20, None, False),
    ("jacobi", 1, -0.5, 20, 1.5, False),
    ("jacobi", 2, 0.5, 5, 1.0, False),
    ("jacobi", 3, 4.0, 2, -0.5, False),
    ("jacobi", 2, 2.5, 20, -0.5, False),
    # S's zero at x = 0 (laguerre1, alpha = 0, odd m) at n = 0
    ("laguerre1", 1, 0.0, 0, None, False),
    ("laguerre1", 3, 0.0, 0, None, False),
]


@pytest.mark.parametrize("family,m,alpha,n,beta,inside", STOP_SLICE)
def test_newton_ends_certified_or_typed_within_ten_rounds(family, m, alpha,
                                                          n, beta, inside):
    # every spec ends certified or in a typed error, with no warning; an
    # in-regime one certifies, and a Newton NonConvergence names at most
    # 10 rounds (out of regime, the steps stop shrinking within a few)
    spec = xf.FamilySpec(family, m, alpha, n, beta)
    assert bool(spec.regime_warnings()) != inside
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            zs = xf.find_zeros(spec)
        except xf.XFeketeError as exc:
            assert not inside, exc
            if isinstance(exc, xf.NonConvergence) and "Newton" in str(exc):
                assert exc.trace[0]["iterations"] <= 10
            return
    assert zs.certificate["passed"]


# ------------------------------------------------- oracle parity

def _oracle():
    """perfbench's 40-digit oracle, loaded from its file."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "oracle.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 3, 2.7, 200, None), ("laguerre1", 1, 2.0, 300, None),
    ("laguerre2", 3, 4.5, 200, None), ("laguerre2", 5, 7.212, 300, None),
    ("jacobi", 2, 2.2, 200, 1.1), ("jacobi", 1, 2.5, 300, 1.5)])
def test_sampled_zeros_match_the_oracle(family, m, alpha, n, beta):
    # raw WKB seeds and two quartic rounds still land on the 40-digit
    # zeros: the regular ones at both ends and the middle, and every
    # exceptional one, within 1e-12 (1 + |z|)
    oracle = _oracle()
    zs = xf.find_zeros(xf.FamilySpec(family, m, alpha, n, beta))
    member = oracle.Member(family, m, alpha, n, beta)
    picked = [zs.regular[i] for i in (0, 1, 2, n // 2, n - 2, n - 1)]
    for z in [*picked, *zs.exceptional]:
        exact = member.refine(z)
        with mpmath.workdps(oracle.DPS):
            err = abs(mpmath.mpmathify(z) - exact) / (1 + abs(exact))
        assert err <= 1e-12, (z, err)

"""Regular and exceptional zeros: counts, location, certificates."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete import cli, exceptional, roots
from xfekete.roots import _sort_zeros

from conftest import built_of, spec_of, zeros_of
from reference import jacobi_zeros, laguerre_zeros
from test_pair import mp_member


def test_a_failed_certificate_is_a_nonconvergence(monkeypatch):
    # a polish that hands back its seeds: they classify, and the
    # certificate, not Newton, refuses them
    monkeypatch.setattr(roots, "_newton_ladder",
                        lambda spec, ns, x0s, itmax=60: x0s)
    spec = xf.FamilySpec("laguerre1", 2, 2.0, 10)
    with pytest.raises(xf.NonConvergence,
                       match="residual certificate failed") as info:
        xf.find_zeros(spec)
    (cert,) = info.value.trace
    assert cert["method"] == "evaluator" and not cert["passed"]
    assert 0.4 < cert["max_ratio"] < 0.42


def test_a_repeated_regular_zero_is_a_count_mismatch(monkeypatch):
    # reaches _classify's "regular zeros not strictly increasing": a
    # polish whose second regular iterate lands on the first
    polish = roots._newton_ladder

    def repeated(spec, ns, x0s, itmax=60):
        out = polish(spec, ns, x0s, itmax)
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
    pair = roots.ladder_eval_pair
    monkeypatch.setattr(roots, "ladder_eval_pair",
                        lambda *a: calls.append(1) or pair(*a))
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

"""One polynomial table for S per spec and for P per weight.

The references below are the forms every layer used before S was tabled
on the spec: the evaluator rebuilding S and S' on each call (_S_pair),
the zeros of S from a fresh build (_s_roots, with the m = 0 case
find_zeros special-cased), the weight's own table of S and the
diameter's second polyfromroots and two polyvals for (P/S)^2.  The table
does the same floating-point operations in the same order, so every
comparison is on the bytes.  A second test counts build_S calls through
the verify bundle.
"""

import sys
from collections import Counter

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import asymptotics, cli, exceptional, roots
from xfekete.classical_poly import _horner


def ref_S_pair(spec, x):
    Sc = xf.build_S(spec)
    Sp = npoly.polyval(x, npoly.polyder(Sc)) if spec.m >= 1 \
        else np.zeros_like(x)
    return npoly.polyval(x, Sc), Sp


def ref_s_roots(spec):
    if spec.m == 0:
        return np.empty(0, dtype=complex)
    return np.roots(xf.build_S(spec)[::-1]).astype(complex)


def ref_poly_table(coeffs):
    c = np.array(coeffs, dtype=float)
    return (c, np.abs(c), npoly.polyder(c), npoly.polyder(c, 2))


def ref_ps_ratio(spec, zs):
    hi = spec.fam.domain(spec, spec.n)[1]
    grid = np.geomspace(1e-3, hi, 200)
    P = npoly.polyfromroots(zs.exceptional).real
    num = npoly.polyval(grid, P.astype(float))
    den = npoly.polyval(grid, np.asarray(xf.build_S(spec), dtype=float))
    return float(np.max((num / den) ** 2))


def _specs():
    """Three families x m <= 5 x 3 parameter draws, n = 4."""
    rng = np.random.default_rng(7)
    out = []
    for family in exceptional.FAMILIES:
        for m in range(6):
            for _ in range(3):
                alpha = round(float(rng.uniform(0.1, m + 4.0)), 3)
                beta = (round(float(rng.uniform(0.25, 3.0)), 3)
                        if family == "jacobi" else None)
                out.append(xf.FamilySpec(family, m, alpha, 4, beta))
    return out


SPECS = _specs()


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _points(spec):
    """Real and complex evaluation points, 0-d included, some of them at
    the zeros of S."""
    lo, hi = (-1.5, 1.5) if spec.family == "jacobi" else (-8.0, 20.0)
    real = np.linspace(lo, hi, 37)
    z = ref_s_roots(spec)
    cplx = np.concatenate([z, z + (0.1 + 0.05j),
                           real[::4] + 1j * np.linspace(-2.0, 2.0, 10)])
    return [real, np.asarray(real[5]), np.concatenate([real, z.real]),
            cplx, np.asarray(cplx[-1])]


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_S_table_matches_the_rebuilt_forms(family):
    for spec in (s for s in SPECS if s.family == family):
        S = spec.S
        for got, want in zip((S.c, S.abs_c, S.d1, S.d2),
                             ref_poly_table(xf.build_S(spec))):
            assert _same(got, want), spec
            assert not got.flags.writeable
        assert _same(S.roots, ref_s_roots(spec)), spec
        assert spec.S is S
        for x in _points(spec):
            got = (_horner(S.c, x), _horner(S.d1, x))
            for g, r in zip(got, ref_S_pair(spec, x)):
                assert _same(g, r), (spec, x)


@pytest.mark.parametrize("m", range(6))
def test_diameter_ratio_matches_the_rebuilt_form(m):
    alpha = 1.25 + 0.5 * m
    for n in (3, 8):
        spec = xf.FamilySpec("laguerre1", m, alpha, n)
        zs = xf.find_zeros(spec)
        _, ratio = asymptotics._one_diameter(zs, 1.0)
        assert ratio == ref_ps_ratio(spec, zs)


def test_weight_P_is_its_table():
    spec = xf.FamilySpec("laguerre2", 2, 3.3, 4)
    w = xf.v_weight(xf.find_zeros(spec))
    ref = ref_poly_table(npoly.polyfromroots(
        xf.find_zeros(spec).exceptional).real)
    assert _same(w.P, ref[0]) and w.P is w._P_table.c
    assert _same(w._P_table.d2, ref[3])
    assert xf.WeightSpec(spec, "hat")._P_table is None


VERIFY_ARGS = {
    "laguerre1": ["--m", "2", "--alpha", "2", "--n", "5"],
    "laguerre2": ["--m", "2", "--alpha", "2.5", "--n", "5"],
    "jacobi": ["--m", "1", "--alpha", "2.5", "--beta", "1.5", "--n", "8"]}


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_verify_builds_S_once_and_never_in_newton(monkeypatch, capsys,
                                                  family):
    calls, in_newton, entered = [], [False], []
    real_build, real_newton = exceptional.build_S, roots._newton_ladder

    def build_S(spec):
        calls.append((spec, in_newton[0]))
        return real_build(spec)

    def newton(*args, **kwargs):
        entered.append(1)
        in_newton[0] = True
        try:
            return real_newton(*args, **kwargs)
        finally:
            in_newton[0] = False

    # every package module that holds build_S, so a call through an
    # import counts too
    for name, mod in list(sys.modules.items()):
        if name.startswith("xfekete") and \
                getattr(mod, "build_S", None) is real_build:
            monkeypatch.setattr(mod, "build_S", build_S)
    # the lockstep core, which every Newton stage goes through
    monkeypatch.setattr(roots, "_newton_ladder", newton)
    assert cli.main(["verify", "--family", family,
                     *VERIFY_ARGS[family]]) == 0
    capsys.readouterr()
    assert entered and calls and not any(inside for _, inside in calls)
    assert max(Counter(spec for spec, _ in calls).values()) == 1

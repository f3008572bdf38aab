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
from xfekete import cli, exceptional, roots
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
    # one sweep evaluates P with m + 1 coefficients per member
    alpha = 1.25 + 0.5 * m
    series = xf.d_sequence(m, alpha, (3, 8))
    assert list(series.n_values) == [3, 8]
    for n, ratio in zip(series.n_values, series.ps_ratio_max):
        spec = xf.FamilySpec("laguerre1", m, alpha, int(n))
        assert ratio == ref_ps_ratio(spec, xf.find_zeros(spec))


def test_weight_P_is_its_table():
    spec = xf.FamilySpec("laguerre2", 2, 3.3, 4)
    w = xf.v_weight(xf.find_zeros(spec))
    ref = ref_poly_table(npoly.polyfromroots(
        xf.find_zeros(spec).exceptional).real)
    assert _same(w.P, ref[0]) and w.P is w._P_table.c
    assert _same(w._P_table.d2, ref[3])
    assert xf.WeightSpec(spec)._P_table is None


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
    # the lockstep core, which every Newton polish goes through
    monkeypatch.setattr(roots, "_newton_ladder", newton)
    assert cli.main(["verify", "--family", family,
                     *VERIFY_ARGS[family]]) == 0
    capsys.readouterr()
    assert entered and calls and not any(inside for _, inside in calls)
    assert max(Counter(spec for spec, _ in calls).values()) == 1


def test_a_ladder_builds_S_once(monkeypatch):
    calls = []
    real_build = exceptional.build_S

    def build_S(spec):
        calls.append(spec)
        return real_build(spec)

    monkeypatch.setattr(exceptional, "build_S", build_S)
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 9)
    fields = dict(vars(spec))
    found = roots.find_zeros_ladder(spec, list(range(9, 21)))
    assert all(zs.certificate["passed"] for zs in found)
    assert len(calls) == 1
    # the ladder writes nothing into the spec it is given but the spec's
    # own cached S (a PolyTable compares by identity), and nothing at all
    # once S is cached
    table = spec.S
    assert len(calls) == 1 and vars(spec) == {**fields, "S": table}
    roots.find_zeros_ladder(spec, list(range(9, 21)))
    assert len(calls) == 1 and vars(spec) == {**fields, "S": table}
    # the member at spec's n is spec; the others table S only when read
    assert found[0].spec is spec
    assert all("S" not in vars(zs.spec) for zs in found[1:])
    assert all(zs.s_zeros is found[0].s_zeros for zs in found)
    assert not found[0].s_zeros.flags.writeable
    # a build that raises is not kept: every member raises its own
    spec = xf.FamilySpec("jacobi", 2, 3.0, 4, 1.0)
    out = roots.find_zeros_ladder(spec, [4, 5])
    assert all(isinstance(exc, xf.DegreeCollapse) for exc in out)
    assert out[0] is not out[1]
    with pytest.raises(xf.DegreeCollapse):
        spec.S

"""One coefficient build and one zero set per spec.

jacobi_coeffs expands from tabulated powers of (x - 1) and (x + 1); the
per-term polypow form it replaces is kept here as the reference and must
agree bit for bit, overflow included.  Zero finding never builds the
monomial coefficients, so `verify` builds them once, for its
construction check, and computes one zero set per spec.
"""

import json

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import cli, energy, exceptional, roots
from xfekete.classical_poly import gen_binom


def jacobi_coeffs_polypow(m, a, b):
    """The expansion with both powers raised afresh for every k."""
    t = 2 * m + a + b
    if abs(t - round(t)) < 1e-12 and 0 <= round(t) <= m - 1:
        raise xf.DegreeCollapse("collapse")
    c = np.zeros(m + 1)
    for k in range(m + 1):
        term = gen_binom(m + a, k) * gen_binom(m + b, m - k)
        if term == 0.0:
            continue
        part = npoly.polymul(npoly.polypow([-1.0, 1.0], m - k),
                             npoly.polypow([1.0, 1.0], k))
        c[: len(part)] += term * part
    c /= 2.0 ** m
    return c


DEGREES = list(range(61)) + [120, 200, 400]


@pytest.mark.parametrize("m", DEGREES)
def test_jacobi_coeffs_match_polypow_bit_for_bit(m):
    rng = np.random.default_rng(1000 + m)
    for a, b in rng.uniform(-6.0, 6.0, size=(3, 2)):
        with np.errstate(all="ignore"):
            ref = jacobi_coeffs_polypow(m, a, b)
            new = xf.jacobi_coeffs(m, a, b)
        assert new.tobytes() == ref.tobytes()


def test_jacobi_coeffs_overflow_matches_polypow():
    # at m = 400 the binomial products overflow binary64: the non-finite
    # coefficients and the FloatingPointError under over="raise" are the
    # reference's too
    m, a, b = 400, 1.22, 4.89
    with np.errstate(all="ignore"):
        ref = jacobi_coeffs_polypow(m, a, b)
        new = xf.jacobi_coeffs(m, a, b)
    assert not np.all(np.isfinite(ref))
    assert new.tobytes() == ref.tobytes()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            jacobi_coeffs_polypow(m, a, b)
        with pytest.raises(FloatingPointError):
            xf.jacobi_coeffs(m, a, b)


def test_jacobi_coeffs_collapse_as_before():
    for m, a, b in [(2, -4.0, 0.0), (3, -5.0, 0.0), (4, -6.5, -0.5)]:
        with pytest.raises(xf.DegreeCollapse):
            jacobi_coeffs_polypow(m, a, b)
        with pytest.raises(xf.DegreeCollapse):
            xf.jacobi_coeffs(m, a, b)


def test_jacobi_coeffs_never_call_polypow(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("polypow called")

    monkeypatch.setattr(npoly, "polypow", forbidden)
    xf.jacobi_coeffs(40, 1.5, -0.5)


def _count(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


VERIFY_SPECS = {
    "laguerre1": ["--m", "2", "--alpha", "2", "--n", "5"],
    "laguerre2": ["--m", "2", "--alpha", "2.5", "--n", "5"],
    "jacobi": ["--m", "1", "--alpha", "2.5", "--beta", "1.5", "--n", "20"],
}


@pytest.mark.parametrize("family", sorted(VERIFY_SPECS))
def test_verify_builds_once_and_finds_zeros_once(monkeypatch, capsys,
                                                 family):
    finds = _count(monkeypatch, "find_zeros", [roots, cli])
    builds = _count(monkeypatch, "build_exceptional", [exceptional, cli])
    code = cli.main(["verify", "--family", family, *VERIFY_SPECS[family]])
    capsys.readouterr()
    assert code == 0
    assert len(finds) == 1
    assert len(builds) == 1


def test_failing_verify_build_runs_once(monkeypatch, capsys):
    # the construction check's RepresentationOverflow (1/(m! n!) is below
    # binary64) fails that check alone: the evaluator certifies the
    # zeros without a second build
    builds = _count(monkeypatch, "build_exceptional", [exceptional, cli])
    code = cli.main(["verify", "--family", "laguerre1", "--m", "1",
                     "--alpha", "1", "--n", "200"])
    checks = {c["name"]: c
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 2
    assert len(builds) == 1
    assert "underflows binary64" in checks["construction"]["detail"]
    assert not checks["construction"]["passed"]
    assert checks["zeros"]["passed"]
    assert checks["zeros"]["detail"]["method"] == "evaluator"


def test_find_zeros_ladder_never_builds(monkeypatch):
    # the evaluator alone certifies the zeros
    def forbidden(spec):
        raise AssertionError("build_exceptional called")

    monkeypatch.setattr(exceptional, "build_exceptional", forbidden)
    assert not hasattr(roots, "build_exceptional")
    for family, m, alpha, beta in [("laguerre1", 2, 2.0, None),
                                   ("laguerre2", 2, 2.5, None),
                                   ("jacobi", 1, 2.5, 1.5)]:
        spec = xf.FamilySpec(family, m, alpha, 0, beta)
        for zs in roots.find_zeros_ladder(spec, [0, 5, 20, 120]):
            assert zs.certificate["method"] == "evaluator", zs
            assert zs.certificate["passed"]


def test_upper_pairs_are_read_only_triu_indices():
    k = energy._pair_index(7)
    ri, rj = np.triu_indices(7, k=1)
    assert np.array_equal(k, ri * 7 + rj)
    assert not k.flags.writeable
    assert energy._pair_index.cache_info().maxsize <= 4

"""One coefficient build and one zero set per spec.

jacobi_coeffs expands from tabulated powers of (x - 1) and (x + 1); the
per-term polypow form it replaces is kept here as the reference and must
agree bit for bit, overflow included.  Each spec keeps its build, so the
least-squares solve runs at most once per spec object however often it
is built or solved, and `verify` computes one zero set per spec.
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


def _count_solves(monkeypatch):
    """The specs that the least-squares solve of build_exceptional runs
    for; the public entry point may be called any number of times."""
    return _count(monkeypatch, "_nullspace_solve", [exceptional])


def _failing_solve(monkeypatch, error):
    """Replace the solve by one that raises error; returns its calls."""
    calls = []

    def solve(spec):
        calls.append(spec)
        raise error

    monkeypatch.setattr(exceptional, "_nullspace_solve", solve)
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
    solves = _count_solves(monkeypatch)
    code = cli.main(["verify", "--family", family, *VERIFY_SPECS[family]])
    capsys.readouterr()
    assert code == 0
    assert len(finds) == 1
    assert len(solves) == 1


def test_failing_verify_build_runs_once(monkeypatch, capsys):
    # the construction check's NullspaceDefect is kept on the spec and
    # raised again inside find_zeros instead of repeating the solve,
    # message included
    solves = _count_solves(monkeypatch)
    code = cli.main(["verify", "--family", "jacobi", "--m", "1", "--alpha",
                     "1.376", "--beta", "0.929", "--n", "120"])
    checks = {c["name"]: c
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 2
    assert len(solves) == 1
    assert "ODE residual" in checks["construction"]["detail"]
    assert checks["zeros"]["detail"] == checks["construction"]["detail"]
    assert not checks["zeros"]["passed"]


def test_find_zeros_raises_a_failed_build_where_it_would_build(monkeypatch):
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 5)
    failure = xf.NullspaceDefect("carried")
    solves = _failing_solve(monkeypatch, failure)
    for _ in range(3):
        with pytest.raises(xf.NullspaceDefect, match="carried") as info:
            roots.find_zeros(spec)
        assert info.value is failure
    assert solves == [spec]
    assert spec._built is failure


def test_an_overflowing_build_gives_the_evaluator_certificate(monkeypatch):
    spec = xf.FamilySpec("laguerre1", 1, 2.0, 5)
    _failing_solve(monkeypatch, xf.RepresentationOverflow("big"))
    with pytest.raises(xf.RepresentationOverflow):
        xf.build_exceptional(spec)
    zs = roots.find_zeros(spec)
    assert zs.certificate["method"] == "evaluator"
    assert zs.certificate["passed"]


def test_laguerre2_find_zeros_builds_once(monkeypatch):
    builds = _count(monkeypatch, "build_exceptional", [exceptional, roots])
    solves = _count_solves(monkeypatch)
    zs = roots.find_zeros(xf.FamilySpec("laguerre2", 2, 2.5, 5))
    assert zs.certificate["method"] == "coefficient"
    assert len(builds) == len(solves) == 1


def test_find_zeros_takes_the_callers_build(monkeypatch):
    spec = xf.FamilySpec("laguerre2", 2, 2.5, 5)
    built = xf.build_exceptional(spec)
    solves = _count_solves(monkeypatch)
    zs = roots.find_zeros(spec)
    assert solves == []
    assert xf.build_exceptional(spec) is built
    assert zs.certificate["build_residual"] == built.residual
    ref = xf.find_zeros(xf.FamilySpec("laguerre2", 2, 2.5, 5))
    assert zs.regular.tobytes() == ref.regular.tobytes()
    assert zs.exceptional.tobytes() == ref.exceptional.tobytes()
    assert zs.certificate == ref.certificate


@pytest.mark.parametrize("fails", [False, True])
def test_a_kept_build_leaves_eq_hash_and_repr(monkeypatch, fails):
    args = ("jacobi", 1, 2.5, 20, 1.5)
    spec, twin = xf.FamilySpec(*args), xf.FamilySpec(*args)
    before = (hash(spec), repr(spec))
    if fails:
        _failing_solve(monkeypatch, xf.NullspaceDefect("kept"))
        with pytest.raises(xf.NullspaceDefect):
            xf.build_exceptional(spec)
    else:
        xf.build_exceptional(spec)
    assert "_built" in vars(spec) and "_built" not in vars(twin)
    assert spec == twin and twin == spec
    assert (hash(spec), repr(spec)) == before == (hash(twin), repr(twin))
    assert len({spec, twin}) == 1


def test_a_kept_failure_holds_no_frames(monkeypatch):
    # a least-squares solve that fails outright is kept as the
    # NullspaceDefect it raises, caused by the LinAlgError; neither holds
    # the frames of the solve, which hold its matrices, and raising it
    # again does not pile up frames
    def lstsq(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    spec = xf.FamilySpec("laguerre1", 1, 2.0, 5)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    depths = []
    for _ in range(3):
        with pytest.raises(xf.NullspaceDefect, match="forced") as info:
            xf.build_exceptional(spec)
        tb, depth = info.value.__traceback__, 0
        while tb is not None:
            tb, depth = tb.tb_next, depth + 1
        depths.append(depth)
    kept = spec._built
    assert kept is info.value
    assert isinstance(kept.__cause__, np.linalg.LinAlgError)
    assert kept.__cause__.__traceback__ is None
    assert len(set(depths)) == 1


def test_upper_pairs_are_read_only_triu_indices():
    i, j = energy._upper_pairs(7)
    ri, rj = np.triu_indices(7, k=1)
    assert np.array_equal(i, ri) and np.array_equal(j, rj)
    assert not i.flags.writeable and not j.flags.writeable
    assert energy._upper_pairs.cache_info().maxsize <= 4

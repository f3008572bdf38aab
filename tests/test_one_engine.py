"""One exceptional-zero engine for all three families.

The exceptional zeros are polished from the zeros of S by the coupled
Newton of roots._newton_ladder, in the same iteration as the regular
zeros.  The nesting-bracket bisection that used to serve laguerre1 is
kept here as the reference, and laguerre2 specs whose coefficient
deflation used to fail are checked against a 30-digit mpmath Newton
refinement.
"""

import mpmath
import numpy as np
import pytest

import xfekete as xf
from xfekete import roots

from reference import laguerre_zeros
from test_pair import mp_member


# ------------------------------------------------- bracket reference

def ref_bisect(f, lo, hi, flo, iters=30):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def ref_polish(spec, x, steps=6):
    """Plain Newton on the closed form, a fixed number of steps."""
    for _ in range(steps):
        v, dv = xf.exceptional_eval_pair(spec, x)
        x = x - v / dv
    return x


def ref_lag1_exceptional(spec):
    """laguerre1 exceptional zeros from the nesting brackets
    (-z_{m,j}, -z_{m-1,j-1}) of classical Laguerre zeros, bisected, then
    polished by plain Newton."""
    m, n, al = spec.m, spec.n, spec.alpha
    zm = laguerre_zeros(m, al)
    if n == 0:
        return ref_polish(spec, -zm)
    zm1 = laguerre_zeros(m - 1, al)
    f = lambda x: float(xf.exceptional_eval_pair(spec, x)[0])
    out = []
    for j in range(m):
        lo = -zm[j]
        hi = -zm1[j - 1] if j >= 1 else -1e-12
        flo, fhi = f(lo), f(hi)
        if flo * fhi > 0:
            lo *= 1.0001
            flo = f(lo)
        if flo * fhi > 0:
            grid = np.linspace(lo, hi, 41)
            vals = xf.exceptional_eval_pair(spec, grid)[0]
            idx = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
            if idx.size == 0:
                out.append(0.5 * (lo + hi))
                continue
            lo, hi, flo = grid[idx[0]], grid[idx[0] + 1], vals[idx[0]]
        out.append(ref_bisect(f, lo, hi, flo))
    return ref_polish(spec, np.array(out))


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("alpha", [0.1264, 0.7, 2.0, 3.9])
def test_laguerre1_matches_bracket_reference(m, alpha):
    for n in (0, 1, 2, 5, 20, 80, 200):
        spec = xf.FamilySpec("laguerre1", m, alpha, n)
        ref = np.sort(ref_lag1_exceptional(spec).real)
        exc = xf.find_zeros(spec).exceptional
        assert np.all(exc.imag == 0)
        assert np.all(np.abs(exc.real - ref) <= 1e-13 * (1 + np.abs(ref))), \
            (n, exc, ref)


# ------------------------------------------------- mpmath oracle

def mp_refine(f, z0, steps=6):
    z = mpmath.mpc(z0)
    for _ in range(steps):
        z = z - f(z) / mpmath.diff(f, z)
    return complex(z)


# coefficient deflation of the regular zeros failed on each of these
@pytest.mark.parametrize("m,alpha,n", [(3, 3.5, 20), (3, 3.873, 80),
                                       (5, 6.156, 20), (5, 8.297, 80)])
def test_laguerre2_former_deflation_failures_match_oracle(m, alpha, n):
    spec = xf.FamilySpec("laguerre2", m, alpha, n)
    zs = xf.find_zeros(spec)
    assert zs.certificate["passed"]
    assert zs.exceptional.size == m
    f = mp_member(spec)
    with mpmath.workdps(30):
        for z in zs.exceptional:
            assert abs(mp_refine(f, z) - z) <= 1e-12 * (1 + abs(z)), z


# ------------------------------------------------- no merged zeros

DISTINCT_CASES = (
    [("laguerre1", m, a, None) for m in (2, 3, 5) for a in (0.7, 3.9)]
    + [("laguerre2", 2, 2.5, None), ("laguerre2", 3, 3.5, None),
       ("laguerre2", 5, 6.156, None), ("laguerre2", 5, 8.297, None)]
    + [("jacobi", 2, 2.5, 0.8), ("jacobi", 2, 4.0, 1.0),
       ("jacobi", 3, 3.7, 0.6), ("jacobi", 3, 5.2, 2.3)])


@pytest.mark.parametrize("family,m,alpha,beta", DISTINCT_CASES)
def test_exceptional_zeros_pairwise_distinct(family, m, alpha, beta):
    for n in (0, 5, 20, 80):
        zs = xf.find_zeros(xf.FamilySpec(family, m, alpha, n, beta=beta))
        z = zs.exceptional
        assert z.size == m
        gap = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(gap, np.inf)
        assert np.all(gap > 1e-6 * (1 + np.abs(z))[:, None]), (n, z)


# ------------------------------------------------- work per call

def test_laguerre1_pair_calls_per_find(monkeypatch):
    calls = []
    pair = roots.ladder_eval_pair
    monkeypatch.setattr(roots, "ladder_eval_pair",
                        lambda *a: calls.append(1) or pair(*a))
    xf.find_zeros(xf.FamilySpec("laguerre1", 3, 1.5, 60))
    # one call per Newton round and one for the certificate; bisection
    # took 105
    assert 0 < len(calls) <= 15

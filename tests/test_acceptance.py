"""Acceptance checks: desk-scale instantiations of every claimed
property, with explicit tolerances and runtime budgets.

One check is recorded as an expected failure rather than weakened:
whole-row diagonal dominance of the energy Hessian at the full zero
set genuinely fails for m >= 2 (worst margin about -0.05 at
m=3, n=10, alpha=1).  The saddle conclusion itself survives through
blockwise dominance and the eigenvalue signature, both asserted below;
see notes/decisions.md in the development notes for the analysis.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import xfekete as xf

from conftest import built_of, spec_of, zeros_of
from reference import phi, phi_closed, search_positive_h11

GRID_1 = [(m, n, a) for m in (1, 2, 3) for n in range(0, 41)
          for a in (1.0, 1.5, 2.5)]
GRID_3 = [(m, n, a) for m in (1, 2, 3) for n in (2, 5, 10, 20)
          for a in (1.0, 2.0)]


def full_zero_nodes(zs):
    return np.sort(np.concatenate([zs.exceptional.real, zs.regular]))


# ------------------------------------------------------------ criterion 1

def test_construction_residual_and_leading():
    start = time.monotonic()
    for (m, n, a) in GRID_1:
        b = built_of("laguerre1", m, a, n)
        assert b.residual < 1e-8, (m, n, a, b.residual)
        expected = (-1.0) ** n / (math.factorial(m) * math.factorial(n))
        assert b.coeffs[-1] == expected, (m, n, a)
    assert time.monotonic() - start < 30.0


# ------------------------------------------------------------ criterion 2

def test_zero_structure_and_interlacing():
    for (m, n, a) in GRID_1:
        zs = zeros_of("laguerre1", m, a, n)
        assert zs.regular.size == n and np.all(zs.regular > 0)
        exc = zs.exceptional
        assert exc.size == m
        assert np.all(np.abs(exc.imag) < 1e-9) and np.all(exc.real < 0)
        if m > 1:
            assert np.min(np.diff(np.sort(exc.real))) > 1e-9
        rep = xf.check_interlacing(zs)
        assert rep["passed"], (m, n, a, rep["checks"])


# ------------------------------------------------------------ criterion 3

def hessian_report(m, n, a):
    zs = zeros_of("laguerre1", m, a, n)
    w = xf.WeightSpec(spec_of("laguerre1", m, a, n))
    return xf.energy_hessian(full_zero_nodes(zs), w)


def test_saddle_gradient_and_sign_pattern():
    for (m, n, a) in GRID_3:
        rep = hessian_report(m, n, a)
        assert np.max(np.abs(rep.gradient)) < 1e-7, (m, n, a)
        assert list(rep.diag_signs) == [1] * m + [-1] * n, (m, n, a)
        assert rep.classification == "saddle", (m, n, a)


def test_saddle_block_dominance_and_signature():
    """Dominance within each sign block plus the (m, n) eigenvalue
    signature: together they give the saddle conclusion."""
    for (m, n, a) in GRID_3:
        rep = hessian_report(m, n, a)
        assert rep.block_dominant, (m, n, a)
        eig = np.linalg.eigvalsh(rep.hessian)
        assert np.sum(eig > 0) == m and np.sum(eig < 0) == n, (m, n, a)


def test_whole_row_dominance_m_one():
    for (n, a) in [(2, 1.0), (5, 2.0), (10, 1.0), (20, 2.0)]:
        assert hessian_report(1, n, a).diagonally_dominant, (n, a)


@pytest.mark.xfail(strict=True,
                   reason="whole-row diagonal dominance is false for m >= 2: "
                          "at m=3, n=10, alpha=1 the first exceptional row "
                          "has |H_11| smaller than its off-diagonal sum by a "
                          "finite margin (~0.05), far beyond rounding")
def test_whole_row_dominance_full_grid():
    for (m, n, a) in GRID_3:
        assert hessian_report(m, n, a).diagonally_dominant, (m, n, a)


# ------------------------------------------------------------ criterion 4

def test_fekete_uniqueness_over_grid():
    for (m, n, a) in GRID_3:
        zs = zeros_of("laguerre1", m, a, n)
        v = xf.v_weight(zs)
        rep = xf.uniqueness_probe(v, xf.default_domain(v, n), n,
                                  trials=20, seed=0)
        assert rep["failed"] == 0, (m, n, a)
        assert len(rep["clusters"]) == 1, (m, n, a)
        dev = np.max(np.abs(rep["clusters"][0]["nodes"] - zs.regular))
        assert dev < 1e-6, (m, n, a, dev)


def test_small_alpha_h11_witness():
    hit = search_positive_h11(trials=400, seed=0)
    assert hit is not None
    assert 0 < hit["alpha"] < 1
    assert hit["h11"] > 0


# ------------------------------------------------------------ criterion 5

def test_stability_scan_grid():
    for a in (1.5, 2.0, 3.0):
        for m in (1, 2):
            for n in (3, 8, 15):
                rep = xf.stability_scan(zeros_of("laguerre1", m, a, n))
                assert rep["passed"], (m, n, a)
                assert rep["one_minus_g_min_offnode"] > 0, (m, n, a)


# ------------------------------------------------------------ criterion 6

def test_rate_statistic_and_zero_sum_sweep():
    start = time.monotonic()
    for n in range(10, 151):
        r = xf.zero_sum_check(
            xf.find_zeros(xf.FamilySpec("laguerre1", 1, 2.0, n)))
        assert r.abs_err < 1e-6 * abs(r.rhs), n

    ser = xf.d_sequence(1, 2.0, range(10, 151))
    assert ser.skipped == ()
    stat = np.abs(ser.deltas) * ser.n_values**2 / np.log(ser.n_values) ** 2
    tail_n = ser.n_values[-50:].astype(float)
    tail = stat[-50:]
    slope, intercept = np.polyfit(tail_n, tail, 1)
    resid = tail - (slope * tail_n + intercept)
    dof = len(tail) - 2
    se = math.sqrt(resid @ resid / dof / np.sum((tail_n - tail_n.mean()) ** 2))
    assert slope <= se, (slope, se)
    assert time.monotonic() - start < 300.0


# ------------------------------------------------------------ criterion 7

def test_scaled_smallest_zero():
    zs = zeros_of("laguerre1", 1, 1.0, 200)
    target = float(mpmath.besseljzero(1, 1)) ** 2 / 4
    rel = abs(200 * zs.regular[0] - target) / target
    assert rel < 0.05, rel


# ------------------------------------------------------------ criterion 8

def concavity_bundle(family, m, alpha, n, beta=None):
    zs = zeros_of(family, m, alpha, n, beta)
    v = xf.v_weight(zs)
    rep = xf.energy_hessian(zs.regular, v)
    probe = xf.uniqueness_probe(v, xf.default_domain(v, n), n,
                                trials=20, seed=0)
    return zs, rep, probe


def assert_bundle_passes(family, m, alpha, n, beta=None):
    zs, rep, probe = concavity_bundle(family, m, alpha, n, beta)
    assert np.max(np.abs(rep.gradient)) < 1e-7
    assert np.all(np.diag(rep.hessian) < 0)
    assert len(probe["clusters"]) == 1
    dev = np.max(np.abs(probe["clusters"][0]["nodes"] - zs.regular))
    assert dev < 1e-6, dev


def test_laguerre2_concavity_and_uniqueness():
    assert_bundle_passes("laguerre2", 2, 3.0, 40)


@pytest.mark.xfail(strict=True, raises=xf.DegreeCollapse,
                   reason="alpha+1-m-beta = 1 lies in {0..m-1}: S for "
                          "(alpha=3, beta=1, m=2) collapses to degree 1 and "
                          "the member cannot be constructed; the nearest "
                          "nondegenerate instance alpha=4 is verified below")
def test_jacobi_instance_as_stated():
    assert_bundle_passes("jacobi", 2, 3.0, 40, 1.0)


def test_jacobi_nearest_nondegenerate_instance():
    assert_bundle_passes("jacobi", 2, 4.0, 40, 1.0)


def test_concavity_onset_recorded():
    """Concavity of the diagonal sets in only for n large enough;
    record the smallest such n rather than asserting a threshold."""
    onset = {}
    for (fam, m, a, b) in [("laguerre2", 2, 3.0, None),
                           ("jacobi", 2, 4.0, 1.0)]:
        for n in range(1, 41):
            zs = zeros_of(fam, m, a, n, b)
            v = xf.v_weight(zs)
            H = xf.energy_hessian(zs.regular, v).hessian
            if np.all(np.diag(H) < 0):
                onset[fam] = n
                break
    print(f"concavity onset (all-negative diagonal): {onset}")
    assert set(onset) == {"laguerre2", "jacobi"}
    assert all(1 <= v <= 40 for v in onset.values())


# ------------------------------------------------------------ criterion 9

def test_potential_matches_hessian_diagonal():
    for (m, n, a) in GRID_3:
        s = spec_of("laguerre1", m, a, n)
        zs = zeros_of("laguerre1", m, a, n)
        nodes = full_zero_nodes(zs)
        H = xf.energy_hessian(nodes, xf.WeightSpec(s)).hessian
        for i, z in enumerate(nodes):
            lhs = H[i, i]
            rhs = -(2.0 / 3.0) * phi(s, z)
            assert abs(lhs - rhs) < 1e-6 * abs(rhs), (m, n, a, z)


def test_jacobi_potential_closed_form():
    cases = [(2, 6.0, 4, 1.0), (1, 3.0, 5, 1.0), (3, 8.0, 4, 0.8)]
    for (m, a, n, b) in cases:
        s = spec_of("jacobi", m, a, n, b)
        zs = zeros_of("jacobi", m, a, n, b)
        pts = list(zs.regular) + [z.real for z in zs.exceptional
                                  if abs(z.imag) < 1e-9 and abs(z.real) < 3.0]
        for x in pts:
            got = phi_closed(s, x)
            want = phi(s, x)
            assert abs(got - want) < 1e-6 * (1 + abs(want)), (m, a, n, b, x)

"""Regular and exceptional zeros: counts, location, certificates."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete.roots import _sort_zeros

from conftest import built_of, spec_of, zeros_of


def test_degree_one_member_single_zero():
    zs = zeros_of("laguerre1", 1, 2.0, 0)
    assert zs.regular.size == 0
    np.testing.assert_allclose(zs.exceptional, [-3.0 + 0j], atol=1e-12)
    np.testing.assert_allclose(zs.s_zeros, [-2.0 + 0j], atol=1e-12)


def test_classical_mode_matches_quadrature_nodes():
    zs = zeros_of("laguerre1", 0, 2.0, 5)
    assert zs.exceptional.size == 0
    np.testing.assert_allclose(zs.regular, xf.laguerre_zeros(5, 2.0), rtol=1e-10)


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


def test_certificate_coefficient_mode():
    zs = zeros_of("laguerre1", 2, 1.5, 10)
    c = zs.certificate
    assert c["method"] == "coefficient" and c["passed"]
    assert c["max_log_excess"] < 0


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
    # coincide; the non-finite Aberth step ends the stage, and no
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
            assert xf.laguerre_zeros(m, a)[-1] <= top


def test_scaled_smallest_zero_near_bessel():
    # n * x_1 approaches (first positive zero of J_1)^2 / 4
    zs = zeros_of("laguerre1", 1, 1.0, 200)
    target = xf.bessel_first_zero(1.0) ** 2 / 4
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

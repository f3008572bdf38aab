"""The Stieltjes system of the certified zeros (roots.stieltjes_system),
from which `verify` reads its construction, saddle and Fekete
stationarity checks, with no monomial build and no energy report."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

import xfekete as xf
from xfekete import cli
from xfekete.roots import stieltjes_system

from conftest import zeros_of

# every family; these two have complex exceptional zeros, so their
# systems are complex
COMPLEX = [("laguerre2", 2, 4.5, 60), ("laguerre2", 3, 4.5, 60)]
SPECS = [("laguerre1", 2, 1.5, 20), ("laguerre1", 3, 2.7, 120),
         ("laguerre2", 1, 3.5, 20), *COMPLEX, ("jacobi", 1, 2.5, 20, 1.5),
         ("jacobi", 2, 2.6, 60, 0.8), ("jacobi", 2, 2.5, 10, 1.25)]
# the specs whose full zero set is real, so that the hat weight's report
# reads it
REAL = [k for k in SPECS if k not in COMPLEX]


def test_the_complex_specs_run_the_complex_system():
    for key in SPECS:
        st = stieltjes_system(zeros_of(*key))
        assert np.iscomplexobj(st.F) == (key in COMPLEX), key


def _holds(zs):
    st = stieltjes_system(zs)
    return st.stieltjes <= 1 and st.van_vleck <= 1


@pytest.mark.parametrize("key", SPECS)
def test_each_injected_defect_fails_construction(key):
    zs = zeros_of(*key)
    spec, k, R = zs.spec, zs.spec.n // 2, dataclasses.replace
    assert _holds(zs)
    # the zeros against the ODE of alpha + 1e-8: B/A moves, so F does
    assert stieltjes_system(R(zs, spec=R(spec, alpha=spec.alpha + 1e-8))
                            ).stieltjes > 1
    # one regular zero replaced by the midpoint to the next
    reg = zs.regular.copy()
    reg[k] = 0.5 * (reg[k] + reg[k + 1])
    assert stieltjes_system(R(zs, regular=reg)).stieltjes > 1
    # the ODE of n + 1 and of n - 1: A and B do not read n, so F holds
    # and the Van Vleck identity R = -C fails
    for n in (spec.n + 1, spec.n - 1):
        st = stieltjes_system(R(zs, spec=R(spec, n=n)))
        assert st.stieltjes <= 1 < st.van_vleck


def _scales(st):
    """Per row, the moduli of F's terms and of J's diagonal terms."""
    z = st.z
    inv = 1.0 / np.where(np.eye(z.size, dtype=bool), np.inf,
                         z[:, None] - z[None, :])
    a = np.abs(inv)
    diag = 2.0 * (a * a).sum(axis=1) + np.abs(np.diag(st.J))
    return 2.0 * a.sum(axis=1) + np.abs(st.d1), diag


@pytest.mark.parametrize("key", REAL)
def test_F_and_J_are_the_hat_report_at_the_full_zero_set(key):
    zs = zeros_of(*key)
    st = stieltjes_system(zs)
    rep = xf.energy_hessian(st.z, xf.WeightSpec(zs.spec))
    order = np.argsort(st.z)
    assert np.array_equal(rep.nodes, st.z[order])
    terms, diag = _scales(st)
    F, J = st.F[order], st.J[np.ix_(order, order)]
    assert np.all(np.abs(F - rep.gradient) <= 1e-13 * terms[order])
    off = ~np.eye(J.shape[0], dtype=bool)
    np.testing.assert_allclose(J[off], rep.hessian[off], rtol=1e-13)
    assert np.all(np.abs(np.diag(J) - np.diag(rep.hessian))
                  <= 1e-13 * diag[order])


@pytest.mark.xfail(strict=True, reason=(
    "weight_logs evaluates S by Horner on its monomial table, which "
    "cancels at laguerre1's negative exceptional zeros"))
def test_hat_gradient_at_negative_exceptional_zeros_is_F_to_rounding():
    # the hat report's gradient at the full zero set lies 7.0e-15 of its
    # terms' moduli away from F at laguerre1 (3, 2.7, 120), the gap at
    # its zero -9.02, against 9.6e-16 at (2, 2.0, 20)
    zs = zeros_of("laguerre1", 3, 2.7, 120)
    st = stieltjes_system(zs)
    rep = xf.energy_hessian(st.z, xf.WeightSpec(zs.spec))
    order = np.argsort(st.z)
    terms = _scales(st)[0][order]
    assert np.all(np.abs(st.F[order] - rep.gradient) <= 1e-15 * terms)


@pytest.mark.parametrize("key", [k for k in SPECS if k[3] >= 1])
def test_regular_rows_and_block_are_the_v_report(key):
    zs = zeros_of(*key)
    st, m = stieltjes_system(zs), zs.spec.m
    rep = xf.energy_hessian(zs.regular, xf.v_weight(zs))
    terms, diag = _scales(st)
    F, J = st.F[m:], st.J[m:, m:]
    assert np.all(np.abs(F.imag) <= 1e-13 * terms[m:])
    assert np.all(np.abs(F.real - rep.gradient) <= 1e-13 * terms[m:])
    off = ~np.eye(J.shape[0], dtype=bool)
    np.testing.assert_allclose(J[off], rep.hessian[off], rtol=1e-13)
    assert np.all(np.abs(np.diag(J) - np.diag(rep.hessian))
                  <= 1e-13 * diag[m:])


@pytest.mark.parametrize("argv", [
    # the monomial coefficients leave binary64 (poly exits 2), the zeros
    # certify, and construction holds
    ["--family", "laguerre2", "--m", "2", "--alpha", "4.5", "--n", "300"],
    # complex exceptional zeros: the complex F, J path
    ["--family", "laguerre2", "--m", "3", "--alpha", "4.5", "--n", "60"]])
def test_verify_passes_from_the_zeros_alone(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify", *argv])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"]
    assert [c["name"] for c in doc["checks"]] == [
        "construction", "zeros", "fekete_stationary"]
    if argv[-1] == "300":
        assert cli.main(["poly", *argv]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "RepresentationOverflow"


def test_the_empty_zero_set_has_no_residual():
    # m = n = 0: no zero, no F, and C = 0, so R + C = 0 with a bound of 0
    for family, beta in [("laguerre1", None), ("laguerre2", None),
                         ("jacobi", 1.5)]:
        st = stieltjes_system(zeros_of(family, 0, 2.5, 0, beta))
        assert st.F.size == 0 and st.J.shape == (0, 0)
        assert st.stieltjes == st.van_vleck == 0.0

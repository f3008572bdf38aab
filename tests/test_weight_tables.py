"""Precomputed weight-polynomial tables and the fused energy terms.

The reference implementations below are the direct forms: weight_logs
rebuilding S and differentiating S and P with numpy.polynomial on every
call, and F, its gradient and its Hessian assembled separately.  The
tabled Horner evaluation does the same floating-point operations in the
same order, so the comparisons are exact, not approximate.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import energy, exceptional, fekete_opt

from conftest import spec_of, zeros_of

SPECS = {"laguerre1": ("laguerre1", 2, 2.5, 5),
         "laguerre2": ("laguerre2", 2, 3.3, 4),
         "jacobi": ("jacobi", 2, 3.2, 5, 1.5)}

# scalar and array evaluation points per family, clear of every pole
POINTS = {"laguerre1": (1.7, [-9.0, -0.5, 0.05, 0.7, 3.1, 12.0, 40.0]),
          "laguerre2": (1.7, [-9.0, -0.5, 0.05, 0.7, 3.1, 12.0, 40.0]),
          "jacobi": (0.3, [-3.0, -0.97, -0.4, 0.0, 0.55, 0.99, 2.0])}


def _ref_poly_logs(coeffs, x):
    c = np.asarray(coeffs, dtype=float)
    p = npoly.polyval(x, c)
    scale = npoly.polyval(np.abs(x), np.abs(c))
    if np.any(np.abs(p) <= 1e-12 * scale):
        raise xf.PoleEvaluation("pole")
    d1 = npoly.polyval(x, npoly.polyder(c))
    d2 = npoly.polyval(x, npoly.polyder(c, 2))
    r = d1 / p
    return np.log(np.abs(p)), r, d2 / p - r * r


def ref_weight_logs(w, x):
    x = np.asarray(x, dtype=float)
    a, b = w.exponents()
    zero = np.zeros_like(x)
    logw = np.full_like(x, w.log_scale)
    d1 = zero.copy()
    d2 = zero.copy()
    if w.spec.family == "jacobi":
        if a != 0:
            logw = logw + a * np.log(np.abs(1.0 - x))
            d1 = d1 - a / (1.0 - x)
            d2 = d2 - a / (1.0 - x) ** 2
        if b != 0:
            logw = logw + b * np.log(np.abs(1.0 + x))
            d1 = d1 + b / (1.0 + x)
            d2 = d2 - b / (1.0 + x) ** 2
    else:
        if a != 0:
            logw = logw + a * np.log(np.abs(x))
            d1 = d1 + a / x
            d2 = d2 - a / x ** 2
        logw = logw - x
        d1 = d1 - 1.0
    if w.variant in ("hat", "v"):
        ls, ls1, ls2 = _ref_poly_logs(xf.build_S(w.spec), x)
        logw = logw - 2.0 * ls
        d1 = d1 - 2.0 * ls1
        d2 = d2 - 2.0 * ls2
    if w.variant == "v":
        lp, lp1, lp2 = _ref_poly_logs(w.P, x)
        logw = logw + 2.0 * lp
        d1 = d1 + 2.0 * lp1
        d2 = d2 + 2.0 * lp2
    if x.ndim == 0:
        return float(logw), float(d1), float(d2)
    return logw, d1, d2


def ref_log_energy(nodes, w):
    logw, _, _ = ref_weight_logs(w, nodes)
    i, j = np.triu_indices(nodes.size, k=1)
    cross = np.log(np.abs(nodes[i] - nodes[j]))
    return math.fsum(logw) + 2.0 * math.fsum(cross)


def ref_gradient_and_hessian(nodes, w):
    _, d1, d2 = ref_weight_logs(w, nodes)
    dif = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dif, np.inf)
    inv = 1.0 / dif
    g = d1 + 2.0 * np.sum(inv, axis=1)
    H = 2.0 * inv ** 2
    np.fill_diagonal(H, d2 - 2.0 * np.sum(inv ** 2, axis=1))
    return g, H


def weight(family, variant, log_scale=0.0):
    args = SPECS[family]
    spec = spec_of(*args)
    P = xf.v_weight(zeros_of(*args)).P if variant == "v" else None
    return xf.WeightSpec(spec, variant, P=P, log_scale=log_scale)


@pytest.mark.parametrize("log_scale", [0.0, 0.25])
@pytest.mark.parametrize("variant", ["base", "hat", "v"])
@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_weight_logs_bit_identical_to_direct_form(family, variant, log_scale):
    w = weight(family, variant, log_scale)
    scalar, array = POINTS[family]
    got = xf.weight_logs(w, scalar)
    ref = ref_weight_logs(w, scalar)
    assert all(type(v) is float for v in got)
    assert got == ref
    x = np.array(array)
    if family != "jacobi" and variant == "base":
        x = x[x > 0]        # non-integer exponent: undefined for x < 0
    for g, r in zip(xf.weight_logs(w, x), ref_weight_logs(w, x)):
        np.testing.assert_array_equal(g, r)


@pytest.mark.parametrize("variant", ["base", "hat", "v"])
@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_energy_terms_bit_identical_to_separate_assembly(family, variant):
    w = weight(family, variant)
    nodes = zeros_of(*SPECS[family]).regular
    nodes = nodes + 0.01 * np.sin(np.arange(nodes.size))
    F, g, H = xf.energy_terms(nodes, w)
    assert F == ref_log_energy(nodes, w)
    g_ref, H_ref = ref_gradient_and_hessian(nodes, w)
    np.testing.assert_array_equal(g, g_ref)
    np.testing.assert_array_equal(H, H_ref)
    assert xf.log_energy(nodes, w) == F
    rep = xf.energy_hessian(nodes, w)
    assert rep.logT == F
    np.testing.assert_array_equal(rep.hessian, H)


@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_stacked_assembly_bit_identical_row_by_row(family):
    w = weight(family, "v")
    base = zeros_of(*SPECS[family]).regular
    X = np.array([base + 0.01 * np.sin(np.arange(base.size) + r)
                  for r in range(4)])
    F, G, H = energy._assemble(X, *xf.weight_logs(w, X))
    for r, x in enumerate(X):
        assert F[r] == ref_log_energy(x, w)
        g_ref, H_ref = ref_gradient_and_hessian(x, w)
        np.testing.assert_array_equal(G[r], g_ref)
        np.testing.assert_array_equal(H[r], H_ref)


def test_phi_closed_matches_direct_form():
    spec = spec_of(*SPECS["jacobi"])
    x = np.array(POINTS["jacobi"][1][1:-1])
    _, r, _ = _ref_poly_logs(xf.build_S(spec), x)
    al, be, m, n = spec.alpha, spec.beta, spec.m, spec.n
    t = 2 * m * (al - be - m + 1) + n * (n + al + be + 1)
    q = 2.0 * r * (1.0 - x ** 2) + (al + be) + (al - be + 1) * x
    g2 = -al ** 2 - be ** 2 + 6 * al * be - 2 * al + 6 * be - 2 + 4 * t
    g1 = 2 * (be ** 2 - al ** 2) - 4 * (al + be)
    g0 = -al ** 2 - be ** 2 - 6 * al * be - 2 * al - 2 * be - 4 - 4 * t
    g = (g2 * x + g1) * x + g0
    ref = -(2.0 * q ** 2 + g) / (4.0 * (1.0 - x ** 2) ** 2)
    np.testing.assert_array_equal(xf.phi_closed(spec, x), ref)


def test_weight_polynomial_is_read_only():
    spec = spec_of(*SPECS["laguerre2"])
    P = xf.v_weight(zeros_of(*SPECS["laguerre2"])).P.copy()
    w = xf.WeightSpec(spec, "v", P=P)
    assert not w.P.flags.writeable
    with pytest.raises(ValueError):
        w.P[0] = 1.0
    P[0] = 7.0                       # the caller's array is copied
    assert w.P[0] != 7.0


def _count_calls(monkeypatch, module, name, counter):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called during the ascent")

    monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_one_weight_evaluation_per_ascent_point(monkeypatch, family):
    w = weight(family, "v")
    n = w.spec.n
    domain = fekete_opt.default_domain(w, n)
    init = np.sort(np.random.default_rng(5).uniform(*domain, size=n))
    counter = {"weight_logs": 0, "points": 0, "rounds": 0, "evaluated": 0,
               "evaluating": 0}
    real_logs, real_evaluate = fekete_opt.weight_logs, fekete_opt._evaluate

    def logs(w, x):
        counter["weight_logs"] += 1
        counter["points"] += np.size(x)
        return real_logs(w, x)

    def evaluate(w, X, domain):
        counter["rounds"] += 1
        reason, F, G, H = real_evaluate(w, X, domain)
        # rows that reached the energy evaluation, and the rounds with one
        reached = int(np.sum((reason == "") | (reason == "pole")))
        counter["evaluated"] += reached
        counter["evaluating"] += reached > 0
        return reason, F, G, H

    monkeypatch.setattr(fekete_opt, "weight_logs", logs)
    monkeypatch.setattr(fekete_opt, "_evaluate", evaluate)
    _forbid(monkeypatch, exceptional, "build_S")
    _forbid(monkeypatch, npoly, "polyder")
    _forbid(monkeypatch, npoly, "polyval")
    nodes, trace = fekete_opt.maximize_log_T(w, domain, n, init)
    # one weight evaluation per round that reaches one (none for a round
    # whose candidate is rejected before), covering each point once
    assert counter["weight_logs"] == counter["evaluating"]
    assert counter["points"] == n * counter["evaluated"]
    # the start plus at least one candidate per completed iteration
    assert counter["evaluated"] >= len(trace)
    assert len(trace) > 2


def test_energy_hessian_evaluates_the_weight_once(monkeypatch):
    w = weight("laguerre1", "v")
    nodes = zeros_of(*SPECS["laguerre1"]).regular
    counter = {"weight_logs": 0}
    _count_calls(monkeypatch, energy, "weight_logs", counter)
    xf.energy_hessian(nodes, w)
    assert counter["weight_logs"] == 1


def test_probe_cluster_energy_is_the_ascent_value():
    w = weight("jacobi", "v")
    n = w.spec.n
    probe = xf.uniqueness_probe(w, fekete_opt.default_domain(w, n), n,
                                trials=3, seed=2)
    for c in probe["clusters"]:
        assert c["logT"] == xf.log_energy(c["nodes"], w)

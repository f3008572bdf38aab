"""Precomputed weight-polynomial tables and the fused energy terms.

The reference implementations below are the direct forms: weight_logs
rebuilding S and differentiating S and P with numpy.polynomial on every
call, and F, its gradient and its Hessian assembled separately.  The
tabled Horner evaluation does the same floating-point operations in the
same order, so the comparisons are exact, not approximate.
"""

import functools
import json
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import classical_poly, cli, energy, exceptional, fekete_opt

from conftest import spec_of, zeros_of
from reference import maximize_log_T, phi_closed

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
    logw = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
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


def weight(family, variant):
    args = SPECS[family]
    spec = spec_of(*args)
    P = xf.v_weight(zeros_of(*args)).P if variant == "v" else None
    return xf.WeightSpec(spec, variant, P=P)


@pytest.mark.parametrize("variant", ["base", "hat", "v"])
@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_weight_logs_bit_identical_to_direct_form(family, variant):
    w = weight(family, variant)
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
    assert np.all(np.diff(nodes) > 0)
    rep = xf.energy_hessian(nodes, w)
    assert rep.logT == ref_log_energy(nodes, w)
    g_ref, H_ref = ref_gradient_and_hessian(nodes, w)
    np.testing.assert_array_equal(rep.gradient, g_ref)
    np.testing.assert_array_equal(rep.hessian, H_ref)
    assert xf.log_energy(nodes, w) == rep.logT


def test_log_energy_is_F_without_the_hessian_at_the_diameter_size(
        monkeypatch):
    # a diameter member: laguerre1 m = 1 at n = 150, v weight, its
    # regular zeros; log_energy reads F off the weight and cross logs
    zs = zeros_of("laguerre1", 1, 2.0, 150)
    w = xf.v_weight(zs)
    nodes = zs.regular
    F = ref_log_energy(nodes, w)
    calls = []
    for name in ("_assemble", "_derivatives"):
        real = getattr(energy, name)
        monkeypatch.setattr(energy, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert xf.log_energy(nodes, w) == F
    assert calls == []
    # the count is live: energy_hessian forms the Hessian once
    assert xf.energy_hessian(nodes, w).logT == F
    assert calls == ["_derivatives"]


def test_prefix_pairs_give_the_triu_order_sums():
    # log_energy gathers its pairs in prefix order; fsum makes the
    # order free.  Sizes are asked out of
    # order so nothing can depend on the size of an earlier call.
    w = weight("laguerre1", "v")
    rng = np.random.default_rng(11)
    for n in (150, 7, 151, 2, 1):
        nodes = np.sort(rng.uniform(0.05, 600.0, n))
        assert xf.log_energy(nodes, w) == ref_log_energy(nodes, w)
        diffs = [nodes[j] - nodes[i] for j in range(n) for i in range(j)]
        want = np.log(np.abs(np.array(diffs, dtype=float)))
        assert energy._pair_logs(nodes).tolist() == want.tolist()


@pytest.mark.parametrize("family", ["laguerre1", "laguerre2", "jacobi"])
def test_stacked_assembly_bit_identical_row_by_row(family):
    w = weight(family, "v")
    base = zeros_of(*SPECS[family]).regular
    X = np.array([base + 0.01 * np.sin(np.arange(base.size) + r)
                  for r in range(4)])
    logw, d1, d2 = xf.weight_logs(w, X)
    F, G, H, cross = energy._assemble(X, logw, d1, d2)
    for r, x in enumerate(X):
        assert energy._compensated(logw[r], cross[r]) == ref_log_energy(x, w)
        # the plain sums of a row do not depend on the stack around it
        one = slice(r, r + 1)
        assert F[r] == energy._assemble(X[one], logw[one], d1[one],
                                        d2[one])[0][0]
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
    np.testing.assert_array_equal(phi_closed(spec, x), ref)


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
    counter = {"weight_logs": 0, "points": 0, "evaluations": 0,
               "evaluated": 0}
    real_logs, real_evaluate = fekete_opt._weight_logs, fekete_opt._evaluate

    def logs(w, x):
        counter["weight_logs"] += 1
        counter["points"] += np.size(x)
        return real_logs(w, x)

    def evaluate(w, X):
        # the rows that reach the energy evaluation
        counter["evaluations"] += 1
        counter["evaluated"] += len(X)
        return real_evaluate(w, X)

    monkeypatch.setattr(fekete_opt, "_weight_logs", logs)
    monkeypatch.setattr(fekete_opt, "_evaluate", evaluate)
    _forbid(monkeypatch, energy, "weight_logs")
    _forbid(monkeypatch, exceptional, "build_S")
    _forbid(monkeypatch, npoly, "polyder")
    _forbid(monkeypatch, classical_poly, "polyder")
    _forbid(monkeypatch, exceptional, "polyder")
    _forbid(monkeypatch, npoly, "polyval")
    nodes, trace = maximize_log_T(w, domain, n, init)
    # one weight evaluation per try that reaches one (none for a try
    # whose candidate is rejected before), covering each point once
    assert counter["weight_logs"] == counter["evaluations"]
    assert counter["points"] == n * counter["evaluated"]
    # the start plus at least one candidate per completed iteration
    assert counter["evaluated"] >= len(trace)
    assert len(trace) > 2


def pole_cases():
    """(weight, points, message) of weight_logs' pole guards; the last
    four fire two guards, and the message is the first one checked."""
    lag = zeros_of("laguerre1", 1, 2.0, 4)
    jac = zeros_of("jacobi", 1, 2.5, 4, 1.5)
    lag_base = xf.WeightSpec(spec_of("laguerre1", 1, 2.5, 4), "base")
    lag_hat, lag_v = xf.WeightSpec(lag.spec, "hat"), xf.v_weight(lag)
    jac_base, jac_hat = (xf.WeightSpec(jac.spec, "base"),
                         xf.WeightSpec(jac.spec, "hat"))
    jac_v = xf.v_weight(jac)
    # S(-2) = 0 for laguerre1 m = 1, alpha = 2; P's zero is exceptional
    p_lag, p_jac = (float(zs.exceptional[0].real) for zs in (lag, jac))
    near = ("evaluation point too close to x = 0",
            "evaluation point too close to x = 1",
            "evaluation point too close to x = -1")
    below = ("base Laguerre weight undefined for x < 0 at non-integer "
             "exponent")
    poly = "evaluation point too close to a zero of a weight polynomial"
    return [(lag_base, [1.0, 5e-13], near[0]),
            (lag_hat, [1.0, -5e-13], near[0]),
            (lag_v, [0.0], near[0]),
            (jac_base, [0.5, 1 - 5e-13], near[1]),
            (jac_hat, [-1 + 5e-13, 0.5], near[2]),
            (jac_v, [1.0], near[1]),
            (lag_base, [3.0, -0.5], below),
            (lag_hat, [-2.0, 3.0], poly),
            (lag_hat, -2.0, poly),
            (lag_v, [-2.0], poly),
            (lag_v, [p_lag, 3.0], poly),
            (lag_base, [-0.5, 1e-13], near[0]),
            (jac_base, [-1.0, 1.0], near[1]),
            (lag_hat, [-2.0, 0.0], near[0]),
            (jac_v, [p_jac, 1 - 1e-13], near[1])]


def test_weight_logs_pole_messages():
    for w, x, message in pole_cases():
        with pytest.raises(xf.PoleEvaluation) as exc:
            xf.weight_logs(w, np.asarray(x))
        assert str(exc.value) == message


def test_pole_guard_masks_are_the_points_that_raise():
    cases = pole_cases()
    for k, (w, x, message) in enumerate(cases):
        x = np.atleast_1d(x)
        logs, guards = energy._weight_logs(w, x)
        assert len(guards) == (2 if k >= len(cases) - 4 else 1)
        assert guards[0][0] == message
        for i, xi in enumerate(x):
            fired = [m for m, mask in guards if mask[i]]
            try:
                one = xf.weight_logs(w, xi)
            except xf.PoleEvaluation as exc:
                assert str(exc) == fired[0]
                # finite, though meaningless: nothing warned
                assert all(np.isfinite(a[i]) for a in logs)
            else:
                assert not fired
                # every other point keeps its bits
                assert ([float(a[i]).hex() for a in logs]
                        == [b.hex() for b in one])


# every field of an EnergyReport, the ones computed on read included
REPORT_FIELDS = ("nodes", "logT", "gradient", "hessian", "diag_signs",
                 "stationary", "diagonally_dominant", "block_dominant",
                 "classification")


def test_energy_hessian_evaluates_the_weight_once(monkeypatch):
    w = weight("laguerre1", "v")
    nodes = zeros_of(*SPECS["laguerre1"]).regular
    counter = {"weight_logs": 0}
    _count_calls(monkeypatch, energy, "weight_logs", counter)
    rep = xf.energy_hessian(nodes, w)
    # the fields computed on read use the stored terms, not the weight
    for name in REPORT_FIELDS:
        getattr(rep, name)
    assert counter["weight_logs"] == 1


def ref_energy_hessian(nodes, w):
    """The eager report: every field formed at once from one assembly of
    the nodes in the order given, the dominance tests included."""
    X = energy._check_nodes(nodes)[None]
    logw, d1, d2 = xf.weight_logs(w, X)
    _, (g,), (H,), (cross,) = energy._assemble(X, logw, d1, d2)
    F = energy._compensated(logw[0], cross)
    stat = float(np.max(np.abs(g))) < energy.GRAD_RTOL * (
        1 + np.max(np.abs(d1[0])))
    d = np.diag(H)
    row_off = np.sum(np.abs(H), axis=1) - np.abs(d)
    dominant = bool(np.all(np.abs(d) > row_off))
    if not stat:
        cls = "none"
    elif np.any(d > 0) and np.any(d < 0):
        cls = "saddle"
    elif np.all(d < 0) and dominant:
        cls = "local-max"
    else:
        cls = "indefinite"
    return {"nodes": np.sort(X[0]), "logT": F, "gradient": g, "hessian": H,
            "diag_signs": np.sign(d).astype(int), "stationary": stat,
            "diagonally_dominant": dominant,
            "block_dominant": energy._block_dominant(H),
            "classification": cls}


def _report_nodes(args, variant):
    """The nodes a report is read at: the full zero set for hat (its
    exceptional zeros are real here), the regular zeros otherwise."""
    zs = zeros_of(*args)
    if variant == "hat":
        return np.sort(np.concatenate([zs.exceptional.real, zs.regular]))
    return zs.regular


# (spec, variant, classification): the hat weight on the full zero set
# is a saddle, the v weight on the regular zeros a local maximum, the
# base weight is not stationary there, and at n = 1 and a small alpha
# every diagonal entry of the hat Hessian is positive
REPORT_CASES = [
    (args, variant, cls)
    for fam_args in ((("laguerre1", 1, 2.0, 5), ("laguerre1", 1, 0.01, 1)),
                     (("laguerre2", 1, 3.5, 5), ("laguerre2", 1, 0.01, 1)),
                     (("jacobi", 1, 2.5, 5, 1.5), ("jacobi", 1, 0.01, 1, 1.5)))
    for args, variant, cls in ((fam_args[0], "hat", "saddle"),
                               (fam_args[0], "v", "local-max"),
                               (fam_args[0], "base", "none"),
                               (fam_args[1], "hat", "indefinite"))
]


@pytest.mark.parametrize("args,variant,cls", REPORT_CASES,
                         ids=[f"{a[0]}-{v}-{c}" for a, v, c in REPORT_CASES])
def test_energy_report_matches_the_eager_report(args, variant, cls):
    zs = zeros_of(*args)
    w = (xf.v_weight(zs) if variant == "v"
         else xf.WeightSpec(spec_of(*args), variant))
    nodes = _report_nodes(args, variant)
    ref = ref_energy_hessian(nodes, w)
    assert ref["classification"] == cls
    # a permuted input gives the report of the sorted nodes
    perm = np.random.default_rng(5).permutation(nodes.size)
    for x in (nodes, nodes[perm]):
        rep = xf.energy_hessian(x, w)
        assert rep.logT.hex() == ref["logT"].hex()
        for name in REPORT_FIELDS:
            got, want = getattr(rep, name), ref[name]
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            else:
                assert type(got) is type(want) and got == want, name


def test_all_negative_diagonal_without_dominance_is_indefinite():
    # a stationary report whose diagonal is negative but whose rows are
    # not dominant reaches the one branch that tests dominance
    H = np.array([[-1.0, 2.0], [2.0, -1.0]])
    rep = energy.EnergyReport(weight=None, nodes=np.array([0.0, 1.0]),
                              logw=np.zeros(2), gradient=np.zeros(2),
                              hessian=H, diag_signs=np.array([-1, -1]),
                              stationary=True)
    assert rep.classification == "indefinite"
    assert not rep.diagonally_dominant and not rep.block_dominant


def test_verify_forms_no_logT_sum_and_no_dominance_test(monkeypatch,
                                                        capsys):
    # verify reads the gradient, the stationarity flag, the diagonal
    # signs and the classification of its saddle (hat) and Fekete (v)
    # reports; a laguerre1 saddle classifies without a dominance test
    counter = {"_compensated": 0, "_block_dominant": 0}
    _count_calls(monkeypatch, energy, "_compensated", counter)
    _count_calls(monkeypatch, energy, "_block_dominant", counter)
    calls = []
    real = energy.EnergyReport.diagonally_dominant.func
    counted = functools.cached_property(lambda r: calls.append(1) or real(r))
    counted.__set_name__(energy.EnergyReport, "diagonally_dominant")
    monkeypatch.setattr(energy.EnergyReport, "diagonally_dominant", counted)
    argv = ["verify", "--family", "laguerre1", "--m", "1", "--alpha", "2",
            "--n", "5"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in out["checks"]} >= {"saddle",
                                                  "fekete_stationary"}
    assert counter == {"_compensated": 0, "_block_dominant": 0}
    assert calls == []
    # the counts are live: a report read in full pays for each once
    rep = xf.energy_hessian(_report_nodes(("laguerre1", 1, 2.0, 5), "v"),
                            xf.v_weight(zeros_of("laguerre1", 1, 2.0, 5)))
    for name in REPORT_FIELDS:
        getattr(rep, name)
        getattr(rep, name)
    assert counter == {"_compensated": 1, "_block_dominant": 1}
    assert calls == [1]


def test_probe_cluster_energy_is_the_ascent_value():
    w = weight("jacobi", "v")
    n = w.spec.n
    probe = xf.uniqueness_probe(w, fekete_opt.default_domain(w, n), n,
                                trials=3, seed=2)
    for c in probe["clusters"]:
        assert c["logT"] == xf.log_energy(c["nodes"], w)


# v weights whose S and P differ in degree, so the stacked table pads
# one of them: m = 0 (S = 1, P = 1), m = 1, m = 3, complex exceptional
# zeros (laguerre2 m = 2, jacobi m = 3) and custom node polynomials of
# higher and lower degree than S
V_CASES = {
    "laguerre1-m0": (("laguerre1", 0, 2.5, 5), None),
    "laguerre1-m1": (("laguerre1", 1, 2.0, 5), None),
    "laguerre1-m3": (("laguerre1", 3, 2.5, 5), None),
    "laguerre2-complex": (("laguerre2", 2, 3.3, 4), None),
    "jacobi-complex": (("jacobi", 3, 4.2, 5, 1.5), None),
    "custom-P-above-S": (("laguerre1", 1, 2.0, 5),
                         npoly.polyfromroots([-0.3, -2.2, -7.7])),
    "custom-P-below-S": (("laguerre1", 3, 2.5, 5), np.array([2.0, 1.0])),
}


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("case", V_CASES)
def test_stacked_v_weight_logs_bit_identical_to_direct_form(case):
    args, P = V_CASES[case]
    spec = spec_of(*args)
    if P is None:
        P = xf.v_weight(zeros_of(*args)).P
    w = xf.WeightSpec(spec, "v", P=P)
    scalar, array = POINTS[args[0]]
    # negative points and a negative zero, where the weight allows it
    x = np.array(array + ([-0.0] if args[0] == "jacobi" else []))
    got, ref = xf.weight_logs(w, scalar), ref_weight_logs(w, scalar)
    assert all(type(v) is float for v in got)
    assert [_bits(v) for v in got] == [_bits(v) for v in ref]
    for g, r in zip(xf.weight_logs(w, x), ref_weight_logs(w, x)):
        assert _bits(g) == _bits(r)


@pytest.mark.parametrize("args", [("jacobi", 0, 0.0, 3, 0.0),
                                  ("laguerre1", 0, 0.0, 3),
                                  ("jacobi", 1, -0.5, 3, -0.5)],
                         ids=lambda a: a[0] + "-" + str(a[2]))
def test_base_weight_logs_with_no_pole_term_bit_identical(args):
    # a zero exponent drops its pole term, and with none the sums come
    # out of weight_logs as arrays all the same; at x = +-0 the jacobi
    # terms are signed zeros
    w = xf.WeightSpec(spec_of(*args), "base")
    x = np.array([-0.5, -0.0, 0.0, 0.3] if args[0] == "jacobi"
                 else [0.5, 2.0])
    for g, r in zip(xf.weight_logs(w, x), ref_weight_logs(w, x)):
        assert g.shape == x.shape and _bits(g) == _bits(r)

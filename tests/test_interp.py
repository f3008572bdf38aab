"""Lagrange fundamentals, the weighted squared-basis operator, and the
stability certification on regular zeros."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import xfekete as xf
from xfekete import cli, interp
from xfekete.exceptional import FAMILY
from xfekete.interp import _nearest_node_distance, scan_grid

from conftest import random_nodes, spec_of, zeros_of
from reference import grunwald, hermite_form, lagrange_basis


def v_of(family, m, alpha, n, beta=None):
    return xf.v_weight(zeros_of(family, m, alpha, n, beta))


# ---------------------------------------------------------------- basis

def test_kronecker_property():
    L = lagrange_basis(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(L(0.0), [1.0, 0.0])
    np.testing.assert_array_equal(L(1.0), [0.0, 1.0])


def test_middle_basis_value():
    L = lagrange_basis(np.array([0.0, 1.0, 2.0]))
    assert L(0.5)[1] == pytest.approx(0.75, rel=1e-14)


def test_basis_shapes():
    L = lagrange_basis(np.array([0.0, 1.0, 2.0]))
    assert L(0.5).shape == (3,)
    assert L(np.array([0.5, 1.5])).shape == (3, 2)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    zs = zeros_of("laguerre1", 1, 2.0, 6)
    for nodes in (np.linspace(0.0, 5.0, 6), zs.regular):
        x = rng.uniform(nodes[0], nodes[-1], 20)
        total = lagrange_basis(nodes)(x).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_partition_of_unity_scales_with_conditioning(seed, n):
    rng = np.random.default_rng(seed)
    nodes = 0.1 + np.cumsum(rng.uniform(0.2, 5.0, n))
    x = rng.uniform(nodes[0] - 2.0, nodes[-1] + 2.0, 20)
    vals = lagrange_basis(nodes)(x)
    # adversarial node sets are tested against the Lebesgue function,
    # the conditioning of any pointwise statement about the basis
    lebesgue = np.abs(vals).sum(axis=0)
    err = np.abs(vals.sum(axis=0) - 1.0)
    assert np.all(err < 5e-15 * (1.0 + lebesgue))


def test_coincident_nodes_rejected():
    with pytest.raises(xf.CoincidentNodes):
        lagrange_basis(np.array([1.0, 1.0]))


@pytest.mark.parametrize("nodes", [[], [[1.0, 2.0]], 1.0])
def test_nodes_that_are_not_a_nonempty_1d_array_are_invalid(nodes):
    # the input's fault, not a numerical failure (CLI exit 1, not 2)
    with pytest.raises(xf.ValidationError):
        lagrange_basis(np.array(nodes))


# ---------------------------------------------------------------- operator

def test_operator_interpolates():
    zs = zeros_of("laguerre1", 1, 2.0, 2)
    v = v_of("laguerre1", 1, 2.0, 2)
    y = np.array([0.3, 0.7])
    G = grunwald(zs.regular, v, y=y)
    assert G(zs.regular[0]) == 0.3
    assert G(zs.regular[1]) == 0.7


def test_operator_annihilates_zero_data():
    zs = zeros_of("laguerre1", 1, 2.0, 4)
    G = grunwald(zs.regular, v_of("laguerre1", 1, 2.0, 4),
                    y=np.zeros(4))
    x = np.linspace(0.1, 20.0, 50)
    assert np.max(np.abs(G(x))) == 0.0


def test_operator_default_data_is_unit():
    zs = zeros_of("laguerre1", 1, 2.0, 3)
    G = grunwald(zs.regular, v_of("laguerre1", 1, 2.0, 3))
    assert G(zs.regular[2]) == 1.0


def test_monotone_bound_in_stable_regime():
    """0 <= y <= 1 forces 0 <= G y <= max y within rounding."""
    zs = zeros_of("laguerre1", 1, 2.0, 8)
    v = v_of("laguerre1", 1, 2.0, 8)
    rng = np.random.default_rng(5)
    grid = scan_grid(zs.regular, "laguerre1", grid_size=400)
    for _ in range(5):
        y = rng.uniform(0.0, 1.0, 8)
        vals = grunwald(zs.regular, v, y=y)(grid)
        assert np.min(vals) >= 0.0
        assert np.max(vals) <= np.max(y) + 1e-10


def test_operator_matches_hermite_form():
    """At the regular zeros the Fejér constants vanish, so the
    first-order Hermite interpolant collapses onto the squared-basis
    operator with unit data."""
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    G = grunwald(zs.regular, v)
    Hm = hermite_form(zs.regular, v)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.05, 30.0, 50)
    gv, hv = G(x), Hm(x)
    assert np.max(np.abs(gv - hv) / (np.abs(gv) + 1e-30)) < 1e-8


def test_total_degree_accounting():
    """With the weight stripped, sum_k l_k(x)^2 / v(x_k) times P(x)^2 is
    a single polynomial of degree exactly 2n - 2 + 2m."""
    n, m = 4, 1
    zs = zeros_of("laguerre1", m, 2.0, n)
    v = v_of("laguerre1", m, 2.0, n)
    L = lagrange_basis(zs.regular)
    inv_v = np.exp(-np.array([xf.weight_logs(v, t)[0] for t in zs.regular]))
    deg = 2 * n - 2 + 2 * m

    def H(x):
        q = (L(x) ** 2 * inv_v[:, None]).sum(axis=0)
        P = np.prod(x[:, None] - zs.exceptional.real[None, :], axis=1)
        return q * P * P

    # interpolating at deg+1 points reproduces H; one degree less cannot
    t_fit = np.linspace(0.5, 14.0, deg + 1)
    c = npoly.polyfit(t_fit, H(t_fit), deg)
    t_new = np.linspace(1.0, 13.0, 17)
    scale = np.abs(H(t_new)) + 1.0
    assert np.max(np.abs(npoly.polyval(t_new, c) - H(t_new)) / scale) < 1e-8
    c_low = npoly.polyfit(t_fit, H(t_fit), deg - 1)
    assert np.max(np.abs(npoly.polyval(t_new, c_low) - H(t_new)) / scale) > 1e-4


# ---------------------------------------------------------------- stability

def test_stability_scan_passes_in_regime():
    rep = xf.stability_scan(zeros_of("laguerre1", 1, 2.0, 3), grid_size=400)
    assert rep["passed"]
    assert rep["one_minus_g_min_offnode"] > 0
    assert rep["max"] <= 1 + 1e-10
    assert rep["min"] >= 0
    assert rep["total_degree"] == 3 * (2 * 3 - 2 + 2 * 1)


def test_stability_scan_classical_control():
    rep = xf.stability_scan(zeros_of("laguerre1", 0, 1.0, 5), grid_size=400)
    assert rep["passed"]


def test_a_grid_point_on_the_pole_raises_for_the_whole_grid(monkeypatch):
    # reaches the terms' re-raise, weight_logs(w, x) over the whole
    # grid: a point within 1e-12 of the Laguerre pole at 0 trips the
    # block's guard, and the scan raises the whole grid's first guard
    grid = scan_grid

    def on_the_pole(nodes, family, grid_size):
        return np.concatenate([[1e-13], grid(nodes, family, grid_size)])

    monkeypatch.setattr(interp, "scan_grid", on_the_pole)
    with pytest.raises(xf.PoleEvaluation,
                       match="^evaluation point too close to x = 0$"):
        xf.stability_scan(zeros_of("laguerre1", 1, 2.0, 3), grid_size=400)


@pytest.mark.parametrize("args", [
    ("laguerre1", 1, 2.0, 40), ("laguerre2", 2, 4.5, 30),
    ("jacobi", 1, 2.5, 60, 1.5), ("laguerre1", 0, 1.0, 5)],
    ids=lambda a: f"{a[0]}-m{a[1]}")
def test_nearest_node_distance_is_the_dense_minimum(args):
    zs = zeros_of(*args)
    nodes = zs.regular
    # the scan grid, with points that are exactly nodes
    grid = np.unique(np.concatenate([scan_grid(nodes, args[0]), nodes]))
    dense = np.abs(np.subtract.outer(grid, nodes))
    dense /= 1.0 + np.abs(nodes)
    ref = np.min(dense, axis=1)
    got = _nearest_node_distance(grid, nodes)
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(got > 1e-4, ref > 1e-4)
    assert np.count_nonzero(got == 0.0) == nodes.size


def test_scan_grid_refines_near_nodes():
    nodes = np.array([1.0, 4.0])
    grid = scan_grid(nodes, "laguerre1", grid_size=100)
    assert np.min(np.abs(grid - 1.0)) < 1e-4
    assert np.all(grid > 0)


def ref_scan_grid(nodes, family, grid_size=1000):
    """scan_grid with its near-node points x_k -+ eps (1 + |x_k|) formed
    node by node, in Python floats."""
    nodes = np.sort(np.asarray(nodes, dtype=float))
    n = nodes.size
    lo, hi = FAMILY[family].interval
    if np.isfinite(hi):
        t = np.geomspace(1e-6, 1.0, grid_size // 2)
        base = np.concatenate([lo + t, hi - t])
    else:
        top = nodes[-1] * (1.0 + 10.0 / n)
        base = np.concatenate([np.geomspace(1e-6, top, grid_size),
                               np.linspace(top, 3.0 * top, 50)])
    near = []
    for xk in nodes:
        for eps in (1e-5, 1e-7):
            off = eps * (1.0 + abs(xk))
            near.extend([xk - off, xk + off])
    grid = np.unique(np.concatenate([base, np.asarray(near)]))
    return grid[(grid > lo + 1e-9) & (grid < hi - 1e-9)]


@pytest.mark.parametrize("args", [("laguerre1", 2, 2.7, 5),
                                  ("laguerre1", 2, 2.7, 120),
                                  ("laguerre2", 2, 3.3, 40),
                                  ("jacobi", 2, 2.6, 60, 0.8)])
def test_scan_grid_bit_identical(args):
    nodes = zeros_of(*args).regular
    for grid_size in (0, 7, 1000):
        got = scan_grid(nodes, args[0], grid_size)
        assert got.tobytes() == ref_scan_grid(nodes, args[0],
                                              grid_size).tobytes()


# ---------------------------------------------------------------- blocks

def ref_terms(nodes, w, x):
    """One (n, nx) table over all the points x, the formula before the
    column blocks: the terms v(x)/v(x_k) l_k(x)^2, and the mask of the
    points that are nodes exactly, whose columns are pure Kronecker."""
    dif = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dif, 1.0)
    logbw = -np.sum(np.log(np.abs(dif)), axis=1)
    d = x[None, :] - nodes[:, None]
    hit = d == 0.0
    anyhit = hit.any(axis=0)
    d[hit] = 1.0
    logd = np.log(np.abs(d))
    loglk = np.sum(logd, axis=0)[None, :] - logd + logbw[:, None]
    loglk[:, anyhit] = -np.inf
    loglk[hit] = 0.0
    arg = (2.0 * loglk + xf.weight_logs(w, x)[0][None, :]
           - xf.weight_logs(w, nodes)[0][:, None])
    with np.errstate(over="ignore"):
        return np.exp(arg), hit, anyhit


def ref_grunwald(nodes, w, x, y=None):
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    terms, hit, anyhit = ref_terms(nodes, w, x)
    if y is None:
        out = np.sum(terms, axis=0)
        out[anyhit] = 1.0
    else:
        out = np.sum(y[:, None] * terms, axis=0)
        out[anyhit] = y[np.argmax(hit[:, anyhit], axis=0)]
    return float(out[0]) if scalar else out


def ref_hermite(nodes, w, x):
    terms, _, anyhit = ref_terms(nodes, w, x)
    C = xf.energy_hessian(nodes, w).gradient
    bracket = 1.0 - (x[None, :] - nodes[:, None]) * C[:, None]
    with np.errstate(over="ignore"):
        out = np.sum(terms * bracket, axis=0)
    out[anyhit] = 1.0
    return out


def ref_stability_scan(zs, grid_size):
    nodes = zs.regular
    grid = scan_grid(nodes, zs.spec.family, grid_size)
    vals = ref_grunwald(nodes, xf.v_weight(zs), grid)
    finite = np.isfinite(vals)
    gmax = float(np.max(vals[finite]))
    gmin = float(np.min(vals[finite]))
    off = finite & (_nearest_node_distance(grid, nodes) > 1e-4)
    n, m = zs.spec.n, zs.spec.m
    return {"passed": bool(np.all(finite) and gmin >= 0.0
                           and gmax <= 1.0 + 1e-10),
            "max": gmax, "min": gmin,
            "argmax": float(grid[np.argmax(np.where(finite, vals,
                                                    -np.inf))]),
            "argmin": float(grid[np.argmin(np.where(finite, vals,
                                                    np.inf))]),
            "one_minus_g_min": 1.0 - gmax,
            "one_minus_g_min_offnode": (float(np.min(1.0 - vals[off]))
                                        if np.any(off) else np.nan),
            "points": int(grid.size),
            "total_degree": int(n * (2 * n - 2 + 2 * m))}


def _block_columns(n):
    return interp._column_blocks(n, 10**6)[0].stop


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_blocks_keep_the_bits_of_one_table(tail):
    zs = zeros_of("laguerre1", 3, 2.7, 120)
    nodes, w = zs.regular, v_of("laguerre1", 3, 2.7, 120)
    B = _block_columns(nodes.size)
    rng = np.random.default_rng(tail)
    x = rng.uniform(0.01, 3.0 * nodes[-1], 3 * B + tail)
    # exact node hits in the first, a middle and the last block
    x[[5, B + 7, x.size - 1]] = nodes[[0, 60, 119]]
    blocks = interp._column_blocks(nodes.size, x.size)
    assert [sl.stop - sl.start for sl in blocks][-1] == (
        B + 1 if tail == 1 else tail)
    y = rng.uniform(0.0, 1.0, nodes.size)
    for got, ref in [(grunwald(nodes, w)(x), ref_grunwald(nodes, w, x)),
                     (grunwald(nodes, w, y=y)(x),
                      ref_grunwald(nodes, w, x, y)),
                     (hermite_form(nodes, w)(x),
                      ref_hermite(nodes, w, x))]:
        assert got.tobytes() == ref.tobytes()
    assert grunwald(nodes, w, y=y)(x)[[5, B + 7]].tolist() == [y[0],
                                                                  y[60]]


@pytest.mark.parametrize("x", [7.25, 0.5])
def test_a_scalar_is_one_block(x):
    zs = zeros_of("laguerre1", 3, 2.7, 120)
    nodes, w = zs.regular, v_of("laguerre1", 3, 2.7, 120)
    got = grunwald(nodes, w)(x)
    assert isinstance(got, float)
    # a single point is summed pairwise, as in a table of one column
    assert np.float64(got).tobytes() == np.float64(
        ref_grunwald(nodes, w, x)).tobytes()
    assert grunwald(nodes, w)(nodes[3]) == 1.0


def test_stability_scan_keeps_the_bits_of_one_table():
    zs = zeros_of("laguerre1", 3, 2.7, 120)
    B = _block_columns(zs.regular.size)
    tails = {}
    for grid_size in range(1000, 1000 + B):
        tail = scan_grid(zs.regular, "laguerre1", grid_size).size % B
        if tail in (1, 2, 3):
            tails.setdefault(tail, grid_size)
    assert sorted(tails) == [1, 2, 3]
    for grid_size in [1000, *tails.values()]:
        got = xf.stability_scan(zs, grid_size=grid_size)
        assert repr(got) == repr(ref_stability_scan(zs, grid_size))


def _scan_peak(zs, grid_size):
    tracemalloc.start()
    try:
        xf.stability_scan(zs, grid_size=grid_size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_scan_with_no_finite_value_raises(monkeypatch, capsys):
    # every block's extremes are -inf and inf, so no running extreme
    # moves
    weighted_terms = interp._weighted_terms

    def infinite(nodes, w):
        nodes, terms = weighted_terms(nodes, w)

        def inf_terms(x, sl):
            t, hits = terms(x, sl)
            t[:] = np.inf
            return t, (hits[0][:0], hits[1][:0])
        return nodes, inf_terms

    monkeypatch.setattr(interp, "_weighted_terms", infinite)
    with pytest.raises(xf.NumericalError, match="no finite G"):
        xf.stability_scan(zeros_of("laguerre1", 1, 2.0, 5), grid_size=50)
    # the CLI reports it typed, exit 2, with no traceback
    code = cli.main(["interp", "--family", "laguerre1", "--m", "1",
                     "--alpha", "2", "--n", "5", "--grid", "50"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert '"error":"NumericalError"' in err and "no finite G" in err


def test_stability_scan_works_in_a_bounded_block():
    # a table over all points would hold 60 x 50 289 floats, 24 MB
    zs = zeros_of("laguerre1", 1, 2.0, 60)
    small, large = _scan_peak(zs, 2000), _scan_peak(zs, 50000)
    assert large - small < interp._BLOCK_BYTES
    # n = 120 on the default grid: 1529 points, 1.5 MB as one table
    assert _scan_peak(zeros_of("laguerre1", 3, 2.7, 120), 1000) <= 1e6


# ---------------------------------------------------------------- brackets

def test_inverse_weight_brackets_positive():
    """Second and fourth logarithmic brackets of 1/v stay positive on
    the positive axis, the convexity input to the error bound."""
    v = v_of("laguerre1", 1, 2.0, 5)
    x = np.linspace(0.4, 25.0, 10)
    b2, b4 = xf.inv_weight_brackets(v, x)
    assert np.all(b2 > 0) and np.all(b4 > 0)


def test_inverse_weight_brackets_at_a_scalar_are_floats():
    v = v_of("laguerre1", 1, 2.0, 4)
    got = xf.inv_weight_brackets(v, 3.0)
    b2, b4 = xf.inv_weight_brackets(v, np.array([3.0]))
    assert [type(b) for b in got] == [float, float]
    assert got == (b2[0], b4[0])


@pytest.mark.parametrize("pole", ["origin", "S"])
def test_inverse_weight_brackets_refuse_a_weight_pole(pole):
    # x^alpha at 0 and 1/S^2 at S's zero each put a pole in log v
    v = v_of("laguerre1", 1, 2.0, 4)
    x = 0.0 if pole == "origin" else v.spec.S.roots[0].real
    with pytest.raises(xf.PoleEvaluation, match="at a weight pole"):
        xf.inv_weight_brackets(v, np.array([1.0, x]))


def test_inverse_weight_brackets_match_finite_differences():
    v = v_of("laguerre1", 1, 2.0, 4)
    x0 = 3.0
    h = 1e-2
    stencil = x0 + h * np.arange(-4, 5)
    e = np.exp(-np.array([xf.weight_logs(v, t)[0] for t in stencil]))
    b2, b4 = xf.inv_weight_brackets(v, np.array([x0]))
    d2 = (e[5] - 2 * e[4] + e[3]) / h**2
    d4 = (e[6] - 4 * e[5] + 6 * e[4] - 4 * e[3] + e[2]) / h**4
    assert b2[0] * e[4] == pytest.approx(d2, rel=1e-3)
    assert b4[0] * e[4] == pytest.approx(d4, rel=1e-2)

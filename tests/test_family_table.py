"""The family table against the per-family branches it replaced.

The references below are the three-branch forms of ode_coeffs, build_S,
FamilySpec.interval, leading_coefficient, _log_deriv_terms,
default_domain and scan_grid as they read before the FAMILY table.  The
table versions do the same floating-point operations in the same order,
so every comparison is on the bytes.  Two more tests parse the package.
One fails on any comparison of a family name with a string literal
outside the few results that exist for one family only.  The other
fails on any call of build_S but the one that tables S on the spec, so
no other module decides how S is built.
"""

import ast
import dataclasses
from math import factorial, lgamma
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import xfekete as xf
from xfekete import exceptional, fekete_opt, interp
from xfekete.classical_poly import (gen_binom, jacobi_coeffs,
                                    laguerre_coeffs, trim)

from reference import jacobi_zeros, laguerre_zeros


def ref_build_S(spec):
    m, al = spec.m, spec.alpha
    if spec.family == "laguerre1":
        c = laguerre_coeffs(m, al - 1.0)
        c = c * (-1.0) ** np.arange(m + 1)
        return c
    if spec.family == "laguerre2":
        return laguerre_coeffs(m, -al - 1.0)
    return jacobi_coeffs(m, -al - 1.0, spec.beta - 1.0)


def ref_ode_coeffs(spec):
    Sc = ref_build_S(spec)
    Sp = npoly.polyder(Sc) if len(Sc) > 1 else np.zeros(1)
    m, n, al = spec.m, spec.n, spec.alpha
    if spec.family in ("laguerre1", "laguerre2"):
        A = npoly.polymulx(Sc)
        B = npoly.polysub(npoly.polymul([al + 1.0, -1.0], Sc),
                          2.0 * npoly.polymulx(Sp))
        if spec.family == "laguerre1":
            C = npoly.polysub((m + n) * Sc, 2.0 * al * Sp)
        else:
            C = npoly.polyadd((n - m) * Sc, 2.0 * npoly.polymulx(Sp))
    else:
        be = spec.beta
        lam = m * (al - be - m + 1.0) + n * (n + al + be + 1.0)
        one_m_x2 = np.array([1.0, 0.0, -1.0])
        A = npoly.polymul(one_m_x2, Sc)
        B = npoly.polysub(npoly.polymul([be - al, -(al + be + 2.0)], Sc),
                          2.0 * npoly.polymul(one_m_x2, Sp))
        C = npoly.polysub(lam * Sc, 2.0 * be * npoly.polymul([1.0, -1.0], Sp))
    A, B, C = trim(A), trim(B), trim(C)
    sing = np.roots(A[::-1]) if len(A) > 1 else np.empty(0)
    return A, B, C, sing


def ref_interval(spec):
    if spec.family == "jacobi":
        return (-1.0, 1.0)
    return (0.0, np.inf)


def ref_leading_coefficient(spec):
    m, n, al = spec.m, spec.n, spec.alpha
    if spec.family in ("laguerre1", "laguerre2"):
        assert lgamma(m + 1) + lgamma(n + 1) <= 690.0
        base = 1.0 / float(factorial(m) * factorial(n))
        if spec.family == "laguerre1":
            return -base if n % 2 else base
        val = (n + al + 1.0 - m) * base
        return -val if (m + n) % 2 else val
    s_lead = ref_build_S(spec)[-1]
    u_lead = gen_binom(2 * n + al + spec.beta, n) / 2.0 ** n
    return (m - n - al - 1.0) * s_lead * u_lead


def ref_log_deriv_terms(w):
    a, b = w.exponents()
    terms = []
    if w.spec.family == "jacobi":
        if a != 0:
            terms.append((1.0 + 0j, a))
        if b != 0:
            terms.append((-1.0 + 0j, b))
        has_exp = False
    else:
        if a != 0:
            terms.append((0.0 + 0j, a))
        has_exp = True
    if w.variant in ("hat", "v"):
        for r in np.roots(ref_build_S(w.spec)[::-1]):
            terms.append((complex(r), -2.0))
    if w.variant == "v":
        for r in np.roots(np.asarray(w.P)[::-1]):
            terms.append((complex(r), 2.0))
    return terms, has_exp


def ref_default_domain(w, n):
    spec = w.spec
    if spec.family == "jacobi":
        return (-1.0, 1.0)
    return (0.0, 4.0 * n + 2.0 * spec.alpha + 4.0 * spec.m)


def ref_scan_grid(nodes, family, grid_size=1000):
    nodes = np.sort(np.asarray(nodes, dtype=float))
    n = nodes.size
    if family == "jacobi":
        t = np.geomspace(1e-6, 1.0, grid_size // 2)
        base = np.concatenate([-1.0 + t, 1.0 - t])
    else:
        hi = nodes[-1] * (1.0 + 10.0 / n)
        base = np.concatenate([np.geomspace(1e-6, hi, grid_size),
                               np.linspace(hi, 3.0 * hi, 50)])
    near = []
    for xk in nodes:
        for eps in (1e-5, 1e-7):
            off = eps * (1.0 + abs(xk))
            near.extend([xk - off, xk + off])
    grid = np.unique(np.concatenate([base, np.asarray(near)]))
    lo, hi = (-1.0, 1.0) if family == "jacobi" else (0.0, np.inf)
    return grid[(grid > lo + 1e-9) & (grid < hi - 1e-9)]


def _grid():
    """Three families x m <= 5 x n in {0, 1, 2, 5, 20, 80} x 4 draws."""
    rng = np.random.default_rng(20261018)
    specs = []
    for family in exceptional.FAMILIES:
        for m in range(6):
            for n in (0, 1, 2, 5, 20, 80):
                for _ in range(4):
                    alpha = round(float(rng.uniform(0.1, m + 4.0)), 3)
                    beta = (round(float(rng.uniform(0.25, 3.0)), 3)
                            if family == "jacobi" else None)
                    specs.append(xf.FamilySpec(family, m, alpha, n, beta))
    return specs


SPECS = _grid()


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_grid_has_432_specs():
    assert len(SPECS) == 432
    assert len(set(SPECS)) == 432


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_S_and_ode_bit_identical(family):
    for spec in (s for s in SPECS if s.family == family):
        assert _same(xf.build_S(spec), ref_build_S(spec)), spec
        ode = xf.ode_coeffs(spec)
        got = (ode.A, ode.B, ode.C, ode.singular_points)
        for g, r in zip(got, ref_ode_coeffs(spec)):
            assert _same(g, r), spec
        assert spec.interval == ref_interval(spec)


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_lead_and_profile_bit_identical(family):
    for spec in (s for s in SPECS if s.family == family):
        assert _same(xf.leading_coefficient(spec),
                     ref_leading_coefficient(spec)), spec


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_weight_terms_and_domain_identical(family):
    P = npoly.polyfromroots([-2.5, -0.5 + 0.75j, -0.5 - 0.75j]).real
    for spec in (s for s in SPECS if s.family == family):
        # the alpha = 0 base weight takes the zero-exponent branch
        weights = [xf.WeightSpec(spec, "base"), xf.WeightSpec(spec, "hat"),
                   xf.WeightSpec(spec, "v", P=P),
                   xf.WeightSpec(dataclasses.replace(spec, alpha=0.0),
                                 "base")]
        if spec.m == 0:
            weights = [w for w in weights if w.variant == "base"]
        for w in weights:
            assert interp._log_deriv_terms(w) == ref_log_deriv_terms(w)
            assert fekete_opt.default_domain(w, spec.n) \
                == ref_default_domain(w, spec.n)


@pytest.mark.parametrize("family", exceptional.FAMILIES)
def test_scan_grid_bit_identical(family):
    for spec in (s for s in SPECS if s.family == family and s.n >= 1):
        nodes = (jacobi_zeros(spec.n, spec.alpha, spec.beta)
                 if family == "jacobi" else laguerre_zeros(spec.n, spec.alpha))
        assert _same(interp.scan_grid(nodes, family, 200),
                     ref_scan_grid(nodes, family, 200)), spec


# The only comparisons of a family name with a string literal left in the
# package: each gates a result the package provides for one family only.
ALLOWED = {("asymptotics", "zero_sum_check"): 1,
           ("roots", "check_interlacing"): 2,
           ("cli", "cmd_verify"): 1}


def _is_family(node):
    return (isinstance(node, ast.Attribute) and node.attr == "family") or \
        (isinstance(node, ast.Name) and node.id == "family")


def _is_literal(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _is_family_comparison(node):
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(map(_is_family, operands)) and any(map(_is_literal, operands))


def _is_build_S_call(node):
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == "build_S") or \
        (isinstance(f, ast.Attribute) and f.attr == "build_S")


def _count(source, module, match):
    """{(module, enclosing function): count} of the nodes of the source
    that match accepts."""
    found = {}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            key = (module, where)
            found[key] = found.get(key, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def family_comparisons(source, module):
    """The comparisons of a family value with a string literal."""
    return _count(source, module, _is_family_comparison)


def build_S_calls(source, module):
    """The calls of build_S, by name or as an attribute."""
    return _count(source, module, _is_build_S_call)


def _package_scan(scan):
    found = {}
    for path in sorted(Path(xf.__file__).parent.glob("*.py")):
        found.update(scan(path.read_text(), path.stem))
    return found


def test_guard_sees_every_form_of_family_comparison():
    src = ('def f(spec, family):\n'
           '    a = spec.family == "jacobi"\n'
           '    b = "laguerre1" != w.spec.family\n'
           '    c = family in ("laguerre1", "laguerre2")\n'
           '    d = spec.family in FAMILIES\n')
    assert family_comparisons(src, "m") == {("m", "f"): 3}


def test_no_family_branches_outside_the_allowed_gates():
    found = _package_scan(family_comparisons)
    extra = {k: v for k, v in found.items() if v > ALLOWED.get(k, 0)}
    assert extra == {}, f"family branches outside the table: {extra}"
    assert sum(found.values()) <= 4


def test_guard_sees_every_form_of_build_S_call():
    src = ('def f(spec):\n'
           '    a = build_S(spec)\n'
           '    b = exceptional.build_S(spec).copy()\n'
           '    c = build_S\n')
    assert build_S_calls(src, "m") == {("m", "f"): 2}


def test_S_is_built_only_where_the_spec_tables_it():
    assert _package_scan(build_S_calls) == {("exceptional", "S"): 1}

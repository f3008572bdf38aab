"""Tests of the benchmark's own arithmetic, tracing and generators.

Run with:  python3 -m pytest perfbench/tests
"""

import inspect
import json

import numpy as np
import pytest

import checks
import harness
import oracle
import tracer
import workloads
from tracer import END, LABEL, PARENT, START


def _outcome(attempted, ok, wrong=0, digits=()):
    oc = checks.Outcome(attempted)
    oc.ok, oc.wrong = ok, wrong
    oc.declined = attempted - ok - wrong
    oc.digits = list(digits)
    return oc


def test_summary_arithmetic_with_failures():
    ops = [workloads.Op(i, p, "zeros", {}, []) for i, p in
           enumerate([0, 0, 0, 1, 1, 1])]
    walls = [1.0, 2.0, 3.0, 0.5, 0.5, 5.0]
    runs = [{"wall": w, "cwall": w, "warnings": i % 2}
            for i, w in enumerate(walls)]
    outcomes = [_outcome(1, 1, digits=[12.0]), _outcome(1, 0),
                _outcome(1, 1, digits=[14.0]),
                _outcome(1, 1, digits=[13.0]), _outcome(1, 0, wrong=1),
                _outcome(1, 0)]
    s = harness.summarize(ops, runs, outcomes)
    # pass 0: 6 s over 2 ok; pass 1: 6 s over 1 ok; median of (3, 6)
    assert s["s_per_ok"] == pytest.approx(4.5)
    assert s["attempted"] == 6 and s["ok"] == 3
    assert s["failed"] == 3 and s["wrong"] == 1
    assert s["failed_frac"] == pytest.approx(0.5)
    assert s["ok_frac"] == pytest.approx(0.5)
    assert s["accuracy_digits"] == 12.0
    assert s["warnings_n"] == 3


def test_summary_counts_diameter_rows_as_units():
    op = workloads.Op(0, 0, "diameter", {}, [], rows=list(range(10, 20)))
    s = harness.summarize([op], [{"wall": 2.0, "cwall": 2.0, "warnings": 0}],
                          [_outcome(10, 8)])
    assert s["attempted"] == 10 and s["ok"] == 8
    assert s["s_per_ok"] == pytest.approx(0.25)
    assert s["failed_frac"] == pytest.approx(0.2)


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [5, 6] nested in the
    # second child
    spans = [["a", 0.0, 10.0, -1, 0, False, None],
             ["b", 1.0, 3.0, 0, 0, False, None],
             ["c", 4.0, 8.0, 0, 0, False, None],
             ["d", 5.0, 6.0, 2, 0, False, None]]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def _public_functions():
    import importlib
    found = {}
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"xfekete.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                found[(mod.__name__, name)] = obj
    import xfekete
    for name, obj in vars(xfekete).items():
        if inspect.isfunction(obj):
            found[("xfekete", name)] = obj
    return found


def test_wrappers_record_spans_and_restore_originals():
    import xfekete
    from xfekete import roots
    before = _public_functions()
    tr = tracer.Tracer()
    with tr:
        assert roots.find_zeros is not before[("xfekete.roots",
                                               "find_zeros")]
        assert xfekete.find_zeros is roots.find_zeros
        tr.op = 7
        roots.find_zeros(xfekete.FamilySpec("laguerre1", 1, 2.0, 6))
    assert _public_functions() == before
    labels = [s[LABEL] for s in tr.spans]
    assert labels[0] == "roots.find_zeros"
    assert "exceptional.exceptional_eval" in labels
    assert "classical_poly.laguerre_eval" in labels
    assert all(s[4] == 7 for s in tr.spans)
    # every child lies inside its parent
    for s in tr.spans:
        if s[PARENT] >= 0:
            p = tr.spans[s[PARENT]]
            assert p[START] <= s[START] <= s[END] <= p[END]
    m = tracer.layer_metrics(tr.spans, tr.spans[0][END] - tr.spans[0][START])
    assert m["roots.find_zeros.calls"][0] == 1
    assert m["roots.find_zeros.per_spec"][0] == 1.0
    assert m["trace.unattributed_frac"][0] == pytest.approx(0.0, abs=1e-9)


def test_wrappers_restore_after_an_exception():
    before = _public_functions()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _public_functions() == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_in_regime(workload):
    from xfekete import FamilySpec
    a = workloads.make_ops(workload, 3, 15, "out")
    b = workloads.make_ops(workload, 3, 15, "out")
    assert [(o.argv, o.spec, o.pass_index) for o in a] == \
        [(o.argv, o.spec, o.pass_index) for o in b]
    c = workloads.make_ops(workload, 4, 15, "out")
    assert [o.argv for o in a] != [o.argv for o in c]
    for op in a:
        s = op.spec
        n = s["n"] if isinstance(s["n"], int) else s["n"][0]
        spec = FamilySpec(s["family"], s["m"], s["alpha"], n, s.get("beta"))
        assert spec.regime_warnings() == []


def test_quantiles_cover_passes_and_cells_evenly():
    k, row = 5, ["a", "b", "c", "d"]
    u = workloads.quantiles(np.random.default_rng(0), row, k)
    for cell in row:
        slices = sorted(int(u[cell, p] * k) for p in range(k))
        assert slices == list(range(k))
    for p in range(k):
        sub = sorted(int(u[cell, p] * k * len(row)) % len(row)
                     for cell in row)
        assert sub == list(range(len(row)))


@pytest.mark.parametrize("family,m,alpha,n,beta", [
    ("laguerre1", 2, 1.5, 6, None),
    ("laguerre2", 2, 3.25, 5, None),
    ("jacobi", 2, 2.5, 5, 1.25),
])
def test_oracle_matches_the_package_members(family, m, alpha, n, beta):
    """The oracle and the package's evaluator describe the same
    polynomial: their ratio is one constant (the normalization)."""
    from xfekete import FamilySpec, exceptional_eval
    spec = FamilySpec(family, m, alpha, n, beta)
    member = oracle.Member(family, m, alpha, n, beta)
    xs = [-0.7, -0.2, 0.3, 0.9] if family == "jacobi" else [0.3, 1.7, 4.1,
                                                            -2.2]
    with oracle.mp.workdps(oracle.DPS):
        ratios = [float(member.value(oracle.mp.mpf(x)))
                  / float(exceptional_eval(spec, x)) for x in xs]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_oracle_refines_a_perturbed_zero():
    from xfekete import FamilySpec, find_zeros
    zs = find_zeros(FamilySpec("laguerre1", 1, 2.0, 8))
    member = oracle.Member("laguerre1", 1, 2.0, 8)
    x = float(zs.regular[3])
    exact = member.refine(x * (1 + 1e-9))
    assert oracle.rel_error(x, exact) < 1e-13
    assert oracle.digits(0.0) == oracle.DIGITS_CAP
    assert oracle.digits(1e-12) == pytest.approx(12.0)


def test_classify_counts_escaped_exceptions_and_checks_outputs():
    op = workloads.Op(0, 0, "zeros", {"family": "laguerre1", "m": 1,
                                      "alpha": 2.0, "n": 4},
                      ["zeros", "--family", "laguerre1", "--m", "1",
                       "--alpha", "2.0", "--n", "4"])
    crash = {"exc": "LinAlgError", "code": None, "stdout": "", "stderr": ""}
    oc = checks.classify(op, crash)
    assert (oc.ok, oc.declined, oc.errors) == (0, 1, ["untyped:LinAlgError"])
    typed = {"exc": None, "code": 2, "stdout": "",
             "stderr": '{"error":"NonConvergence","message":"m"}\n'}
    assert checks.classify(op, typed).errors == ["exit2:NonConvergence"]
    verdict = {"exc": None, "code": 2, "stderr": "", "stdout": json.dumps(
        {"passed": False, "checks": [{"name": "zeros", "passed": False},
                                     {"name": "construction",
                                      "passed": True}]})}
    verify_op = workloads.Op(1, 0, "verify", op.spec, ["verify"])
    assert checks.classify(verify_op, verdict).errors == ["verdict:zeros"]

    from xfekete import cli
    run = harness.run_op(cli, op.argv)
    oc = checks.classify(op, run)
    assert (oc.ok, oc.wrong) == (1, 0) and oc.digits[0] > 12

    doc = json.loads(run["stdout"])
    doc["regular"][-1] += 1e-3
    bad = dict(run, stdout=json.dumps(doc))
    oc = checks.classify(op, bad)
    assert (oc.ok, oc.wrong) == (0, 1)

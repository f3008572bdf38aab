"""Ascent to weighted Fekete configurations and uniqueness probes."""

import numpy as np
import pytest

import xfekete as xf
from xfekete import fekete_opt

from conftest import spec_of, zeros_of


def v_of(family, m, alpha, n, beta=None):
    return xf.v_weight(zeros_of(family, m, alpha, n, beta))


def test_hand_example_single_node():
    # maximize 2 log u - u: maximizer at u = 2
    v = v_of("laguerre1", 0, 1.0, 1)
    nodes, trace = xf.maximize_log_T(v, xf.default_domain(v, 1), 1,
                                     init=np.array([5.0]))
    assert nodes[0] == pytest.approx(2.0, abs=1e-9)
    assert trace[-1]["max_gradient"] < 1e-9


def test_default_domains():
    v = v_of("laguerre1", 0, 1.0, 1)
    assert xf.default_domain(v, 1) == (0.0, 6.0)
    wj = xf.WeightSpec(spec_of("jacobi", 1, 2.0, 3, 1.0), "hat")
    assert xf.default_domain(wj, 3) == (-0.999, 0.999)


def test_stationary_start_does_not_move():
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    nodes, trace = xf.maximize_log_T(v, xf.default_domain(v, 5), 5,
                                     init=zs.regular)
    assert len(trace) <= 2
    assert np.max(np.abs(nodes - zs.regular)) < 1e-9


def test_perturbed_start_recovers_regular_zeros():
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    bump = 1 + 0.1 * np.array([1, -1, 1, -1, 1])
    nodes, _ = xf.maximize_log_T(v, xf.default_domain(v, 5), 5,
                                 init=zs.regular * bump)
    assert np.max(np.abs(nodes - zs.regular)) < 1e-6


def test_ascent_along_accepted_steps():
    v = v_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    _, trace = xf.maximize_log_T(v, xf.default_domain(v, 5), 5,
                                 init=zs.regular * 1.3)
    f = [r["logT"] for r in trace]
    assert all(b >= a - 1e-10 for a, b in zip(f, f[1:]))


def test_maximizer_interior():
    v = v_of("laguerre1", 1, 2.0, 4)
    lo, hi = xf.default_domain(v, 4)
    nodes, _ = xf.maximize_log_T(v, (lo, hi), 4)
    assert np.all(nodes > lo) and np.all(nodes < hi)


def test_invalid_starts():
    v = v_of("laguerre1", 0, 1.0, 1)
    with pytest.raises(xf.DomainEscape):
        xf.maximize_log_T(v, (0.0, 10.0), 1, init=np.array([20.0]))
    with pytest.raises(xf.DomainEscape):
        xf.maximize_log_T(v, (0.0, 10.0), 2, init=np.array([3.0, 3.0]))
    with pytest.raises(xf.ValidationError):
        xf.maximize_log_T(v, (0.0, 10.0), 2, init=np.array([3.0]))


def test_nonconvergence_carries_trace():
    v = v_of("laguerre1", 0, 1.0, 1)
    with pytest.raises(xf.NonConvergence) as exc:
        xf.maximize_log_T(v, (0.0, 10.0), 1, init=np.array([5.0]), itmax=1)
    assert len(exc.value.trace) == 1
    assert "max_gradient" in exc.value.trace[0]


# ---------------------------------------------------------------- probes

def test_probe_single_node():
    v = v_of("laguerre1", 0, 1.0, 1)
    rep = xf.uniqueness_probe(v, xf.default_domain(v, 1), 1, trials=10)
    assert len(rep["clusters"]) == 1
    assert rep["clusters"][0]["nodes"][0] == pytest.approx(2.0, abs=1e-6)


def test_probe_regular_zeros_unique():
    zs = zeros_of("laguerre1", 1, 1.5, 4)
    v = v_of("laguerre1", 1, 1.5, 4)
    rep = xf.uniqueness_probe(v, xf.default_domain(v, 4), 4, trials=20, seed=0)
    assert rep["converged"] == 20 and rep["failed"] == 0
    assert len(rep["clusters"]) == 1
    assert np.max(np.abs(rep["clusters"][0]["nodes"] - zs.regular)) < 1e-6


def test_probe_jacobi_large_n():
    # alpha > m-1 and beta > 0, n well past the onset of concavity
    zs = zeros_of("jacobi", 2, 2.5, 30, 1.0)
    v = v_of("jacobi", 2, 2.5, 30, 1.0)
    rep = xf.uniqueness_probe(v, xf.default_domain(v, 30), 30, trials=20, seed=0)
    assert len(rep["clusters"]) == 1
    assert np.max(np.abs(rep["clusters"][0]["nodes"] - zs.regular)) < 1e-6


def test_probe_deterministic_under_seed():
    v = v_of("laguerre1", 1, 1.5, 3)
    a = xf.uniqueness_probe(v, xf.default_domain(v, 3), 3, trials=5, seed=42)
    b = xf.uniqueness_probe(v, xf.default_domain(v, 3), 3, trials=5, seed=42)
    np.testing.assert_array_equal(a["clusters"][0]["nodes"],
                                  b["clusters"][0]["nodes"])


def test_small_alpha_positive_curvature_witness():
    """For 0 < alpha < 1 some configuration has a positive Hessian
    diagonal entry; the randomized search must exhibit one."""
    hit = xf.search_positive_h11(trials=200, seed=0)
    assert hit is not None
    assert 0 < hit["alpha"] < 1
    assert hit["h11"] > 0
    v = xf.v_weight(xf.find_zeros(hit["spec"]))
    _, H = xf.gradient_and_hessian(np.asarray(hit["nodes"]), v)
    assert H[0, 0] == pytest.approx(hit["h11"], rel=1e-10)


# ------------------------------------------------------- lockstep ascent
#
# The serial line search the lockstep core replaced, kept as the
# reference: every start alone, one energy evaluation per candidate.

def _serial_valid(w, x, domain, count):
    lo, hi = domain
    if np.any(x <= lo) or np.any(x >= hi):
        return False, "domain"
    if np.any(np.diff(x) <= 0):
        return False, "order"
    count[0] += 1
    try:
        return True, xf.energy_terms(x, w)
    except xf.NumericalError:
        return False, "pole"


def serial_maximize_log_T(w, domain, n, init, gtol=fekete_opt.GTOL,
                          itmax=fekete_opt.ITMAX, count=None):
    count = [0] if count is None else count
    lo, hi = float(domain[0]), float(domain[1])
    x = np.sort(np.asarray(init, dtype=float))
    ok, terms = _serial_valid(w, x, (lo, hi), count)
    if not ok:
        raise xf.DomainEscape(f"initial nodes invalid ({terms})")
    f0, g, H = terms
    trace = []
    for it in range(itmax):
        gmax = float(np.max(np.abs(g)))
        mode = "newton"
        try:
            np.linalg.cholesky(-H)
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            mode = "ascent"
            step = g / (1.0 + np.linalg.norm(H, np.inf))
        trace.append({"iteration": it, "logT": f0, "max_gradient": gmax,
                      "mode": mode})
        if gmax < gtol:
            return x, trace
        t = 1.0
        placed = False
        blocker = "order"
        while t > 1e-14:
            cand = np.sort(x + t * step)
            ok, terms = _serial_valid(w, cand, (lo, hi), count)
            if ok and terms[0] >= f0 - 1e-10 * (1.0 + abs(f0)):
                x, (f0, g, H) = cand, terms
                placed = True
                break
            if not ok:
                blocker = terms
            t *= 0.5
        if not placed:
            if blocker == "domain":
                raise xf.DomainEscape("no damped step stays inside the domain")
            raise xf.NonConvergence("line search stalled", trace)
        trace[-1]["step_scale"] = t
    raise xf.NonConvergence(f"gradient above {gtol} after {itmax} iterations",
                            trace)


def serial_probe(w, domain, n, trials, seed, count=None):
    rng = np.random.default_rng(seed)
    lo, hi = float(domain[0]), float(domain[1])
    clusters = []
    converged = failed = 0
    for _ in range(trials):
        init = np.sort(rng.uniform(lo, hi, size=n))
        try:
            nodes, trace = serial_maximize_log_T(w, domain, n, init,
                                                 count=count)
        except (xf.NonConvergence, xf.DomainEscape):
            failed += 1
            continue
        converged += 1
        for c in clusters:
            if np.max(np.abs(c["nodes"] - nodes)) < 1e-5:
                c["count"] += 1
                break
        else:
            clusters.append({"nodes": nodes, "count": 1,
                             "logT": trace[-1]["logT"]})
    clusters.sort(key=lambda c: -c["count"])
    return {"clusters": clusters, "trials": trials,
            "converged": converged, "failed": failed}


def _outcome(res):
    """Comparable form of a (nodes, trace) result or an ascent error."""
    if isinstance(res, Exception):
        return type(res), str(res), getattr(res, "trace", None)
    nodes, trace = res
    return nodes.tobytes(), trace


def _call_outcome(ascent, *args, **kwargs):
    try:
        return _outcome(ascent(*args, **kwargs))
    except (xf.DomainEscape, xf.NonConvergence) as exc:
        return _outcome(exc)


LOCKSTEP = [("laguerre1", 1, 2.0, 5), ("laguerre2", 1, 3.5, 4),
            ("jacobi", 1, 2.5, 6, 1.5)]


@pytest.mark.parametrize("args", LOCKSTEP, ids=lambda a: a[0])
def test_lockstep_ascent_matches_serial_start_by_start(args):
    v = v_of(*args)
    n = args[3]
    lo, hi = xf.default_domain(v, n)
    rng = np.random.default_rng(11)
    starts = np.sort(rng.uniform(lo, hi, size=(9, n)), axis=1)
    starts[2, -1] = hi + 1.0                       # outside the domain
    starts[5] = np.sort(rng.uniform(lo - (hi - lo), hi, size=n))
    kinds = set()
    for itmax in (1, 3, 8, 500):
        batch = fekete_opt._ascend(v, (lo, hi), starts, fekete_opt.GTOL,
                                   itmax)
        assert len(batch) == len(starts)
        for x0, res in zip(starts, batch):
            ref = _call_outcome(serial_maximize_log_T, v, (lo, hi), n, x0,
                                itmax=itmax)
            assert _outcome(res) == ref
            assert _call_outcome(xf.maximize_log_T, v, (lo, hi), n, x0,
                                 itmax=itmax) == ref
            kinds.add(ref[0] if isinstance(ref[0], type) else "converged")
    assert kinds == {xf.DomainEscape, xf.NonConvergence, "converged"}


@pytest.mark.parametrize("n", [1, 4, 10, 30])
@pytest.mark.parametrize("args", LOCKSTEP, ids=lambda a: a[0])
def test_lockstep_probe_bit_identical_to_serial(args, n):
    v = v_of(*args[:3], n, *args[4:])
    domain = xf.default_domain(v, n)
    got = xf.uniqueness_probe(v, domain, n, trials=8, seed=3)
    ref = serial_probe(v, domain, n, trials=8, seed=3)
    for key in ("trials", "converged", "failed"):
        assert got[key] == ref[key]
    assert len(got["clusters"]) == len(ref["clusters"])
    for c, r in zip(got["clusters"], ref["clusters"]):
        assert c["nodes"].tobytes() == r["nodes"].tobytes()
        assert (c["count"], c["logT"]) == (r["count"], r["logT"])


def test_probe_makes_one_weight_evaluation_per_round(monkeypatch):
    v = v_of("laguerre1", 1, 2.0, 10)
    domain = xf.default_domain(v, 10)
    serial = [0]
    ref = serial_probe(v, domain, 10, trials=20, seed=1, count=serial)
    counter = {"rounds": 0, "admissible": 0, "weight_logs": 0}
    real_evaluate, real_logs = fekete_opt._evaluate, fekete_opt.weight_logs

    def evaluate(*args):
        res = real_evaluate(*args)
        counter["rounds"] += 1
        counter["admissible"] += bool(np.any(res[0] == ""))
        return res

    def logs(*args):
        counter["weight_logs"] += 1
        return real_logs(*args)

    monkeypatch.setattr(fekete_opt, "_evaluate", evaluate)
    monkeypatch.setattr(fekete_opt, "weight_logs", logs)
    got = xf.uniqueness_probe(v, domain, 10, trials=20, seed=1)
    assert got["converged"] == ref["converged"] == 20
    # one evaluation per round with an admissible row, none for the
    # rounds (two here) where no candidate is admissible
    assert counter["weight_logs"] == counter["admissible"]
    assert counter["admissible"] < counter["rounds"]
    # the serial ascent evaluated every start's candidates one by one
    assert 4 * counter["weight_logs"] < serial[0]


def evaluate_every_round(w, X, domain):
    """_evaluate as it was before empty stacks were skipped: weight_logs
    and _assemble run on the admissible rows even when there are none."""
    lo, hi = domain
    reason = np.full(len(X), "", dtype="<U6")
    dif = np.diff(X, axis=1)
    scale = np.fmax(1.0, np.max(np.abs(X), axis=1, initial=0.0))
    reason[np.min(dif, axis=1, initial=np.inf) < 1e-14 * scale] = "pole"
    reason[np.any(dif <= 0, axis=1)] = "order"
    reason[np.any((X <= lo) | (X >= hi), axis=1)] = "domain"
    ok = reason == ""
    try:
        logs = fekete_opt.weight_logs(w, X[ok])
    except xf.NumericalError:
        for r in np.flatnonzero(ok):
            try:
                fekete_opt.weight_logs(w, X[r])
            except xf.NumericalError:
                reason[r] = "pole"
        ok = reason == ""
        logs = fekete_opt.weight_logs(w, X[ok])
    F, G, H = fekete_opt._assemble(X[ok], *logs)
    return reason, np.array(F), G, H


@pytest.mark.parametrize("args,n,seed", [
    (LOCKSTEP[0], 10, 1), (LOCKSTEP[1], 10, 1), (LOCKSTEP[2], 20, 0)],
    ids=lambda a: str(a))
def test_probe_skips_empty_weight_evaluations(monkeypatch, args, n, seed):
    v = v_of(*args[:3], n, *args[4:])
    domain = xf.default_domain(v, n)
    sizes, real_logs = [], fekete_opt.weight_logs

    def logs(w, X):
        sizes.append(np.size(X))
        return real_logs(w, X)

    monkeypatch.setattr(fekete_opt, "weight_logs", logs)
    monkeypatch.setattr(fekete_opt, "_evaluate", evaluate_every_round)
    ref = xf.uniqueness_probe(v, domain, n, trials=20, seed=seed)
    assert 0 in sizes                # the reference does meet empty stacks
    monkeypatch.undo()
    monkeypatch.setattr(fekete_opt, "weight_logs", logs)
    sizes.clear()
    got = xf.uniqueness_probe(v, domain, n, trials=20, seed=seed)
    assert sizes and 0 not in sizes
    for key in ("trials", "converged", "failed"):
        assert got[key] == ref[key]
    assert len(got["clusters"]) == len(ref["clusters"])
    for c, r in zip(got["clusters"], ref["clusters"]):
        assert c["nodes"].tobytes() == r["nodes"].tobytes()
        assert (c["count"], c["logT"]) == (r["count"], r["logT"])

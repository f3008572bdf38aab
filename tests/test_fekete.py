"""Ascent to weighted Fekete configurations and uniqueness probes."""

import numpy as np
import pytest

import xfekete as xf
from xfekete import cli, energy, fekete_opt

from conftest import spec_of, zeros_of
from reference import log_energy, maximize_log_T, search_positive_h11


def v_of(family, m, alpha, n, beta=None):
    return xf.v_weight(zeros_of(family, m, alpha, n, beta))


def test_hand_example_single_node():
    # maximize 2 log u - u: maximizer at u = 2
    v = v_of("laguerre1", 0, 1.0, 1)
    nodes, trace = maximize_log_T(v, xf.default_domain(v, 1), 1,
                                     init=np.array([5.0]))
    assert nodes[0] == pytest.approx(2.0, abs=1e-9)
    assert trace[-1]["max_gradient"] < 1e-9


def test_default_domains():
    v = v_of("laguerre1", 0, 1.0, 1)
    assert xf.default_domain(v, 1) == (0.0, 6.0)
    wj = xf.WeightSpec(spec_of("jacobi", 1, 2.0, 3, 1.0))
    assert xf.default_domain(wj, 3) == (-1.0, 1.0)


def test_stationary_start_does_not_move():
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    nodes, trace = maximize_log_T(v, xf.default_domain(v, 5), 5,
                                     init=zs.regular)
    assert len(trace) <= 2
    assert np.max(np.abs(nodes - zs.regular)) < 1e-9


def test_perturbed_start_recovers_regular_zeros():
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    v = v_of("laguerre1", 1, 2.0, 5)
    bump = 1 + 0.1 * np.array([1, -1, 1, -1, 1])
    nodes, _ = maximize_log_T(v, xf.default_domain(v, 5), 5,
                                 init=zs.regular * bump)
    assert np.max(np.abs(nodes - zs.regular)) < 1e-6


def test_ascent_along_accepted_steps():
    v = v_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    _, trace = maximize_log_T(v, xf.default_domain(v, 5), 5,
                                 init=zs.regular * 1.3)
    f = [r["logT"] for r in trace]
    assert all(b >= a - 1e-10 for a, b in zip(f, f[1:]))


def test_maximizer_interior():
    v = v_of("laguerre1", 1, 2.0, 4)
    lo, hi = xf.default_domain(v, 4)
    nodes, _ = maximize_log_T(v, (lo, hi), 4)
    assert np.all(nodes > lo) and np.all(nodes < hi)


def test_invalid_starts():
    v = v_of("laguerre1", 0, 1.0, 1)
    with pytest.raises(xf.DomainEscape):
        maximize_log_T(v, (0.0, 10.0), 1, init=np.array([20.0]))
    with pytest.raises(xf.DomainEscape):
        maximize_log_T(v, (0.0, 10.0), 2, init=np.array([3.0, 3.0]))
    with pytest.raises(xf.ValidationError):
        maximize_log_T(v, (0.0, 10.0), 2, init=np.array([3.0]))


def test_box_scale_is_the_fraction_to_the_boundary():
    X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                  [1.0, 2.0, 3.0]])
    step = np.array([[0.0, 1.0, -1.0],      # bound by the third node: 3
                     [0.0, 0.0, 0.0],       # no bound
                     [-4.0, 0.0, 20.0],     # the first: 0.25 < 0.35
                     [0.0, 0.0, 1e300]])
    with np.errstate(all="raise"):          # a zero component is quiet
        t = fekete_opt._box_scale(X, step, (0.0, 10.0))
        unbounded = fekete_opt._box_scale(X, step, (-np.inf, np.inf))
    assert t.tolist() == [1.0, 1.0, 0.9 * 0.25, 0.9 * (7.0 / 1e300)]
    assert unbounded.tolist() == [1.0] * 4


def test_polish_entry_ends_a_newton_trace():
    v = v_of("laguerre1", 0, 1.0, 1)
    nodes, trace = maximize_log_T(v, xf.default_domain(v, 1), 1,
                                     init=np.array([5.0]))
    last, before = trace[-1], trace[-2]
    assert last["mode"] == "polish"
    assert last["iteration"] == before["iteration"] + 1
    assert before["mode"] == "newton" and before["step_scale"] == 1.0
    assert last["max_gradient"] <= before["max_gradient"] < fekete_opt.GTOL
    assert last["logT"] == log_energy(nodes, v)
    # every accepted step's scale, capped or halved, lies in (0, 1]
    assert all(0 < r["step_scale"] <= 1.0 for r in trace[:-1])


def test_nonconvergence_carries_trace():
    v = v_of("laguerre1", 0, 1.0, 1)
    with pytest.raises(xf.NonConvergence) as exc:
        maximize_log_T(v, (0.0, 10.0), 1, init=np.array([5.0]), itmax=1)
    assert len(exc.value.trace) == 1
    assert "max_gradient" in exc.value.trace[0]


def test_a_capped_row_refused_at_every_try_escapes(monkeypatch):
    # reaches _ascend's DomainEscape("no damped step stays inside the
    # domain"): the cap binds (t < 1) and _accepted refuses every try,
    # so the live row halves t past 1e-14 without moving
    v = v_of("laguerre1", 1, 2.0, 5)
    zs = zeros_of("laguerre1", 1, 2.0, 5)
    box_scale = fekete_opt._box_scale
    monkeypatch.setattr(fekete_opt, "_box_scale", lambda X, step, domain:
                        np.minimum(box_scale(X, step, domain), 0.5))
    monkeypatch.setattr(fekete_opt, "_accepted", lambda C, F, gmax, polish:
                        np.zeros(len(F), dtype=bool))
    with pytest.raises(xf.DomainEscape,
                       match="^no damped step stays inside the domain$"):
        maximize_log_T(v, xf.default_domain(v, 5), 5,
                       init=zs.regular * 1.3)


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


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("args", [("laguerre1", 1, 2.0), ("laguerre2", 1, 3.5),
                                  ("jacobi", 1, 2.5, 1.5)],
                         ids=lambda a: a[0])
def test_probe_top_cluster_is_the_regular_zeros_to_rounding(args, n):
    # the polished last Newton step takes the maximizer from within
    # GTOL / curvature of the zeros down to their rounding level
    zs = zeros_of(*args[:3], n, *args[3:])
    v = xf.v_weight(zs)
    rep = xf.uniqueness_probe(v, xf.default_domain(v, n), n, trials=20,
                              seed=0)
    assert rep["converged"] == 20 and len(rep["clusters"]) == 1
    dev = np.abs(rep["clusters"][0]["nodes"] - zs.regular)
    assert np.max(dev / (1.0 + np.abs(zs.regular))) < 1e-12


def test_a_probe_with_no_converged_start_has_no_cluster(monkeypatch,
                                                        capsys):
    # reaches uniqueness_probe's failed += 1: one iteration leaves every
    # random start short of GTOL, so every trial fails, and the fekete
    # command reports no top cluster
    monkeypatch.setattr(fekete_opt, "ITMAX", 1)
    v = v_of("laguerre1", 1, 2.0, 4)
    rep = xf.uniqueness_probe(v, xf.default_domain(v, 4), 4, trials=3)
    assert (rep["converged"], rep["failed"]) == (0, 3)
    assert rep["clusters"] == []
    code = cli.main(["fekete", "--family", "laguerre1", "--m", "1",
                     "--alpha", "2", "--n", "4", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"converged":0' in out and '"failed":3' in out
    assert '"clusters":[]' in out
    assert '"top_cluster_deviation_from_zeros":null' in out


def test_probe_deterministic_under_seed():
    v = v_of("laguerre1", 1, 1.5, 3)
    a = xf.uniqueness_probe(v, xf.default_domain(v, 3), 3, trials=5, seed=42)
    b = xf.uniqueness_probe(v, xf.default_domain(v, 3), 3, trials=5, seed=42)
    np.testing.assert_array_equal(a["clusters"][0]["nodes"],
                                  b["clusters"][0]["nodes"])


def test_small_alpha_positive_curvature_witness():
    """For 0 < alpha < 1 some configuration has a positive Hessian
    diagonal entry; the randomized search must exhibit one."""
    hit = search_positive_h11(trials=200, seed=0)
    assert hit is not None
    assert 0 < hit["alpha"] < 1
    assert hit["h11"] > 0
    v = xf.v_weight(xf.find_zeros(hit["spec"]))
    H = xf.energy_hessian(np.asarray(hit["nodes"]), v).hessian
    assert H[0, 0] == pytest.approx(hit["h11"], rel=1e-10)


# ------------------------------------------------------- lockstep ascent
#
# The serial ascent the lockstep core replaced, kept as the reference:
# every start alone, one energy evaluation per candidate, on the same
# schedule: the step capped at the box edge, halved while rejected, and
# a converged Newton row polished by one more full Newton step.

def _serial_valid(w, x, domain, count):
    lo, hi = domain
    if np.any(x <= lo) or np.any(x >= hi):
        return False, "domain"
    if np.any(np.diff(x) <= 0):
        return False, "order"
    count[0] += 1
    try:
        rep = xf.energy_hessian(x, w)
    except xf.NumericalError:
        return False, "pole"
    F, g, H = rep.logT, rep.gradient, rep.hessian
    # the accept test reads the plain sums, the result the compensated F
    i, j = np.triu_indices(x.size, k=1)
    plain = (np.sum(xf.weight_logs(w, x)[0])
             + 2.0 * np.sum(np.log(np.abs(x[i] - x[j]))))
    return True, (plain, g, H, F)


def _serial_cap(x, step, lo, hi):
    """min(1, 0.9 t_box), node by node."""
    t_box = min([(hi - xi) / si if si > 0 else (lo - xi) / si
                 for xi, si in zip(x, step) if si != 0], default=np.inf)
    return min(1.0, 0.9 * t_box)


def serial_maximize_log_T(w, domain, n, init, gtol=fekete_opt.GTOL,
                          itmax=fekete_opt.ITMAX, count=None):
    count = [0] if count is None else count
    lo, hi = float(domain[0]), float(domain[1])
    x = np.sort(np.asarray(init, dtype=float))
    ok, terms = _serial_valid(w, x, (lo, hi), count)
    if not ok:
        raise xf.DomainEscape(f"initial nodes invalid ({terms})")
    f0, g, H, logT = terms
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
            if mode == "newton":
                cand = np.sort(x + step)
                ok, terms = _serial_valid(w, cand, (lo, hi), count)
                if (ok and terms[0] >= f0 - 1e-10 * (1.0 + abs(f0))
                        and np.max(np.abs(terms[1])) <= gmax):
                    x, (f0, g, H, logT) = cand, terms
                    trace[-1]["step_scale"] = 1.0
                    trace.append({"iteration": it + 1, "logT": logT,
                                  "max_gradient": float(np.max(np.abs(g))),
                                  "mode": "polish"})
                    return x, trace
            trace[-1]["logT"] = logT
            return x, trace
        t = _serial_cap(x, step, lo, hi)
        placed = False
        blocker = "domain" if t < 1.0 else "order"
        while t > 1e-14:
            cand = np.sort(x + t * step)
            ok, terms = _serial_valid(w, cand, (lo, hi), count)
            if ok and terms[0] >= f0 - 1e-10 * (1.0 + abs(f0)):
                x, (f0, g, H, logT) = cand, terms
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
            assert _call_outcome(maximize_log_T, v, (lo, hi), n, x0,
                                 itmax=itmax) == ref
            kinds.add(ref[0] if isinstance(ref[0], type) else "converged")
    assert kinds == {xf.DomainEscape, xf.NonConvergence, "converged"}


@pytest.mark.parametrize("variant", ["hat", "v"])
def test_a_box_holding_a_zero_of_s_is_refused(variant):
    # S's zero at x = -2 is a pole of F: every ascent would climb into it
    zs = zeros_of("laguerre1", 1, 2.0, 4)
    w = xf.v_weight(zs) if variant == "v" else xf.WeightSpec(zs.spec)
    domain = (-2.5, 30.0)
    msg = r"search box \(-2\.5, 30\) holds the zero x = -2 of S"
    with pytest.raises(xf.ValidationError, match=msg):
        xf.uniqueness_probe(w, domain, 4, trials=20)
    with pytest.raises(xf.ValidationError, match=msg):
        maximize_log_T(w, domain, 4)
    # the zero on the edge of the open box is outside it
    assert xf.uniqueness_probe(w, (-2.0, 30.0), 4, trials=0)["trials"] == 0


@pytest.mark.parametrize("variant", ["hat", "v"])
def test_pole_rows_in_a_line_search_match_serial(monkeypatch, variant):
    # the box holds S's zero at x = -2: candidates fall inside its pole
    # guard in the middle of line searches, and the last start is on it
    zs = zeros_of("laguerre1", 1, 2.0, 4)
    w = xf.v_weight(zs) if variant == "v" else xf.WeightSpec(zs.spec)
    domain = (-2.5, 30.0)
    rng = np.random.default_rng(2)
    starts = np.vstack([np.sort(rng.uniform(*domain, size=(4, 4)), axis=1),
                        [-2.25, -2.0, 1.0, 5.0]])
    poles, real = [0], xf.energy_hessian

    def energy_hessian(x, w):
        try:
            return real(x, w)
        except xf.PoleEvaluation:
            poles[0] += 1
            raise

    monkeypatch.setattr(xf, "energy_hessian", energy_hessian)
    kinds = set()
    for itmax in (10, 20):
        batch = fekete_opt._ascend(w, domain, starts, fekete_opt.GTOL, itmax)
        for x0, res in zip(starts, batch):
            ref = _call_outcome(serial_maximize_log_T, w, domain, 4, x0,
                                itmax=itmax)
            assert _outcome(res) == ref
            kinds.add(ref[1] if isinstance(ref[0], type) else "converged")
    assert poles[0] > 10
    assert kinds == {"initial nodes invalid (pole)", "converged"} | {
        f"gradient above {fekete_opt.GTOL} after {k} iterations"
        for k in (10, 20)}


def test_an_inadmissible_candidate_halves_t_and_is_not_an_escape():
    # at t = 1 the step lands x_0 on x_1, a candidate that is not
    # admissible but inside the box: the row halves t and moves, and its
    # terms are those of the new nodes
    w = xf.v_weight(zeros_of("laguerre1", 1, 2.0, 3))
    X = np.array([[0.01, 5.0, 10.0]])
    _, *V = fekete_opt._evaluate(w, X)
    t, yes, no = np.ones(1), np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
    X, V, moved, escape = fekete_opt._line_search(
        w, (0.0, 30.0), X, V, np.array([[4.99, 0.0, 0.0]]), t, yes, no,
        np.inf)
    assert moved[0] and not escape[0] and t[0] == 0.5
    assert X.tolist() == [[0.01 + 0.5 * 4.99, 5.0, 10.0]]
    _, *want = fekete_opt._evaluate(w, X)
    assert all(np.array_equal(a, b) for a, b in zip(V, want))


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


def inadmissible_stack(domain, n):
    """Sorted rows of n >= 2 nodes of which none is admissible: a node
    past either end of the box, a repeated node, two nodes 1e-15
    (relative) apart.  The capped step keeps a probe's candidates inside
    the box, so a round with no admissible row needs such a stack."""
    lo, hi = domain
    X = np.tile(lo + (hi - lo) * np.arange(1, n + 1) / (n + 1.0), (4, 1))
    X[0, -1] = hi + 1.0
    X[1, 0] = lo - 1.0
    X[2, 1] = X[2, 0]
    X[3, 1] = X[3, 0] * (1.0 + 1e-15)
    return X


def _forbid_public_weight_logs(monkeypatch):
    """The ascent evaluates the weight through _weight_logs alone: the
    public weight_logs, which fekete_opt does not import, is not reached
    through the energy module either."""
    def forbidden(*args):
        raise AssertionError("weight_logs called during the ascent")

    assert not hasattr(fekete_opt, "weight_logs")
    monkeypatch.setattr(energy, "weight_logs", forbidden)


def test_probe_makes_one_weight_evaluation_per_round(monkeypatch):
    v = v_of("laguerre1", 1, 2.0, 10)
    domain = xf.default_domain(v, 10)
    serial = [0]
    ref = serial_probe(v, domain, 10, trials=20, seed=1, count=serial)
    counter = {"tries": 0, "evaluations": 0, "weight_logs": 0}
    real_masks = fekete_opt._masks
    real_evaluate, real_logs = fekete_opt._evaluate, fekete_opt._weight_logs

    def masks(*args):
        counter["tries"] += 1
        return real_masks(*args)

    def evaluate(*args):
        counter["evaluations"] += 1
        return real_evaluate(*args)

    def logs(*args):
        counter["weight_logs"] += 1
        return real_logs(*args)

    monkeypatch.setattr(fekete_opt, "_masks", masks)
    monkeypatch.setattr(fekete_opt, "_evaluate", evaluate)
    monkeypatch.setattr(fekete_opt, "_weight_logs", logs)
    _forbid_public_weight_logs(monkeypatch)
    got = xf.uniqueness_probe(v, domain, 10, trials=20, seed=1)
    assert got["converged"] == ref["converged"] == 20
    # one weight evaluation per evaluated try, and none outside them
    assert counter["weight_logs"] == counter["evaluations"] > 0
    assert counter["evaluations"] <= counter["tries"]
    # the serial ascent evaluated every start's candidates one by one
    assert 4 * counter["weight_logs"] < serial[0]
    # none for a try where no row is admissible
    probe = dict(counter)
    res = fekete_opt._ascend(v, domain, inadmissible_stack(domain, 10),
                             fekete_opt.GTOL, fekete_opt.ITMAX)
    assert all(isinstance(r, xf.DomainEscape) for r in res)
    assert counter == dict(probe, tries=probe["tries"] + 1)


@pytest.mark.parametrize("n", [1, 4, 10, 30])
@pytest.mark.parametrize("args", LOCKSTEP, ids=lambda a: a[0])
def test_capped_step_keeps_every_candidate_inside_the_box(monkeypatch, args,
                                                          n):
    v = v_of(*args[:3], n, *args[4:])
    domain = xf.default_domain(v, n)
    outside, real_masks = [], fekete_opt._masks

    def masks(X, domain):
        res = real_masks(X, domain)
        outside.append(res[2])
        return res

    monkeypatch.setattr(fekete_opt, "_masks", masks)
    rep = xf.uniqueness_probe(v, domain, n, trials=20, seed=3)
    assert rep["converged"] > 0 and len(outside) > 2
    # the first try checks the starts; no later candidate leaves
    assert not any(out.any() for out in outside[1:])


@pytest.mark.parametrize("args,n,seed", [
    (LOCKSTEP[0], 10, 1), (LOCKSTEP[1], 10, 1), (LOCKSTEP[2], 20, 0)],
    ids=lambda a: str(a))
def test_probe_skips_empty_weight_evaluations(monkeypatch, args, n, seed):
    v = v_of(*args[:3], n, *args[4:])
    domain = xf.default_domain(v, n)
    # sorted, as the serial ascent sorts its start
    bad = np.sort(inadmissible_stack(domain, n), axis=1)
    ref = serial_probe(v, domain, n, trials=20, seed=seed)
    ref_stack = [_call_outcome(serial_maximize_log_T, v, domain, n, x0)
                 for x0 in bad]
    sizes, real_logs = [], fekete_opt._weight_logs

    def logs(w, X):
        sizes.append(np.size(X))
        return real_logs(w, X)

    monkeypatch.setattr(fekete_opt, "_weight_logs", logs)
    _forbid_public_weight_logs(monkeypatch)
    got = xf.uniqueness_probe(v, domain, n, trials=20, seed=seed)
    assert sizes and 0 not in sizes
    # a stack with no admissible start makes no weight evaluation
    probe = len(sizes)
    stack = fekete_opt._ascend(v, domain, bad, fekete_opt.GTOL,
                               fekete_opt.ITMAX)
    assert len(sizes) == probe
    assert [_outcome(r) for r in stack] == ref_stack
    for key in ("trials", "converged", "failed"):
        assert got[key] == ref[key]
    assert len(got["clusters"]) == len(ref["clusters"])
    for c, r in zip(got["clusters"], ref["clusters"]):
        assert c["nodes"].tobytes() == r["nodes"].tobytes()
        assert (c["count"], c["logT"]) == (r["count"], r["logT"])


# ------------------------------------------------ definiteness certificate

def cholesky_steps(G, H):
    """_steps as it was before the certificate: newton where a Cholesky
    of -H succeeds, row by row."""
    newton = np.array([negative_definite(h) for h in H], dtype=bool)
    step = np.empty_like(G)
    a = ~newton
    if a.any():
        nrm = np.linalg.norm(H[a], np.inf, axis=(1, 2))
        step[a] = G[a] / (1.0 + nrm)[:, None]
    if newton.any():
        step[newton] = np.linalg.solve(H[newton], -G[newton][..., None])[..., 0]
    return newton, step


def negative_definite(h):
    try:
        np.linalg.cholesky(-h)
    except np.linalg.LinAlgError:
        return False
    return True


def certified(h):
    """Every row sum of h below -1e-10 max_k |h_kk|."""
    return bool(np.all(np.sum(h, axis=1)
                       < -1e-10 * np.max(np.abs(np.diag(h)))))


@pytest.fixture(scope="module")
def hessian_kinds():
    """Three 3-node Hessians: certified, negative definite without the
    certificate (synthetic, off-diagonals positive), and the H_11 > 0
    witness, which is not negative definite."""
    hit = search_positive_h11(trials=200, seed=0)
    v = xf.v_weight(xf.find_zeros(hit["spec"]))
    cert = xf.energy_hessian(np.array([1.0, 2.0, 4.0]), v).hessian
    witness = xf.energy_hessian(np.asarray(hit["nodes"]), v).hessian
    synth = np.array([[-1.0, 2.0, 0.1], [2.0, -5.0, 0.1], [0.1, 0.1, -1.0]])
    assert certified(cert) and negative_definite(cert)
    assert not certified(synth) and negative_definite(synth)
    assert not certified(witness) and not negative_definite(witness)
    return {"cert": cert, "synth": synth, "witness": witness}


@pytest.mark.parametrize("kinds", [
    ("cert",), ("synth",), ("witness",), ("cert", "synth"),
    ("cert", "witness"), ("synth", "cert", "witness", "cert"),
    ("witness", "synth", "synth")], ids="-".join)
def test_steps_match_the_cholesky_steps(monkeypatch, hessian_kinds, kinds):
    H = np.stack([hessian_kinds[k] for k in kinds])
    G = np.random.default_rng(len(kinds)).normal(size=(len(kinds), 3))
    ref_newton, ref_step = cholesky_steps(G, H)
    assert ref_newton.tolist() == [negative_definite(h) for h in H]
    calls, real = [], np.linalg.cholesky

    def cholesky(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    newton, step = fekete_opt._steps(G, H)
    assert newton.tolist() == ref_newton.tolist()
    assert step.tobytes() == ref_step.tobytes()
    # certified rows reach no Cholesky; each other row takes one of its
    # own 3 x 3 matrix
    assert calls == [3] * sum(k != "cert" for k in kinds)


@pytest.mark.parametrize("args", LOCKSTEP, ids=lambda a: a[0])
def test_certified_probe_makes_no_cholesky(monkeypatch, args):
    n = 10
    v = v_of(*args[:3], n, *args[4:])
    domain = xf.default_domain(v, n)
    calls, real = [0], np.linalg.cholesky

    def cholesky(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    rep = xf.uniqueness_probe(v, domain, n, trials=20, seed=1)
    assert rep["converged"] == 20
    assert calls[0] == 0


# ------------------------------------------------ stacks against stacks of one

def small_alpha_stack():
    """The first stack of a probe in the small-alpha corner (laguerre1
    m = 1, alpha = 0.01, n = 2): every row admissible, and row 5's -H is
    neither certified nor positive definite."""
    v = v_of("laguerre1", 1, 0.01, 2)
    domain = xf.default_domain(v, 2)
    X = np.sort(np.random.default_rng(0).uniform(*domain, size=(8, 2)),
                axis=1)
    return v, domain, X


def test_steps_of_a_stack_are_the_steps_of_stacks_of_one():
    v = v_of("laguerre1", 1, 2.0, 10)
    domain = xf.default_domain(v, 10)
    X = np.sort(np.random.default_rng(4).uniform(*domain, size=(6, 10)),
                axis=1)
    pole, _, G, H, _, _ = fekete_opt._evaluate(v, X)
    newton, step = fekete_opt._steps(G, H)
    assert not pole.any() and newton.all()   # every row certified
    vs, domain, Xs = small_alpha_stack()
    pole, _, Gs, Hs, _, _ = fekete_opt._evaluate(vs, Xs)
    assert not pole.any()
    newton_s, step_s = fekete_opt._steps(Gs, Hs)
    assert newton_s.tolist() == [True] * 5 + [False] + [True] * 2
    for G, H, newton, step in ((G, H, newton, step),
                               (Gs, Hs, newton_s, step_s)):
        for r in range(len(G)):
            one = slice(r, r + 1)
            nt, st = fekete_opt._steps(G[one], H[one])
            assert nt[0] == newton[r]
            assert st.tobytes() == step[one].tobytes()


def _evaluate_rows(w, X, domain):
    """_masks of each row of X as a stack of one, and _evaluate of each
    row that passes them (None for the others)."""
    masks, terms = [], []
    for r in range(len(X)):
        one = X[r:r + 1]
        m = [bool(a[0]) for a in fekete_opt._masks(one, domain)]
        masks.append(m)
        terms.append(None if any(m) else fekete_opt._evaluate(w, one))
    return masks, terms


@pytest.mark.parametrize("kind", ["admissible", "inadmissible", "mixed",
                                  "weight-pole"])
def test_evaluate_of_a_stack_is_evaluate_of_stacks_of_one(kind):
    v = v_of("laguerre1", 1, 2.0, 10)
    domain = xf.default_domain(v, 10)
    good = np.sort(np.random.default_rng(6).uniform(*domain, size=(3, 10)),
                   axis=1)
    bad = inadmissible_stack(domain, 10)
    # inside the box, but within the weight's pole guard of x = 0
    near = good[1].copy()
    near[0] = 1e-13
    X = {"admissible": good, "inadmissible": bad,
         "mixed": np.concatenate([bad[:2], good, bad[2:]]),
         "weight-pole": np.stack([good[0], near, good[2]])}[kind]
    masks = np.column_stack(fekete_opt._masks(X, domain))
    ref_masks, terms = _evaluate_rows(v, X, domain)
    assert masks.tolist() == ref_masks
    ok = [r for r, m in enumerate(ref_masks) if not any(m)]
    assert len(ok) == {"admissible": 3, "inadmissible": 0, "mixed": 3,
                       "weight-pole": 3}[kind]
    if not ok:
        return
    pole, *C = fekete_opt._evaluate(v, X[ok])
    assert pole.tolist() == [bool(terms[r][0][0]) for r in ok]
    if kind == "weight-pole":
        assert pole.tolist() == [False, True, False]
    for k, r in enumerate(ok):
        if pole[k]:
            # meaningless, but finite: nothing warned
            assert all(np.isfinite(a[k]).all() for a in C)
            continue
        for a, b in zip(C, terms[r][1:]):
            assert a[k].tobytes() == b[0].tobytes()

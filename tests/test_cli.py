"""Command-line interface: envelopes, determinism, exit codes."""

import json
import warnings

import mpmath
import numpy as np
import pytest

import xfekete as xf
from xfekete import cli
from xfekete.cli import main

from test_one_engine import mp_refine
from test_pair import mp_member


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SEL = ["--family", "laguerre1", "--m", "1", "--alpha", "2"]


def test_poly_roundtrip(capsys):
    code, out, err = run(capsys, "poly", *SEL, "--n", "0")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["version"]
    assert doc["spec"] == {"family": "laguerre1", "m": 1, "alpha": 2, "n": 0}
    np.testing.assert_allclose(doc["coefficients"], [3.0, 1.0], rtol=1e-12)
    assert doc["leading_coefficient"] == 1
    assert doc["leading_expected"] == 1
    assert doc["residual"] < 1e-12


def test_zeros_complex_encoding(capsys):
    code, out, _ = run(capsys, "zeros", *SEL, "--n", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["exceptional"] == [[-3.0, 0.0]]
    assert doc["certificate"]["passed"] is True
    assert doc["interlacing"]["passed"] is True


def test_energy_report(capsys):
    code, out, _ = run(capsys, "energy", *SEL, "--n", "5", "--weight", "v")
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"] == "local-max"
    assert doc["stationary"] is True
    assert all(s == -1 for s in doc["diag_signs"])


def test_energy_saddle_at_full_set(capsys):
    code, out, _ = run(capsys, "energy", *SEL, "--n", "5", "--weight", "hat")
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"] == "saddle"
    assert doc["diag_signs"] == [1, -1, -1, -1, -1, -1]


def test_fekete_cluster(capsys):
    code, out, _ = run(capsys, "fekete", *SEL, "--n", "3",
                       "--trials", "5", "--seed", "0")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["clusters"]) == 1
    assert doc["top_cluster_deviation_from_zeros"] < 1e-6


def test_jacobi_fekete_search_box_holds_the_extreme_zeros(capsys):
    # the smallest regular zero is -0.99904: a box of (-0.999, 0.999)
    # left every trial outside and found no cluster
    code, out, _ = run(capsys, "fekete", "--family", "jacobi", "--m", "1",
                       "--alpha", "2.5", "--beta", "1.5", "--n", "100",
                       "--trials", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["domain"] == [-1, 1]
    assert [c["count"] for c in doc["clusters"]] == [3]
    assert doc["top_cluster_deviation_from_zeros"] < 1e-12


def test_interp_scan(capsys):
    code, out, _ = run(capsys, "interp", *SEL, "--n", "3", "--grid", "300")
    doc = json.loads(out)
    assert code == 0
    assert doc["stability"]["passed"] is True
    assert doc["stability"]["total_degree"] == 18


def test_diameter_csv(capsys):
    code, out, err = run(capsys, "diameter", "--m", "1", "--alpha", "2",
                         "--n-from", "10", "--n-to", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,delta,rate_stat"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert int(first[0]) == 10
    assert all(np.isfinite(float(v)) for v in first[1:])


@pytest.mark.parametrize("lo,hi", [(2, 12), (10, 20)])
def test_diameter_rows_are_the_series_rate_stats(tmp_path, capsys, lo, hi):
    # one statistic: the CSV prints DiameterSeries.rate_stats (NaN where
    # the delta is, at n = 2) and the summary its nanmax
    summary = tmp_path / "sweep.json"
    code, out, err = run(capsys, "diameter", "--m", "1", "--alpha", "2",
                         "--n-from", str(lo), "--n-to", str(hi),
                         "--summary", str(summary))
    assert code == 0 and err == ""
    series = xf.d_sequence(1, 2.0, range(lo, hi + 1))
    printed = np.array([float(r.split(",")[3])
                        for r in out.strip().splitlines()[1:]])
    assert printed.tobytes() == series.rate_stats.tobytes()
    assert np.isnan(printed[0]) == (lo == 2)
    assert series.rate_stat == np.nanmax(series.rate_stats)
    assert json.loads(summary.read_text())["rate_stat"] == series.rate_stat


def test_diameter_summary_file(tmp_path, capsys):
    summary = tmp_path / "sweep.json"
    code, out, _ = run(capsys, "diameter", "--m", "1", "--alpha", "2",
                       "--n-from", "10", "--n-to", "14",
                       "--summary", str(summary))
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["rows"] == 5
    assert doc["skipped"] == []
    assert doc["rate_stat"] > 0


def test_verify_bundle(capsys):
    code, out, _ = run(capsys, "verify", *SEL, "--n", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"construction", "zeros", "interlacing", "saddle",
            "zero_sum", "stability", "fekete_stationary"} <= names
    assert all(c["passed"] for c in doc["checks"])


def test_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "energy", *SEL, "--n", "4", "--weight", "hat")
    _, b, _ = run(capsys, "energy", *SEL, "--n", "4", "--weight", "hat")
    assert a == b


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        _, a, _ = run(capsys, "zeros", *SEL, "--n", "3")
        _, b, _ = run(capsys, "zeros", *SEL, "--n", "3")
        assert len(builds) == 1
        assert a == b and a != ""
        with pytest.raises(SystemExit) as exc:
            main(["zeros", *SEL, "--n", "three"])
        assert exc.value.code == 2
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_subcommand_runs_the_current_function(monkeypatch, capsys):
    # the shared parser stores no function, so a replaced cmd_* is used
    run(capsys, "zeros", *SEL, "--n", "1")
    seen = []
    monkeypatch.setattr(cli, "cmd_zeros", lambda args: seen.append(args.n))
    assert main(["zeros", *SEL, "--n", "2"]) is None
    assert seen == [2]


def test_validation_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "--family", "jacobi", "--m", "2",
                         "--alpha", "3", "--beta", "1", "--n", "4")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DegreeCollapse"


@pytest.mark.parametrize("argv", [
    # n + alpha + 1 - m = 0, m - n - alpha - 1 = 0 and 2n + alpha + beta
    # = 0: the closed-form leading coefficient vanishes, so the member
    # has lower degree
    ["zeros", "--family", "laguerre2", "--m", "3", "--alpha", "1",
     "--n", "1"],
    ["zeros", "--family", "jacobi", "--m", "2", "--alpha", "1",
     "--beta", "0.5", "--n", "0"],
    ["poly", "--family", "laguerre2", "--m", "3", "--alpha", "1",
     "--n", "1"],
    ["poly", "--family", "jacobi", "--m", "1", "--alpha", "-1.5",
     "--beta", "-0.5", "--n", "1"]])
def test_member_degree_collapse_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DegreeCollapse"
    assert "leading coefficient is 0" in doc["message"]


def test_numerical_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "--family", "laguerre1", "--m", "1",
                         "--alpha", "1", "--n", "200")
    assert code == 2
    assert json.loads(err)["error"] == "RepresentationOverflow"


@pytest.mark.parametrize("argv", [
    ["zeros", "--family", "laguerre1", "--m", "1", "--alpha", "-1.5",
     "--n", "3"],
    ["zeros", "--family", "laguerre2", "--m", "1", "--alpha", "-1.5",
     "--n", "3"],
    ["zeros", "--family", "jacobi", "--m", "1", "--alpha", "-1.2",
     "--beta", "-0.3", "--n", "3"],
    ["verify", "--family", "jacobi", "--m", "1", "--alpha", "-1.2",
     "--beta", "-0.3", "--n", "3"],
    ["zeros", "--family", "jacobi", "--m", "1", "--alpha", "-1.5",
     "--beta", "-0.5", "--n", "1"],
    ["zeros", "--family", "laguerre1", "--m", "1", "--alpha", "-1",
     "--n", "0"]])
def test_gauss_seeds_below_the_classical_range_are_refused(capsys, argv):
    # the seeds need parameters above -1; n = 0 has no seeds to refuse,
    # and the member's one zero, at 0, lies on the interval's end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    doc = json.loads(err)
    assert out == ""
    if argv[-1] == "0":
        assert code == 2 and doc["error"] == "CountMismatch"
        return
    assert code == 1 and doc["error"] == "ValidationError"
    assert "Gauss nodes need" in doc["message"]


def test_laguerre_seeds_stay_quiet_where_the_recurrence_overflows(capsys):
    # no np.errstate here: L_400 overflows in the seeds' polishing step
    # and in the Newton stage, and the member fails typed, without a
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "zeros", "--family", "laguerre1",
                             "--m", "1", "--alpha", "2", "--n", "400")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "NonConvergence"


def test_large_degree_jacobi_is_no_degree_collapse(capsys):
    # the expanded top coefficient of P_120^(2.376,-0.071) cancels; that
    # used to read as a DegreeCollapse (exit 1), and the member builds
    code, out, _ = run(capsys, "verify", "--family", "jacobi", "--m", "1",
                       "--alpha", "1.376", "--beta", "0.929", "--n", "120")
    assert code == 0
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["passed"] is True and checks["construction"]["passed"]


def _quiet_run(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


# jacobi members beyond the former least-squares build: at n = 100 its
# coefficients missed the bound at the zeros, and at the others it raised
# NullspaceDefect.  The evaluator certifies each member's zeros, and the
# closed-form coefficients vanish there.
BEYOND_THE_BUILD = [(1, 2.5, 1.5, 100), (1, 2.5, 1.5, 120),
                    (1, 2.5, 1.5, 200), (2, 2.6, 0.8, 150),
                    (1, 2.841, 0.867, 400)]


@pytest.mark.parametrize("m,alpha,beta,n", BEYOND_THE_BUILD)
def test_jacobi_zeros_certify_beyond_the_build(capsys, m, alpha, beta, n):
    code, out, err = _quiet_run(capsys, "zeros", "--family", "jacobi",
                                "--m", str(m), "--alpha", str(alpha),
                                "--beta", str(beta), "--n", str(n))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["certificate"]["passed"]
    reg = doc["regular"]
    assert len(reg) == n and len(doc["exceptional"]) == m
    f = mp_member(xf.FamilySpec("jacobi", m, alpha, n, beta))
    sample = [reg[0], reg[n // 2], reg[-1]] + [
        complex(re, im) if im else re for re, im in doc["exceptional"]]
    with mpmath.workdps(30):
        for z in sample:
            assert abs(mp_refine(f, z) - z) <= 1e-12 * (1 + abs(z)), z


@pytest.mark.parametrize("m,alpha,beta,n", BEYOND_THE_BUILD)
def test_jacobi_verify_beyond_the_build(capsys, m, alpha, beta, n):
    code, out, err = _quiet_run(capsys, "verify", "--family", "jacobi",
                                "--m", str(m), "--alpha", str(alpha),
                                "--beta", str(beta), "--n", str(n))
    assert code == 0 and err == ""
    construction = json.loads(out)["checks"][0]
    assert construction["name"] == "construction"
    assert construction["passed"]
    assert construction["detail"]["residual"] < 1e-14


def test_coinciding_exceptional_seeds_fail_quietly(capsys):
    # S = L_3^(-2) has a double zero: two exceptional seeds coincide
    code, out, err = _quiet_run(capsys, "zeros", "--family", "laguerre2",
                                "--m", "3", "--alpha", "1", "--n", "4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NonConvergence"


@pytest.mark.parametrize("argv", [
    # the WKB phase leaves binary64 (a non-finite seed, which Newton
    # refuses); the Python-float rho ** 3 raised OverflowError
    ["zeros", "--family", "laguerre1", "--m", "1", "--alpha", "1e20",
     "--n", "3"],
    ["zeros", "--family", "laguerre2", "--m", "1", "--alpha", "1e20",
     "--n", "3"],
    ["zeros", "--family", "jacobi", "--m", "1", "--alpha", "1e12",
     "--beta", "1", "--n", "3"],
    ["zeros", "--family", "jacobi", "--m", "1", "--alpha", "1e308",
     "--beta", "2", "--n", "3"],
    # the ODE coefficients, and the monic S of the companion matrix,
    # leave binary64
    ["poly", "--family", "jacobi", "--m", "1", "--alpha", "1e308",
     "--beta", "1", "--n", "3"],
    ["poly", "--family", "laguerre2", "--m", "1", "--alpha", "1e308",
     "--n", "3"],
    ["zeros", "--family", "laguerre1", "--m", "200", "--alpha", "2",
     "--n", "3"]], ids=" ".join)
def test_extreme_in_regime_parameters_fail_typed(capsys, argv):
    code, out, err = _quiet_run(capsys, *argv)
    assert code == 2 and out == ""
    assert issubclass(getattr(xf, json.loads(err)["error"]),
                      xf.NumericalError)


DIAMETER = ["diameter", "--m", "1", "--alpha", "2", "--n-from", "5",
            "--n-to", "6"]


@pytest.mark.parametrize("argv", [
    ["fekete", *SEL, "--n", "3", "--trials", "-1"],
    ["interp", *SEL, "--n", "3", "--grid", "-5"],
    ["interp", *SEL, "--n", "0"],
    *([*DIAMETER, "--c", c] for c in ("0", "-1", "nan", "inf")),
    ["zeros", "--family", "laguerre1", "--m", "1", "--alpha", "inf",
     "--n", "3"],
    ["zeros", "--family", "jacobi", "--m", "1", "--alpha", "2",
     "--beta", "nan", "--n", "3"]], ids=" ".join)
def test_outside_input_ends_typed(capsys, argv):
    code, out, err = _quiet_run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("argv,message", [
    # d_sequence's raise ValidationError("empty n range")
    ([*DIAMETER[:6], "5", "--n-to", "4"], "empty n range"),
    # d_sequence's raise ValidationError("diameter sequence needs n >= 2")
    ([*DIAMETER[:6], "1", "--n-to", "4"], "diameter sequence needs n >= 2"),
    # fekete_opt._ascend's check of a stack of rows with no node
    (["fekete", *SEL, "--n", "0", "--trials", "3"],
     "nodes must be a nonempty 1-d array")],
    ids=["n-from 5 n-to 4", "n-from 1", "fekete n 0"])
def test_empty_ranges_and_node_sets_end_typed(capsys, argv, message):
    code, out, err = _quiet_run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValidationError",
                               "message": message}


def test_a_scan_of_near_node_points_has_no_offnode_margin(capsys):
    # reaches stability_scan's nan margin, printed as null: the jacobi
    # grid of size 0 is the 4n points hugging the nodes, each within
    # 1e-4 of one, so no point is off-node
    code, out, err = _quiet_run(capsys, "interp", "--family", "jacobi",
                                "--m", "1", "--alpha", "2.5", "--beta",
                                "1.5", "--n", "5", "--grid", "0")
    assert code == 0 and err == ""
    assert '"one_minus_g_min_offnode":null' in out
    scan = json.loads(out)["stability"]
    assert scan["points"] == 20 and scan["passed"] is True


@pytest.mark.parametrize("argv", [
    ["fekete", *SEL, "--n", "3", "--trials", "0"],
    ["interp", *SEL, "--n", "3", "--grid", "0"]], ids=" ".join)
def test_zero_trials_and_grid_still_run(capsys, argv):
    code, out, err = _quiet_run(capsys, *argv)
    assert code == 0 and err == ""
    json.loads(out)


JACOBI_SUM_MINUS_ONE = ["--family", "jacobi", "--m", "1", "--alpha", "-0.3",
                        "--beta", "-0.7", "--n", "3"]


@pytest.mark.parametrize("cmd", ["zeros", "verify"])
def test_jacobi_seeds_at_parameter_sum_minus_one(capsys, cmd):
    # the Gauss seeds are P_3^(-0.3,-0.7) zeros: a + b = -1
    code, out, err = _quiet_run(capsys, cmd, *JACOBI_SUM_MINUS_ONE)
    assert code == 0 and err == ""
    doc = json.loads(out)
    if cmd == "zeros":
        assert doc["exceptional"][0][0] == pytest.approx(3.4277984423761,
                                                         rel=1e-12)
    else:
        assert doc["passed"] is True


def test_overflowing_S_fails_typed(capsys):
    # S = P_600^(-601.5, 0): its coefficients overflow binary64
    code, out, err = _quiet_run(capsys, "poly", "--family", "jacobi",
                                "--m", "600", "--alpha", "600.5",
                                "--beta", "1", "--n", "5")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "RepresentationOverflow"
    assert "coefficients of S overflow" in doc["message"]


def test_overflowing_S_beyond_binary64_exponents_fails_typed(capsys):
    # 2^-1100 is below binary64's range: the scaling must not overflow
    code, out, err = _quiet_run(capsys, "verify", "--family", "jacobi",
                                "--m", "1100", "--alpha", "1100.5",
                                "--beta", "1", "--n", "5")
    assert code == 2 and err == ""
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["passed"] is False
    assert "coefficients of S overflow" in checks["construction"]["detail"]


def test_overflowing_laguerre1_newton_fails_before_any_build(capsys):
    # Newton fails before any build, and quietly: the recurrences
    # overflow (the known unscaled-recurrence defect), and the
    # non-finite step ends Newton as a NonConvergence
    for argv in (["--family", "laguerre1", "--m", "1", "--alpha", "2"],
                 ["--family", "jacobi", "--m", "1", "--alpha", "2.5",
                  "--beta", "1.5"]):
        code, out, err = _quiet_run(capsys, "zeros", *argv, "--n", "400")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NonConvergence"


def test_overflowing_jacobi_exceptional_newton_fails_quietly(capsys):
    # S = P_2^(-5.548, 1.504) has a zero at -317.1: the complex sweep
    # of degree 120 overflows there (the known unscaled-recurrence
    # defect), and the non-finite step ends Newton as a NonConvergence,
    # with no warning;
    # the coefficients build, so verify fails the zeros check alone
    sel = ["--family", "jacobi", "--m", "2", "--alpha", "4.548",
           "--beta", "2.504", "--n", "120"]
    code, out, err = _quiet_run(capsys, "zeros", *sel)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "NonConvergence"
    assert "relative step nan" in doc["message"]
    code, out, err = _quiet_run(capsys, "verify", *sel)
    assert code == 2 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["construction"]["passed"] is True
    assert "max_log_excess" not in checks["construction"]["detail"]
    assert checks["zeros"]["passed"] is False


# recorded from the ascent whose step is capped at the box edge and
# whose last Newton step is polished; against the uncapped ascent only
# logT, the nodes and top_cluster_deviation_from_zeros moved
FEKETE_GOLDEN = (
    '{"clusters":[{"count":20,"logT":140.07962035631709,"nodes":[0.'
    '55860362837887467,1.5244420570210369,2.9557385947194241,4.8850'
    '537736553115,7.3596403343513268,10.451538962078258,14.27423700'
    '3810157,19.019298778484,25.056479897981717,33.334599870730557]'
    '}],"converged":20,"domain":[0,48],"failed":0,"seed":0,"spec":{'
    '"alpha":2,"family":"laguerre1","m":1,"n":10},"top_cluster_devi'
    'ation_from_zeros":3.5527136788005009e-15,"trials":20,"version"'
    ':"0.1.0"}'
    "\n")


def test_fekete_golden_stdout(capsys):
    code, out, _ = run(capsys, "fekete", *SEL, "--n", "10", "--trials", "20",
                       "--seed", "0")
    assert code == 0
    assert out == FEKETE_GOLDEN


# the construction check's residual and max_log_excess are those of the
# closed-form coefficients; the zeros' max_ratio of the laguerre1 and
# jacobi members (all zeros real) is that of the real certificate sweep;
# every other field is as recorded from the least-squares build, which
# had reproduced the coefficient bound of the zeros' certificate before
# the evaluator certified them.  The fields that read the zeros' last
# bits (max_log_excess, max_ratio, the fekete_stationary max_gradient
# and the laguerre1 stability max) are those of zeros polished from the
# WKB seeds
VERIFY_GOLDEN = {
    ("laguerre1", "--m", "2", "--alpha", "2", "--n", "5"): (
        '{"checks":[{"detail":{"max_log_excess":-12.56022134992952,"residu'
        'al":1.6613887386833617e-19},"name":"construction","passed":true},'
        '{"detail":{"max_ratio":1.6832804278725354e-16,"method":"evaluator'
        '","passed":true},"name":"zeros","passed":true},{"detail":{"mode":'
        '"full"},"name":"interlacing","passed":true},{"detail":{"classific'
        'ation":"saddle","max_gradient":3.9968028886505635e-15},"name":"sa'
        'ddle","passed":true},{"detail":{"abs_err":3.5527136788005009e-15,'
        '"lhs":26.999999999999996,"rhs":27},"name":"zero_sum","passed":tru'
        'e},{"detail":{"max":0.99999999999997347,"min":7.0120053275214158e'
        '-43},"name":"stability","passed":true},{"detail":{"diag_all_negat'
        'ive":true,"max_gradient":1.5543122344752192e-15},"name":"fekete_s'
        'tationary","passed":true}],"passed":true,"spec":{"alpha":2,"famil'
        'y":"laguerre1","m":2,"n":5},"version":"0.1.0"}\n'),
    ("laguerre2", "--m", "2", "--alpha", "2.5", "--n", "5"): (
        '{"checks":[{"detail":{"max_log_excess":-14.121623320897944,"resid'
        'ual":0},"name":"construction","passed":true},{"detail":{"max_rati'
        'o":2.3291856781075732e-16,"method":"evaluator","passed":true},"na'
        'me":"zeros","passed":true},{"detail":{"diag_all_negative":true,"m'
        'ax_gradient":1.5543122344752192e-15},"name":"fekete_stationary","'
        'passed":true}],"passed":true,"spec":{"alpha":2.5,"family":"laguer'
        're2","m":2,"n":5},"version":"0.1.0"}\n'),
    ("jacobi", "--m", "1", "--alpha", "2.5", "--beta", "1.5", "--n", "60"): (
        '{"checks":[{"detail":{"max_log_excess":-13.812217028450355,"resid'
        'ual":1.80752050669243e-16},"name":"construction","passed":true},{'
        '"detail":{"max_ratio":3.0165613473345913e-17,"method":"evaluator"'
        ',"passed":true},"name":"zeros","passed":true},{"detail":{"diag_al'
        'l_negative":true,"max_gradient":2.0236257114447653e-11},"name":"f'
        'ekete_stationary","passed":true}],"passed":true,"spec":{"alpha":2'
        '.5,"beta":1.5,"family":"jacobi","m":1,"n":60},"version":"0.1.0"}\n'),
}


@pytest.mark.parametrize("selectors", sorted(VERIFY_GOLDEN))
def test_verify_golden_stdout(capsys, selectors):
    family, *rest = selectors
    code, out, err = run(capsys, "verify", "--family", family, *rest)
    assert code == 0 and err == ""
    assert out == VERIFY_GOLDEN[selectors]


# the three weights that energy builds: hat on the full zero set, hat on
# the regular zeros where the exceptional zeros are complex, and v; the
# weight block reads "shift":1 and the variant
ENERGY_GOLDEN = {
    ("laguerre1", "--m", "2", "--alpha", "2", "--n", "5"): (
        '{"block_dominant":true,"classification":"saddle","diag_signs":[1,1'
        ',-1,-1,-1,-1,-1],"diagonally_dominant":true,"gradient":[-2.2204460'
        '492503131e-16,-3.9968028886505635e-15,-1.5543122344752192e-15,-1.1'
        '102230246251565e-16,3.3306690738754696e-16,0,0],"hessian":[[3.0440'
        '844619018095,0.13713454332372754,0.047822843448571524,0.0296223976'
        '90570491,0.016642249820756027,0.0088887407029769345,0.004480303467'
        '8785152],[0.13713454332372754,9.5806591276136963,0.285231739752829'
        '34,0.10340388447336356,0.03919233775295751,0.015997549378570172,0.'
        '0066753709411228081],[0.047822843448571524,0.28523173975282934,-3.'
        '9540413514178772,0.65311795212307266,0.098960311094810516,0.027466'
        '628210030132,0.0093044254782929554],[0.029622397690570491,0.103403'
        '88447336356,0.65311795212307266,-1.3543916589902973,0.265302821385'
        '37736,0.043466034078754323,0.011997481219552967],[0.01664224982075'
        '6027,0.03919233775295751,0.098960311094810516,0.26530282138537736,'
        '-0.59954359600372586,0.12268024141106586,0.019353482512722581],[0.'
        '0088887407029769345,0.015997549378570172,0.027466628210030132,0.04'
        '3466034078754323,0.12268024141106586,-0.27790772111464312,0.053258'
        '661732996461],[0.0044803034678785152,0.0066753709411228081,0.00930'
        '44254782929554,0.011997481219552967,0.019353482512722581,0.0532586'
        '61732996461,-0.10552592865564243]],"logT":49.490952934330323,"node'
        's":[-5.5133481752749374,-1.6944193396067182,0.95356902456229464,2.'
        '7034930233486985,5.449135996627259,9.486776858151595,15.6147926121'
        '91808],"nodes_used":"full zero set","spec":{"alpha":2,"family":"la'
        'guerre1","m":2,"n":5},"stationary":true,"version":"0.1.0","weight"'
        ':{"shift":1,"variant":"hat"}}\n'),
    ("laguerre2", "--m", "3", "--alpha", "5.164", "--n", "5"): (
        '{"block_dominant":true,"classification":"none","diag_signs":[-1,-1'
        ',-1,-1,-1],"diagonally_dominant":true,"gradient":[-0.7920783840001'
        '3575,-0.61283443486522027,-0.45999820839616967,-0.3399747389159588'
        '6,-0.24555896659653897],"hessian":[[-1.2752236664314767,0.29984765'
        '193340024,0.053805981830995851,0.016877854271152633,0.006307487494'
        '6982508],[0.29984765193340024,-0.67394196661540662,0.1619555550910'
        '8417,0.029010424736842566,0.0086290192989136594],[0.05380598183099'
        '5851,0.16195555509108417,-0.36372365218842889,0.087207269103319454'
        ',0.014585156407585148],[0.016877854271152633,0.029010424736842566,'
        '0.087207269103319454,-0.18893904078778059,0.041751788832318511],[0'
        '.0063074874946982508,0.0086290192989136594,0.014585156407585148,0.'
        '041751788832318511,-0.075725383785700859]],"logT":-2.9919315302630'
        '025,"nodes":[2.482747813636665,5.0653925626073057,8.57951649252228'
        '6,13.368448317052497,20.28958544820015],"nodes_used":"regular zero'
        's","spec":{"alpha":5.1639999999999997,"family":"laguerre2","m":3,"'
        'n":5},"stationary":false,"version":"0.1.0","weight":{"shift":1,"va'
        'riant":"hat"}}\n'),
    ("jacobi", "--m", "1", "--alpha", "2.5", "--beta", "1.5", "--n", "6",
     "--weight", "v"): (
        '{"block_dominant":true,"classification":"local-max","diag_signs":['
        '-1,-1,-1,-1,-1,-1],"diagonally_dominant":true,"gradient":[7.105427'
        '3576010019e-15,8.8817841970012523e-16,-6.6613381477509392e-16,6.66'
        '13381477509392e-16,1.7763568394002505e-15,-1.0658141036401503e-14]'
        ',"hessian":[[-172.05942121413131,31.182600360694952,5.730711405218'
        '5675,2.1374493577592073,1.1271538210560692,0.74727433977154045],[3'
        '1.182600360694952,-73.022831302408264,17.557877625952688,3.9225043'
        '633721115,1.7184837059973421,1.0460822265898477],[5.73071140521856'
        '75,17.557877625952688,-49.70023650400875,14.105106628222369,3.6395'
        '091013592769,1.83072726614805],[2.1374493577592073,3.9225043633721'
        '115,14.105106628222369,-46.069992792517475,15.033137750679623,4.47'
        '32708016226903],[1.1271538210560692,1.7184837059973421,3.639509101'
        '3592769,15.033137750679623,-56.799801468153518,21.654126238336431]'
        ',[0.74727433977154045,1.0460822265898477,1.83072726614805,4.473270'
        '8016226903,21.654126238336431,-99.390290089161894]],"logT":-10.858'
        '069292224631,"nodes":[-0.86141813126284272,-0.60816266179393386,-0'
        '.27065861158022009,0.10589499454334721,0.4706406934175858,0.774550'
        '46608915223],"nodes_used":"regular zeros","spec":{"alpha":2.5,"bet'
        'a":1.5,"family":"jacobi","m":1,"n":6},"stationary":true,"version":'
        '"0.1.0","weight":{"shift":1,"variant":"v"}}\n'),
}


@pytest.mark.parametrize("selectors", sorted(ENERGY_GOLDEN))
def test_energy_golden_stdout(capsys, selectors):
    family, *rest = selectors
    code, out, err = run(capsys, "energy", "--family", family, *rest)
    assert code == 0 and err == ""
    assert out == ENERGY_GOLDEN[selectors]


# the Laguerre-II and Jacobi members from the product-form evaluator: a
# laguerre2 member with one real exceptional zero and a complex pair, a
# jacobi member with an exceptional zero beyond the zero of S at 35.97,
# and their monomial coefficients
ZEROS_GOLDEN = {
    ("laguerre2", "--m", "3", "--alpha", "4.5", "--n", "8"): (
        '{"certificate":{"max_ratio":2.1799419794821364e-16,"method":"evalu'
        'ator","passed":true},"exceptional":[[-3.6710750287880467,0],[-2.70'
        '50024756620012,-3.045049299704258],[-2.7050024756620012,3.04504929'
        '9704258]],"interlacing":{"checks":[{"check":"regular count","passe'
        'd":true},{"check":"exceptional count","passed":true},{"check":"neg'
        'ative real exceptional parity","passed":true}],"mode":"structure",'
        '"passed":true},"regular":[1.5149487543156803,3.1712243973805552,5.'
        '3790831204254008,8.2177269490993421,11.796990652467136,16.30231516'
        '6243442,22.094703194384991,30.104087745795503],"s_zeros":[[-3.1328'
        '694368396,0],[-2.183565281580198,-2.7929183291074353],[-2.18356528'
        '1580198,2.7929183291074353]],"spec":{"alpha":4.5,"family":"laguerr'
        'e2","m":3,"n":8},"version":"0.1.0"}\n'),
    ("jacobi", "--m", "2", "--alpha", "2.6", "--beta", "0.8", "--n", "8"): (
        '{"certificate":{"max_ratio":2.0432959331248321e-16,"method":"evalu'
        'ator","passed":true},"exceptional":[[-2.151142569313631,0],[39.681'
        '14760267877,0]],"interlacing":{"checks":[{"check":"regular count",'
        '"passed":true},{"check":"regular inside (-1, 1)","passed":true},{"'
        'check":"exceptional count","passed":true},{"check":"exceptional ou'
        'tside closed interval","passed":true}],"mode":"structure","passed"'
        ':true},"regular":[-0.93981468757413178,-0.78997704230326404,-0.564'
        '23609732707036,-0.28338054967107384,0.026081335143443241,0.3347586'
        '3827379271,0.61340721042866098,0.83604275760261737],"s_zeros":[[-1'
        '.9736659610102762,0],[35.973665961010241,0]],"spec":{"alpha":2.600'
        '0000000000001,"beta":0.80000000000000004,"family":"jacobi","m":2,"'
        'n":8},"version":"0.1.0"}\n'),
}


@pytest.mark.parametrize("selectors", sorted(ZEROS_GOLDEN))
def test_zeros_golden_stdout(capsys, selectors):
    family, *rest = selectors
    code, out, err = run(capsys, "zeros", "--family", family, *rest)
    assert code == 0 and err == ""
    assert out == ZEROS_GOLDEN[selectors]


POLY_GOLDEN = {
    ("laguerre2", "--m", "2", "--alpha", "4.5", "--n", "4"): (
        '{"coefficients":[7104.26513671875,-2583.369140625,-463.681640625,1'
        '26.171875,17.0703125,-3.90625,0.15625],"leading_coefficient":0.156'
        '25,"leading_expected":0.15625,"residual":0,"spec":{"alpha":4.5,"fa'
        'mily":"laguerre2","m":2,"n":4},"version":"0.1.0","warnings":[]}\n'),
    ("jacobi", "--m", "2", "--alpha", "2.6", "--beta", "0.8", "--n", "4"): (
        '{"coefficients":[-3.2241327999999987,50.764291200000002,125.507099'
        '20000003,-133.99845760000002,-337.52399520000006,-107.3971808,2.73'
        '04368000000023],"leading_coefficient":2.7304368000000023,"leading_'
        'expected":2.7304368000000023,"residual":3.6449559771295972e-16,"sp'
        'ec":{"alpha":2.6000000000000001,"beta":0.80000000000000004,"family'
        '":"jacobi","m":2,"n":4},"version":"0.1.0","warnings":[]}\n'),
}


@pytest.mark.parametrize("selectors", sorted(POLY_GOLDEN))
def test_poly_golden_stdout(capsys, selectors):
    family, *rest = selectors
    code, out, err = run(capsys, "poly", "--family", family, *rest)
    assert code == 0 and err == ""
    assert out == POLY_GOLDEN[selectors]


def test_nodes_file_override(tmp_path, capsys):
    f = tmp_path / "nodes.txt"
    f.write_text("1.0\n2.5\n7.0\n")
    code, out, _ = run(capsys, "energy", *SEL, "--n", "3",
                       "--weight", "hat", "--nodes", str(f))
    doc = json.loads(out)
    assert code == 0
    assert doc["nodes"] == [1.0, 2.5, 7.0]
    assert doc["classification"] == "none"


@pytest.mark.parametrize("weight", ["hat", "v"])
def test_permuted_nodes_file_prints_the_sorted_report(tmp_path, capsys,
                                                      weight):
    # every field of the report follows the ascending nodes, so the
    # gradient, the Hessian and the diagonal signs of a permuted file
    # are those of the sorted one, byte for byte
    outs = []
    for name, text in (("perm", "5\n1\n3\n"), ("sorted", "1\n3\n5\n")):
        f = tmp_path / f"{name}.txt"
        f.write_text(text)
        code, out, err = run(capsys, "energy", *SEL, "--n", "3",
                             "--weight", weight, "--nodes", str(f))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[1])
    assert doc["nodes"] == [1.0, 3.0, 5.0]


@pytest.mark.parametrize("content", [None, "1.0\nnot-a-node\n"])
def test_unreadable_nodes_file_is_a_validation_error(tmp_path, capsys,
                                                     content):
    f = tmp_path / "nodes.txt"
    if content is not None:
        f.write_text(content)
    code, out, err = run(capsys, "energy", *SEL, "--n", "3",
                         "--nodes", str(f))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_nodes_file_is_a_validation_error(tmp_path, capsys, bad):
    f = tmp_path / "nodes.txt"
    f.write_text(f"1.0\n{bad}\n7.0\n")
    code, out, err = _quiet_run(capsys, "energy", *SEL, "--n", "3",
                                "--nodes", str(f))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "nodes must be finite"}


def test_empty_nodes_file_is_a_validation_error(tmp_path, capsys):
    f = tmp_path / "nodes.txt"
    f.write_text("")
    code, out, err = _quiet_run(capsys, "energy", *SEL, "--n", "3",
                                "--nodes", str(f))
    assert code == 1 and out == ""
    doc = json.loads(err)           # stderr holds only the JSON error
    assert doc["error"] == "ValidationError"
    assert "no data" in doc["message"]


def test_energy_has_no_at_option(capsys):
    with pytest.raises(SystemExit):
        main(["energy", *SEL, "--n", "3", "--at", "zeros"])
    assert "unrecognized arguments: --at" in capsys.readouterr().err


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310,
               1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.0, 1e-17]

# EDGE_FLOATS at 17 significant digits, non-finite values as null
EDGE_JSON = ["null", "null", "null", "-0", "0", "4.9406564584124654e-324",
             "2.5000000000000171e-310", "1e+308", "-1.7976931348623157e+308",
             "0.10000000000000001", "0.33333333333333331", "-2",
             "1.0000000000000001e-17"]


def _list(items):
    return "[" + ",".join(items) + "]"


@pytest.mark.parametrize("obj,want", [
    (np.array(EDGE_FLOATS), _list(EDGE_JSON)),
    (np.array([]), "[]"),
    (np.array(EDGE_FLOATS[::-1]), _list(EDGE_JSON[::-1])),
    (np.array(EDGE_FLOATS).reshape(13, 1),
     _list(_list([v]) for v in EDGE_JSON)),
    (np.array(EDGE_FLOATS[:12]).reshape(3, 4),
     _list(_list(EDGE_JSON[i:i + 4]) for i in (0, 4, 8))),
    (np.array(1e308), "1e+308"), (np.array(np.nan), "null"),
    (np.array([0.1, -0.0, np.nan, -np.inf], dtype=np.float32),
     "[0.10000000149011612,-0,null,null]"),
    (np.array([1, 2, 3]), "[1,2,3]"),
    (np.array([1 + 2j, np.nan]), "[[1,2],[null,0]]"),
    ({"a": np.array(EDGE_FLOATS), "b": [np.array([-0.0])]},
     '{"a":' + _list(EDGE_JSON) + ',"b":[[-0]]}')],
    ids=["edge", "empty", "reversed", "column", "2-d", "0-d", "0-d-nan",
         "float32", "int", "complex", "nested"])
def test_float_array_fast_path_is_the_generic_path(obj, want):
    # float arrays take the per-element dispatch of every other sequence:
    # 17 significant digits, -0 kept, subnormals in full, null for nan
    # and +-inf
    assert cli._dumps(obj) == want


def test_zero_dim_array_serializes_as_its_scalar():
    assert cli._dumps(np.array(1.5)) == "1.5"
    assert cli._dumps(np.array(np.nan)) == "null"
    assert cli._dumps(np.array(3)) == "3"
    assert cli._dumps(np.array(1 + 2j)) == "[1,2]"


@pytest.mark.parametrize("case", ["negative-seed", "unwritable-summary"])
def test_bad_argument_ends_in_a_validation_error(tmp_path, capsys, case):
    summary = tmp_path / "missing" / "s.json"
    argv, message = {
        "negative-seed": (["fekete", *SEL, "--n", "5", "--trials", "3",
                           "--seed", "-1"], "seed -1 is negative"),
        "unwritable-summary": (["diameter", "--m", "1", "--alpha", "2",
                                "--n-from", "10", "--n-to", "12",
                                "--summary", str(summary)],
                               f"--summary {summary}: ")}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"
    assert doc["message"].startswith(message)
    assert not summary.exists()

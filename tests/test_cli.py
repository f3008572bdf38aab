"""Command-line interface: envelopes, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from xfekete import cli
from xfekete.cli import main


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
     "--beta", "-0.5", "--n", "1"]])
def test_gauss_seeds_below_the_classical_range_are_refused(capsys, argv):
    # the Jacobi matrix of the seeds needs parameters above -1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"
    assert "Gauss nodes need" in doc["message"]


def test_large_degree_jacobi_is_a_numerical_failure(capsys):
    # the expanded top coefficient of P_120^(2.376,-0.071) cancels; that
    # used to read as a DegreeCollapse (exit 1) before the solve failed
    code, out, _ = run(capsys, "verify", "--family", "jacobi", "--m", "1",
                       "--alpha", "1.376", "--beta", "0.929", "--n", "120")
    assert code == 2
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["passed"] is False and not checks["construction"]["passed"]


def test_overflowing_jacobi_zeros_fail_typed(capsys):
    # the certificate's build fails on its overflowing magnitude profile
    code, out, err = run(capsys, "zeros", "--family", "jacobi", "--m", "1",
                         "--alpha", "2.841", "--beta", "0.867", "--n", "400")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == \
        "NullspaceDefect"


def _quiet_run(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def test_coinciding_exceptional_seeds_fail_quietly(capsys):
    # S = L_3^(-2) has a double zero: two exceptional seeds coincide
    code, out, err = _quiet_run(capsys, "zeros", "--family", "laguerre2",
                                "--m", "3", "--alpha", "1", "--n", "4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NonConvergence"


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
    # the regular-zero Newton stage fails first: laguerre1 builds only
    # for the certificate.  The recurrence overflow itself is the known
    # defect under test, so its warnings are silenced here.
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "zeros", "--family", "laguerre1",
                             "--m", "1", "--alpha", "2", "--n", "400")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "NonConvergence"


# recorded from the ascent that evaluated F (log_energy) and its
# derivatives (gradient_and_hessian) separately; the fused energy terms
# must reproduce it bit for bit
FEKETE_GOLDEN = (
    '{"clusters":[{"count":20,"logT":140.07962035631712,"nodes":[0.'
    '55860362838620214,1.5244420568678521,2.9557385946151138,4.8850'
    '537735652146,7.35964033426737,10.451538961997567,14.2742370037'
    '31439,19.019298778406583,25.05647989790522,33.334599870654777]'
    '}],"converged":20,"domain":[0,48],"failed":0,"seed":0,"spec":{'
    '"alpha":2,"family":"laguerre1","m":1,"n":10},"top_cluster_devi'
    'ation_from_zeros":1.531841320456806e-10,"trials":20,"version":'
    '"0.1.0"}'
    "\n")


def test_fekete_golden_stdout(capsys):
    code, out, _ = run(capsys, "fekete", *SEL, "--n", "10", "--trials", "20",
                       "--seed", "0")
    assert code == 0
    assert out == FEKETE_GOLDEN


# recorded when verify built the coefficients twice or three times and
# computed the laguerre1 zero set twice; one build and one zero set per
# spec must reproduce it bit for bit
VERIFY_GOLDEN = {
    ("laguerre1", "--m", "2", "--alpha", "2", "--n", "5"): (
        '{"checks":[{"detail":{"leading_exact":true,"residual":7.655679307'
        '8529408e-16},"name":"construction","passed":true},{"detail":{"bu'
        'ild_residual":7.6556793078529408e-16,"max_log_excess":-11.867074'
        '169369573,"method":"coefficient","passed":true},"name":"zeros","'
        'passed":true},{"detail":{"mode":"full"},"name":"interlacing","pa'
        'ssed":true},{"detail":{"classification":"saddle","max_gradient":'
        '3.9968028886505635e-15},"name":"saddle","passed":true},{"detail"'
        ':{"abs_err":3.5527136788005009e-15,"lhs":26.999999999999996,"rhs'
        '":27},"name":"zero_sum","passed":true},{"detail":{"max":0.999999'
        '99999997435,"min":7.0120053275214158e-43},"name":"stability","pa'
        'ssed":true},{"detail":{"diag_all_negative":true,"max_gradient":4'
        '.4408920985006262e-16},"name":"fekete_stationary","passed":true}'
        '],"passed":true,"spec":{"alpha":2,"family":"laguerre1","m":2,"n"'
        ':5},"version":"0.1.0"}\n'),
    ("laguerre2", "--m", "2", "--alpha", "2.5", "--n", "5"): (
        '{"checks":[{"detail":{"residual":1.081065716697801e-15},"name":"'
        'construction","passed":true},{"detail":{"build_residual":1.08106'
        '5716697801e-15,"max_log_excess":-14.121623320897948,"method":"co'
        'efficient","passed":true},"name":"zeros","passed":true},{"detail'
        '":{"diag_all_negative":true,"max_gradient":8.8817841970012523e-1'
        '6},"name":"fekete_stationary","passed":true}],"passed":true,"spe'
        'c":{"alpha":2.5,"family":"laguerre2","m":2,"n":5},"version":"0.1'
        '.0"}\n'),
    ("jacobi", "--m", "1", "--alpha", "2.5", "--beta", "1.5", "--n", "60"): (
        '{"checks":[{"detail":{"residual":4.9706813934041767e-16},"name":'
        '"construction","passed":true},{"detail":{"build_residual":4.9706'
        '813934041767e-16,"max_log_excess":-11.068531009874167,"method":"'
        'coefficient","passed":true},"name":"zeros","passed":true},{"deta'
        'il":{"diag_all_negative":true,"max_gradient":1.0231815394945443e'
        '-11},"name":"fekete_stationary","passed":true}],"passed":true,"s'
        'pec":{"alpha":2.5,"beta":1.5,"family":"jacobi","m":1,"n":60},"ve'
        'rsion":"0.1.0"}\n'),
}


@pytest.mark.parametrize("selectors", sorted(VERIFY_GOLDEN))
def test_verify_golden_stdout(capsys, selectors):
    family, *rest = selectors
    code, out, err = run(capsys, "verify", "--family", family, *rest)
    assert code == 0 and err == ""
    assert out == VERIFY_GOLDEN[selectors]


def test_nodes_file_override(tmp_path, capsys):
    f = tmp_path / "nodes.txt"
    f.write_text("1.0\n2.5\n7.0\n")
    code, out, _ = run(capsys, "energy", *SEL, "--n", "3",
                       "--weight", "hat", "--nodes", str(f))
    doc = json.loads(out)
    assert code == 0
    assert doc["nodes"] == [1.0, 2.5, 7.0]
    assert doc["classification"] == "none"


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

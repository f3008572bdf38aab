"""Command-line interface: envelopes, determinism, exit codes."""

import json

import numpy as np
import pytest

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


def test_validation_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "--family", "jacobi", "--m", "2",
                         "--alpha", "3", "--beta", "1", "--n", "4")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DegreeCollapse"


def test_numerical_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "--family", "laguerre1", "--m", "1",
                         "--alpha", "1", "--n", "200")
    assert code == 2
    assert json.loads(err)["error"] == "RepresentationOverflow"


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
    code, out, err = run(capsys, "zeros", "--family", "jacobi", "--m", "1",
                         "--alpha", "2.841", "--beta", "0.867", "--n", "400")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] in {
        "NonConvergence", "NullspaceDefect"}


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


def test_nodes_file_override(tmp_path, capsys):
    f = tmp_path / "nodes.txt"
    f.write_text("1.0\n2.5\n7.0\n")
    code, out, _ = run(capsys, "energy", *SEL, "--n", "3",
                       "--weight", "hat", "--nodes", str(f))
    doc = json.loads(out)
    assert code == 0
    assert doc["nodes"] == [1.0, 2.5, 7.0]
    assert doc["classification"] == "none"

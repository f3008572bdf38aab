"""Per-op outcome classification and correctness checks.

An op ends in one of three ways:

  ok        exit 0 and the output passes its check
  declined  the program gave no result: nonzero exit (typed error or a
            failed verify verdict) or an exception escaping cli.main
  wrong     exit 0 but the output fails its check

Failed ops are declined + wrong.  Checks run after the
timed region.  Where an op has an mpmath oracle (oracle.py) the check
also yields digits of accuracy for the accuracy_digits metric.
"""

import csv
import io
import json
import math
import os

import numpy as np

import oracle
from workloads import DIAMETER_RANGE

VERIFY_CHECKS = {
    "laguerre1": {"construction", "zeros", "interlacing", "saddle",
                  "zero_sum", "stability", "fekete_stationary"},
    "laguerre2": {"construction", "zeros", "fekete_stationary"},
    "jacobi": {"construction", "zeros", "fekete_stationary"},
}
# scaled error |x - x*| / (1 + |x*|) allowed for a certified zero; the
# package certifies |y| <= 1e-10 |y'| (1 + |x|)
ZERO_TOL = 1e-8
FEKETE_DEV_TOL = 1e-6
D_TOL = 1e-8


class Outcome:
    """Result of checking one op: counts over the op's attempted units
    (one, or one per diameter row), the error behind any failure, and
    the accuracy of the ok units."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.ok = 0
        self.declined = 0
        self.wrong = 0
        self.errors = []
        self.digits = []

    def as_dict(self):
        return {"attempted": self.attempted, "ok": self.ok,
                "declined": self.declined, "wrong": self.wrong,
                "errors": self.errors,
                "digits": min(self.digits) if self.digits else None}


def _stderr_error(stderr):
    """Error type from the CLI's error JSON on stderr."""
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return "unknown"


def _declined(op, run):
    """Why the program gave no result."""
    if run["exc"] is not None:
        return f"untyped:{run['exc']}"
    if op.command == "verify" and run["code"] == 2:
        try:
            doc = json.loads(run["stdout"])
            return "verdict:" + ",".join(c["name"] for c in doc["checks"]
                                         if not c["passed"])
        except (ValueError, KeyError, TypeError):
            pass
    return f"exit{run['code']}:{_stderr_error(run['stderr'])}"


def classify(op, run):
    """Outcome of one executed op.  run carries code, exc, stdout and
    stderr as recorded by the harness."""
    out = Outcome(op.attempted)
    if run["exc"] is not None or run["code"] != 0:
        out.declined = op.attempted
        out.errors.append(_declined(op, run))
        return out
    try:
        CHECKS[op.command](op, run, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.ok = 0
        out.wrong = op.attempted - out.declined
        out.errors.append(f"check:unreadable output ({exc})")
    return out


def _member(spec):
    return oracle.Member(spec["family"], spec["m"], spec["alpha"], spec["n"],
                         spec.get("beta"))


def _zero_errors(member, zeros):
    """(relative, scaled) errors of computed zeros against the oracle."""
    rel, scaled = [], []
    for z in zeros:
        exact = member.refine(z)
        rel.append(oracle.rel_error(z, exact))
        scaled.append(abs(complex(z) - complex(exact))
                      / (1.0 + abs(complex(exact))))
    return rel, scaled


def _sample(xs):
    """Smallest, middle and largest entries of a sorted list."""
    if len(xs) <= 3:
        return list(xs)
    return [xs[0], xs[len(xs) // 2], xs[-1]]


def check_verify(op, run, out):
    doc = json.loads(run["stdout"])
    names = {c["name"] for c in doc["checks"]}
    expected = VERIFY_CHECKS[op.spec["family"]]
    if not doc["passed"] or names != expected:
        out.wrong = 1
        out.errors.append(f"check:verdict {doc['passed']} with checks "
                          f"{sorted(names)}")
        return
    out.ok = 1
    # laguerre1: the zero-sum identity sum(zeros) = (n-m)(n+m+alpha)
    zs = [c for c in doc["checks"] if c["name"] == "zero_sum"]
    s = op.spec
    if zs and s["n"] != s["m"]:
        with oracle.mp.workdps(oracle.DPS):
            rhs = (s["n"] - s["m"]) * (s["n"] + s["m"]
                                       + oracle.mp.mpf(s["alpha"]))
            out.digits.append(oracle.digits(
                oracle.rel_error(zs[0]["detail"]["lhs"], rhs)))


def check_zeros(op, run, out):
    doc = json.loads(run["stdout"])
    s = op.spec
    reg = doc["regular"]
    exc = [complex(re, im) for re, im in doc["exceptional"]]
    problems = []
    if len(reg) != s["n"] or len(exc) != s["m"]:
        problems.append(f"counts {len(reg)}/{len(exc)}")
    if not doc["certificate"]["passed"]:
        problems.append("certificate not passed")
    if np.any(np.diff(reg) <= 0):
        problems.append("regular zeros not increasing")
    if not problems:
        sample = _sample(reg) + [z if z.imag else z.real for z in exc]
        rel, scaled = _zero_errors(_member(s), sample)
        if max(scaled) > ZERO_TOL:
            problems.append(f"zero off the oracle by {max(scaled):.2e}")
        out.digits.append(oracle.digits(max(rel)))
    if problems:
        out.wrong = 1
        out.errors.append("check:" + "; ".join(problems))
        out.digits.clear()
    else:
        out.ok = 1


def check_fekete(op, run, out):
    doc = json.loads(run["stdout"])
    clusters = doc["clusters"]
    dev = doc["top_cluster_deviation_from_zeros"]
    if len(clusters) != 1 or dev is None or not dev < FEKETE_DEV_TOL:
        out.wrong = 1
        out.errors.append(f"check:{len(clusters)} clusters, deviation {dev}")
        return
    nodes = _sample(sorted(clusters[0]["nodes"]))
    rel, scaled = _zero_errors(_member(op.spec), nodes)
    if max(scaled) > FEKETE_DEV_TOL:
        out.wrong = 1
        out.errors.append(f"check:node off the oracle by {max(scaled):.2e}")
        return
    out.ok = 1
    out.digits.append(oracle.digits(max(rel)))


def _oracle_d(spec, n):
    """d_n from 40-digit zeros; find_zeros only supplies Newton seeds."""
    from xfekete import FamilySpec, find_zeros
    zs = find_zeros(FamilySpec("laguerre1", spec["m"], spec["alpha"], n))
    member = oracle.Member("laguerre1", spec["m"], spec["alpha"], n)
    reg = [member.refine(float(x)) for x in zs.regular]
    exc = [member.refine(float(z.real)) for z in zs.exceptional]
    return oracle.diameter(member, reg, exc)


def check_diameter(op, run, out):
    rows = list(csv.reader(io.StringIO(run["stdout"])))
    if rows[0] != ["n", "d", "delta", "rate_stat"]:
        raise ValueError(f"header {rows[0]}")
    got = {int(r[0]): [float(v) for v in r[1:]] for r in rows[1:]}
    summary_path = op.argv[op.argv.index("--summary") + 1]
    with open(summary_path) as fh:
        summary = json.load(fh)
    os.remove(summary_path)
    for n, reason in summary["skipped"]:
        if n in op.rows:
            out.errors.append(f"skipped n={n}: {reason.split(':')[0]}")
    rate = summary["rate_stat"]
    if not (math.isfinite(rate) and rate > 0
            and rate == np.nanmax([v[2] for v in got.values()])):
        out.wrong = op.attempted
        out.errors.append(f"check:rate_stat {rate} vs rows")
        return
    good = {n for n, v in got.items() if all(map(math.isfinite, v))}
    # the oracle covers the sweep's first and last rows
    for n in set(DIAMETER_RANGE) & good & set(op.rows):
        exact = _oracle_d(op.spec, n)
        d = got[n][0]
        if abs(d - float(exact)) / (1.0 + abs(float(exact))) > D_TOL:
            good.discard(n)
            out.errors.append(f"check:d_{n} off the oracle")
        else:
            out.digits.append(oracle.digits(oracle.rel_error(d, exact)))
    out.ok = len(good & set(op.rows))
    out.wrong = len((set(got) - good) & set(op.rows))
    out.declined = op.attempted - out.ok - out.wrong


CHECKS = {"verify": check_verify, "zeros": check_zeros,
          "fekete": check_fekete, "diameter": check_diameter}

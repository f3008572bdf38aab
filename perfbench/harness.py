"""Running ops in-process and turning their outcomes into metrics.

Times are reported in calibrated seconds.  The shared host this was
built on changes speed by up to 2x within a minute, and those swings hit
the ops and fixed calibration kernels alike.  Every op's wall time is
divided by the host's slowness (calibrate()) measured just before and
just after it, which reads as seconds on the reference machine (a quiet
2-core Xeon); set-up time is scaled the same way by a reference import.
Raw wall times are kept in the result file.
"""

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

SETUP_REPEATS = 7
# the calibration kernels' times on the reference machine
CAL_REF_S = {"recurrence": 0.0018, "interpreter": 0.0014}
CAL_EVERY_S = 0.5
# the reference imports' time on the reference machine
IMPORT_REF_S = 0.027

_CAL_X = np.linspace(0.1, 30.0, 200)


def _recurrence():
    """Three-term recurrences over a 200-point vector: the shape of the
    package's hot loops, without calling the package."""
    acc = 0.0
    for a in (0.5, 1.5, 2.5, 3.5):
        p0, p = np.ones_like(_CAL_X), 1.0 + a - _CAL_X
        for k in range(1, 120):
            p0, p = p, ((2 * k + 1 + a - _CAL_X) * p - (k + a) * p0) / (k + 1)
        acc += float(p[0])
    return acc


def _interpreter():
    """Plain interpreter work."""
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    return acc


def calibrate():
    """How much slower than the reference machine the host runs now: the
    geometric mean over the kernels of (best of three timings / reference
    time).  The two kernels slow down differently under different kinds
    of contention, and the package's ops sit between them."""
    ratio = 1.0
    for name, kernel in (("recurrence", _recurrence),
                         ("interpreter", _interpreter)):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        ratio *= best / CAL_REF_S[name]
    return ratio ** (1.0 / len(CAL_REF_S))


# Runs in a fresh interpreter: times the import and the parser, then a
# fixed set of standard-library imports the package does not use, which
# slow down with the host the way the package import does.
_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import xfekete.cli\n"
    "xfekete.cli.build_parser()\n"
    "wall = time.perf_counter() - t0\n"
    "t0 = time.perf_counter()\n"
    "import difflib, xml.dom.minidom, email.mime.multipart, http.client\n"
    "import tarfile, pprint, fractions\n"
    "print(wall, time.perf_counter() - t0)\n")


def setup_seconds(src, repeats=SETUP_REPEATS):
    """Median over fresh interpreters of the time to import xfekete (numpy
    included) and build the CLI parser, in calibrated seconds;
    interpreter start-up is excluded."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, src],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        wall, ref = map(float, proc.stdout.split()[-2:])
        times.append(wall * IMPORT_REF_S / ref)
    return statistics.median(times)


def run_op(cli, argv):
    """One call of cli.main with its output captured.  Exceptions that
    escape main (SystemExit included) are recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as e:
                exc = type(e).__name__
            wall = time.perf_counter() - t0
    return {"wall": wall, "code": code, "exc": exc,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": sum(issubclass(w.category, RuntimeWarning)
                            for w in caught)}


def run_ops(cli, ops, tracer=None):
    """Runs the ops in order, calibrating at least every CAL_EVERY_S; each
    run gets "cwall", its wall time in calibrated seconds."""
    runs = []
    cal, since = calibrate(), time.perf_counter()
    open_runs = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        run = run_op(cli, op.argv)
        run["slowness"] = cal
        runs.append(run)
        open_runs.append(run)
        if time.perf_counter() - since >= CAL_EVERY_S or op is ops[-1]:
            cal, since = calibrate(), time.perf_counter()
            for r in open_runs:
                r["slowness"] = (r["slowness"] + cal) / 2
                r["cwall"] = r["wall"] / r["slowness"]
            open_runs = []
    return runs


@contextlib.contextmanager
def quiet_fds(log_path):
    """Point file descriptors 1 and 2 at a log file, so that text native
    libraries write directly (LAPACK's XERBLA messages) stays off the
    result stream."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    with open(log_path, "ab") as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        try:
            yield
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(ops, runs, outcomes):
    """End-to-end figures of one set of executed ops.

    s_per_ok is the median over passes of (summed calibrated op time /
    ok units); failed_frac counts declined and wrong units over attempted
    ones; accuracy_digits is the minimum over ok ops that have an
    oracle."""
    passes = {}
    for op, run, oc in zip(ops, runs, outcomes):
        wall, ok = passes.get(op.pass_index, (0.0, 0))
        passes[op.pass_index] = (wall + run["cwall"], ok + oc.ok)
    per_pass = [w / k for w, k in passes.values() if k]
    total_wall = sum(w for w, _ in passes.values())
    attempted = sum(oc.attempted for oc in outcomes)
    ok = sum(oc.ok for oc in outcomes)
    wrong = sum(oc.wrong for oc in outcomes)
    digits = [d for oc in outcomes for d in oc.digits]
    return {
        "attempted": attempted, "ok": ok, "wrong": wrong,
        "failed": attempted - ok,
        "wall_s": total_wall,
        "raw_wall_s": sum(r["wall"] for r in runs),
        "s_per_ok": statistics.median(per_pass) if per_pass else total_wall,
        "ok_frac": ok / attempted,
        "failed_frac": (attempted - ok) / attempted,
        "accuracy_digits": min(digits) if digits else 0.0,
        "warnings_n": sum(r["warnings"] for r in runs),
    }


def failures(ops, outcomes):
    """One record per op that had a declined or wrong unit."""
    out = []
    for op, oc in zip(ops, outcomes):
        if oc.ok < oc.attempted:
            out.append({"op": op.id, "pass": op.pass_index,
                        "command": op.command, "spec": op.spec,
                        "failed_units": oc.attempted - oc.ok,
                        "errors": oc.errors})
    return out


def environment(root, workload, seed, seconds, trace):
    """Machine and run settings recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "commit": commit,
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "XF_THREADS")},
    }


def dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")

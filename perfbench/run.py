"""xfekete benchmark: drives xfekete.cli.main in-process over seeded
workloads and checks every output.

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 15
    python3 perfbench/run.py --seed 1          # every workload, one
                                               # process each, as a table

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics; with --trace 1 the same op list runs untraced and
then traced, and the metrics are the per-layer ones.  Run it from the
root of a source checkout; it imports the package from src/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Pinned before numpy loads: one BLAS thread, and the package's own
# thread pool left at its serial default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("XF_THREADS", None)

import harness  # noqa: E402  (numpy loads here, after the pinning)
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (("setup_s", "s"), ("s_per_ok", "s"), ("ok_frac", "ratio"),
              ("accuracy_digits", "digits"), ("peak_rss_mb", "MB"))


def _import_package():
    """Import xfekete from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "xfekete", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no package source at {init}; run from a "
                 f"source checkout")
    sys.path.insert(0, SRC)
    import xfekete.cli
    if os.path.realpath(xfekete.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported {xfekete.__file__}, not {init}")
    return xfekete.cli


def run_workload(workload, seed, seconds, trace):
    cli = _import_package()
    import checks
    import workloads
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    ops = workloads.make_ops(workload, seed, seconds, OUT)
    setup_s = harness.setup_seconds(SRC)
    with harness.quiet_fds(os.path.join(OUT, f"{tag}.log")):
        runs = harness.run_ops(cli, ops)
        rss = harness.peak_rss_mb()
        if trace:
            tr = tracer.Tracer()
            with tr:
                traced = harness.run_ops(cli, ops, tr)
    outcomes = [checks.classify(op, r) for op, r in zip(ops, runs)]
    summary = harness.summarize(ops, runs, outcomes)
    summary.update(setup_s=setup_s, peak_rss_mb=rss)
    # Wrong outputs count as failed ops, like declined ones; correct is
    # false only when the benchmark cannot vouch for its own checks.
    correct = True
    metrics = {name: {"value": summary[name], "unit": unit}
               for name, unit in END_TO_END}
    doc = {"environment": harness.environment(ROOT, workload, seed,
                                              seconds, trace),
           "summary": summary,
           "failures": harness.failures(ops, outcomes),
           "ops": [dict(op=op.id, spec=op.spec, wall=r["wall"],
                        cwall=r["cwall"], warnings=r["warnings"],
                        **oc.as_dict())
                   for op, r, oc in zip(ops, runs, outcomes)]}
    if trace:
        # tracing must not change any output
        same = all(a["stdout"] == b["stdout"] and a["code"] == b["code"]
                   for a, b in zip(runs, traced))
        correct = same
        layer = tracer.layer_metrics(tr.spans,
                                     sum(r["wall"] for r in traced))
        # span times are raw wall; report them in calibrated seconds
        scale = statistics.median(1.0 / r["slowness"] for r in traced)
        for name, (value, unit) in layer.items():
            if unit == "s":
                layer[name] = (value * scale, unit)
        layer["trace.overhead_frac"] = (
            sum(r["cwall"] for r in traced) / summary["wall_s"] - 1.0,
            "ratio")
        layer["failed_frac"] = (summary["failed_frac"], "ratio")
        layer["warnings_n"] = (summary["warnings_n"], "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        doc["per_layer"] = metrics
        doc["traced_outputs_identical"] = same
        tracer.write_spans(tr.spans, os.path.join(OUT, f"{tag}.spans.csv.gz"))
    harness.dump(os.path.join(OUT, f"{tag}.json"), doc)

    print(json.dumps({"environment": doc["environment"]}))
    for name in ("attempted", "ok", "failed", "failed_frac", "warnings_n"):
        print(f"{name:>18} {summary[name]}")
    for f in doc["failures"]:
        print(f"  FAILED {f['command']} {json.dumps(f['spec'])}: "
              f"{'; '.join(f['errors'])}")
    for name, m in metrics.items():
        print(f"{name:>40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace):
    """Every workload, each in its own process; prints a table."""
    _import_package()
    import workloads
    rows, code = [], 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], capture_output=True, text=True,
            timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
            continue
        rows.append((w, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for w, res in rows:
        print(f"== {w}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:<40} {m['value']:.6g} {m['unit']}")
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

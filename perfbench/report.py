"""Summarize the result files of repeated runs.

    python3 perfbench/report.py                  # medians and spreads
    python3 perfbench/report.py --baseline FILE  # also write them, with
                                                 # the lowest seed's
                                                 # failing ops and
                                                 # per-layer figures

Reads perfbench/out/<workload>-seed<n>-trace<t>.json.  For each workload
and end-to-end metric it prints the median over seeds and the spread
(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4).
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
METRICS = ("setup_s", "s_per_ok", "ok_frac", "accuracy_digits",
           "peak_rss_mb", "failed_frac", "warnings_n")


def load(out_dir, trace=0):
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir,
                                              f"*-trace{trace}.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        env = doc["environment"]
        runs.setdefault(env["workload"], []).append(doc)
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)
    table = {}
    traced = load(args.out, trace=1)
    for workload, docs in sorted(load(args.out).items()):
        seeds = sorted(d["environment"]["seed"] for d in docs)
        print(f"{workload}: {len(docs)} runs, seeds {seeds}")
        rows = {}
        for name in METRICS:
            values = [d["summary"][name] for d in docs]
            med, spr = spread(values)
            rows[name] = {"median": med, "spread": spr}
            print(f"  {name:<16} median {med:<12.6g} spread {spr:.3f}")
        first = min(docs, key=lambda d: d["environment"]["seed"])
        table[workload] = {
            "runs": len(docs), "seeds": seeds, "metrics": rows,
            "environment": first["environment"],
            "failing_ops_seed": first["environment"]["seed"],
            "failing_ops": [{"spec": f["spec"], "errors": f["errors"]}
                            for f in first["failures"]]}
        if workload in traced:
            t = min(traced[workload], key=lambda d: d["environment"]["seed"])
            table[workload]["per_layer_seed"] = t["environment"]["seed"]
            table[workload]["per_layer"] = {
                k: v["value"] for k, v in t["per_layer"].items()}
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

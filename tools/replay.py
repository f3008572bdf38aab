"""Byte replay of the benchmark's op lists through xfekete.cli.main.

    python tools/replay.py                        # this checkout
    python tools/replay.py --tree OTHER --record other.json
    python tools/replay.py --against other.json   # list the ops that differ

Runs the seed-1 and seed-2 op lists of every workload
(perfbench.workloads.make_ops(workload, seed, 15), imported read-only from
the tree's perfbench/) through cli.main in one process, with the tree's
package imported from its src/.  RuntimeWarning, DeprecationWarning and
FutureWarning are raised as errors.  Each op is hashed (sha256) over its
argv, exit code, stdout, stderr and the bytes of its diameter summary
file; the summaries go to a temporary directory, whose name is replaced
by a fixed token before hashing, so that two trees' records compare.
Prints one digest per (seed, workload) set.

With --record the per-op hashes are written as JSON; with --against the
ops whose hash differs from that record are listed.  Replay one tree at a
time: two runs that share a summary directory race on its files.  No
digest is checked in, since numpy's rounding may differ between hosts:
compare two trees on one host.

Exits 1 on an untyped exception, one that escapes cli.main (a leaked
warning is one), or on an op that differs from the --against record.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

# as perfbench/run.py: one BLAS thread, and the package's own thread
# pool at its serial default, pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("XF_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
SECONDS = 15
# the token that stands for the summary directory in every hashed byte
OUT_TOKEN = "<out>"


def _import(tree):
    """(cli, workloads) of the checkout at tree, and nowhere else."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import workloads
    import xfekete.cli
    init = os.path.join(src, "xfekete", "__init__.py")
    if os.path.realpath(xfekete.__file__) != os.path.realpath(init):
        sys.exit(f"replay: imported {xfekete.__file__}, not {init}")
    return xfekete.cli, workloads


def _run(cli, argv):
    """(exit code or the escaped exception's name, stdout, stderr) of one
    call of cli.main, the three warning classes raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        for cat in (RuntimeWarning, DeprecationWarning, FutureWarning):
            warnings.simplefilter("error", cat)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"untyped {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def replay(tree):
    """{"digests": {"seed/workload": sha256}, "ops": [...]}, and the
    untyped failures as (key, argv, what)."""
    cli, workloads = _import(tree)
    record, failures = {"digests": {}, "ops": []}, []
    with tempfile.TemporaryDirectory() as out:
        for seed in SEEDS:
            for w in workloads.WORKLOADS:
                key = f"{seed}/{w}"
                digest = hashlib.sha256()
                for op in workloads.make_ops(w, seed, SECONDS, out):
                    code, stdout, stderr = _run(cli, op.argv)
                    summary = None
                    if "--summary" in op.argv:
                        path = op.argv[op.argv.index("--summary") + 1]
                        with contextlib.suppress(FileNotFoundError):
                            with open(path) as fh:
                                summary = fh.read()
                            os.remove(path)
                    doc = json.dumps([op.argv, code, stdout, stderr, summary])
                    argv = " ".join(op.argv).replace(out, OUT_TOKEN)
                    h = hashlib.sha256(
                        doc.replace(out, OUT_TOKEN).encode()).hexdigest()
                    digest.update(h.encode())
                    record["ops"].append({"set": key, "id": op.id,
                                          "argv": argv, "sha256": h})
                    if isinstance(code, str):
                        failures.append((key, argv, code))
                record["digests"][key] = digest.hexdigest()
    return record, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="source checkout to replay (default: this one)")
    ap.add_argument("--record", help="write the per-op hashes to this file")
    ap.add_argument("--against",
                    help="a --record of another tree; list the ops that "
                         "differ from it")
    args = ap.parse_args(argv)
    record, failures = replay(os.path.abspath(args.tree))
    for key, digest in record["digests"].items():
        n = sum(op["set"] == key for op in record["ops"])
        print(f"{key}: {n} ops {digest}")
    for key, argv, what in failures:
        print(f"UNTYPED {key} {argv}: {what}")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    differ = []
    if args.against:
        with open(args.against) as fh:
            other = {(op["set"], op["id"]): op for op in json.load(fh)["ops"]}
        differ = [op for op in record["ops"]
                  if other.pop((op["set"], op["id"]), {}).get("sha256")
                  != op["sha256"]]
        # and the ops that only the other tree ran
        differ += other.values()
        for op in differ:
            print(f"DIFFERS {op['set']} op {op['id']}: {op['argv']}")
        print(f"{len(differ)} of {len(record['ops'])} ops differ")
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main())

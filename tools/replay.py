"""Byte replay of the benchmark's op lists through xfekete.cli.main.

    python tools/replay.py                        # this checkout
    python tools/replay.py --tree OTHER --record other.json
    python tools/replay.py --against other.json   # list the ops that differ
    python tools/replay.py --against other.json --oracle

Runs the seed-1 and seed-2 op lists of every workload
(perfbench.workloads.make_ops(workload, seed, 15), imported read-only from
the tree's perfbench/) through cli.main in one process, with the tree's
package imported from its src/.  RuntimeWarning, DeprecationWarning and
FutureWarning are raised as errors.  Each op is hashed (sha256) over its
argv, exit code, stdout, stderr and the bytes of its diameter summary
file; the summaries go to a temporary directory, whose name is replaced
by a fixed token before hashing, so that two trees' records compare.
Prints one digest per (seed, workload) set.

With --record the per-op hashes, exit codes and printed output are
written as JSON; with --against the ops whose hash differs from that
record are listed, each with the largest relative change,
|b - a| / max(|a|, |b|), of every numeric field of its output that
changed (a JSON document's numeric leaves by path, a list of numbers as
one field; a CSV table's columns).  With --oracle as well, the printed
zeros of every differing zeros op are held on both sides to the 40-digit
oracle (perfbench/oracle.py, Member.refine): the three smallest, the
middle and the two largest regular zeros, and every exceptional zero;
the median and worst digits (capped at rounding level) and relative
errors (uncapped) are printed per family for each side.
Replay one tree at a time: two runs that share a summary directory race
on its files.  No digest is checked in, since numpy's rounding may
differ between hosts: compare two trees on one host.

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

# as perfbench/run.py: one BLAS thread, pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
                    record["ops"].append({
                        "set": key, "id": op.id, "argv": argv, "sha256": h,
                        "spec": op.spec, "code": code, "stdout": stdout,
                        "stderr": stderr})
                    if isinstance(code, str):
                        failures.append((key, argv, code))
                record["digests"][key] = digest.hexdigest()
    return record, failures


def _numbers(node):
    """The numbers of a (nested) list of numbers, flat; None otherwise."""
    if isinstance(node, bool):
        return None
    if isinstance(node, (int, float)):
        return [float(node)]
    if not isinstance(node, list):
        return None
    out = []
    for v in node:
        nums = _numbers(v)
        if nums is None:
            return None
        out += nums
    return out


def _fields(stdout):
    """{field: numbers} of an op's printed output: a JSON document's
    numeric leaves by path, a list of numbers (or of [re, im] pairs) as
    one field; else a CSV table's columns by its header."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        lines = stdout.splitlines()
        if not lines or "," not in lines[0]:
            return {}
        head = lines[0].split(",")
        cols = {h: [] for h in head}
        for line in lines[1:]:
            for h, v in zip(head, line.split(",")):
                with contextlib.suppress(ValueError):
                    cols[h].append(float(v))
        return cols
    out = {}

    def walk(node, path):
        nums = _numbers(node)
        if nums is not None:
            out[path] = nums
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(doc, "")
    return out


def _changes(old, new):
    """'field change; ...' over the numeric fields of two ops' outputs
    that differ: the largest |b - a| / max(|a|, |b|) of a field, or its
    lengths where they differ; the exit codes and stderr where those
    differ."""
    parts = []
    if old["code"] != new["code"]:
        parts.append(f"exit {old['code']} -> {new['code']}")
    if old["stderr"] != new["stderr"]:
        parts.append("stderr differs")
    a, b = _fields(old["stdout"]), _fields(new["stdout"])
    for field in dict.fromkeys([*a, *b]):
        u, v = a.get(field, []), b.get(field, [])
        if len(u) != len(v):
            parts.append(f"{field} length {len(u)} -> {len(v)}")
            continue
        rel = max((abs(y - x) / max(abs(x), abs(y))
                   for x, y in zip(u, v) if x != y), default=0.0)
        if rel:
            parts.append(f"{field} {rel:.2e}")
    return "; ".join(parts)


def _sampled_zeros(stdout):
    """The zeros a zeros op prints that the oracle checks: the three
    smallest, the middle and the two largest regular zeros, and every
    exceptional zero (complex where its imaginary part is not 0); None
    for an output that lists no zeros."""
    try:
        doc = json.loads(stdout)
        reg, exc = doc["regular"], doc["exceptional"]
    except (ValueError, KeyError):
        return None
    picks = {0, 1, 2, len(reg) // 2, len(reg) - 2, len(reg) - 1}
    return ([reg[i] for i in sorted(picks) if 0 <= i < len(reg)]
            + [complex(re, im) if im else re for re, im in exc])


def _oracle(pairs, tree):
    """Per family, the median and worst oracle digits and relative errors
    of the sampled zeros of each side of the ops pairs [(other, mine)]
    whose outputs both list zeros; each zero is refined from this tree's
    value.  The digits are capped at rounding level (oracle.DIGITS_CAP),
    the errors are not."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import oracle
    errors = {}
    for old, new in pairs:
        zs = [_sampled_zeros(old["stdout"]), _sampled_zeros(new["stdout"])]
        if None in zs or len(zs[0]) != len(zs[1]):
            continue
        spec = new["spec"]
        member = oracle.Member(spec["family"], spec["m"], spec["alpha"],
                               spec["n"], spec.get("beta"))
        rows = errors.setdefault(spec["family"], ([], []))
        for theirs, mine in zip(*zs):
            exact = member.refine(mine)
            for row, z in zip(rows, (theirs, mine)):
                row.append(oracle.rel_error(z, exact))
    for family, sides in sorted(errors.items()):
        theirs, mine = (sorted(e) for e in sides)
        told = []
        for errs in (mine, theirs):
            med, worst = errs[len(errs) // 2], errs[-1]
            told.append(f"median {oracle.digits(med):.2f} worst "
                        f"{oracle.digits(worst):.2f} digits, errors "
                        f"{med:.3g} and {worst:.3g}")
        print(f"ORACLE {family}: {len(mine)} zeros; {told[0]} here, "
              f"{told[1]} in the record")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="source checkout to replay (default: this one)")
    ap.add_argument("--record", help="write the per-op hashes to this file")
    ap.add_argument("--against",
                    help="a --record of another tree; list the ops that "
                         "differ from it")
    ap.add_argument("--oracle", action="store_true",
                    help="with --against: hold both sides' printed zeros "
                         "of the differing ops to the 40-digit oracle")
    args = ap.parse_args(argv)
    if args.oracle and not args.against:
        ap.error("--oracle needs --against")
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
        pairs = []
        for op in record["ops"]:
            old = other.pop((op["set"], op["id"]), {})
            if old.get("sha256") != op["sha256"]:
                differ.append(op)
                print(f"DIFFERS {op['set']} op {op['id']}: {op['argv']}")
                if "stdout" in old:
                    pairs.append((old, op))
                    print(f"    {_changes(old, op)}")
        # and the ops that only the other tree ran
        differ += other.values()
        for op in other.values():
            print(f"DIFFERS {op['set']} op {op['id']}: {op['argv']} "
                  f"(only in the record)")
        print(f"{len(differ)} of {len(record['ops'])} ops differ")
        if args.oracle:
            _oracle(pairs, os.path.abspath(args.tree))
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main())

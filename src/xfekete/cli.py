"""Command-line driver.

Every subcommand prints one JSON document (CSV for the diameter sweep)
built only from the selector arguments and the seed, so identical
invocations give byte-identical output: floats are serialized with 17
significant digits and keys are sorted.  Validation problems exit 1,
numerical failures exit 2, both with an error JSON on stderr.
"""

import argparse
import functools
import math
import sys
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import __version__
from .asymptotics import d_sequence, zero_sum_check
from .energy import WeightSpec, energy_hessian, v_weight
from .errors import NumericalError, ValidationError, XFeketeError
from .exceptional import (FAMILIES, FamilySpec, build_exceptional,
                          leading_coefficient)
from .fekete_opt import default_domain, uniqueness_probe
from .interp import stability_scan
from .roots import CERT_TOL, check_interlacing, find_zeros


def _dumps(obj):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{_dumps(str(k))}:{_dumps(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, complex):
        return _dumps([obj.real, obj.imag])
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return _dumps(obj.tolist())     # its scalar
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        # a real float array, each row in one join: the bytes of its list
        if obj.ndim > 1:
            return "[" + ",".join(_dumps(row) for row in obj) + "]"
        return "[" + ",".join([format(x, ".17g") if math.isfinite(x)
                               else "null" for x in obj.tolist()]) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        return "[" + ",".join(_dumps(v) for v in seq) + "]"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload, spec):
    doc = {"version": __version__, "spec": spec.as_dict()}
    doc.update(payload)
    print(_dumps(doc))


def _spec_from(args):
    return FamilySpec(args.family, args.m, args.alpha, args.n, args.beta)


def cmd_poly(args):
    spec = _spec_from(args)
    built = build_exceptional(spec)
    _emit({"coefficients": built.coeffs,
           "residual": built.residual,
           "leading_coefficient": float(built.coeffs[-1]),
           "leading_expected": leading_coefficient(spec),
           "warnings": list(built.warnings)}, spec)
    return 0


def cmd_zeros(args):
    spec = _spec_from(args)
    zs = find_zeros(spec)
    _emit({"regular": zs.regular,
           "exceptional": zs.exceptional, "s_zeros": zs.s_zeros,
           "certificate": zs.certificate,
           "interlacing": check_interlacing(zs)}, spec)
    return 0


def cmd_energy(args):
    spec = _spec_from(args)
    zs = find_zeros(spec)
    if args.weight == "v":
        w = v_weight(zs)
    else:
        w = WeightSpec(spec)
    if args.nodes is not None:
        try:
            with warnings.catch_warnings():
                # an empty file is a warning to loadtxt, an error here
                warnings.simplefilter("error", UserWarning)
                nodes = np.atleast_1d(np.loadtxt(args.nodes, dtype=float))
        except (OSError, ValueError, UserWarning) as exc:
            raise ValidationError(f"--nodes {args.nodes}: {exc}") from exc
        nodes_used = "file"
    elif args.weight == "hat" and (zs.exceptional.size == 0
                                   or np.max(np.abs(zs.exceptional.imag))
                                   < 1e-12):
        nodes = np.sort(np.concatenate([zs.exceptional.real, zs.regular]))
        nodes_used = "full zero set"
    else:
        nodes = zs.regular
        nodes_used = "regular zeros"
    rep = energy_hessian(nodes, w)
    _emit({"weight": {"variant": args.weight, "shift": 1.0},
           "nodes": rep.nodes, "nodes_used": nodes_used,
           "logT": rep.logT, "gradient": rep.gradient,
           "hessian": rep.hessian,
           "diag_signs": rep.diag_signs,
           "stationary": rep.stationary,
           "diagonally_dominant": rep.diagonally_dominant,
           "block_dominant": rep.block_dominant,
           "classification": rep.classification}, spec)
    return 0


def cmd_fekete(args):
    spec = _spec_from(args)
    zs = find_zeros(spec)
    w = v_weight(zs)
    domain = default_domain(w, spec.n)
    probe = uniqueness_probe(w, domain, spec.n, trials=args.trials,
                             seed=args.seed)
    clusters = probe["clusters"]
    if clusters:
        dev = float(np.max(np.abs(clusters[0]["nodes"] - zs.regular)))
    else:
        dev = None
    _emit({"domain": list(domain), "seed": args.seed,
           "trials": probe["trials"], "converged": probe["converged"],
           "failed": probe["failed"], "clusters": clusters,
           "top_cluster_deviation_from_zeros": dev}, spec)
    return 0


def cmd_interp(args):
    zs = find_zeros(_spec_from(args))
    _emit({"stability": stability_scan(zs, grid_size=args.grid)}, zs.spec)
    return 0


def cmd_diameter(args):
    series = d_sequence(args.m, args.alpha,
                        range(args.n_from, args.n_to + 1), c=args.c)
    print("n,d,delta,rate_stat")
    for row in zip(series.n_values, series.d, series.deltas,
                   series.rate_stats):
        print("{},{:.17g},{:.17g},{:.17g}".format(*row))
    if args.summary:
        doc = {"version": __version__, "m": args.m, "alpha": args.alpha,
               "c": args.c, "rate_stat": series.rate_stat,
               "rows": int(series.n_values.size),
               "skipped": [list(s) for s in series.skipped],
               "ps_ratio_max": series.ps_ratio_max}
        try:
            with open(args.summary, "w") as fh:
                fh.write(_dumps(doc) + "\n")
        except OSError as exc:
            raise ValidationError(f"--summary {args.summary}: {exc}") from exc
    return 0


def _max_log_excess(coeffs, zs):
    """Largest log(|p(r)| / (1e-10 max|c| max(1,|r|)^deg)) over the zeros
    r of zs, p the polynomial of the coefficients c: at most 0 where the
    built coefficients vanish at the certified zeros."""
    roots = np.concatenate([zs.exceptional, zs.regular.astype(complex)])
    pv = npoly.polyval(roots, coeffs.astype(complex))
    with np.errstate(divide="ignore"):
        logp = np.log(np.abs(pv))
    logbound = (np.log(CERT_TOL) + np.log(np.max(np.abs(coeffs)))
                + (len(coeffs) - 1) * np.log(np.maximum(1.0, np.abs(roots))))
    return float(np.max(logp - logbound)) if roots.size else -np.inf


def _attempt(fn, spec):
    """(fn(spec), None), or (None, message) of the NumericalError it
    raises."""
    try:
        return fn(spec), None
    except NumericalError as exc:
        return None, str(exc)


def cmd_verify(args):
    spec = _spec_from(args)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    built, built_failure = _attempt(build_exceptional, spec)
    zs, zeros_failure = _attempt(find_zeros, spec)
    if built is None:
        record("construction", False, built_failure)
    else:
        # the two representations agree: the coefficients vanish at the
        # zeros the evaluator certified, where it certified any
        ok = built.residual < 1e-8
        detail = {"residual": built.residual}
        if zs is not None:
            detail["max_log_excess"] = _max_log_excess(built.coeffs, zs)
            ok = ok and detail["max_log_excess"] <= 0.0
        record("construction", ok, detail)
    if zs is None:
        record("zeros", False, zeros_failure)
    else:
        record("zeros", zs.certificate["passed"], zs.certificate)
    if zs is not None and spec.family == "laguerre1":
        rep = check_interlacing(zs)
        record("interlacing", rep["passed"], {"mode": rep["mode"]})
        if spec.m >= 1 and spec.n >= 1:
            full = np.sort(np.concatenate([zs.exceptional.real,
                                           zs.regular]))
            er = energy_hessian(full, WeightSpec(spec))
            record("saddle", er.classification == "saddle",
                   {"classification": er.classification,
                    "max_gradient": float(np.max(np.abs(er.gradient)))})
        zr = zero_sum_check(zs)
        record("zero_sum", zr.abs_err < 1e-6 * max(1.0, abs(zr.rhs)),
               {"lhs": zr.lhs, "rhs": zr.rhs, "abs_err": zr.abs_err})
        if spec.n >= 2:
            scan = stability_scan(zs)
            record("stability", scan["passed"],
                   {"max": scan["max"], "min": scan["min"]})
    if zs is not None and spec.n >= 1:
        er = energy_hessian(zs.regular, v_weight(zs))
        record("fekete_stationary", er.stationary,
               {"max_gradient": float(np.max(np.abs(er.gradient))),
                "diag_all_negative": bool(np.all(er.diag_signs < 0))})
    passed = all(c["passed"] for c in checks)
    _emit({"checks": checks, "passed": passed}, spec)
    return 0 if passed else 2


def _add_selectors(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n", type=int, required=True)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="xfekete",
        description="Exceptional-polynomial zeros, weighted log-energy "
                    "and stability reports")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poly", help="monomial coefficients of a member")
    _add_selectors(p)

    p = sub.add_parser("zeros", help="regular and exceptional zeros")
    _add_selectors(p)

    p = sub.add_parser("energy", help="gradient/Hessian report at nodes")
    _add_selectors(p)
    p.add_argument("--weight", choices=["hat", "v"], default="hat")
    p.add_argument("--nodes", default=None,
                   help="file with one node per line (default: the zeros)")

    p = sub.add_parser("fekete", help="multistart energy maximization")
    _add_selectors(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("interp", help="Gruenwald stability scan")
    _add_selectors(p)
    p.add_argument("--grid", type=int, default=1000)

    p = sub.add_parser("diameter", help="transfinite-diameter sweep (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--summary", default=None,
                   help="write a JSON summary to this path")

    p = sub.add_parser("verify", help="acceptance bundle for one spec")
    _add_selectors(p)
    return ap


@functools.cache
def _parser():
    """The parser, built once; parse_args does not mutate it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # the subcommand's function is looked up per call, not stored in the
    # shared parser, so main always runs the module's current cmd_*
    fn = globals()[f"cmd_{args.cmd}"]
    try:
        return fn(args)
    except XFeketeError as exc:
        sys.stderr.write(_dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of the package's public functions, from outside the package.

Tracer.install() replaces every public function of each traced module by
a timing wrapper, both in the module that defines it (so calls inside the
module go through the wrapper) and at every import site in the package.
Each call records a span: label, start, end, parent span, op id, whether
it raised, and a small per-function detail.  Spans stay in memory;
uninstall() puts every original function back.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "xfekete"
LAYERS = ("classical_poly", "exceptional", "roots", "energy", "fekete_opt",
          "interp", "asymptotics", "cli")

# span fields
LABEL, START, END, PARENT, OP, RAISED, DETAIL = range(7)


def _detail_of(label):
    """Extractor (args, kwargs, result) -> detail kept on the span."""
    if label == "exceptional.exceptional_eval":
        return lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["x"]))
    if label == "roots.find_zeros":
        return lambda a, k, r: a[0] if a else k["spec"]
    if label == "interp.stability_scan":
        return lambda a, k, r: r["points"] if r is not None else 0
    return None


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack
        detail = _detail_of(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if detail is not None:
                    span[DETAIL] = detail(args, kwargs, result)

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        sites = [m for name, m in sorted(sys.modules.items())
                 if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return self

    def uninstall(self):
        while self._saved:
            mod, name, obj = self._saved.pop()
            setattr(mod, name, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Self time of each span: its duration minus the time its child spans
    cover.  Calls are single-threaded, so children of one span are
    disjoint and their durations add up to the covered time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _under(spans, label):
    """Per span: True when some ancestor carries the given label.
    Parents are appended before their children."""
    flag = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            flag[i] = flag[p] or spans[p][LABEL] == label
    return flag


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_wall_s):
    """Per-layer metrics from the spans of one traced run.  op_wall_s is
    the summed wall time of the traced ops; ratios with no calls behind
    them read 0."""
    selfs = self_times(spans)
    calls, self_s, raised = {}, {}, {}
    for s, t in zip(spans, selfs):
        lab = s[LABEL]
        calls[lab] = calls.get(lab, 0) + 1
        self_s[lab] = self_s.get(lab, 0.0) + t
        raised[lab] = raised.get(lab, 0) + s[RAISED]

    def n(*labels):
        return sum(calls.get(x, 0) for x in labels)

    def t(*labels):
        return sum(self_s.get(x, 0.0) for x in labels)

    recurrence = ("classical_poly.laguerre_eval", "classical_poly.jacobi_eval",
                  "classical_poly.laguerre_eval_deriv",
                  "classical_poly.jacobi_eval_deriv")
    in_find = _under(spans, "roots.find_zeros")
    in_max = _under(spans, "fekete_opt.maximize_log_T")
    finds = n("roots.find_zeros")
    runs = n("fekete_opt.maximize_log_T")
    iters = sum(1 for s, f in zip(spans, in_max)
                if f and s[LABEL] == "energy.gradient_and_hessian")
    specs = {s[DETAIL] for s in spans if s[LABEL] == "roots.find_zeros"}
    out = {
        "classical_poly.recurrence.calls": (n(*recurrence), "count"),
        "classical_poly.recurrence.self_s": (t(*recurrence), "s"),
        "classical_poly.gauss_zeros.self_s": (
            t("classical_poly.laguerre_zeros", "classical_poly.jacobi_zeros"),
            "s"),
        "classical_poly.coeffs.calls": (
            n("classical_poly.laguerre_coeffs",
              "classical_poly.jacobi_coeffs"), "count"),
        "exceptional.exceptional_eval.calls": (
            n("exceptional.exceptional_eval"), "count"),
        "exceptional.exceptional_eval.points": (
            sum(s[DETAIL] for s in spans
                if s[LABEL] == "exceptional.exceptional_eval"), "count"),
        "exceptional.exceptional_eval.self_s": (
            t("exceptional.exceptional_eval"), "s"),
        "exceptional.build_exceptional.calls": (
            n("exceptional.build_exceptional"), "count"),
        "exceptional.build_exceptional.self_s": (
            t("exceptional.build_exceptional"), "s"),
        "exceptional.build_S.calls": (n("exceptional.build_S"), "count"),
        "roots.find_zeros.calls": (finds, "count"),
        "roots.find_zeros.self_s": (t("roots.find_zeros"), "s"),
        "roots.find_zeros.failed": (raised.get("roots.find_zeros", 0),
                                    "count"),
        "roots.find_zeros.per_spec": (_ratio(finds, len(specs)), "ratio"),
        "roots.eval_calls_per_find": (_ratio(
            sum(1 for s, f in zip(spans, in_find)
                if f and s[LABEL] == "exceptional.exceptional_eval"),
            finds), "ratio"),
        "roots.build_calls_per_find": (_ratio(
            sum(1 for s, f in zip(spans, in_find)
                if f and s[LABEL] == "exceptional.build_exceptional"),
            finds), "ratio"),
        "energy.gradient_and_hessian.calls": (
            n("energy.gradient_and_hessian"), "count"),
        "energy.gradient_and_hessian.self_s": (
            t("energy.gradient_and_hessian"), "s"),
        "energy.log_energy.calls": (n("energy.log_energy"), "count"),
        "energy.log_energy.self_s": (t("energy.log_energy"), "s"),
        "energy.weight_logs.calls": (n("energy.weight_logs"), "count"),
        "energy.weight_logs.self_s": (t("energy.weight_logs"), "s"),
        "fekete_opt.maximize_log_T.calls": (runs, "count"),
        "fekete_opt.maximize_log_T.self_s": (
            t("fekete_opt.maximize_log_T"), "s"),
        "fekete_opt.iterations_per_run": (_ratio(iters, runs), "ratio"),
        "fekete_opt.log_energy_per_iteration": (_ratio(
            sum(1 for s, f in zip(spans, in_max)
                if f and s[LABEL] == "energy.log_energy"), iters), "ratio"),
        "fekete_opt.converged_frac": (_ratio(
            runs - raised.get("fekete_opt.maximize_log_T", 0), runs),
            "ratio"),
        "interp.stability_scan.self_s": (t("interp.stability_scan"), "s"),
        "interp.grid_points": (
            sum(s[DETAIL] for s in spans
                if s[LABEL] == "interp.stability_scan"), "count"),
        "asymptotics.zero_sum_check.self_s": (
            t("asymptotics.zero_sum_check"), "s"),
        "asymptotics.d_sequence.self_s": (t("asymptotics.d_sequence"), "s"),
        "cli.main.self_s": (t("cli.main"), "s"),
        "cli.untyped_errors": (raised.get("cli.main", 0), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    out["trace.unattributed_frac"] = (
        _ratio(op_wall_s - sum(selfs), op_wall_s), "ratio")
    return out


def write_spans(spans, path):
    """Spans as gzipped CSV: id,label,start,end,parent,op,raised."""
    with gzip.open(path, "wt") as fh:
        fh.write("id,label,start,end,parent,op,raised\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[LABEL]},{s[START]:.9f},{s[END]:.9f},"
                     f"{s[PARENT]},{s[OP]},{int(s[RAISED])}\n")

"""Seeded workload generators.

A workload is a list of CLI invocations (ops).  The family x m x n grid of
each workload is fixed; the seed only chooses the in-regime parameters of
each grid cell and the fekete trial seeds.  A run repeats the grid in
passes, each pass with fresh parameter draws, and the number of passes
follows from the run length, so the op list depends on (workload, seed,
seconds) alone and never on how fast the program is.

Parameters are drawn inside each family's in-regime range, which is where
FamilySpec.regime_warnings() is empty.  A draw is rejected only for being
out of regime, never because the program fails on it.
"""

from dataclasses import dataclass, field
import zlib

import numpy as np

from xfekete.exceptional import FamilySpec

WORKLOADS = ("verify_mix", "diameter_sweep", "fekete_probe",
             "zeros_large_n")

# Wall time of one pass at the parent commit on a 2-core Xeon, used only
# to turn --seconds into a pass count.
NOMINAL_PASS_S = {"verify_mix": 2.7, "diameter_sweep": 17.5,
                  "fekete_probe": 1.6, "zeros_large_n": 12.1}

VERIFY_GRID = {"families": {"laguerre1": (1, 2, 3), "laguerre2": (1, 2, 3),
                            "jacobi": (1, 2)},
               "n": (5, 20, 60, 120)}
DIAMETER_RANGE = (10, 150)
# The sweep runs as consecutive calls of ten rows (the last one eleven)
# so the harness can calibrate between them; every row and delta equals
# the single call's, at the cost of one extra member per call.
DIAMETER_CHUNK = 10
FEKETE_GRID = {"families": ("laguerre1", "laguerre2", "jacobi"), "m": 1,
               "n": (10, 20, 40), "trials": 20}
# n = 1000 is left out: its eight ops take 2-5 s each at the parent
# commit (all NonConvergence), about 24 s a pass, more than a whole run;
# n = 400 already takes the evaluator certificate and the failure paths.
ZEROS_GRID = {"families": {"laguerre1": (1, 3, 5), "laguerre2": (1, 3, 5),
                           "jacobi": (1, 3)},
              "n": (20, 80, 200, 400)}


@dataclass
class Op:
    """One CLI invocation.  rows lists the n values a diameter op must
    produce (each row counts as one op); other commands produce one."""

    id: int
    pass_index: int
    command: str
    spec: dict
    argv: list
    rows: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.rows) if self.rows else 1


# alpha ranges: the regime edge from FamilySpec.regime_warnings() plus
# 0.25, up to a few units beyond it; jacobi uses its beta > 0 branch
RANGES = {"laguerre1": lambda m: (0.25, 5.0),
          "laguerre2": lambda m: (m - 0.75, m + 4.0),
          "jacobi": lambda m: (m - 0.75, m + 3.0)}
BETA_RANGE = (0.25, 3.0)


def quantiles(rng, row, k):
    """Quantiles in [0, 1) for the cells of one (family, m) row over k
    passes: {(cell, pass): u}.  Each cell visits each of the k slices
    [i/k, (i+1)/k) once over the passes, and within one pass the row's
    J cells fall in distinct sub-slices of width 1/(k J).  A run thus
    covers the in-regime range evenly along both the passes and n."""
    J = len(row)
    sigma = {cell: rng.permutation(k) for cell in row}
    tau = [rng.permutation(J) for _ in range(k)]
    return {(cell, p): (sigma[cell][p] + (tau[p][j] + rng.uniform()) / J) / k
            for j, cell in enumerate(row) for p in range(k)}


def params(rng, family, m, ua, ub):
    """(alpha, beta) at quantiles ua, ub of the family's in-regime range,
    rounded to three decimals; beta is None outside jacobi.  A draw that
    rounds onto an excluded (degenerate) point is redrawn uniformly."""
    lo, hi = RANGES[family](m)
    while True:
        alpha = round(float(lo + (hi - lo) * ua), 3)
        beta = None
        if family == "jacobi":
            beta = round(float(BETA_RANGE[0] + (BETA_RANGE[1] - BETA_RANGE[0])
                               * ub), 3)
        if not FamilySpec(family, m, alpha, 1, beta).regime_warnings():
            return alpha, beta
        ua = rng.uniform()


def _selector(family, m, alpha, n, beta):
    argv = ["--family", family, "--m", str(m), "--alpha", repr(alpha),
            "--n", str(n)]
    if beta is not None:
        argv += ["--beta", repr(beta)]
    spec = {"family": family, "m": m, "alpha": alpha, "n": n}
    if beta is not None:
        spec["beta"] = beta
    return argv, spec


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _cells(workload):
    """(command, family, m, n) of one pass, in run order; the diameter
    sweep is one cell with n = (first, last)."""
    if workload == "verify_mix":
        return [("verify", f, m, n)
                for f, ms in VERIFY_GRID["families"].items()
                for m in ms for n in VERIFY_GRID["n"]]
    if workload == "diameter_sweep":
        return [("diameter", "laguerre1", 1, DIAMETER_RANGE)]
    if workload == "fekete_probe":
        return [("fekete", f, FEKETE_GRID["m"], n)
                for f in FEKETE_GRID["families"] for n in FEKETE_GRID["n"]]
    return [("zeros", f, m, n) for f, ms in ZEROS_GRID["families"].items()
            for m in ms for n in ZEROS_GRID["n"]]


def _chunks(lo, hi):
    """[lo, hi] in runs of DIAMETER_CHUNK rows, the last one taking the
    remainder."""
    starts = list(range(lo, hi - DIAMETER_CHUNK + 2, DIAMETER_CHUNK))
    return [(a, b - 1) for a, b in zip(starts, starts[1:] + [hi + 1])]


def make_ops(workload, seed, seconds, out_dir="."):
    """The op list of one run: the workload's grid once per pass, each
    cell's parameters at the quantiles quantiles() assigns.  out_dir only
    names the diameter summary files; it does not change the inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    k = passes_for(workload, seconds)
    cells = _cells(workload)
    rows = {}
    for cell in cells:
        rows.setdefault(cell[1:3], []).append(cell)
    ua, ub = {}, {}
    for row in rows.values():
        ua.update(quantiles(rng, row, k))
        ub.update(quantiles(rng, row, k))
    ops = []

    def add(p, command, argv, spec, rows=()):
        ops.append(Op(len(ops), p, command, spec, [command] + argv,
                      list(rows)))

    for p in range(k):
        for cell in cells:
            command, family, m, n = cell
            alpha, beta = params(rng, family, m, ua[cell, p], ub[cell, p])
            if command == "diameter":
                for lo, hi in _chunks(*n):
                    summary = f"{out_dir}/diameter-seed{seed}-p{p}-n{lo}.json"
                    add(p, command,
                        ["--m", str(m), "--alpha", repr(alpha),
                         "--n-from", str(lo), "--n-to", str(hi),
                         "--summary", summary],
                        {"family": family, "m": m, "alpha": alpha,
                         "n": [lo, hi]}, range(lo, hi + 1))
                continue
            argv, spec = _selector(family, m, alpha, n, beta)
            if command == "fekete":
                spec["seed"] = int(rng.integers(0, 2 ** 31))
                argv += ["--trials", str(FEKETE_GRID["trials"]),
                         "--seed", str(spec["seed"])]
            add(p, command, argv, spec)
    return ops

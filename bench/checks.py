"""Correctness checks of the files a workload's CLI commands wrote.

The checks test properties of the results, not their bytes, so a change that
legitimately moves digits (a refined integral, a faster row formatter)
passes as long as the physics holds.  The SHA-256 of every output file is
recorded as information only.

Operations.  In a phase diagram each cell is one operation; every other
command is one operation.  A cell fails when it is written as NaN although
its parameters are gapped, or when its integer disagrees with the oracle
spot-check.  A command fails on an unexpected exit code or a failed check.
An invariant left undefined at a gapped point (a NaN cell, or an
``invariant`` command that exits with an error) is the known defect: it is
counted as a failed operation, not hidden.  A wrong integer, any other
error exit or a failed check is a problem and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from topocrit import walk1d, walk2d
from topocrit.errors import TopocritError
from topocrit.invariants import chern_plaquette
from topocrit.walk1d import WalkParams

# A parameter point is gapped when its gap exceeds this floor (radians):
# min_gap_2d for walk2d, the smaller of gap_distances for walk1d.  The
# phase-diagram grids used here place every other cell at least 0.07 away.
GAP_FLOOR = 0.05
# A CRG vertex is a false boundary when its gap exceeds this floor.  It sits
# above the few-cell offset of a thinned line from the true boundary (at most
# 0.061 at grid 512 and 0.049 at grid 128) and below the gap of the short
# spurious components (about 0.44).
VERTEX_GAP_FLOOR = 0.1
SPOT_CHECKS = 32
PD_ORACLE_GRID_2D = 192       # the CLI's phase diagram uses 96
INVARIANT_ORACLE_GRID_2D = 512  # the CLI's invariant uses 256
WINDING_ORACLE_GRID = 4096
EXPONENT_TOL_1D = 0.01
SCALING_TOL_2D = 0.02
DEFECT_LIMIT = 1e-3
DEFAULT_BETA = {"walk1d": 0.0, "walk2d": math.pi / 2.0}
N_HSPS = {"walk1d": 2, "walk2d": 4}
PD_EXIT_CODES = (0, 2)  # 2: NaN rows written


class Report:
    """Operations attempted and failed, problems found, and information."""

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.failed_commands = 0
        self.problems = []
        self.info = {}

    def command(self, label: str, problems, ops: int = 1,
                failed_ops: int | None = None) -> None:
        """Record one command of ``ops`` operations.  Unless told how many
        failed, a command with problems fails all of them."""
        self.ops += ops
        if failed_ops is None:
            failed_ops = ops if problems else 0
        self.failed_ops += failed_ops
        if problems:
            self.failed_commands += 1
            self.problems.extend("%s: %s" % (label, p) for p in problems)


def options(argv) -> dict:
    """Flag -> value for the CLI argv used here (every flag takes a value,
    as ``--flag value`` or ``--flag=value``)."""
    out = {}
    tokens = iter(argv[1:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        out[flag] = value if eq else next(tokens)
    return out


def gap(model: str, alpha: float, beta: float) -> float:
    p = WalkParams(alpha, beta)
    if model == "walk2d":
        return walk2d.min_gap_2d(p)
    return min(walk1d.gap_distances(p))


def planar_winding(alpha: float, beta: float,
                   n: int = WINDING_ORACLE_GRID) -> float:
    """Winding of walk1d's rotated-frame axis, an oracle independent of the
    curvature integral: the angle of (kap_a sin k, lam_a kap_b + kap_a lam_b
    cos k) unwrapped over one Brillouin zone."""
    k = np.linspace(0.0, 2.0 * np.pi, n + 1)
    ka, la = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    kb, lb = math.cos(beta / 2.0), math.sin(beta / 2.0)
    theta = np.unwrap(np.arctan2(la * kb + ka * lb * np.cos(k),
                                 ka * np.sin(k)))
    return float((theta[-1] - theta[0]) / (2.0 * np.pi))


def oracle(model: str, alpha: float, beta: float, grid_2d: int) -> int:
    if model == "walk2d":
        return chern_plaquette(WalkParams(alpha, beta), grid_2d).rounded
    return int(round(planar_winding(alpha, beta)))


def read_csv(path: Path):
    """(column names, float rows) of a CSV written by the CLI."""
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]],
                    dtype=float).reshape(-1, len(cols))
    return cols, rows


def _csv_paths(out: str, suffixes):
    return [Path(out + s + ".csv") for s in suffixes]


def check_curvature(o):
    grid = int(o["--grid"])
    n_alphas = len(o["--alpha"].split(",")) if "--alpha" in o else 1
    suffixes = [""] if n_alphas == 1 else ["_a%d" % i for i in range(n_alphas)]
    problems = []
    for path in _csv_paths(o["--out"], suffixes):
        cols, rows = read_csv(path)
        if len(rows) != grid:
            problems.append("%s has %d rows, expected %d"
                            % (path.name, len(rows), grid))
        elif not np.isfinite(rows[:, cols.index("F")]).all():
            problems.append("%s has non-finite F at gapped parameters"
                            % path.name)
    return problems


def check_exponents(o):
    fit = json.loads(Path(o["--out"] + ".json").read_text())
    gamma, nu = fit["gamma"], fit["nu"]
    if o.get("--model", "walk1d") == "walk1d":
        if abs(gamma - 1.0) > EXPONENT_TOL_1D or abs(nu - 1.0) > EXPONENT_TOL_1D:
            return ["walk1d gamma %.6f, nu %.6f not within %g of 1"
                    % (gamma, nu, EXPONENT_TOL_1D)]
    elif abs(gamma - 2.0 * nu) > SCALING_TOL_2D:
        return ["walk2d gamma %.6f is not within %g of 2 nu = %.6f"
                % (gamma, SCALING_TOL_2D, 2.0 * nu)]
    return []


def check_correlation(o):
    cols, rows = read_csv(Path(o["--out"] + ".csv"))
    rmax = int(o["--rmax"])
    if len(rows) != rmax + 1:
        return ["%d rows, expected %d" % (len(rows), rmax + 1)]
    if not np.isfinite(rows[:, cols.index("F_tilde")]).all():
        return ["non-finite correlation values"]
    return []


def declined_gapped(o) -> bool:
    model = o.get("--model", "walk1d")
    beta = float(o.get("--beta", DEFAULT_BETA[model]))
    return gap(model, float(o["--alpha"]), beta) > GAP_FLOOR


def check_invariant(o):
    doc = json.loads(Path(o["--out"] + ".json").read_text())
    model = o.get("--model", "walk1d")
    alpha = float(o["--alpha"])
    beta = float(o.get("--beta", DEFAULT_BETA[model]))
    raw, rounded = doc["raw"], doc["rounded"]
    if not isinstance(rounded, int) or abs(raw - rounded) >= DEFECT_LIMIT:
        return ["value %r (raw %r) is not an integer" % (rounded, raw)]
    want = oracle(model, alpha, beta, INVARIANT_ORACLE_GRID_2D)
    if rounded != want:
        return ["value %d but the oracle gives %d" % (rounded, want)]
    return []


def check_crg(o, rng):
    model = o.get("--model", "walk1d")
    grid = int(o["--grid"])
    axes = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    problems = []
    for path in _csv_paths(o["--out"],
                           ["_hsp%d" % i for i in range(N_HSPS[model])]):
        lines = path.read_text().splitlines()[2:]
        if len(lines) != grid * grid:
            problems.append("%s has %d rows, expected %d"
                            % (path.name, len(lines), grid * grid))
            continue
        # rows run over alpha (outer) and beta (inner) on the grid axes
        for r in rng.sample(range(len(lines)), SPOT_CHECKS):
            a, b = (float(x) for x in lines[r].split(",")[:2])
            if a != axes[r // grid] or b != axes[r % grid]:
                problems.append("%s row %d holds (%r, %r) off the grid"
                                % (path.name, r, a, b))
    doc = json.loads(Path(o["--out"] + ".json").read_text())
    if not isinstance(doc.get("critical_lines"), list):
        problems.append("no critical_lines list")
    return problems


def check_phase_diagram(o, code, rng, report: Report, label: str) -> None:
    """Count each cell as one operation; see the module docstring."""
    model = o.get("--model", "walk1d")
    grid = int(o["--grid"])
    cells = grid * grid
    cols, rows = read_csv(Path(o["--out"] + ".csv"))
    if code not in PD_EXIT_CODES or len(rows) != cells:
        report.command(label, ["exit code %d, %d rows for %d cells"
                               % (code, len(rows), cells)], ops=cells)
        return
    nan = np.isnan(rows[:, cols.index("rounded")])
    nan_gapped = sum(gap(model, a, b) > GAP_FLOOR for a, b in rows[nan, :2])
    defined = [i for i in np.flatnonzero(~nan)
               if gap(model, *rows[i, :2]) > GAP_FLOOR]
    spot = sorted(rng.sample(defined, min(SPOT_CHECKS, len(defined))))
    problems = []
    for i in spot:
        a, b, rounded = rows[i, 0], rows[i, 1], int(rows[i, 3])
        try:
            want = oracle(model, a, b, PD_ORACLE_GRID_2D)
        except TopocritError as exc:
            problems.append("oracle failed at (%r, %r): %s" % (a, b, exc))
            continue
        if want != rounded:
            problems.append("cell (%r, %r) is %d, oracle %d"
                            % (a, b, rounded, want))
    report.info[label] = {"nan_cells": int(nan.sum()),
                          "nan_gapped": int(nan_gapped),
                          "spot_checked": len(spot),
                          "spot_problems": len(problems)}
    # a gapped NaN cell fails quietly; a wrong or unverifiable cell is also
    # a problem, which makes the run incorrect
    report.command(label, problems, ops=cells,
                   failed_ops=int(nan_gapped) + len(problems))


def check_outputs(commands, codes, outdir: Path, seed: int) -> Report:
    """Check every command's outputs in ``outdir`` (the CLI's cwd)."""
    rng = random.Random(seed)
    report = Report()
    for argv, code in zip(commands, codes):
        o = options(argv)
        label = "%s %s -> %s" % (argv[0], o.get("--model", "walk1d"),
                                 o["--out"])
        o["--out"] = str(outdir / o["--out"])
        if argv[0] == "phase-diagram":
            check_phase_diagram(o, code, rng, report, label)
            continue
        if code != 0:
            if argv[0] == "invariant" and declined_gapped(o):
                # the invariant is undefined at a gapped point: the same
                # defect as a gapped NaN phase-diagram cell
                report.command(label, [], failed_ops=1)
                report.info[label] = {"declined_exit_code": code}
            else:
                report.command(label, ["exit code %d" % code])
            continue
        if argv[0] == "curvature":
            problems = check_curvature(o)
        elif argv[0] == "exponents":
            problems = check_exponents(o)
        elif argv[0] == "correlation":
            problems = check_correlation(o)
        elif argv[0] == "invariant":
            problems = check_invariant(o)
        else:
            problems = check_crg(o, rng)
        report.command(label, problems)
    report.info["sha256"] = {p.name: file_sha256(p)
                             for p in sorted(outdir.iterdir())}
    return report


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def crg_vertices(commands, outdir: Path):
    """(vertices, vertices at gapped parameters) over the CRG commands."""
    total = gapped = 0
    for argv in commands:
        if argv[0] != "crg":
            continue
        o = options(argv)
        model = o.get("--model", "walk1d")
        doc = json.loads((outdir / (o["--out"] + ".json")).read_text())
        for line in doc["critical_lines"]:
            for a, b in line["vertices"]:
                total += 1
                gapped += gap(model, a, b) > VERTEX_GAP_FLOOR
    return total, gapped

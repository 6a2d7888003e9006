"""Command-line interface.

    topocrit curvature      momentum profiles of the curvature function
    topocrit exponents      critical exponents gamma, nu and the scaling law
    topocrit correlation    real-space correlation series
    topocrit crg            RG flow field and detected phase boundaries
    topocrit invariant      winding / mapping-degree invariant
    topocrit phase-diagram  invariant over an (alpha, beta) grid

Outputs are deterministic: fixed row ordering, 17-significant-digit floats,
and a header comment echoing the options given and the defaults of the
``echoed`` options the command reads.  Rows whose value is undefined are
written as NaN with a warning that counts them by cause (e.g. "51 ZeroGap,
1 OracleMismatch") and exit code 2; --strict writes no file instead.
Invalid options, from flags or --config, exit with code 1.  Each option is
declared once, in ``OPTIONS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, correlation, criticality, crg, invariants
from . import geometry, walk1d, walk2d
from .errors import TopocritError
from .models import WALK_1D, WALK_2D
from .output import Indexed, write_csv, write_json
from .walk1d import WalkParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ZEROGAP = 2

WALKS = {"walk1d": WALK_1D, "walk2d": WALK_2D}


def _parse_alphas(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats")


def _parse_window(text: str):
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated numbers 'lo,hi'")
    return lo, hi


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and (isinstance(value, int)
                                  or math.isfinite(value))


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int)
                                  or value.is_integer())


class Option(NamedTuple):
    """One option, from a flag or from --config alike.  ``echoed`` options
    write their default in the configuration echo; any other option is
    echoed only when given."""

    type: object  # argparse type of the flag; None for a switch
    accepts: object  # the check of a value, flag or config
    what: str  # what ``accepts`` takes, for its error message
    help: str
    default: object  # a constant, or a rule (command, model) -> value
    minimum: object = None  # None, a constant, or a rule like ``default``
    echoed: bool = False


def _grid_default(command: str, model: str) -> int:
    """The momentum, angle or zone grid that --grid sets."""
    return {"curvature": 1024, "crg": crg.DEFAULT_GRID, "phase-diagram": 33,
            "correlation": (correlation.DEFAULT_N_CORR_1D if model == "walk1d"
                            else correlation.DEFAULT_N_CORR_2D),
            "invariant": (invariants.DEFAULT_N_WINDING if model == "walk1d"
                          else invariants.DEFAULT_N_CHERN)}[command]


OPTIONS = {
    "model": Option(str, lambda v: isinstance(v, str), "a string",
                    "model: walk1d or walk2d, or for curvature also dirac1d "
                    "or dirac2d", "walk1d", echoed=True),
    "alpha": Option(_parse_alphas,
                    lambda v: isinstance(v, list) and v != []
                    and all(map(_is_finite, v)),
                    "a non-empty list of finite angles",
                    "coin angle(s), comma separated", [0.3], echoed=True),
    "beta": Option(float, _is_finite, "a finite number", "second coin angle",
                   lambda command, model:
                   np.pi / 2.0 if model == "walk2d" else 0.0, echoed=True),
    "grid": Option(int, _is_integer, "an integer", "grid size N",
                   _grid_default,
                   minimum=lambda command, model:
                   crg.MIN_GRID if command == "crg" else 1),
    "out": Option(str, lambda v: isinstance(v, str)
                  and os.path.basename(v) not in ("", ".", ".."),
                  "a path whose last part names a file",
                  "output path; a .csv or .json suffix is replaced",
                  lambda command, model: "topocrit_" + command, echoed=True),
    "strict": Option(None, lambda v: isinstance(v, bool), "true or false",
                     "write no file if any row is NaN", False, echoed=True),
    "mass": Option(float, _is_finite, "a finite number", "Dirac mass", 1.0),
    "kmax": Option(float, _is_finite, "a finite number",
                   "momentum half-range of the Dirac models", 10.0),
    "window": Option(_parse_window,
                     lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                     and all(map(_is_finite, v)), "a pair of finite numbers",
                     "log-spaced window 'lo,hi'", criticality.DEFAULT_WINDOW),
    "points": Option(int, _is_integer, "an integer", "window points",
                     criticality.DEFAULT_POINTS,
                     minimum=criticality.MIN_POINTS),
    "kc": Option(float, _is_finite, "a finite number",
                 "1D peak momentum, 0 or pi", 0.0),
    "rmax": Option(int, _is_integer, "an integer", "largest displacement",
                   40, minimum=0),
    "threshold": Option(float, lambda v: _is_finite(v) and v > 0,
                        "a positive finite number",
                        "line-detection rate threshold",
                        crg.DETECT_RATE_THRESHOLD),
    "inner-grid": Option(int, _is_integer, "an integer",
                         "BZ grid per invariant",
                         lambda command, model:
                         512 if model == "walk1d" else 96, minimum=1),
}
# the options every command reads
ALWAYS = ("model", "out")
# the options each command reads besides those; giving any other option,
# by flag or by --config, is an error, not a no-op.  Only the commands that
# write NaN rows read strict
READS = {
    "curvature": ("alpha", "beta", "grid", "mass", "kmax", "strict"),
    "exponents": ("beta", "window", "points", "kc"),
    "correlation": ("alpha", "beta", "grid", "rmax"),
    "crg": ("grid", "threshold"),
    "invariant": ("alpha", "beta", "grid"),
    "phase-diagram": ("grid", "inner-grid", "strict"),
}
# options that a model does not read, whatever the command; curvature takes
# every model, the other commands the walks
UNREAD_BY_MODEL = {"walk1d": ("mass", "kmax"),
                   "walk2d": ("mass", "kmax", "kc"),
                   "dirac1d": ("alpha", "beta"),
                   "dirac2d": ("alpha", "beta")}


def _models(command: str) -> tuple:
    return tuple(UNREAD_BY_MODEL if command == "curvature" else WALKS)


def _rule(value, command: str, model: str):
    """A table entry that is a constant, or a rule of (command, model)."""
    return value(command, model) if callable(value) else value


def _default(key: str, command: str, model: str):
    return _rule(OPTIONS[key].default, command, model)


def _show(value) -> str:
    """A default as its flag would spell it."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_show, value))
    return "%g" % value if _is_number(value) else str(value)


def _help(key: str, command: str) -> str:
    """The help of ``key`` in ``command``, with its default per model."""
    shown = {model: _show(_default(key, command, model))
             for model in _models(command)
             if key not in UNREAD_BY_MODEL[model]}
    values = set(shown.values())
    text = values.pop() if len(values) == 1 else ", ".join(
        "%s for %s" % (value, model) for model, value in shown.items())
    return "%s (default %s)" % (OPTIONS[key].help, text)


class _Parser(argparse.ArgumentParser):
    """Raises a parse error for main's one ``error:`` line and exit 1."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: it registers
    every option on every command, and main parses each call with it.
    Every caller shares the one parser, so none may change it."""
    ap = _Parser(
        prog="topocrit",
        description="Curvature-function criticality toolkit for two-band "
                    "walks and Dirac models.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults; flags override")
        # every option, so that _defaults refuses an unread flag as it
        # refuses an unread config key; --help shows the ones read
        for key, opt in OPTIONS.items():
            kind = ({"action": "store_true"} if opt.type is None
                    else {"type": opt.type})
            p.add_argument("--" + key, default=None, **kind,
                           help=(_help(key, command)
                                 if key in ALWAYS + READS[command]
                                 else argparse.SUPPRESS))
    return ap


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError("config file %s not found" % path)
        cfg = json.loads(path.read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key.replace("_", "-")] = val
    return merged


def _defaults(merged: dict, command: str):
    """The settings of a run, every option that ``command`` and its model
    read, given or by default, and its configuration echo: the options
    given and the defaults of the ``echoed`` ones."""
    model = merged.get("model", OPTIONS["model"].default)
    if model not in _models(command):
        raise ValueError("model %r is not available for %s" % (model, command))
    for key, value in merged.items():
        if key not in ALWAYS + READS[command]:
            raise ValueError("%s is not read by %s, got %r"
                             % (key, command, value))
        if key in UNREAD_BY_MODEL[model]:
            raise ValueError("%s is not read by %s --model %s, got %r"
                             % (key, command, model, value))
    cfg = {key: merged[key] if key in merged
           else _default(key, command, model)
           for key in ALWAYS + READS[command]
           if key not in UNREAD_BY_MODEL[model]}
    if _is_number(cfg.get("alpha")):
        cfg["alpha"] = [float(cfg["alpha"])]
    for key, value in cfg.items():
        opt = OPTIONS[key]
        if not opt.accepts(value):
            raise ValueError("%s must be %s, got %r" % (key, opt.what, value))
        least = _rule(opt.minimum, command, model)
        if least is not None and value < least:
            raise ValueError("%s must be at least %d, got %r"
                             % (key, least, value))
    torus = {"phase-diagram": "inner-grid", "invariant": "grid"}.get(command)
    if model == "walk2d" and torus and cfg[torus] % 4:
        raise ValueError("%s must be a multiple of 4 for walk2d, so that the "
                         "torus holds the high-symmetry points, got %r"
                         % (torus, cfg[torus]))
    if command == "invariant" and len(cfg["alpha"]) > 1:
        raise ValueError("alpha must be a single angle for invariant, got %r"
                         % (cfg["alpha"],))
    echo = {key: value for key, value in cfg.items()
            if key in merged or OPTIONS[key].echoed}
    return cfg, echo


# the file suffixes that --out may carry; any other dot belongs to the name
OUT_SUFFIXES = (".csv", ".json")


def _outpath(base: str, suffix: str, tag: str = "") -> str:
    """The path of one output file: ``base`` without a known suffix, then
    ``tag`` and ``suffix`` (``run_b0.3`` -> ``run_b0.3_hsp0.csv``)."""
    p = Path(base)
    stem = p.stem if p.suffix in OUT_SUFFIXES else p.name
    return str(p.with_name(stem + tag + suffix))


def _per_alpha(cfg: dict, echo: dict):
    """Yield (alpha, CSV path, config echo) per --alpha value; a sweep of
    several values writes one file each, tagged _a0, _a1, ..., and a model
    that reads no alpha writes one file, with alpha None."""
    alphas = cfg.get("alpha", [None])
    for idx, alpha in enumerate(alphas):
        tag = "" if len(alphas) == 1 else "_a%d" % idx
        yield (alpha, _outpath(cfg["out"], ".csv", tag),
               echo if alpha is None else {**echo, "alpha": alpha})


def _write_table(cfg: dict, path: str, echo: dict, blocks,
                 failures: Counter) -> int:
    """The NaN policy and the one CSV write path of every command.

    ``blocks`` is the table as ``write_csv`` takes it, an iterable of row
    blocks, and ``failures`` counts its NaN rows by the name of their
    cause.  With NaN rows the exit code is 2, and --strict writes no file;
    only a command that reads strict may count NaN rows.
    """
    if failures:
        causes = ", ".join("%d %s" % (n, name)
                           for name, n in failures.most_common())
        if cfg["strict"]:
            print("error: NaN rows (%s); no file written (strict)" % causes,
                  file=sys.stderr)
            return EXIT_ZEROGAP
    write_csv(path, __version__, echo, blocks)
    print(path)
    if failures:
        print("warning: NaN rows written (%s)" % causes, file=sys.stderr)
        return EXIT_ZEROGAP
    return EXIT_OK


def _grid_columns(alphas, betas, n_rows=None) -> dict:
    """The row-major ``alpha``/``beta`` columns of an (alpha, beta) grid, as
    ``Indexed`` columns of the axis values: each value is encoded once per
    file, not once per row, and file row i holds (alphas[i // n],
    betas[i % n]) for n betas.  ``n_rows`` is the length of the block that
    holds them, by default the whole grid."""
    if n_rows is None:
        n_rows = len(alphas) * len(betas)
    return {"alpha": Indexed(alphas, n_rows, every=len(betas)),
            "beta": Indexed(betas, n_rows)}


def _curvature_columns(cfg: dict, alpha) -> dict:
    model, n = cfg["model"], int(cfg["grid"])
    if model in WALKS:
        beta = float(cfg["beta"])
        p = WalkParams(alpha, beta)
        k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        with np.errstate(all="ignore"):
            f, norm2 = WALKS[model].curvature_raw(
                k if model == "walk1d" else (k, -k), alpha, beta)
            # NaN exactly where the validated curvature raises ZeroGap
            f[geometry.below_gap_floor(norm2)] = np.nan
            if model == "walk1d":
                return {"k": k, "F": f, "E_upper": walk1d.energy_1d(k, p)}
            return {"kx": k, "ky": -k, "F": f,
                    "E_upper": walk2d.energy_grid_2d(k, -k, p)}
    mass, kmax = float(cfg["mass"]), float(cfg["kmax"])
    k = np.linspace(-kmax, kmax, n)
    if model == "dirac1d":
        return {"k": k, "F": geometry.berry_connection_1d(k, mass),
                "E_upper": np.hypot(mass, k)}
    return {"kx": k, "ky": np.zeros(n),
            "F": geometry.berry_curvature_2d_dirac(k, 0.0, mass),
            "E_upper": np.sqrt(mass * mass + k * k)}


def cmd_curvature(cfg: dict, echo: dict) -> int:
    """curvature profile CSV"""
    status = EXIT_OK
    for alpha, path, alpha_echo in _per_alpha(cfg, echo):
        columns = _curvature_columns(cfg, alpha)
        # every model writes NaN where its gap test closes the gap, and
        # only there; unary + drops a zero count
        failures = +Counter(ZeroGap=int(np.isnan(columns["F"]).sum()))
        status = max(status, _write_table(cfg, path, alpha_echo, [columns],
                                          failures))
        if status and cfg["strict"]:
            break
    return status


def cmd_exponents(cfg: dict, echo: dict) -> int:
    """critical exponents JSON"""
    model = WALKS[cfg["model"]]
    # walk2d reads no kc: its peak is the slice peak
    k_c = float(cfg["kc"]) if "kc" in cfg else model.slice_peak()
    fit = criticality.extract_exponents(model, float(cfg["beta"]), k_c,
                                        window=tuple(cfg["window"]),
                                        n_points=int(cfg["points"]))
    payload = {
        "alpha_c": fit.alpha_c,
        "gamma": fit.gamma,
        "nu": fit.nu,
        "errors": {"gamma": fit.gamma_stderr, "nu": fit.nu_stderr},
        "scaling_law_residual": fit.scaling_law_residual,
        "window": [fit.window[0], fit.window[1]],
        "dimension": fit.dimension,
    }
    path = _outpath(cfg["out"], ".json")
    write_json(path, __version__, echo, payload)
    print(path)
    return EXIT_OK


def cmd_correlation(cfg: dict, echo: dict) -> int:
    """correlation series CSV"""
    beta, r_max, n = float(cfg["beta"]), int(cfg["rmax"]), int(cfg["grid"])
    transform = {"walk1d": correlation.wannier_correlation_1d,
                 "walk2d": correlation.wannier_correlation_2d}[cfg["model"]]
    for alpha, path, alpha_echo in _per_alpha(cfg, echo):
        series = transform(WalkParams(alpha, beta), r_max, n)
        _write_table(cfg, path, alpha_echo, [{"R": series.displacements,
                                              "F_tilde": series.values}],
                     Counter())
    return EXIT_OK


def _crg_blocks(model, hsp, grid: int, found):
    """The CSV row blocks of the flow field at ``hsp``: each block of alpha
    rows is evaluated on the field's stage, built once, added to the line
    candidates ``found`` and yielded as columns, and dropped before the
    next is evaluated."""
    stage = crg.flow_stage(model, hsp, grid)
    for rows in crg.row_blocks(grid):
        field = crg.flow_field(model, hsp, grid, rows, stage)
        found.add(field)
        # the axes of ``found``, one array for every block, so that the
        # writer encodes them once per file
        yield {**_grid_columns(found.axes, found.axes, field.dalpha.size),
               "dalpha_dl": field.dalpha.ravel(),
               "dbeta_dl": field.dbeta.ravel(),
               "log_rate": field.log_rate.ravel(),
               "diverged": field.diverged.ravel()}


def cmd_crg(cfg: dict, echo: dict) -> int:
    """RG flow field CSV + critical lines JSON"""
    model = WALKS[cfg["model"]]
    grid = int(cfg["grid"])
    base = cfg["out"]
    lines = []
    # one high-symmetry point at a time, its beta stage and closed cells
    # built once, then one block of rows at a time: each block is written
    # and screened for line candidates, and the lines are detected from the
    # candidates once the point's file is written
    for idx, hsp in enumerate(model.hsps()):
        found = crg.LineCandidates(crg.grid_axes(grid), hsp,
                                   float(cfg["threshold"]))
        _write_table(cfg, _outpath(base, ".csv", "_hsp%d" % idx),
                     {**echo, "hsp": list(found.hsp)},
                     _crg_blocks(model, hsp, grid, found), Counter())
        lines += crg.detect_critical_lines(found)
        del found
    payload = {"critical_lines": [
        {"hsp": list(line.hsp),
         "vertices": [[float(a), float(b)] for a, b in line.vertices]}
        for line in lines]}
    jpath = _outpath(base, ".json")
    write_json(jpath, __version__, echo, payload)
    print(jpath)
    return EXIT_OK


def cmd_invariant(cfg: dict, echo: dict) -> int:
    """topological invariant JSON"""
    p = WalkParams(cfg["alpha"][0], float(cfg["beta"]))
    if cfg["model"] == "walk1d":
        res = invariants.winding_number_1d(p, int(cfg["grid"]))
    else:
        res = invariants.chern_number_2d(p, int(cfg["grid"]))
    payload = {"raw": res.raw, "rounded": res.rounded,
               "defect": res.defect, "N": res.grid}
    path = _outpath(cfg["out"], ".json")
    write_json(path, __version__, echo, payload)
    print(path)
    return EXIT_OK


def cmd_phase_diagram(cfg: dict, echo: dict) -> int:
    """invariant over an angle grid"""
    grid = int(cfg["grid"])
    axes = np.linspace(-np.pi, np.pi, grid)
    kernel = {"walk1d": invariants.winding_numbers_1d,
              "walk2d": invariants.chern_numbers_2d}[cfg["model"]]
    # row-major cells: alpha = axes[i // grid], beta = axes[i % grid]
    raw, rounded, failed = kernel(np.repeat(axes, grid), np.tile(axes, grid),
                                  int(cfg["inner-grid"]))
    failures = Counter(type(exc).__name__ for exc in failed.values())
    defects = np.abs(raw - rounded)[~np.isnan(rounded)]
    loose = int(np.count_nonzero(~(defects < invariants.DEFECT_LIMIT)))
    if loose:
        print("note: %d cells' integrals lie %g or more from their integer "
              "(largest %.3g)" % (loose, invariants.DEFECT_LIMIT,
                                  defects.max()), file=sys.stderr)
    columns = {**_grid_columns(axes, axes), "raw": raw, "rounded": rounded}
    return _write_table(cfg, _outpath(cfg["out"], ".csv"), echo, [columns],
                        failures)


COMMANDS = {
    "curvature": cmd_curvature,
    "exponents": cmd_exponents,
    "correlation": cmd_correlation,
    "crg": cmd_crg,
    "invariant": cmd_invariant,
    "phase-diagram": cmd_phase_diagram,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        merged = _merge_config(args)
        cfg, echo = _defaults(merged, args.command)
        return COMMANDS[args.command](cfg, echo)
    except (TopocritError, OSError, ValueError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

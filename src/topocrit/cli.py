"""Command-line interface.

    topocrit curvature      momentum profiles of the curvature function
    topocrit exponents      critical exponents gamma, nu and the scaling law
    topocrit correlation    real-space correlation series
    topocrit crg            RG flow field and detected phase boundaries
    topocrit invariant      winding / mapping-degree invariant
    topocrit phase-diagram  invariant over an (alpha, beta) grid

Outputs are deterministic: fixed row ordering, 17-significant-digit floats,
and a header comment echoing the full configuration.  Rows whose value is
undefined are written as NaN with a warning that counts them by cause (e.g.
"51 ZeroGap, 4 QuantizationFailure") and exit code 2; --strict writes no
file instead.  Invalid options, from flags or --config, exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

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
CURVATURE_MODELS = ("walk1d", "walk2d", "dirac1d", "dirac2d")
# smallest accepted value of each integer option
MINIMA = {"grid": 1, "inner-grid": 1, "points": criticality.MIN_POINTS,
          "rmax": 0}


def _parse_alphas(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats")


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi'")
    return float(parts[0]), float(parts[1])


class _Parser(argparse.ArgumentParser):
    """Raises a parse error for main's one ``error:`` line and exit 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="topocrit",
        description="Curvature-function criticality toolkit for two-band "
                    "walks and Dirac models.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, models=("walk1d", "walk2d")):
        p.add_argument("--model", choices=models, default=None,
                       help="model (default: walk1d)")
        p.add_argument("--alpha", type=_parse_alphas, default=None,
                       help="coin angle(s), comma separated")
        p.add_argument("--beta", type=float, default=None,
                       help="second coin angle (default: 0 for walk1d, "
                            "pi/2 for walk2d)")
        p.add_argument("--grid", type=int, default=None, help="grid size N")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults; flags override")
        p.add_argument("--strict", action="store_true", default=None,
                       help="write no file if any row is NaN")

    p = sub.add_parser("curvature", help="curvature profile CSV")
    common(p, models=CURVATURE_MODELS)
    p.add_argument("--mass", type=float, default=None,
                   help="Dirac mass (dirac models; default 1.0)")
    p.add_argument("--kmax", type=float, default=None,
                   help="momentum half-range for Dirac models (default 10)")

    p = sub.add_parser("exponents", help="critical exponents JSON")
    common(p)
    p.add_argument("--window", type=_parse_window, default=None,
                   help="log-spaced window 'lo,hi' (default %g,%g)"
                   % criticality.DEFAULT_WINDOW)
    p.add_argument("--points", type=int, default=None,
                   help="window points (default %d)"
                   % criticality.DEFAULT_POINTS)
    p.add_argument("--kc", type=float, default=None,
                   help="1D peak momentum, 0 or pi (default 0)")

    p = sub.add_parser("correlation", help="correlation series CSV")
    common(p)
    p.add_argument("--rmax", type=int, default=None,
                   help="largest displacement (default 40)")

    p = sub.add_parser("crg", help="RG flow field CSV + critical lines JSON")
    common(p)
    p.add_argument("--threshold", type=float, default=None,
                   help="line-detection rate threshold (default %g)"
                   % crg.DETECT_RATE_THRESHOLD)

    p = sub.add_parser("invariant", help="topological invariant JSON")
    common(p)

    p = sub.add_parser("phase-diagram", help="invariant over an angle grid")
    common(p)
    p.add_argument("--inner-grid", type=int, default=None,
                   help="BZ grid per invariant (default 512 / 96)")
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and (isinstance(value, int)
                                  or math.isfinite(value))


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int)
                                  or value.is_integer())


def _is_string(value) -> bool:
    return isinstance(value, str)


# what each option must hold, from a flag or from --config alike
KINDS = {
    "model": (_is_string, "a string"),
    "out": (_is_string, "a string"),
    "strict": (lambda v: isinstance(v, bool), "true or false"),
    "alpha": (lambda v: isinstance(v, list) and v != []
              and all(map(_is_finite, v)), "a non-empty list of finite angles"),
    "window": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
               and all(map(_is_finite, v)), "a pair of finite numbers"),
    **{key: (_is_finite, "a finite number")
       for key in ("beta", "kc", "mass", "kmax")},
    "threshold": (lambda v: _is_finite(v) and v > 0,
                  "a positive finite number"),
    **{key: (_is_integer, "an integer") for key in MINIMA},
}
# the options each command reads besides model, out and strict; giving any
# other option, by flag or by --config, is an error, not a no-op
READS = {
    "curvature": ("alpha", "beta", "grid", "mass", "kmax"),
    "exponents": ("beta", "window", "points", "kc"),
    "correlation": ("alpha", "beta", "grid", "rmax"),
    "crg": ("grid", "threshold"),
    "invariant": ("alpha", "beta", "grid"),
    "phase-diagram": ("grid", "inner-grid"),
}
# options that a model does not read, whatever the command
UNREAD_BY_MODEL = {"walk1d": ("mass", "kmax"),
                   "walk2d": ("mass", "kmax", "kc"),
                   "dirac1d": ("alpha", "beta"),
                   "dirac2d": ("alpha", "beta")}


def _defaults(merged: dict, command: str) -> dict:
    model = merged.get("model", "walk1d")
    beta_default = np.pi / 2.0 if model == "walk2d" else 0.0
    out = {
        "model": model,
        "alpha": merged.get("alpha", [0.3]),
        "beta": merged.get("beta", beta_default),
        "strict": merged.get("strict", False),
        "out": merged.get("out", "topocrit_%s" % command),
    }
    # the other options a command reads are taken only when given
    out.update((key, merged[key]) for key in READS[command]
               if key in merged and key not in out)
    if _is_number(out["alpha"]):
        out["alpha"] = [float(out["alpha"])]
    for key, value in out.items():
        accepts, what = KINDS[key]
        if not accepts(value):
            raise ValueError("%s must be %s, got %r" % (key, what, value))
        if key in MINIMA and value < MINIMA[key]:
            raise ValueError("%s must be at least %d, got %r"
                             % (key, MINIMA[key], value))
    if command == "invariant" and len(out["alpha"]) > 1:
        raise ValueError("alpha must be a single angle for invariant, got %r"
                         % (out["alpha"],))
    if model not in (CURVATURE_MODELS if command == "curvature" else WALKS):
        raise ValueError("model %r is not available for %s" % (model, command))
    for key, value in merged.items():
        if key not in ("model", "out", "strict") + READS[command]:
            raise ValueError("%s is not read by %s, got %r"
                             % (key, command, value))
        if key in UNREAD_BY_MODEL[model]:
            raise ValueError("%s is not read by %s --model %s, got %r"
                             % (key, command, model, value))
    return out


# the file suffixes that --out may carry; any other dot belongs to the name
OUT_SUFFIXES = (".csv", ".json")


def _outpath(base: str, suffix: str, tag: str = "") -> str:
    """The path of one output file: ``base`` without a known suffix, then
    ``tag`` and ``suffix`` (``run_b0.3`` -> ``run_b0.3_hsp0.csv``)."""
    p = Path(base)
    stem = p.stem if p.suffix in OUT_SUFFIXES else p.name
    return str(p.with_name(stem + tag + suffix))


def _per_alpha(cfg: dict):
    """Yield (alpha, CSV path, config echo) per --alpha value; a sweep of
    several values writes one file each, tagged _a0, _a1, ..."""
    alphas = cfg["alpha"]
    for idx, alpha in enumerate(alphas):
        tag = "" if len(alphas) == 1 else "_a%d" % idx
        yield (alpha, _outpath(cfg["out"], ".csv", tag),
               {**cfg, "alpha": alpha})


def _write_table(cfg: dict, path: str, echo: dict, blocks,
                 failures: Counter) -> int:
    """The NaN policy and the one CSV write path of every command.

    ``blocks`` is the table as ``write_csv`` takes it, an iterable of row
    blocks, and ``failures`` counts its NaN rows by the name of their
    cause.  With NaN rows the exit code is 2, and --strict writes no file.
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


def _curvature_columns(cfg: dict, alpha: float) -> dict:
    model = cfg["model"]
    n = int(cfg.get("grid", 1024))
    beta = float(cfg["beta"])
    mass = float(cfg.get("mass", 1.0))
    kmax = float(cfg.get("kmax", 10.0))
    if model == "walk1d":
        k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        with np.errstate(all="ignore"):
            f = walk1d._curvature_raw_1d(k, alpha, beta)
        return {"k": k, "F": f,
                "E_upper": walk1d.energy_1d(k, WalkParams(alpha, beta))}
    if model == "walk2d":
        kx = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        with np.errstate(all="ignore"):
            f = walk2d._curvature_raw_2d(kx, -kx, alpha, beta)
        return {"kx": kx, "ky": -kx, "F": f,
                "E_upper": walk2d.energy_grid_2d(kx, -kx,
                                                 WalkParams(alpha, beta))}
    k = np.linspace(-kmax, kmax, n)
    if model == "dirac1d":
        return {"k": k, "F": geometry.berry_connection_1d(k, mass),
                "E_upper": np.hypot(mass, k)}
    return {"kx": k, "ky": np.zeros(n),
            "F": geometry.berry_curvature_2d_dirac(k, 0.0, mass),
            "E_upper": np.sqrt(mass * mass + k * k)}


def cmd_curvature(cfg: dict) -> int:
    status = EXIT_OK
    for alpha, path, echo in _per_alpha(cfg):
        columns = _curvature_columns(cfg, alpha)
        undefined = ~np.isfinite(columns["F"])
        columns["F"][undefined] = np.nan
        # unary + drops a zero count
        failures = +Counter(ZeroGap=int(undefined.sum()))
        status = max(status, _write_table(cfg, path, echo, [columns],
                                          failures))
        if status and cfg["strict"]:
            break
    return status


def cmd_exponents(cfg: dict) -> int:
    window = tuple(cfg.get("window", criticality.DEFAULT_WINDOW))
    n_points = int(cfg.get("points", criticality.DEFAULT_POINTS))
    model_name = cfg["model"]
    model = WALKS[model_name]
    beta = float(cfg["beta"])
    if model_name == "walk1d":
        k_c = float(cfg.get("kc", 0.0))
    else:
        k_c = model.slice_peak()
    fit = criticality.extract_exponents(model, beta, k_c, window=window,
                                        n_points=n_points)
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
    write_json(path, __version__, cfg, payload)
    print(path)
    return EXIT_OK


def cmd_correlation(cfg: dict) -> int:
    beta = float(cfg["beta"])
    r_max = int(cfg.get("rmax", 40))
    if cfg["model"] == "walk1d":
        n = int(cfg.get("grid", correlation.DEFAULT_N_CORR_1D))
        transform = correlation.wannier_correlation_1d
    else:
        n = int(cfg.get("grid", correlation.DEFAULT_N_CORR_2D))
        transform = correlation.wannier_correlation_2d
    for alpha, path, echo in _per_alpha(cfg):
        series = transform(WalkParams(alpha, beta), r_max, n)
        _write_table(cfg, path, echo, [{"R": series.displacements,
                                        "F_tilde": series.values}],
                     Counter())
    return EXIT_OK


def _crg_blocks(model, hsp, grid: int, found):
    """The CSV row blocks of the flow field at ``hsp``: each block of alpha
    rows is evaluated, added to the line candidates ``found`` and yielded
    as columns, and dropped before the next is evaluated."""
    for rows in crg.row_blocks(grid):
        field = crg.flow_field(model, hsp, grid, rows)
        found.add(field)
        # the axes of ``found``, one array for every block, so that the
        # writer encodes them once per file
        yield {**_grid_columns(found.axes, found.axes, field.dalpha.size),
               "dalpha_dl": field.dalpha.ravel(),
               "dbeta_dl": field.dbeta.ravel(),
               "log_rate": field.log_rate.ravel(),
               "diverged": field.diverged.ravel()}


def cmd_crg(cfg: dict) -> int:
    model = WALKS[cfg["model"]]
    grid = int(cfg.get("grid", crg.DEFAULT_GRID))
    threshold = float(cfg.get("threshold", crg.DETECT_RATE_THRESHOLD))
    base = cfg["out"]
    lines = []
    # one high-symmetry point at a time, one block of rows at a time: each
    # block is written and screened for line candidates, and the lines are
    # detected from the candidates once the point's file is written
    for idx, hsp in enumerate(model.hsps()):
        found = crg.LineCandidates(crg.grid_axes(grid), hsp, threshold)
        _write_table(cfg, _outpath(base, ".csv", "_hsp%d" % idx),
                     {**cfg, "hsp": list(found.hsp)},
                     _crg_blocks(model, hsp, grid, found), Counter())
        lines += crg.detect_critical_lines(found)
        del found
    payload = {"critical_lines": [
        {"hsp": list(line.hsp),
         "vertices": [[float(a), float(b)] for a, b in line.vertices]}
        for line in lines]}
    jpath = _outpath(base, ".json")
    write_json(jpath, __version__, cfg, payload)
    print(jpath)
    return EXIT_OK


def cmd_invariant(cfg: dict) -> int:
    model_name = cfg["model"]
    beta = float(cfg["beta"])
    alpha = cfg["alpha"][0]
    p = WalkParams(alpha, beta)
    if model_name == "walk1d":
        n = int(cfg.get("grid", invariants.DEFAULT_N_WINDING))
        res = invariants.winding_number_1d(p, n)
    else:
        n = int(cfg.get("grid", invariants.DEFAULT_N_CHERN))
        res = invariants.chern_number_2d(p, n)
    payload = {"raw": res.raw, "rounded": res.rounded,
               "defect": res.defect, "N": res.grid}
    path = _outpath(cfg["out"], ".json")
    write_json(path, __version__, cfg, payload)
    print(path)
    return EXIT_OK


def cmd_phase_diagram(cfg: dict) -> int:
    grid = int(cfg.get("grid", 33))
    axes = np.linspace(-np.pi, np.pi, grid)
    angles = axes.tolist()
    raw = np.full(grid * grid, np.nan)
    rounded = np.full(grid * grid, np.nan)
    failures = Counter()
    if cfg["model"] == "walk1d":
        inner = int(cfg.get("inner-grid", 512))
        kernel = invariants.winding_numbers_1d
    else:
        inner = int(cfg.get("inner-grid", 96))
        kernel = invariants.chern_numbers_2d
    cells = kernel([WalkParams(a, b) for a in angles for b in angles], inner)
    for i, res in enumerate(cells):
        if isinstance(res, TopocritError):
            failures[type(res).__name__] += 1
            continue
        raw[i], rounded[i] = res.raw, res.rounded
    columns = {**_grid_columns(axes, axes), "raw": raw, "rounded": rounded}
    return _write_table(cfg, _outpath(cfg["out"], ".csv"), cfg, [columns],
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
        cfg = _defaults(merged, args.command)
        return COMMANDS[args.command](cfg)
    except (TopocritError, OSError, ValueError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

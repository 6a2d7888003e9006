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
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, correlation, criticality, crg, invariants
from . import geometry, walk1d, walk2d
from .errors import TopocritError, ZeroGap
from .models import WALK_1D, WALK_2D
from .output import write_csv, write_json
from .walk1d import WalkParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ZEROGAP = 2

WALKS = {"walk1d": WALK_1D, "walk2d": WALK_2D}
CURVATURE_MODELS = ("walk1d", "walk2d", "dirac1d", "dirac2d")
# smallest accepted value of each integer option
MINIMA = {"grid": 1, "inner-grid": 1, "points": 1, "rmax": 0}


def _fail(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return EXIT_USAGE


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
                   help="log-spaced window 'lo,hi' (default 1e-3,1e-1)")
    p.add_argument("--points", type=int, default=None,
                   help="window points (default 20)")
    p.add_argument("--kc", type=float, default=None,
                   help="1D peak momentum, 0 or pi (default 0)")

    p = sub.add_parser("correlation", help="correlation series CSV")
    common(p)
    p.add_argument("--rmax", type=int, default=None,
                   help="largest displacement (default 40)")

    p = sub.add_parser("crg", help="RG flow field CSV + critical lines JSON")
    common(p)
    p.add_argument("--threshold", type=float, default=None,
                   help="line-detection rate threshold (default 30)")

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
       for key in ("beta", "kc", "threshold", "mass", "kmax")},
    **{key: (_is_integer, "an integer") for key in MINIMA},
}
# options taken from the flags and --config only when given
PASSTHROUGH = ("grid", "window", "points", "kc", "rmax", "threshold",
               "mass", "kmax", "inner-grid")


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
    out.update((key, merged[key]) for key in PASSTHROUGH if key in merged)
    if _is_number(out["alpha"]):
        out["alpha"] = [float(out["alpha"])]
    for key, value in out.items():
        accepts, what = KINDS[key]
        if not accepts(value):
            raise ValueError("%s must be %s, got %r" % (key, what, value))
        if key in MINIMA and value < MINIMA[key]:
            raise ValueError("%s must be at least %d, got %r"
                             % (key, MINIMA[key], value))
    if model not in (CURVATURE_MODELS if command == "curvature" else WALKS):
        raise ValueError("model %r is not available for %s" % (model, command))
    return out


def _config_echo(cfg: dict) -> dict:
    echo = {}
    for k, v in cfg.items():
        if isinstance(v, tuple):
            v = list(v)
        echo[k] = v
    return echo


def _outpath(base: str, suffix: str, tag: str = "") -> str:
    p = Path(base)
    stem = p.stem if p.suffix else p.name
    return str(p.with_name(stem + tag + suffix))


def _per_alpha(cfg: dict):
    """Yield (alpha, CSV path, config echo) per --alpha value; a sweep of
    several values writes one file each, tagged _a0, _a1, ..."""
    alphas = cfg["alpha"]
    for idx, alpha in enumerate(alphas):
        tag = "" if len(alphas) == 1 else "_a%d" % idx
        yield (alpha, _outpath(cfg["out"], ".csv", tag),
               _config_echo({**cfg, "alpha": alpha}))


def _write_table(cfg: dict, path: str, echo: dict, columns: dict,
                 failures: Counter) -> int:
    """The NaN policy and the one CSV write path of every command.

    ``failures`` counts the NaN rows of ``columns`` by the name of their
    cause.  With NaN rows the exit code is 2, and --strict writes no file.
    """
    if failures:
        causes = ", ".join("%d %s" % (n, name)
                           for name, n in failures.most_common())
        if cfg["strict"]:
            print("error: NaN rows (%s); no file written (strict)" % causes,
                  file=sys.stderr)
            return EXIT_ZEROGAP
    write_csv(path, __version__, echo, columns)
    print(path)
    if failures:
        print("warning: NaN rows written (%s)" % causes, file=sys.stderr)
        return EXIT_ZEROGAP
    return EXIT_OK


def _dirac_curvature(fn, k, *args):
    """fn(k_i, *args) at each momentum; NaN where the gap closes."""
    f = np.empty(len(k))
    for i, kk in enumerate(k.tolist()):
        try:
            f[i] = fn(kk, *args)
        except ZeroGap:
            f[i] = np.nan
    return f


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
        return {"k": k,
                "F": _dirac_curvature(geometry.berry_connection_1d, k, mass),
                "E_upper": np.hypot(mass, k)}
    return {"kx": k, "ky": np.zeros(n),
            "F": _dirac_curvature(geometry.berry_curvature_2d_dirac, k, 0.0,
                                  mass),
            "E_upper": np.sqrt(mass * mass + k * k)}


def cmd_curvature(cfg: dict) -> int:
    status = EXIT_OK
    for alpha, path, echo in _per_alpha(cfg):
        columns = _curvature_columns(cfg, alpha)
        undefined = ~np.isfinite(columns["F"])
        columns["F"][undefined] = np.nan
        # unary + drops a zero count
        failures = +Counter(ZeroGap=int(undefined.sum()))
        status = max(status, _write_table(cfg, path, echo, columns,
                                          failures))
        if status and cfg["strict"]:
            break
    return status


def cmd_exponents(cfg: dict) -> int:
    window = tuple(cfg.get("window", criticality.DEFAULT_WINDOW))
    if window[0] >= window[1] or window[0] <= 0:
        return _fail("malformed window: need 0 < lo < hi, got %r" % (window,))
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
    write_json(path, __version__, _config_echo(cfg), payload)
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
        _write_table(cfg, path, echo, {"R": series.displacements,
                                       "F_tilde": series.values}, Counter())
    return EXIT_OK


def cmd_crg(cfg: dict) -> int:
    model = WALKS[cfg["model"]]
    grid = int(cfg.get("grid", 128))
    threshold = float(cfg.get("threshold", crg.DETECT_RATE_THRESHOLD))
    field = crg.flow_field(model, grid=grid)
    base = cfg["out"]
    echo = _config_echo(cfg)
    alphas = np.repeat(field.alphas, grid)
    betas = np.tile(field.betas, grid)
    for idx, hsp in enumerate(field.hsps):
        key = crg._hsp_key(hsp)
        columns = {"alpha": alphas, "beta": betas,
                   "dalpha_dl": field.dalpha[key].ravel(),
                   "dbeta_dl": field.dbeta[key].ravel(),
                   "log_rate": field.log_rate[key].ravel(),
                   "diverged": field.diverged[key].ravel()}
        _write_table(cfg, _outpath(base, ".csv", "_hsp%d" % idx),
                     {**echo, "hsp": list(key)}, columns, Counter())
    lines = crg.detect_critical_lines(field, rate_threshold=threshold)
    payload = {"critical_lines": [
        {"hsp": list(line.hsp),
         "vertices": [[float(a), float(b)] for a, b in line.vertices]}
        for line in lines]}
    jpath = _outpath(base, ".json")
    write_json(jpath, __version__, echo, payload)
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
    write_json(path, __version__, _config_echo(cfg), payload)
    print(path)
    return EXIT_OK


def cmd_phase_diagram(cfg: dict) -> int:
    grid = int(cfg.get("grid", 33))
    if cfg["model"] == "walk1d":
        inner = int(cfg.get("inner-grid", 512))
        invariant = invariants.winding_number_1d
    else:
        inner = int(cfg.get("inner-grid", 96))
        invariant = invariants.chern_number_2d
    axes = np.linspace(-np.pi, np.pi, grid)
    raw = np.full(grid * grid, np.nan)
    rounded = np.full(grid * grid, np.nan)
    failures = Counter()
    for i, (a, b) in enumerate(itertools.product(axes.tolist(), repeat=2)):
        try:
            res = invariant(WalkParams(a, b), inner)
        except TopocritError as exc:
            failures[type(exc).__name__] += 1
            continue
        raw[i], rounded[i] = res.raw, res.rounded
    columns = {"alpha": np.repeat(axes, grid), "beta": np.tile(axes, grid),
               "raw": raw, "rounded": rounded}
    return _write_table(cfg, _outpath(cfg["out"], ".csv"), _config_echo(cfg),
                        columns, failures)


COMMANDS = {
    "curvature": cmd_curvature,
    "exponents": cmd_exponents,
    "correlation": cmd_correlation,
    "crg": cmd_crg,
    "invariant": cmd_invariant,
    "phase-diagram": cmd_phase_diagram,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        cfg = _defaults(merged, args.command)
        return COMMANDS[args.command](cfg)
    except (TopocritError, FileNotFoundError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

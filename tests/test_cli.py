import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import topocrit
from topocrit import correlation, crg, invariants, walk1d, walk2d
from topocrit.cli import (READS, WALKS, _defaults, _grid_columns,
                          _merge_config, build_parser, main)
from topocrit.errors import TopocritError, ZeroGap
from topocrit.geometry import below_gap_floor
from topocrit.models import WALK_1D, WALK_2D
from topocrit.output import Indexed, write_csv, write_json
from topocrit.walk1d import WalkParams
from topocrit.walk2d import peak_asymptotics_2d


def read_lines(path):
    return path.read_text().splitlines()


# --- curvature ---

def test_curvature_walk1d_row_count(tmp_path):
    out = tmp_path / "curv.csv"
    rc = main(["curvature", "--model", "walk1d", "--beta", "0", "--alpha",
               "0.3", "--grid", "1024", "--out", str(out)])
    assert rc == 0
    lines = read_lines(out)
    assert lines[0].startswith("# topocrit")
    assert lines[1] == "k,F,E_upper"
    assert len(lines) == 2 + 1024


def test_curvature_walk2d_slice_columns(tmp_path):
    out = tmp_path / "curv2.csv"
    rc = main(["curvature", "--model", "walk2d", "--alpha", "0.3",
               "--grid", "256", "--out", str(out)])
    assert rc == 0
    lines = read_lines(out)
    assert lines[1] == "kx,ky,F,E_upper"
    assert len(lines) == 2 + 256


def test_curvature_peak_matches_asymptotics(tmp_path):
    out = tmp_path / "peak.csv"
    main(["curvature", "--model", "walk2d", "--alpha", "0.1",
          "--grid", "4096", "--out", str(out)])
    rows = [line.split(",") for line in read_lines(out)[2:]]
    f = np.array([float(r[2]) for r in rows])
    fp, _ = peak_asymptotics_2d(WalkParams(0.1, np.pi / 2))
    assert abs(f[np.argmax(np.abs(f))] - fp) / abs(fp) < 0.01


def test_curvature_deterministic(tmp_path):
    out = tmp_path / "a.csv"
    args = ["curvature", "--model", "walk1d", "--alpha", "0.37",
            "--beta", "0.21", "--grid", "64", "--out", str(out)]
    main(args)
    first = out.read_bytes()
    main(args)
    assert out.read_bytes() == first


def test_curvature_nan_policy(tmp_path):
    out = tmp_path / "crit.csv"
    rc = main(["curvature", "--model", "walk1d", "--alpha", "0", "--beta",
               "0", "--grid", "64", "--out", str(out)])
    assert rc == 2
    assert any(",nan," in line for line in read_lines(out)[2:])


def test_curvature_strict_aborts(tmp_path):
    out = tmp_path / "strict.csv"
    rc = main(["curvature", "--model", "walk1d", "--alpha", "0", "--beta",
               "0", "--grid", "64", "--out", str(out), "--strict"])
    assert rc == 2
    assert not out.exists()


def test_curvature_alpha_sweep_one_file_each(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["curvature", "--model", "walk1d", "--alpha", "0.2,0.4",
               "--beta", "0", "--grid", "32", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "sweep_a0.csv").exists()
    assert (tmp_path / "sweep_a1.csv").exists()


def test_curvature_dirac_models(tmp_path):
    for model in ("dirac1d", "dirac2d"):
        out = tmp_path / ("%s.csv" % model)
        rc = main(["curvature", "--model", model, "--grid", "64",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_lines(out)) == 2 + 64


# --- exponents ---

def test_exponents_walk1d_json(tmp_path):
    out = tmp_path / "exp.json"
    rc = main(["exponents", "--model", "walk1d", "--beta", "0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["gamma"] - 1.0) < 0.02
    assert abs(doc["nu"] - 1.0) < 0.02
    assert doc["window"] == [1e-3, 1e-1]
    assert "gamma" in doc["errors"]


def test_exponents_malformed_window(tmp_path, capsys):
    rc = main(["exponents", "--model", "walk1d", "--window", "0.1,0.001",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["1e-3,abc", "1e-3", "1e-3,0.1,1"])
def test_exponents_window_that_is_no_pair_of_numbers(tmp_path, capsys,
                                                     window):
    # argparse names the type function of a flag that raises ValueError;
    # the window parser raises its own error, which names the rule
    rc = main(["exponents", "--window", window,
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: argument --window: expected two comma-separated "
                   "numbers 'lo,hi'\n")
    assert "_parse_window" not in err
    assert not (tmp_path / "x.json").exists()


def test_exponents_window_flag_and_config_write_the_same_bytes(tmp_path):
    # --window parses to a tuple and a config file gives a list; the echo
    # writes both as the same JSON list
    out = tmp_path / "exp.json"
    argv = ["exponents", "--model", "walk1d", "--out", str(out)]
    assert main(argv + ["--window", "1e-3,1e-1"]) == 0
    by_flag = out.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": [0.001, 0.1]}))
    assert main(argv + ["--config", str(cfg)]) == 0
    assert out.read_bytes() == by_flag
    assert json.loads(by_flag)["config"]["window"] == [0.001, 0.1]


@pytest.mark.parametrize("kc, alpha_c", [("0", -0.3), (repr(math.pi), 0.3)])
def test_exponents_walk1d_fits_the_transition_at_kc(tmp_path, kc, alpha_c):
    # at beta = 0.3 the k = 0 channel closes at alpha = -0.3 and the k = pi
    # channel at +0.3; a sweep from alpha = 0 approached neither
    out = tmp_path / "exp.json"
    assert main(["exponents", "--model", "walk1d", "--beta", "0.3", "--kc",
                 kc, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["alpha_c"] == alpha_c
    assert 0.99 <= doc["gamma"] <= 1.01
    assert 0.99 <= doc["nu"] <= 1.01


@pytest.mark.parametrize("argv, message", [
    # the window [1e-3, 0.1] crosses the alpha = 2 beta = 0.06 closing
    (["--model", "walk2d", "--beta", "0.03"], "nearer to another"),
    (["--model", "walk1d", "--beta", "0.3", "--kc", "1"],
     "k_c must be 0 or pi"),
])
def test_exponents_refuses_a_sweep_off_its_transition(tmp_path, capsys, argv,
                                                      message):
    out = tmp_path / "exp.json"
    assert main(["exponents"] + argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exponents_refuses_a_fit_on_zero_curvature(tmp_path, capsys):
    # phi carries the factor lam_b = sin(beta/2), so walk2d's curvature is
    # 0 at every momentum at beta = 0; the gap also closes on lines there,
    # which is refused before any sample is taken (the zero-sample PoorFit
    # of the fit itself is test_criticality's)
    out = tmp_path / "exp.json"
    assert main(["exponents", "--model", "walk2d", "--beta", "0",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("error: walk2d at beta = 0.0: the gap closes on lines of the "
            "zone at alpha_c = 0.0, not at a Dirac point" in err)
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1e-12", "6.283185307179586",
                                  "3.141592653589793"])
def test_exponents_refuses_walk2d_where_the_gap_closes_on_lines(
        tmp_path, capsys, beta):
    # at beta = 0 (mod pi) the loci alpha = -2 beta, 2 beta and 0 meet at
    # alpha_c = 0, and rho is cos(2 kx + 2 ky) or -cos(2 ky) there: the slice
    # peak's width does not scale, and the fit used to exit 0 with gamma near
    # 2 or 1 and a scaling residual of 1 to 2
    out = tmp_path / "exp.json"
    assert main(["exponents", "--model", "walk2d", "--beta", beta,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("error: walk2d at beta = %r: the gap closes on lines of the zone"
            % float(beta)) in err
    assert "not at a Dirac point; no exponent fit" in err
    assert not out.exists()


# --- correlation ---

def test_correlation_csv(tmp_path):
    out = tmp_path / "corr.csv"
    rc = main(["correlation", "--model", "walk1d", "--alpha", "0.2",
               "--beta", "0", "--rmax", "12", "--out", str(out)])
    assert rc == 0
    lines = read_lines(out)
    assert lines[1] == "R,F_tilde"
    assert len(lines) == 2 + 13


# --- crg ---

def test_crg_outputs(tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(["crg", "--model", "walk1d", "--grid", "64", "--out", str(out)])
    assert rc == 0
    for i in (0, 1):
        lines = read_lines(tmp_path / ("flow_hsp%d.csv" % i))
        assert lines[1] == "alpha,beta,dalpha_dl,dbeta_dl,log_rate,diverged"
        assert len(lines) == 2 + 64 * 64
    doc = json.loads((tmp_path / "flow.json").read_text())
    assert doc["critical_lines"]


def test_crg_threshold_flag(tmp_path):
    def n_vertices(threshold):
        out = tmp_path / ("t%s.csv" % threshold)
        main(["crg", "--model", "walk1d", "--grid", "64", "--threshold",
              threshold, "--out", str(out)])
        doc = json.loads((tmp_path / ("t%s.json" % threshold)).read_text())
        return sum(len(line["vertices"]) for line in doc["critical_lines"])

    assert n_vertices("100") <= n_vertices("10")


def test_crg_run_holds_no_grid_sized_array(tmp_path):
    # each block of rows is evaluated, written and screened for line
    # candidates, then dropped: the field of one HSP, six 512^2 arrays of
    # 10.25 MB, was held while its file was written, and a run traced about
    # 12 MB; the candidate mask, 0.25 MB, is the one grid-sized array
    argv = ["crg", "--model", "walk2d", "--out", str(tmp_path / "flow")]
    # the imports and the encoder's tables are made once per process
    assert main(argv + ["--grid", "64"]) == 0
    tracemalloc.start()
    try:
        assert main(argv + ["--grid", "512"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


# --- invariant ---

def test_invariant_json(tmp_path):
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--model", "walk1d", "--alpha", "0.8",
               "--beta", "1.0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rounded"] == -1
    assert doc["defect"] < 1e-6
    assert doc["N"] == 4096


def test_invariant_walk2d(tmp_path):
    out = tmp_path / "inv2.json"
    rc = main(["invariant", "--model", "walk2d", "--alpha", "1.5707963",
               "--beta", "1.5707963", "--grid", "128", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["rounded"] == -4


def test_invariant_integral_that_is_not_finite_exits_1(tmp_path, capsys):
    # 1e-9 from the alpha = beta gap line the walk1d integral was inf and
    # ended in an OverflowError traceback; it is finite now, but the inner
    # grid undersamples the peak and the integral is far from an integer
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--model", "walk1d", "--alpha", "0.370000001",
               "--beta", "0.37", "--out", str(out)])
    assert rc == 1
    assert re.fullmatch(r"error: integral \d+\.\d{6} is \d\.\d\de-0\d from "
                        r"an integer\n", capsys.readouterr().err)
    assert not out.exists()


def test_invariant_walk1d_outside_the_winding_range_exits_1(tmp_path,
                                                             capsys):
    # a one-point grid samples only the k = 0 peak of this gapped walk,
    # -kap_a / lam_a = -2e12, a whole number with defect 0; a walk1d
    # winding is -1, 0 or 1, so the cell fails to quantize
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--model", "walk1d", "--alpha", "1e-12",
               "--beta", "0", "--grid", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: integral -2000000000000.000000 rounds to -2000000000000, "
        "outside the walk1d winding range [-1, 1]\n")
    assert not out.exists()


@pytest.mark.parametrize("alpha", [0.3, 0.3 + 1e-11, 0.3 - 1e-11])
def test_curvature_and_invariant_share_one_gap(tmp_path, capsys, alpha):
    # one gap floor for every command: the curvature profile writes a NaN
    # row at k = pi exactly where the invariant reports a closed gap.  At
    # 1e-11 from the alpha = beta line |zeta(pi)|^2 is about 2.5e-23, a
    # gapped walk whose peak the invariant's grid undersamples
    curve, inv = tmp_path / "curve.csv", tmp_path / "inv.json"
    angles = ["--alpha=%r" % alpha, "--beta", "0.3"]
    rc = main(["curvature", "--model", "walk1d", "--grid", "64", *angles,
               "--out", str(curve)])
    rows = [line.split(",") for line in read_lines(curve)[2:]]
    k, f = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
    assert k[32] == np.pi
    capsys.readouterr()
    assert main(["invariant", "--model", "walk1d", *angles, "--out",
                 str(inv)]) == 1
    err = capsys.readouterr().err
    if alpha == 0.3:
        assert rc == 2
        assert np.isnan(f[32]) and np.count_nonzero(np.isnan(f)) == 1
        # k = pi is a high-symmetry point: the masses close the gap there
        assert err == "error: gap closed at a high-symmetry point\n"
    else:
        assert rc == 0
        assert np.all(np.isfinite(f)) and abs(f[32]) > 1e10
        assert re.fullmatch(r"error: integral -?\d+\.\d{6} is \d\.\d\de-0\d "
                            r"from an integer\n", err)
    assert not inv.exists()


# --- phase diagram ---

def test_phase_diagram_grid_contract(tmp_path):
    out = tmp_path / "pd.csv"
    rc = main(["phase-diagram", "--model", "walk1d", "--grid", "9",
               "--inner-grid", "512", "--out", str(out)])
    assert rc in (0, 2)
    lines = read_lines(out)
    assert lines[1] == "alpha,beta,raw,rounded"
    assert len(lines) == 2 + 81


def test_phase_diagram_boundaries_match_crg(tmp_path):
    # the invariant's sign changes along a fixed-beta sweep and the detected
    # flow-divergence lines both land on alpha = +-beta within one cell
    main(["crg", "--model", "walk1d", "--grid", "64",
          "--out", str(tmp_path / "flow.csv")])
    doc = json.loads((tmp_path / "flow.json").read_text())
    cell = 2 * np.pi / 64
    beta0 = 1.0

    near_beta0 = []
    for line in doc["critical_lines"]:
        for a, b in line["vertices"]:
            if abs(b - beta0) <= cell / 2 + 1e-12:
                near_beta0.append((a, b))
    assert near_beta0
    for a, b in near_beta0:
        assert min(abs(a - b), abs(a + b)) <= cell + 1e-9

    main(["phase-diagram", "--model", "walk1d", "--grid", "65",
          "--inner-grid", "1024", "--out", str(tmp_path / "pd.csv")])
    rows = [line.split(",") for line in read_lines(tmp_path / "pd.csv")[2:]]
    sweep = sorted((float(r[0]), r[3]) for r in rows
                   if abs(float(r[1]) - beta0) < 0.05 and r[3] != "nan")
    pd_cell = 2 * np.pi / 64
    changes = [0.5 * (sweep[i][0] + sweep[i + 1][0])
               for i in range(len(sweep) - 1)
               if sweep[i][1] != sweep[i + 1][1]]
    assert changes
    for a in changes:
        assert min(abs(a - beta0), abs(a + beta0)) <= pd_cell + 1e-9


def test_phase_diagram_regions_constant(tmp_path):
    out = tmp_path / "pd2.csv"
    main(["phase-diagram", "--model", "walk1d", "--grid", "17",
          "--inner-grid", "512", "--out", str(out)])
    rows = [line.split(",") for line in read_lines(out)[2:]]
    table = {(float(r[0]), float(r[1])): r[3] for r in rows}
    # deep inside the nontrivial wedge the invariant is constant
    inside = [v for (a, b), v in table.items()
              if abs(a) < 0.5 and 1.5 < b < 2.9 and v != "nan"]
    assert inside and len(set(inside)) == 1


# --- config file ---

def test_out_names_with_a_dot_keep_the_dot(tmp_path, capsys):
    # only a .csv or .json suffix is replaced: the rest of a dotted name
    # stays, so runs named after a parameter value do not collide
    assert main(["exponents", "--model", "walk1d", "--beta", "0",
                 "--points", "10", "--out", str(tmp_path / "ex_0.3")]) == 0
    for beta in ("0.1", "0.5"):
        assert main(["curvature", "--model", "walk1d", "--beta", beta,
                     "--grid", "16",
                     "--out", str(tmp_path / ("run_b" + beta))]) == 0
    assert main(["correlation", "--model", "walk1d", "--rmax", "3",
                 "--out", str(tmp_path / "corr.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corr.csv", "ex_0.3.json", "run_b0.1.csv", "run_b0.5.csv"]
    assert "beta\":0.5" in read_lines(tmp_path / "run_b0.5.csv")[0]


@pytest.mark.parametrize("out", [".", "", "sub/", "sub/.", ".."])
def test_out_that_names_no_file_exits_1(tmp_path, capsys, monkeypatch, out):
    # '.' and '' had no name to put the suffix on, and 'sub/' wrote
    # sub.json beside the directory; a flag and a config key are refused
    # alike, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": out}))
    want = ("error: out must be a path whose last part names a file, got %r\n"
            % out)
    for argv in (["--out", out], ["--config", str(cfg)]):
        assert main(["exponents", "--points", "10"] + argv) == 1
        assert capsys.readouterr().err == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_out_with_a_suffix_after_other_dots(tmp_path, capsys):
    # the .csv of a.b.csv is replaced, and the dot of a.b stays
    assert main(["exponents", "--points", "10",
                 "--out", str(tmp_path / "a.b.csv")]) == 0
    assert capsys.readouterr().out == str(tmp_path / "a.b.json") + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.b.json"]


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "walk1d", "alpha": [0.8],
                               "beta": 1.0, "grid": 2048}))
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["N"] == 2048
    # flag overrides the config value
    rc = main(["invariant", "--config", str(cfg), "--grid", "1024",
               "--out", str(out)])
    assert json.loads(out.read_text())["N"] == 1024


# --- NaN policy: causes ---

def test_phase_diagram_nan_rows_counted_by_cause(tmp_path, capsys):
    # the 4 cells whose integral does not quantize at inner grid 96 hold
    # the plaquette's integer, and are counted in a note, not as NaN rows
    rc = main(["phase-diagram", "--model", "walk2d", "--grid", "19",
               "--out", str(tmp_path / "pd.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "warning: NaN rows written (51 ZeroGap)" in err
    assert "note: 4 cells' integrals lie 0.001 or more from their integer" \
        in err
    assert "QuantizationFailure" not in err
    assert "OracleMismatch" not in err


def read_diagram(path):
    """(alpha, beta, raw, rounded) columns of a phase-diagram CSV."""
    return np.array([[float(x) for x in line.split(",")]
                     for line in read_lines(path)[2:]]).T


def test_phase_diagram_walk2d_defines_every_gapped_cell(tmp_path, capsys):
    # the 33 x 33 benchmark diagram at inner grid 96: the plaquette gives
    # every gapped cell its integer, equal to the HSP mass-sign count, and
    # NaN rows are exactly the cells where some HSP mass^2 is below the gap
    # floor; the 128 cells whose integral does not quantize are a note
    out = tmp_path / "pd.csv"
    assert main(["phase-diagram", "--model", "walk2d", "--grid", "33",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "warning: NaN rows written (93 ZeroGap)" in err
    assert "note: 128 cells' integrals lie 0.001 or more" in err
    alpha, beta, raw, rounded = read_diagram(out)
    count = WALK_2D.invariant_from_masses(alpha, beta)
    gapped = ~np.isnan(count)
    assert gapped.sum() == 996
    assert np.array_equal(np.isnan(rounded), ~gapped)
    assert np.array_equal(np.isnan(raw), ~gapped)
    assert np.array_equal(rounded[gapped], count[gapped])
    loose = np.abs(raw - rounded)[gapped] >= invariants.DEFECT_LIMIT
    assert loose.sum() == 128


@pytest.mark.parametrize("model, grid, inner", [
    ("walk1d", 9, "64"), ("walk2d", 9, "32"),
])
def test_phase_diagram_wrong_count_is_one_oracle_mismatch_row(
        tmp_path, monkeypatch, capsys, model, grid, inner):
    # the count moved off the right integer in one gapped cell: that cell,
    # and only it, is an OracleMismatch NaN row, and the exit code is 2
    walk = WALKS[model]
    count = type(walk).invariant_from_masses

    def wrong_in_one_cell(alpha, beta):
        got = count(alpha, beta)
        if np.size(got) == grid * grid:
            got[cell] += 1.0
        return got

    out = tmp_path / "pd.csv"
    main(["phase-diagram", "--model", model, "--grid", str(grid),
          "--inner-grid", inner, "--out", str(out)])
    capsys.readouterr()
    want = read_diagram(out)
    cell = np.flatnonzero(np.isfinite(want[3]))[grid]
    monkeypatch.setattr(type(walk), "invariant_from_masses",
                        staticmethod(wrong_in_one_cell))
    assert main(["phase-diagram", "--model", model, "--grid", str(grid),
                 "--inner-grid", inner, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1 OracleMismatch" in err
    got = read_diagram(out)
    changed = np.flatnonzero(~np.isclose(got[2:], want[2:],
                                         equal_nan=True).all(axis=0))
    assert changed.tolist() == [cell]
    assert np.isnan(got[2:, cell]).all()


def test_phase_diagram_walk2d_inner_grid_must_hold_the_hsps(tmp_path,
                                                            capsys):
    # N = 2 (mod 4) puts no torus point on the kx = pi/2 high-symmetry
    # points, where the plaquette's integer was wrong near the loci; a
    # walk1d inner grid may be any size
    for n in ("98", "30", "33"):
        assert main(["phase-diagram", "--model", "walk2d", "--grid", "3",
                     "--inner-grid", n, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: inner-grid must be a multiple of 4 for "
                       "walk2d, so that the torus holds the high-symmetry "
                       "points, got %s\n" % n)
    assert not list(tmp_path.iterdir())
    assert main(["phase-diagram", "--model", "walk2d", "--grid", "3",
                 "--inner-grid", "16", "--out", str(tmp_path / "x")]) == 2
    assert main(["phase-diagram", "--model", "walk1d", "--grid", "3",
                 "--inner-grid", "97", "--out", str(tmp_path / "y")]) == 2


def test_invariant_walk2d_grid_must_hold_the_hsps(tmp_path, capsys):
    # the rule of the walk2d phase diagram's inner grid: a torus of N = 2 or
    # 3 misses the kx = pi/2 high-symmetry points, and its plaquette integer
    # disagreed with the HSP mass-sign count; a walk1d grid may be any size
    for n in ("2", "3", "6", "30"):
        assert main(["invariant", "--model", "walk2d", "--grid", n,
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: grid must be a multiple of 4 for walk2d, so "
                       "that the torus holds the high-symmetry points, got "
                       "%s\n" % n)
    assert not list(tmp_path.iterdir())
    for model, n in (("walk2d", "64"), ("walk1d", "63")):
        assert main(["invariant", "--model", model, "--alpha", "1.5707963",
                     "--beta", "0.3", "--grid", n,
                     "--out", str(tmp_path / model)]) == 0


def test_phase_diagram_integral_that_is_not_finite_is_a_nan_row(
        tmp_path, monkeypatch, capsys):
    # a walk1d cell at alpha = beta + 1e-9 fails to quantize: the kernel,
    # given that cell in place of the diagram's (0, pi/2), fails it, and
    # the CLI writes it as a NaN row counted under QuantizationFailure
    kernel = invariants.winding_numbers_1d
    moved = 0.37

    def with_one_cell_moved(alpha, beta, n_grid):
        alpha, beta = np.array(alpha), np.array(beta)
        cell = np.flatnonzero((alpha == 0.0) & (beta == np.pi / 2))[0]
        alpha[cell], beta[cell] = moved + 1e-9, moved
        return kernel(alpha, beta, n_grid)

    monkeypatch.setattr(invariants, "winding_numbers_1d", with_one_cell_moved)
    out = tmp_path / "pd.csv"
    assert main(["phase-diagram", "--model", "walk1d", "--grid", "5",
                 "--inner-grid", "4096", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1 QuantizationFailure" in err
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert rows[2 * 5 + 3][2:] == ["nan", "nan"]
    monkeypatch.setattr(invariants, "winding_numbers_1d", kernel)
    assert main(["phase-diagram", "--model", "walk1d", "--grid", "5",
                 "--inner-grid", "4096", "--out", str(out)]) == 2
    assert "QuantizationFailure" not in capsys.readouterr().err
    rows = [line.split(",") for line in read_lines(out)[2:]]
    assert rows[2 * 5 + 3][2:] == ["-1", "-1"]


def test_curvature_nan_rows_name_zero_gap(tmp_path, capsys):
    rc = main(["curvature", "--model", "walk1d", "--alpha", "0", "--beta",
               "0", "--grid", "64", "--out", str(tmp_path / "crit.csv")])
    assert rc == 2
    assert "ZeroGap" in capsys.readouterr().err


@pytest.mark.parametrize("model, alpha, beta", [
    ("walk1d", 0.3, -0.3),  # alpha = -beta: closes at k = 0
    ("walk1d", 0.3, 0.3),  # alpha = beta: at k = pi
    ("walk1d", 0.0, 0.0),  # both
    ("walk2d", -0.8, 0.4),  # alpha = -2 beta: at (0, 0) and (pi, -pi)
    ("walk2d", 0.0, 0.4),  # alpha = 0: at kx = pi/2 and 3 pi/2
    ("walk2d", 0.0, 0.0),  # beta = 0: on lines, at every momentum
])
def test_curvature_nan_rows_are_where_the_validated_curvature_raises(
        tmp_path, capsys, model, alpha, beta):
    # the NaN rows of a walk profile are exactly its momenta where the
    # validated curvature raises ZeroGap, counted as ZeroGap, with exit 2
    # (the alpha = 2 beta family of walk2d closes at (0, pi/2), off the
    # ky = -kx slice)
    out = tmp_path / "crit.csv"
    assert main(["curvature", "--model", model, "--alpha", str(alpha),
                 "--beta", str(beta), "--grid", "64", "--out", str(out)]) == 2
    p = WalkParams(alpha, beta)
    k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    raises = []
    for x in k:
        try:
            if model == "walk1d":
                walk1d.rotated_curvature_1d(np.array([x]), p)
            else:
                walk2d.curvature_grid_2d(np.array([x]), np.array([-x]), p)
            raises.append(False)
        except ZeroGap:
            raises.append(True)
    column = 1 if model == "walk1d" else 2
    nan = [line.split(",")[column] == "nan" for line in read_lines(out)[2:]]
    assert nan == raises
    assert "(%d ZeroGap)" % sum(raises) in capsys.readouterr().err


def test_phase_diagram_rounds_a_raw_below_zero_to_0(tmp_path):
    # cells on the alpha = -pi row integrate to about -1e-32; the rounded
    # column writes the 0 of InvariantResult.rounded, never -0
    out = tmp_path / "pd.csv"
    assert main(["phase-diagram", "--model", "walk1d", "--grid", "17",
                 "--inner-grid", "64", "--out", str(out)]) == 2
    rows = [line.split(",") for line in read_lines(out)[2:]]
    tiny = [r for r in rows if r[2] != "nan" and -1e-20 < float(r[2]) < 0]
    assert tiny
    assert {r[3] for r in tiny} == {"0"}
    assert "-0" not in {r[3] for r in rows}


def test_phase_diagram_strict_writes_nothing(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    rc = main(["phase-diagram", "--model", "walk1d", "--grid", "9",
               "--out", str(out), "--strict"])
    assert rc == 2
    assert not out.exists()
    assert "ZeroGap" in capsys.readouterr().err


# --- input validation ---

@pytest.mark.parametrize("argv, config, key", [
    (["invariant", "--model", "walk1d", "--alpha="], None, "alpha"),
    (["invariant"], {"alpha": []}, "alpha"),
    (["curvature", "--grid", "0"], None, "grid"),
    (["phase-diagram", "--grid", "0"], None, "grid"),
    (["invariant", "--grid", "0"], None, "grid"),
    (["crg"], {"grid": 0}, "grid"),
    (["phase-diagram", "--inner-grid", "0"], None, "inner-grid"),
    (["exponents", "--points", "0"], None, "points"),
    (["correlation", "--rmax=-1"], None, "rmax"),
    (["correlation"], {"rmax": -1}, "rmax"),
    (["invariant"], {"grid": None}, "grid"),
    (["invariant"], {"grid": 2.7}, "grid"),
    (["invariant"], {"grid": True}, "grid"),
    (["invariant"], {"alpha": ["x"]}, "alpha"),
    (["invariant"], {"alpha": [0.3, True]}, "alpha"),
    (["invariant"], {"alpha": [float("nan")]}, "alpha"),
    (["invariant"], {"beta": "x"}, "beta"),
    (["crg"], {"threshold": False}, "threshold"),
    (["crg", "--threshold", "nan"], None, "threshold"),
    (["curvature", "--model", "dirac1d", "--mass", "inf"], None, "mass"),
    (["exponents"], {"window": [0.1]}, "window"),
    (["exponents"], {"window": ["a", 1]}, "window"),
    (["invariant"], {"model": ["walk1d"]}, "model"),
    (["phase-diagram"], {"strict": "no"}, "strict"),
    (["exponents", "--points", "9"], None, "points"),
    (["invariant", "--model", "walk1d", "--alpha=0.3,0.9"], None, "alpha"),
    (["phase-diagram", "--model", "walk1d", "--alpha=0.3,0.9"], None, "alpha"),
    (["phase-diagram", "--beta", "0.5"], None, "beta"),
    (["phase-diagram"], {"beta": 0.0}, "beta"),
    (["crg", "--alpha", "0.3"], None, "alpha"),
    (["crg"], {"beta": 1.0}, "beta"),
    (["exponents", "--alpha", "0.3"], None, "alpha"),
    (["exponents"], {"alpha": [0.3]}, "alpha"),
    (["curvature", "--model", "dirac1d", "--alpha", "0.3"], None, "alpha"),
    (["curvature", "--model", "dirac2d"], {"beta": 0.5}, "beta"),
    (["curvature", "--model", "walk1d", "--mass", "2"], None, "mass"),
    (["curvature", "--model", "walk2d", "--kmax", "5"], None, "kmax"),
    (["exponents", "--model", "walk2d", "--kc", "0"], None, "kc"),
    (["exponents", "--grid", "64"], None, "grid"),
    (["correlation"], {"inner-grid": 8}, "inner-grid"),
    (["crg"], {"rmax": 3}, "rmax"),
    (["phase-diagram"], {"threshold": 3.0}, "threshold"),
    (["invariant", "--model", "walk1d"],
     {"threshold": 5, "kc": 3.0, "mass": 2.0}, "threshold"),
    (["invariant"], {"points": 12}, "points"),
    (["invariant"], {"colour": "red"}, "colour"),
    # a threshold of 0 or below made every cell a candidate: one line
    # through every column of every HSP
    (["crg", "--threshold", "0"], None, "threshold"),
    (["crg", "--threshold=-5"], None, "threshold"),
    (["crg"], {"threshold": 0.0}, "threshold"),
    # every command parses every option, so an unread flag is refused by
    # the check that refuses an unread config key, not by the parser
    (["curvature", "--window", "0.1,1"], None, "window"),
    (["exponents", "--mass", "2"], None, "mass"),
    (["invariant", "--rmax", "3"], None, "rmax"),
    (["crg", "--inner-grid", "8"], None, "inner-grid"),
    (["crg", "--model", "dirac1d"], None, "model"),
    (["phase-diagram"], {"model": "dirac2d"}, "model"),
    # only curvature and phase-diagram write NaN rows, so only they read
    # --strict; the other commands echoed it and exited 0
    (["exponents", "--strict"], None, "strict"),
    (["invariant", "--strict"], None, "strict"),
    (["correlation"], {"strict": True}, "strict"),
    (["crg", "--grid", "64", "--strict"], None, "strict"),
    # the least crg grid is in the option table, not only in crg.grid_axes
    (["crg", "--grid", "10"], None, "grid"),
    # a walk2d torus that does not hold the high-symmetry points
    (["phase-diagram", "--model", "walk2d", "--inner-grid", "98"], None,
     "inner-grid"),
    (["phase-diagram", "--model", "walk2d"], {"inner-grid": 6},
     "inner-grid"),
])
def test_invalid_input_exits_1_naming_the_key(tmp_path, capsys, argv,
                                              config, key):
    argv = argv + ["--out", str(tmp_path / "x")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s " % key)
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["cfg.json"] if config is not None else [])


@pytest.mark.parametrize("argv, echoed", [
    (["crg", "--model", "walk1d", "--grid", "64"], ["grid", "hsp"]),
    (["phase-diagram", "--model", "walk1d", "--grid", "3", "--inner-grid",
      "64"], ["grid", "inner-grid", "strict"]),
    (["exponents", "--model", "walk2d", "--points", "10"],
     ["beta", "points"]),
    (["curvature", "--model", "dirac1d", "--grid", "16"], ["grid", "strict"]),
], ids=["crg", "phase-diagram", "exponents-walk2d", "curvature-dirac1d"])
def test_config_echo_holds_only_what_the_command_reads(tmp_path, argv,
                                                       echoed):
    # crg and phase-diagram scan their own angles, exponents sweeps alpha
    # and the Dirac models take no angle: each echoed an alpha of 0.3 (and
    # a beta) that it never read; crg and exponents write no NaN rows and
    # echoed a strict that they never read
    assert main(argv + ["--out", str(tmp_path / "x")]) in (0, 2)
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == (3 if argv[0] == "crg" else 1)
    for path in paths:
        if path.suffix == ".json":
            echo = json.loads(path.read_text())["config"]
        else:
            echo = json.loads(read_lines(path)[0].split(" config=", 1)[1])
        assert sorted(echo) == sorted(["model", "out"] + [
            key for key in echoed if key != "hsp" or path.suffix == ".csv"])
        assert echo.get("beta", np.pi / 2) == np.pi / 2


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_the_options_the_command_reads(capsys, command):
    # every option is registered on every command; its help and usage show
    # only the options it reads
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage, options = capsys.readouterr().out.split("\n\n", 1)
    want = {"--model", "--out", "--config"} | {
        "--" + key for key in READS[command]}
    flags = re.compile(r"--[a-z][a-z-]*")
    assert set(flags.findall(usage)) == want
    assert set(flags.findall(options)) == want | {"--help"}


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_directory_in_place_of_a_file_exits_1(tmp_path, capsys, flag):
    # a directory where the config file or the output file should be
    (tmp_path / "x.json").mkdir()
    argv = ["invariant", "--model", "walk1d", "--grid", "64"]
    if flag == "--config":
        argv += ["--config", str(tmp_path / "x.json"),
                 "--out", str(tmp_path / "y")]
    else:
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["crg", "--mass", "2"], ["crg", "--bogus"], ["invariant", "--grid", "abc"],
    [],
], ids=["unread-flag", "unknown-flag", "bad-int", "no-command"])
def test_parse_errors_exit_1_with_one_error_line(tmp_path, monkeypatch,
                                                 capsys, argv):
    # argparse would print its usage text and exit 2, the NaN-rows code
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in out + err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 PiB for an array"),
     "error: Unable to allocate 74.5 PiB for an array\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_1_with_one_error_line(tmp_path, monkeypatch,
                                                  capsys, exc, message):
    # a grid too large to allocate ended in a traceback
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(crg, "flow_field", no_memory)
    assert main(["crg", "--model", "walk1d", "--grid", "64",
                 "--out", str(tmp_path / "flow")]) == 1
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


# a refused flag, then every command, small enough to run in a second
ONE_PROCESS_CALLS = [
    ["crg", "--mass", "2"],
    ["curvature", "--model", "walk2d", "--grid", "16"],
    ["exponents", "--points", "10"],
    ["correlation", "--rmax", "4", "--grid", "64"],
    ["crg", "--model", "walk1d", "--grid", "64"],
    ["invariant", "--model", "walk2d", "--grid", "96"],
    ["phase-diagram", "--grid", "5", "--inner-grid", "8"],
    ["invariant", "--alpha=0.3,0.9"],
]


def _run_calls(tmp_path, capsys, fresh_parser):
    """(exit code, stdout, stderr) of each of ONE_PROCESS_CALLS, made in
    ``tmp_path``, and the bytes of every file they wrote."""
    os.chdir(tmp_path)
    seen = []
    for idx, argv in enumerate(ONE_PROCESS_CALLS):
        if fresh_parser:
            build_parser.cache_clear()
        code = main(argv + ["--out", "run%d" % idx])
        seen.append((code, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return seen, files


def test_one_process_runs_every_command_as_separate_calls(tmp_path, capsys,
                                                          monkeypatch):
    # the parser built once serves a refused flag and then every command
    # as a parser built for each call does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "once").mkdir()
    (tmp_path / "each").mkdir()
    once = _run_calls(tmp_path / "once", capsys, fresh_parser=False)
    each = _run_calls(tmp_path / "each", capsys, fresh_parser=True)
    assert once == each
    codes = [code for code, _, _ in once[0]]
    assert codes == [1, 0, 0, 0, 0, 0, 2, 1]


def test_benchmark_commands_are_valid(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for workload in run.WORKLOADS.values():
        for smoke in (False, True):
            for argv in workload(8803, smoke):
                args = build_parser().parse_args(argv)
                _defaults(_merge_config(args), args.command)


# --- CSV byte format ---

def _reference_table(colnames, rows) -> bytes:
    """Column line and rows rendered value by value: bool as 1/0, float
    with 17 significant digits, NaN as nan, int as its digits."""
    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return "nan" if math.isnan(v) else "%.17g" % v
        return str(v)

    lines = [",".join(colnames)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _table_bytes(path) -> bytes:
    """A CSV file's bytes after its config comment line."""
    return path.read_bytes().split(b"\n", 1)[1]


def test_csv_bytes_crg_bool_column(tmp_path):
    grid = 64
    main(["crg", "--model", "walk1d", "--grid", str(grid),
          "--out", str(tmp_path / "flow.csv")])
    for idx, hsp in enumerate(WALK_1D.hsps()):
        field = crg.flow_field(WALK_1D, hsp, grid)
        rows = [(float(field.axes[i]), float(field.axes[j]),
                 float(field.dalpha[i, j]), float(field.dbeta[i, j]),
                 float(field.log_rate[i, j]), bool(field.diverged[i, j]))
                for i in range(grid) for j in range(grid)]
        assert {row[5] for row in rows} == {False, True}
        expected = _reference_table(
            ("alpha", "beta", "dalpha_dl", "dbeta_dl", "log_rate",
             "diverged"), rows)
        assert _table_bytes(tmp_path / ("flow_hsp%d.csv" % idx)) == expected


@pytest.mark.parametrize("model", ["walk1d", "walk2d"])
def test_crg_files_match_the_field_of_every_hsp_at_once(tmp_path, model):
    # crg evaluates, writes and searches one high-symmetry point at a time;
    # its files are those of the flow field and the lines of every HSP
    grid = 64
    argv = ["crg", "--model", model, "--grid", str(grid),
            "--out", str(tmp_path / "run" / "flow")]
    (tmp_path / "run").mkdir()
    assert main(argv) == 0
    _, echo = _defaults(_merge_config(build_parser().parse_args(argv)),
                        "crg")
    ref = tmp_path / "ref"
    ref.mkdir()
    lines = []
    for idx, hsp in enumerate(WALKS[model].hsps()):
        field = crg.flow_field(WALKS[model], hsp, grid)
        write_csv(ref / ("flow_hsp%d.csv" % idx), topocrit.__version__,
                  {**echo, "hsp": list(field.hsp)},
                  [{**_grid_columns(field.axes, field.axes),
                    "dalpha_dl": field.dalpha.ravel(),
                    "dbeta_dl": field.dbeta.ravel(),
                    "log_rate": field.log_rate.ravel(),
                    "diverged": field.diverged.ravel()}])
        found = crg.LineCandidates(field.axes, field.hsp,
                                   crg.DETECT_RATE_THRESHOLD)
        found.add(field)
        lines += crg.detect_critical_lines(found)
    assert lines
    write_json(ref / "flow.json", topocrit.__version__, echo,
               {"critical_lines": [
                   {"hsp": list(line.hsp),
                    "vertices": [[float(a), float(b)]
                                 for a, b in line.vertices]}
                   for line in lines]})
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        assert (tmp_path / "run" / name).read_bytes() == (
            ref / name).read_bytes(), name


def test_csv_bytes_correlation_int_column(tmp_path):
    out = tmp_path / "corr.csv"
    main(["correlation", "--model", "walk1d", "--alpha", "0.2", "--beta",
          "0", "--rmax", "12", "--out", str(out)])
    series = correlation.wannier_correlation_1d(
        WalkParams(0.2, 0.0), 12, correlation.DEFAULT_N_CORR_1D)
    rows = [(int(r), float(v))
            for r, v in zip(series.displacements, series.values)]
    assert _table_bytes(out) == _reference_table(("R", "F_tilde"), rows)


# winding_number_1d shares the row kernel, so each raw is also pinned to the
# sum of the one-cell scalar route, rotated_curvature_1d.
@pytest.mark.parametrize("flags, grid, inner", [
    (["--grid", "9"], 9, 512),
    (["--grid", "40", "--inner-grid", "8"], 40, 8),
], ids=["grid9", "grid40-inner8"])
def test_csv_bytes_phase_diagram_int_and_nan_column(tmp_path, flags, grid,
                                                    inner):
    out = tmp_path / "pd.csv"
    main(["phase-diagram", "--model", "walk1d", *flags, "--out", str(out)])
    axes = np.linspace(-np.pi, np.pi, grid)
    k = np.linspace(0.0, 2.0 * np.pi, inner, endpoint=False)
    rows = []
    for a in axes:
        for b in axes:
            p = WalkParams(float(a), float(b))
            try:
                res = invariants.winding_number_1d(p, inner)
                scalar = float(np.sum(walk1d.rotated_curvature_1d(k, p))
                               / inner)
                assert res.raw == scalar
                rows.append((float(a), float(b), res.raw, res.rounded))
            except TopocritError:
                rows.append((float(a), float(b), float("nan"), float("nan")))
    assert {type(row[3]) for row in rows} == {int, float}
    assert _table_bytes(out) == _reference_table(
        ("alpha", "beta", "raw", "rounded"), rows)


def test_csv_bytes_curvature_nan_rows(tmp_path):
    out = tmp_path / "crit.csv"
    main(["curvature", "--model", "walk1d", "--alpha", "0", "--beta", "0",
          "--grid", "64", "--out", str(out)])
    k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    with np.errstate(all="ignore"):
        f, norm2 = WALK_1D.curvature_raw(k, 0.0, 0.0)
    f = np.where(below_gap_floor(norm2), np.nan, f)
    e = walk1d.energy_1d(k, WalkParams(0.0, 0.0))
    rows = [(float(k[i]), float(f[i]), float(e[i])) for i in range(64)]
    assert any(math.isnan(row[1]) for row in rows)
    assert _table_bytes(out) == _reference_table(("k", "F", "E_upper"), rows)


def test_crg_table_write_holds_no_grid_sized_columns(tmp_path):
    # the alpha and beta index columns were two 2 MB int64 arrays at 512^2,
    # and each chunk concatenated fresh canvases: about 7 MB in all; the
    # chunk indices now come from the row numbers, into one block per file
    field = crg.flow_field(WALK_2D, WALK_2D.hsps()[0], 512)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "flow.csv", "0", {},
                  [{**_grid_columns(field.axes, field.axes),
                    "dalpha_dl": field.dalpha.ravel(),
                    "dbeta_dl": field.dbeta.ravel(),
                    "log_rate": field.log_rate.ravel(),
                    "diverged": field.diverged.ravel()}])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_write_csv_grid_columns_match_numeric(tmp_path):
    alphas = np.linspace(-np.pi, np.pi, 7)
    betas = np.array([-0.0, 0.1, 1e-300, np.nan, 2.5])
    values = np.arange(35) / 3.0
    numeric = {"alpha": np.repeat(alphas, 5), "beta": np.tile(betas, 7),
               "v": values}
    formatted = {**_grid_columns(alphas, betas), "v": values}
    assert isinstance(formatted["alpha"], Indexed)
    write_csv(tmp_path / "numeric.csv", "0", {}, [numeric])
    write_csv(tmp_path / "formatted.csv", "0", {}, [formatted])
    assert ((tmp_path / "formatted.csv").read_bytes()
            == (tmp_path / "numeric.csv").read_bytes())


def test_write_csv_conversion_per_dtype(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, "0", {}, [{"flag": np.array([True, False, True]),
                              "n": np.array([0, -7, 10 ** 17]),
                              "x": np.array([np.nan, -0.0, 0.1])}])
    assert "%.17g" % -0.0 == "-0" and "%.17g" % np.nan == "nan"
    assert _table_bytes(out) == (b"flag,n,x\n"
                                 b"1,0,nan\n"
                                 b"0,-7,-0\n"
                                 b"1,100000000000000000,0.10000000000000001\n")


# --- what a command imports ---

_IMPORT_PROBE = """
import json, sys
import topocrit.cli
codes = [topocrit.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _run_and_list_scipy(tmp_path, commands):
    """Exit codes of ``commands`` run in a fresh interpreter, and the scipy
    modules it has loaded afterwards."""
    src = str(Path(topocrit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], set(result["scipy"])


def test_cli_commands_other_than_crg_load_no_scipy(tmp_path):
    codes, loaded = _run_and_list_scipy(tmp_path, [
        ["curvature", "--model", "walk1d", "--grid", "64"],
        ["curvature", "--model", "dirac2d", "--grid", "64"],
        ["exponents", "--model", "walk1d", "--beta", "0", "--points", "10"],
        ["exponents", "--model", "walk2d", "--points", "10"],
        ["correlation", "--model", "walk1d", "--rmax", "5", "--grid", "64"],
        ["invariant", "--model", "walk1d"],
        ["phase-diagram", "--model", "walk1d", "--grid", "3",
         "--inner-grid", "64"],
    ])
    # the 3 x 3 phase diagram has gapless cells, written as NaN (exit 2)
    assert codes == [0, 0, 0, 0, 0, 0, 2]
    assert loaded == set()


def test_crg_loads_only_scipy_ndimage(tmp_path):
    codes, loaded = _run_and_list_scipy(
        tmp_path, [["crg", "--model", "walk2d", "--grid", "64"]])
    assert codes == [0]
    assert "scipy.ndimage" in loaded
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                   for m in loaded)

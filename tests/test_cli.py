import json
import math

import numpy as np
import pytest

from topocrit import correlation, crg, invariants, walk1d
from topocrit.cli import main
from topocrit.errors import TopocritError
from topocrit.models import WALK_1D
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
        rc = main(["curvature", "--model", model, "--alpha", "0", "--grid",
                   "64", "--out", str(out)])
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
    rc = main(["phase-diagram", "--model", "walk2d", "--grid", "19",
               "--out", str(tmp_path / "pd.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "51 ZeroGap" in err
    assert "4 QuantizationFailure" in err
    assert "OracleMismatch" not in err


def test_curvature_nan_rows_name_zero_gap(tmp_path, capsys):
    rc = main(["curvature", "--model", "walk1d", "--alpha", "0", "--beta",
               "0", "--grid", "64", "--out", str(tmp_path / "crit.csv")])
    assert rc == 2
    assert "ZeroGap" in capsys.readouterr().err


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
    (["invariant"], {"strict": "no"}, "strict"),
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
    field = crg.flow_field(WALK_1D, grid=grid)
    for idx, hsp in enumerate(field.hsps):
        key = crg._hsp_key(hsp)
        rows = [(float(field.alphas[i]), float(field.betas[j]),
                 float(field.dalpha[key][i, j]),
                 float(field.dbeta[key][i, j]),
                 float(field.log_rate[key][i, j]),
                 bool(field.diverged[key][i, j]))
                for i in range(grid) for j in range(grid)]
        assert {row[5] for row in rows} == {False, True}
        expected = _reference_table(
            ("alpha", "beta", "dalpha_dl", "dbeta_dl", "log_rate",
             "diverged"), rows)
        assert _table_bytes(tmp_path / ("flow_hsp%d.csv" % idx)) == expected


def test_csv_bytes_correlation_int_column(tmp_path):
    out = tmp_path / "corr.csv"
    main(["correlation", "--model", "walk1d", "--alpha", "0.2", "--beta",
          "0", "--rmax", "12", "--out", str(out)])
    series = correlation.wannier_correlation_1d(
        WalkParams(0.2, 0.0), 12, correlation.DEFAULT_N_CORR_1D)
    rows = [(int(r), float(v))
            for r, v in zip(series.displacements, series.values)]
    assert _table_bytes(out) == _reference_table(("R", "F_tilde"), rows)


def test_csv_bytes_phase_diagram_int_and_nan_column(tmp_path):
    out = tmp_path / "pd.csv"
    main(["phase-diagram", "--model", "walk1d", "--grid", "9",
          "--out", str(out)])
    axes = np.linspace(-np.pi, np.pi, 9)
    rows = []
    for a in axes:
        for b in axes:
            try:
                res = invariants.winding_number_1d(
                    WalkParams(float(a), float(b)), 512)
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
        f = walk1d._curvature_raw_1d(k, 0.0, 0.0)
    f = np.where(np.isfinite(f), f, np.nan)
    e = walk1d.energy_1d(k, WalkParams(0.0, 0.0))
    rows = [(float(k[i]), float(f[i]), float(e[i])) for i in range(64)]
    assert any(math.isnan(row[1]) for row in rows)
    assert _table_bytes(out) == _reference_table(("k", "F", "E_upper"), rows)

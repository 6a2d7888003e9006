import math
import tracemalloc

import numpy as np
import pytest

from topocrit import output
from topocrit.output import (CSV_CHUNK_ROWS, Indexed, header_comment,
                             write_csv)

CONFIG = {"model": "walk1d", "grid": 3}


AXIS = np.array([-0.0, 1e-300, np.nan, 0.1, -2.5, 3.0])


def _columns(n_rows: int) -> dict:
    """A float column with NaN and -0, bool and int columns, and two
    Indexed columns whose rows repeat the values of AXIS: row i holds
    AXIS[i % 6] and AXIS[i // 7 % 6], as the beta and alpha columns of a
    grid scan hold theirs."""
    x = np.linspace(-1.0, 1.0, n_rows) / 3.0
    x[::7] = np.nan
    x[1::11] = -0.0
    return {"x": x,
            "flag": np.arange(n_rows) % 3 == 0,
            "n": np.arange(n_rows, dtype=np.int64) - n_rows // 2,
            "s": Indexed(AXIS, n_rows),
            "t": Indexed(AXIS, n_rows, every=7)}


# chunk boundaries several chunks in, and a run of whole chunks
@pytest.mark.parametrize("n_rows", [
    0, 1, 4 * CSV_CHUNK_ROWS - 1, 4 * CSV_CHUNK_ROWS, 4 * CSV_CHUNK_ROWS + 1,
    10 * CSV_CHUNK_ROWS,
])
def test_write_csv_bytes_match_one_shot_format(tmp_path, n_rows):
    columns = _columns(n_rows)
    path = tmp_path / "t.csv"
    write_csv(path, "1.0", CONFIG, columns)
    i = np.arange(n_rows)
    rows = zip(*(col.tolist() for col in columns.values()
                 if not isinstance(col, Indexed)),
               AXIS[i % 6].tolist(), AXIS[i // 7 % 6].tolist())
    expected = (header_comment("1.0", CONFIG) + "\nx,flag,n,s,t\n"
                + "".join("%.17g,%d,%d,%.17g,%.17g\n" % row for row in rows))
    assert path.read_bytes() == expected.encode()
    assert len(path.read_text().splitlines()) == 2 + n_rows


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # formatting every row at once held each column as Python values:
    # about 26 MB for this table; one chunk of rows takes about 3 MB
    n_rows = 1 << 18
    x = np.arange(n_rows) / 8.0
    columns = {"a": x, "b": -x, "c": x + 0.5, "d": x % 2.0 < 1.0}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", "1.0", CONFIG, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


# --- the encoder against Python's own formatting ---

def _table_bytes(path) -> bytes:
    """A CSV file's bytes after its config comment and column lines."""
    return path.read_bytes().split(b"\n", 2)[2]


def _halfway_ties():
    """Doubles m * 2**-k whose exact decimal value has 18 significant
    digits, the last a 5: '%.17g' rounds them half to even.  Below 1e-6
    the encoder's power of ten is inexact and they take the fallback."""
    ties = []
    for k in range(2, 26):
        lo = -(-10 ** 17 // 5 ** k) | 1  # the first odd m at or above
        hi = min(10 ** 18 // 5 ** k, 2 ** 53)
        ties += [math.ldexp(m, -k) for m in range(lo, hi, 2)[:400]]
    return np.array(ties)


def test_float_encoder_matches_percent_17g(tmp_path, monkeypatch):
    rng = np.random.default_rng(2024)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        125_000, dtype=np.int64, endpoint=True)
    tens = np.array([float("1e%d" % k) for k in range(-307, 309)])
    ties = _halfway_ties()
    exact = np.concatenate([
        np.arange(-30_000, 30_000, dtype=np.float64),
        np.ldexp(1.0, np.arange(0, 64)) + 1.0,
        np.array([2.0 ** 53, 2.0 ** 53 - 1, 1e16, 1e17 - 16, 9e15, 1e22]),
        ties[ties >= 1e-6],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
    ])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, 1e-300, -1e300])
    signs = rng.choice([-1.0, 1.0], len(exact))
    x = np.concatenate([bits.view(np.float64), signs * exact, ties,
                        specials])
    x = x[rng.permutation(len(x))]
    assert len(x) >= 200_000

    fallen = []
    python_digits = output._python_digits

    def spy(values):
        fallen.extend(values.tolist())
        return python_digits(values)

    monkeypatch.setattr(output, "_python_digits", spy)
    write_csv(tmp_path / "x.csv", "1.0", CONFIG, {"x": x})
    expected = "".join("%.17g\n" % v for v in x.tolist()).encode()
    assert _table_bytes(tmp_path / "x.csv") == expected
    # the fallback ran for the ties whose product is inexact and for the
    # values outside the encoder's range, never for an exact value
    fallen = set(fallen)
    assert set(ties[ties < 1e-6].tolist()) <= fallen
    inside = ((np.abs(exact) >= output.ENCODE_MIN)
              & (np.abs(exact) < output.ENCODE_MAX))
    assert not fallen & set(exact[inside].tolist())
    assert 5e-324 in fallen and 1e-300 in fallen


def test_int_encoder_matches_percent_d(tmp_path):
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    ints = np.concatenate([
        rng.integers(info.min, info.max, 50_000, dtype=np.int64,
                     endpoint=True),
        np.arange(-1000, 1000),
        np.array([info.min, info.min + 1, info.max, info.max - 1, 0,
                  10 ** 18, -10 ** 18, 10 ** 17, 9999, 10000]),
    ])
    unsigned = np.array([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1],
                        dtype=np.uint64)
    flags = rng.random(len(unsigned)) < 0.5
    small = np.arange(-128, 128, dtype=np.int8)
    for name, column in [("i", ints), ("u", unsigned), ("b", flags),
                         ("s", small)]:
        path = tmp_path / (name + ".csv")
        write_csv(path, "1.0", CONFIG, {name: column})
        expected = "".join("%d\n" % v for v in column.tolist()).encode()
        assert _table_bytes(path) == expected, name


def test_write_json_float_bytes(tmp_path):
    # floats go to json.dumps as they are (17 significant digits round-trip
    # a double, so no reformatting is needed); only NaN becomes null
    values = [np.float64(2.0) / 3.0, -0.0, math.inf, -math.inf, 5e-324,
              -2.5e-310, 1e300, 0.1 + 0.2, 1 / 3, math.nan]
    path = tmp_path / "t.json"
    output.write_json(path, "1.0", CONFIG, {"values": values})
    assert path.read_bytes() == (
        b'{\n  "tool": "topocrit",\n  "version": "1.0",\n'
        b'  "config": {\n    "grid": 3,\n    "model": "walk1d"\n  },\n'
        b'  "values": [\n    0.6666666666666666,\n    -0.0,\n    Infinity,\n'
        b'    -Infinity,\n    5e-324,\n    -2.5e-310,\n    1e+300,\n'
        b'    0.30000000000000004,\n    0.3333333333333333,\n    null\n'
        b'  ]\n}\n')

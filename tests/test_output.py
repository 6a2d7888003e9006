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
    write_csv(path, "1.0", CONFIG, [columns])
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
        write_csv(tmp_path / "big.csv", "1.0", CONFIG, [columns])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def _row_blocks(columns, bounds):
    """The rows of ``columns`` cut before each row of ``bounds`` into
    ``write_csv`` blocks: slices of the array columns and ``Indexed``
    columns of the block's length over the same values and rule."""
    n_rows = min(map(len, columns.values()))
    edges = [0, *bounds, n_rows]
    for lo, hi in zip(edges, edges[1:]):
        yield {name: (Indexed(col.values, hi - lo, col.every)
                      if isinstance(col, Indexed) else col[lo:hi])
               for name, col in columns.items()}


@pytest.mark.parametrize("bounds", [
    [1, 1, 8, CSV_CHUNK_ROWS + 13, 2 * CSV_CHUNK_ROWS - 1,
     2 * CSV_CHUNK_ROWS + 6],
    [0, 3 * CSV_CHUNK_ROWS - 1, 3 * CSV_CHUNK_ROWS + 5],
    list(range(7, 3 * CSV_CHUNK_ROWS + 5, 1000)),
], ids=["uneven", "empty-first-and-last", "every-1000"])
def test_write_csv_blocks_match_one_block(tmp_path, bounds):
    # block bounds that are no multiple of 6 or 7 cut the Indexed columns
    # mid-period, and blocks that cross the file's 4096-row chunk bounds
    # (or hold two of them) are cut into chunks of their own; an empty
    # block writes nothing
    columns = _columns(3 * CSV_CHUNK_ROWS + 5)
    write_csv(tmp_path / "one.csv", "1.0", CONFIG, [columns])
    write_csv(tmp_path / "blocks.csv", "1.0", CONFIG,
              _row_blocks(columns, bounds))
    assert ((tmp_path / "blocks.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())


def test_write_csv_checks_its_blocks(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "none.csv", "1.0", CONFIG, [])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "1.0", CONFIG,
                  [{"x": np.zeros(2)}, {"y": np.zeros(2)}])
    # the first block is made, and its dtypes checked, before the file is
    # opened
    with pytest.raises(TypeError):
        write_csv(tmp_path / "text.csv", "1.0", CONFIG,
                  [{"s": np.array(["a", "b"])}])
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_csv_refuses_a_ragged_block(tmp_path):
    # a first block whose columns differ in length is refused before the
    # file is opened
    with pytest.raises(ValueError, match="a 3, b 5"):
        write_csv(tmp_path / "first.csv", "1.0", CONFIG,
                  [{"a": np.arange(3.0), "b": np.arange(5.0)}])
    assert not (tmp_path / "first.csv").exists()
    # a later one before any of its rows is written
    even = {"a": np.arange(2.0), "b": np.arange(2.0)}
    write_csv(tmp_path / "even.csv", "1.0", CONFIG, [even])
    with pytest.raises(ValueError, match="a 4, b 3"):
        write_csv(tmp_path / "later.csv", "1.0", CONFIG,
                  [even, {"a": np.arange(4.0), "b": Indexed(AXIS, 3)}])
    assert ((tmp_path / "later.csv").read_bytes()
            == (tmp_path / "even.csv").read_bytes())


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
    write_csv(tmp_path / "x.csv", "1.0", CONFIG, [{"x": x}])
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


def _layout_key(x):
    """The key of a finite nonzero x in the encoder's mask table, from
    Python's own '%.16e': the layout (E + 4 in fixed notation, otherwise
    that of E = 0) and the index of D's last nonzero digit."""
    text = "%.16e" % abs(x)
    e = int(text[19:])
    last = len((text[0] + text[2:18]).rstrip("0")) - 1
    return (e + 4 if -4 <= e < 17 else 4), last


def _value_at(e, last):
    """A double with decimal exponent e whose '%.16e' digits end at index
    ``last``: the first that round-trips among those whose decimal digits
    are 10**last, 10**last + 1, ..."""
    for m in range(10 ** last, 10 ** (last + 1)):
        digits = str(m)
        x = float("%s.%se%d" % (digits[0], digits[1:], e))
        if _layout_key(x) == (e + 4 if -4 <= e < 17 else 4, last):
            return x
    raise AssertionError("no double at E = %d with last digit %d"
                         % (e, last))


def test_float_cell_layouts_match_percent_17g(tmp_path):
    # k = 1..17 significant digits at every exponent of the exponent table
    # that a double reaches, the decimal edges of fixed notation and of the
    # exponent's digit count, and one value per fixed-notation layout and
    # last digit: every key of the mask table, at both signs
    digits = "12345678912345679"
    grid = [float("%s.%se%d" % (digits[0], digits[1:k], e))
            for e in range(-output.E_MAX, 309) for k in range(1, 18)]
    edges = np.array([float("1e%d" % e) for e in (-5, -4, -1, 0, 16, 17,
                                                   -99, 99, -100, 100)])
    bounds = np.array([output.ENCODE_MIN, output.ENCODE_MAX])
    keys = [_value_at(e, last) for e in range(-4, 17) for last in range(17)]
    subnormals = np.array([5e-324, 1e-310, 2.2250738585072009e-308,
                           2.2250738585072014e-308])
    x = np.concatenate([
        grid, keys, edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf), bounds, np.nextafter(bounds, 0.0),
        np.nextafter(bounds, np.inf), subnormals,
    ])
    x = np.concatenate([x, -x, [np.nan, np.copysign(np.nan, -1.0), 0.0,
                                -0.0, np.inf, -np.inf]])
    finite = x[np.isfinite(x) & (x != 0.0)].tolist()
    covered = {(v < 0, *_layout_key(v)) for v in finite}
    assert covered >= {(negative, layout, last) for negative in (False, True)
                       for layout in range(21) for last in range(17)}
    write_csv(tmp_path / "x.csv", "1.0", CONFIG, [{"x": x}])
    expected = "".join("%.17g\n" % v for v in x.tolist()).encode()
    assert _table_bytes(tmp_path / "x.csv") == expected


def _python_table(columns) -> bytes:
    """The rows of ``columns`` as Python formats them one value at a
    time."""
    n_rows = min(map(len, columns.values()))
    cells = []
    for col in columns.values():
        if isinstance(col, Indexed):
            col = col.values[np.arange(n_rows) // col.every % len(col.values)]
        fmt = "%.17g" if col.dtype.kind == "f" else "%d"
        cells.append([fmt % v for v in col.tolist()])
    return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


# columns whose cells are not 48 bytes, and an Indexed column trimmed to a
# width that is not a whole number of words
OTHER_COLUMNS = {
    "indexed": lambda n: Indexed(np.array([0.5, -3.0, np.nan]), n, every=2),
    "bool": lambda n: np.arange(n) % 3 == 1,
    "int": lambda n: (np.arange(n) - 5) * 100_003,
}


@pytest.mark.parametrize("last", ["float", *OTHER_COLUMNS])
def test_write_csv_cells_stay_word_aligned(tmp_path, last):
    # 0-3 columns of each other kind before a float column, and each kind
    # as the last column, whose separator becomes LF
    n_rows = 40
    x = np.linspace(-2.0, 2.0, n_rows) / 3.0
    x[::9] = [np.nan, -0.0, np.inf, 1e-300, 12.5]
    path = tmp_path / "t.csv"
    for kind, column in OTHER_COLUMNS.items():
        for before in range(4):
            columns = {"%s%d" % (kind, i): column(n_rows)
                       for i in range(before)}
            columns["x"] = x
            columns["last"] = (x[::-1].copy() if last == "float"
                               else OTHER_COLUMNS[last](n_rows))
            write_csv(path, "1.0", CONFIG, [columns])
            assert _table_bytes(path) == _python_table(columns), (kind,
                                                                  before)


def test_int_encoder_matches_percent_d(tmp_path):
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    ints = np.concatenate([
        rng.integers(info.min, info.max, 50_000, dtype=np.int64,
                     endpoint=True),
        np.arange(-1000, 1000),
        np.array([info.min, info.min + 1, info.max, info.max - 1, 0,
                  10 ** 18, -10 ** 18, 10 ** 17, 9999, 10000]),
        # the largest integers a float64 holds exactly, and the first not
        np.array([1, -1]).repeat(4) * (2 ** 53 + np.array([-1, 0, 1, 3] * 2)),
    ])
    unsigned = np.array([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1],
                        dtype=np.uint64)
    flags = rng.random(len(unsigned)) < 0.5
    small = np.arange(-128, 128, dtype=np.int8)
    for name, column in [("i", ints), ("u", unsigned), ("b", flags),
                         ("s", small)]:
        path = tmp_path / (name + ".csv")
        write_csv(path, "1.0", CONFIG, [{name: column}])
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

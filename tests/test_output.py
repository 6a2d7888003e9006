import tracemalloc

import numpy as np
import pytest

from topocrit.output import CSV_CHUNK_ROWS, header_comment, write_csv

CONFIG = {"model": "walk1d", "grid": 3}


def _columns(n_rows: int) -> dict:
    """A float column with NaN and -0, and bool, int and str columns."""
    x = np.linspace(-1.0, 1.0, n_rows) / 3.0
    x[::7] = np.nan
    x[1::11] = -0.0
    return {"x": x,
            "flag": np.arange(n_rows) % 3 == 0,
            "n": np.arange(n_rows, dtype=np.int64) - n_rows // 2,
            "s": np.array(["%.17g" % v for v in x.tolist()], dtype=object)}


@pytest.mark.parametrize("n_rows", [
    0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
    5 * CSV_CHUNK_ROWS // 2,
])
def test_write_csv_bytes_match_one_shot_format(tmp_path, n_rows):
    columns = _columns(n_rows)
    path = tmp_path / "t.csv"
    write_csv(path, "1.0", CONFIG, columns)
    rows = zip(*(col.tolist() for col in columns.values()))
    expected = (header_comment("1.0", CONFIG) + "\nx,flag,n,s\n"
                + "".join("%.17g,%d,%d,%s\n" % row for row in rows))
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

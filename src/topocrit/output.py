"""Deterministic CSV/JSON writers.

Every file opens with a comment line echoing the tool version and the full
configuration, so identical configurations reproduce byte-identical files.

A CSV table is passed column-wise: an ordered mapping from column name to a
1-D array, all of one length.  The dtype of a column picks its conversion: a
float column is rendered with ``FLOAT_FMT`` (17 significant digits: full
precision, NaN as ``nan``, negative zero as ``-0``), a bool or integer column
with ``%d`` (``1``/``0`` and plain digits), and an object column of ``str``
is written as it is.  Such a column holds values already formatted with
``FLOAT_FMT``, such as the grid coordinates of a parameter scan, where each
distinct axis value is formatted once instead of once per row and the rows
share its string; it writes the same bytes as the float column it stands
for.

Rows are formatted one slice of ``CSV_CHUNK_ROWS`` rows at a time: only that
slice of each column is converted to Python values (``.tolist()``), so the
memory a write takes beyond its columns does not grow with the row count.
The bytes are those of formatting every row at once.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"
# rows converted and formatted per slice of the columns
CSV_CHUNK_ROWS = 1 << 14


def header_comment(version: str, config: dict) -> str:
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "# topocrit %s config=%s" % (version, echo)


def _conversion(column: np.ndarray) -> str:
    """The %-conversion of one CSV column, picked by its dtype."""
    if column.dtype.kind in "biu":
        return "%d"
    if column.dtype.kind == "O":
        return "%s"
    return FLOAT_FMT


def write_csv(path, version: str, config: dict, columns) -> None:
    """Write ``columns`` (name -> 1-D array) as comma-separated UTF-8 with LF,
    one row per array index."""
    arrays = [np.asarray(col) for col in columns.values()]
    row_fmt = ",".join(map(_conversion, arrays)) + "\n"
    n_rows = min((len(col) for col in arrays), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_comment(version, config) + "\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            values = [col[start:start + CSV_CHUNK_ROWS].tolist()
                      for col in arrays]
            fh.writelines(row_fmt % row for row in zip(*values))


def _jsonify(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(FLOAT_FMT % obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def write_json(path, version: str, config: dict, payload: dict) -> None:
    """Write one JSON object; key order is insertion order (stable)."""
    doc = {"tool": "topocrit", "version": version,
           "config": dict(sorted(config.items()))}
    doc.update(_jsonify(payload))
    Path(path).write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8", newline="\n")

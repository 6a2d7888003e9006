"""Deterministic CSV/JSON writers.

Every file opens with a comment line echoing the tool version and the full
configuration, so identical configurations reproduce byte-identical files.

A CSV table is passed column-wise: an ordered mapping from column name to a
1-D array, all of one length.  Every value is rendered with ``FLOAT_FMT``
(17 significant digits), which writes a float in full precision, NaN as
``nan``, an integer as its digits and a bool as ``1``/``0``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def header_comment(version: str, config: dict) -> str:
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "# topocrit %s config=%s" % (version, echo)


def write_csv(path, version: str, config: dict, columns) -> None:
    """Write ``columns`` (name -> 1-D array) as comma-separated UTF-8 with LF,
    one row per array index."""
    row_fmt = ",".join([FLOAT_FMT] * len(columns)) + "\n"
    values = [np.asarray(col).tolist() for col in columns.values()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_comment(version, config) + "\n")
        fh.write(",".join(columns) + "\n")
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

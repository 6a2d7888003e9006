"""Deterministic CSV/JSON writers.

Every file opens with a comment line echoing the tool version and the full
configuration, so identical configurations reproduce byte-identical files.

A CSV table is passed column-wise: an ordered mapping from column name to a
1-D array, all of one length, or to an ``Indexed`` column.  The dtype of a
column picks its conversion: a float column is written as Python writes
``FLOAT_FMT % x`` (``'%.17g'``: 17 significant digits, ``nan``, ``inf``,
``-inf``, negative zero as ``-0``), a bool or integer column as Python
writes ``'%d' % v`` (``1``/``0`` and plain digits).  An ``Indexed`` column
holds the distinct values of a column and a rule for each row's index into
them, such as the grid coordinates of a parameter scan: each distinct value
is encoded once per file and every row gathers its bytes.

The bytes are made in numpy, one chunk of ``CSV_CHUNK_ROWS`` rows at a
time, with no per-value Python formatting.  For a float x the encoder
finds the 17 digits D and the decimal exponent E of ``'%.16e' % x``:

- E starts as ``floor(log10|x|)``.  |x| * 10**(16 - E) is formed as a
  double-double: a Dekker two-product of |x| with a hi/lo pair for
  10**(16 - E), from a table built once with exact integer arithmetic.
  log10 may be one off near a power of ten, so E moves by one where the
  product falls outside [1e16, 1e17).
- D is the product rounded half to even.  For 10**0 to 10**22 the power
  of ten is a double, the product is exact and so is the rounding, ties
  included: integers and powers of ten are always encoded here.  Elsewhere
  the product is within 1e-14 of |x| * 10**(16 - E) (at most 2e-15 was
  seen), so its rounding is decided unless its fraction lies within
  ``HALFWAY_MARGIN`` of one half.
- Such undecided rows, and every |x| outside [``ENCODE_MIN``,
  ``ENCODE_MAX``) (subnormals included, where the Dekker splits could
  under- or overflow), take D and E from Python's own ``'%.16e' % x``.
  This fallback is the reference itself; a random double needs it with
  odds of about 2e-9 inside that range.

D becomes ASCII through a table of all 4-digit groups.  Each float cell is
a 45-byte canvas: the sign, '0.000', the 17 digits each followed by a slot
for the decimal point, 'e', the exponent's sign and digits, and the
separator.  Its ``'%g'`` layout (fixed notation for -4 <= E < 17, otherwise
``d.ddde+XX``, trailing zeros dropped) is the set of slots it keeps; the
others hold NUL.  An integer cell is a sign, 20 digits and the separator.
Each column fills its slots of one uint8 block of canvases, allocated once
per file, and one ``bytes.translate`` deleting NUL gives the chunk's bytes.

A write holds its columns, the encoded values of its ``Indexed`` columns,
whose chunk indices come from the row numbers, the block (183 bytes per row
for the six columns of a ``crg`` file, 0.7 MB per 4096-row chunk) and one
chunk's temporaries: a 512^2 ``crg`` table traces a 2.2 MB peak beyond its
columns, whatever the row count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"
# rows encoded per chunk: 8192 was no faster and holds twice the memory
CSV_CHUNK_ROWS = 1 << 12
# |x| outside [ENCODE_MIN, ENCODE_MAX) is formatted by Python: there the
# Dekker splits of x or of the power of ten could under- or overflow
ENCODE_MIN = 1e-280
ENCODE_MAX = 1e300
# an inexact product whose fraction is this near one half is formatted by
# Python; the product's error is below 1e-14
HALFWAY_MARGIN = 1e-9
# the powers of ten 10**p of the table, P_MIN <= p <= P_MAX: p = 16 - E for
# every first guess of E that an |x| inside the range above can give
P_MIN, P_MAX = 16 - 300, 16 + 281
# the decimal exponents of the exponent table, |E| <= E_MAX (subnormals
# reach -324)
E_MAX = 330
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# the slots of a float cell: the sign, '0.' and three zeros (fixed notation
# below 0.1), D's digits each followed by a slot for the decimal point, 'e',
# the exponent's sign and three digits, and the separator that ends every
# cell of a row (the last one's becomes LF)
_TEMPLATE = b"-0.000" + b"0." * 16 + b"0" + b"e+000,"
# the first slot of '0.000', of D and of 'e+000', and the separator slot
_LEAD, _DIGITS, _EXP, _SEPARATOR = 1, 6, 39, 44
_NEVER = 99  # a keep threshold no digit index reaches
# layout classes: fixed notation for E = -4..16, exponent notation with
# two and with three exponent digits, nan, inf and zero
_SCI2, _SCI3, _NAN, _INF, _ZERO = 21, 22, 23, 24, 25


def header_comment(version: str, config: dict) -> str:
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "# topocrit %s config=%s" % (version, echo)


class Indexed:
    """A CSV column of ``length`` rows whose row i holds ``values[(i //
    every) % len(values)]``.

    Each distinct value is encoded once per write, and every row gathers
    its bytes: the grid coordinates of a parameter scan repeat a few
    hundred axis values over every row.  A chunk's indices are derived
    from its row numbers, so the column holds no per-row array."""

    def __init__(self, values, length: int, every: int = 1):
        self.values = np.asarray(values)
        self.length = length
        self.every = every

    def __len__(self) -> int:
        return self.length

    def index(self, start: int, stop: int) -> np.ndarray:
        """The indices into ``values`` of rows start..stop-1."""
        return np.arange(start, stop) // self.every % len(self.values)


@functools.cache
def _digit_table() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, with leading zeros, as one
    uint32 per group (its bytes in memory order)."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits[..., 0] = ten[:, None, None, None]
    digits[..., 1] = ten[:, None, None]
    digits[..., 2] = ten[:, None]
    digits[..., 3] = ten
    return digits.view(np.uint32).reshape(10000)


@functools.cache
def _power_table() -> np.ndarray:
    """Rows hi, lo, hi_upper, hi_lower over p = P_MIN..P_MAX: 10**p = hi +
    lo to about 2**-106 relative, and hi split in Dekker's halves."""
    table = np.empty((4, P_MAX - P_MIN + 1))
    for i, p in enumerate(range(P_MIN, P_MAX + 1)):
        n = 10 ** abs(p)
        if p >= 0:
            hi = float(n)
            lo = float(n - int(hi))
        else:
            # int / int rounds correctly, and hi = num / den exactly
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            lo = (den - num * n) / (den * n)
        table[:2, i] = hi, lo
    table[2], table[3] = _split(table[0])
    return table


@functools.cache
def _exponent_table():
    """Per decimal exponent E = -E_MAX..E_MAX: its layout class, and the
    four bytes of its sign and three digits as one uint32."""
    exponents = range(-E_MAX, E_MAX + 1)
    cls = [e + 4 if -4 <= e < 17 else _SCI2 if abs(e) < 100 else _SCI3
           for e in exponents]
    text = b"".join(b"%+04d" % e for e in exponents)
    return np.array(cls), np.frombuffer(text, dtype=np.uint32)


@functools.cache
def _float_layouts() -> np.ndarray:
    """Per layout class, the keep threshold of each canvas slot: a slot is
    kept when the index of D's last nonzero digit reaches it (0: always,
    _NEVER: never).  The sign slot is the caller's."""
    need = np.full((26, len(_TEMPLATE)), _NEVER, dtype=np.uint8)
    need[:, 0] = 0
    need[:, _SEPARATOR] = 0
    digit = np.arange(_DIGITS, _EXP, 2)  # the slot of D's digit k
    # a digit is kept up to D's last nonzero one; the point after digit k
    # when D has a digit after it
    fraction = np.arange(17, dtype=np.uint8)
    for e in range(17):
        row = need[e + 4]
        row[digit] = fraction
        row[digit[:e + 1]] = 0
        if e < 16:
            row[digit[e] + 1] = e + 1
    for e in range(-4, 0):
        row = need[e + 4]
        row[_LEAD:_LEAD + 1 - e] = 0
        row[digit] = fraction
    for cls, exp_digits in ((_SCI2, 2), (_SCI3, 3)):
        row = need[cls]
        row[digit] = fraction
        row[digit[0] + 1] = 1
        row[_EXP:_EXP + 2] = 0
        row[_SEPARATOR - exp_digits:_SEPARATOR] = 0
    need[_NAN, digit[:3]] = 0
    need[_INF, digit[:3]] = 0
    need[_ZERO, digit[0]] = 0
    return need


def _split(a):
    """Dekker's split of a into two halves of 26 bits: a = upper + lower."""
    c = a * _SPLIT
    upper = c - (c - a)
    return upper, a - upper


def _scaled(a, e):
    """|x| * 10**(16 - e) as a double-double (hi, lo), for a = |x| inside
    [ENCODE_MIN, ENCODE_MAX) and an integer-valued float64 e, and whether
    it is exact."""
    row = ((16 - P_MIN) - e).astype(np.int64)
    p_hi, p_lo, p_upper, p_lower = _power_table().take(row, axis=1)
    a_upper, a_lower = _split(a)
    th = a * p_hi
    tl = (((a_upper * p_upper - th) + a_upper * p_lower + a_lower * p_upper)
          + a_lower * p_lower)
    c = tl + a * p_lo
    hi = th + c
    return hi, c - (hi - th), p_lo == 0.0


def _digits(v) -> np.ndarray:
    """The 20 ASCII digits, with leading zeros, of non-negative int64
    values: an (n, 20) uint8 array."""
    groups = np.empty((len(v), 5), dtype=np.int64)
    for i in range(4, 0, -1):
        q = v // 10000
        groups[:, i] = v - q * 10000
        v = q
    groups[:, 0] = v
    return _digit_table().take(groups).view(np.uint8)


def _float_digits(x):
    """D and E of ``'%.16e' % x`` for finite nonzero x (any int64 pair for
    other x), and the indices of the nan, inf and zero entries."""
    size = np.abs(x)
    inside = (size >= ENCODE_MIN) & (size < ENCODE_MAX)
    a = np.where(inside, size, 1.0)
    e = np.floor(np.log10(a))
    hi, lo, exact = _scaled(a, e)
    # log10 is off by one near a power of ten: a product outside [1e16,
    # 1e17) moves E by one.  Where it is within the product's error of a
    # decade bound, either side gives the same D and E, and after the move
    # D = hi + rint(lo) lies in [1e16, 1e17].
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    moved = np.flatnonzero(low | high)
    if moved.size:
        e[moved] += np.where(high[moved], 1.0, -1.0)
        hi[moved], lo[moved], exact[moved] = _scaled(a[moved], e[moved])
    r = np.rint(lo)
    undecided = ~exact & (np.abs(np.abs(lo - r) - 0.5) < HALFWAY_MARGIN)
    # D = 1e17 is 1e16 of the next decade.  hi is a multiple of 16 near
    # 1e17 and |r| <= 8, so D = 1e17 only where hi = 1e17 and r = 0.
    top = (hi == 1e17) & (r == 0.0)
    hi[top] = 1e16
    e[top] += 1.0
    d = hi.astype(np.int64) + r.astype(np.int64)
    e = e.astype(np.int64)
    outside = np.flatnonzero(~inside)
    special = x[outside]
    nan = outside[np.isnan(special)]
    inf = outside[np.isinf(special)]
    zero = outside[special == 0.0]
    undecided[outside] = np.isfinite(special) & (special != 0.0)
    fallback = np.flatnonzero(undecided)
    d[fallback], e[fallback] = _python_digits(size[fallback])
    return d, e, nan, inf, zero


def _python_digits(values):
    """D and E of ``'%.16e' % v``, formatted by Python, for each v of a
    float64 array: the encoder's fallback."""
    texts = ["%.16e" % v for v in values.tolist()]
    return ([int(t[0] + t[2:18]) for t in texts],
            [int(t[19:]) for t in texts])


def _encode_float(x, canvas):
    """Fill the (n, 45) canvas with the '%.17g' cells of a float64 array:
    the slots of ``_TEMPLATE``, NUL in each slot a cell does not keep."""
    n = len(x)
    d, e, nan, inf, zero = _float_digits(x)
    digits = _digits(d)[:, 3:]
    digits[nan, :3] = np.frombuffer(b"nan", dtype=np.uint8)
    digits[inf, :3] = np.frombuffer(b"inf", dtype=np.uint8)
    digits[zero, 0] = ord("0")
    exp_class, exp_text = _exponent_table()
    cls = exp_class.take(e + E_MAX)
    cls[nan] = _NAN
    cls[inf] = _INF
    cls[zero] = _ZERO
    canvas[:] = np.frombuffer(_TEMPLATE, dtype=np.uint8)
    canvas[:, _DIGITS:_EXP:2] = digits
    canvas[:, _EXP + 1:_SEPARATOR] = exp_text.take(e + E_MAX).view(
        np.uint8).reshape(n, 4)
    # the index of D's last nonzero digit
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keep = (_float_layouts().take(cls, axis=0)
            <= last.astype(np.uint8)[:, None])
    keep[:, 0] = np.signbit(x)
    keep[nan, 0] = False
    canvas *= keep


def _encode_int(v, canvas):
    """Fill the (n, 22) canvas with the '%d' cells of an integer array: a
    sign, 20 digits and a separator, NUL in each slot a cell does not
    keep."""
    unsigned = v.dtype.kind == "u"
    v = v.astype(np.int64)
    neg = v < 0
    # the int64 minimum, and a uint64 from 2**63 up, has no int64 |v|:
    # Python formats those rows
    fallback = np.flatnonzero(neg if unsigned
                              else v == np.iinfo(np.int64).min)
    a = np.abs(v)
    a[fallback] = 0
    canvas[:, 0] = ord("-")
    canvas[:, 1:21] = _digits(a)
    canvas[:, 21] = ord(",")
    significant = canvas[:, 1:21] != ord("0")
    significant[:, -1] = True  # a zero writes its last digit
    first = np.argmax(significant, axis=1)
    keep = np.empty(canvas.shape, dtype=bool)
    keep[:, 0] = neg
    np.greater_equal(np.arange(20), first[:, None], out=keep[:, 1:21])
    keep[:, 21] = True
    canvas *= keep
    for i, value in zip(fallback.tolist(), v[fallback].tolist()):
        text = ("%d" % (value + 2 ** 64 if unsigned else value)).encode()
        canvas[i, :21] = 0
        canvas[i, 21 - len(text):21] = np.frombuffer(text, dtype=np.uint8)


def _width(column) -> int:
    """The canvas width of a column's cells, by its dtype."""
    kind = column.dtype.kind
    if kind == "b":
        return 2
    if kind in "iu":
        return 22
    if kind == "f":
        return len(_TEMPLATE)
    raise TypeError("no CSV conversion for a column of dtype %s"
                    % column.dtype)


def _encode(column, canvas) -> None:
    """Fill the uint8 canvas, one row per entry of ``_width(column)``
    slots, with the column's cells, by its dtype: each ends in a separator
    slot, with NUL in each slot a cell does not keep."""
    kind = column.dtype.kind
    if kind == "b":
        np.add(column.view(np.uint8), ord("0"), out=canvas[:, 0])
        canvas[:, 1] = ord(",")
    elif kind in "iu":
        _encode_int(column, canvas)
    else:
        _encode_float(column.astype(np.float64), canvas)


def _encode_once(values):
    """The canvas of an ``Indexed`` column's values, less the slots no
    value keeps: every row gathers its bytes from it."""
    canvas = np.empty((len(values), _width(values)), dtype=np.uint8)
    _encode(values, canvas)
    return canvas[:, canvas.any(axis=0)]


def write_csv(path, version: str, config: dict, columns) -> None:
    """Write ``columns`` (name -> 1-D array or ``Indexed``) as
    comma-separated UTF-8 with LF, one row per array index.

    Every chunk is encoded into one block of canvases, allocated once per
    file: each column fills its slots of the block's rows."""
    sources = [(col, _encode_once(col.values))
               if isinstance(col, Indexed) else np.asarray(col)
               for col in columns.values()]
    widths = [src[1].shape[1] if isinstance(src, tuple) else _width(src)
              for src in sources]
    edges = list(itertools.accumulate(widths, initial=0))
    n_rows = min(map(len, columns.values()), default=0)
    block = np.empty((min(n_rows, CSV_CHUNK_ROWS), edges[-1]),
                     dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((header_comment(version, config) + "\n"
                  + ",".join(columns) + "\n").encode("utf-8"))
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, n_rows)
            rows = block[:stop - start]
            for src, lo, hi in zip(sources, edges, edges[1:]):
                if isinstance(src, tuple):
                    col, canvas = src
                    np.take(canvas, col.index(start, stop), axis=0,
                            out=rows[:, lo:hi])
                else:
                    _encode(src[start:stop], rows[:, lo:hi])
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


def _jsonify(obj):
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
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

"""Deterministic CSV/JSON writers.

Every file opens with a comment line echoing the tool version and the full
configuration, so identical configurations reproduce byte-identical files.

A CSV table is passed as an iterable of row blocks, each column-wise: an
ordered mapping from column name to a 1-D array, all of one length, or to
an ``Indexed`` column, with the same names in every block.  A table that
is made whole is one block; one made a block of rows at a time, such as a
``crg`` flow field, is written as its blocks come, and no more of it is
held than one block.  The dtype of a column picks its conversion: a float
column is written as Python writes ``FLOAT_FMT % x`` (``'%.17g'``: 17
significant digits, ``nan``, ``inf``, ``-inf``, negative zero as ``-0``),
a bool or integer column as Python writes ``'%d' % v`` (``1``/``0`` and
plain digits).  An ``Indexed`` column holds the distinct values of a
column and a rule for each file row's index into them, such as the grid
coordinates of a parameter scan: each distinct value is encoded once per
file while the blocks pass the same values array, and every row gathers
its bytes.

The bytes are made in numpy, one chunk of at most ``CSV_CHUNK_ROWS`` rows
of a block at a time, with no per-value Python formatting.  For a float x
the encoder finds the 17 digits D and the decimal exponent E of ``'%.16e'
% x``:

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

Each float cell is 48 bytes, six 8-byte words, and each word is one gather
from a table:

- word 0: the sign, '0.000', D's first digit and a slot for the decimal
  point, by sign and digit;
- words 1-4: D's other 16 digits, four a word, each followed by a slot for
  the point, by 4-digit group;
- word 5: 'e', the exponent's sign and two or three digits (NUL in fixed
  notation), the separator and two NUL pad bytes, by E.

The cell's ``'%g'`` layout (fixed notation for -4 <= E < 17, otherwise
``d.ddde+XX``, trailing zeros dropped) is one AND of words 0-4 with a mask
row, chosen by E and by the index of D's last nonzero digit, which a table
over the same four groups gives; the bytes a cell does not keep become
NUL.  The nan, inf and zero cells are written afterwards.  An integer
below 2**53 in magnitude is exactly its float64 value, whose '%.17g' is
its '%d', so an integer column is encoded as floats (Python formats larger
integers).  A bool cell is its digit, the separator and six pad bytes.  So
every cell is a whole number of words, and each column fills 8-byte
aligned words of one uint8 block, zeroed once per file so that pad bytes
stay NUL.  The last column's separator becomes LF, and ``bytes.translate``
deleting NUL gives the bytes of ``WRITE_ROWS`` rows at a time.

A write holds one row block of columns, the encoded values of its
``Indexed`` columns, whose chunk indices come from the file's row numbers,
the cell block (200 bytes per row for the six columns of a ``crg`` file,
0.8 MB per 4096-row chunk), one chunk's temporaries and the bytes of
``WRITE_ROWS`` rows: a 512^2 ``crg`` table passed whole traces a 1.5 MB
peak beyond its columns, whatever the row count.
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
# rows of a chunk copied out and stripped of NUL at a time: a whole chunk
# at once traced 1.0 MB more in a 512^2 crg write
WRITE_ROWS = 1 << 10
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
# per dtype kind, the width of a cell, a whole number of 8-byte words, and
# the offset of its separator (the module docstring gives each layout)
_CELLS = {"f": (48, 45), "i": (48, 45), "u": (48, 45), "b": (8, 1)}


def header_comment(version: str, config: dict) -> str:
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "# topocrit %s config=%s" % (version, echo)


class Indexed:
    """A CSV column of ``length`` rows in its block whose file row i holds
    ``values[(i // every) % len(values)]``.

    Each distinct value is encoded once per write, and every row gathers
    its bytes: the grid coordinates of a parameter scan repeat a few
    hundred axis values over every row.  A chunk's indices are derived
    from its file row numbers, so the column holds no per-row array."""

    def __init__(self, values, length: int, every: int = 1):
        self.values = np.asarray(values)
        self.length = length
        self.every = every

    def __len__(self) -> int:
        return self.length

    def index(self, start: int, stop: int) -> np.ndarray:
        """The indices into ``values`` of file rows start..stop-1."""
        return np.arange(start, stop) // self.every % len(self.values)


@functools.cache
def _group_words() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, with leading zeros, each
    followed by '.', as one uint64 per group (its bytes in memory order):
    words 1-4 of a float cell."""
    words = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words[..., 0] = ten[:, None, None, None]
    words[..., 2] = ten[:, None, None]
    words[..., 4] = ten[:, None]
    words[..., 6] = ten
    return words.view(np.uint64).reshape(10000)


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
def _lead_words() -> np.ndarray:
    """Word 0 of a float cell per sign bit * 10 + D's first digit: the
    sign (NUL for +), '0.000', the digit and '.'."""
    return np.frombuffer(b"".join(b"%s0.000%d." % (sign, digit)
                                  for sign in (b"\0", b"-")
                                  for digit in range(10)), dtype=np.uint64)


@functools.cache
def _last_digits() -> np.ndarray:
    """Row j = 0..3 per 4-digit group: the index in D of the group's last
    nonzero digit when it holds D's digits 4j + 1..4j + 4, or 0 for the
    group 0.  The largest over D's four groups is the index of its last
    nonzero digit."""
    # filled by slices of the group's digits a, b, c, d: the last nonzero
    # one is d unless d = 0, then c unless c = 0, ...
    table = np.empty((4, 10, 10, 10, 10), dtype=np.uint8)
    for j, last in enumerate(table):
        last[...] = 4 * j + 4
        last[..., 0] = 4 * j + 3
        last[..., 0, 0] = 4 * j + 2
        last[:, 0, 0, 0] = 4 * j + 1
        last[0, 0, 0, 0] = 0
    return table.reshape(4, 10000)


@functools.cache
def _exponent_words():
    """Per decimal exponent E = -E_MAX..E_MAX: word 5 of a float cell, and
    the first row of its layout in ``_mask_words``.

    Fixed notation (-4 <= E < 17) has layout E + 4 and no exponent: word 5
    is the separator.  Exponent notation writes 'e', the exponent's sign
    and at least two digits, and keeps the bytes of words 0-4 that E = 0
    keeps."""
    exponents = range(-E_MAX, E_MAX + 1)
    fixed = [-4 <= e < 17 for e in exponents]
    text = b"".join((b"" if f else b"e%+03d" % e).ljust(5, b"\0") + b",\0\0"
                    for e, f in zip(exponents, fixed))
    first = [17 * (e + 4 if f else 4) for e, f in zip(exponents, fixed)]
    return np.frombuffer(text, dtype=np.uint64), np.array(first)


@functools.cache
def _mask_words() -> np.ndarray:
    """Words 0-4 of a float cell's keep mask per layout * 17 + the index of
    D's last nonzero digit: all bits set in each byte the cell keeps, none
    in the others.  Layout E + 4 is fixed notation at E = -4..16."""
    keep = np.zeros((21, 17, 40), dtype=np.uint8)
    keep[:, :, 0] = 0xFF  # the sign
    # D's digit k is byte 2k + 6, followed by the point's slot; it is kept
    # up to D's last nonzero digit, and in fixed notation up to the units
    # digit
    for k in range(17):
        keep[:, k:, 2 * k + 6] = 0xFF
    for e in range(-4, 17):
        row = keep[e + 4]
        if e < 0:
            row[:, 1:2 - e] = 0xFF  # '0.' and -1 - E zeros
        else:
            row[:, 6:2 * e + 7:2] = 0xFF  # the integer digits
            row[e + 1:, 2 * e + 7] = 0xFF  # the point, where a digit follows
    return keep.view(np.uint64).reshape(21 * 17, 5)


def _text_cells(texts) -> np.ndarray:
    """The six words of a float cell per ASCII text of at most 40 bytes:
    the text and the separator."""
    return np.frombuffer(b"".join(text.ljust(40, b"\0") + b"\0" * 5 + b",\0\0"
                                  for text in texts),
                         dtype=np.uint64).reshape(-1, 6)


@functools.cache
def _special_words() -> np.ndarray:
    """The six words of the nan, inf and zero cells, per sign bit."""
    return _text_cells([b"nan", b"nan", b"inf", b"-inf", b"0",
                        b"-0"]).reshape(3, 2, 6)


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


def _float_digits(x):
    """D and E of ``'%.16e' % x`` for finite nonzero x (10**16 and 0 for
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
    """Fill the (n, 48) canvas with the '%.17g' cells of a float64 array.

    Each of a cell's six words is one table gather; one AND with the mask
    of the cell's layout and of the index of D's last nonzero digit leaves
    NUL in each byte of words 0-4 the cell does not keep.  The nan, inf and
    zero cells are written afterwards."""
    words = canvas.view(np.uint64)
    d, e, nan, inf, zero = _float_digits(x)
    sign = np.signbit(x).view(np.uint8)
    exponent = e + E_MAX
    exponent_words, first = _exponent_words()
    # D's first digit, then its other 16 digits in four 4-digit groups
    groups = np.empty((5, len(x)), dtype=np.int64)
    for j in range(4, 0, -1):
        q = d // 10000
        np.subtract(d, q * 10000, out=groups[j])
        d = q
    groups[0] = d
    last = np.zeros(len(x), dtype=np.uint8)
    for row, g in zip(_last_digits(), groups[1:]):
        np.maximum(last, row.take(g), out=last)
    masks = _mask_words().take(first.take(exponent) + last, axis=0)
    np.bitwise_and(_lead_words().take(groups[0] + 10 * sign), masks[:, 0],
                   out=words[:, 0])
    for j in range(1, 5):
        np.bitwise_and(_group_words().take(groups[j]), masks[:, j],
                       out=words[:, j])
    words[:, 5] = exponent_words.take(exponent)
    special = _special_words()
    for kind, rows in enumerate((nan, inf, zero)):
        words[rows] = special[kind].take(sign[rows], axis=0)


def _encode_int(v, canvas):
    """Fill the (n, 48) canvas with the '%d' cells of an integer array.

    Below 2**53 in magnitude an integer is exactly its float64 value, whose
    '%.17g' is its '%d' (fixed notation, no point); Python formats the
    others."""
    x = v.astype(np.float64)
    big = np.flatnonzero(np.abs(x) >= 2.0 ** 53)
    _encode_float(x, canvas)
    canvas.view(np.uint64)[big] = _text_cells(
        b"%d" % i for i in v[big].tolist())


def _cell(column):
    """The width and the separator offset of a column's cells, by its
    dtype."""
    kind = column.dtype.kind
    if kind not in _CELLS:
        raise TypeError("no CSV conversion for a column of dtype %s"
                        % column.dtype)
    return _CELLS[kind]


def _encode(column, canvas) -> None:
    """Fill the uint8 canvas, one row per entry of ``_cell(column)`` bytes,
    with the column's cells, by its dtype: each ends in a separator, with
    NUL in each byte a cell does not keep.  Pad bytes are left as they
    are."""
    kind = column.dtype.kind
    if kind == "b":
        np.add(column.view(np.uint8), ord("0"), out=canvas[:, 0])
        canvas[:, 1] = ord(",")
    elif kind in "iu":
        _encode_int(column, canvas)
    else:
        _encode_float(column.astype(np.float64), canvas)


def _encode_once(values):
    """The cells of an ``Indexed`` column's values, less the bytes no value
    keeps and padded to whole words, as one void item each, and the offset
    of the separator in a cell: every row gathers its cell from them."""
    width, separator = _cell(values)
    canvas = np.zeros((len(values), width), dtype=np.uint8)
    _encode(values, canvas)
    # the separator is the last byte kept, also when there is no value
    kept = canvas.any(axis=0)
    kept[separator] = True
    width = int(kept.sum())
    cells = np.zeros((len(values), -(-width // 8) * 8), dtype=np.uint8)
    cells[:, :width] = canvas[:, kept]
    return cells.view("V%d" % cells.shape[1])[:, 0], width - 1


def _sources(columns, encoded):
    """The columns of one block as the writer reads them, and the width and
    separator offset of each column's cells.

    An array column is read as an array; an ``Indexed`` column as itself,
    its encoded cells and their separator, taken from ``encoded`` (column
    position -> values, cells, separator) while its values are the same
    object, so each is encoded once per file."""
    sources, cells = [], []
    for pos, col in enumerate(columns.values()):
        if isinstance(col, Indexed):
            if pos not in encoded or encoded[pos][0] is not col.values:
                encoded[pos] = (col.values, *_encode_once(col.values))
            _, values, separator = encoded[pos]
            sources.append((col, values))
            cells.append((values.itemsize, separator))
        else:
            col = np.asarray(col)
            sources.append(col)
            cells.append(_cell(col))
    return sources, cells


def _block_rows(columns) -> int:
    """The number of rows of a block.

    Raises:
        ValueError: its columns differ in length.
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError("a block's columns differ in length: %s" % ", ".join(
            "%s %d" % item for item in lengths.items()))
    return next(iter(lengths.values()), 0)


def write_csv(path, version: str, config: dict, blocks) -> None:
    """Write a table as comma-separated UTF-8 with LF, given as an iterable
    of row blocks, each a mapping from column name to a 1-D array or an
    ``Indexed`` column: one row per array index, block after block.  Every
    block has the column names of the first, and an ``Indexed`` column
    indexes by the file's row, counted over all blocks.

    The first block is taken, and its columns checked for a CSV
    conversion and an equal length, before the file is opened; a later
    block is checked before any of its rows is written.  Every chunk is
    encoded into one block of cells, allocated and zeroed once per file
    while the blocks keep its layout, so pad bytes stay NUL: each column
    fills its whole words of the block's rows, and the last column's
    separator becomes LF."""
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValueError("a CSV table needs at least one block")
    names = list(first)
    encoded = {}
    # TypeError for a column with no CSV conversion, and ValueError for
    # columns of unequal length, before the file is opened
    _sources(first, encoded)
    _block_rows(first)
    layout = canvas = None
    done = 0  # rows written
    with open(path, "wb") as fh:
        fh.write((header_comment(version, config) + "\n"
                  + ",".join(names) + "\n").encode("utf-8"))
        for columns in itertools.chain([first], blocks):
            if list(columns) != names:
                raise ValueError("a block has the columns %s, not %s"
                                 % (list(columns), names))
            n_rows = _block_rows(columns)
            sources, cells = _sources(columns, encoded)
            if cells != layout or len(canvas) < min(n_rows, CSV_CHUNK_ROWS):
                layout = cells
                edges = list(itertools.accumulate((w for w, _ in cells),
                                                  initial=0))
                canvas = np.zeros((min(n_rows, CSV_CHUNK_ROWS), edges[-1]),
                                  dtype=np.uint8)
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                stop = min(start + CSV_CHUNK_ROWS, n_rows)
                rows = canvas[:stop - start]
                for src, lo, hi in zip(sources, edges, edges[1:]):
                    if isinstance(src, tuple):
                        col, values = src
                        rows[:, lo:hi].view(values.dtype)[:, 0] = values.take(
                            col.index(done + start, done + stop))
                    else:
                        _encode(src[start:stop], rows[:, lo:hi])
                rows[:, edges[-2] + cells[-1][1]] = ord("\n")
                for part in range(0, len(rows), WRITE_ROWS):
                    fh.write(rows[part:part + WRITE_ROWS].tobytes().translate(
                        None, b"\0"))
            done += n_rows


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

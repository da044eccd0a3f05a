"""CSV text of integer columns, encoded in NumPy, for the bulk bundle writers.

encode_rows turns a chunk of int64 columns into the bytes of its CSV rows
without a Python object per cell. The text is laid out in a block of
2-byte units, one block row per unit position of a line and one block
column per table row, so that every write into the block is contiguous:

- a number's digits are written two at a time from a table of "00".."99",
  right-aligned in as many units as the chunk's widest value needs; the
  positions in front of a number's leading digit hold the byte 0;
- a negative number gets a "-" in a unit of its own in front of its
  digits;
- the caller's newline ends each line.

The block is transposed into line order and `bytes.translate(None, b"\\0")`
deletes every 0 byte, which leaves each line as
`",".join(map(str, row)) + newline` spells it.

An int64 column is always spelled digit by digit, whatever its range.
Fields that stay the same over runs of rows are passed as a
`(codes, TextTable)` pair instead, which encodes each run's fields once
and gathers them: the histogram table's link keys and the truth log's
resource and users.

The writers call encode_rows once per CHUNK_ROWS rows and make one write
per call, so besides their input they hold one chunk's columns, units
and text however long the table is: for the 16384 rows of a truth-log
chunk 0.75 MB of units, as much again transposed, and 0.5 MB of text;
tracemalloc puts the peak of the whole truth writer at 2.4 MB. On
500k truth rows (16.2 MB, benchmarks/bench_writers.py) this writes
171-227 MB/s against 30-50 MB/s for the `str` and `str.join` per cell
it replaced, in three alternating runs a side on a busy 2-core host.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 16_384


def _unit(text: bytes) -> np.uint16:
    """One 2-byte unit holding `text`, padded with a 0 byte."""
    return np.frombuffer(text.ljust(2, b"\0"), dtype=np.uint16)[0]


def _pair_table(zero: bytes) -> np.ndarray:
    """Units of digit pairs. Index r < 100 gives r as two digits; index
    100 + r, r < 10, gives a pair that holds a number's leading digit r:
    a 0 byte and r, or a 0 byte and `zero` for r = 0."""
    text = ([b"%02d" % r for r in range(100)] + [b"\0" + zero]
            + [b"\0%d" % r for r in range(1, 10)])
    return np.frombuffer(b"".join(text), dtype=np.uint16)


_PAIRS = _pair_table(b"\0")  # a pair in front of the number is empty
_ONES = _pair_table(b"0")    # but the number 0 has the digit 0


def _digit_units(mag: np.ndarray, low: int, top: int) -> list[np.ndarray]:
    """The units of the magnitudes `mag` (uint64), most significant first;
    `low` and `top` are mag's least and greatest values."""
    hundred = np.uint64(100)
    n_pairs = (len(str(top)) + 1) // 2
    units = []
    q = mag
    for k in range(n_pairs):
        if k + 1 < n_pairs:
            q_next = q // hundred
            r = q - q_next * hundred
        else:
            r = q  # q < 100
        # the pair holds a leading digit, or none, where q < 10; that is
        # where mag < 10 ** (2k + 1), which low rules out for most pairs
        # (skipping those takes a tag chunk from 0.83 ms to 0.66 ms)
        if low < 10 ** (2 * k + 1):
            r = r + (q < 10) * hundred
        units.append((_ONES if k == 0 else _PAIRS).take(r))
        if k + 1 < n_pairs:
            q = q_next
    units.reverse()
    return units


def _int_units(x: np.ndarray) -> list:
    """The units of one int64 column; none for an empty one, as in the
    TextTable of an empty truth log."""
    if not x.size:
        return []
    lo, hi = int(x.min()), int(x.max())
    if lo >= 0:
        return _digit_units(x.view(np.uint64), lo, hi)
    mag = np.abs(x).view(np.uint64)  # -2**63 becomes 2**63
    return ([np.where(x < 0, _unit(b"-"), _unit(b""))]
            + _digit_units(mag, int(mag.min()), max(hi, -lo)))


def _row_units(columns, newline: bytes = b"") -> list:
    """The units of the lines of `columns` (as in encode_rows), fields
    separated by commas, each line ended by `newline`."""
    units = []
    for j, col in enumerate(columns):
        if j:
            units.append(_unit(b","))
        if isinstance(col, tuple):
            codes, table = col
            units += table.take(codes)
        else:
            units += _int_units(np.asarray(col, dtype=np.int64))
    if newline:
        units.append(_unit(newline))
    return units


class TextTable:
    """The text of every row of a few int columns, encoded once.

    For fields that take few distinct values: in the columns of
    encode_rows, `(codes, table)` stands for the fields of row codes[i]
    of the table's columns at line i.
    """

    def __init__(self, columns):
        self._units = _row_units(columns)

    def take(self, codes) -> list:
        return [unit.take(codes) if np.ndim(unit) else unit
                for unit in self._units]


def encode_rows(columns, newline: bytes) -> bytes:
    """The CSV lines of equal-length columns, each line ending in `newline`.

    Each column is an int64 array or a `(codes, TextTable)` pair. Gives
    the bytes of `",".join(map(str, row)) + newline` over the rows, and
    b"" for zero rows.
    """
    first = columns[0]
    n_rows = len(first[0] if isinstance(first, tuple) else first)
    if n_rows == 0:
        return b""
    units = _row_units(columns, newline)
    block = np.empty((len(units), n_rows), dtype=np.uint16)
    for row, unit in zip(block, units):
        row[...] = unit
    # free each stage before the next: the peak is two copies of the block
    del units
    text = block.T.tobytes()
    del block
    return text.translate(None, b"\0")

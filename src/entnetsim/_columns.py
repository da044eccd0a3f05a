"""Column-wise text output for the bulk bundle writers.

The truth log and the histogram table are written by formatting whole
columns of a chunk of rows at once (`tolist()` and one `map` per column),
never one cell at a time, and by making one write per chunk. A chunk
holds at most CHUNK_ROWS rows, so the text held in memory at any time is
bounded however long the table is. The tag dumps, one integer column,
use the same chunk size but format each chunk with one `%`.
"""

from __future__ import annotations

CHUNK_ROWS = 16_384


class FormatOnce(dict):
    """Maps a value to its text, formatting each distinct value once.

    For columns with few distinct values (resource ids, user and flag
    combinations) a dict lookup is several times cheaper than formatting
    every cell. Use as `map(table.__getitem__, values)`.
    """

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key):
        text = self[key] = self.fmt(key)
        return text


def write_rows(fh, n_rows: int, chunk_columns, newline: str) -> None:
    """Write n_rows comma-separated rows, each ending in `newline`.

    `chunk_columns(start, stop)` returns the cells of rows start..stop-1
    as a list of columns, each an iterable of strings. Nothing is written
    for zero rows.
    """
    for start in range(0, n_rows, CHUNK_ROWS):
        cols = chunk_columns(start, min(start + CHUNK_ROWS, n_rows))
        rows = cols[0] if len(cols) == 1 else map(",".join, zip(*cols))
        fh.write(newline.join(rows) + newline)

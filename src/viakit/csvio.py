"""CSV export with a fixed, diffable format: one writer, :func:`write_table`.

All floats are written with 17 significant digits; the +/-INF sentinels
are emitted literally as ``inf`` and ``-inf``.  Node ordering is the
producing grid's row-major order, so repeated runs are byte-identical.
Tables are written BLOCK rows at a time (see :func:`_write_rows`).
"""

from __future__ import annotations

import numpy as np

from .common import INF

# Rows formatted by one ``%`` and written by one ``write``: about 0.25 MB
# of text at three columns, whatever the table's length.
BLOCK = 4096


def _write_rows(path, header, *columns):
    """Write the columns side by side under header, one ``%.17g`` table row per line.

    Each column is an (N,) or (N, k) array; values >= INF read ``inf`` and
    values <= -INF read ``-inf``.  Rows are written BLOCK at a time, one
    ``%`` and one ``write`` per block, and each table column is handled
    per block by how many distinct bit patterns it holds there.  With at
    most half the block's rows, each distinct pattern is formatted once
    and its text reused for every row that holds it (a graph cloud's t and
    y).  With more (a graph cloud's x), formatting each value once and
    then looking the texts up would cost more than it saves, so the
    column's values go to the block's ``%`` as Python floats under its own
    ``%.17g``.  ``%.17g`` is a function of the float64 bits, so both give
    the bytes of one format per value; keying on bits rather than values
    keeps ``0.0`` apart from ``-0.0`` and NaNs of different payloads apart.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    table[table >= INF] = np.inf
    table[table <= -INF] = -np.inf
    bits = table.view(np.uint64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), BLOCK):
            block = bits[start:start + BLOCK]
            text = np.empty(block.shape, dtype=object)
            specs = []
            for j in range(block.shape[1]):
                keys, inverse = np.unique(block[:, j], return_inverse=True)
                if 2 * len(keys) > len(block):
                    text[:, j] = table[start:start + BLOCK, j]  # as Python floats
                    specs.append("%.17g")
                else:
                    vals = keys.view(np.float64).tolist()
                    distinct = ("%.17g," * len(vals) % tuple(vals)).split(",")
                    text[:, j] = np.array(distinct[:-1], dtype=object)[inverse]
                    specs.append("%s")
            fmt = ",".join(specs) + "\n"
            fh.write((fmt * len(block)) % tuple(text.ravel().tolist()))


def write_table(path, /, **columns):
    """Write the columns to path as one CSV table, in keyword order.

    A 1-D column is one table column under its name; an (N, k) column is k
    table columns named ``name1`` ... ``namek``.  Every column has N rows.
    """
    header = []
    for name, column in columns.items():
        shape = np.shape(column)
        header += [name] if len(shape) == 1 else [f"{name}{i + 1}" for i in range(shape[1])]
    _write_rows(path, header, *columns.values())

"""Column-wise CSV and JSON table writer behind every ``dtsim`` table.

A table is an iterable of parts written one after another under one header.
It is read once, so parts may be generated while the table is written
(``Ensemble.columns`` yields one per block of paths).  A part maps each
column name, in header order, to a numpy array (int, float or str) or to
``None`` for a column that is absent there.  A part's arrays
broadcast against each other and its rows are the entries of the broadcast
shape in C order, so a label that repeats along an axis is passed once at
its own shape.

Text is formatted and written in blocks of about :data:`BLOCK_ROWS` rows
along the leading axis, so memory does not grow with the row count.  A
column that is broadcast along an axis of the block is formatted once per
distinct value and then repeated; a column broadcast along the leading axis
is formatted once for the whole part.  Full-size columns are handed to one
``%`` operation per block.

CSV is a header line, then one line per row: floats as ``%.17g`` (which
round-trips), integers and strings as ``str``, absent cells empty.  JSON is
exactly ``json.dumps(rows, indent=2) + "\\n"`` for one object per row:
floats as ``repr``, non-finite floats as ``NaN``/``Infinity``/``-Infinity``,
absent cells ``null``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Iterable, Mapping

import numpy as np

__all__ = ["BLOCK_ROWS", "write_table"]

#: Rows formatted per block (a block holds at least one leading-axis entry).
BLOCK_ROWS = 8192

_ABSENT = {"csv": "", "json": "null"}


def _cells(a: np.ndarray, fmt: str) -> tuple[np.ndarray, str]:
    """Entries of ``a`` as Python objects for ``%`` formatting, and their conversion spec."""
    kind = a.dtype.kind
    if kind == "f":
        cells = a.astype(object)
        if fmt == "csv":
            return cells, "%.17g"
        bad = ~np.isfinite(a)
        if bad.any():  # str() of a finite float is its repr, which json.dumps writes
            cells[bad] = np.where(np.isnan(a[bad]), "NaN", np.where(a[bad] > 0, "Infinity", "-Infinity"))
        return cells, "%s"
    if kind in "iu":
        return a.astype(object), "%s"
    if kind == "U":
        cells = a.astype(object)
        if fmt == "json":
            cells = np.frompyfunc(json.dumps, 1, 1)(cells)
        return cells, "%s"
    raise TypeError(f"cannot write a column of dtype {a.dtype}")


def _strings(a: np.ndarray, fmt: str) -> np.ndarray:
    """Formatted text of each entry of ``a``, same shape, as an object array."""
    cells, spec = _cells(a, fmt)
    out = np.empty(a.shape, dtype=object)
    out.ravel()[:] = [spec % v for v in cells.ravel().tolist()]
    return out


def _blocks(parts: Iterable[Mapping], names: list[str], fmt: str, literals: list[str]):
    """Formatted text of each block of rows, every row written as ``literals`` around its cells."""
    for part in parts:
        if list(part) != names:
            raise ValueError(f"table part has columns {list(part)}, expected {names}")
        cols = [None if v is None else np.asarray(v) for v in part.values()]
        shape = np.broadcast_shapes(*(c.shape for c in cols if c is not None)) or (1,)
        cols = [
            np.array(_ABSENT[fmt], dtype=object).reshape((1,) * len(shape)) if c is None
            else c.reshape((1,) * (len(shape) - c.ndim) + c.shape)
            for c in cols
        ]
        # text of the absent columns and of those repeated in every block, formatted once
        once = [c if c.dtype == object else _strings(c, fmt) if c.shape[0] == 1 else None for c in cols]
        inner = math.prod(shape[1:])
        step = max(1, BLOCK_ROWS // max(inner, 1))
        for lo in range(0, shape[0] if inner else 0, step):
            block = (min(step, shape[0] - lo),) + shape[1:]
            n_rows = math.prod(block)
            cells = np.empty(block + (len(cols),), dtype=object)
            row = literals[0]
            for i, (c, text) in enumerate(zip(cols, once)):
                if text is None:
                    c = c[lo : lo + block[0]]
                    if c.size == n_rows:
                        text, spec = _cells(c, fmt)
                    else:
                        text, spec = _strings(c, fmt), "%s"
                else:
                    spec = "%s"
                cells[..., i] = text
                row += spec + literals[i + 1]
            yield (row * n_rows) % tuple(cells.ravel().tolist())


def _write(fh, parts: Iterable[Mapping], fmt: str) -> None:
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        raise ValueError("a table needs at least one part")
    names = list(first)
    parts = itertools.chain([first], parts)
    if fmt == "csv":
        fh.write(",".join(names) + "\n")
        literals = ["", *[","] * (len(names) - 1), "\n"]
        for text in _blocks(parts, names, fmt, literals):
            fh.write(text)
        return
    # each JSON row opens with the ",\n" that separates it from the previous one
    keys = [f"{json.dumps(name)}: ".replace("%", "%%") for name in names]
    literals = [",\n  {\n    " + keys[0], *[",\n    " + k for k in keys[1:]], "\n  }"]
    opened = False
    for text in _blocks(parts, names, fmt, literals):
        fh.write(text if opened else "[\n" + text[2:])
        opened = True
    fh.write("\n]\n" if opened else "[]\n")


def write_table(parts: Iterable[Mapping], fmt: str, out: str | None) -> None:
    """Write ``parts`` as one ``fmt`` (``"csv"`` or ``"json"``) table to the file ``out``, or stdout."""
    if fmt not in _ABSENT:
        raise ValueError(f"table format must be csv or json, got {fmt!r}")
    if out:
        with open(out, "w") as fh:
            _write(fh, parts, fmt)
    else:
        _write(sys.stdout, parts, fmt)

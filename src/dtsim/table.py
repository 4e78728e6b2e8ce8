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
``%`` operation per block.  A table of two or more blocks is formatted on
:data:`_FORMAT_WORKERS` forked worker processes (two where two or more cores
are usable, none on one core or where ``fork`` is missing), each formatting
whole blocks, and the writer writes their text in block order; a one-block
table is formatted by the writer.  No byte of the output depends on the
number of workers.

CSV is a header line, then one line per row: floats as ``%.17g`` (which
round-trips), integers and strings as ``str``, absent cells empty.  JSON is
exactly ``json.dumps(rows, indent=2) + "\\n"`` for one object per row:
floats as ``repr``, non-finite floats as ``NaN``/``Infinity``/``-Infinity``,
absent cells ``null``.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Mapping

import numpy as np

__all__ = ["BLOCK_ROWS", "write_table"]

#: Rows formatted per block (a block holds at least one leading-axis entry).
BLOCK_ROWS = 8192

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Processes that format the blocks of a table of two or more blocks, one
#: block each at a time: two where a second core can run them, none on one
#: core, where the writer formats every block itself.  Two, not one per core,
#: so memory does not grow with the core count; no byte of a table depends on it.
_FORMAT_WORKERS = 2 if _CORES > 1 else 0

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


def _jobs(parts: Iterable[Mapping], names: list[str], fmt: str, literals: list[str]):
    """One ``(fmt, literals, block shape, columns)`` job per block of rows, for :func:`_format`.

    A column repeated in every block of its part, or absent, is text already,
    formatted once per part; the others are the block's numeric slices.
    """
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
        cols = [c if c.dtype == object or c.shape[0] > 1 else _strings(c, fmt) for c in cols]
        inner = math.prod(shape[1:])
        step = max(1, BLOCK_ROWS // max(inner, 1))
        for lo in range(0, shape[0] if inner else 0, step):
            block = (min(step, shape[0] - lo),) + shape[1:]
            yield fmt, literals, block, [c if c.shape[0] == 1 else c[lo : lo + block[0]] for c in cols]


def _format(job) -> str:
    """Text of one block of rows, every row written as ``literals`` around its cells."""
    fmt, literals, block, cols = job
    n_rows = math.prod(block)
    cells = np.empty(block + (len(cols),), dtype=object)
    row = literals[0]
    for i, c in enumerate(cols):
        if c.dtype == object:
            text, spec = c, "%s"
        elif c.size == n_rows:
            text, spec = _cells(c, fmt)
        else:
            text, spec = _strings(c, fmt), "%s"
        cells[..., i] = text
        row += spec + literals[i + 1]
    return (row * n_rows) % tuple(cells.ravel().tolist())


def _serve(conn, writer_ends) -> None:
    """Worker process: format each job that ``conn`` brings until ``None``, and send back its text or error."""
    import signal  # here, not at the top: only workers need it

    for end in writer_ends:  # inherited: closed, so that the writer's exit ends this worker
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the writer stops its workers on an interrupt
    try:
        while (job := conn.recv()) is not None:
            try:
                reply = _format(job), None
            except Exception as error:  # raised again in the writer
                reply = None, error
            conn.send(reply)
    except (EOFError, ConnectionError):  # the writer is gone
        pass


def _blocks(parts: Iterable[Mapping], names: list[str], fmt: str, literals: list[str]):
    """Formatted text of each block of rows, in block order.

    A table of two or more blocks is formatted on :data:`_FORMAT_WORKERS`
    forked processes; a one-block table, and every table on a host with one
    core or without ``fork``, is formatted here.  The text is the same.
    """
    jobs = _jobs(parts, names, fmt, literals)
    head = list(itertools.islice(jobs, 2 if _FORMAT_WORKERS else 0))
    jobs = itertools.chain(head, jobs)
    if len(head) == 2:
        import multiprocessing  # here, not at the top: one-block tables do not pay for it

        if "fork" in multiprocessing.get_all_start_methods():
            yield from _format_on_workers(multiprocessing.get_context("fork"), jobs)
            return
    yield from map(_format, jobs)


def _format_on_workers(ctx, jobs):
    """Text of each job, formatted on worker processes dealt the jobs round-robin, in job order.

    Each worker has at most one job in flight: with two, a result larger than
    the pipe buffer and the next send could wait for each other forever.  A
    worker's error is raised here.  Every worker is sent ``None`` and joined
    when the jobs end, an error is raised or the generator is closed; in the
    last two cases it is terminated first, as it may be blocked sending text
    that will not be read, or reading a job whose send was cut short.
    """
    workers, conns = [], []
    pending = collections.deque()  # connections with a job in flight, oldest first

    def result() -> str:
        text, error = pending.popleft().recv()
        if error is not None:
            raise error
        return text

    try:
        for _ in range(_FORMAT_WORKERS):
            conn, child = ctx.Pipe()
            # daemon: a table abandoned at exit must not keep the interpreter waiting
            worker = ctx.Process(target=_serve, args=(child, [*conns, conn]), daemon=True)
            worker.start()
            child.close()
            workers.append(worker)
            conns.append(conn)
        for i, job in enumerate(jobs):
            if len(pending) == len(conns):
                yield result()  # the job in flight on the next worker
            (conn := conns[i % len(conns)]).send(job)
            pending.append(conn)
        while pending:
            yield result()
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker, conn in zip(workers, conns):
            with contextlib.suppress(OSError):  # the worker is gone already
                conn.send(None)
            worker.join()
            conn.close()


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
    else:
        # each JSON row opens with the ",\n" that separates it from the previous one
        keys = [f"{json.dumps(name)}: ".replace("%", "%%") for name in names]
        literals = [",\n  {\n    " + keys[0], *[",\n    " + k for k in keys[1:]], "\n  }"]
    # closed here, not when the frame is freed: a failed write stops the workers before it is raised
    with contextlib.closing(_blocks(parts, names, fmt, literals)) as blocks:
        if fmt == "csv":
            for text in blocks:
                fh.write(text)
            return
        opened = False
        for text in blocks:
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

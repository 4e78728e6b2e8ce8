"""Column-wise CSV and JSON table writer behind every ``dtsim`` table.

A table is an iterable of parts written one after another under one header.
Parts may be generated while the table is written (``Ensemble.columns``
yields one per block of paths).  A part maps each column name, in header
order, to a numpy array (int, float or str) or to ``None`` for a column
that is absent there.  A part's arrays broadcast against each other and its
rows are the entries of the broadcast shape in C order, so a label that
repeats along an axis is passed once at its own shape.

Text is formatted and written in blocks of about :data:`BLOCK_ROWS` rows
along the leading axis, so memory does not grow with the row count.  A
column that is broadcast along an axis of the block is formatted once per
distinct value and then repeated; a column broadcast along the leading axis
is formatted once for the whole part.  Full-size columns are formatted once
per block.  A table of two or more blocks written to a stream with a file
descriptor is formatted on :data:`_FORMAT_WORKERS` forked worker processes
(two where two or more cores are usable, none on one core or where
``fork`` is missing).  The writer reads the table up to its second block
and forks the workers; each then reads the rest itself, formats the blocks
whose index is its own modulo the worker count and writes their bytes
straight to the descriptor, so nothing is sent to a worker and no text
comes back.  Parts past the second block are therefore read once in each
worker, and a part generator must not depend on state outside its process
(a thread it started, say).  Blocks are written in order because the write
turn goes round a ring of pipes, one byte handed from each worker to the
next once its block is written.  When a part raises or a block fails to
format or write, the output holds exactly the blocks before it, at any
worker count, and the error is raised in the writer.  A one-block table,
every table on one core, and a stream without a descriptor (``StringIO``)
are formatted and written by the writer.  No byte of the output depends on
the number of workers.

CSV is a header line, then one line per row: floats as ``%.17g`` (which
round-trips), integers, strings and other objects as ``str``, absent cells
empty.  JSON is exactly ``json.dumps(rows, indent=2) + "\\n"`` for one
object per row: floats as ``repr``, non-finite floats as
``NaN``/``Infinity``/``-Infinity``, integers as ``str``, strings and other
objects as ``json.dumps`` of each cell, absent cells ``null``.

Both formats build a block the same way.  Each column's text is a byte
matrix, its cells padded with 0xFF, a byte that no UTF-8 text holds.
Columns and literals (the separators, and JSON's keys) are broadcast into
one byte array per block, and ``np.compress`` of the bytes that are not
0xFF, 64 KiB at a time, gives the block's text.  The CSV float text is
computed in numpy, byte for byte what ``'%.17g' % x`` gives: ``|x|`` is
scaled to 17 digits in double-double arithmetic from exact Dekker products
with a table of ``10**k``, rounded to an integer, and laid out as C's ``%g``
by one gather from a table of layouts.  That covers ``0`` and finite
``1e-270 < |x| < 1e270``.  The scaled value is within about 5e-15 of exact,
so Python formats each value whose fraction lies within 1e-9 of a half, and
so each is exact; Python also formats ``inf``, ``nan`` and values out of
that range.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import sys
from collections.abc import Iterable, Mapping

import numpy as np

__all__ = ["BLOCK_ROWS", "write_table"]

#: Rows formatted per block (a block holds at least one leading-axis entry).
BLOCK_ROWS = 8192

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Processes that format and write the blocks of a table of two or more
#: blocks: two where a second core can run them, none on one core or without
#: ``fork``, where the writer formats every block itself.  Two, not one per
#: core, so memory does not grow with the core count; no byte of a table
#: depends on it.
_FORMAT_WORKERS = 2 if _CORES > 1 and hasattr(os, "fork") else 0

_ABSENT = {"csv": "", "json": "null"}

#: Pads cells to their column's width, and is compressed away from the
#: block's bytes: no UTF-8 text holds it.
_PAD = 0xFF
#: Bytes of a block compacted at a time when its pad bytes are taken out.
_CHUNK = 1 << 16
#: Exponents ``k`` of the ``10**k`` table: ``10**e`` and ``10**(e + 1)``
#: bracket every ``|x|`` in the kernel's range, and ``10**(16 - e)`` scales it.
_K_MIN, _K_MAX = -272, 288
_SPLIT = 2.0**27 + 1  # Dekker's splitter: x * _SPLIT separates the top 26 bits of x
#: Each float's ``%.17g`` text is gathered from 28 bytes: sign, ``0``, point,
#: the 17 digits (the last 16 four at a time from a table), ``e``, the
#: exponent's sign, a pad byte and the exponent's three digits.
_MINUS, _ZERO, _POINT, _DIGITS, _E, _E_SIGN, _PAD_BYTE, _E_DIGITS, _SOURCE = 0, 1, 2, 3, 20, 21, 22, 24, 28
_WIDTH = 24  # the longest text, -d.dddddddddddddddde-XXX
#: Source words 0 and 5 as ``uint32``: ``-0.`` and a ``0`` that the lead digit is
#: added to, and ``e`` with the exponent's sign and two pad bytes.
_HEAD, _E_PLUS, _E_MINUS = (int.from_bytes(text, "little") for text in (b"-0.0", b"e+\xff\xff", b"e-\xff\xff"))


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The ``%.17g`` kernel's tables, built on its first call, from Python ints.

    ``10**k`` for ``k`` in ``[_K_MIN, _K_MAX]`` as ``hi + lo`` (``hi`` the
    nearest double, ``lo`` the nearest double to the rest) with ``hi`` split
    in two 26-bit halves; the ASCII digits of ``0..9999`` as ``uint32`` and
    their trailing zeros; the exponents ``0..999`` as three ASCII digits and a
    pad byte; and every layout of C's ``%g``, as the source byte of each
    output byte and the text's length.  Layout
    ``391 * negative + 17 * kind + digits - 1`` has ``digits`` significant
    digits; kinds 0-20 are fixed notation at exponents -4 to 16, kinds 21 and
    22 exponent notation with two and three exponent digits.
    """
    positive, negative = [], []  # (hi, lo) of 10**m and of 10**-m
    power = 1
    for m in range(_K_MAX + 1):
        hi = float(power)  # int to float rounds to nearest
        positive.append((hi, float(power - int(hi))))
        if 0 < m <= -_K_MIN:
            hi = 1 / power  # and so does int division
            num, den = hi.as_integer_ratio()  # den = 2**s, and 10**-m - hi = (den - num * power) / power / 2**s
            negative.append((hi, math.ldexp((den - num * power) / power, 1 - den.bit_length())))
        power *= 10
    hi, lo = np.array(negative[::-1] + positive).T
    split = _SPLIT * hi
    top = split - (split - hi)
    pow10 = np.stack([hi, lo, top, hi - top])
    digit = np.arange(10, dtype=np.uint8) + ord("0")
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)  # quads[a, b, c, d] = "abcd"
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    quads = quads.reshape(10_000, 4)
    zeros = np.zeros(10_000, np.uint8)  # trailing zeros of "abcd"
    run = np.ones(10_000, bool)
    for place in range(3, -1, -1):
        run &= quads[:, place] == ord("0")
        zeros += run
    triples = np.full((1000, 4), _PAD, np.uint8)
    triples[:, :3] = quads[:1000, 1:]
    digits = list(range(_DIGITS, _DIGITS + 17))
    layouts = []
    for kind in range(23):
        for n in range(1, 18):
            e = kind - 4
            if kind > 20:  # d.ddde+XX
                point = [_POINT, *digits[1:n]] if n > 1 else []
                out = [digits[0], *point, _E, _E_SIGN, *range(_E_DIGITS + 1 - (kind - 21), _E_DIGITS + 3)]
            elif e >= 0:  # ddd.ddd, or ddd00 when there are no more digits than places
                out = digits[: e + 1] + ([_POINT, *digits[e + 1 : n]] if n > e + 1 else [])
            else:  # 0.000ddd
                out = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits[:n]
            layouts.append(out + [_PAD_BYTE] * (_WIDTH - len(out)))
    sources = np.empty((2, len(layouts), _WIDTH), np.intp)
    sources[0] = np.fromiter(itertools.chain.from_iterable(layouts), np.intp).reshape(len(layouts), _WIDTH)
    sources[1, :, 0] = _MINUS
    sources[1, :, 1:] = sources[0, :, :-1]
    sources = sources.reshape(-1, _WIDTH)
    lengths = np.count_nonzero(sources != _PAD_BYTE, axis=1)
    return pow10, quads.view(np.uint32).ravel(), zeros, triples.view(np.uint32).ravel(), sources, lengths


def _g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float ``v`` of the 1-D ``x``, as ASCII padded with :data:`_PAD`: an ``S`` array."""
    pow10, quads, zeros, triples, sources, lengths = _kernel_tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    fast = (a > 1e-270) & (a < 1e270)  # False on inf and nan
    a = np.where(fast, a, 1.0)
    # e = floor(log10(a)), made exact by comparing a with 10**e and 10**(e + 1) as hi + lo
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = pow10[0].take(e - _K_MIN), pow10[1].take(e - _K_MIN)
    e -= (a < hi) | ((a == hi) & (lo > 0))
    hi, lo = pow10[0].take(e + 1 - _K_MIN), pow10[1].take(e + 1 - _K_MIN)
    e += (a > hi) | ((a == hi) & (lo <= 0))
    # q = a * 10**(16 - e) in [1e16, 1e17) as qh + ql: a * hi exactly (Dekker), plus a * lo
    k = 16 - e - _K_MIN
    hi, lo, hi_top, hi_low = (row.take(k) for row in pow10)
    prod = a * hi
    split = _SPLIT * a
    a_top = split - (split - a)
    a_low = a - a_top
    low = ((a_top * hi_top - prod) + a_top * hi_low + a_low * hi_top) + a_low * hi_low + a * lo
    qh = prod + low
    ql = low - (qh - prod)
    # qh >= 2**53 is an integer; a ql within 1e-9 of a half is left to Python below
    digits = qh.astype(np.int64) + np.rint(ql).astype(np.int64)
    fast &= np.abs(ql - np.floor(ql) - 0.5) > 1e-9
    top = digits == 10**17  # rounded up to the next power of ten
    digits[top] = 10**16
    e += top
    digits[zero] = 0
    e[zero] = 0
    source = np.empty((n, _SOURCE // 4), np.uint32)
    lead = digits // 10**16
    source[:, 0] = _HEAD + (lead.astype(np.uint32) << 24)
    source[:, _E // 4] = np.where(e < 0, _E_MINUS, _E_PLUS)
    source[:, _E_DIGITS // 4] = triples.take(np.abs(e))
    rest = digits - lead * 10**16
    trailing = np.zeros(n, np.intp)
    run = np.ones(n, bool)
    for word in range(4, 0, -1):
        quad = rest
        rest = rest // 10_000
        quad -= rest * 10_000
        source[:, word] = quads.take(quad)
        trailing += run * zeros.take(quad)
        run &= quad == 0
    kind = np.where((e >= -4) & (e < 17), e + 4, 21 + (np.abs(e) >= 100))
    layout = 391 * np.signbit(x) + 17 * kind + (16 - trailing)
    slow = np.flatnonzero(~(fast | zero))
    cells = [("%.17g" % v).encode() for v in x[slow].tolist()]
    width = max(1, int(lengths.take(layout).max(initial=0)), *map(len, cells))
    text = np.empty((n, width), np.uint8)
    flat = source.view(np.uint8).ravel()
    for start in range(0, n, 1024):  # in chunks: a whole (n, 24) index of fresh pages took twice the time
        index = sources.take(layout[start : start + 1024], axis=0)
        index += np.arange(start * _SOURCE, (start + len(index)) * _SOURCE, _SOURCE)[:, np.newaxis]
        text[start : start + 1024] = flat.take(index)[:, :width]
    for i, cell in zip(slow, cells):
        text[i] = _PAD
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return text.view(f"S{width}").reshape(n)


def _text(a: np.ndarray | None, fmt: str) -> np.ndarray:
    """``fmt`` text of each entry of ``a``, UTF-8 padded with :data:`_PAD`: an ``S`` array of ``a.shape``.

    Floats are ``%.17g`` in CSV and ``repr`` in JSON, integers ``str``, and
    strings and objects ``str`` in CSV and ``json.dumps`` in JSON.  ``None``
    is an absent column: one cell, empty in CSV and ``null`` in JSON.
    """
    if a is None:
        cells = [_ABSENT[fmt]]
    elif a.dtype.kind == "f":  # as %-formatting does, the value as a double
        x = a.astype(np.float64, copy=False).ravel()
        if fmt == "csv":
            return _g17(x).reshape(a.shape)
        cells = list(map(repr, x.tolist()))  # what json.dumps writes for a finite float
        for i in np.flatnonzero(~np.isfinite(x)):
            cells[i] = json.dumps(x[i].item())
    elif a.dtype.kind in "iu" or fmt == "csv":
        cells = list(map(str, a.ravel().tolist()))
    else:
        cells = list(map(json.dumps, a.ravel().tolist()))
    cells = [cell.encode() for cell in cells]
    width = max([1, *map(len, cells)])
    text = b"".join(cell.ljust(width, b"\xff") for cell in cells)
    return np.frombuffer(text, f"S{width}").reshape(() if a is None else a.shape)


def _jobs(parts: Iterable[Mapping], names: list[str], fmt: str, literals: list[str]):
    """One ``(fmt, literals, block shape, columns)`` job per block of rows, for :func:`_format`.

    A column repeated in every block of its part, or absent, is text already,
    formatted once per part by :func:`_text`; the others are the block's
    slices of the part's arrays.  Each format worker runs its own copy of
    the generator from the fork on (see :func:`_work`).
    """
    for part in parts:
        if list(part) != names:
            raise ValueError(f"table part has columns {list(part)}, expected {names}")
        cols = [None if v is None else np.asarray(v) for v in part.values()]
        for c in cols:
            if c is not None and c.dtype.kind not in "fiuUO":  # an S array is text already
                raise TypeError(f"cannot write a column of dtype {c.dtype}")
        cols = [_text(None, fmt) if c is None else c for c in cols]
        shape = np.broadcast_shapes(*(c.shape for c in cols)) or (1,)
        cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
        cols = [c if c.shape[0] > 1 or c.dtype.kind == "S" else _text(c, fmt) for c in cols]
        inner = math.prod(shape[1:])
        step = max(1, BLOCK_ROWS // max(inner, 1))
        for lo in range(0, shape[0] if inner else 0, step):
            block = (min(step, shape[0] - lo),) + shape[1:]
            yield fmt, literals, block, [c if c.shape[0] == 1 else c[lo : lo + block[0]] for c in cols]


def _format(job) -> bytes:
    """UTF-8 text of one block of rows, every row written as ``literals`` around its cells.

    The literals and each column's text are broadcast into one byte array,
    and the block's text is that array less its pad bytes.
    """
    fmt, literals, block, cols = job
    pieces = [np.frombuffer(literals[0].encode(), np.uint8)]
    for c, literal in zip(cols, literals[1:]):
        text = c if c.dtype.kind == "S" else _text(c, fmt)
        pieces += [text[..., np.newaxis].view(np.uint8), np.frombuffer(literal.encode(), np.uint8)]
    text = np.empty(block + (sum(piece.shape[-1] for piece in pieces),), np.uint8)
    at = 0
    for piece in pieces:
        text[..., at : at + piece.shape[-1]] = piece
        at += piece.shape[-1]
    text = text.ravel()
    at = 0
    # compacted in place, a chunk at a time: np.compress builds an 8-byte index per kept byte
    for lo in range(0, len(text), _CHUNK):
        chunk = text[lo : lo + _CHUNK]
        kept = np.compress(chunk != _PAD, chunk)
        text[at : at + len(kept)] = kept
        at += len(kept)
    return text[:at].tobytes()


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _work(out: int, jobs: Iterable, w: int, n: int, status: int, turn: int, next_turn: int, skip: int):
    """Worker ``w`` of ``n``: format block ``i`` of ``jobs`` when ``i % n == w`` and write it to ``out`` on its turn.

    The worker reads ``jobs`` itself, from where the fork left it.  The turn
    is a byte read from ``turn`` and passed on to ``next_turn`` once the
    block is written.  The first error, from ``jobs`` or from the worker's
    own block, is pickled to ``status`` with that block's index once both
    ring ends are closed: the workers after it then read EOF for a turn and
    stop, and none is left waiting to report.  Block 0 loses its first
    ``skip`` bytes.  The worker closes every other descriptor it inherits
    but the standard streams: a pipe end held here, even a read end of
    ``out``, would keep EOF or a broken pipe from showing.  It leaves only
    through ``os._exit``: it flushes none of the writer's buffers and never
    returns into the writer's stack.
    """
    code = 1
    try:
        import signal  # here, not at the top: the CLI does not load it at startup

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the writer stops its workers on an interrupt
        keep = sorted({0, 1, 2, out, status, turn, next_turn})
        for lo, hi in zip([-1, *keep], [*keep, os.sysconf("SC_OPEN_MAX")]):
            if lo + 1 < hi:  # an empty range would close every descriptor on some Pythons
                os.closerange(lo + 1, hi)
        i = 0  # counted by hand, not by enumerate: an error from jobs carries the index of the block it stops
        try:
            for job in jobs:
                if i % n == w:
                    data = memoryview(_format(job))[skip if i == 0 else 0 :]
                    if not os.read(turn, 1):  # a worker before this one has stopped: its report or exit says why
                        break
                    _write_all(out, data)
                    with contextlib.suppress(BrokenPipeError):  # the next worker has stopped and takes no more turns
                        os.write(next_turn, b"\0")
                i += 1
        except BaseException as error:  # raised again in the writer, a part's KeyboardInterrupt too
            os.close(turn)
            os.close(next_turn)
            _write_all(status, pickle.dumps((i, error)))
        code = 0
    finally:
        os._exit(code)


def _write_on_workers(out: int, jobs: Iterable, skip: int) -> None:
    """Format ``jobs`` on :data:`_FORMAT_WORKERS` forked workers that each read them and write their blocks to ``out``.

    The write turn goes round a ring of pipes, one byte passed from each
    worker to the next, so the blocks are written in order.  Once every
    worker's status pipe is at EOF and every worker is reaped, the reported
    error of the lowest block, a write error included, is raised here: every
    block before it is written, and no block after it is.  When this raises
    on its own account, such as on an interrupt, each worker is killed first.
    """
    n = _FORMAT_WORKERS
    held: set[int] = set()  # pipe ends open here
    pids: list[int] = []
    errors = {}  # each reported error, by the index of the block it stops

    def pipe() -> tuple[int, int]:
        ends = os.pipe()
        held.update(ends)
        return ends

    def close(*ends: int) -> None:
        for end in ends:
            held.remove(end)
            os.close(end)

    try:
        turns = [pipe() for _ in range(n)]
        os.write(turns[0][1], b"\0")  # block 0's turn
        statuses = []  # each worker's status, read here
        for w in range(n):
            r, s = pipe()
            pid = os.fork()
            if pid == 0:
                _work(out, jobs, w, n, s, turns[w][0], turns[(w + 1) % n][1], skip)
            pids.append(pid)
            close(s)
            statuses.append(r)
        close(*(end for turn in turns for end in turn))
        for r in statuses:
            report = b"".join(iter(functools.partial(os.read, r, 1 << 16), b""))
            if report:
                i, error = pickle.loads(report)
                errors.setdefault(i, error)
    except BaseException:
        import signal  # here, not at the top: the CLI does not load it at startup

        for pid in pids:  # a worker may wait for a turn that will not come
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        close(*held)
        exits = [os.waitpid(pid, 0)[1] for pid in pids]
    if errors:
        raise errors[min(errors)]
    for pid, status in zip(pids, exits):
        if status:
            raise RuntimeError(f"table format worker {pid} exited without writing its block")


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
        keys = [f"{json.dumps(name)}: " for name in names]
        literals = [",\n  {\n    " + keys[0], *[",\n    " + k for k in keys[1:]], "\n  }"]
    jobs = _jobs(parts, names, fmt, literals)
    try:
        out = fh.fileno() if _FORMAT_WORKERS else None
    except (AttributeError, OSError, ValueError):  # a stream without one, such as StringIO
        out = None
    head = list(itertools.islice(jobs, 1 if out is None else 2))
    skip = 0
    if fmt == "json":
        fh.write("[\n" if head else "[]\n")
        skip = 2  # the first row has no row before it
    jobs = itertools.chain(head, jobs)
    if len(head) == 2:
        fh.flush()
        _write_on_workers(out, jobs, skip)
    else:
        for job in jobs:
            fh.write(_format(job)[skip:].decode())
            skip = 0
    if fmt == "json" and head:
        fh.write("\n]\n")


def write_table(parts: Iterable[Mapping], fmt: str, out: str | None) -> None:
    """Write ``parts`` as one ``fmt`` (``"csv"`` or ``"json"``) table to the file ``out``, or stdout.

    Past its second block, a table written by format workers is read once in
    each worker process (see the module docstring).  When a part raises or a
    block fails, the output holds exactly the blocks before it.
    """
    if fmt not in _ABSENT:
        raise ValueError(f"table format must be csv or json, got {fmt!r}")
    if out:
        with open(out, "w") as fh:
            _write(fh, parts, fmt)
    else:
        _write(sys.stdout, parts, fmt)

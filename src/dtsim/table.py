"""Column-wise CSV and JSON table writer behind every ``dtsim`` table.

A table is a sequence of parts written one after another under one header.
A part maps each column name, in header order, to a numpy array (int, float
or str) or to ``None`` for a column that is absent there.  A part's arrays
broadcast against each other and its rows are the entries of the broadcast
shape in C order, so a label that repeats along an axis is passed once at
its own shape.  A :class:`_Parts` builds part ``i`` only when it is read
(``Ensemble.columns`` one batch of paths, ``dtsim spectra`` one chunk of
frequencies) and names its columns and rows.  Parts given built, in a list
or tuple, are cut by index into parts of one block each, and so is the one
part of a :class:`_Parts` of one part, which the writer builds before it
opens the output: any other part is built by the process that writes it.

Text is formatted and written in blocks of about :data:`BLOCK_ROWS` rows
along the leading axis, so memory does not grow with the row count.  A
column broadcast along an axis of the block is formatted once per distinct
value and then repeated; one broadcast along the leading axis is formatted
once for a run of parts that hold the same bytes there.  A table of more
than one block written to a stream with a file descriptor is written by up
to :data:`_FORMAT_WORKERS` forked worker processes (two where two or more
cores are usable, none on one core or without ``fork``): worker ``w`` of
``n`` builds each part ``i`` with ``i % n == w``, formats it and writes it
straight to the descriptor, so each part is built once, nothing is sent to
a worker and no text comes back.  Parts are written in order because the
write turn goes round a ring of pipes, one byte handed from each worker to
the next once its part is written; a worker formats up to 1 MiB of its part
while it waits.  When a part raises or a block fails to format or write,
the output holds exactly the blocks before it, at any worker count, and the
error is raised in the writer.  A one-block table, every table on one core,
and a stream without a descriptor (``StringIO``) are formatted and written
by the writer.  No byte of the output depends on the number of workers.

CSV is a header line, then one line per row: floats as ``%.17g`` (which
round-trips), integers, strings and other objects as ``str``, absent cells
empty.  JSON is exactly ``json.dumps(rows, indent=2) + "\\n"`` for one
object per row: floats as ``repr``, non-finite floats as
``NaN``/``Infinity``/``-Infinity``, integers as ``str``, strings and other
objects as ``json.dumps`` of each cell, absent cells ``null``.

Both formats build a block the same way.  Each column's text is a byte
matrix, its cells padded with 0xFF, a byte that no UTF-8 text holds.
Columns and literals (the separators, and JSON's keys) are broadcast into
one byte array per block, and ``bytes.translate`` deleting the 0xFF bytes,
64 KiB at a time, gives the block's text.

Float and integer text is computed in numpy, byte for byte what Python
gives, and laid out by one gather from a table of layouts.  A float ``x``
with ``1e-270 < |x| < 1e270`` is scaled to ``[1e16, 1e17)`` in
double-double arithmetic from exact Dekker products with a table of
``10**k``, within about 5e-15 of exact.  CSV's ``%.17g`` rounds that to an
integer, and Python formats each value whose fraction lies within 1e-9 of a
half.  JSON's ``repr`` is the nearest 15-, 16- or 17-digit decimal, the
shortest that lies strictly inside ``x``'s rounding interval; Python formats
each value whose candidate lies within 1e-9 of the interval's end or of a
rounding tie, and each power of two, whose interval is narrower below.
Python also formats ``inf``, ``nan`` and floats out of that range, in both
formats.  Integers are written from their digits four at a time, over the
whole int64 and uint64 range.  A numeric column of fewer than
:data:`_KERNEL_CELLS` cells (a label broadcast along the rows, say) is
formatted by Python, which is faster there.  The kernels' tables are built
on the first column they format, never at import, and by the writer before
it forks the format workers, which then share them.
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
from collections.abc import Iterator, Mapping, Sequence

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

#: Pads cells to their column's width, and is deleted from the block's
#: bytes by ``bytes.translate``: no UTF-8 text holds it.
_PAD = 0xFF
#: Bytes of a block compacted at a time when its pad bytes are taken out.
_CHUNK = 1 << 16
#: Exponents ``k`` of the ``10**k`` table: ``10**e`` and ``10**(e + 1)``
#: bracket every ``|x|`` in the float kernels' range, and ``10**(16 - e)`` scales it.
_K_MIN, _K_MAX = -272, 288
_SPLIT = 2.0**27 + 1  # Dekker's splitter: x * _SPLIT separates the top 26 bits of x
#: Each float's text is gathered from 28 bytes: sign, ``0``, point, the 17
#: digits (the last 16 four at a time from a table), ``e``, the exponent's
#: sign, a pad byte and the exponent's three digits.
_MINUS, _ZERO, _POINT, _DIGITS, _E, _E_SIGN, _PAD_BYTE, _E_DIGITS = 0, 1, 2, 3, 20, 21, 22, 24
_WIDTH = 24  # the longest text, -d.dddddddddddddddde-XXX
#: Source words 0 and 5 as ``uint32``: ``-0.`` and a ``0`` that the lead digit is
#: added to, and ``e`` with the exponent's sign and two pad bytes.
_HEAD, _E_PLUS, _E_MINUS = (int.from_bytes(text, "little") for text in (b"-0.0", b"e+\xff\xff", b"e-\xff\xff"))
#: An integer's text is gathered from 24 bytes: its 20 digits, four at a time
#: from a table, then source word 5, a minus sign and pad bytes (so the pad is
#: byte 22, as for a float).
_INT_MINUS, _INT_SIGN = 20, int.from_bytes(b"-\xff\xff\xff", "little")
#: Cells of a numeric column from which the kernels build its text: a kernel
#: call costs 0.1-0.4 ms at any size, and Python formats ints and ``%.17g``
#: floats faster up to about 200 cells (``repr`` up to about 70).
_KERNEL_CELLS = 128
#: First rows in the table of layouts of ``%.17g``, of ``repr`` and of integers.
_G17_LAYOUTS, _REPR_LAYOUTS, _INT_LAYOUTS = 0, 2 * 23 * 17, 2 * 23 * 17 + 2 * 22 * 17


def _float_layouts(fixed: int, point_zero: bool) -> Iterator[list[int]]:
    """Source bytes of each float layout, fixed notation at exponents -4 to ``fixed``, then ``d.ddde+XX``.

    Layout ``17 * kind + digits - 1`` has ``digits`` significant digits; kinds
    up to ``fixed + 4`` are fixed notation, the next two exponent notation with
    two and three exponent digits.  With ``point_zero`` a fixed number with no
    digit after its point ends in ``.0``, as ``repr`` writes it.
    """
    digits = list(range(_DIGITS, _DIGITS + 17))
    for kind in range(fixed + 7):
        for n in range(1, 18):
            e = kind - 4
            if e > fixed:  # d.ddde+XX
                point = [_POINT, *digits[1:n]] if n > 1 else []
                out = [digits[0], *point, _E, _E_SIGN, *range(_E_DIGITS + fixed + 6 - kind, _E_DIGITS + 3)]
            elif e >= 0:  # ddd.ddd, or ddd00 (ddd00.0) when there are no more digits than places
                out = digits[: e + 1] + ([_POINT, *digits[e + 1 : n]] if n > e + 1 else [_POINT, _ZERO] * point_zero)
            else:  # 0.000ddd
                out = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits[:n]
            yield out


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The text kernels' tables, built on their first call, from Python ints.

    ``10**k`` for ``k`` in ``[_K_MIN, _K_MAX]`` as ``hi + lo`` (``hi`` the
    nearest double, ``lo`` the nearest double to the rest) with ``hi`` split
    in two 26-bit halves; the ASCII digits of ``0..9999`` as ``uint32`` and
    their trailing zeros; the exponents ``0..999`` as three ASCII digits and a
    pad byte; and every layout, as the source byte of each output byte and the
    text's length.  The layouts are C's ``%g`` from :data:`_G17_LAYOUTS`, at
    ``391 * negative + 17 * kind + digits - 1`` (kinds 0-20 fixed notation at
    exponents -4 to 16); ``repr`` from :data:`_REPR_LAYOUTS`, at ``374 *
    negative + 17 * kind + digits - 1`` (kinds 0-19 fixed at -4 to 15); and
    integers from :data:`_INT_LAYOUTS`, at ``20 * negative + digits - 1``.
    """
    hi, lo = np.empty((2, _K_MAX - _K_MIN + 1))  # 10**k, at k - _K_MIN
    power = 1
    for m in range(_K_MAX + 1):
        hi[m - _K_MIN] = float(power)  # int to float rounds to nearest
        lo[m - _K_MIN] = float(power - int(hi[m - _K_MIN]))
        if 0 < m <= -_K_MIN:
            hi[-m - _K_MIN] = up = 1 / power  # and so does int division
            num, den = up.as_integer_ratio()  # den = 2**s, and 10**-m - up = (den - num * power) / power / 2**s
            lo[-m - _K_MIN] = math.ldexp((den - num * power) / power, 1 - den.bit_length())
        power *= 10
    split = _SPLIT * hi
    top = split - (split - hi)
    pow10 = np.stack([hi, lo, top, hi - top])
    # by copies and fills alone: the writer builds these before it forks, and a ufunc run here
    # would page in numpy code that a writer which formats no block itself needs nowhere else
    digit = np.frombuffer(b"0123456789", np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)  # quads[a, b, c, d] = "abcd"
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    quads = quads.reshape(10_000, 4)
    zeros = np.zeros((10, 10, 10, 10), np.uint8)  # trailing zeros of "abcd"
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    triples = np.full((1000, 4), _PAD, np.uint8)
    triples[:, :3] = quads[:1000, 1:]
    sources = np.full((_INT_LAYOUTS + 2 * 20, _WIDTH), _PAD_BYTE, np.uint8)
    lengths = np.empty(len(sources), np.uint8)
    ints = (list(range(20 - n, 20)) for n in range(1, 21))
    for start, count, layouts, minus in ((_G17_LAYOUTS, 17 * 23, _float_layouts(16, False), _MINUS),
                                         (_REPR_LAYOUTS, 17 * 22, _float_layouts(15, True), _MINUS),
                                         (_INT_LAYOUTS, 20, ints, _INT_MINUS)):
        for row, out in enumerate(layouts, start):  # each layout, then the same negative one ``count`` rows on
            sources[row, : len(out)] = out
            sources[row + count, : len(out) + 1] = [minus, *out]
            lengths[row], lengths[row + count] = len(out), len(out) + 1
    return pow10, quads.view(np.uint32).ravel(), zeros.ravel(), triples.view(np.uint32).ravel(), sources, lengths


def _scaled(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``e = floor(log10(a))``, ``q = a * 10**(16 - e)`` in ``[1e16, 1e17)`` as ``qh + ql``, and ``10**(16 - e)``.

    For ``1e-270 < a < 1e270``; the power is the nearest double.  ``e`` is
    exact: ``a`` is compared with ``10**e`` and ``10**(e + 1)`` as ``hi +
    lo``.  ``q`` is ``a * hi`` exactly (Dekker) plus ``a * lo``, within about
    5e-15 of exact; ``qh >= 2**53`` is an integer.
    """
    pow10 = _kernel_tables()[0]
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = pow10[0].take(e - _K_MIN), pow10[1].take(e - _K_MIN)
    e -= (a < hi) | ((a == hi) & (lo > 0))
    hi, lo = pow10[0].take(e + 1 - _K_MIN), pow10[1].take(e + 1 - _K_MIN)
    e += (a > hi) | ((a == hi) & (lo <= 0))
    hi, lo, hi_top, hi_low = (row.take(16 - e - _K_MIN) for row in pow10)
    prod = a * hi
    split = _SPLIT * a
    a_top = split - (split - a)
    a_low = a - a_top
    low = ((a_top * hi_top - prod) + a_top * hi_low + a_low * hi_top) + a_low * hi_low + a * lo
    qh = prod + low
    return e, qh, low - (qh - prod), hi


def _gather(layout: np.ndarray, source: np.ndarray, slow: Sequence[int] = (), cells: Sequence[bytes] = ()):
    """The text of each value, its row of ``source`` bytes picked by its ``layout``; ``cells`` at the indices ``slow``.

    An ``S`` array (``np.ndarray``) padded with :data:`_PAD`.
    """
    sources, lengths = _kernel_tables()[4:]
    n, stride = len(layout), source.shape[1] * source.itemsize
    width = max(1, int(lengths.take(layout).max(initial=0)), *map(len, cells))
    sources = sources[:, :width]
    text = np.empty((n, width), np.uint8)
    flat = source.view(np.uint8).ravel()
    for start in range(0, n, 1024):  # in chunks: a whole (n, 24) index of fresh pages took twice the time
        index = sources.take(layout[start : start + 1024], axis=0)
        index = np.arange(start * stride, (start + len(index)) * stride, stride)[:, np.newaxis] + index
        text[start : start + 1024] = flat.take(index)
    for i, cell in zip(slow, cells):
        text[i] = _PAD
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return text.view(f"S{width}").reshape(n)


def _float_text(x: np.ndarray, digits: np.ndarray, e: np.ndarray, slow: np.ndarray, style: int, fmt) -> np.ndarray:
    """Text of the floats ``x`` with the 17 significant digits ``digits * 10**(e - 16)``, ``fmt(v)`` at ``slow``.

    ``style`` is :data:`_G17_LAYOUTS` or :data:`_REPR_LAYOUTS`; trailing zero
    digits are not written.
    """
    _, quads, zeros, triples, *_ = _kernel_tables()
    n = len(x)
    top = digits == 10**17  # rounded up to the next power of ten
    digits[top] = 10**16
    e += top
    source = np.empty((n, 7), np.uint32)
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
    fixed = 16 if style == _G17_LAYOUTS else 15
    kind = np.where((e >= -4) & (e <= fixed), e + 4, fixed + 5 + (np.abs(e) >= 100))
    layout = style + 17 * (fixed + 7) * np.signbit(x) + 17 * kind + (16 - trailing)
    slow = np.flatnonzero(slow)
    return _gather(layout, source, slow, [fmt(v).encode() for v in x[slow].tolist()])


def _g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float ``v`` of the 1-D ``x``, as ASCII padded with :data:`_PAD`: an ``S`` array."""
    a = np.abs(x)
    zero = a == 0
    fast = (a > 1e-270) & (a < 1e270)  # False on inf and nan
    e, qh, ql, _ = _scaled(np.where(fast, a, 1.0))
    # a ql within 1e-9 of a half is left to Python
    digits = qh.astype(np.int64) + np.rint(ql).astype(np.int64)
    fast &= np.abs(ql - np.floor(ql) - 0.5) > 1e-9
    digits[zero] = 0
    e[zero] = 0
    return _float_text(x, digits, e, ~(fast | zero), _G17_LAYOUTS, "%.17g".__mod__)


def _repr(x: np.ndarray) -> np.ndarray:
    """``json.dumps(v)`` for each float ``v`` of the 1-D ``x`` (``repr`` when finite), as for :func:`_g17`.

    The digits are the nearest 15-digit decimal to ``v`` when that lies
    strictly inside ``v``'s rounding interval (half an ulp each side), else
    the nearest 16-digit one when inside, else the nearest 17-digit one: the
    shortest text that reads back as ``v``, and the nearest of those, as
    ``repr`` writes it.  Each candidate is rounded from the scaled ``qh +
    ql``, never from a rounded candidate.  Python formats each value whose
    candidate lies within 1e-9 of its interval's end or of a rounding tie,
    each power of two (its interval is narrower below), and each value
    :func:`_g17` leaves to Python.
    """
    a = np.abs(x)
    zero = a == 0
    fast = (a > 1e-270) & (a < 1e270) & (np.frexp(a)[0] != 0.5)  # False on inf, nan and powers of two
    a = np.where(fast, a, 1.5)
    e, qh, ql, scale = _scaled(a)
    half = 0.5 * np.spacing(a) * scale  # half an ulp at the scale of q, in (0.55, 11.1)
    whole = qh.astype(np.int64)
    digits = whole + np.rint(ql).astype(np.int64)  # 17 digits, inside the interval
    slow = ~(fast | zero) | (np.abs(ql - np.floor(ql) - 0.5) <= 1e-9)  # a 17-digit tie, as in _g17
    open_ = fast & ~slow  # not yet given its digits
    for unit in (100, 10):  # 15 digits, then 16
        kept = whole // unit
        rest = (whole - kept * unit) + ql  # q - kept * unit
        step = np.rint(rest / unit)
        off = np.abs(rest - step * unit)  # from q to the candidate
        margin = half - off
        unsure = (np.abs(margin) <= 1e-9) | (np.abs(off - unit / 2) <= 1e-9)
        slow |= open_ & unsure & (margin > -1e-9)
        take = open_ & (margin > 1e-9) & ~unsure
        digits[take] = ((kept + step.astype(np.int64)) * unit)[take]
        open_ &= ~(take | (margin > -1e-9))
    digits[zero] = 0
    e[zero] = 0
    return _float_text(x, digits, e, slow, _REPR_LAYOUTS, json.dumps)


def _decimal(a: np.ndarray) -> np.ndarray:
    """``str(v)`` for each integer ``v`` of the 1-D ``a`` (any int or uint dtype), as for :func:`_g17`."""
    quads = _kernel_tables()[1]
    n = len(a)
    negative = a < 0
    magnitude = a.astype(np.uint64)  # -v as 2**64 - v ...
    np.negative(magnitude, out=magnitude, where=negative)  # ... and then v, -2**63 included
    places = len(str(int(magnitude.max(initial=0))))
    length = np.ones(n, np.intp)
    for place in range(1, places):
        length += magnitude >= 10**place
    source = np.empty((n, 6), np.uint32)
    source[:, 5] = _INT_SIGN
    rest = magnitude
    for word in range(4, 4 - (places + 3) // 4, -1):
        quad = rest
        rest = rest // 10_000
        quad -= rest * 10_000
        source[:, word] = quads.take(quad)
    return _gather(_INT_LAYOUTS + 20 * negative + length - 1, source)


def _text(a: np.ndarray | None, fmt: str) -> np.ndarray:
    """``fmt`` text of each entry of ``a``, UTF-8 padded with :data:`_PAD`: an ``S`` array of ``a.shape``.

    Floats are ``%.17g`` in CSV (:func:`_g17`) and ``repr`` in JSON
    (:func:`_repr`, non-finite ones ``json.dumps``), integers ``str``
    (:func:`_decimal`): from :data:`_KERNEL_CELLS` cells on, all three are
    built in numpy, and the floats each kernel cannot settle exactly are
    formatted by Python.  Strings and objects are ``str`` in CSV and
    ``json.dumps`` in JSON.  ``None`` is an absent column: one cell, empty in
    CSV and ``null`` in JSON.
    """
    if a is None:
        cells = [_ABSENT[fmt]]
    else:
        if a.dtype.kind == "f":  # as %-formatting does, the value as a double
            a = a.astype(np.float64, copy=False)
        if a.dtype.kind in "fiu" and a.size >= _KERNEL_CELLS:
            kernel = _decimal if a.dtype.kind != "f" else _g17 if fmt == "csv" else _repr
            return kernel(a.ravel()).reshape(a.shape)
        cell = "%.17g".__mod__ if fmt == "csv" and a.dtype.kind == "f" else str if fmt == "csv" else json.dumps
        cells = list(map(cell, a.ravel().tolist()))
    cells = [cell.encode() for cell in cells]
    width = max([1, *map(len, cells)])
    text = b"".join(cell.ljust(width, b"\xff") for cell in cells)
    return np.frombuffer(text, f"S{width}").reshape(() if a is None else a.shape)


def _columns(part: Mapping, names: list[str], fmt: str) -> tuple[list[np.ndarray], tuple[int, ...], range]:
    """``part``'s columns at the rank of their broadcast shape (an absent one as text), that shape, and the
    first leading-axis entry of each of its blocks."""
    if list(part) != names:
        raise ValueError(f"table part has columns {list(part)}, expected {names}")
    cols = [None if v is None else np.asarray(v) for v in part.values()]
    for c in cols:
        if c is not None and c.dtype.kind not in "fiuUO":  # an S array is text already
            raise TypeError(f"cannot write a column of dtype {c.dtype}")
    cols = [_text(None, fmt) if c is None else c for c in cols]
    shape = np.broadcast_shapes(*(c.shape for c in cols)) or (1,)
    inner = math.prod(shape[1:])
    cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
    return cols, shape, _spans(shape[0] if inner else 0, inner)


def _spans(items: int, rows: int) -> range:
    """The first of each run of about one block of ``items`` items of ``rows`` rows each (at least one item a run)."""
    return range(0, items, max(1, BLOCK_ROWS // max(rows, 1)))


def _cut(parts: Sequence[Mapping], fmt: str) -> _Parts:
    """Built ``parts`` cut by index into parts of one block each; a column repeated along the leading axis
    stays whole."""
    if not parts:
        raise ValueError("a table needs at least one part")
    names, pieces, rows = list(parts[0]), [], 0
    for part in parts:
        cols, shape, starts = _columns(part, names, fmt)
        rows += math.prod(shape)
        pieces += [tuple(v if c.shape[0] == 1 else c[lo : lo + starts.step] for v, c in zip(part.values(), cols))
                   for lo in starts]
    return _Parts(names, len(pieces), pieces.__getitem__, rows)


def _jobs(part: Mapping, names: list[str], fmt: str, literals: list[str], labels: dict):
    """One ``(fmt, literals, block shape, columns)`` job per block of rows of ``part``, for :func:`_format`.

    A column repeated in every block of the part, or absent, is text already:
    formatted once by :func:`_text`, or taken from ``labels`` when the part
    before it in this process held the same bytes there, as a label broadcast
    along the rows of every part does.  The other columns are the block's
    slices of the part's arrays.
    """
    cols, shape, rows = _columns(part, names, fmt)
    for k, c in enumerate(cols):
        if c.shape[0] == 1 and c.dtype.kind != "S":
            key = None if c.dtype.kind == "O" else (c.dtype.str, c.shape, c.tobytes())
            if key is None or labels.get(k, (None,))[0] != key:
                labels[k] = (key, _text(c, fmt))
            cols[k] = labels[k][1]
    for lo in rows:
        block = (min(rows.step, shape[0] - lo),) + shape[1:]
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
    at, pad = 0, bytes((_PAD,))
    # compacted in place, a chunk at a time: bytes.translate deletes the pads in C from a copy of the chunk
    for lo in range(0, len(text), _CHUNK):
        kept = text[lo : lo + _CHUNK].tobytes().translate(None, pad)
        text[at : at + len(kept)] = np.frombuffer(kept, np.uint8)
        at += len(kept)
    return text[:at].tobytes()


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _work(out: int, parts: Sequence[Mapping], names: list[str], fmt: str, literals: list[str], w: int, n: int,
          status: int, turn: int, next_turn: int) -> None:
    """Worker ``w`` of ``n``: build, format and write each part ``i`` of ``parts`` with ``i % n == w`` on its turn.

    The turn is a byte from ``turn``, ``1`` once a row is written (the first
    JSON row has no ``,``), passed to ``next_turn`` once the part is written.
    The first error, from ``parts`` or from the worker's own blocks, is
    pickled to ``status`` with its part's index once the blocks before it are
    written and both ring ends are closed: the workers after it then read
    EOF for a turn and stop.  The worker closes every other descriptor it
    inherits but the standard streams (a pipe end held here, even a read end
    of ``out``, would keep EOF or a broken pipe from showing), and leaves
    only through ``os._exit``, never into the writer's stack.
    """
    code = 1
    try:
        import signal  # the writer loaded it before the fork: found in sys.modules

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the writer stops its workers on an interrupt
        keep = sorted({0, 1, 2, out, status, turn, next_turn})
        for lo, hi in zip([-1, *keep], [*keep, os.sysconf("SC_OPEN_MAX")]):
            if lo + 1 < hi:  # an empty range would close every descriptor on some Pythons
                os.closerange(lo + 1, hi)
        os.set_blocking(turn, False)
        labels: dict = {}
        i = w

        def texts(i: int) -> Iterator[bytes]:  # part i, built and formatted as they are read
            for job in _jobs(parts[i], names, fmt, literals, labels):
                yield _format(job)

        try:
            for i in range(w, len(parts), n):
                blocks, ahead, error, token = texts(i), [], None, None
                try:  # formatted ahead while the turn has not come
                    for text in blocks:
                        ahead.append(text)
                        with contextlib.suppress(BlockingIOError):
                            token = os.read(turn, 1)
                        if token is not None or sum(map(len, ahead)) >= 1 << 20:
                            break
                except BaseException as raised:  # the blocks before it are written first
                    error = raised
                if token is None:
                    os.set_blocking(turn, True)
                    token = os.read(turn, 1)
                    os.set_blocking(turn, False)
                if not token:  # a worker before this one has stopped: its report or exit says why
                    break
                wrote = token == b"\1"
                for text in itertools.chain(ahead, () if error else blocks):
                    _write_all(out, memoryview(text)[fmt == "json" and not wrote :])
                    wrote = True
                if error:
                    raise error
                if fmt == "json" and i == len(parts) - 1:
                    _write_all(out, b"\n]\n" if wrote else b"]\n")
                with contextlib.suppress(BrokenPipeError):  # the next worker has stopped and takes no more turns
                    os.write(next_turn, b"\1" if wrote else b"\0")
        except BaseException as error:  # raised again in the writer, a part's KeyboardInterrupt too
            os.close(turn)
            os.close(next_turn)
            _write_all(status, pickle.dumps((i, error)))
        code = 0
    finally:
        os._exit(code)


def _write_on_workers(out: int, parts: Sequence[Mapping], names: list[str], fmt: str, literals: list[str]) -> None:
    """Write ``parts`` on up to :data:`_FORMAT_WORKERS` forked workers that each build and write their own.

    The write turn goes round a ring of pipes, one byte passed from each
    worker to the next, so the parts are written in order.  Once every
    worker's status pipe is at EOF and every worker is reaped, the reported
    error of the lowest part, a write error included, is raised here: every
    block before it is written, and no block after it is.  When this raises
    on its own account, such as on an interrupt, each worker is killed first.
    """
    # here, not at the top, as the CLI does not load it at startup; and here, not in the workers, where it
    # would be imported once per worker into copy-on-write memory
    import signal

    n = min(_FORMAT_WORKERS, len(parts))
    held: set[int] = set()  # pipe ends open here
    pids: list[int] = []
    errors = {}  # each reported error, by the index of the part it stops

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
        os.write(turns[0][1], b"\0")  # part 0's turn: no row written yet
        statuses = []  # each worker's status, read here
        for w in range(n):
            r, s = pipe()
            pid = os.fork()
            if pid == 0:
                _work(out, parts, names, fmt, literals, w, n, s, turns[w][0], turns[(w + 1) % n][1])
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
            raise RuntimeError(f"table format worker {pid} exited without writing its blocks")


class _Parts(Sequence):
    """``count`` table parts with the columns ``names`` and ``rows`` rows in all; part ``i`` holds ``build(i)``."""

    def __init__(self, names: list[str], count: int, build, rows: int) -> None:
        self.names, self.rows, self._count, self._build = names, rows, count, build

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> dict:
        if not 0 <= i < self._count:
            raise IndexError(f"table part {i} of {self._count}")
        return dict(zip(self.names, self._build(i)))


def _write(fh, parts: _Parts, fmt: str) -> None:
    names = parts.names
    if fmt == "csv":
        fh.write(",".join(names) + "\n")
        literals = ["", *[","] * (len(names) - 1), "\n"]
    else:
        fh.write("[")
        # each JSON row opens with the ",\n" that separates it from the previous one
        keys = [f"{json.dumps(name)}: " for name in names]
        literals = [",\n  {\n    " + keys[0], *[",\n    " + k for k in keys[1:]], "\n  }"]
    try:
        out = None if len(parts) < 2 or parts.rows <= BLOCK_ROWS or not _FORMAT_WORKERS else fh.fileno()
    except (AttributeError, OSError, ValueError):  # a stream without one, such as StringIO
        out = None
    if out is not None:
        _kernel_tables()  # built once here, and shared by the forked workers
        fh.flush()
        _write_on_workers(out, parts, names, fmt, literals)
        return
    wrote, labels = False, {}
    for i in range(len(parts)):
        for job in _jobs(parts[i], names, fmt, literals, labels):
            fh.write(_format(job)[fmt == "json" and not wrote :].decode())
            wrote = True
    if fmt == "json":
        fh.write("\n]\n" if wrote else "]\n")


def write_table(parts: Sequence[Mapping], fmt: str, out: str | None) -> None:
    """Write the sequence ``parts`` as one ``fmt`` (``"csv"`` or ``"json"``) table to the file ``out``, or stdout.

    When a part raises or a block fails, the output holds exactly the blocks
    before it (see the module docstring).
    """
    if fmt not in _ABSENT:
        raise ValueError(f"table format must be csv or json, got {fmt!r}")
    if not isinstance(parts, Sequence):
        raise TypeError(f"table parts must be a sequence, got {type(parts).__name__}")
    if not isinstance(parts, _Parts):
        parts = _cut(parts, fmt)
    elif len(parts) == 1:  # built here, before the fork, so that the workers share its blocks
        parts = _cut([parts[0]], fmt)
    if out:
        with open(out, "w") as fh:
            _write(fh, parts, fmt)
    else:
        _write(sys.stdout, parts, fmt)

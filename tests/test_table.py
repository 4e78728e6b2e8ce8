"""The table writer: CSV floats byte for byte ``%.17g``, and its worker processes: same bytes at any
worker count, errors raised, no process or pipe left."""

import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsim import table
from dtsim.cli import main
from dtsim.simulate import BATCH_SIZE
from dtsim.table import BLOCK_ROWS, write_table

_COMMANDS = {
    "simulate.csv": ["simulate", "--paths", str(2 * BATCH_SIZE + 3), "--kmax", "3", "--seed", "6"],
    "simulate.json": ["simulate", "--paths", str(BATCH_SIZE + 3), "--kmax", "3", "--seed", "6", "--format", "json"],
    "spectra.csv": ["spectra", "--T", "4", "--n-omega", "1100"],
    "spectra.json": ["spectra", "--T", "4", "--n-omega", "600", "--methods", "closed,diag", "--format", "json"],
}


def _parts(n_parts: int = 2):
    """``n_parts`` parts of three blocks each: row number and two floats, about 380 kB of text a block."""
    rng = np.random.default_rng(1)
    for p in range(n_parts):
        rows = np.arange(p * 3 * BLOCK_ROWS, (p + 1) * 3 * BLOCK_ROWS)
        yield {"i": rows, "x": rng.standard_normal(len(rows)), "y": rng.standard_normal(len(rows))}


def _no_child_left() -> bool:
    """True when this process has no child process, running or exited (``waitpid`` would reap an exited one)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _open_fds() -> set[str]:
    return set(os.listdir("/dev/fd"))


def test_outputs_do_not_depend_on_the_format_workers(monkeypatch, tmp_path, capsys):
    """Every command spans two or more blocks; 0-3 workers write the same bytes to a file, through a
    pipe (the CLI's stdout in a child process) and to ``capsys``, which has no file descriptor."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for workers in (0, 1, 2, 3):
        monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
        for name, argv in _COMMANDS.items():
            assert main(argv + ["--out", str(tmp_path / f"{workers}-{name}")]) == 0
        assert main(_COMMANDS["simulate.csv"]) == 0
        (tmp_path / f"{workers}-capsys.csv").write_text(capsys.readouterr().out)
        code = (f"import json, sys, dtsim.table as t; t._FORMAT_WORKERS = {workers}; from dtsim.cli import main; "
                "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))")
        piped = subprocess.run([sys.executable, "-c", code, json.dumps(list(_COMMANDS.values()))],
                               stdout=subprocess.PIPE, env=env, timeout=120)
        assert piped.returncode == 0
        (tmp_path / f"{workers}-pipe").write_bytes(piped.stdout)
        assert _no_child_left()
    for name in [*_COMMANDS, "capsys.csv", "pipe"]:
        one = (tmp_path / f"0-{name}").read_bytes()
        assert one.count(b"\n") > BLOCK_ROWS, name
        for workers in (1, 2, 3):
            assert (tmp_path / f"{workers}-{name}").read_bytes() == one, (workers, name)
    assert (tmp_path / "0-capsys.csv").read_bytes() == (tmp_path / "0-simulate.csv").read_bytes()
    assert (tmp_path / "0-pipe").read_bytes() == b"".join((tmp_path / f"0-{name}").read_bytes() for name in _COMMANDS)


@pytest.mark.parametrize(("site", "workers"), [
    *(pytest.param("format", w, id=str(w)) for w in range(4)),
    *(pytest.param("parts", w, id=f"parts-{w}") for w in range(4)),
    *(pytest.param("exit", w, id=f"exit-{w}") for w in range(1, 4)),
])
def test_format_error_reaches_the_writer(monkeypatch, tmp_path, site, workers):
    """The fourth block fails to format (and the part after it raises), the second part raises before
    it, or the fourth block's worker exits without a report: the file holds exactly the three blocks
    before it, the fourth block's error is raised in the writer (from a worker process when there are
    workers), and nothing is left behind."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
    format_block = table._format

    def failing(job):
        if job[3][0][0] == 3 * BLOCK_ROWS:
            if site == "exit":
                os._exit(7)
            raise RuntimeError(f"cannot format in process {os.getpid()}")
        return format_block(job)

    def parts():
        yield from _parts(1)
        if site == "format":  # the fourth block alone, so that another worker reads the next part's error
            rows = np.arange(3 * BLOCK_ROWS, 4 * BLOCK_ROWS)
            yield {"i": rows, "x": rows / 7, "y": rows / 9}
        raise ValueError(f"no further part in process {os.getpid()}")

    monkeypatch.setattr(table, "_format", failing)
    match = "exited without writing its block" if site == "exit" else " in process "
    fds = _open_fds()
    with pytest.raises(ValueError if site == "parts" else RuntimeError, match=match) as raised:
        write_table(_parts() if site == "exit" else parts(), "csv", str(tmp_path / "t.csv"))
    if site != "exit":
        assert str(raised.value).endswith(f" {os.getpid()}") == (workers == 0)
    text = (tmp_path / "t.csv").read_bytes()
    assert text.count(b"\n") == 1 + 3 * BLOCK_ROWS and text.endswith(b"\n")
    assert _no_child_left() and _open_fds() == fds


@pytest.mark.parametrize("end", ["exhausted", "interrupted", "parts_error", "write_error", "writer_interrupted"])
def test_format_workers_end_with_the_table(monkeypatch, tmp_path, end):
    """Two workers read the second part themselves; none, and no pipe, is left when the table ends, when
    a part raises ``KeyboardInterrupt`` or another error, when a worker's write fails, or when the
    writer is interrupted while the workers run."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", 2)
    fds = _open_fds()
    writer = os.getpid()
    asleep = tmp_path / "asleep"

    def parts():
        yield from _parts(1)
        assert os.getppid() == writer  # read in a worker
        if end == "interrupted":
            raise KeyboardInterrupt
        if end == "parts_error":
            raise ValueError("no second part")
        if end == "writer_interrupted":
            asleep.touch()
            time.sleep(60)
        yield from _parts(2)

    if end == "exhausted":
        write_table(parts(), "json", str(tmp_path / "t.json"))
        assert len(json.loads((tmp_path / "t.json").read_text())) == 9 * BLOCK_ROWS
    elif end == "interrupted":
        with pytest.raises(KeyboardInterrupt):
            write_table(parts(), "csv", os.devnull)
    elif end == "parts_error":
        with pytest.raises(ValueError, match="no second part"):
            write_table(parts(), "json", os.devnull)
    elif end == "writer_interrupted":  # Ctrl-C once a worker waits in the second part
        def interrupt():
            deadline = time.monotonic() + 60
            while not asleep.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        interrupter = threading.Thread(target=interrupt)
        interrupter.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                write_table(parts(), "csv", os.devnull)
        finally:
            interrupter.join()
    else:  # a reader that leaves after the first block or so
        r, w = os.pipe()

        def read_some():
            with open(r, "rb") as pipe:
                pipe.read(500_000)

        reader = threading.Thread(target=read_some)
        reader.start()
        stdout = open(w, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            with pytest.raises(BrokenPipeError):
                write_table(parts(), "csv", None)
        finally:
            with contextlib.suppress(BrokenPipeError):
                stdout.close()
        reader.join(timeout=60)
        assert not reader.is_alive()
    assert _no_child_left() and _open_fds() == fds


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_full_device_exits_3(workers, monkeypatch, capsys):
    monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
    assert main(_COMMANDS["simulate.csv"] + ["--out", "/dev/full"]) == 3
    assert "No space" in capsys.readouterr().err
    assert _no_child_left()


def test_one_block_table_starts_no_process(monkeypatch, tmp_path):
    """``cov`` and ``embed`` at these ranges write one block: no worker, whatever the worker count."""

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(table, "_FORMAT_WORKERS", 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["cov", "--T", "4", "--mc-paths", str(2 * BATCH_SIZE), "--out", str(tmp_path / "cov.csv")]) == 0
    assert main(["embed", "--T", "3", "--format", "json", "--out", str(tmp_path / "embed.json")]) == 0
    with pytest.raises(AssertionError, match="a process was started"):
        write_table(_parts(1), "csv", os.devnull)


def _expected_g17(x: np.ndarray) -> list[str]:
    return ["%.17g" % v for v in x.tolist()]


def _g17(x: np.ndarray) -> list[str]:
    text = table._g17(np.asarray(x, dtype=float))
    assert text.dtype.kind == "S" and all(b"\xff" not in cell.rstrip(b"\xff") for cell in text.tolist())
    return [cell.rstrip(b"\xff").decode() for cell in text.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_g17_matches_percent_on_any_bit_pattern(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _g17(x) == _expected_g17(x)


def _sweep(rng: np.random.Generator) -> np.ndarray:
    """1.2e5 values: normals, magnitudes across the whole range, random bit patterns, integers."""
    return np.concatenate([
        rng.standard_normal(40_000),
        rng.choice([-1.0, 1.0], 40_000) * 10.0 ** rng.uniform(-320, 308, 40_000),
        rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64),
        rng.integers(-(10**17), 10**17, 10_000).astype(float),
    ])


def test_g17_matches_percent_on_a_sweep():
    x = _sweep(np.random.default_rng(20260419))
    assert _g17(x) == _expected_g17(x)


def _near_ties() -> list[float]:
    """Doubles ``m * 2**s`` whose 17-digit scaling ``q = m * 5**(16 - e) / 2**j`` is ``1/2 +- 2**-j``
    past an integer, for ``j`` up to 52: within the kernel's error of a tie for the largest ``j``."""
    out = []
    for s in range(-120, -52):
        for e in range(-25, 1):
            j = -(s + 16 - e)
            if not 2 <= j <= 52:
                continue
            inverse = pow(5 ** (16 - e), -1, 2**j)
            for r in (2 ** (j - 1) + 1, 2 ** (j - 1) - 1):
                m = r * inverse % 2**j
                m -= (m - 2**52) // 2**j * 2**j  # the least m >= 2**52 of its class
                if m < 2**53 and 10**16 * 2**j <= m * 5 ** (16 - e) < 10**17 * 2**j:
                    out.append(m * 2.0**s)
    return out


def _edges(extra: list[float]) -> np.ndarray:
    """Exact and near ties, the ends of the kernels' range and of float64, zeros, non-finite values,
    every power of two, every power of ten, and ``extra``, each with both its neighbours and negated."""
    edges = [1234567890123456.75, 1234567890123456.25, 0.5, 2.5, 1e16, 1e17, 1e16 - 2, 1e17 - 16,
             99999999999999999.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e-270, 1e270, 1e-5, 1e-4, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    twos = [2.0**k for k in range(-1074, 1024)]
    ties = _near_ties()
    assert len(ties) > 40
    x = np.array(edges + extra + ties + powers + twos)
    with np.errstate(over="ignore"):  # the neighbour of the largest float is inf
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def test_g17_matches_percent_on_edges():
    x = _edges([])
    assert _g17(x) == _expected_g17(x)
    assert _g17(np.array([])) == []


def _expected_repr(x: np.ndarray) -> list[str]:
    return [json.dumps(v) for v in x.tolist()]


def _repr(x: np.ndarray) -> list[str]:
    text = table._repr(np.asarray(x, dtype=float))
    assert text.dtype.kind == "S" and all(b"\xff" not in cell.rstrip(b"\xff") for cell in text.tolist())
    return [cell.rstrip(b"\xff").decode() for cell in text.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_repr_matches_json_on_any_bit_pattern(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _repr(x) == _expected_repr(x)


def test_repr_matches_json_on_a_sweep():
    """The ``%.17g`` sweep, float32 values, and decimals of 1 to 17 digits with both their neighbours,
    which lie near the ends of their rounding intervals."""
    rng = np.random.default_rng(20261019)
    places = rng.integers(1, 18, 10_000)
    mantissas = (rng.random(10_000) * 10.0**places).astype(np.int64) + 1
    exponents = rng.integers(-300, 290, 10_000)
    short = np.array([float(f"{m}e{k}") for m, k in zip(mantissas.tolist(), exponents.tolist())])
    x = np.concatenate([_sweep(rng), rng.standard_normal(20_000).astype(np.float32),
                        short, np.nextafter(short, 0), np.nextafter(short, np.inf)])
    assert _repr(x) == _expected_repr(x)


def test_repr_matches_json_on_edges():
    """The ``%.17g`` edges, and repr's own: the switch to exponent notation, ``.0`` after an integer."""
    x = _edges([1000.0, 123456789012345.0, 1234567890123456.0, 9999999999999998.0, 1e15, 0.1, 0.3, 1e23, 5e-5])
    assert _repr(x) == _expected_repr(x)
    assert _repr(np.array([])) == []
    assert _repr(np.array([0.0, -0.0, 1e16, 1e-5, 1000.0])) == ["0.0", "-0.0", "1e+16", "1e-05", "1000.0"]


def test_integer_cells_are_str_over_every_dtype():
    """Each int and uint dtype's extremes, -2**63 and 2**64 - 1 among them, powers of ten and their
    neighbours, and random values over the whole int64 and uint64 ranges: the kernel, and ``_text`` in
    both formats, whether a column is too short for the kernel or not."""
    rng = np.random.default_rng(8)
    cases = [np.array([info.min, info.min + 1, -1 if info.min else 1, 0, 9, 10, info.max - 1, info.max], dtype)
             for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
             for info in [np.iinfo(dtype)]]
    tens = np.array([10**k for k in range(19)])
    cases += [np.concatenate([tens - 1, tens, tens + 1, -tens - 1, -tens, 1 - tens]),
              np.array([10**19 - 1, 10**19, 10**19 + 1], np.uint64),
              rng.integers(-(2**63), 2**63 - 1, 20_000, endpoint=True),
              rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True),
              np.zeros(0, np.int64), rng.integers(-99, 100, (3, 4))]
    for a in cases:
        expected = list(map(str, a.ravel().tolist()))
        assert [cell.rstrip(b"\xff").decode() for cell in table._decimal(a.ravel()).tolist()] == expected
        for fmt in ("csv", "json"):
            text = table._text(a, fmt)
            assert text.shape == a.shape and text.dtype.kind == "S"
            assert [cell.rstrip(b"\xff").decode() for cell in text.ravel().tolist()] == expected
    for n in (table._KERNEL_CELLS - 1, table._KERNEL_CELLS):  # Python's text, then the kernels'
        for a in (rng.integers(-(2**63), 2**63 - 1, n), rng.standard_normal(n) ** 9):
            csv = ["%.17g" % v for v in a.tolist()] if a.dtype.kind == "f" else list(map(str, a.tolist()))
            for fmt, expected in (("csv", csv), ("json", list(map(json.dumps, a.tolist())))):
                assert [cell.rstrip(b"\xff").decode() for cell in table._text(a, fmt).tolist()] == expected


_DIFFERENTIAL = {
    "simulate": ["simulate", "--paths", str(BATCH_SIZE + 3), "--kmax", "3", "--seed", "6"],
    "cov": ["cov", "--T", "4", "--mc-paths", "3000", "--n-max", "100", "--tau-min", "-100", "--tau-max", "100"],
    "spectra": ["spectra", "--T", "4", "--n-omega", "600", "--methods", "closed,sum,diag"],
    "embed": ["embed", "--T", "3", "--n-max", "40", "--tau-max", "40"],
}


@pytest.mark.parametrize("command", _DIFFERENTIAL)
def test_json_and_csv_write_the_same_values(monkeypatch, tmp_path, command):
    """Every JSON float equals the float its CSV cell reads as, and every integer and string cell is
    the same, at 0 and 2 format workers, which write the same bytes."""
    outputs = {}
    for workers in (0, 2):
        monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
        for fmt in ("csv", "json"):
            path = tmp_path / f"{workers}.{fmt}"
            assert main(_DIFFERENTIAL[command] + ["--format", fmt, "--out", str(path)]) == 0
            outputs[workers, fmt] = path.read_bytes()
    assert outputs[0, "csv"] == outputs[2, "csv"] and outputs[0, "json"] == outputs[2, "json"]
    lines = outputs[0, "csv"].decode().splitlines()
    rows = json.loads(outputs[0, "json"])
    assert len(rows) == len(lines) - 1 > BLOCK_ROWS
    names = lines[0].split(",")
    floats = 0
    for line, row in zip(lines[1:], rows):
        assert list(row) == names
        for cell, value in zip(line.split(","), row.values()):
            if isinstance(value, float):
                floats += 1
                assert float(cell) == value or (math.isnan(value) and math.isnan(float(cell))), (cell, value)
            elif isinstance(value, int):
                assert int(cell) == value and cell == str(value)
            else:
                assert cell == ("" if value is None else value)
    assert floats >= len(rows)


def test_csv_cells_are_str_and_percent_g17(tmp_path, monkeypatch):
    """Strings (non-ASCII, NUL and quotes included), ints, floats and absent cells, over two blocks and
    parts: CSV cells are ``str`` and ``%.17g``, and JSON is ``json.dumps(rows, indent=2)``, ``%`` in a key too."""
    words = np.array(["a", "ω-Ünïcode", "x\x00y", "日本", "", "🙂,\"q\""])
    rng = np.random.default_rng(3)

    def parts():
        rows = np.arange(BLOCK_ROWS + 5)
        yield {"s": words[rows % len(words)], "i": rows - 2**60, "x": rng.standard_normal(len(rows)) ** 9,
               "m": None, '50% "q"': rows % 3}
        yield {"s": np.array("Ωmega"), "i": np.arange(3, dtype=np.uint8), "x": np.array([np.nan, -0.0, 1e300]),
               "m": np.array([[0.1], [2.5], [-np.inf]], dtype=np.float32), '50% "q"': np.array(-1)}

    lines, rows = ['s,i,x,m,50% "q"'], []
    for part in parts():
        cols = np.broadcast_arrays(*[np.array(None if v is None else v) for v in part.values()])
        for row in zip(*(c.ravel().tolist() for c in cols)):
            lines.append(",".join("" if v is None else "%.17g" % v if isinstance(v, float) else str(v) for v in row))
            rows.append(dict(zip(part, row)))
    expected = {"csv": "\n".join(lines) + "\n", "json": json.dumps(rows, indent=2) + "\n"}
    for workers in (0, 2):
        monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
        for fmt in ("csv", "json"):
            rng = np.random.default_rng(3)
            write_table(parts(), fmt, str(tmp_path / f"{workers}.{fmt}"))
            assert (tmp_path / f"{workers}.{fmt}").read_text() == expected[fmt], (workers, fmt)


def test_json_object_cells_are_json_dumps(tmp_path):
    """An object column is ``json.dumps`` of each cell in JSON, sliced per block or formatted once for its
    part; a bytes column is refused."""
    col = np.array(["a", 'b"c', None, 1.5], dtype=object)
    rows = [{"s": v, "k": 0} for v in col.tolist()]
    for part in ({"s": col, "k": np.zeros(4, int)}, {"s": col, "k": np.zeros((1, 1), int)}):
        write_table([part], "json", str(tmp_path / "t.json"))
        assert (tmp_path / "t.json").read_text() == json.dumps(rows, indent=2) + "\n"
    for fmt in ("csv", "json"):
        with pytest.raises(TypeError, match="dtype"):
            write_table([{"b": np.array([b"a", b"bc"])}], fmt, os.devnull)


def test_format_compacts_a_large_block_in_chunks():
    """A 0.6 MB block, 40% pad bytes: the text is the cells less their pads, and the peak stays below three
    bytes per byte of the padded block; one ``np.compress`` over the block builds 8 bytes per kept byte."""
    rng = np.random.default_rng(5)
    n = 1 << 16
    cells = [str(v).encode() for v in rng.integers(0, 10 ** rng.integers(1, 9, n)).tolist()]
    job = ("csv", ["", "\n"], (n,), [np.array([cell.ljust(8, b"\xff") for cell in cells], "S8")])
    assert table._format(job) == b"".join(cell + b"\n" for cell in cells)
    tracemalloc.start()
    try:
        table._format(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * 9


def test_text_tables_are_built_on_the_first_numeric_block():
    """Not at import, nor by ``verify``, nor for a table of strings or of numeric columns too short for
    the kernels: the first int or float block they format builds them, in either format.  The writer
    builds them before it forks its format workers."""
    code = (
        "import os, numpy as np, dtsim.cli, dtsim.table as t\n"
        "size = t._kernel_tables.cache_info\n"
        "sizes = [size().currsize]\n"
        "dtsim.cli.main(['verify', '--out', os.devnull])\n"
        "t.write_table([{'s': np.array(['a', 'b'])}], 'csv', os.devnull)\n"
        "t.write_table([{'i': np.arange(t._KERNEL_CELLS - 1), 'x': np.array(0.5)}], 'json', os.devnull)\n"
        "sizes.append(size().currsize)\n"
        "t.write_table([{'i': np.arange(t._KERNEL_CELLS)}], 'json', os.devnull)\n"
        "sizes.append(size().currsize)\n"
        "t._kernel_tables.cache_clear()\n"
        "t._FORMAT_WORKERS = 2\n"
        f"t.write_table([{{'x': np.ones(2 * {BLOCK_ROWS})}}], 'json', os.devnull)\n"
        "sizes.append(size().currsize)\n"
        "print(sizes)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 1, 1]"

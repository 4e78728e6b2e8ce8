"""The table writer's worker processes: same bytes at any worker count, errors raised, no process left."""

import multiprocessing
import os
import sys

import numpy as np
import pytest

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


class _FailingStdout:
    """A stream whose third write fails, as on a full disk."""

    def __init__(self) -> None:
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == 3:
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self) -> None:
        pass


class _NoProcess:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process was started")


def test_outputs_do_not_depend_on_the_format_workers(monkeypatch, tmp_path, capsys):
    """Every command spans two or more blocks; 0-3 workers write the same bytes, to a file and to stdout."""
    for workers in (0, 1, 2, 3):
        monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
        for name, argv in _COMMANDS.items():
            assert main(argv + ["--out", str(tmp_path / f"{workers}-{name}")]) == 0
        assert main(_COMMANDS["simulate.csv"]) == 0
        (tmp_path / f"{workers}-stdout.csv").write_text(capsys.readouterr().out)
        assert multiprocessing.active_children() == []
    for name in [*_COMMANDS, "stdout.csv"]:
        one = (tmp_path / f"0-{name}").read_bytes()
        assert one.count(b"\n") > BLOCK_ROWS, name
        for workers in (1, 2, 3):
            assert (tmp_path / f"{workers}-{name}").read_bytes() == one, (workers, name)
    assert (tmp_path / "0-stdout.csv").read_bytes() == (tmp_path / "0-simulate.csv").read_bytes()


@pytest.mark.parametrize("workers", [0, 2])
def test_format_error_reaches_the_writer(monkeypatch, capsys, workers):
    """The fourth block fails to format, in a worker process when there are workers."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
    format_block = table._format

    def failing(job):
        if job[3][0][0] == 3 * BLOCK_ROWS:
            raise RuntimeError(f"cannot format in process {os.getpid()}")
        return format_block(job)

    monkeypatch.setattr(table, "_format", failing)
    with pytest.raises(RuntimeError, match="cannot format") as raised:
        write_table(_parts(), "csv", None)
    in_writer = str(raised.value).endswith(f" {os.getpid()}")
    assert in_writer == (workers == 0)
    assert capsys.readouterr().out.count("\n") == 1 + 3 * BLOCK_ROWS
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("end", ["exhausted", "closed", "parts_error", "write_error"])
def test_format_workers_end_with_the_table(monkeypatch, end):
    monkeypatch.setattr(table, "_FORMAT_WORKERS", 2)
    if end in ("exhausted", "closed"):
        blocks = table._blocks(_parts(), ["i", "x", "y"], "csv", ["", ",", ",", "\n"])
        next(blocks)
        assert len(multiprocessing.active_children()) == 2
        if end == "closed":  # with a result larger than the pipe buffer still in flight
            blocks.close()
        else:
            assert sum(1 for _ in blocks) == 5
    elif end == "parts_error":
        def parts():
            yield from _parts(1)
            assert len(multiprocessing.active_children()) == 2
            raise ValueError("no second part")

        with pytest.raises(ValueError, match="no second part"):
            write_table(parts(), "json", os.devnull)
    else:
        monkeypatch.setattr(sys, "stdout", _FailingStdout())
        with pytest.raises(OSError, match="No space") as raised:
            write_table(_parts(), "csv", None)
        # stopped before the error was raised, not when its traceback lets go of the writer's frame
        assert raised.traceback and multiprocessing.active_children() == []
    assert multiprocessing.active_children() == []


def test_one_block_table_starts_no_process(monkeypatch, tmp_path):
    """``cov`` and ``embed`` at these ranges write one block: no worker, whatever the worker count."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", 2)
    monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Process", _NoProcess)
    assert main(["cov", "--T", "4", "--mc-paths", str(2 * BATCH_SIZE), "--out", str(tmp_path / "cov.csv")]) == 0
    assert main(["embed", "--T", "3", "--format", "json", "--out", str(tmp_path / "embed.json")]) == 0
    with pytest.raises(AssertionError, match="a process was started"):
        write_table(_parts(1), "csv", os.devnull)

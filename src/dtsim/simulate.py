"""Seeded Monte Carlo ensembles on the geometric grid.

An :class:`Ensemble` is a seeded recipe, not a matrix.  Its paths are
generated batch by batch with sub-seeds spawned deterministically from the
master seed (numpy SeedSequence over PCG64): batch ``i`` is drawn from child
``i`` alone, so results are byte-for-byte reproducible and do not depend on
which thread fills a batch.  With two or more usable cores two threads fill
the batches, at most two of them allocated and not yet read, and the reader
receives them in batch order; on one core the reader fills them itself, and
so does the table writer, which leaves a fill thread nothing to overlap.  The
Monte Carlo estimator and the table writer consume the batches as they come,
so their memory does not grow with the number of paths.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DsiParams
from .errors import DomainError
from .table import write_table

__all__ = ["Ensemble", "CovEstimate", "simulate_brownian", "simulate_simple_bm", "empirical_cov"]

#: Paths per generation batch; fixed so batch boundaries never move.
BATCH_SIZE = 4096

_PROCESSES = ("simple-bm", "brownian")

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Threads that fill path blocks, one block each at a time: two where a second
#: core can run them, none on one core, where the handoffs cost time and
#: nothing overlaps.  Two, not one per core, so memory does not grow with the
#: core count; no bit of a path depends on it.
_FILL_THREADS = 2 if _CORES > 1 else 0


@dataclass(frozen=True)
class Ensemble:
    """Seeded recipe for sample paths on the grid alpha**k, one row per path.

    ``process`` is ``"brownian"`` or ``"simple-bm"``.  Paths are generated on
    demand by :meth:`blocks`, :data:`BATCH_SIZE` paths at a time, so a
    consumer that reads them block by block holds a few blocks, not the
    ``n_paths x (k_max + 1)`` matrix.  :attr:`paths` builds that matrix on
    first access, and :attr:`moments` the path sums the Monte Carlo
    estimator reads.
    """

    params: DsiParams
    k_max: int
    n_paths: int
    rng_seed: int
    process: str

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.k_max < 0:
            raise DomainError(f"k_max must be >= 0, got {self.k_max}")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.process not in _PROCESSES:
            raise DomainError(f"process must be one of {', '.join(_PROCESSES)}, got {self.process!r}")

    @property
    def times(self) -> np.ndarray:
        return self.params.alpha ** np.arange(self.k_max + 1)

    def blocks(self) -> Iterator[np.ndarray]:
        """Rows of the path matrix in blocks of ``BATCH_SIZE`` (the last may be shorter).

        Block ``i`` is drawn from the ``i``-th child of ``SeedSequence(rng_seed)``
        and from nothing else, so a path depends neither on ``n_paths`` nor on
        which thread filled it.  Each block is a new array, allocated here and
        filled on one of :data:`_FILL_THREADS` threads that live as long as the
        iteration (on this thread when there are none).  Blocks come out in
        block order, at most ``_FILL_THREADS`` of them allocated and not yet
        yielded.  An exception raised while filling a block is raised here, and
        the threads are joined when the iteration ends or the generator is closed.
        """
        return self._blocks(_FILL_THREADS)

    def _blocks(self, threads: int) -> Iterator[np.ndarray]:
        p = self.params
        ks = np.arange(self.k_max + 1)
        # increment variances: Var B(1) = 1, then alpha**k - alpha**(k-1)
        scale = np.sqrt(np.concatenate(([1.0], p.alpha ** ks[1:] - p.alpha ** (ks[1:] - 1))))
        # simple BM: amplitude lam**(H - 1/2) per crossing of a power of lam = alpha**T
        amp = p.l ** ((ks // p.T + 1) * (p.H - 0.5)) if self.process == "simple-bm" else None
        n_batches = (self.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
        children = np.random.SeedSequence(self.rng_seed).spawn(n_batches)

        def new_block(i: int) -> np.ndarray:
            return np.empty((min(BATCH_SIZE, self.n_paths - i * BATCH_SIZE), self.k_max + 1))

        def fill(block: np.ndarray, child: np.random.SeedSequence) -> None:
            np.random.default_rng(child).standard_normal(out=block)
            block *= scale
            np.cumsum(block, axis=1, out=block)
            if amp is not None:
                block *= amp

        if not threads:
            for i, child in enumerate(children):
                fill(block := new_block(i), child)
                yield block
            return

        import queue  # here, not at the top: commands that never simulate do not pay for it

        tasks = queue.SimpleQueue()

        def work() -> None:
            while (task := tasks.get()) is not None:
                block, child, done = task
                try:
                    fill(block, child)
                    exc = None
                except Exception as error:  # handed to the reader, which raises it
                    exc = error
                # let go of the block before the reader hears of it, so that
                # an idle thread does not keep it alive after the reader is done
                del task, block
                done.put(exc)

        def hand_out(i: int) -> tuple[np.ndarray, queue.SimpleQueue]:
            # allocated on this thread: a block allocated on a filling thread
            # would come from that thread's malloc arena and raise the peak RSS
            done = queue.SimpleQueue()
            tasks.put((block := new_block(i), children[i], done))
            return block, done

        def finished(block: np.ndarray, done: queue.SimpleQueue) -> np.ndarray:
            if (exc := done.get()) is not None:
                raise exc
            return block

        fillers: list[threading.Thread] = []
        pending: list[tuple[np.ndarray, queue.SimpleQueue]] = []
        try:
            for _ in range(min(threads, n_batches)):
                # daemon: a generator still suspended at exit must not keep the interpreter alive
                (f := threading.Thread(target=work, daemon=True)).start()
                fillers.append(f)
            for i in range(n_batches):
                if len(pending) == threads:
                    # the oldest block goes out before the next is allocated,
                    # so at most `threads` blocks are allocated and not yet yielded
                    yield finished(*pending.pop(0))
                pending.append(hand_out(i))
            while pending:
                yield finished(*pending.pop(0))
        finally:
            for f in fillers:
                tasks.put(None)
            for f in fillers:
                f.join()

    @cached_property
    def paths(self) -> np.ndarray:
        """Read-only ``n_paths x (k_max + 1)`` matrix of :meth:`blocks`, built on first access."""
        out = np.empty((self.n_paths, self.k_max + 1))
        lo = 0
        for block in self.blocks():
            out[lo : lo + len(block)] = block
            lo += len(block)
        out.setflags(write=False)
        return out

    @cached_property
    def moments(self) -> np.ndarray:
        """Read-only ``(2, K, K)`` path sums of ``X_a X_b`` and ``X_a**2 X_b**2``, ``K = k_max + 1``.

        One pass over :meth:`blocks` on first access; :func:`empirical_cov`
        reads it, so repeated estimates do not regenerate the paths.
        """
        K = self.k_max + 1
        sums = np.zeros((2, K, K))
        squares = np.empty((BATCH_SIZE, K))
        for block in self.blocks():
            sums[0] += block.T @ block
            sq = np.multiply(block, block, out=squares[: len(block)])
            # two buffers keep this a general product: numpy sends a.T @ a on
            # one buffer to a symmetric kernel, whose rounding differs
            block[...] = sq
            sums[1] += sq.T @ block
        sums.setflags(write=False)
        return sums

    def columns(self) -> Iterator[dict[str, np.ndarray]]:
        """Table parts ``path, k, t, value``, one per block, as ``table.write_table`` takes them."""
        ks, times = np.arange(self.k_max + 1), self.times
        lo = 0
        # filled here: the writer holds the interpreter lock nearly all the
        # time, so a fill thread would only wait for it and take it away
        for block in self._blocks(threads=0):
            yield {"path": np.arange(lo, lo + len(block))[:, np.newaxis], "k": ks, "t": times, "value": block}
            lo += len(block)

    def to_csv(self, path) -> None:
        """Write rows ``path,k,t,value`` with 17-significant-digit floats, as ``dtsim simulate`` does."""
        write_table(self.columns(), "csv", path)


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance with its standard error: floats, or arrays of one shape."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_paths: int

    @property
    def degenerate(self) -> bool:
        """True when too few paths exist for a standard error (n_paths < 2)."""
        return self.n_paths < 2


def simulate_brownian(
    params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0
) -> Ensemble:
    """Brownian motion sampled at alpha**k for k = 0..k_max."""
    return Ensemble(params=params, k_max=k_max, n_paths=n_paths, rng_seed=rng_seed, process="brownian")


def simulate_simple_bm(
    params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0
) -> Ensemble:
    """Piecewise-rescaled Brownian motion driven by the same seed as simulate_brownian.

    Each grid column of the Brownian ensemble is multiplied by
    ``lam**(n (H - 1/2))`` where ``n`` counts crossings of powers of
    ``lam = alpha**T``; with H = 1/2 the output is bit-identical to the
    driving Brownian ensemble.
    """
    return Ensemble(params=params, k_max=k_max, n_paths=n_paths, rng_seed=rng_seed, process="simple-bm")


def empirical_cov(ensemble: Ensemble, n, tau) -> CovEstimate:
    """Zero-mean covariance estimate mean(X[n+tau] * X[n]) across paths.

    The processes here have mean zero by construction, so no sample mean is
    subtracted.  The standard error is the sample standard deviation of the
    per-path products over sqrt(n_paths); it is reported as 0 for a single
    path (see CovEstimate.degenerate).  ``n`` and ``tau`` may be broadcast
    integer arrays.  Both come from :attr:`Ensemble.moments`, the path sums
    of ``X_a X_b`` and ``X_a**2 X_b**2`` over all grid columns, so no entry
    depends on which others were asked for; as ``Var(XY) >= E[XY]**2`` for
    zero-mean Gaussian pairs, the one-pass variance loses at most about one bit.
    """
    n, m = np.asarray(n), np.asarray(n) + tau
    bad = (np.minimum(n, m) < 0) | (np.maximum(n, m) > ensemble.k_max)
    if np.any(bad):
        a, b = (int(x[bad].flat[0]) for x in np.broadcast_arrays(n, m))
        raise IndexError(f"(n, n + tau) = ({a}, {b}) outside grid indices 0..{ensemble.k_max}")
    sums = ensemble.moments
    count = ensemble.n_paths
    value = sums[0, m, n] / count
    var = np.maximum(sums[1, m, n] - count * value * value, 0.0) / max(count - 1, 1)
    se = np.sqrt(var / count) * (count > 1)  # 0 for a single path
    return CovEstimate(value=value, std_error=se, n_paths=count)

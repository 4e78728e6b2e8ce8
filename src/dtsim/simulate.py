"""Seeded Monte Carlo ensembles on the geometric grid.

A wide-sense Markov covariance factors as ``G(min) K(max)``, so a Gaussian
sequence with a chain's covariance is a scaled, time-changed Brownian motion
``X_k = amp_k W(clock_k)`` (Doob 1949), with ``var_k = R_k(0)``,
``amp_k = prod_{i<k} R_i(1) / var_i`` and ``clock_k = var_k / amp_k**2``
from :func:`cov_table`.  One generator serves every admissible seed; a zero
one-step covariance on the grid splits the chain and is rejected.

An :class:`Ensemble` is a seeded recipe, not a matrix.  Batch ``i`` of its
paths is drawn from child ``i`` of ``SeedSequence(rng_seed)`` (PCG64) alone,
so results are byte-for-byte reproducible whichever thread fills a batch.
Readers of :meth:`Ensemble.blocks`, the table writer among them, fill each
batch on their own thread as they read it.  The Monte Carlo moments are the
one threaded pass: with two or more usable cores and fewer than 128 grid
points, two threads fill batches and reduce each to its products, which
are summed in batch order; otherwise the calling thread does every batch.
Neither keeps more than a few batches, so memory does not grow with the
number of paths.

A batch is filled rows last, ``(K, rows)`` with ``K = k_max + 1``, so its
cumulative sum along the grid is ``K - 1`` contiguous row adds, and the
moments pass reduces it with two one-buffer products, ``x @ x.T`` and
``sq @ sq.T`` with ``sq = x * x``.  numpy sends those to BLAS ``syrk``,
which OpenBLAS runs on the calling thread below ``K = 128``, so the fill
threads do not share the cores with a BLAS pool there; from ``K = 128``
``syrk`` itself starts BLAS's threads, a threaded pass is slower than one
thread, and the calling thread does every batch.  ``syrk`` rounds the
fourth-moment sums differently from a general product, so ``mc_stderr`` may
move by that rounding, which is held to 4e-15 relative; the second-moment
sums are the same bit for bit.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DsiParams, HChain, make_chain, make_params
from .covariance import cov_table, simple_bm_seed
from .errors import DomainError
from .table import _CORES, write_table

__all__ = ["Ensemble", "CovEstimate", "simulate_brownian", "simulate_simple_bm", "empirical_cov"]

#: Paths per generation batch; fixed so batch boundaries never move.
BATCH_SIZE = 4096

#: Threads that fill and reduce path blocks in ``Ensemble.moments``, the
#: calling thread among them: two where a second core can run them, and 0 on
#: one core, where the calling thread does every block alone.  Two, not one
#: per core, so memory does not grow with the core count; no bit of the sums
#: depends on it.  The same rule on the same core count sets
#: ``table._FORMAT_WORKERS``, the forked processes that each read a table of
#: two or more blocks themselves (filling every block of an ``Ensemble``) and
#: format and write their share of its blocks straight to its file or pipe,
#: taking turns in block order; no byte of a table depends on that either.
_FILL_THREADS = 2 if _CORES > 1 else 0
#: Grid points from which BLAS ``syrk`` runs on threads of its own, and
#: ``Ensemble.moments`` starts no fill thread.
_BLAS_THREADS_K = 128


@dataclass(frozen=True)
class Ensemble:
    """Seeded recipe for sample paths of ``chain`` on the grid alpha**k, one row per path.

    :meth:`blocks` generates them :data:`BATCH_SIZE` at a time, so a reader
    of blocks holds a few, not the ``n_paths x (k_max + 1)`` matrix that
    :attr:`paths` builds on first access; :attr:`moments` holds the path sums
    the Monte Carlo estimator reads.  The path factors come from ``chain``
    (see the module docstring); a one-step covariance of 0 at some
    ``k < k_max``, or factors out of float range, raise DomainError here.
    """

    chain: HChain
    k_max: int
    n_paths: int
    rng_seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.k_max < 0:
            raise DomainError(f"k_max must be >= 0, got {self.k_max}")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be >= 0, got {self.rng_seed}")
        self._factors  # a seed the factorization cannot serve fails here, before any output

    @property
    def times(self) -> np.ndarray:
        return self.chain.params.alpha ** np.arange(self.k_max + 1)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(scale, amp)`` of ``X_k = amp_k W(clock_k)``: a path is ``cumsum(normals * scale) * amp``."""
        ks = np.arange(self.k_max + 1)
        with np.errstate(all="ignore"):  # a zero step or an overflow is a DomainError
            var, step = cov_table(self.chain, ks, 0), cov_table(self.chain, ks[:-1], 1)
            amp = np.concatenate(([1.0], np.cumprod(step / var[:-1])))
            # the clock var / amp**2 may step back by rounding on the Cauchy-Schwarz boundary
            scale = np.sqrt(np.maximum(np.diff(var / amp**2, prepend=0.0), 0.0))
            if not (step.all() and np.isfinite([scale, amp**2]).all()):
                raise DomainError(f"one-step covariance 0 or path factor overflow at some k <= {self.k_max}")
        return scale, amp

    def blocks(self) -> Iterator[np.ndarray]:
        """Rows of the path matrix in blocks of ``BATCH_SIZE`` (the last may be shorter).

        Block ``i`` is drawn from the ``i``-th child of ``SeedSequence(rng_seed)``
        and from nothing else, so a path depends neither on ``n_paths`` nor on
        which thread filled it.  Each block is a new array, the transpose of
        the rows-last block :meth:`_fill` makes, filled on this thread when the
        iteration asks for it, so a reader holds the blocks it keeps and no
        others.
        """
        K = self.k_max + 1
        normals = np.empty(min(BATCH_SIZE, self.n_paths) * K)
        for i, child in enumerate(self._children()):
            yield self._fill(i, child, normals, np.empty(min(BATCH_SIZE, self.n_paths - i * BATCH_SIZE) * K)).T

    def _children(self) -> list[np.random.SeedSequence]:
        return np.random.SeedSequence(self.rng_seed).spawn((self.n_paths + BATCH_SIZE - 1) // BATCH_SIZE)

    def _fill(self, i: int, child: np.random.SeedSequence, normals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Block ``i``, drawn from ``child`` alone, rows last: a ``(K, rows)`` view of the start of ``out``.

        The normals are drawn into the start of ``normals`` as ``(rows, K)``,
        so path ``p`` takes the ``K`` draws from ``p K`` on of the block's
        stream; the scaling, the cumulative sum along the grid and the
        amplitudes then run one contiguous row of ``out`` at a time.
        """
        scale, amp = self._factors
        K, rows = len(scale), min(BATCH_SIZE, self.n_paths - i * BATCH_SIZE)
        z = np.random.default_rng(child).standard_normal(out=normals[: rows * K].reshape(rows, K))
        x = np.multiply(z.T, scale[:, np.newaxis], out=out[: rows * K].reshape(K, rows))
        for k in range(1, K):
            x[k] += x[k - 1]
        x *= amp[:, np.newaxis]
        return x

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

        One pass on first access; :func:`empirical_cov` reads it, so repeated
        estimates do not regenerate the paths.  This thread and up to
        ``_FILL_THREADS - 1`` helpers each fill the next block and reduce it to
        its two ``K x K`` products, which are added into the sums in block
        order, so no bit depends on the thread count; from ``K = 128`` this
        thread works alone (see the module docstring).  Each thread holds two
        block buffers: the rows-last block ``x`` and the normals it was drawn
        from, which then take ``sq = x * x``; the products are the symmetric
        ``x @ x.T`` and ``sq @ sq.T`` (see the module docstring).  At most two
        blocks per thread are taken and not yet added, so the pass holds a few
        products besides, whatever ``n_paths`` is.  An error in any thread
        stops the pass and is raised here once the helpers are joined.
        """
        K = self.k_max + 1
        children = self._children()
        n_workers = max(min(_FILL_THREADS if K < _BLAS_THREADS_K else 0, len(children)), 1)
        window = 2 * n_workers
        # allocated on this thread: buffers allocated on a helper would come
        # from that thread's malloc arena and raise the peak RSS
        buffers = np.empty((n_workers, 2, min(BATCH_SIZE, self.n_paths) * K))
        products = np.empty((window, 2, K, K))
        sums = np.zeros((2, K, K))
        state = threading.Condition()
        taken = added = 0
        finished: set[int] = set()
        errors: list[BaseException] = []

        def work(normals: np.ndarray, block_buffer: np.ndarray) -> None:
            nonlocal taken, added, sums
            try:
                while True:
                    with state:
                        state.wait_for(lambda: taken - added < window or errors)
                        if errors or taken == len(children):
                            return
                        i, taken = taken, taken + 1
                    product = products[i % window]  # free: block i - window is added
                    x = self._fill(i, children[i], normals, block_buffer)
                    np.matmul(x, x.T, out=product[0])
                    sq = np.multiply(x, x, out=normals[: x.size].reshape(x.shape))
                    np.matmul(sq, sq.T, out=product[1])
                    with state:
                        finished.add(i)
                        while added in finished:
                            finished.remove(added)
                            sums += products[added % window]
                            added += 1
                        state.notify_all()
            except BaseException as error:  # raised on the calling thread
                with state:
                    errors.append(error)
                    state.notify_all()

        helpers: list[threading.Thread] = []
        try:
            for pair in buffers[1:]:
                (helper := threading.Thread(target=work, args=tuple(pair))).start()
                helpers.append(helper)
            work(*buffers[0])
        finally:
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]
        sums.setflags(write=False)
        return sums

    def columns(self) -> Iterator[dict[str, np.ndarray]]:
        """Table parts ``path, k, t, value``, one per block, as ``table.write_table`` takes them."""
        ks, times = np.arange(self.k_max + 1), self.times
        lo = 0
        for block in self.blocks():
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


def simulate_brownian(params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0) -> Ensemble:
    """Brownian motion sampled at alpha**k for k = 0..k_max: simple BM at H = 1/2."""
    return simulate_simple_bm(make_params(0.5, params.alpha, params.T), n_paths, k_max, rng_seed)


def simulate_simple_bm(params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0) -> Ensemble:
    """Simple BM, the builtin seed's ensemble: Brownian motion times lam**(H - 1/2) per power of lam."""
    return Ensemble(make_chain(params, simple_bm_seed(params)), k_max, n_paths, rng_seed)


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

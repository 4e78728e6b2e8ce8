"""Seeded Monte Carlo ensembles on the geometric grid.

A wide-sense Markov covariance factors as ``G(min) K(max)``, so a Gaussian
sequence with a chain's covariance is a scaled, time-changed Brownian motion
``X_k = amp_k W(clock_k)`` (Doob 1949), with ``var_k = R_k(0)``,
``amp_k = prod_{i<k} R_i(1) / var_i`` and ``clock_k = var_k / amp_k**2``
from :func:`cov_table`.  One generator serves every admissible seed; a zero
one-step covariance on the grid splits the chain and is rejected.

An :class:`Ensemble` is a seeded recipe, not a matrix.  Batch ``i`` of its
paths is drawn from ``SeedSequence(rng_seed, spawn_key=(i,))`` (PCG64) alone,
child ``i`` of ``SeedSequence(rng_seed).spawn`` state for state, made where
the batch is filled: results are byte-for-byte reproducible whichever thread
or process fills a batch, any batch can be filled without the others, and no
reader makes one seed per batch up front.  Every batch is filled the same
way, rows first and in place in one ``(rows, K)`` array, ``K = k_max + 1``:
the normals are drawn into it, scaled, summed along the grid with ``K - 1``
column adds and multiplied by the amplitudes.  Readers of
:meth:`Ensemble.blocks` fill each batch in a new array on their own thread
as they read it, and the table parts of :meth:`Ensemble.columns` are filled
by the process that writes them.

The Monte Carlo moments are the one threaded pass: with two or more usable
cores and fewer than 128 grid points, two threads fill batches and reduce
each to its products, which are summed in batch order; otherwise the calling
thread does every batch.  Each thread fills its batches in one buffer of its
own and reduces each there with ``x.T @ x``, then squares it in place and
reduces it again with ``x.T @ x``.  So a thread holds one batch, and the
pass a few products besides, whatever the number of paths.  numpy sends
those one-buffer products to BLAS ``syrk``.  From ``K = 128`` OpenBLAS runs
``syrk`` on threads of its own, a threaded pass is slower than one thread,
and the calling thread does every batch; below it, two fill threads are
faster at the grid sizes ``dtsim cov`` uses by default, ``K = 4 T``.
``syrk`` rounds the fourth-moment sums differently from a general product,
so ``mc_stderr`` may move by that rounding, which is held to 4e-15 relative;
the second-moment sums are the same bit for bit.  The pass scales each grid
point's paths by a power of two near their standard deviation, folded into
the amplitudes, so the fourth-moment sums stay in range wherever the
covariances do, and the estimates are scaled back exactly.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DsiParams, HChain, make_chain
from .covariance import cov_table, simple_bm_seed
from .errors import DomainError
from .table import _CORES, _Parts, write_table

__all__ = ["Ensemble", "CovEstimate", "simulate_simple_bm", "empirical_cov"]

#: Paths per generation batch; fixed so batch boundaries never move.
BATCH_SIZE = 4096

#: Threads that fill and reduce path blocks in ``Ensemble.moments``, the
#: calling thread among them: two where a second core can run them, and 0 on
#: one core, where the calling thread does every block alone.  Two, not one
#: per core, so memory does not grow with the core count; no bit of the sums
#: depends on it.  The same rule on the same core count sets
#: ``table._FORMAT_WORKERS``, the forked processes that each fill and write
#: their share of an ``Ensemble``'s batches straight to its file or pipe,
#: taking turns in batch order; no byte of a table depends on that either.
_FILL_THREADS = 2 if _CORES > 1 else 0
#: Grid points from which ``Ensemble.moments`` starts no fill thread: there
#: BLAS ``syrk`` runs on threads of its own, and two fill threads calling it
#: are slower than one.  OpenBLAS threads ``syrk`` at some smaller sizes too
#: (such as K = 33-47 and most K from 65), where one fill thread is also
#: faster; no single bound separates those from the sizes, such as K = 4 T,
#: where two fill threads win.
_BLAS_THREADS_K = 128


@dataclass(frozen=True)
class Ensemble:
    """Seeded recipe for sample paths of ``chain`` on the grid alpha**k, one row per path.

    :meth:`blocks` generates them :data:`BATCH_SIZE` at a time, so a reader
    of blocks holds a few, not the ``n_paths x (k_max + 1)`` matrix that
    :attr:`paths` builds on first access; :attr:`moments` holds the path sums
    the Monte Carlo estimator reads.  The path factors come from ``chain``
    (see the module docstring); a DomainError here names the first ``k``
    whose one-step covariance is 0 (``k < k_max``) or whose factors leave float range.
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
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scale, amp, shift)``: a path is ``cumsum(normals * scale) * amp``, and ``2**shift`` its scale.

        ``scale`` and ``amp`` are those of ``X_k = amp_k W(clock_k)``;
        ``2**shift_k`` is within a factor of two of ``X_k``'s standard deviation.
        """
        ks = np.arange(self.k_max + 1)
        with np.errstate(all="ignore"):  # a zero step or an overflow is a DomainError
            var, step = cov_table(self.chain, ks, 0), cov_table(self.chain, ks[:-1], 1)
            amp = np.concatenate(([1.0], np.cumprod(step / var[:-1])))
            # the clock var / amp**2 may step back by rounding on the Cauchy-Schwarz boundary
            scale = np.sqrt(np.maximum(np.diff(var / amp**2, prepend=0.0), 0.0))
            # named at the first k with either; a zero step at k sends the factors from k + 1 on out of range
            zero, over = np.append(step == 0, False), ~(np.isfinite(scale) & np.isfinite(amp**2))
            k = int(np.argmax(zero | over))
            if over[k]:
                raise DomainError(f"path factor overflow at k = {k}: paths reach k = {k - 1} at most")
            if zero[k]:
                raise DomainError(f"one-step covariance 0 at k = {k} splits the chain: paths reach k = {k} at most")
        return scale, amp, np.frexp(np.sqrt(var))[1]

    def blocks(self) -> Iterator[np.ndarray]:
        """Rows of the path matrix in blocks of ``BATCH_SIZE`` (the last may be shorter).

        Block ``i`` is :meth:`_batch` ``i``, drawn from its own seed alone, so a
        path depends neither on ``n_paths`` nor on which thread or process
        filled it.  Each block is a new array, filled on this thread when the
        iteration asks for it, so a reader holds the blocks it keeps and no others.
        """
        return (self._batch(i) for i in range(self._n_batches))

    @property
    def _n_batches(self) -> int:
        return -(-self.n_paths // BATCH_SIZE)

    def _batch(self, i: int, out: np.ndarray | None = None, amp: np.ndarray | None = None) -> np.ndarray:
        """Block ``i`` of :meth:`blocks`: ``(rows, K)``, filled rows first in place in the start of ``out``.

        The normals come from ``SeedSequence(rng_seed, spawn_key=(i,))`` alone,
        child ``i`` of ``SeedSequence(rng_seed).spawn``; path ``p`` takes the
        ``K`` draws from ``p K`` on of the block's stream.  They are scaled,
        summed along the grid one column at a time and multiplied by ``amp``,
        the amplitudes of :attr:`_factors` unless given.  ``out`` is a new
        array unless given.
        """
        scale, amplitudes, _ = self._factors
        K, rows = len(scale), min(BATCH_SIZE, self.n_paths - i * BATCH_SIZE)
        x = np.empty((rows, K)) if out is None else out[: rows * K].reshape(rows, K)
        np.random.default_rng(np.random.SeedSequence(self.rng_seed, spawn_key=(i,))).standard_normal(out=x)
        x *= scale
        for k in range(1, K):
            x[:, k] += x[:, k - 1]
        x *= amplitudes if amp is None else amp
        return x

    @cached_property
    def paths(self) -> np.ndarray:
        """Read-only ``n_paths x (k_max + 1)`` matrix of :meth:`blocks`, each filled in place on first access."""
        K = self.k_max + 1
        out = np.empty(self.n_paths * K)
        for i in range(self._n_batches):
            self._batch(i, out[i * BATCH_SIZE * K :])
        out = out.reshape(self.n_paths, K)
        out.setflags(write=False)
        return out

    @cached_property
    def moments(self) -> np.ndarray:
        """Read-only ``(2, K, K)`` path sums of ``X_a X_b`` and ``X_a**2 X_b**2``, ``K = k_max + 1``.

        :attr:`_scaled_moments` times the exact powers of two it was scaled by;
        a sum out of float range is ``inf``.
        """
        sums, shift = self._scaled_moments
        e = shift[:, np.newaxis] + shift
        with np.errstate(over="ignore"):
            sums = np.ldexp(sums, np.stack([e, 2 * e]))
        sums.setflags(write=False)
        return sums

    @cached_property
    def _scaled_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`moments` of the paths scaled by ``2**-shift`` (``shift`` of :attr:`_factors`), and ``shift``.

        The scale folds into the amplitudes, so the paths are about 1 at every
        grid point and their fourth moments stay in range wherever the
        covariances do; a power of two scales every sum exactly.  One pass on
        first access; :func:`empirical_cov` reads it, so repeated estimates do
        not regenerate the paths.  This thread and up to ``_FILL_THREADS - 1``
        helpers each fill the next block and reduce it to its two ``K x K``
        products, which are added into the sums in block order, so no bit
        depends on the thread count; from ``K = 128`` this thread works alone
        (see the module docstring).  Each thread holds one block buffer: it
        fills a block ``x`` there rows first, forms ``x.T @ x``, squares ``x``
        in place and forms ``x.T @ x`` again, the symmetric products of the
        module docstring.  At most two blocks per thread are taken and not yet
        added, so the pass holds a few products besides, whatever ``n_paths``
        is.  Block ``i``'s seed is made when the block is filled, so no list of
        seeds grows with ``n_paths`` either.  An error in any thread stops the
        pass and is raised here once the helpers are joined.
        """
        _, amp, shift = self._factors
        amp = np.ldexp(amp, -shift)
        K = self.k_max + 1
        n_batches = self._n_batches
        n_workers = max(min(_FILL_THREADS if K < _BLAS_THREADS_K else 0, n_batches), 1)
        window = 2 * n_workers
        # allocated on this thread: buffers allocated on a helper would come
        # from that thread's malloc arena and raise the peak RSS
        buffers = np.empty((n_workers, min(BATCH_SIZE, self.n_paths) * K))
        products = np.empty((window, 2, K, K))
        sums = np.zeros((2, K, K))
        state = threading.Condition()
        taken = added = 0
        finished: set[int] = set()
        errors: list[BaseException] = []

        def work(buffer: np.ndarray) -> None:
            nonlocal taken, added, sums
            try:
                while True:
                    with state:
                        state.wait_for(lambda: taken - added < window or errors)
                        if errors or taken == n_batches:
                            return
                        i, taken = taken, taken + 1
                    product = products[i % window]  # free: block i - window is added
                    x = self._batch(i, buffer, amp)
                    np.matmul(x.T, x, out=product[0])
                    np.multiply(x, x, out=x)
                    np.matmul(x.T, x, out=product[1])
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
            for buffer in buffers[1:]:
                (helper := threading.Thread(target=work, args=(buffer,))).start()
                helpers.append(helper)
            work(buffers[0])
        finally:
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]
        sums.setflags(write=False)
        return sums, shift

    def columns(self) -> Sequence[dict[str, np.ndarray]]:
        """Table parts ``path, k, t, value`` for ``table.write_table``: part ``i`` is block ``i``, built when read.

        ``numpy.random`` is loaded here, so the table writer loads it before it
        forks its workers, not once in each (where loading it paged in about
        8 MB of code).
        """
        import numpy.random  # noqa: F401

        ks = np.arange(self.k_max + 1)

        def part(i: int) -> tuple[np.ndarray, ...]:
            block = self._batch(i)
            return np.arange(i * BATCH_SIZE, i * BATCH_SIZE + len(block))[:, np.newaxis], ks, self.times, block

        return _Parts(["path", "k", "t", "value"], self._n_batches, part, self.n_paths * len(ks))

    def to_csv(self, path) -> None:
        """Write rows ``path,k,t,value`` with 17-significant-digit floats, as ``dtsim simulate`` does."""
        write_table(self.columns(), "csv", path)


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance with its standard error: floats, or arrays of one shape."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_paths: int


def simulate_simple_bm(params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0) -> Ensemble:
    """Simple BM, the builtin seed's ensemble: Brownian motion times lam**(H - 1/2) per power of lam.

    At ``H = 1/2`` it is plain Brownian motion sampled at alpha**k.
    """
    return Ensemble(make_chain(params, simple_bm_seed(params)), k_max, n_paths, rng_seed)


def empirical_cov(ensemble: Ensemble, n, tau) -> CovEstimate:
    """Zero-mean covariance estimate mean(X[n+tau] * X[n]) across paths.

    The processes here have mean zero by construction, so no sample mean is
    subtracted.  The standard error is the sample standard deviation of the
    per-path products over sqrt(n_paths); it is reported as 0 for a single
    path.  ``n`` and ``tau`` may be broadcast integer arrays.  Both come
    from :attr:`Ensemble.moments`, the path sums of ``X_a X_b`` and
    ``X_a**2 X_b**2`` over all grid columns, so no entry depends on which
    others were asked for; as ``Var(XY) >= E[XY]**2`` for zero-mean
    Gaussian pairs, the one-pass variance loses at most about one bit.
    """
    n, m = np.asarray(n), np.asarray(n) + tau
    bad = (np.minimum(n, m) < 0) | (np.maximum(n, m) > ensemble.k_max)
    if np.any(bad):
        a, b = (int(x[bad].flat[0]) for x in np.broadcast_arrays(n, m))
        raise IndexError(f"(n, n + tau) = ({a}, {b}) outside grid indices 0..{ensemble.k_max}")
    sums, shift = ensemble._scaled_moments
    count = ensemble.n_paths
    value = sums[0, m, n] / count
    var = np.maximum(sums[1, m, n] - count * value * value, 0.0) / max(count - 1, 1)
    se = np.sqrt(var / count) * (count > 1)  # 0 for a single path
    e = shift[m] + shift[n]  # undoes the scaling exactly: both estimates scale as the sums of X_a X_b
    with np.errstate(over="ignore"):
        return CovEstimate(value=np.ldexp(value, e), std_error=np.ldexp(se, e), n_paths=count)

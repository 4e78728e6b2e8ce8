"""Spectral densities: periodically correlated pipeline and embedding closed forms.

Every quantity here has one array implementation; the scalar entry points
are length-1 calls into it.

* The stationarized route: the covariance of the periodically correlated
  counterpart is expanded in its periodic components ``B_k(tau)`` (one
  discrete Fourier transform over the phase index, :func:`bk_from_pc_cov`),
  each component is transformed to a frequency function

      f_k(w) = (1/2 pi) [B_k(0) + sum_{tau=1..S} (B_k(tau) z**tau + B_k(-tau) conj(z)**tau)],

  ``z = exp(-i w)``, and the T x T density matrix entries follow as
  ``f_jk(omega) = f_(k-j)((omega - 2 pi j) / T) / T``.  On a
  :class:`FrequencyGrid` of ``n`` frequencies every argument is a multiple of
  ``2 pi / (n T)``, so :func:`f_matrix_grid` takes each ``f_c`` on the grid
  from one length-``nT`` FFT of its lags wrapped mod ``nT``: O(nT log nT) per
  component, at exact arguments.  An FFT cannot reach an arbitrary ``omega``;
  off the grid (:func:`f_matrix`, :func:`fjk`, :func:`fk_from_bk`, which
  also gives the tail bound) the lag sums are evaluated by a two-sided Horner
  recurrence over ``tau``, vectorized over component indices and arguments.
  Either way the matrices are Hermitian to rounding.

* The embedding route: the T-dimensional self-similar embedding has a
  two-term closed-form density obtained by summing the geometric matrix
  covariance series

      d_jr(omega) = sum_s l**(-H s) exp(-i omega s T) Q_jr(l**s) / (2 pi).

  With ``A = Q(0)`` (``C * r0``, :func:`dtsim.multidim.q_cov` at ``n = tau = 0``),
  ``z = exp(-i omega T)`` and the per-period ratio
  ``rho = alpha**(-H T) * htilde_period``, the term at lag ``s`` is
  ``(rho z)**s A`` for ``s >= 0`` and ``(rho conj(z))**|s| A^T`` for
  ``s < 0``.  The powers of ``l`` and of ``htilde_period`` are never formed
  apart, so long truncations near ``|rho| = 1`` neither overflow nor
  underflow.  The series converges exactly when ``|rho| < 1`` and sums to
  ``[A / (1 - z rho) + A^T conj(z) rho / (1 - conj(z) rho)] / (2 pi)``.

The density of the process has the symmetric ``G0 = tril(A) + tril(A, -1)^T`` at lag 0
in place of ``A``: it is the two-term form plus ``(G0 - A) / (2 pi)``, zero on and below the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DsiParams, HChain, convergence_ratio
from .covariance import pc_counterpart_cov
from .errors import ConvergenceError, DomainError, PoleError
from .multidim import q_cov

__all__ = [
    "FrequencyGrid",
    "BkTable",
    "SpectralMatrix",
    "FkValue",
    "SeriesValue",
    "auto_truncation",
    "bk_from_pc_cov",
    "build_bk_table",
    "fk_from_bk",
    "fjk",
    "f_matrix",
    "f_matrix_grid",
    "dsi_cov_from_spectra",
    "spectral_sum",
    "spectral_sum_grid",
    "spectral_closed_grid",
    "spectral_diag",
    "simple_bm_spectral",
    "spectral_matrix_grid",
]

#: Guard distance from a denominator zero in closed forms.
_POLE_TOL = 1e-14


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequencies ``2 pi m / n_omega`` for ``m = 0..n_omega-1`` on [0, 2 pi)."""

    n_omega: int

    def __post_init__(self) -> None:
        if self.n_omega < 1:
            raise DomainError(f"n_omega must be >= 1, got {self.n_omega}")

    @property
    def omegas(self) -> np.ndarray:
        return 2 * math.pi * np.arange(self.n_omega) / self.n_omega


class FkValue(NamedTuple):
    """Truncated frequency component with its geometric tail bound."""

    value: complex
    tail_bound: float


class SeriesValue(NamedTuple):
    """Truncated spectral series value with its geometric tail bound."""

    value: complex
    tail_bound: float


def auto_truncation(rho: float, tol: float = 1e-12) -> int:
    """Smallest S with ``|rho|**S < tol`` (at least 1).

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1``: no truncation makes a divergent series small.
    """
    a = abs(rho)
    if a >= 1:
        raise ConvergenceError(
            f"series ratio |rho| = {a} >= 1; the spectral series diverges"
        )
    if a == 0.0:
        return 1
    return max(1, math.ceil(math.log(tol) / math.log(a)))


def bk_from_pc_cov(pc_values, k):
    """Periodic component ``B_k(tau) = (1/T) sum_n R_n(tau) exp(-2 pi i k n / T)``.

    ``pc_values`` holds the periodically correlated covariance for phases
    n = 0..T-1 along its first axis (further axes, such as lags, are kept);
    ``k`` is a component index or an integer array of them.  Discrete
    orthogonality makes this the exact inverse of the phase expansion
    ``R_n(tau) = sum_k B_k(tau) exp(2 pi i k n / T)``.
    """
    vals = np.asarray(pc_values, dtype=float)
    T = len(vals)
    if T == 0:
        raise DomainError("need at least one phase value")
    phases = np.exp(-2j * math.pi * np.multiply.outer(np.asarray(k) % T, np.arange(T)) / T)
    out = np.tensordot(phases, vals, axes=1) / T
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BkTable:
    """Periodic components ``B_k(tau)`` for k = 0..T-1 and |tau| <= tau_window."""

    values: np.ndarray  # (T, 2*tau_window + 1), column tau_window is lag 0
    tau_window: int
    rho: float

    @property
    def T(self) -> int:
        return self.values.shape[0]

    def value(self, k: int, tau: int) -> complex:
        """B_k(tau); the component index is periodic mod T."""
        if abs(tau) > self.tau_window:
            raise IndexError(f"lag {tau} outside table window {self.tau_window}")
        return complex(self.values[k % self.T, tau + self.tau_window])


def build_bk_table(chain: HChain, tau_window: int | None = None) -> BkTable:
    """Tabulate B_k(tau) from the chain's closed-form covariance.

    The default window is ``auto_truncation(rho)`` periods of T lags (``rho``
    is per period: a 1e-12 tail) and one period more, for a tail bound.
    """
    rho = convergence_ratio(chain)
    if tau_window is None:
        tau_window = chain.T * auto_truncation(rho) + chain.T
    if tau_window < 0:
        raise DomainError(f"tau_window must be >= 0, got {tau_window}")
    phases = np.arange(chain.T)
    pc = pc_counterpart_cov(chain, phases[:, np.newaxis], np.arange(-tau_window, tau_window + 1))
    return BkTable(values=bk_from_pc_cov(pc, phases), tau_window=tau_window, rho=rho)


def _effective_truncation(table: BkTable, s_trunc: int | None) -> int:
    """Truncation ``S`` of the lag sums over ``table``, checked in this order.

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1``.
    IndexError
        If the table cannot hold ``S`` lags and one more period for the tail bound.
    DomainError
        If ``s_trunc < 0``.
    """
    if abs(table.rho) >= 1:
        raise ConvergenceError(
            f"series ratio |rho| = {abs(table.rho)} >= 1; f_k does not exist"
        )
    limit = table.tau_window - table.T
    if limit < 0:
        raise IndexError(
            f"table window {table.tau_window} too small for a tail estimate "
            f"(need at least T = {table.T})"
        )
    if s_trunc is None:
        return limit
    if s_trunc < 0:
        raise DomainError(f"truncation must be >= 0, got {s_trunc}")
    if s_trunc > limit:
        raise IndexError(
            f"truncation {s_trunc} needs window {s_trunc + table.T}, "
            f"table has {table.tau_window}"
        )
    return s_trunc


def _fk(table: BkTable, k, arg, s_trunc: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Values ``f_k(arg)`` and tail bounds over broadcast component indices and arguments.

    The off-grid route: a two-sided Horner recurrence over the lags, which
    takes any ``arg`` at O(S) work per value and forms no lags-by-arguments
    array.  On a frequency grid :func:`f_matrix_grid` uses one FFT instead.
    The tail bound exploits that |B_k| decays by |rho| per period: the first
    untabulated period is summed and the geometric remainder closed.
    """
    S = _effective_truncation(table, s_trunc)
    W = table.tau_window
    lags = np.moveaxis(table.values[np.asarray(k) % table.T], -1, 0)  # lags[W + tau] = B_k(tau)
    z = np.exp(-1j * np.asarray(arg, dtype=float))
    zbar = np.conj(z)
    pos = neg = np.zeros_like(z)
    for tau in range(S, 0, -1):
        pos = (pos + lags[W + tau]) * z
        neg = (neg + lags[W - tau]) * zbar
    value = (lags[W] + pos + neg) / (2 * math.pi)
    edge = np.sum(np.abs(lags[W + S + 1 : W + S + table.T + 1]), axis=0)
    return value, edge / ((1 - abs(table.rho)) * math.pi)  # both lag signs, |B_k(-t)| = |B_k(t)|


def fk_from_bk(table: BkTable, k: int, omega: float, s_trunc: int | None = None) -> FkValue:
    """Frequency component ``f_k(omega) ~ (1/2 pi) sum_{|tau|<=S} B_k(tau) e^{-i tau omega}``.

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1``.
    """
    value, tail = _fk(table, k, omega, s_trunc)
    return FkValue(value=complex(value), tail_bound=float(tail))


def fjk(table: BkTable, j: int, k: int, omega: float, s_trunc: int | None = None) -> complex:
    """Density matrix entry ``f_jk(omega) = (1/T) f_(k-j)((omega - 2 pi j) / T)``.

    Component indices reduce mod T and the frequency argument mod 2 pi; both
    reductions are exact symmetries of the underlying sums.
    """
    return complex(f_matrix(table, omega, s_trunc)[j % table.T, k % table.T])


def f_matrix(table: BkTable, omega, s_trunc: int | None = None) -> np.ndarray:
    """T x T density matrix of the stationarized counterpart at ``omega``.

    An array of frequencies gives one matrix per frequency, shape
    ``omega.shape + (T, T)``.
    """
    T = table.T
    idx = np.arange(T)
    arg = ((np.asarray(omega, dtype=float)[..., np.newaxis] - 2 * math.pi * idx) / T) % (2 * math.pi)
    f = _fk(table, idx, arg[..., np.newaxis], s_trunc)[0]  # f[..., j, c] = f_c(arg_j)
    return f[..., idx[:, np.newaxis], (idx - idx[:, np.newaxis]) % T] / T


def dsi_cov_from_spectra(chain: HChain, n, tau, table: BkTable):
    """Reassemble ``dtsim_cov`` from the periodic components.

    ``alpha**((2n + tau) H) * sum_k B_k(tau) exp(2 pi i k n / T)``; the
    imaginary part of the phase sum vanishes and is dropped.  ``n`` and
    ``tau`` may be broadcast integer arrays; scalars give a float.

    The phase sums mix all T phases: a value is accurate to about ``T * eps * max |pc|``
    times ``alpha**((2n + tau) H)``, and has no correct digits below that (simple BM,
    H = 0.75, alpha = 2, T = 128: 2.2e14 at ``(n, tau) = (127, 0)``, where 2.15e9 is right).
    """
    p = chain.params
    phases = np.arange(chain.T)
    # phase_sums[n, W + tau] = sum_k B_k(tau) exp(2 pi i k n / T) for each phase n
    phase_sums = np.exp(2j * math.pi * np.multiply.outer(phases, phases) / chain.T) @ table.values
    n, tau = np.asarray(n), np.asarray(tau)
    out = p.alpha ** ((2 * n + tau) * p.H) * phase_sums[n % chain.T, tau + table.tau_window].real
    return float(out) if out.ndim == 0 else out


def _convergent_ratio(chain: HChain) -> float:
    rho = convergence_ratio(chain)
    if abs(rho) >= 1:
        raise ConvergenceError(
            f"series ratio |rho| = {abs(rho)} >= 1; the spectral series diverges"
        )
    return rho


def _closed_ratio(chain: HChain, omegas) -> tuple[np.ndarray, np.ndarray]:
    """``zr = rho e^{-i omega T}`` and ``1 - zr``, guarded as :func:`spectral_closed_grid` states."""
    zr = _convergent_ratio(chain) * np.exp(-1j * np.asarray(omegas, dtype=float) * chain.T)
    denom = 1 - zr
    if np.any(np.abs(denom) < _POLE_TOL):
        raise PoleError(f"denominator {np.min(np.abs(denom))} within {_POLE_TOL} of a pole")
    return zr, denom


def _sum_truncation(chain: HChain, s_trunc: int | None) -> tuple[float, int]:
    """``rho`` and the truncation ``S`` of :func:`spectral_sum_grid`, which raise as it states."""
    rho = _convergent_ratio(chain)
    S = auto_truncation(rho) if s_trunc is None else s_trunc
    if S < 0:
        raise DomainError(f"truncation must be >= 0, got {S}")
    return rho, S


def spectral_sum_grid(
    chain: HChain, omegas: np.ndarray, s_trunc: int | None = None
) -> np.ndarray:
    """Embedding density by direct series truncation at ``|s| <= S``, shape (len(omegas), T, T).

    The term at lag ``s`` is ``(rho e^{-i omega T})**s A`` for ``s >= 0`` and
    the conjugate power times ``A^T`` for ``s < 0``; the truncated power sum
    is accumulated by doubling over the bits of ``S`` rather than summed in
    closed form, so this is an independent check on :func:`spectral_closed_grid`.

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1``.
    """
    A = q_cov(chain, 0, 0)
    return _sum_density(np.stack([A, A.T]), _sum_powers(chain, omegas, s_trunc))


def _sum_powers(chain: HChain, omegas, s_trunc: int | None) -> np.ndarray:
    """``sum_{s=1..S} zr**s`` at each frequency, raising as :func:`spectral_sum_grid` states.

    The sum ``G(m)`` of the first ``m`` powers is built over the bits of
    ``S``, highest first, from ``G(2m) = G(m) (1 + zr**m)`` and
    ``G(m + 1) = zr (1 + G(m))``, with ``zr**m`` squared alongside: about
    ``2 log2 S`` array steps, so ``S`` of 1e16 near ``|rho| = 1`` costs what
    ``S`` of 100 does, and never a division by the closed form's ``1 - zr``.
    Pointwise in omega, so the sums of a slice of ``omegas`` are that slice
    of these, bit for bit.
    """
    rho, S = _sum_truncation(chain, s_trunc)
    zr = rho * np.exp(-1j * np.asarray(omegas, dtype=float) * chain.T)
    powers, zm = np.zeros_like(zr), np.ones_like(zr)  # G(m) and zr**m at m = 0
    for bit in bin(S)[2:]:
        powers *= 1 + zm
        zm *= zm
        if bit == "1":
            powers += 1
            powers *= zr
            zm *= zr
    return powers


def _sum_density(AAt: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """:func:`spectral_sum_grid` from ``np.stack([A, A.T])`` and the power sums :func:`_sum_powers` gives.

    Shape (len(powers), T, T).
    """
    # (1 + powers) A + conj(powers) A^T as one product: no second grid-sized temporary.  In runs of 1024
    # columns, which OpenBLAS multiplies on the calling thread: a one-frequency product over all T**2 starts
    # its helper threads, and in a table format worker they compete with the other worker for the cores
    coef = np.stack([1 + powers, np.conj(powers)], axis=-1)
    flat = AAt.reshape(2, -1)
    out = np.empty((len(powers), flat.shape[1]), complex)
    for lo in range(0, flat.shape[1], 1024):
        np.matmul(coef, flat[:, lo : lo + 1024], out=out[:, lo : lo + 1024])
    out = out.reshape(len(powers), *AAt.shape[1:])
    out /= 2 * math.pi
    return out


def spectral_sum(
    chain: HChain, j: int, r: int, omega: float, s_trunc: int | None = None
) -> SeriesValue:
    """Entry (j, r) of :func:`spectral_sum_grid` at ``omega``, with its geometric tail bound."""
    value = spectral_sum_grid(chain, [omega], s_trunc)[0, j, r]
    rho, S = _sum_truncation(chain, s_trunc)
    rho = abs(rho)
    A = q_cov(chain, 0, 0)
    tail = rho ** (S + 1) * (abs(A[j, r]) + abs(A[r, j])) / ((1 - rho) * 2 * math.pi)
    return SeriesValue(value=complex(value), tail_bound=float(tail))


def spectral_closed_grid(chain: HChain, omegas: np.ndarray) -> np.ndarray:
    """Two-term closed form of the embedding density, shape (len(omegas), T, T).

    ``(1/2 pi) [A / (1 - z rho) + A^T conj(z) rho / (1 - conj(z) rho)]`` with
    ``z = e^{-i omega T}``, ``A[j, r] = htilde(j-1) r0[r] / htilde(r-1)`` and
    ``rho`` the convergence ratio.  The second term is exactly zero when the
    ratio chain vanishes over a period (``rho = 0``).

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1`` (the defining series diverges).
    PoleError
        If a denominator comes within 1e-14 of zero.
    """
    return _closed_density(q_cov(chain, 0, 0), *_closed_ratio(chain, omegas))


def _closed_density(A: np.ndarray, zr: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """:func:`spectral_closed_grid` from ``A = Q(0)`` and the ratios :func:`_closed_ratio` gives."""
    out = A / denom[:, np.newaxis, np.newaxis]
    w = (np.conj(zr) / np.conj(denom))[:, np.newaxis, np.newaxis]
    for lo, chunk in _chunks(out):  # no second grid-sized temporary
        chunk += A.T * w[lo : lo + len(chunk)]
    out /= 2 * math.pi
    return out


def _chunks(out: np.ndarray):
    """``(start, view)`` of consecutive runs of frequencies of ``out`` (n, T, T), about 2**16 entries each."""
    step = max(1, (1 << 16) // out[0].size) if len(out) else 1
    return ((lo, out[lo : lo + step]) for lo in range(0, len(out), step))


def spectral_diag(chain: HChain, k, omega):
    """Diagonal density ``r0[k] (1 - rho^2) / (2 pi (1 - 2 cos(omega T) rho + rho^2))``.

    Strictly positive for every valid chain with ``|rho| < 1``; equals the real
    part of the (k, k) closed form.  ``k`` and ``omega`` may be broadcast
    arrays; scalars give a float.
    """
    rho = _convergent_ratio(chain)
    denom = 1 - 2 * np.cos(np.asarray(omega, dtype=float) * chain.T) * rho + rho * rho
    if np.any(np.abs(denom) < _POLE_TOL):
        raise PoleError(f"denominator {np.min(np.abs(denom))} within {_POLE_TOL} of a pole")
    out = chain.seed.r0[np.asarray(k) % chain.T] * (1 - rho * rho) / (2 * math.pi * denom)
    return float(out) if out.ndim == 0 else out


def simple_bm_spectral(params: DsiParams, j, r, omega):
    """Embedding density of simple BM in its fully explicit form.

    ``(alpha**(2 T (H - 1/2)) / 2 pi) * [alpha**r / (1 - e^{-i omega T} alpha**(-T/2))
    - alpha**j / (1 - e^{-i omega T} alpha**(T/2))]``.  ``j``, ``r`` and
    ``omega`` may be broadcast arrays; scalars give a complex.
    """
    T = params.T
    j, r = np.asarray(j), np.asarray(r)
    if np.any((j < 0) | (j >= T) | (r < 0) | (r >= T)):
        raise IndexError(f"component indices must lie in 0..{T - 1}, got ({j}, {r})")
    z = np.exp(-1j * np.asarray(omega, dtype=float) * T)
    lead = params.alpha ** (2 * T * (params.H - 0.5)) / (2 * math.pi)
    out = lead * (
        params.alpha ** r / (1 - z * params.alpha ** (-T / 2))
        - params.alpha ** j / (1 - z * params.alpha ** (T / 2))
    )
    return complex(out) if out.ndim == 0 else out


def _asymmetry(entries: np.ndarray) -> float:
    """Largest ``|e[j, r] - conj(e[r, j])|``, diagonal included, relative to ``max(1, max |e|)``."""
    scale = max(1.0, float(np.max(np.abs(entries))))
    return float(np.max(np.abs(entries - np.conj(np.swapaxes(entries, -1, -2))))) / scale


@dataclass(frozen=True)
class SpectralMatrix:
    """Density matrices on a frequency grid; Hermitian with real diagonal."""

    grid: FrequencyGrid
    entries: np.ndarray  # (n_omega, T, T) complex

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 3 or e.shape[0] != self.grid.n_omega or e.shape[1] != e.shape[2]:
            raise DomainError(f"entries shape {e.shape} is not (n_omega, T, T)")
        if _asymmetry(e) > 1e-12:
            raise DomainError("spectral matrix is not Hermitian within 1e-12")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def _density_entries(chain: HChain, omegas) -> np.ndarray:
    """Entries of :func:`spectral_matrix_grid` at ``omegas``."""
    zr, denom = _closed_ratio(chain, omegas)
    A = q_cov(chain, 0, 0)
    out = (zr / denom)[:, np.newaxis, np.newaxis] * A  # M: the lags s >= 1
    for _, chunk in _chunks(out):  # before G0, so out[j, r] == conj(out[r, j])
        chunk += np.conj(np.swapaxes(chunk, 1, 2))
    out += np.tril(A) + np.tril(A, -1).T
    out /= 2 * math.pi
    return out


def spectral_matrix_grid(chain: HChain, grid: FrequencyGrid) -> SpectralMatrix:
    """Embedding density ``[G0 + M + M^H] / (2 pi)`` over a grid, Hermitian by construction.

    ``M = A zr / (1 - zr)`` sums the lags ``s >= 1``; raises as :func:`spectral_closed_grid`.
    """
    return SpectralMatrix(grid=grid, entries=_density_entries(chain, grid.omegas))


def _f_matrix_entries(table: BkTable, grid: FrequencyGrid, s_trunc: int | None) -> np.ndarray:
    """Entries of :func:`f_matrix_grid`, not yet checked for Hermitian symmetry."""
    S = _effective_truncation(table, s_trunc)
    T, n = table.T, grid.n_omega
    N = n * T
    lags = table.values[:, table.tau_window - S : table.tau_window + S + 1]  # lags[:, S + tau] = B_c(tau)
    # wrap mod N: column S + tau is summed into bin (S + tau) mod N, which the roll moves to tau mod N
    wrapped = np.pad(lags, ((0, 0), (0, -(2 * S + 1) % N))).reshape(T, -1, N).sum(axis=1)
    F = np.fft.fft(np.roll(wrapped, -S, axis=1), axis=1)
    idx = np.arange(T)
    q = (np.arange(n)[:, np.newaxis] - n * idx) % N  # q[m, j]
    entries = F[(idx - idx[:, np.newaxis]) % T, q[:, :, np.newaxis]]  # F[(k - j) mod T, q[m, j]]
    entries /= 2 * math.pi * T
    return entries


def f_matrix_grid(
    table: BkTable, grid: FrequencyGrid, s_trunc: int | None = None
) -> SpectralMatrix:
    """Stationarized-counterpart density matrices over a frequency grid, one FFT per component.

    On ``FrequencyGrid(n)`` every argument of :func:`f_matrix` is
    ``(2 pi m / n - 2 pi j) / T mod 2 pi = 2 pi q / N`` with ``N = n T`` and
    the integer ``q = (m - j n) mod N``.  So ``f_c`` on the grid is the
    length-``N`` DFT of the lags ``B_c(tau)``, ``|tau| <= S``, wrapped mod
    ``N``, and entry ``(j, k)`` at ``omega_m`` is ``F[(k - j) mod T, q] / (2 pi T)``.
    The arguments are exact, the work is O(N log N) per component, and ``F``
    has as many entries as the output.  The values agree with
    :func:`f_matrix` at ``grid.omegas`` to rounding.

    Raises
    ------
    ConvergenceError
        If ``|rho| >= 1``.
    IndexError, DomainError
        For a truncation the table cannot serve, as in :func:`f_matrix`.
    """
    return SpectralMatrix(grid=grid, entries=_f_matrix_entries(table, grid, s_trunc))

"""Single-channel dereverberation by variance-weighted delayed linear prediction.

Each frequency bin is treated independently: a length-K prediction filter
estimates the late reverberant part of frame t from the observed frames
t-D ... t-D-K+1, weighted by an iteratively re-estimated signal variance.
Subtracting the prediction leaves the early/direct component.

The complex arithmetic runs on real arrays: the delayed taps and the target
of every bin are stored once as real and imaginary rows of one float64
stack, so that an iteration's covariance build is one batched real GEMM and
its prediction one small batched real GEMM.

Because the bins are independent, they run in contiguous blocks, each
through all its iterations before the next starts, sized so that a block's
stack and weighted taps stay in cache. Every bin's arithmetic is the same
under any split, so the output does not depend on it, bit for bit.
"""

import logging
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, NumericError
from .stft import Spectrogram
from .validation import as_complex_matrix, check_positive

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WpeConfig:
    taps: int = 10
    delay: int = 3
    iterations: int = 3
    variance_floor: float = 1e-10
    delta: Optional[float] = None
    """Tikhonov term for the normal equations. None picks
    1e-6 * trace(R)/taps per bin on the first iteration and keeps it fixed
    afterwards, so the optimized objective stays the same across iterations."""
    variance_context: int = 1
    """Half-width (frames) of the moving average applied to |x|^2 before the
    variance floor. Smoothing keeps repeated iterations from spiraling into
    over-suppression of low-energy frames; 0 uses the raw per-frame estimate,
    for which the objective is provably non-increasing across iterations."""

    def __post_init__(self):
        if self.taps < 1:
            raise ConfigError(f"taps must be >= 1, got {self.taps}")
        if self.delay < 1:
            raise ConfigError(f"delay must be >= 1, got {self.delay}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        check_positive(self.variance_floor, "variance_floor")
        if self.delta is not None and self.delta < 0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if self.variance_context < 0:
            raise ConfigError(f"variance_context must be >= 0, got {self.variance_context}")


@dataclass
class WpeResult:
    enhanced: Union[Spectrogram, np.ndarray]
    filters: np.ndarray       # (bins, taps) complex prediction coefficients
    variance: np.ndarray      # (frames, bins) floored variance from the last iteration
    objective: np.ndarray     # (iterations, bins) optimized cost after each iteration
    fallback_bins: tuple = ()
    """Sorted bins whose normal equations failed a solve check in any
    iteration (see solve_normal_equations); each got a zero filter for that
    iteration."""


# Failure codes of solve_normal_equations, in the order the checks run.
SOLVE_FAILURES = (
    None,
    "normal equations contain non-finite entries",
    "matrix is not Hermitian",
    "solver produced non-finite coefficients",
    "solver residual too large",
)
_NONFINITE_INPUT, _NOT_HERMITIAN, _NONFINITE_SOLUTION, _LARGE_RESIDUAL = 1, 2, 3, 4


def _lapack_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One LAPACK call over the (n, K, K) stack; raises LinAlgError if any is singular."""
    return np.linalg.solve(matrices, rhs[..., None])[..., 0]


def solve_normal_equations(normal: np.ndarray, rhs: np.ndarray, delta: np.ndarray):
    """Solve (R_b + delta_b*I) g_b = r_b for a stack of Hermitian systems.

    normal is (n, K, K), rhs (n, K), delta (n,). Returns (filters, failure):
    filters is (n, K), failure an int8 (n,) code into SOLVE_FAILURES, 0 where
    the system solved. A system fails on non-finite input, a Hermitian gap
    above 1e-9*max(1, max|R|), non-finite coefficients, or a residual above
    1e-6*(|r| + 1); its filter is zero. All systems go through one LAPACK
    solve; if that raises LinAlgError (a singular system), each is solved on
    its own, falling back to least squares where the direct solve fails.
    """
    R = np.asarray(normal, dtype=np.complex128)
    r = np.asarray(rhs, dtype=np.complex128)
    n_sys, k = r.shape
    failure = np.zeros(n_sys, dtype=np.int8)
    finite = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(r).all(axis=1)
    failure[~finite] = _NONFINITE_INPUT
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite system, already rejected
        hermitian_gap = np.abs(R - R.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(R).max(axis=(1, 2), initial=0.0))
    failure[(failure == 0) & (hermitian_gap > 1e-9 * scale)] = _NOT_HERMITIAN

    A = R + np.asarray(delta)[:, None, None] * np.eye(k)
    rejected = failure != 0
    if rejected.any():
        # Rejected systems get a trivial stand-in so they cannot make the stack singular.
        r = r.copy()
        A[rejected], r[rejected] = np.eye(k), 0.0
    try:
        g = _lapack_solve(A, r)
    except np.linalg.LinAlgError:
        g = np.empty((n_sys, k), dtype=np.complex128)
        for b in range(n_sys):
            try:
                g[b] = np.linalg.solve(A[b], r[b])
            except np.linalg.LinAlgError:
                g[b] = np.linalg.lstsq(A[b], r[b], rcond=None)[0]

    failure[(failure == 0) & ~np.isfinite(g).all(axis=1)] = _NONFINITE_SOLUTION
    g[failure != 0] = 0.0
    residual = np.linalg.norm((A @ g[..., None])[..., 0] - r, axis=1)
    too_large = residual > 1e-6 * (np.linalg.norm(r, axis=1) + 1.0)
    failure[(failure == 0) & too_large] = _LARGE_RESIDUAL
    g[failure == _LARGE_RESIDUAL] = 0.0
    return g, failure


def solve_hermitian(matrix: np.ndarray, rhs: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Solve (R + delta*I) g = r for Hermitian R.

    A batch of one for solve_normal_equations: falls back to a least-squares
    solve when the direct solve fails, and raises NumericError on the
    failures that function reports.
    """
    R = np.asarray(matrix, dtype=np.complex128)
    r = np.asarray(rhs, dtype=np.complex128)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or r.shape != (R.shape[0],):
        raise NumericError(f"expected square system, got R {R.shape} and r {r.shape}")
    g, failure = solve_normal_equations(R[None], r[None], np.array([delta]))
    if failure[0]:
        raise NumericError(SOLVE_FAILURES[failure[0]])
    return g[0]


def _tap_stack(
    data: np.ndarray, taps: int, delay: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Real stack (bins, 2*taps + 2, valid_frames) of the delayed taps and the target.

    Row k < taps holds Re y[t - delay - k], row taps + k its Im, and the last
    two rows Re y[t] and Im y[t], for t from delay + taps - 1 on. Written
    into out when given.
    """
    n_frames, n_bins = data.shape
    first_valid = delay + taps - 1
    n_valid = n_frames - first_valid
    parts = data.view(np.float64).reshape(n_frames, n_bins, 2).transpose(1, 2, 0)
    stack = np.empty((n_bins, 2 * taps + 2, n_valid)) if out is None else out
    for k in range(taps):
        start = first_valid - delay - k
        stack[:, k, :] = parts[:, 0, start:start + n_valid]
        stack[:, taps + k, :] = parts[:, 1, start:start + n_valid]
    stack[:, 2 * taps:, :] = parts[:, :, first_valid:]
    return stack


def _normal_equations(stack: np.ndarray, inverse_variance: np.ndarray, weighted: np.ndarray):
    """Every bin's normal matrix (bins, K, K) and rhs (bins, K) from one real GEMM.

    inverse_variance is (bins, valid_frames); weighted, (bins, 2K, valid_frames),
    is overwritten with the taps scaled by it. In complex terms the matrix is
    sum_t x[t] x[t]^H / lam[t] and the rhs sum_t x[t] conj(y[t]) / lam[t].
    """
    k = weighted.shape[1] // 2
    np.multiply(stack[:, :2 * k], inverse_variance[:, None, :], out=weighted)
    gram = weighted @ stack.transpose(0, 2, 1)            # (B, 2K, 2K + 2)
    re, im = gram[:, :k], gram[:, k:]
    normal = np.empty((len(gram), k, k), dtype=np.complex128)
    np.add(re[:, :, :k], im[:, :, k:2 * k], out=normal.real)
    np.subtract(im[:, :, :k], re[:, :, k:2 * k], out=normal.imag)
    rhs = np.empty((len(gram), k), dtype=np.complex128)
    np.add(re[:, :, 2 * k], im[:, :, 2 * k + 1], out=rhs.real)
    np.subtract(im[:, :, 2 * k], re[:, :, 2 * k + 1], out=rhs.imag)
    return normal, rhs


def _prediction(filters: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Re and Im of sum_k conj(g_k) x_k, as (bins, 2, valid_frames)."""
    k = filters.shape[1]
    coefficients = np.empty((len(filters), 2, 2 * k))
    coefficients[:, 0, :k] = coefficients[:, 1, k:] = filters.real
    coefficients[:, 0, k:] = filters.imag
    np.negative(filters.imag, out=coefficients[:, 1, :k])
    return coefficients @ stack[:, :2 * k]


def _smoothed_power(signal: np.ndarray, half_width: int) -> np.ndarray:
    """Moving average of |x|^2 over +/- half_width frames, edge-shortened."""
    power = np.abs(signal) ** 2
    if half_width == 0:
        return power
    n_frames = power.shape[0]
    padded = np.zeros((n_frames + 1, power.shape[1]))
    np.cumsum(power, axis=0, out=padded[1:])
    lo = np.maximum(np.arange(n_frames) - half_width, 0)
    hi = np.minimum(np.arange(n_frames) + half_width + 1, n_frames)
    return (padded[hi] - padded[lo]) / (hi - lo)[:, None]


# Working set (stack plus weighted taps) that one block of bins may occupy.
# On 3 s utterances, budgets of 4 to 12 MiB (6 to 2 blocks) timed alike, and
# faster than both smaller blocks and one whole-utterance block, on a Xeon
# with 2 MiB of L2 per core and one BLAS thread.
_BLOCK_BYTES = 6 * 2**20


def _bin_blocks(n_bins: int, taps: int, n_valid: int) -> list[slice]:
    """Contiguous, equal-width blocks of bins whose working sets fit _BLOCK_BYTES.

    No block is narrower than 2 bins unless there is only one bin: over a
    single column numpy sums the objective pairwise, not frame by frame, and
    its rounding would depend on the split.
    """
    per_bin = (4 * taps + 2) * n_valid * 8  # stack (2K + 2 rows) and weighted (2K rows)
    n_blocks = min(-(-n_bins * per_bin // _BLOCK_BYTES), n_bins // 2)
    return [
        slice(bins[0], bins[-1] + 1)
        for bins in np.array_split(np.arange(n_bins), max(n_blocks, 1))
    ]


def _dereverberate_block(
    data: np.ndarray, config: WpeConfig, stack: np.ndarray, weighted: np.ndarray
):
    """The WPE iterations on a C-ordered (frames, bins) block with complete contexts.

    stack (B, 2K + 2, Tv) and weighted (B, 2K, Tv) are the block's scratch
    buffers, overwritten. Returns (enhanced, filters, variance, objective,
    fallback), fallback holding the block's own indices of the bins that
    fell back.
    """
    n_frames, n_bins = data.shape
    taps = config.taps
    first_valid = config.delay + taps - 1
    _tap_stack(data, taps, config.delay, out=stack)
    enhanced = data.copy()
    # Re/Im views (frames, bins, 2) of the observation and of the output.
    observed_parts = data.view(np.float64).reshape(n_frames, n_bins, 2)
    enhanced_parts = enhanced.view(np.float64).reshape(n_frames, n_bins, 2)
    objective = np.empty((config.iterations, n_bins))
    delta_per_bin: Optional[np.ndarray] = None
    fallback: set[int] = set()

    for iteration in range(config.iterations):
        variance = np.maximum(
            _smoothed_power(enhanced, config.variance_context), config.variance_floor
        )
        lam = variance[first_valid:, :]                    # (Tv, B)
        normal, rhs = _normal_equations(stack, 1.0 / np.ascontiguousarray(lam.T), weighted)

        if delta_per_bin is None:
            if config.delta is not None:
                delta_per_bin = np.full(n_bins, float(config.delta))
            else:
                delta_per_bin = 1e-6 * np.einsum("bkk->b", normal).real / taps

        filters, failure = solve_normal_equations(normal, rhs, delta_per_bin)
        fallback.update(np.flatnonzero(failure).tolist())

        np.subtract(
            observed_parts[first_valid:],
            _prediction(filters, stack).transpose(2, 0, 1),
            out=enhanced_parts[first_valid:],
        )
        residual = np.abs(enhanced[first_valid:, :]) ** 2 / lam
        objective[iteration] = (
            residual.sum(axis=0)
            + np.log(lam).sum(axis=0)
            + delta_per_bin * (np.abs(filters) ** 2).sum(axis=1)
        )
    return enhanced, filters, variance, objective, fallback


def wpe_dereverberate(observation, config: WpeConfig = WpeConfig()) -> WpeResult:
    """Dereverberate a (frames x bins) complex spectrogram.

    The bins run in contiguous blocks sized so that a block's working
    buffers stay in cache through all its iterations; every bin's
    arithmetic is the same whatever the split, so the result does not
    depend on it. Each block is first laid out as one real
    (bins, 2*taps + 2, frames) stack: the real parts of the taps, their
    imaginary parts, and the real and imaginary part of the target frame.
    Each iteration re-estimates the floored variance from the current
    dereverberated signal, scales the tap rows by its reciprocal, and reads
    every bin's normal matrix and rhs out of the blocks of one batched real
    GEMM of those rows against the stack. It solves the (bins, taps, taps)
    systems with one batched call to solve_normal_equations, predicts the
    tail with one batched real GEMM of the filters against the tap rows,
    and subtracts it in place. solve_normal_equations checks each bin's
    system; a bin that fails a check gets a zero filter and is listed
    in fallback_bins. Frames without a complete context
    (t < delay + taps - 1) pass through unchanged, as does the whole
    utterance when it is shorter than taps + delay + 1 frames.
    """
    is_spec = isinstance(observation, Spectrogram)
    data = observation.data if is_spec else as_complex_matrix(observation, "observation")
    n_frames, n_bins = data.shape
    taps, delay = config.taps, config.delay

    def wrap(matrix: np.ndarray):
        if is_spec:
            return Spectrogram(matrix, observation.config, observation.sample_rate)
        return matrix

    if n_frames <= taps + delay:
        variance = np.maximum(_smoothed_power(data, config.variance_context), config.variance_floor)
        return WpeResult(
            enhanced=wrap(data.copy()),
            filters=np.zeros((n_bins, taps), dtype=np.complex128),
            variance=variance,
            objective=np.zeros((0, n_bins)),
        )

    enhanced = np.empty((n_frames, n_bins), dtype=np.complex128)
    filters = np.empty((n_bins, taps), dtype=np.complex128)
    variance = np.empty((n_frames, n_bins))
    objective = np.empty((config.iterations, n_bins))
    fallback: list[int] = []
    n_valid = n_frames - (delay + taps - 1)
    blocks = _bin_blocks(n_bins, taps, n_valid)
    # One pair of scratch buffers for every block, so that a call allocates them once.
    widest = max(bins.stop - bins.start for bins in blocks)
    stack = np.empty((widest, 2 * taps + 2, n_valid))
    weighted = np.empty((widest, 2 * taps, n_valid))
    for bins in blocks:
        width = bins.stop - bins.start
        (
            enhanced[:, bins], filters[bins], variance[:, bins], objective[:, bins], block_fallback
        ) = _dereverberate_block(
            np.ascontiguousarray(data[:, bins]), config, stack[:width], weighted[:width]
        )
        fallback.extend(bins.start + b for b in sorted(block_fallback))

    if fallback:
        log.warning("WPE fell back to zero filters on %d bin(s)", len(fallback))
    return WpeResult(
        enhanced=wrap(enhanced),
        filters=filters,
        variance=variance,
        objective=objective,
        fallback_bins=tuple(fallback),
    )

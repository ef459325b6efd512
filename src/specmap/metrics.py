"""Enhancement quality metrics: feature MSE, LSD and segmental SNR."""

import numpy as np

from .errors import ShapeError
from .validation import as_float_matrix, as_float_vector, check_same_shape

_LN10 = np.log(10.0)
SEGMENT_MS = 10.0  # segmental SNR: segment length
SEGSNR_FLOOR_DB, SEGSNR_CEIL_DB = -10.0, 35.0  # and the range each segment's SNR is clamped to


def mel_mse(enhanced: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error over all frames and mel dimensions."""
    a = as_float_matrix(enhanced, "enhanced features")
    b = as_float_matrix(reference, "reference features")
    check_same_shape(a, b, "feature matrices")
    return float(np.mean((a - b) ** 2))


def log_spectral_distortion(log_spec_a: np.ndarray, log_spec_b: np.ndarray) -> float:
    """Mean over frames of the per-frame RMS log-magnitude difference, in dB.

    Inputs are natural-log magnitudes; 20/ln(10) converts the difference to
    decibels before the RMS.
    """
    a = as_float_matrix(log_spec_a, "log spectrogram a")
    b = as_float_matrix(log_spec_b, "log spectrogram b")
    check_same_shape(a, b, "log spectrograms")
    if a.shape[0] == 0:
        return 0.0
    diff_db = (20.0 / _LN10) * (a - b)
    return float(np.mean(np.sqrt(np.mean(diff_db ** 2, axis=1))))


def segmental_snr(estimate: np.ndarray, reference: np.ndarray, sample_rate: int) -> float:
    """Mean per-segment SNR in dB over SEGMENT_MS segments, clamped to the SEGSNR_* range.

    Segments with zero error hit the ceiling; segments with zero reference
    energy but nonzero error hit the floor. A trailing partial segment is
    dropped.
    """
    est = as_float_vector(estimate, "estimate")
    ref = as_float_vector(reference, "reference")
    check_same_shape(est, ref, "waveforms")
    seg_len = int(round(sample_rate * SEGMENT_MS / 1000.0))
    n_segments = len(ref) // seg_len
    if n_segments == 0:
        raise ShapeError(f"signal too short for {SEGMENT_MS} ms segments")
    length = n_segments * seg_len
    signal = ref[:length].reshape(n_segments, seg_len)
    error = (ref[:length] - est[:length]).reshape(n_segments, seg_len)
    signal_energy = np.sum(signal ** 2, axis=1)
    error_energy = np.sum(error ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.clip(
            10.0 * np.log10(signal_energy / error_energy), SEGSNR_FLOOR_DB, SEGSNR_CEIL_DB
        )
    values[signal_energy == 0.0] = SEGSNR_FLOOR_DB
    values[error_energy == 0.0] = SEGSNR_CEIL_DB
    return float(np.mean(values))


def segmental_snr_gain(
    enhanced: np.ndarray, degraded: np.ndarray, clean: np.ndarray, sample_rate: int
) -> float:
    """Segmental SNR of enhanced-vs-clean minus that of degraded-vs-clean."""
    return segmental_snr(enhanced, clean, sample_rate) - segmental_snr(degraded, clean, sample_rate)

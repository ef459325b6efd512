"""Triangular mel filterbank and log-mel feature computation."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .stft import DEFAULT_MAGNITUDE_FLOOR, Spectrogram
from .validation import as_complex_matrix, check_choice, check_count, check_positive


MEL_MODES = ("power", "magnitude")  # what the filterbank weights: |X|^2 or |X|


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelConfig:
    """The references' front end: filterbank shape, mel mode, and the floor of
    every natural log it takes (log-magnitude inputs and log-mel features)."""

    n_mels: int = 40
    f_min: float = 0.0
    f_max: float = 8000.0
    sample_rate: int = 16000
    fft_size: int = 512
    mode: str = "power"  # weight |X|^2; "magnitude" weights |X| instead
    magnitude_floor: float = DEFAULT_MAGNITUDE_FLOOR

    def __post_init__(self):
        check_count(self.n_mels, "n_mels", minimum=1)
        check_positive(self.sample_rate, "sample_rate")
        check_count(self.fft_size, "fft_size", minimum=1)
        if not 0.0 <= self.f_min < self.f_max <= self.sample_rate / 2:
            raise ConfigError(
                f"need 0 <= f_min < f_max <= sample_rate/2, got "
                f"f_min={self.f_min}, f_max={self.f_max}, sample_rate={self.sample_rate}"
            )
        check_choice(self.mode, MEL_MODES, "mode")
        check_positive(self.magnitude_floor, "magnitude_floor")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


def mel_filter_centers_hz(config: MelConfig) -> np.ndarray:
    """Filter edge/center frequencies: n_mels + 2 points equally spaced in mel."""
    mel_points = np.linspace(hz_to_mel(config.f_min), hz_to_mel(config.f_max), config.n_mels + 2)
    return mel_to_hz(mel_points)


def mel_matrix(config: MelConfig = MelConfig()) -> np.ndarray:
    """Area-unnormalized triangular filters evaluated at the FFT bin frequencies."""
    edges = mel_filter_centers_hz(config)
    bin_freqs = np.arange(config.n_bins) * config.sample_rate / config.fft_size
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs[None, :] - left) / np.maximum(center - left, 1e-12)
    falling = (right - bin_freqs[None, :]) / np.maximum(right - center, 1e-12)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.nonzero(~(weights > 0).any(axis=1))[0]
    if empty.size:
        raise ConfigError(
            f"{empty.size} mel filter(s) cover no FFT bin (first: filter {empty[0]}); "
            "reduce n_mels or increase fft_size"
        )
    return weights


def log_mel(
    spectrogram,
    filterbank: np.ndarray,
    floor: float = DEFAULT_MAGNITUDE_FLOOR,
    mode: str = "power",
) -> np.ndarray:
    """Natural-log filterbank energies, (n_frames x n_mels)."""
    check_positive(floor, "floor")
    check_choice(mode, MEL_MODES, "mode")
    data = spectrogram.data if isinstance(spectrogram, Spectrogram) else as_complex_matrix(spectrogram)
    if filterbank.shape[1] != data.shape[1]:
        raise ShapeError(
            f"filterbank expects {filterbank.shape[1]} bins, spectrogram has {data.shape[1]}"
        )
    magnitude = np.abs(data)
    energy = magnitude ** 2 if mode == "power" else magnitude
    return np.log(np.maximum(energy @ filterbank.T, floor))

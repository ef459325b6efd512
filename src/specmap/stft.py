"""Short-time Fourier analysis, synthesis and log-magnitude extraction."""

from dataclasses import dataclass, field

import numpy as np

from .audio import Waveform
from .errors import ConfigError, ShapeError
from .validation import as_complex_matrix, check_count, check_positive

WINDOW_NAMES = ("hann", "hamming", "rectangular")

DEFAULT_MAGNITUDE_FLOOR = 1e-10


def window_coefficients(name: str, length: int) -> np.ndarray:
    """Periodic analysis window; periodic forms keep 50%-overlap synthesis exact."""
    n = np.arange(length)
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    if name == "rectangular":
        return np.ones(length)
    raise ConfigError(f"window must be one of {WINDOW_NAMES}, got {name!r}")


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512
    window: str = "hann"

    def __post_init__(self):
        for name in ("frame_len", "hop", "fft_size"):
            check_count(getattr(self, name), name, minimum=1)
        if not 0 < self.hop <= self.frame_len <= self.fft_size:
            raise ConfigError(
                f"need 0 < hop <= frame_len <= fft_size, got "
                f"hop={self.hop}, frame_len={self.frame_len}, fft_size={self.fft_size}"
            )
        if self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.window not in WINDOW_NAMES:
            raise ConfigError(f"window must be one of {WINDOW_NAMES}, got {self.window!r}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window_values(self) -> np.ndarray:
        return window_coefficients(self.window, self.frame_len)


@dataclass
class Spectrogram:
    """Complex half-spectrum frames (n_frames x n_bins) plus the analysis setup."""

    data: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)
    sample_rate: int = 16000

    def __post_init__(self):
        arr = as_complex_matrix(self.data, "spectrogram")
        if arr.shape[1] != self.config.n_bins:
            raise ShapeError(
                f"spectrogram has {arr.shape[1]} bins but config implies {self.config.n_bins}"
            )
        self.data = arr

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def stft(waveform: Waveform, config: StftConfig = StftConfig()) -> Spectrogram:
    """Analyze with T = 1 + floor((len - frame_len) / hop) full frames.

    Signals shorter than one frame yield an empty (0 x n_bins) spectrogram;
    trailing samples that do not fill a frame are dropped.
    """
    x = waveform.samples
    if len(x) < config.frame_len:
        data = np.zeros((0, config.n_bins), dtype=np.complex128)
        return Spectrogram(data, config, waveform.sample_rate)
    frames = np.lib.stride_tricks.sliding_window_view(x, config.frame_len)[:: config.hop]
    data = np.fft.rfft(frames * config.window_values(), n=config.fft_size, axis=1)
    return Spectrogram(data.astype(np.complex128, copy=False), config, waveform.sample_rate)


def _overlap_coverage(window: np.ndarray, hop: int) -> np.ndarray:
    """Steady-state sum of squared window values per hop residue."""
    coverage = np.zeros(hop)
    for start in range(0, len(window), hop):
        chunk = window[start:start + hop] ** 2
        coverage[: len(chunk)] += chunk
    return coverage


def check_overlap_add(config: StftConfig) -> None:
    """Reject window/hop pairs whose squared-window overlap has gaps."""
    window = config.window_values()
    coverage = _overlap_coverage(window, config.hop)
    if coverage.min() <= 1e-12 * max(1.0, coverage.max()):
        raise ConfigError(
            f"window {config.window!r} with hop {config.hop} does not satisfy "
            "constant overlap-add; synthesis would divide by zero"
        )


def istft(spectrogram: Spectrogram) -> Waveform:
    """Overlap-add synthesis with squared-window normalization.

    Reconstructs istft(stft(x)) exactly on every sample with nonzero window
    coverage; samples never covered (possible at the outermost edges for
    zero-endpoint windows) come out as 0.
    """
    config = spectrogram.config
    check_overlap_add(config)
    n_frames = spectrogram.n_frames
    if n_frames == 0:
        return Waveform(np.zeros(0), spectrogram.sample_rate)

    window = config.window_values()
    hop, frame_len = config.hop, config.frame_len
    out_len = (n_frames - 1) * hop + frame_len
    n_chunks = -(-frame_len // hop)
    # Hop-sized blocks of the output: chunk j of frame t lands in block t + j.
    numerator = np.zeros((n_frames - 1 + n_chunks, hop))
    denominator = np.zeros_like(numerator)
    weighted = np.fft.irfft(spectrogram.data, n=config.fft_size, axis=1)[:, :frame_len]
    weighted *= window
    squared = window ** 2
    # Last chunk first, so that every sample sums its frames in increasing t.
    for j in reversed(range(n_chunks)):
        lo = j * hop
        width = min(hop, frame_len - lo)
        numerator[j:j + n_frames, :width] += weighted[:, lo:lo + width]
        denominator[j:j + n_frames, :width] += squared[lo:lo + width]
    numerator = numerator.reshape(-1)[:out_len]
    denominator = denominator.reshape(-1)[:out_len]
    # Clamping the normalizer bounds the gain on the outermost samples, where
    # coverage tapers to zero and inconsistent (modified) frames would blow up.
    floor = 1e-2 * denominator.max()
    samples = numerator / np.maximum(denominator, max(floor, 1e-300))
    return Waveform(samples, spectrogram.sample_rate)


def log_magnitude(spectrogram, floor: float = DEFAULT_MAGNITUDE_FLOOR) -> np.ndarray:
    """Natural-log magnitude with a positive floor so silence stays finite."""
    check_positive(floor, "floor")
    data = spectrogram.data if isinstance(spectrogram, Spectrogram) else as_complex_matrix(spectrogram)
    return np.log(np.maximum(np.abs(data), floor))

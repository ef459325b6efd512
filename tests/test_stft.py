import numpy as np
import pytest

from specmap.audio import Waveform
from specmap.errors import ConfigError
from specmap.stft import Spectrogram, StftConfig, istft, log_magnitude, stft, window_coefficients


def test_dc_rectangular_frames():
    config = StftConfig(frame_len=4, hop=4, fft_size=4, window="rectangular")
    wave = Waveform(np.ones(12), 16000)
    spec = stft(wave, config)
    assert spec.data.shape == (3, 3)
    assert np.allclose(spec.data, np.array([[4, 0, 0]] * 3))


def direct_dft(frame, fft_size):
    n = np.arange(fft_size)
    padded = np.zeros(fft_size)
    padded[: len(frame)] = frame
    bins = fft_size // 2 + 1
    out = np.empty(bins, dtype=complex)
    for k in range(bins):
        out[k] = np.sum(padded * np.exp(-2j * np.pi * k * n / fft_size))
    return out


def test_sinusoid_matches_direct_dft_oracle():
    config = StftConfig(frame_len=64, hop=32, fft_size=64, window="hann")
    k0 = 8
    t = np.arange(256)
    wave = Waveform(np.cos(2 * np.pi * k0 * t / 64), 16000)
    spec = stft(wave, config)
    window = window_coefficients("hann", 64)
    for frame_index in range(spec.n_frames):
        segment = wave.samples[frame_index * 32: frame_index * 32 + 64] * window
        oracle = direct_dft(segment, 64)
        num = np.linalg.norm(spec.data[frame_index] - oracle)
        assert num / np.linalg.norm(oracle) < 1e-10
    magnitudes = np.abs(spec.data[1])
    assert magnitudes.argmax() == k0


def test_frame_count_formula():
    config = StftConfig(frame_len=400, hop=160, fft_size=512)
    for n in (399, 400, 401, 560, 561, 4000):
        spec = stft(Waveform(np.random.default_rng(n).normal(size=n), 16000), config)
        expected = 0 if n < 400 else 1 + (n - 400) // 160
        assert spec.n_frames == expected


def test_short_signal_zero_frames():
    spec = stft(Waveform(np.ones(399), 16000), StftConfig())
    assert spec.n_frames == 0
    assert istft(spec).samples.shape == (0,)


@pytest.mark.parametrize(
    "window,frame_len,hop",
    [("hann", 400, 200), ("hann", 400, 160), ("hann", 400, 100),
     ("hamming", 400, 200), ("hamming", 256, 64), ("rectangular", 256, 256)],
)
def test_roundtrip_interior(window, frame_len, hop):
    config = StftConfig(frame_len=frame_len, hop=hop, fft_size=512, window=window)
    rng = np.random.default_rng(hash((window, frame_len, hop)) % 2**32)
    wave = Waveform(rng.normal(size=6400), 16000)
    rec = istft(stft(wave, config))
    lo, hi = frame_len, len(rec) - frame_len
    err = np.linalg.norm(rec.samples[lo:hi] - wave.samples[lo:hi])
    assert err / np.linalg.norm(wave.samples[lo:hi]) <= 1e-6


def istft_loop_reference(spectrogram):
    """The per-frame overlap-add loop istft replaced."""
    config = spectrogram.config
    window = config.window_values()
    out_len = (spectrogram.n_frames - 1) * config.hop + config.frame_len
    numerator = np.zeros(out_len)
    denominator = np.zeros(out_len)
    segments = np.fft.irfft(spectrogram.data, n=config.fft_size, axis=1)[:, : config.frame_len]
    for t in range(spectrogram.n_frames):
        start = t * config.hop
        numerator[start:start + config.frame_len] += segments[t] * window
        denominator[start:start + config.frame_len] += window ** 2
    floor = 1e-2 * denominator.max()
    return numerator / np.maximum(denominator, max(floor, 1e-300))


@pytest.mark.parametrize(
    "window,frame_len,hop",
    [("hann", 400, 160), ("hann", 400, 100), ("hann", 400, 200), ("hann", 256, 96),
     ("hamming", 400, 160), ("hamming", 256, 64), ("hamming", 300, 300),
     ("rectangular", 256, 256), ("rectangular", 256, 100)],
)
def test_istft_matches_loop_reference_bitwise(window, frame_len, hop):
    config = StftConfig(frame_len=frame_len, hop=hop, fft_size=512, window=window)
    rng = np.random.default_rng(frame_len * 1000 + hop)
    for n_samples in (frame_len, frame_len + 3 * hop + 7, 6400):
        spec = stft(Waveform(rng.normal(size=n_samples), 16000), config)
        # A modified spectrogram, as enhancement produces, is not consistent.
        modified = Spectrogram(spec.data * rng.uniform(0.2, 1.5, spec.data.shape), config, 16000)
        for s in (spec, modified):
            assert np.array_equal(istft(s).samples, istft_loop_reference(s))


def test_all_zero_spectrogram_synthesizes_silence():
    config = StftConfig()
    spec = Spectrogram(np.zeros((5, config.n_bins), dtype=complex), config, 16000)
    wave = istft(spec)
    assert np.all(wave.samples == 0)
    assert len(wave) == 4 * config.hop + config.frame_len


def test_single_frame_rectangular_exact_inverse():
    config = StftConfig(frame_len=8, hop=8, fft_size=8, window="rectangular")
    rng = np.random.default_rng(3)
    wave = Waveform(rng.normal(size=8), 16000)
    rec = istft(stft(wave, config))
    assert np.allclose(rec.samples, wave.samples, atol=1e-12)


def test_non_cola_pair_raises():
    config = StftConfig(frame_len=400, hop=400, fft_size=512, window="hann")
    spec = Spectrogram(np.zeros((3, config.n_bins), dtype=complex), config, 16000)
    with pytest.raises(ConfigError):
        istft(spec)


def test_parseval_rectangular():
    config = StftConfig(frame_len=256, hop=256, fft_size=256, window="rectangular")
    rng = np.random.default_rng(9)
    wave = Waveform(rng.normal(size=1024), 16000)
    spec = stft(wave, config)
    for t in range(spec.n_frames):
        segment = wave.samples[t * 256:(t + 1) * 256]
        half = np.abs(spec.data[t]) ** 2
        full_energy = half[0] + 2 * np.sum(half[1:-1]) + half[-1]
        ratio = np.sum(segment ** 2) / (full_energy / 256)
        assert abs(ratio - 1) < 1e-9


def test_invalid_configs():
    with pytest.raises(ConfigError):
        StftConfig(frame_len=400, hop=401, fft_size=512)
    with pytest.raises(ConfigError):
        StftConfig(frame_len=400, hop=160, fft_size=500)
    with pytest.raises(ConfigError):
        StftConfig(frame_len=600, hop=160, fft_size=512)
    with pytest.raises(ConfigError):
        StftConfig(window="blackman")


def test_log_magnitude_values():
    config = StftConfig(frame_len=4, hop=4, fft_size=4, window="rectangular")
    data = np.array([[np.e, 0.0, 1.0]], dtype=complex)
    spec = Spectrogram(data, config, 16000)
    out = log_magnitude(spec, floor=1e-10)
    assert abs(out[0, 0] - 1.0) < 1e-12
    assert abs(out[0, 1] - np.log(1e-10)) < 1e-9
    assert out[0, 2] == 0.0


def test_log_magnitude_matches_elementwise_oracle():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(6, 257)) + 1j * rng.normal(size=(6, 257))
    config = StftConfig()
    out = log_magnitude(Spectrogram(data, config, 16000), floor=1e-10)
    for t in range(6):
        for b in range(0, 257, 37):
            expected = np.log(max(abs(data[t, b]), 1e-10))
            assert out[t, b] == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_determinism():
    wave = Waveform(np.random.default_rng(5).normal(size=2000), 16000)
    a = stft(wave, StftConfig()).data
    b = stft(wave, StftConfig()).data
    assert np.array_equal(a, b)

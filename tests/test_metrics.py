import numpy as np
import pytest

from specmap.errors import ShapeError
from specmap.metrics import log_spectral_distortion, mel_mse, segmental_snr, segmental_snr_gain


def test_mel_mse_basics():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 40))
    assert mel_mse(a, a) == 0.0
    assert mel_mse(a + 0.3, a) == pytest.approx(0.09)
    b = rng.normal(size=(9, 40))
    assert mel_mse(a, b) == mel_mse(b, a)
    with pytest.raises(ShapeError):
        mel_mse(a, b[:5])


def test_mel_mse_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 7))
    b = rng.normal(size=(6, 7))
    total = 0.0
    for t in range(6):
        for m in range(7):
            total += (a[t, m] - b[t, m]) ** 2
    oracle = total / 42.0
    assert abs(mel_mse(a, b) - oracle) <= 1e-12 * max(1.0, oracle)


def test_lsd_basics():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 13))
    assert log_spectral_distortion(a, a) == 0.0
    shifted = a + np.log(10.0) / 20.0
    assert log_spectral_distortion(shifted, a) == pytest.approx(1.0)
    b = rng.normal(size=(5, 13))
    assert log_spectral_distortion(a, b) == log_spectral_distortion(b, a)


def test_lsd_matches_direct_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(4, 6))
    scale = 20.0 / np.log(10.0)
    frames = []
    for t in range(4):
        acc = 0.0
        for k in range(6):
            acc += (scale * (a[t, k] - b[t, k])) ** 2
        frames.append(np.sqrt(acc / 6.0))
    oracle = sum(frames) / 4.0
    assert abs(log_spectral_distortion(a, b) - oracle) < 1e-10


def test_segsnr_identical_hits_ceiling():
    rng = np.random.default_rng(4)
    clean = rng.normal(size=3200)
    assert segmental_snr(clean, clean, 16000) == 35.0


def test_segsnr_gain_zero_for_no_processing():
    rng = np.random.default_rng(5)
    clean = rng.normal(size=3200)
    degraded = clean + 0.3 * rng.normal(size=3200)
    assert segmental_snr_gain(degraded, degraded, clean, 16000) == 0.0


def test_segsnr_gain_for_perfect_enhancement():
    rng = np.random.default_rng(6)
    clean = rng.normal(size=3200)
    degraded = clean + 0.5 * rng.normal(size=3200)
    gain = segmental_snr_gain(clean, degraded, clean, 16000)
    assert gain == pytest.approx(35.0 - segmental_snr(degraded, clean, 16000))


def test_segsnr_hand_built_two_segments():
    sample_rate = 1000  # 10 ms segments -> 10 samples each
    clean = np.concatenate([np.full(10, 2.0), np.full(10, 1.0)])
    estimate = clean.copy()
    estimate[:10] += 1.0   # first segment: snr = 10*log10(40/10) = 6.0206 dB
    estimate[10:] += 0.01  # second segment: 10*log10(10/0.001) = 40 -> clamped 35
    expected = (10.0 * np.log10(4.0) + 35.0) / 2.0
    assert segmental_snr(estimate, clean, sample_rate) == pytest.approx(expected)


def test_segsnr_clamps_floor():
    sample_rate = 1000
    clean = np.concatenate([np.zeros(10), np.full(10, 1.0)])
    estimate = clean + 5.0
    # first segment: zero reference energy, nonzero error -> floor
    value = segmental_snr(estimate, clean, sample_rate)
    first = -10.0
    second = min(max(10.0 * np.log10(10.0 / (25.0 * 10.0)), -10.0), 35.0)
    assert value == pytest.approx((first + second) / 2.0)


def segsnr_loop_reference(estimate, reference, sample_rate, segment_ms=10.0,
                          floor_db=-10.0, ceil_db=35.0):
    """The per-segment loop segmental_snr replaced."""
    est, ref = np.asarray(estimate, dtype=float), np.asarray(reference, dtype=float)
    seg_len = int(round(sample_rate * segment_ms / 1000.0))
    n_segments = len(ref) // seg_len
    values = np.empty(n_segments)
    for i in range(n_segments):
        sl = slice(i * seg_len, (i + 1) * seg_len)
        signal_energy = float(np.sum(ref[sl] ** 2))
        error_energy = float(np.sum((ref[sl] - est[sl]) ** 2))
        if error_energy == 0.0:
            values[i] = ceil_db
        elif signal_energy == 0.0:
            values[i] = floor_db
        else:
            values[i] = min(max(10.0 * np.log10(signal_energy / error_energy), floor_db), ceil_db)
    return float(np.mean(values))


def test_segsnr_matches_loop_reference_bitwise():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(160, 4000))  # mostly with a trailing partial segment
        clean = rng.normal(size=n) * rng.choice([1e-3, 1.0, 300.0])
        estimate = clean + rng.choice([1e-6, 0.1, 3.0]) * rng.normal(size=n)
        segments = n // 160
        for i in rng.choice(segments, size=min(3, segments), replace=False):
            clean[i * 160:(i + 1) * 160] = 0.0      # zero signal, nonzero error
        for i in rng.choice(segments, size=min(3, segments), replace=False):
            estimate[i * 160:(i + 1) * 160] = clean[i * 160:(i + 1) * 160]  # zero error
        if segments > 1:
            clean[:160] = estimate[:160] = 0.0      # zero signal and zero error
        assert segmental_snr(estimate, clean, 16000) == segsnr_loop_reference(estimate, clean, 16000)


def test_segsnr_errors():
    with pytest.raises(ShapeError):
        segmental_snr(np.zeros(100), np.zeros(99), 16000)
    with pytest.raises(ShapeError):
        segmental_snr(np.zeros(10), np.zeros(10), 16000)  # shorter than one segment

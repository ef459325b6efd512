import struct

import numpy as np
import pytest

from specmap.audio import Waveform, load_wav, save_wav
from specmap.errors import ConfigError, FormatError, NumericError, UnsupportedFormatError


def write_pcm16(path, samples_int16, sample_rate=16000, channels=1, declared_extra=0):
    payload = np.asarray(samples_int16, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                    sample_rate * 2 * channels, 2 * channels, 16)
    header += b"data" + struct.pack("<I", len(payload) + declared_extra)
    path.write_bytes(header + payload)


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm16(path, [0, 16384, -16384])
    wave = load_wav(path)
    assert wave.sample_rate == 16000
    assert np.allclose(wave.samples, [0.0, 0.5, -0.5], atol=1 / 32768)


def test_empty_data_chunk(tmp_path):
    path = tmp_path / "empty.wav"
    write_pcm16(path, [])
    wave = load_wav(path)
    assert len(wave) == 0


def test_truncated_data_is_format_error(tmp_path):
    path = tmp_path / "trunc.wav"
    write_pcm16(path, [1, 2, 3], declared_extra=10)
    with pytest.raises(FormatError):
        load_wav(path)


def test_zero_sample_rate_is_format_error(tmp_path):
    path = tmp_path / "rate0.wav"
    save_wav(Waveform(np.zeros(8), 16000), path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<I", blob[24:28]) == (16000,)  # the fmt chunk's sample rate
    blob[24:28] = bytes(4)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="sample rate 0"):
        load_wav(path)


def test_not_riff(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"OggS" + b"\x00" * 50)
    with pytest.raises(FormatError):
        load_wav(path)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "u8.wav"
    payload = bytes([128, 200, 50])
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)
    with pytest.raises(UnsupportedFormatError):
        load_wav(path)


def test_sine_roundtrip_within_quantization(tmp_path):
    t = np.arange(16000) / 16000
    wave = Waveform(0.9 * np.sin(2 * np.pi * 440 * t), 16000)
    path = tmp_path / "sine.wav"
    save_wav(wave, path)
    back = load_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - wave.samples)) <= 1 / 32768


def test_zero_length_roundtrip(tmp_path):
    path = tmp_path / "zero.wav"
    save_wav(Waveform(np.zeros(0), 8000), path)
    back = load_wav(path)
    assert len(back) == 0 and back.sample_rate == 8000


def test_out_of_range_sample_clips(tmp_path):
    path = tmp_path / "clip.wav"
    save_wav(Waveform(np.array([1.5, -2.0, 0.25]), 16000), path)
    back = load_wav(path)
    assert abs(back.samples[0] - 1.0) <= 1 / 32768
    assert abs(back.samples[1] + 1.0) <= 1 / 32768
    assert abs(back.samples[2] - 0.25) <= 1 / 32768


def test_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    wave = Waveform(rng.uniform(-1, 1, 500), 16000)
    path = tmp_path / "f32.wav"
    save_wav(wave, path, encoding="float32")
    back = load_wav(path)
    assert np.allclose(back.samples, wave.samples, atol=1e-7)


def test_multichannel_channel_select(tmp_path):
    path = tmp_path / "stereo.wav"
    interleaved = [100, -100, 200, -200, 300, -300]
    write_pcm16(path, interleaved, channels=2)
    left = load_wav(path, channel=0)
    right = load_wav(path, channel=1)
    assert np.allclose(left.samples * 32768, [100, 200, 300])
    assert np.allclose(right.samples * 32768, [-100, -200, -300])
    with pytest.raises(ConfigError):
        load_wav(path, channel=2)


def test_unwritable_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        save_wav(Waveform(np.zeros(4), 16000), tmp_path / "missing_dir" / "x.wav")


def test_waveform_validation():
    with pytest.raises(NumericError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ConfigError):
        Waveform(np.zeros(4), 0)
    with pytest.raises(ConfigError):
        Waveform(np.zeros(4), 1.5)

"""Mono waveform container and WAV file I/O.

Only the encodings that occur in our corpora are supported: 16-bit PCM and
32-bit IEEE float RIFF/WAVE. Samples are held as float64 in [-1, 1].
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError, UnsupportedFormatError
from .validation import check_finite


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if arr.ndim != 1:
            raise ShapeError(f"waveform samples must be 1-D, got shape {arr.shape}")
        check_finite(arr, "waveform samples")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]


_PCM16_SCALE = 32768.0


def load_wav(path, channel: int = 0) -> Waveform:
    """Read a RIFF/WAVE file and return one channel scaled to [-1, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data_span = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        pos += 8
        if chunk_id == b"fmt ":
            if size < 16 or pos + 16 > len(blob):
                raise FormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", blob[pos:pos + 16])
        elif chunk_id == b"data":
            data_span = (pos, size)
        pos += size + (size & 1)

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data_span is None:
        raise FormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise FormatError(f"{path}: invalid channel count {channels}")
    if sample_rate < 1:
        raise FormatError(f"{path}: invalid sample rate {sample_rate}")
    if (audio_format, bits) == (1, 16):
        dtype, scale = "<i2", 1.0 / _PCM16_SCALE
    elif (audio_format, bits) == (3, 32):
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "expected 16-bit PCM or 32-bit IEEE float"
        )

    start, size = data_span
    if start + size > len(blob):
        raise FormatError(f"{path}: declared data length exceeds actual file size")
    frame_bytes = channels * bits // 8
    if size % frame_bytes:
        raise FormatError(f"{path}: data size {size} is not a multiple of the frame size")
    n_frames = size // frame_bytes
    raw = np.frombuffer(blob[start:start + size], dtype=dtype)
    frames = raw.reshape(n_frames, channels)
    if not 0 <= channel < channels:
        raise ConfigError(f"channel {channel} out of range for {channels}-channel file")
    samples = frames[:, channel].astype(np.float64) * scale
    return Waveform(samples, int(sample_rate))


def save_wav(waveform: Waveform, path, encoding: str = "pcm16") -> None:
    """Write a mono WAV file; pcm16 clips to [-1, 1] before quantization."""
    if encoding == "pcm16":
        clipped = np.clip(waveform.samples, -1.0, 1.0)
        quantized = np.clip(np.round(clipped * _PCM16_SCALE), -32768, 32767)
        payload = quantized.astype("<i2").tobytes()
        format_tag, bits = 1, 16
    elif encoding == "float32":
        payload = waveform.samples.astype("<f4").tobytes()
        format_tag, bits = 3, 32
    else:
        raise ConfigError(f"encoding must be 'pcm16' or 'float32', got {encoding!r}")

    block_align = bits // 8
    byte_rate = waveform.sample_rate * block_align
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, format_tag, 1, waveform.sample_rate, byte_rate, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)

"""Binary containers for feature matrices and model checkpoints.

Feature file ("SFMF"):
    magic "SFMF" | u32 version | u32 rows | u32 cols |
    rows*cols little-endian float32, row-major.

Checkpoint ("SFMD"):
    magic "SFMD" | u32 version | u32 n_layers |
    n_layers x (u32 rows, u32 cols) |
    per layer: rows*cols float32 weights then cols float32 biases |
    u32 json_len | canonical JSON (activations, seed, normalization, config).

Both are little-endian throughout; writing what read() returned reproduces
the file byte for byte.
"""

import json
import struct

import numpy as np

from .errors import FormatError, NumericError
from .features import NormalizationSpec
from .mlp import MlpModel
from .validation import as_float32

FEATURE_MAGIC = b"SFMF"
FEATURE_VERSION = 1
CHECKPOINT_MAGIC = b"SFMD"
CHECKPOINT_VERSION = 1


def write_features(path, matrix: np.ndarray) -> None:
    """Write a finite matrix in float32, narrowed by as_float32.

    A value that is not finite, or beyond float32's range, is a
    NumericError raised before the file is opened, so nothing is written.
    """
    payload = as_float32(matrix, f"{path}: feature matrix", 2)
    rows, cols = payload.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, rows, cols))
        fh.write(payload.astype("<f4", copy=False).tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature file")
    version, rows, cols = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature-file version {version}")
    expected = 16 + 4 * rows * cols
    if len(blob) != expected:
        raise FormatError(f"{path}: payload size disagrees with the header")
    flat = np.frombuffer(blob[16:expected], dtype="<f4")
    return flat.astype(np.float64).reshape(rows, cols)


def _canonical_json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(path, model: MlpModel, config: dict | None = None) -> None:
    meta = {
        "hidden_activation": "sigmoid",  # the only hidden unit the mapper has
        "output_activation": model.output_activation,
        "seed": model.seed,
        "norm_spec": None if model.norm_spec is None else model.norm_spec.to_dict(),
        "config": config or {},
    }
    blob = _canonical_json(meta)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.weights)))
        for w in model.weights:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_model(path) -> tuple[MlpModel, dict]:
    """The checkpoint's model, with the float32 parameters it stores, and its config.

    A malformed file, one of no layers included, or a non-finite weight,
    bias or normalization statistic (which NormalizationSpec refuses), any
    of which would fail every utterance, is a FormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a model checkpoint")
    version, n_layers = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    shapes = []
    for _ in range(n_layers):
        if pos + 8 > len(blob):
            raise FormatError(f"{path}: truncated layer header")
        shapes.append(struct.unpack("<II", blob[pos:pos + 8]))
        pos += 8
    weights, biases = [], []
    for rows, cols in shapes:
        w_bytes, b_bytes = 4 * rows * cols, 4 * cols
        if pos + w_bytes + b_bytes > len(blob):
            raise FormatError(f"{path}: truncated parameter payload")
        weights.append(np.frombuffer(blob, "<f4", rows * cols, pos).reshape(rows, cols).copy())
        pos += w_bytes
        biases.append(np.frombuffer(blob, "<f4", cols, pos).copy())
        pos += b_bytes
    if pos + 4 > len(blob):
        raise FormatError(f"{path}: missing metadata block")
    (json_len,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4
    if pos + json_len > len(blob):
        raise FormatError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(blob[pos:pos + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable metadata ({exc})") from exc

    try:
        if meta["hidden_activation"] != "sigmoid":
            raise ValueError("only sigmoid hidden units are supported")
        norm = meta.get("norm_spec")
        model = MlpModel(
            weights=weights,
            biases=biases,
            output_activation=meta["output_activation"],
            norm_spec=None if norm is None else NormalizationSpec.from_dict(norm),
            seed=int(meta["seed"]),
        )
        config = meta.get("config", {})
        if not isinstance(config, dict):
            raise TypeError(f"config is a {type(config).__name__}, not an object")
    except NumericError as exc:  # a weight or bias that is not finite
        raise FormatError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed metadata ({exc!r})") from exc
    return model, config

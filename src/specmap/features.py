"""Context-window assembly and input/reference normalization."""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .validation import (all_finite, as_float32, as_float_matrix, check_choice,
                         check_nonnegative, check_positive)

INPUT_MODES = ("global_mvn", "utterance_mvn")
REFERENCE_MODES = ("global_minmax_01", "utterance_mvn")


def assemble_context(features: np.ndarray, context: int) -> np.ndarray:
    """Concatenate each frame with its +/- context neighbors, replicating edges.

    Row t of the result is [f(t-context), ..., f(t), ..., f(t+context)]
    flattened, so the output is (T x (2*context+1)*dim).

    The result is a read-only float64 view into one edge-padded
    (T + 2*context, dim) copy of the features: consecutive frames of the
    padded copy are adjacent in memory, so each row is a window of it and
    no frame is stored 2*context+1 times. Writing into the result raises
    ValueError; copy it first to modify it. The copy is private, so later
    changes to `features` do not show through.
    """
    check_nonnegative(context, "context")
    feats = as_float_matrix(features, "features")
    n_frames, dim = feats.shape
    width = 2 * context + 1
    if n_frames == 0:
        return np.zeros((0, width * dim))
    padded = np.empty((n_frames + 2 * context, dim))
    padded[:context] = feats[0]
    padded[context:context + n_frames] = feats
    padded[context + n_frames:] = feats[-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (width, dim))
    return windows.reshape(n_frames, width * dim)


@dataclass
class NormalizationSpec:
    """How network inputs and training references are scaled.

    Global statistics are present only for the global modes; the utterance
    modes recompute statistics from each utterance at use time.
    """

    input_mode: str = "global_mvn"
    reference_mode: str = "global_minmax_01"
    epsilon: float = 1e-8
    input_mean: Optional[np.ndarray] = None
    input_var: Optional[np.ndarray] = None
    ref_min: Optional[np.ndarray] = None
    ref_max: Optional[np.ndarray] = None

    def __post_init__(self):
        check_choice(self.input_mode, INPUT_MODES, "input_mode")
        check_choice(self.reference_mode, REFERENCE_MODES, "reference_mode")
        check_positive(self.epsilon, "epsilon")
        for name in ("input_mean", "input_var", "ref_min", "ref_max"):
            value = getattr(self, name)
            if value is not None and not all_finite(value):
                raise ConfigError(f"non-finite values in {name}")
        if self.input_var is not None and np.any(np.asarray(self.input_var) <= 0):
            raise ConfigError("input_var entries must be positive (clamped at fit time)")
        if self.ref_min is not None and self.ref_max is not None:
            if np.any(np.asarray(self.ref_max) < np.asarray(self.ref_min)):
                raise ConfigError("ref_max must be >= ref_min per dimension")

    def to_dict(self) -> dict:
        def listify(a):
            return None if a is None else np.asarray(a, dtype=np.float64).tolist()

        return {
            "input_mode": self.input_mode,
            "reference_mode": self.reference_mode,
            "epsilon": self.epsilon,
            "input_mean": listify(self.input_mean),
            "input_var": listify(self.input_var),
            "ref_min": listify(self.ref_min),
            "ref_max": listify(self.ref_max),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NormalizationSpec":
        def arrify(v):
            return None if v is None else np.asarray(v, dtype=np.float64)

        return cls(
            input_mode=payload["input_mode"],
            reference_mode=payload["reference_mode"],
            epsilon=float(payload["epsilon"]),
            input_mean=arrify(payload.get("input_mean")),
            input_var=arrify(payload.get("input_var")),
            ref_min=arrify(payload.get("ref_min")),
            ref_max=arrify(payload.get("ref_max")),
        )


def utterance_stats(x: np.ndarray, epsilon: float, finite: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and epsilon-clamped variance; finite=False leaves x unscanned."""
    feats = as_float_matrix(x, "features", finite)
    mean = feats.mean(axis=0)
    var = np.maximum(feats.var(axis=0), epsilon)
    return mean, var


def apply_mvn(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """(x - mean) / sqrt(var) as a new array; x is not modified."""
    out = x - mean
    out /= np.sqrt(var)
    return out


def invert_mvn(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    return x * np.sqrt(var) + mean


def _checked_utterances(utterances: Sequence[np.ndarray], name: str) -> list[np.ndarray]:
    """Each utterance as a finite float64 matrix (a view when it is one); one width for all."""
    checked = [as_float_matrix(m, name) for m in utterances]
    if len({m.shape[1] for m in checked}) > 1:
        raise ShapeError(f"{name} utterances must share one dimension")
    if not any(len(m) for m in checked):
        raise ConfigError(f"fit_normalizer needs at least one frame of {name}")
    return checked


def _pooled_reduce(ufunc: np.ufunc, utterances: list[np.ndarray], center=None) -> np.ndarray:
    """ufunc.reduce(np.vstack(utterances), axis=0), one utterance at a time.

    With center, the rows reduced are the squared deviations
    (m - center)**2, as np.var takes them. numpy reduces a C-contiguous
    matrix of two or more columns over axis 0 one row after another, so
    folding each utterance into the running result as the first row of
    [result; rows] gives the pooled bits. One column it reduces pairwise
    instead, so a single column is pooled; it holds one float per frame.
    """
    if utterances[0].shape[1] == 1:
        utterances = [np.vstack(utterances)]
    buffer = np.empty((1 + max(len(m) for m in utterances), utterances[0].shape[1]))
    result = None
    for m in utterances:
        if not len(m):
            continue
        rows = buffer[1:1 + len(m)]
        if center is None:
            rows[...] = m
        else:
            np.subtract(m, center, out=rows)
            np.square(rows, out=rows)
        if result is None:
            result = ufunc.reduce(rows, axis=0)
        else:
            buffer[0] = result
            ufunc.reduce(buffer[:1 + len(m)], axis=0, out=result)
    return result


def fit_normalizer(
    inputs: Sequence[np.ndarray],
    references: Sequence[np.ndarray],
    input_mode: str = "global_mvn",
    reference_mode: str = "global_minmax_01",
) -> NormalizationSpec:
    """Compute normalization statistics over the pooled training utterances.

    The statistics are computed one utterance at a time, with no pooled
    copy of the utterances and no matrix of deviations, and equal np.mean,
    np.var, np.min and np.max of the pooled frames bit for bit (see
    _pooled_reduce). The global_mvn variance is clamped at epsilon.
    """
    check_choice(input_mode, INPUT_MODES, "input_mode")
    check_choice(reference_mode, REFERENCE_MODES, "reference_mode")
    if not inputs or not references:
        raise ConfigError("fit_normalizer needs a nonempty training set")

    epsilon = NormalizationSpec.epsilon
    stats = {}
    if input_mode == "global_mvn":
        feats = _checked_utterances(inputs, "inputs")
        n_frames = sum(len(m) for m in feats)
        mean = _pooled_reduce(np.add, feats) / n_frames
        var = _pooled_reduce(np.add, feats, center=mean) / n_frames
        flat = int(np.sum(var < epsilon))
        if flat:
            warnings.warn(f"{flat} input dimension(s) have near-zero variance; clamped to epsilon")
        stats.update(input_mean=mean, input_var=np.maximum(var, epsilon))
    if reference_mode == "global_minmax_01":
        refs = _checked_utterances(references, "references")
        ref_min = _pooled_reduce(np.minimum, refs)
        ref_max = _pooled_reduce(np.maximum, refs)
        flat = int(np.sum((ref_max - ref_min) < epsilon))
        if flat:
            warnings.warn(f"{flat} reference dimension(s) have near-zero range")
        stats.update(ref_min=ref_min, ref_max=ref_max)
    return NormalizationSpec(input_mode=input_mode, reference_mode=reference_mode, **stats)


def normalize(x: np.ndarray, spec: NormalizationSpec, role: str) -> np.ndarray:
    """Scale one utterance per the fitted spec; role is 'input' or 'reference'.

    Inputs come back in float32, the precision the mapper computes in: the
    float64 apply_mvn, with the spec's or the utterance's own statistics,
    narrowed once by as_float32, which checks the contiguous result rather
    than the input (often a wide context-window view). A non-finite input
    is a NumericError, as is a finite one that normalizes beyond float32's
    range. References stay float64, because the loss is taken in float64.
    """
    check_choice(role, ("input", "reference"), "role")
    feats = as_float_matrix(x, "features", finite=role == "reference")
    if role == "input" and spec.input_mode == "global_mvn":
        if spec.input_mean is None or spec.input_var is None:
            raise ConfigError("global_mvn input stats missing; run fit_normalizer first")
        scaled = apply_mvn(feats, spec.input_mean, spec.input_var)
    elif role == "reference" and spec.reference_mode == "global_minmax_01":
        if spec.ref_min is None or spec.ref_max is None:
            raise ConfigError("global_minmax_01 reference stats missing; run fit_normalizer first")
        return (feats - spec.ref_min) / np.maximum(spec.ref_max - spec.ref_min, spec.epsilon)
    else:
        with np.errstate(invalid="ignore"):  # an input's NaN or inf is refused by as_float32
            scaled = apply_mvn(feats, *utterance_stats(feats, spec.epsilon, role == "reference"))
    return as_float32(scaled, "features", 2) if role == "input" else scaled


def denormalize(x: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """Invert normalize() of global_minmax_01 references; invert_mvn undoes the MVN modes."""
    if spec.reference_mode != "global_minmax_01":
        raise ConfigError(f"denormalize inverts global_minmax_01 references, not {spec.reference_mode!r}")
    span = np.maximum(spec.ref_max - spec.ref_min, spec.epsilon)
    return as_float_matrix(x, "features") * span + spec.ref_min

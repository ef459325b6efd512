"""Context-window assembly and input/reference normalization."""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .validation import as_float_matrix, check_choice, check_nonnegative, check_positive

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


def utterance_stats(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and epsilon-clamped variance over one utterance."""
    feats = as_float_matrix(x, "features")
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


def fit_normalizer(
    inputs: Sequence[np.ndarray],
    references: Sequence[np.ndarray],
    input_mode: str = "global_mvn",
    reference_mode: str = "global_minmax_01",
) -> NormalizationSpec:
    """Compute normalization statistics over the pooled training utterances."""
    check_choice(input_mode, INPUT_MODES, "input_mode")
    check_choice(reference_mode, REFERENCE_MODES, "reference_mode")
    if not inputs or not references:
        raise ConfigError("fit_normalizer needs a nonempty training set")

    spec = NormalizationSpec(input_mode=input_mode, reference_mode=reference_mode)
    epsilon = spec.epsilon
    if input_mode == "global_mvn":
        pooled = np.vstack([as_float_matrix(m, "inputs") for m in inputs])
        mean = pooled.mean(axis=0)
        var = pooled.var(axis=0)
        flat = int(np.sum(var < epsilon))
        if flat:
            warnings.warn(f"{flat} input dimension(s) have near-zero variance; clamped to epsilon")
        spec.input_mean = mean
        spec.input_var = np.maximum(var, epsilon)
    if reference_mode == "global_minmax_01":
        pooled = np.vstack([as_float_matrix(m, "references") for m in references])
        spec.ref_min = pooled.min(axis=0)
        spec.ref_max = pooled.max(axis=0)
        flat = int(np.sum((spec.ref_max - spec.ref_min) < epsilon))
        if flat:
            warnings.warn(f"{flat} reference dimension(s) have near-zero range")
    return spec


def normalize(x: np.ndarray, spec: NormalizationSpec, role: str) -> np.ndarray:
    """Scale one utterance per the fitted spec; role is 'input' or 'reference'."""
    check_choice(role, ("input", "reference"), "role")
    feats = as_float_matrix(x, "features")
    if role == "input":
        if spec.input_mode == "global_mvn":
            if spec.input_mean is None or spec.input_var is None:
                raise ConfigError("global_mvn input stats missing; run fit_normalizer first")
            return apply_mvn(feats, spec.input_mean, spec.input_var)
        mean, var = utterance_stats(feats, spec.epsilon)
        return apply_mvn(feats, mean, var)
    if spec.reference_mode == "global_minmax_01":
        if spec.ref_min is None or spec.ref_max is None:
            raise ConfigError("global_minmax_01 reference stats missing; run fit_normalizer first")
        span = np.maximum(spec.ref_max - spec.ref_min, spec.epsilon)
        return (feats - spec.ref_min) / span
    mean, var = utterance_stats(feats, spec.epsilon)
    return apply_mvn(feats, mean, var)


def denormalize(x: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """Invert normalize() of global_minmax_01 references; invert_mvn undoes the MVN modes."""
    if spec.reference_mode != "global_minmax_01":
        raise ConfigError(f"denormalize inverts global_minmax_01 references, not {spec.reference_mode!r}")
    span = np.maximum(spec.ref_max - spec.ref_min, spec.epsilon)
    return as_float_matrix(x, "features") * span + spec.ref_min

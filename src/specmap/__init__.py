"""specmap: speech enhancement by STFT-domain dereverberation and a neural
spectral-to-mel feature mapper, with corpus simulation and per-SNR evaluation."""

from .audio import Waveform, load_wav, save_wav
from .corpus import (
    CorpusConfig,
    CorpusManifest,
    RirConfig,
    build_corpus,
    convolve,
    mix_at_snr,
    synth_noise,
    synth_rir,
    synth_speech,
)
from .errors import (
    ConfigError,
    FormatError,
    ManifestError,
    NotFittedError,
    NumericError,
    ShapeError,
    SpecmapError,
    UnsupportedFormatError,
)
from .estimators import SpectralFeatureMapper
from .featio import load_model, read_features, save_model, write_features
from .features import NormalizationSpec, assemble_context, fit_normalizer, normalize
from .mel import MelConfig, hz_to_mel, log_mel, mel_matrix, mel_to_hz
from .metrics import log_spectral_distortion, mel_mse, segmental_snr, segmental_snr_gain
from .mlp import (
    MlpModel,
    TrainConfig,
    TrainHistory,
    early_stop_decision,
    forward,
    init_model,
    map_features,
    train,
    train_step,
)
from .pipeline import PipelineConfig, batch_enhance, enhance_utterance
from .report import SystemEvaluation, build_report, condition_average, evaluate_system
from .stft import Spectrogram, StftConfig, istft, log_magnitude, stft, window_coefficients
from .wpe import WpeConfig, WpeResult, solve_hermitian, wpe_dereverberate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorpusConfig",
    "CorpusManifest",
    "FormatError",
    "ManifestError",
    "MelConfig",
    "MlpModel",
    "NormalizationSpec",
    "NotFittedError",
    "NumericError",
    "PipelineConfig",
    "RirConfig",
    "ShapeError",
    "SpecmapError",
    "Spectrogram",
    "SpectralFeatureMapper",
    "StftConfig",
    "SystemEvaluation",
    "TrainConfig",
    "TrainHistory",
    "UnsupportedFormatError",
    "Waveform",
    "WpeConfig",
    "WpeResult",
    "assemble_context",
    "batch_enhance",
    "build_corpus",
    "build_report",
    "condition_average",
    "convolve",
    "early_stop_decision",
    "enhance_utterance",
    "evaluate_system",
    "fit_normalizer",
    "forward",
    "hz_to_mel",
    "init_model",
    "istft",
    "load_model",
    "load_wav",
    "log_magnitude",
    "log_mel",
    "log_spectral_distortion",
    "map_features",
    "mel_matrix",
    "mel_mse",
    "mel_to_hz",
    "mix_at_snr",
    "normalize",
    "read_features",
    "save_model",
    "save_wav",
    "segmental_snr",
    "segmental_snr_gain",
    "solve_hermitian",
    "stft",
    "synth_noise",
    "synth_rir",
    "synth_speech",
    "train",
    "train_step",
    "window_coefficients",
    "wpe_dereverberate",
    "write_features",
]

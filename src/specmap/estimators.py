"""The trainable feature mapper and the feature extraction that feeds it.

SpectralFeatureMapper follows the scikit-learn parameter contract
(constructor args are the parameters, fitted state lives in
trailing-underscore attributes) without depending on scikit-learn itself,
so it clones and composes with sklearn tooling while the package stays
numpy-only.

X is a list of per-utterance arrays throughout: utterances have different
frame counts, so a single stacked matrix would lose the utterance
boundaries that utterance-level normalization needs.
"""

import inspect
from typing import Optional, Sequence

import numpy as np

from .audio import load_wav
from .errors import ConfigError, ShapeError
from .featio import read_features
from .features import assemble_context, fit_normalizer, normalize
from .mel import MEL_MODES
from .mlp import TrainConfig, init_model, map_features, train
from .seeding import derive_seed
from .stft import StftConfig, log_magnitude, stft
from .validation import check_choice, check_fitted
from .wpe import WpeConfig, wpe_dereverberate

RECIPES = ("original", "enhanced")


def input_features(waveform, stft_config: StftConfig, wpe: Optional[WpeConfig], floor: float):
    """Mapper input of one utterance: STFT, WPE when a config is given, log-magnitude."""
    spectrogram = stft(waveform, stft_config)
    if wpe is not None:
        spectrogram = wpe_dereverberate(spectrogram, wpe).enhanced
    return log_magnitude(spectrogram, floor)


def training_features(manifest, split: str, wpe: Optional[WpeConfig] = None):
    """(inputs, references) of one manifest split, as SpectralFeatureMapper.fit takes them.

    Inputs come from the noisy WAVs through input_features, references are
    the split's stored reference features.
    """
    stft_config = manifest.stft_config()
    floor = manifest.magnitude_floor
    inputs, references = [], []
    for entry in manifest.split_entries(split):
        waveform = load_wav(manifest.resolve(entry.noisy_wav))
        inputs.append(input_features(waveform, stft_config, wpe, floor))
        references.append(read_features(manifest.resolve(entry.reference_features)))
    return inputs, references


def _normalized_rows(utterances, norm, role: str) -> np.ndarray:
    """normalize() of each utterance, written into its rows of one stacked matrix.

    The same matrix as np.vstack of the normalized utterances, without
    holding them all as a list first.
    """
    n_rows = sum(len(m) for m in utterances)
    stacked, start = None, 0
    for m in utterances:
        rows = normalize(m, norm, role)
        if stacked is None:
            stacked = np.empty((n_rows, rows.shape[1]))
        stacked[start:start + len(rows)] = rows
        start += len(rows)
    return stacked


class SpectralFeatureMapper:
    """Trainable mapper from noisy log-magnitude spectra to clean mel features.

    The "original" recipe uses globally MVN-normalized inputs, [0,1] min-max
    references, a sigmoid output layer, no dropout, and a fixed epoch count.
    The "enhanced" recipe switches both normalizations to utterance-level
    MVN, uses a linear output (MVN targets leave (0,1)), enables dropout and
    stops early on the dev set.
    """

    def __init__(
        self,
        hidden_units=(2048, 2048),
        context=5,
        recipe="original",
        batch_size=256,
        learning_rate=0.01,
        max_epochs=50,
        dropout_rate=0.2,
        seed=0,
    ):
        self.hidden_units = hidden_units
        self.context = context
        self.recipe = recipe
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.dropout_rate = dropout_rate
        self.seed = seed
        self.model_ = None
        self.history_ = None

    @classmethod
    def _parameter_names(cls):
        signature = inspect.signature(cls.__init__)
        return sorted(name for name in signature.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        """The constructor parameters; deep is accepted for sklearn and changes nothing."""
        return {name: getattr(self, name) for name in self._parameter_names()}

    def set_params(self, **params):
        valid = set(self._parameter_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _assemble(self, log_specs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [assemble_context(np.asarray(s), self.context) for s in log_specs]

    def fit(self, X, y, X_dev=None, y_dev=None, mel_filterbank=None, mel_mode="power"):
        """X: list of (T x bins) log-magnitude arrays; y: list of (T x 40) mel refs.

        mel_filterbank and mel_mode (MelConfig.mode) describe the references;
        transform inverts utterance-MVN outputs with them.
        """
        check_choice(self.recipe, RECIPES, "recipe")
        check_choice(mel_mode, MEL_MODES, "mel_mode")
        if not X or not y or len(X) != len(y):
            raise ConfigError(
                f"fit needs paired, nonempty X and y utterance lists, got {len(X)} and {len(y)}"
            )
        for xs, ys in zip(X, y):
            if np.asarray(xs).shape[0] != np.asarray(ys).shape[0]:
                raise ShapeError("input and reference utterances must align frame for frame")

        assembled = self._assemble(X)
        if self.recipe == "original":
            input_mode, reference_mode = "global_mvn", "global_minmax_01"
            output_activation = "sigmoid"
            dropout, early_stop = 0.0, False
        else:
            input_mode, reference_mode = "utterance_mvn", "utterance_mvn"
            output_activation = "linear"
            dropout, early_stop = self.dropout_rate, True
            if X_dev is None or y_dev is None or len(X_dev) == 0:
                raise ConfigError(
                    "the enhanced recipe cross-validates each epoch and needs a dev set"
                )

        norm = fit_normalizer(assembled, list(y), input_mode, reference_mode)
        train_x = _normalized_rows(assembled, norm, "input")
        train_y = _normalized_rows(y, norm, "reference")
        dev_x = dev_y = None
        if X_dev is not None and y_dev is not None and len(X_dev):
            dev_x = _normalized_rows(self._assemble(X_dev), norm, "input")
            dev_y = _normalized_rows(y_dev, norm, "reference")

        dims = [train_x.shape[1], *self.hidden_units, train_y.shape[1]]
        model = init_model(dims, output_activation, derive_seed(self.seed, "init"), norm)
        config = TrainConfig(
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            max_epochs=self.max_epochs,
            dropout_rate=dropout,
            early_stop=early_stop,
            rng_seed=derive_seed(self.seed, "train"),
        )
        self.model_, self.history_ = train(model, train_x, train_y, config, dev_x, dev_y)
        self._mel_filterbank = mel_filterbank
        self._mel_mode = mel_mode
        return self

    def transform(self, X) -> list[np.ndarray]:
        """Map utterances to mel features in the reference (log-mel) domain."""
        check_fitted(self, ("model_",))
        model = self.model_.as_float32()  # cast once, not per utterance
        return [
            map_features(
                model, np.asarray(log_spec), self.context, self._mel_filterbank,
                mel_mode=self._mel_mode,
            ).denormalized
            for log_spec in X
        ]

    def predict(self, X):
        return self.transform(X)

    def fit_transform(self, X, y, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)

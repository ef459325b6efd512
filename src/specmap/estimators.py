"""Estimator-style front end: fit/transform objects with get_params/set_params.

These follow the scikit-learn parameter contract (constructor args are the
parameters, fitted state lives in trailing-underscore attributes) without
depending on scikit-learn itself, so they clone and compose with sklearn
pipelines while the package stays numpy-only.

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
from .mel import MEL_MODES, MelConfig, log_mel, mel_matrix
from .mlp import TrainConfig, init_model, map_features, train
from .pipeline import MODES, PipelineConfig, enhance_utterance
from .seeding import derive_seed
from .stft import Spectrogram, StftConfig, log_magnitude, stft
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


class ParamsMixin:
    """get_params/set_params over the constructor signature, sklearn style."""

    @classmethod
    def _parameter_names(cls):
        signature = inspect.signature(cls.__init__)
        return sorted(
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )

    def get_params(self, deep: bool = True) -> dict:
        params = {}
        for name in self._parameter_names():
            value = getattr(self, name)
            params[name] = value
            if deep and hasattr(value, "get_params"):
                for sub, sub_value in value.get_params(deep=True).items():
                    params[f"{name}__{sub}"] = sub_value
        return params

    def set_params(self, **params):
        if not params:
            return self
        valid = set(self._parameter_names())
        nested: dict = {}
        for key, value in params.items():
            head, _, tail = key.partition("__")
            if head not in valid:
                raise ConfigError(f"invalid parameter {head!r} for {type(self).__name__}")
            if tail:
                nested.setdefault(head, {})[tail] = value
            else:
                setattr(self, head, value)
        for head, sub_params in nested.items():
            getattr(self, head).set_params(**sub_params)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._parameter_names())
        return f"{type(self).__name__}({args})"


class WpeDereverberator(ParamsMixin):
    """Stateless transformer running delayed-linear-prediction dereverberation.

    transform accepts a Spectrogram, a complex (frames x bins) array, or a
    list of either, and returns the enhanced counterpart(s).
    """

    def __init__(
        self, taps=10, delay=3, iterations=3, variance_floor=1e-10, delta=None,
        variance_context=1,
    ):
        self.taps = taps
        self.delay = delay
        self.iterations = iterations
        self.variance_floor = variance_floor
        self.delta = delta
        self.variance_context = variance_context

    def _config(self) -> WpeConfig:
        return WpeConfig(**self.get_params(deep=False))

    def fit(self, X=None, y=None):
        self._config()  # validate parameters
        return self

    def transform(self, X):
        config = self._config()
        if isinstance(X, (Spectrogram, np.ndarray)):
            return wpe_dereverberate(X, config).enhanced
        return [wpe_dereverberate(item, config).enhanced for item in X]

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)


class SpectralFeatureMapper(ParamsMixin):
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
        adagrad_epsilon=1e-8,
        increase_threshold=0.01,
        improvement_threshold=0.001,
        seed=0,
    ):
        self.hidden_units = hidden_units
        self.context = context
        self.recipe = recipe
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.dropout_rate = dropout_rate
        self.adagrad_epsilon = adagrad_epsilon
        self.increase_threshold = increase_threshold
        self.improvement_threshold = improvement_threshold
        self.seed = seed
        self.model_ = None
        self.history_ = None

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
        train_x = np.vstack([normalize(m, norm, "input") for m in assembled])
        train_y = np.vstack([normalize(np.asarray(m), norm, "reference") for m in y])
        dev_x = dev_y = None
        if X_dev is not None and y_dev is not None and len(X_dev):
            dev_x = np.vstack([normalize(m, norm, "input") for m in self._assemble(X_dev)])
            dev_y = np.vstack([normalize(np.asarray(m), norm, "reference") for m in y_dev])

        dims = [train_x.shape[1], *self.hidden_units, train_y.shape[1]]
        model = init_model(dims, output_activation, derive_seed(self.seed, "init"), norm)
        config = TrainConfig(
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            max_epochs=self.max_epochs,
            dropout_rate=dropout,
            adagrad_epsilon=self.adagrad_epsilon,
            early_stop=early_stop,
            increase_threshold=self.increase_threshold,
            improvement_threshold=self.improvement_threshold,
            rng_seed=derive_seed(self.seed, "train"),
        )
        self.model_, self.history_ = train(model, train_x, train_y, config, dev_x, dev_y)
        self._mel_filterbank = mel_filterbank
        self._mel_mode = mel_mode
        return self

    def transform(self, X, mel_filterbank=None) -> list[np.ndarray]:
        """Map utterances to mel features in the reference (log-mel) domain."""
        check_fitted(self, ("model_",))
        filterbank = mel_filterbank if mel_filterbank is not None else getattr(self, "_mel_filterbank", None)
        mel_mode = getattr(self, "_mel_mode", "power")
        model = self.model_.as_float32()  # cast once, not per utterance
        return [
            map_features(
                model, np.asarray(log_spec), self.context, filterbank, mel_mode=mel_mode
            ).denormalized
            for log_spec in X
        ]

    def predict(self, X):
        return self.transform(X)

    def fit_transform(self, X, y, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)


class CascadeEnhancer(ParamsMixin):
    """Waveform-in, mel-features-out wrapper over the full cascade.

    fit() trains the embedded mapper on (noisy, clean) waveform pairs,
    preprocessing the training inputs with WPE when the mode includes it
    (matched training). transform() enhances waveforms under the same mode.
    """

    def __init__(
        self,
        mode="wpe_dnn",
        frame_len=400,
        hop=160,
        fft_size=512,
        window="hann",
        n_mels=40,
        f_min=0.0,
        f_max=8000.0,
        magnitude_floor=1e-10,
        mapper: Optional[SpectralFeatureMapper] = None,
        wpe: Optional[WpeDereverberator] = None,
    ):
        self.mode = mode
        self.frame_len = frame_len
        self.hop = hop
        self.fft_size = fft_size
        self.window = window
        self.n_mels = n_mels
        self.f_min = f_min
        self.f_max = f_max
        self.magnitude_floor = magnitude_floor
        self.mapper = mapper
        self.wpe = wpe

    def _stft_config(self) -> StftConfig:
        return StftConfig(self.frame_len, self.hop, self.fft_size, self.window)

    def _mel_config(self, sample_rate: int) -> MelConfig:
        return MelConfig(self.n_mels, self.f_min, self.f_max, sample_rate, self.fft_size)

    def _pipeline_config(self, sample_rate: int) -> PipelineConfig:
        mapper = self.mapper
        model = None
        context = 5
        if self.mode in ("dnn_only", "wpe_dnn"):
            check_fitted(mapper if mapper is not None else self, ("model_",))
            model = mapper.model_
            context = mapper.context
        wpe_est = self.wpe if self.wpe is not None else WpeDereverberator()
        return PipelineConfig(
            mode=self.mode,
            stft=self._stft_config(),
            mel=self._mel_config(sample_rate),
            context=context,
            wpe=wpe_est._config(),
            model=model,
            magnitude_floor=self.magnitude_floor,
        )

    def fit(self, X, y=None, X_dev=None, y_dev=None):
        """X: noisy waveforms; y: aligned clean waveforms (needed for dnn modes)."""
        check_choice(self.mode, MODES, "mode")
        if self.mode in ("baseline", "wpe_only"):
            return self
        if y is None:
            raise ConfigError(f"mode {self.mode!r} trains a mapper and needs clean targets")
        if self.mapper is None:
            self.mapper = SpectralFeatureMapper()

        stft_cfg = self._stft_config()
        sample_rate = X[0].sample_rate
        filterbank = mel_matrix(self._mel_config(sample_rate))
        wpe = None
        if self.mode == "wpe_dnn":
            wpe = (self.wpe if self.wpe is not None else WpeDereverberator())._config()

        def prepare(waves_noisy, waves_clean):
            inputs = [input_features(w, stft_cfg, wpe, self.magnitude_floor) for w in waves_noisy]
            refs = [
                log_mel(stft(w, stft_cfg), filterbank, self.magnitude_floor) for w in waves_clean
            ]
            return inputs, refs

        train_in, train_ref = prepare(X, y)
        dev_in = dev_ref = None
        if X_dev is not None and y_dev is not None:
            dev_in, dev_ref = prepare(X_dev, y_dev)
        self.mapper.fit(train_in, train_ref, dev_in, dev_ref, mel_filterbank=filterbank)
        return self

    def transform(self, X) -> list[np.ndarray]:
        if not X:
            return []
        config = self._pipeline_config(X[0].sample_rate)
        return [enhance_utterance(w, config).features for w in X]

    def fit_transform(self, X, y=None, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)

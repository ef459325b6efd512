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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _pool
from .errors import ConfigError, ShapeError
from .featio import read_features
from .features import assemble_context, fit_normalizer, normalize
from .mel import mel_matrix
from .mlp import TrainConfig, init_model, map_features, train
from .seeding import derive_seed
from .stft import StftConfig, log_magnitude, stft
from .validation import check_choice, check_fitted
from .wpe import WpeConfig, wpe_dereverberate


class Recipe(NamedTuple):
    input_mode: str
    reference_mode: str
    output_activation: str
    dropout: bool     # whether dropout_rate applies; without it, no dropout at all
    early_stop: bool  # cross-validates each epoch, so fit needs a dev set


RECIPES = {
    "original": Recipe("global_mvn", "global_minmax_01", "sigmoid", dropout=False, early_stop=False),
    "enhanced": Recipe("utterance_mvn", "utterance_mvn", "linear", dropout=True, early_stop=True),
}


def input_features(waveform, stft_config: StftConfig, wpe: Optional[WpeConfig], floor: float):
    """The mapper's input in training and enhancement: STFT, WPE when given, log-magnitude."""
    spectrogram = stft(waveform, stft_config)
    if wpe is not None:
        spectrogram = wpe_dereverberate(spectrogram, wpe).enhanced
    return log_magnitude(spectrogram, floor)


def training_features(manifest, split: str, wpe: Optional[WpeConfig] = None):
    """(inputs, references) of one manifest split, as SpectralFeatureMapper.fit takes them.

    Inputs come from the noisy WAVs through input_features, references are
    the split's stored reference features. The utterances run on the
    threads of specmap._pool, as batch_enhance's do, each with its WPE on
    its own thread, and come back in manifest order; the first error to
    load or read one is raised.
    """
    stft_config = manifest.stft_config()
    floor = manifest.mel_config().magnitude_floor
    entries = manifest.split_entries(split)

    def features(index: int):
        entry = entries[index]
        return (
            input_features(manifest.load_waveform(entry.noisy_wav), stft_config, wpe, floor),
            read_features(manifest.resolve(entry.reference_features)),
        )

    pairs = _pool.run_items(features, len(entries))
    return [inputs for inputs, _ in pairs], [reference for _, reference in pairs]


def _normalized_rows(utterances, norm, role: str) -> np.ndarray:
    """normalize() of each utterance, written into its rows of one stacked matrix.

    The matrix takes the dtype normalize returns (float32 inputs, float64
    references) and equals np.vstack of the normalized utterances, with no
    list of them held at once.
    """
    n_rows = sum(len(m) for m in utterances)
    stacked, start = None, 0
    for m in utterances:
        rows = normalize(m, norm, role)
        if stacked is None:
            stacked = np.empty((n_rows, rows.shape[1]), dtype=rows.dtype)
        stacked[start:start + len(rows)] = rows
        start += len(rows)
    return stacked


def _check_one_width(utterances, role: str) -> None:
    """ShapeError unless the 2-D training and dev utterances of one role share one width."""
    widths = sorted({np.shape(m)[1] for m in utterances if np.ndim(m) == 2})
    if len(widths) > 1:
        raise ShapeError(f"{role} utterances must share one width across the training and dev sets, got {widths}")


class SpectralFeatureMapper:
    """Trainable mapper from noisy log-magnitude spectra to clean mel features.

    recipe names a row of RECIPES. The "original" recipe uses globally
    MVN-normalized inputs, [0,1] min-max references, a sigmoid output layer,
    no dropout (dropout_rate is ignored), and a fixed epoch count. The
    "enhanced" recipe switches both normalizations to utterance-level MVN,
    uses a linear output (MVN targets leave (0,1)), enables dropout and
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
        self.mel_config_ = None

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

    def fit(self, X, y, X_dev=None, y_dev=None, mel_config=None):
        """X: list of (T x bins) log-magnitude arrays; y: list of (T x 40) mel refs.

        mel_config, the references' MelConfig, kept as mel_config_, gives
        transform the filterbank, mode and floor that enhance_utterance
        inverts utterance-MVN outputs with. X_dev and y_dev come as a pair of
        lists of one length, as X and y do. X and X_dev must share one width,
        as must y and y_dev, and each input utterance, training or dev, must
        align frame for frame with its reference; that and the training
        settings are checked before anything is normalized. The model that
        init_model returns is trained in place and kept as model_.
        """
        check_choice(self.recipe, RECIPES, "recipe")
        if not X or not y or len(X) != len(y):
            raise ConfigError(
                f"fit needs paired, nonempty X and y utterance lists, got {len(X)} and {len(y)}"
            )
        n_dev = [0 if part is None else len(part) for part in (X_dev, y_dev)]
        if n_dev[0] != n_dev[1]:
            raise ConfigError(
                f"fit needs paired X_dev and y_dev utterance lists, got {n_dev[0]} and {n_dev[1]}"
            )
        pairs = list(zip(X, y))
        has_dev = n_dev[0] > 0
        if has_dev:
            pairs += zip(X_dev, y_dev)
        for xs, ys in pairs:
            if np.asarray(xs).shape[0] != np.asarray(ys).shape[0]:
                raise ShapeError("input and reference utterances must align frame for frame")
        _check_one_width([*X, *(X_dev if has_dev else ())], "input")
        _check_one_width([*y, *(y_dev if has_dev else ())], "reference")

        recipe = RECIPES[self.recipe]
        if recipe.early_stop and not has_dev:
            raise ConfigError(
                f"the {self.recipe} recipe cross-validates each epoch and needs a dev set"
            )
        config = TrainConfig(
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            max_epochs=self.max_epochs,
            dropout_rate=self.dropout_rate if recipe.dropout else 0.0,
            early_stop=recipe.early_stop,
            rng_seed=derive_seed(self.seed, "train"),
        )

        assembled = self._assemble(X)
        norm = fit_normalizer(assembled, list(y), recipe.input_mode, recipe.reference_mode)
        train_x = _normalized_rows(assembled, norm, "input")
        train_y = _normalized_rows(y, norm, "reference")
        dev_x = dev_y = None
        if has_dev:
            dev_x = _normalized_rows(self._assemble(X_dev), norm, "input")
            dev_y = _normalized_rows(y_dev, norm, "reference")

        dims = [train_x.shape[1], *self.hidden_units, train_y.shape[1]]
        model = init_model(dims, recipe.output_activation, derive_seed(self.seed, "init"), norm)
        self.model_, self.history_ = train(model, train_x, train_y, config, dev_x, dev_y)
        self.mel_config_ = mel_config
        return self

    def transform(self, X) -> list[np.ndarray]:
        """Map utterances to mel features in the reference (log-mel) domain."""
        check_fitted(self, ("model_",))
        mel = self.mel_config_
        front_end = () if mel is None else (mel_matrix(mel), mel.magnitude_floor, mel.mode)
        return [
            map_features(self.model_, np.asarray(log_spec), self.context, *front_end).denormalized
            for log_spec in X
        ]

    def predict(self, X):
        return self.transform(X)

    def fit_transform(self, X, y, **fit_kwargs):
        return self.fit(X, y, **fit_kwargs).transform(X)

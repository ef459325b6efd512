import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_reverberant_pair
from specmap import estimators
from specmap.errors import ConfigError, NotFittedError
from specmap.estimators import SpectralFeatureMapper, input_features
from specmap.features import assemble_context, normalize
from specmap.mel import MelConfig, log_mel, mel_matrix
from specmap.pipeline import PipelineConfig, enhance_utterance
from specmap.stft import StftConfig, stft
from specmap.wpe import WpeConfig


def _toy_training_data(n_utts=3, bins=33):
    rng = np.random.default_rng(0)
    xs, ys = [], []
    for _ in range(n_utts):
        frames = rng.integers(20, 30)
        xs.append(rng.normal(size=(frames, bins)))
        ys.append(rng.uniform(0.1, 0.9, size=(frames, 4)))
    return xs, ys


def test_get_set_params_roundtrip():
    est = SpectralFeatureMapper(context=2, learning_rate=0.07)
    params = est.get_params()
    assert sorted(params) == [
        "batch_size", "context", "dropout_rate", "hidden_units", "learning_rate",
        "max_epochs", "recipe", "seed",
    ]
    assert params["context"] == 2 and params["learning_rate"] == 0.07
    assert est.set_params(learning_rate=0.2) is est
    assert est.learning_rate == 0.2
    assert SpectralFeatureMapper(**est.get_params()).get_params() == est.get_params()
    with pytest.raises(ConfigError):
        est.set_params(not_a_param=1)


def test_sklearn_clone_interop():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = SpectralFeatureMapper(hidden_units=(8, 8), context=2, seed=3)
    cloned = sklearn_base.clone(est)
    assert cloned is not est
    assert cloned.get_params() == est.get_params()


def test_mapper_requires_fit_before_transform():
    est = SpectralFeatureMapper(hidden_units=(8,), context=0)
    with pytest.raises(NotFittedError):
        est.transform([np.zeros((4, 33))])


def test_mapper_fit_transform_shapes():
    xs, ys = _toy_training_data()
    est = SpectralFeatureMapper(
        hidden_units=(8, 8), context=1, recipe="original",
        batch_size=16, learning_rate=0.1, max_epochs=2, seed=1,
    )
    outputs = est.fit_transform(xs, ys)
    assert len(outputs) == len(xs)
    for x, out in zip(xs, outputs):
        assert out.shape == (x.shape[0], 4)
    assert est.history_.stop_reason == "max_epochs"
    predicted = est.predict(xs)
    assert np.array_equal(predicted[0], outputs[0])


def test_mapper_enhanced_recipe_needs_dev():
    xs, ys = _toy_training_data()
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe="enhanced", max_epochs=2)
    with pytest.raises(ConfigError):
        est.fit(xs, ys)


def test_mapper_enhanced_recipe_runs_with_dev():
    xs, ys = _toy_training_data(4)
    filterbank = np.abs(np.random.default_rng(2).normal(size=(4, 33)))
    est = SpectralFeatureMapper(
        hidden_units=(8, 8), context=0, recipe="enhanced",
        batch_size=16, learning_rate=0.1, max_epochs=4, dropout_rate=0.2, seed=2,
    )
    est.fit(xs[:3], ys[:3], xs[3:], ys[3:], mel_filterbank=filterbank)
    assert est.model_.output_activation == "linear"
    outputs = est.transform(xs[:1])
    assert outputs[0].shape == (xs[0].shape[0], 4)


def test_enhanced_recipe_fit_is_bit_reproducible():
    """Dropout, a linear output and early stopping on dev: two fits, the same bytes."""
    xs, ys = _toy_training_data(6)
    filterbank = np.abs(np.random.default_rng(2).normal(size=(4, 33)))
    runs = []
    for _ in range(2):
        est = SpectralFeatureMapper(
            hidden_units=(16, 16), context=1, recipe="enhanced",
            batch_size=16, learning_rate=0.05, max_epochs=30, dropout_rate=0.2, seed=6,
        )
        est.fit(xs[:4], ys[:4], xs[4:], ys[4:], mel_filterbank=filterbank)
        runs.append(est)
    first, second = runs
    assert first.history_.stop_reason in ("dev_increase", "dev_plateau")
    assert json.dumps(first.history_.to_dict()) == json.dumps(second.history_.to_dict())
    for a, b in zip(first.model_.weights + first.model_.biases,
                    second.model_.weights + second.model_.biases):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
def test_fit_stacks_each_training_matrix_once(monkeypatch, recipe):
    """fit's matrices equal the stacked normalized utterances bit for bit, built
    without a second copy: from the fitted normalizer to the start of
    training, the traced peak stays under 1.5x the four matrices."""
    xs, ys = _toy_training_data(20, bins=65)
    seen = {}
    fit_normalizer = estimators.fit_normalizer

    def fit_normalizer_then_reset(*args, **kwargs):
        norm = fit_normalizer(*args, **kwargs)
        tracemalloc.reset_peak()
        return norm

    def record_train(model, train_x, train_y, config, dev_x=None, dev_y=None):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["matrices"] = (train_x, train_y, dev_x, dev_y)
        seen["norm"] = model.norm_spec
        return model, None

    est = SpectralFeatureMapper(hidden_units=(8,), context=5, recipe=recipe, seed=2)
    monkeypatch.setattr(estimators, "fit_normalizer", fit_normalizer_then_reset)
    monkeypatch.setattr(estimators, "train", record_train)
    tracemalloc.start()
    try:
        est.fit(xs[:16], ys[:16], xs[16:], ys[16:])
    finally:
        tracemalloc.stop()

    norm = seen["norm"]
    expected = (
        np.vstack([normalize(assemble_context(x, 5), norm, "input") for x in xs[:16]]),
        np.vstack([normalize(y, norm, "reference") for y in ys[:16]]),
        np.vstack([normalize(assemble_context(x, 5), norm, "input") for x in xs[16:]]),
        np.vstack([normalize(y, norm, "reference") for y in ys[16:]]),
    )
    for got, want in zip(seen["matrices"], expected):
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
    stacked_bytes = sum(m.nbytes for m in expected)
    # Measured 1.29x; a list of normalized utterances and then np.vstack
    # of it, from copied context windows, peaked at 2.37x.
    assert seen["peak"] < 1.5 * stacked_bytes


def test_in_memory_wpe_dnn_sequence():
    """The README's library sequence: matched WPE training, then wpe_dnn enhancement."""
    stft_config, mel_config, wpe = StftConfig(), MelConfig(), WpeConfig()
    floor = PipelineConfig().magnitude_floor
    filterbank = mel_matrix(mel_config)
    pairs = [make_reverberant_pair(seed, seconds=0.8) for seed in (10, 11)]
    inputs = [input_features(reverberant, stft_config, wpe, floor) for _, reverberant, _ in pairs]
    references = [log_mel(stft(clean, stft_config), filterbank, floor) for clean, _, _ in pairs]
    mapper = SpectralFeatureMapper(
        hidden_units=(8, 8), context=1, recipe="original",
        batch_size=64, learning_rate=0.1, max_epochs=2, seed=4,
    )
    mapper.fit(inputs, references, mel_filterbank=filterbank)

    config = PipelineConfig(
        "wpe_dnn", stft_config, mel_config, context=mapper.context, wpe=wpe, model=mapper.model_,
    )
    reverberant = pairs[0][1]
    features = enhance_utterance(reverberant, config).features
    assert features.shape == (stft(reverberant, stft_config).n_frames, 40)
    assert np.array_equal(features, mapper.transform(inputs[:1])[0])

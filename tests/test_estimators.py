import dataclasses

import numpy as np
import pytest

from conftest import make_reverberant_pair
from specmap.errors import ConfigError, NotFittedError
from specmap.estimators import CascadeEnhancer, SpectralFeatureMapper, WpeDereverberator
from specmap.stft import StftConfig, stft
from specmap.wpe import WpeConfig, wpe_dereverberate


def _toy_training_data(n_utts=3, bins=33):
    rng = np.random.default_rng(0)
    xs, ys = [], []
    for _ in range(n_utts):
        frames = rng.integers(20, 30)
        xs.append(rng.normal(size=(frames, bins)))
        ys.append(rng.uniform(0.1, 0.9, size=(frames, 4)))
    return xs, ys


def test_get_set_params_roundtrip():
    est = WpeDereverberator(taps=7, delay=2)
    params = est.get_params()
    assert sorted(params) == sorted(f.name for f in dataclasses.fields(WpeConfig))
    assert params["taps"] == 7 and params["delay"] == 2
    est.set_params(taps=4)
    assert est.taps == 4
    with pytest.raises(ConfigError):
        est.set_params(not_a_param=1)


def test_nested_params_through_cascade():
    cascade = CascadeEnhancer(mapper=SpectralFeatureMapper(learning_rate=0.07))
    params = cascade.get_params()
    assert params["mapper__learning_rate"] == 0.07
    cascade.set_params(mapper__learning_rate=0.2, mode="baseline")
    assert cascade.mapper.learning_rate == 0.2
    assert cascade.mode == "baseline"


def test_sklearn_clone_interop():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = SpectralFeatureMapper(hidden_units=(8, 8), context=2, seed=3)
    cloned = sklearn_base.clone(est)
    assert cloned is not est
    assert cloned.get_params() == est.get_params()
    cascade = CascadeEnhancer(mapper=SpectralFeatureMapper(max_epochs=2))
    cloned_cascade = sklearn_base.clone(cascade)
    assert cloned_cascade.mapper.max_epochs == 2


def test_wpe_transformer_matches_function():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(60, 9)) + 1j * rng.normal(size=(60, 9))
    est = WpeDereverberator(taps=4, delay=2, iterations=2)
    direct = wpe_dereverberate(data, WpeConfig(taps=4, delay=2, iterations=2)).enhanced
    assert np.array_equal(est.transform(data), direct)
    listed = est.transform([data, data.copy()])
    assert len(listed) == 2
    assert np.array_equal(listed[0], direct)
    assert est.fit(None) is est


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


def test_cascade_end_to_end_tiny():
    clean0, noisy0, _ = make_reverberant_pair(10, seconds=0.8)
    clean1, noisy1, _ = make_reverberant_pair(11, seconds=0.8)
    cascade = CascadeEnhancer(
        mode="wpe_dnn",
        mapper=SpectralFeatureMapper(
            hidden_units=(8, 8), context=1, recipe="original",
            batch_size=64, learning_rate=0.1, max_epochs=2, seed=4,
        ),
    )
    cascade.fit([noisy0, noisy1], [clean0, clean1])
    outputs = cascade.transform([noisy0])
    frames = stft(noisy0, StftConfig()).n_frames
    assert outputs[0].shape == (frames, 40)

    baseline = CascadeEnhancer(mode="baseline")
    baseline.fit([noisy0])
    assert baseline.transform([noisy0])[0].shape == (frames, 40)


def test_cascade_dnn_mode_requires_targets_and_fit():
    _, noisy, _ = make_reverberant_pair(12, seconds=0.6)
    cascade = CascadeEnhancer(mode="dnn_only")
    with pytest.raises(ConfigError):
        cascade.fit([noisy])
    with pytest.raises(NotFittedError):
        cascade.transform([noisy])

import itertools
import json
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_reverberant_pair
from specmap import _pool, estimators
from specmap.audio import load_wav
from specmap.errors import ConfigError, NotFittedError, ShapeError
from specmap.estimators import SpectralFeatureMapper, input_features, training_features
from specmap.featio import read_features
from specmap.features import apply_mvn, assemble_context, normalize, utterance_stats
from specmap.mel import MelConfig, log_mel, mel_matrix
from specmap.pipeline import PipelineConfig, enhance_utterance
from specmap.stft import StftConfig, stft
from specmap.wpe import WpeConfig


# The front end of the toy references: 4 mels over the 33 bins of a 64-point FFT.
TOY_MEL = MelConfig(n_mels=4, fft_size=64)


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
    with pytest.raises(ConfigError, match="invalid parameter 'not_a_param'"):
        est.set_params(not_a_param=1)
    # What sklearn.base.clone relies on, checked without it: the constructor
    # stores each argument as given, and a mapper rebuilt from get_params
    # holds the same objects.
    args = {name: object() for name in params}
    stored = SpectralFeatureMapper(**args).get_params()
    assert all(stored[name] is value for name, value in args.items())
    rebuilt = SpectralFeatureMapper(**stored).get_params()
    assert all(rebuilt[name] is value for name, value in args.items())


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


def test_a_mapper_given_its_model_maps_with_the_original_recipe():
    # An original-recipe model inverts its min-max references without a mel
    # front end, so a mapper whose model_ is assigned, as from a checkpoint,
    # maps what the fitted mapper maps.
    xs, ys = _toy_training_data()
    fitted = SpectralFeatureMapper(
        hidden_units=(8, 8), context=1, recipe="original",
        batch_size=16, learning_rate=0.1, max_epochs=2, seed=1,
    ).fit(xs, ys, mel_config=TOY_MEL)
    assert fitted.mel_config_ is TOY_MEL
    by_hand = SpectralFeatureMapper(**fitted.get_params())
    assert by_hand.mel_config_ is None
    by_hand.model_ = fitted.model_
    for mapped, expected in zip(by_hand.transform(xs), fitted.transform(xs)):
        assert np.array_equal(mapped, expected)


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
    assert est.history_.best_epoch == 2
    predicted = est.predict(xs)
    assert np.array_equal(predicted[0], outputs[0])


def test_mapper_enhanced_recipe_needs_dev():
    xs, ys = _toy_training_data()
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe="enhanced", max_epochs=2)
    with pytest.raises(ConfigError):
        est.fit(xs, ys)


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
@pytest.mark.parametrize("split", ["train", "dev"])
@pytest.mark.parametrize("role", ["input", "reference"])
def test_fit_refuses_utterances_of_another_width_before_normalizing(monkeypatch, recipe, split, role):
    xs, ys = _toy_training_data(4)
    utterances = xs if role == "input" else ys
    index = 1 if split == "train" else 3
    utterances[index] = utterances[index][:, :-1]
    monkeypatch.setattr(estimators, "fit_normalizer", lambda *args: pytest.fail("normalized"))
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe=recipe, max_epochs=2)
    with pytest.raises(ShapeError, match=f"{role} utterances must share one width"):
        est.fit(xs[:3], ys[:3], xs[3:], ys[3:], mel_config=TOY_MEL)


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
@pytest.mark.parametrize("split", ["train", "dev"])
def test_fit_refuses_utterances_out_of_frame_alignment_before_normalizing(monkeypatch, recipe, split):
    xs, ys = _toy_training_data(5)
    frames = [len(x) for x in xs]
    swap = {"train": (0, 1), "dev": (3, 4)}[split]
    assert frames[swap[0]] != frames[swap[1]]
    # Each reference is swapped with its neighbour's: the split's frame
    # totals still match, but no utterance aligns with its reference.
    ys[swap[0]], ys[swap[1]] = ys[swap[1]], ys[swap[0]]
    monkeypatch.setattr(estimators, "fit_normalizer", lambda *args: pytest.fail("normalized"))
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe=recipe, max_epochs=2)
    with pytest.raises(ShapeError, match="align frame for frame"):
        est.fit(xs[:3], ys[:3], xs[3:], ys[3:], mel_config=TOY_MEL)


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
@pytest.mark.parametrize("dev", ["2 inputs, 1 reference", "no inputs, 1 reference", "2 inputs, no references"])
def test_fit_refuses_unpaired_dev_lists_before_normalizing(monkeypatch, recipe, dev):
    xs, ys = _toy_training_data(5)
    X_dev, y_dev = {
        "2 inputs, 1 reference": (xs[3:], ys[3:4]),
        "no inputs, 1 reference": ([], ys[3:4]),
        "2 inputs, no references": (xs[3:], None),
    }[dev]
    monkeypatch.setattr(estimators, "fit_normalizer", lambda *args: pytest.fail("normalized"))
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe=recipe, max_epochs=2)
    # the same error class as an unpaired training list
    with pytest.raises(ConfigError, match="paired X_dev and y_dev utterance lists"):
        est.fit(xs[:3], ys[:3], X_dev, y_dev, mel_config=TOY_MEL)


@pytest.mark.parametrize("recipe, expected", [
    ("original", ("global_mvn", "global_minmax_01", "sigmoid", 0.0, False)),  # ignores dropout_rate
    ("enhanced", ("utterance_mvn", "utterance_mvn", "linear", 0.3, True)),
])
def test_fit_trains_as_its_recipe_says(monkeypatch, recipe, expected):
    seen = {}

    def record_train(model, train_x, train_y, config, dev_x=None, dev_y=None):
        seen.update(model=model, config=config)
        return model, None

    monkeypatch.setattr(estimators, "train", record_train)
    xs, ys = _toy_training_data(4)
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, recipe=recipe, dropout_rate=0.3)
    est.fit(xs[:3], ys[:3], xs[3:], ys[3:])
    model, config = seen["model"], seen["config"]
    norm = model.norm_spec
    got = (norm.input_mode, norm.reference_mode, model.output_activation, config.dropout_rate, config.early_stop)
    assert got == expected


def test_fit_trains_the_model_init_model_returns_in_place(monkeypatch):
    original, made = estimators.init_model, []

    def init_model(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(estimators, "init_model", init_model)
    xs, ys = _toy_training_data()
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, max_epochs=2).fit(xs, ys)
    assert len(made) == 1 and est.model_ is made[0]
    assert all(p.dtype == np.float32 for p in est.model_.weights + est.model_.biases)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("recipe", ["original", "enhanced"])
def test_transform_maps_an_utterance_of_no_frames_without_statistics(recipe):
    xs, ys = _toy_training_data(4)
    est = SpectralFeatureMapper(hidden_units=(8,), context=1, recipe=recipe, max_epochs=2)
    est.fit(xs[:3], ys[:3], xs[3:], ys[3:], mel_config=TOY_MEL)
    (mapped,) = est.transform([np.zeros((0, 33))])
    assert mapped.shape == (0, 4) and mapped.dtype == np.float64


@pytest.mark.parametrize("setting", [{"max_epochs": 2.5}, {"batch_size": 8.0}, {"batch_size": True}])
def test_fit_refuses_a_non_integer_count_before_normalizing(monkeypatch, setting):
    xs, ys = _toy_training_data()
    monkeypatch.setattr(estimators, "fit_normalizer", lambda *args: pytest.fail("normalized"))
    est = SpectralFeatureMapper(hidden_units=(8,), context=0, **setting)
    with pytest.raises(ConfigError, match="must be an integer >= 1"):
        est.fit(xs, ys)


def test_mapper_enhanced_recipe_runs_with_dev():
    xs, ys = _toy_training_data(4)
    est = SpectralFeatureMapper(
        hidden_units=(8, 8), context=0, recipe="enhanced",
        batch_size=16, learning_rate=0.1, max_epochs=4, dropout_rate=0.2, seed=2,
    )
    est.fit(xs[:3], ys[:3], xs[3:], ys[3:], mel_config=TOY_MEL)
    assert est.model_.output_activation == "linear"
    outputs = est.transform(xs[:1])
    assert outputs[0].shape == (xs[0].shape[0], 4)


def test_enhanced_recipe_fit_is_bit_reproducible():
    """Dropout, a linear output and the best dev epoch kept: two fits, the same bytes."""
    xs, ys = _toy_training_data(6)
    runs = []
    for _ in range(2):
        est = SpectralFeatureMapper(
            hidden_units=(16, 16), context=1, recipe="enhanced",
            batch_size=16, learning_rate=0.05, max_epochs=30, dropout_rate=0.2, seed=6,
        )
        est.fit(xs[:4], ys[:4], xs[4:], ys[4:], mel_config=TOY_MEL)
        runs.append(est)
    first, second = runs
    assert len(first.history_.dev_cost) == 30
    assert json.dumps(first.history_.to_dict()) == json.dumps(second.history_.to_dict())
    for a, b in zip(first.model_.weights + first.model_.biases,
                    second.model_.weights + second.model_.biases):
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
def test_fit_stacks_each_training_matrix_once(monkeypatch, recipe):
    """fit's matrices equal the stacked normalized utterances bit for bit, the
    inputs narrowed to float32 as astype rounds them, built without a second
    copy: from the fitted normalizer to the start of training, the traced
    peak grows by under 1.5x the four matrices. Training starts holding the
    matrices and the model, not the edge-padded copies behind the training
    inputs' context windows, which would add 27% of the input matrix here;
    the utterances come from the caller, before tracing starts."""
    xs, ys = _toy_training_data(20, bins=65)
    seen = {}
    fit_normalizer = estimators.fit_normalizer

    def fit_normalizer_then_reset(*args, **kwargs):
        norm = fit_normalizer(*args, **kwargs)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return norm

    def record_train(model, train_x, train_y, config, dev_x=None, dev_y=None):
        seen["current"], seen["peak"] = tracemalloc.get_traced_memory()
        seen["matrices"] = (train_x, train_y, dev_x, dev_y)
        seen["model_bytes"] = sum(p.nbytes for p in model.weights + model.biases)
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

    def float64_input_mvn(x):
        windows = assemble_context(x, 5)
        if norm.input_mode == "global_mvn":
            return apply_mvn(windows, norm.input_mean, norm.input_var)
        return apply_mvn(windows, *utterance_stats(windows, norm.epsilon))

    expected = (
        np.vstack([float64_input_mvn(x) for x in xs[:16]]).astype(np.float32),
        np.vstack([normalize(y, norm, "reference") for y in ys[:16]]),
        np.vstack([float64_input_mvn(x) for x in xs[16:]]).astype(np.float32),
        np.vstack([normalize(y, norm, "reference") for y in ys[16:]]),
    )
    for got, want, dtype in zip(seen["matrices"], expected, [np.float32, np.float64] * 2):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
    stacked_bytes = sum(m.nbytes for m in seen["matrices"])
    # Measured 1.31x, the rest being one utterance's float64 MVN and its
    # float32 rounding, and the dev set's context windows; a second copy of
    # the float32 inputs would add 0.78x.
    assert seen["peak"] - seen["start"] < 1.5 * stacked_bytes
    # Measured 1.6% over at most.
    assert seen["current"] < 1.05 * (stacked_bytes + seen["model_bytes"])


def test_in_memory_wpe_dnn_sequence():
    """The README's library sequence: matched WPE training, then wpe_dnn enhancement."""
    stft_config, mel_config, wpe = StftConfig(), MelConfig(), WpeConfig()
    floor = mel_config.magnitude_floor
    filterbank = mel_matrix(mel_config)
    pairs = [make_reverberant_pair(seed, seconds=0.8) for seed in (10, 11)]
    inputs = [input_features(reverberant, stft_config, wpe, floor) for _, reverberant, _ in pairs]
    references = [log_mel(stft(clean, stft_config), filterbank, floor) for clean, _, _ in pairs]
    mapper = SpectralFeatureMapper(
        hidden_units=(8, 8), context=1, recipe="original",
        batch_size=64, learning_rate=0.1, max_epochs=2, seed=4,
    )
    mapper.fit(inputs, references, mel_config=mel_config)

    config = PipelineConfig(
        "wpe_dnn", stft_config, mel_config, context=mapper.context, wpe=wpe, model=mapper.model_,
    )
    reverberant = pairs[0][1]
    features = enhance_utterance(reverberant, config).features
    assert features.shape == (stft(reverberant, stft_config).n_frames, 40)
    assert np.array_equal(features, mapper.transform(inputs[:1])[0])


def _one_at_a_time(manifest, split, wpe):
    """training_features' (inputs, references), each utterance in turn on this thread."""
    stft_config, floor = manifest.stft_config(), manifest.mel_config().magnitude_floor
    inputs, references = [], []
    for entry in manifest.split_entries(split):
        waveform = load_wav(manifest.resolve(entry.noisy_wav))
        inputs.append(input_features(waveform, stft_config, wpe, floor))
        references.append(read_features(manifest.resolve(entry.reference_features)))
    return inputs, references


@pytest.mark.parametrize("wpe", [None, WpeConfig()], ids=["noisy", "wpe"])
def test_training_features_do_not_depend_on_the_thread_count(tiny_corpus, monkeypatch, wpe):
    expected = _one_at_a_time(tiny_corpus, "train", wpe)
    n_entries = len(tiny_corpus.split_entries("train"))
    original = estimators.input_features
    # (_thread_limit, _cpu_count): 1, 2 and 3 threads, and one per CPU of four.
    cpus = _pool._cpu_count
    settings = [(1, cpus), (2, cpus), (3, cpus), (None, lambda: 4)]
    for threads, cpu_count in settings:
        monkeypatch.setattr(_pool, "_thread_limit", threads)
        monkeypatch.setattr(_pool, "_cpu_count", cpu_count)
        # On more than one thread, the first two utterances run at once.
        first_two = threading.Barrier(1 if threads == 1 else 2, timeout=60)
        started = itertools.count()

        def meeting(*args):
            if next(started) < 2:
                first_two.wait()
            return original(*args)

        monkeypatch.setattr(estimators, "input_features", meeting)
        for got, want in zip(training_features(tiny_corpus, "train", wpe), expected):
            assert len(got) == len(want) == n_entries
            for matrix, wanted in zip(got, want):
                assert matrix.dtype == wanted.dtype and matrix.shape == wanted.shape
                assert matrix.tobytes() == wanted.tobytes()

import dataclasses
import json
import pickle
import time

import numpy as np
import pytest

from conftest import gathered_context
from specmap.audio import load_wav
from specmap.corpus import CorpusConfig, build_corpus
from specmap.errors import ConfigError, ShapeError
from specmap.estimators import SpectralFeatureMapper, training_features
from specmap import pipeline
from specmap.featio import load_model, read_features, save_model
from specmap.features import (
    assemble_context,
    denormalize,
    fit_normalizer,
    invert_mvn,
    normalize,
    utterance_stats,
)
from specmap.mel import log_mel, mel_matrix
from specmap.mlp import forward, init_model, map_features
from specmap.pipeline import PipelineConfig, batch_enhance, enhance_utterance
from specmap.runconfig import config_hash
from specmap.stft import log_magnitude, stft
from specmap.wpe import WpeConfig, wpe_dereverberate


def _toy_mapper(manifest, n_train=4):
    """Tiny mapper fitted on a few utterances of the shared corpus."""
    filterbank = mel_matrix(manifest.mel_config())
    xs, ys = training_features(manifest, "train")
    mapper = SpectralFeatureMapper(
        hidden_units=(16, 16), context=1, recipe="original",
        batch_size=64, learning_rate=0.1, max_epochs=4, seed=0,
    )
    mapper.fit(
        xs[:n_train], ys[:n_train], mel_filterbank=filterbank,
        mel_mode=manifest.mel_config().mode,
    )
    return mapper


@pytest.fixture(scope="module")
def toy_mapper(tiny_corpus):
    return _toy_mapper(tiny_corpus)


def _pipeline_config(manifest, mode, model=None, context=1, **kwargs):
    return PipelineConfig(
        mode=mode,
        stft=manifest.stft_config(),
        mel=manifest.mel_config(),
        context=context,
        wpe=WpeConfig(),
        model=model,
        magnitude_floor=manifest.feature_config["magnitude_floor"],
        **kwargs,
    )


def test_baseline_equals_signal_core(tiny_corpus):
    manifest = tiny_corpus
    entry = manifest.split_entries("test")[0]
    wave = load_wav(manifest.resolve(entry.noisy_wav))
    result = enhance_utterance(wave, _pipeline_config(manifest, "baseline"))
    direct = log_mel(
        stft(wave, manifest.stft_config()),
        mel_matrix(manifest.mel_config()),
        manifest.feature_config["magnitude_floor"],
    )
    assert np.array_equal(result.features, direct)
    assert result.enhanced_waveform is None


def test_frame_counts_match_across_modes(tiny_corpus, toy_mapper):
    manifest = tiny_corpus
    entry = manifest.split_entries("test")[0]
    wave = load_wav(manifest.resolve(entry.noisy_wav))
    baseline = enhance_utterance(wave, _pipeline_config(manifest, "baseline"))
    for mode in ("wpe_only", "dnn_only", "wpe_dnn"):
        model = toy_mapper.model_ if mode != "wpe_only" else None
        result = enhance_utterance(wave, _pipeline_config(manifest, mode, model))
        assert result.features.shape == baseline.features.shape, mode
        if mode.startswith("wpe"):
            assert result.enhanced_waveform is not None


def test_cascade_composability(tiny_corpus, toy_mapper):
    manifest = tiny_corpus
    entry = manifest.split_entries("test")[1]
    wave = load_wav(manifest.resolve(entry.noisy_wav))
    cascade = enhance_utterance(wave, _pipeline_config(manifest, "wpe_dnn", toy_mapper.model_))
    spec = stft(wave, manifest.stft_config())
    enhanced_spec = wpe_dereverberate(spec, WpeConfig()).enhanced
    floor = manifest.feature_config["magnitude_floor"]
    mapped = map_features(
        toy_mapper.model_,
        log_magnitude(enhanced_spec, floor),
        context=1,
        mel_filterbank=mel_matrix(manifest.mel_config()),
        magnitude_floor=floor,
    )
    assert np.array_equal(cascade.features, mapped.denormalized)


def test_no_hidden_state_between_utterances(tiny_corpus):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "wpe_only")
    entries = manifest.split_entries("test")[:3]
    waves = [load_wav(manifest.resolve(e.noisy_wav)) for e in entries]
    forward_order = [enhance_utterance(w, config).features for w in waves]
    reverse_order = [enhance_utterance(w, config).features for w in reversed(waves)]
    for a, b in zip(forward_order, reversed(reverse_order)):
        assert np.array_equal(a, b)


def test_clean_trained_toy_model_beats_untrained(tiny_corpus):
    # Overfit a tiny mapper on clean inputs and score it on its own training
    # utterance: it must beat an untrained model by a wide margin.
    manifest = tiny_corpus
    stft_cfg = manifest.stft_config()
    floor = manifest.feature_config["magnitude_floor"]
    filterbank = mel_matrix(manifest.mel_config())
    entries = manifest.split_entries("train")[:2]
    xs = [
        log_magnitude(stft(load_wav(manifest.resolve(e.clean_wav)), stft_cfg), floor)
        for e in entries
    ]
    ys = [read_features(manifest.resolve(e.reference_features)) for e in entries]
    mapper = SpectralFeatureMapper(
        hidden_units=(24, 24), context=1, recipe="original",
        batch_size=32, learning_rate=0.2, max_epochs=30, seed=0,
    )
    mapper.fit(xs, ys, mel_filterbank=filterbank, mel_mode=manifest.mel_config().mode)

    wave = load_wav(manifest.resolve(entries[0].clean_wav))
    reference = ys[0]
    trained = enhance_utterance(wave, _pipeline_config(manifest, "dnn_only", mapper.model_))
    trained_mse = float(np.mean((trained.features - reference) ** 2))

    from specmap.mlp import init_model

    untrained_model = init_model(
        mapper.model_.layer_dims, "sigmoid", seed=123, norm_spec=mapper.model_.norm_spec
    )
    untrained = enhance_utterance(wave, _pipeline_config(manifest, "dnn_only", untrained_model))
    untrained_mse = float(np.mean((untrained.features - reference) ** 2))
    assert trained_mse * 10.0 <= untrained_mse


def test_config_validation(tiny_corpus, toy_mapper):
    manifest = tiny_corpus
    with pytest.raises(ConfigError):
        _pipeline_config(manifest, "dnn_only")  # no model
    with pytest.raises(ShapeError):
        _pipeline_config(manifest, "dnn_only", toy_mapper.model_, context=4)


def test_batch_enhance_writes_features_and_log(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "baseline")
    result = batch_enhance(manifest, config, tmp_path / "run", split="test")
    entries = manifest.split_entries("test")
    assert len(result.features) == len(entries)
    assert not result.failures
    lines = [json.loads(l) for l in result.log_path.read_text().splitlines()]
    assert [l["id"] for l in lines] == [e.id for e in entries]
    assert all(l["status"] == "ok" and "config_hash" in l for l in lines)


def test_batch_enhance_empty_split(tmp_path):
    config = CorpusConfig(utterance_seconds=0.6, n_train=1, n_dev=0, n_test=0,
                          snr_grid=(0.0,), n_rirs=1, n_noises=1, seed=11)
    manifest = build_corpus(config, tmp_path / "c")
    pipeline_config = PipelineConfig(
        mode="baseline", stft=manifest.stft_config(), mel=manifest.mel_config(),
    )
    result = batch_enhance(manifest, pipeline_config, tmp_path / "out", split="test")
    assert result.features == {} and result.failures == {}


def test_batch_enhance_rerun_byte_identical(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "wpe_only")
    first = batch_enhance(manifest, config, tmp_path / "one", split="dev")
    second = batch_enhance(manifest, config, tmp_path / "two", split="dev")
    for utterance, rel in first.features.items():
        a = (tmp_path / "one" / rel).read_bytes()
        b = (tmp_path / "two" / second.features[utterance]).read_bytes()
        assert a == b


def test_batch_enhance_parallel_matches_serial(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "baseline")
    serial = batch_enhance(manifest, config, tmp_path / "serial", split="dev", jobs=1)
    parallel = batch_enhance(manifest, config, tmp_path / "parallel", split="dev", jobs=2)
    assert set(serial.features) == set(parallel.features)
    for utterance in serial.features:
        a = (tmp_path / "serial" / serial.features[utterance]).read_bytes()
        b = (tmp_path / "parallel" / parallel.features[utterance]).read_bytes()
        assert a == b


def test_batch_enhance_parallel_logs_per_utterance_seconds(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    entries = manifest.split_entries("test")
    broken = manifest.resolve(entries[0].noisy_wav)
    original = broken.read_bytes()
    config = _pipeline_config(manifest, "wpe_only")
    try:
        broken.write_bytes(b"RIFFgarbage")
        runs = {jobs: batch_enhance(manifest, config, tmp_path / f"jobs{jobs}", split="test",
                                    jobs=jobs, save_waveforms=False)
                for jobs in (1, 2)}
    finally:
        broken.write_bytes(original)
    for jobs, result in runs.items():
        records = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [r["id"] for r in records] == [e.id for e in entries]
        ok_seconds = [r["seconds"] for r in records[1:]]
        assert all(r["status"] == "ok" for r in records[1:]) and min(ok_seconds) > 0
        # A file that fails to parse costs far less than enhancing one.
        assert records[0]["status"] == "failed" and records[0]["seconds"] < min(ok_seconds)
    assert runs[1].features == runs[2].features
    for rel in runs[1].features.values():
        assert (tmp_path / "jobs1" / rel).read_bytes() == (tmp_path / "jobs2" / rel).read_bytes()


def test_batch_enhance_parallel_mapper_matches_serial(tiny_corpus, toy_mapper, tmp_path):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "dnn_only", model=toy_mapper.model_)
    runs = {jobs: batch_enhance(manifest, config, tmp_path / f"jobs{jobs}", split="dev", jobs=jobs)
            for jobs in (1, 2)}
    assert runs[1].features == runs[2].features and not runs[2].failures
    for rel in runs[1].features.values():
        assert (tmp_path / "jobs1" / rel).read_bytes() == (tmp_path / "jobs2" / rel).read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: pickles what a real pool would send, runs inline."""

    created = []

    def __init__(self, max_workers, initializer, initargs):
        self.initializer, self.initargs, self.tasks = initializer, initargs, []
        _InlinePool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.initializer(*pickle.loads(pickle.dumps(self.initargs)))
        self.tasks = [pickle.dumps(task) for task in tasks]
        return [fn(pickle.loads(task)) for task in self.tasks]


def test_parallel_tasks_carry_the_wav_path_not_the_model(tiny_corpus, toy_mapper, tmp_path, monkeypatch):
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "dnn_only", model=toy_mapper.model_)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(pipeline, "_worker_config", None)
    _InlinePool.created.clear()
    pooled = batch_enhance(manifest, config, tmp_path / "pooled", split="dev", jobs=2)
    serial = batch_enhance(manifest, config, tmp_path / "serial", split="dev", jobs=1)
    (pool,) = _InlinePool.created
    weight_bytes = toy_mapper.model_.as_float32().weights[0].tobytes()
    assert weight_bytes in pickle.dumps(pool.initargs)  # the mapper is sent once per worker
    assert len(pool.tasks) == len(manifest.split_entries("dev"))
    assert all(weight_bytes not in task and len(task) < 1000 for task in pool.tasks)
    for rel in serial.features.values():
        assert (tmp_path / "pooled" / rel).read_bytes() == (tmp_path / "serial" / rel).read_bytes()


def test_pickled_config_carries_only_the_float32_mapper(tiny_corpus):
    model = init_model([3 * 257, 256, 256, 40], "linear", seed=3)
    config = _pipeline_config(tiny_corpus, "dnn_only", model=model)
    digest = config_hash(config.describe())
    both_models = len(pickle.dumps(config.__dict__))  # the state with float64 and float32 models
    sent = pickle.dumps(config)
    assert len(sent) <= 0.55 * both_models
    restored = pickle.loads(sent)
    assert restored.model is restored.mapper
    assert all(p.dtype == np.float32 for p in restored.model.weights + restored.model.biases)
    assert config_hash(restored.describe()) == digest
    assert config.model is model  # pickling leaves the config itself alone


def test_reloaded_mapper_agrees_with_in_memory_model(tiny_corpus, toy_mapper, tmp_path):
    # Checkpoints hold float32 weights and mapping runs in float32, so the
    # CLI path (reloaded) and the estimator path (in memory) map through
    # the same float32 parameters and agree bit for bit.
    manifest = tiny_corpus
    model = toy_mapper.model_
    save_model(tmp_path / "mapper.sfmd", model)
    reloaded, _ = load_model(tmp_path / "mapper.sfmd")
    worst = 0.0
    for entry in manifest.split_entries("test"):
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        outputs = [
            enhance_utterance(wave, _pipeline_config(manifest, "dnn_only", model=m)).features
            for m in (model, reloaded)
        ]
        worst = max(worst, float(np.max(np.abs(outputs[0] - outputs[1]))))
    assert worst == 0.0


def test_config_hash_covers_every_stft_mel_and_wpe_field(tiny_corpus):
    changed = {
        "stft": {"frame_len": 320, "hop": 80, "fft_size": 1024, "window": "hamming"},
        "mel": {"n_mels": 41, "f_min": 50.0, "f_max": 3000.0, "sample_rate": 8000,
                "fft_size": 1024, "mode": "magnitude"},
        "wpe": {"taps": 11, "delay": 4, "iterations": 2, "variance_floor": 1e-9,
                "delta": 1e-3, "variance_context": 0},
    }
    # wpe_only checks no model against the context or the bins, so each field changes alone
    base = _pipeline_config(tiny_corpus, "wpe_only", model=init_model([3 * 257, 4, 40], seed=1))
    # f_max at the Nyquist of 8 kHz: 16 and 8 kHz filterbanks then differ only in sample_rate
    base = dataclasses.replace(base, mel=dataclasses.replace(base.mel, f_max=4000.0))
    digest = config_hash(base.describe())
    fields = [f.name for f in dataclasses.fields(base)]
    assert sorted(base.describe()) == sorted(fields)
    top_level = {
        "mode": {"mode": "dnn_only"},
        "context": {"context": 2},
        "magnitude_floor": {"magnitude_floor": 1e-9},
        "model": {"model": init_model([3 * 257, 4, 40], seed=2)},
    }
    assert set(top_level) | set(changed) == set(fields)
    for name, values in top_level.items():
        assert config_hash(dataclasses.replace(base, **values).describe()) != digest, name
    for section, values in changed.items():
        assert set(values) == {f.name for f in dataclasses.fields(getattr(base, section))}
        for name, value in values.items():
            # stft and mel must agree on fft_size, so it changes in both
            sections = ("stft", "mel") if name == "fft_size" else (section,)
            variant = dataclasses.replace(base, **{
                s: dataclasses.replace(getattr(base, s), **{name: value}) for s in sections
            })
            assert config_hash(variant.describe()) != digest, (section, name)


def test_config_hash_names_the_mapper_weights(tiny_corpus, toy_mapper, tmp_path):
    model = toy_mapper.model_
    digest = config_hash(_pipeline_config(tiny_corpus, "dnn_only", model=model).describe())
    other = init_model(model.layer_dims, model.output_activation, seed=99, norm_spec=model.norm_spec)
    assert config_hash(_pipeline_config(tiny_corpus, "dnn_only", model=other).describe()) != digest
    save_model(tmp_path / "mapper.sfmd", model)
    reloaded, _ = load_model(tmp_path / "mapper.sfmd")
    assert config_hash(_pipeline_config(tiny_corpus, "dnn_only", model=reloaded).describe()) == digest


def reference_map(model, log_spec, context, filterbank, floor, mel_mode="power"):
    """The mapping unfused: the old context gather, normalize, forward in the
    model's dtype, then the float64 inversion. With a float64 model it is the
    mapping map_features ran before it mapped in float32; with the float32
    copy it is the mapping map_features runs now."""
    spec = model.norm_spec
    output = forward(model, normalize(gathered_context(log_spec, context), spec, "input")).output
    if spec.reference_mode == "global_minmax_01":
        return output, denormalize(output, spec)
    energy = np.exp((2.0 if mel_mode == "power" else 1.0) * log_spec)
    proxy_mel = np.log(np.maximum(energy @ filterbank.T, floor))
    mean, var = utterance_stats(proxy_mel, spec.epsilon)
    return output, invert_mvn(output, mean, var)


@pytest.fixture(scope="module")
def mappers(tiny_corpus, toy_mapper):
    """(model, context) for the toy mapper, [2827,128,128,40] in both recipes, paper size."""
    filterbank = mel_matrix(tiny_corpus.mel_config())
    train_x, train_y = training_features(tiny_corpus, "train")
    dev_x, dev_y = training_features(tiny_corpus, "dev")
    found = {"toy": (toy_mapper.model_, toy_mapper.context)}
    for recipe in ("original", "enhanced"):
        mapper = SpectralFeatureMapper(
            hidden_units=(128, 128), context=5, recipe=recipe,
            batch_size=128, learning_rate=0.05, max_epochs=3, seed=0,
        )
        mapper.fit(
            train_x, train_y, dev_x, dev_y, mel_filterbank=filterbank,
            mel_mode=tiny_corpus.mel_config().mode,
        )
        found[recipe] = (mapper.model_, 5)
    norm = fit_normalizer([assemble_context(x, 5) for x in train_x], train_y)
    found["paper"] = (init_model([2827, 2048, 2048, 40], "sigmoid", seed=0, norm_spec=norm), 5)
    return found


@pytest.mark.parametrize("name", ["toy", "original", "enhanced", "paper"])
def test_float32_mapping_matches_float64_forward(tiny_corpus, mappers, name):
    # Measured worst cases over the 12 test utterances, one or two OpenBLAS
    # threads: 1.1e-6 on the network output (enhanced recipe) and 7.4e-6
    # nats on log-mel features (paper-size mapper).
    model, context = mappers[name]
    filterbank = mel_matrix(tiny_corpus.mel_config())
    floor = tiny_corpus.feature_config["magnitude_floor"]
    params = [p.copy() for p in model.weights + model.biases]
    spec = model.norm_spec
    spec_arrays = {k: v.copy() for k, v in vars(spec).items() if isinstance(v, np.ndarray)}
    for log_spec in training_features(tiny_corpus, "test")[0]:
        untouched = log_spec.copy()
        mapped = map_features(model, log_spec, context, filterbank, floor)
        narrow = map_features(model.as_float32(), log_spec, context, filterbank, floor)
        assert np.array_equal(mapped.denormalized, narrow.denormalized)  # always float32
        # bit for bit against the unfused chain through the float32 copy
        output, features = reference_map(model.as_float32(), log_spec, context, filterbank, floor)
        assert mapped.normalized.tobytes() == output.astype(np.float64).tobytes()
        assert mapped.denormalized.tobytes() == features.tobytes()
        output, features = reference_map(model, log_spec, context, filterbank, floor)
        assert mapped.normalized.dtype == np.float64 and mapped.denormalized.dtype == np.float64
        assert np.max(np.abs(mapped.normalized - output)) <= 2e-6
        assert np.max(np.abs(mapped.denormalized - features)) <= 1.5e-5
        assert np.array_equal(log_spec, untouched)
    for before, after in zip(params, model.weights + model.biases):
        assert after.dtype == np.float64 and np.array_equal(before, after)
    for key, before in spec_arrays.items():
        assert getattr(spec, key).tobytes() == before.tobytes(), key
    if model.norm_spec.reference_mode == "utterance_mvn":
        # A magnitude-mode corpus inverts with magnitude-mel statistics, in
        # map_features and in the pipeline that passes it MelConfig.mode.
        power = _pipeline_config(tiny_corpus, "dnn_only", model=model, context=context)
        config = dataclasses.replace(power, mel=dataclasses.replace(power.mel, mode="magnitude"))
        for entry in tiny_corpus.split_entries("test"):
            wave = load_wav(tiny_corpus.resolve(entry.noisy_wav))
            log_spec = log_magnitude(stft(wave, config.stft), floor)
            mapped = map_features(model, log_spec, context, filterbank, floor, "magnitude")
            _, features = reference_map(model, log_spec, context, filterbank, floor, "magnitude")
            assert np.max(np.abs(mapped.denormalized - features)) <= 1.5e-5
            assert np.array_equal(enhance_utterance(wave, config).features, mapped.denormalized)


def test_pipeline_and_estimator_map_the_same_bits(tiny_corpus, toy_mapper):
    # enhance_utterance maps through the config's float32 copy, cast once
    # per config; SpectralFeatureMapper.transform casts the float64 model.
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "dnn_only", model=toy_mapper.model_)
    assert config.mapper.weights[0].dtype == np.float32
    assert config.mapper.as_float32() is config.mapper
    for entry in manifest.split_entries("test"):
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        logmag = log_magnitude(stft(wave, config.stft), config.magnitude_floor)
        (estimated,) = toy_mapper.transform([logmag])
        assert np.array_equal(enhance_utterance(wave, config).features, estimated)


def test_estimator_inverts_in_the_references_mel_mode(tmp_path):
    # The enhanced recipe inverts utterance-MVN outputs with the input's own
    # mel statistics; on a magnitude-mel corpus transform must take them in
    # magnitude mode, as the pipeline does, not with the power-mel proxy.
    manifest = build_corpus(
        CorpusConfig(utterance_seconds=1.0, n_train=3, n_dev=2, n_test=1, n_rirs=2,
                     n_noises=2, mel_mode="magnitude", seed=3),
        tmp_path,
    )
    mapper = SpectralFeatureMapper(
        hidden_units=(16, 16), context=1, recipe="enhanced",
        batch_size=64, learning_rate=0.05, max_epochs=2, seed=0,
    )
    mapper.fit(
        *training_features(manifest, "train"), *training_features(manifest, "dev"),
        mel_filterbank=mel_matrix(manifest.mel_config()), mel_mode=manifest.mel_config().mode,
    )
    config = _pipeline_config(manifest, "dnn_only", model=mapper.model_)
    test_inputs, _ = training_features(manifest, "test")
    for entry, log_spec in zip(manifest.split_entries("test"), test_inputs):
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        (estimated,) = mapper.transform([log_spec])
        assert np.array_equal(enhance_utterance(wave, config).features, estimated)


def test_batch_enhance_records_failures_and_continues(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    entries = manifest.split_entries("test")
    broken = manifest.resolve(entries[0].noisy_wav)
    original = broken.read_bytes()
    try:
        broken.write_bytes(b"RIFFgarbage")
        config = _pipeline_config(manifest, "baseline")
        result = batch_enhance(manifest, config, tmp_path / "partial", split="test")
        assert entries[0].id in result.failures
        assert len(result.features) == len(entries) - 1
    finally:
        broken.write_bytes(original)


def test_sixty_utterance_split_under_five_minutes(tmp_path):
    config = CorpusConfig(
        utterance_seconds=0.8, n_train=0, n_dev=0, n_test=10,
        n_rirs=2, n_noises=1, seed=21,
    )
    manifest = build_corpus(config, tmp_path / "perf")
    pipeline_config = PipelineConfig(
        mode="wpe_only", stft=manifest.stft_config(), mel=manifest.mel_config(), wpe=WpeConfig(),
    )
    started = time.perf_counter()
    result = batch_enhance(manifest, pipeline_config, tmp_path / "perf_out", split="test")
    elapsed = time.perf_counter() - started
    assert len(result.features) == 60
    assert elapsed < 300.0

import dataclasses
import itertools
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import float64_model, gathered_context, make_reverberant_pair, run_script
from specmap.audio import load_wav, save_wav
from specmap.cli import main
from specmap.corpus import CorpusConfig, build_corpus
from specmap.errors import ConfigError, ShapeError
from specmap.estimators import SpectralFeatureMapper, training_features
from specmap import _pool, pipeline, wpe as wpe_module
from specmap.featio import load_model, read_features, save_model
from specmap.features import (
    apply_mvn,
    assemble_context,
    denormalize,
    fit_normalizer,
    invert_mvn,
    utterance_stats,
)
from specmap.mel import log_mel, mel_matrix
from specmap.mlp import MlpModel, forward, init_model, map_features
from specmap.pipeline import PipelineConfig, batch_enhance, enhance_utterance
from specmap.runconfig import config_hash
from specmap.stft import log_magnitude, stft
from specmap.wpe import WpeConfig, wpe_dereverberate


def _toy_mapper(manifest, n_train=4):
    """Tiny mapper fitted on a few utterances of the shared corpus."""
    xs, ys = training_features(manifest, "train")
    mapper = SpectralFeatureMapper(
        hidden_units=(16, 16), context=1, recipe="original",
        batch_size=64, learning_rate=0.1, max_epochs=4, seed=0,
    )
    mapper.fit(xs[:n_train], ys[:n_train], mel_config=manifest.mel_config())
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
        assert (result.enhanced_waveform is not None) == (mode == "wpe_only"), mode


def test_cascade_composability(tiny_corpus, toy_mapper, monkeypatch):
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

    # Each mapping mode maps exactly the input training_features gives fit for the entry.
    mapped_inputs = []

    def recording_map_features(model, log_spec, *args):
        mapped_inputs.append(log_spec)
        return map_features(model, log_spec, *args)

    monkeypatch.setattr(pipeline, "map_features", recording_map_features)
    for mode, wpe in (("dnn_only", None), ("wpe_dnn", WpeConfig())):
        mapped_inputs.clear()
        enhance_utterance(wave, _pipeline_config(manifest, mode, toy_mapper.model_))
        trained_on = training_features(manifest, "test", wpe)[0][1]
        assert len(mapped_inputs) == 1, mode
        assert mapped_inputs[0].dtype == trained_on.dtype and mapped_inputs[0].shape == trained_on.shape
        assert mapped_inputs[0].tobytes() == trained_on.tobytes(), mode


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
    mapper.fit(xs, ys, mel_config=manifest.mel_config())

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
    with pytest.raises(ShapeError, match="n_mels"):  # 24 outputs for 40 mels
        _pipeline_config(manifest, "dnn_only", init_model([3 * 257, 4, 24], seed=1))


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


def _batch_runs(manifest, config, out_root, monkeypatch, split="dev", **kwargs):
    """batch_enhance on one thread and on two (a helper even on one CPU), by thread count."""
    runs = {}
    for threads in (1, 2):
        monkeypatch.setattr(_pool, "_thread_limit", threads)
        runs[threads] = batch_enhance(manifest, config, out_root / f"threads{threads}", split=split, **kwargs)
    return runs


def _log_without_seconds(result):
    records = [json.loads(line) for line in result.log_path.read_text().splitlines()]
    return [{k: v for k, v in record.items() if k != "seconds"} for record in records]


def test_batch_enhance_parallel_matches_serial(tiny_corpus, toy_mapper, tmp_path, monkeypatch):
    manifest = tiny_corpus
    for mode in pipeline.MODES:
        config = _pipeline_config(manifest, mode, model=toy_mapper.model_)
        runs = _batch_runs(manifest, config, tmp_path / mode, monkeypatch)
        assert runs[1].features == runs[2].features and runs[1].waveforms == runs[2].waveforms
        assert len(runs[1].features) == len(manifest.split_entries("dev")) and not runs[2].failures
        assert bool(runs[1].waveforms) == (mode == "wpe_only")
        assert _log_without_seconds(runs[1]) == _log_without_seconds(runs[2])
        for rel in [*runs[1].features.values(), *runs[1].waveforms.values()]:
            one, two = (tmp_path / mode / f"threads{n}" / rel for n in (1, 2))
            assert one.read_bytes() == two.read_bytes(), (mode, rel)


def test_batch_enhance_parallel_logs_per_utterance_seconds(tiny_corpus, tmp_path, monkeypatch):
    manifest = tiny_corpus
    entries = manifest.split_entries("test")
    broken = manifest.resolve(entries[0].noisy_wav)
    original = broken.read_bytes()
    config = _pipeline_config(manifest, "wpe_only")
    try:
        broken.write_bytes(b"RIFFgarbage")
        runs = _batch_runs(manifest, config, tmp_path, monkeypatch, split="test", save_waveforms=False)
    finally:
        broken.write_bytes(original)
    for result in runs.values():
        records = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [r["id"] for r in records] == [e.id for e in entries]
        ok_seconds = [r["seconds"] for r in records[1:]]
        assert all(r["status"] == "ok" for r in records[1:]) and min(ok_seconds) > 0
        # A file that fails to parse costs far less than enhancing one.
        assert records[0]["status"] == "failed" and records[0]["seconds"] < min(ok_seconds)
        assert list(result.failures) == [entries[0].id] and entries[0].id not in result.features
    assert runs[1].features == runs[2].features
    assert _log_without_seconds(runs[1]) == _log_without_seconds(runs[2])
    for rel in runs[1].features.values():
        assert (tmp_path / "threads1" / rel).read_bytes() == (tmp_path / "threads2" / rel).read_bytes()


def test_batch_enhance_stops_handing_out_utterances_after_a_write_fails(tiny_corpus, tmp_path, monkeypatch):
    # The first two utterances start together, one on each thread; the first
    # write fails while the other is still under way, and no thread starts
    # a third utterance.
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "baseline")
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    first_two = threading.Barrier(2, timeout=60)
    started, writes = itertools.count(), itertools.count()
    original_enhance, original_write = pipeline.enhance_utterance, pipeline.write_features

    def meeting(waveform, config):
        if next(started) < 2:
            first_two.wait()
        return original_enhance(waveform, config)

    def disk_full_once(path, features):
        if next(writes) == 0:
            raise OSError(28, "No space left on device")
        time.sleep(0.5)  # the failed write is recorded meanwhile
        return original_write(path, features)

    monkeypatch.setattr(pipeline, "enhance_utterance", meeting)
    monkeypatch.setattr(pipeline, "write_features", disk_full_once)
    with pytest.raises(OSError, match="No space left"):
        batch_enhance(manifest, config, tmp_path, split="test")
    assert next(started) == 2 < len(manifest.split_entries("test"))


BATCH_AFTER_THREADED_WPE = """
import os, sys
from pathlib import Path
from specmap import _pool
from specmap.corpus import CorpusManifest
from specmap.pipeline import PipelineConfig, batch_enhance

_pool._thread_limit = 2  # a helper thread even on one CPU
manifest = CorpusManifest.load(sys.argv[1])
config = PipelineConfig(
    mode="wpe_only", stft=manifest.stft_config(), mel=manifest.mel_config(),
)
out = Path(sys.argv[2])
batch_enhance(manifest, config, out / "parent", split="dev", save_waveforms=False)
pid = os.fork()
if pid == 0:
    code = 4
    try:
        runs = {}
        for threads in (2, 1):
            _pool._thread_limit = threads
            runs[threads] = batch_enhance(manifest, config, out / f"threads{threads}", split="dev")
        same = runs[1].features == runs[2].features and runs[1].waveforms == runs[2].waveforms
        for rel in [*runs[1].features.values(), *runs[1].waveforms.values()]:
            same = same and (out / "threads1" / rel).read_bytes() == (out / "threads2" / rel).read_bytes()
        code = 0 if same and runs[1].features and runs[1].waveforms else 3
    finally:
        os._exit(code)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_parallel_wpe_after_threaded_wpe_matches_serial(tiny_corpus, tmp_path):
    # A batch in a child forked from a parent whose wpe_only batch already
    # started helper threads must finish, and write the bytes of a one-thread
    # batch.
    manifest_path = tiny_corpus.root / "manifest.json"
    result = run_script(BATCH_AFTER_THREADED_WPE, manifest_path, tmp_path, timeout=300)
    assert result.returncode == 0, result.stderr
    n_dev = len(tiny_corpus.split_entries("dev"))
    for threads in (1, 2):
        assert len(list((tmp_path / f"threads{threads}" / "features").iterdir())) == n_dev


def test_batch_enhance_workers_run_wpe_on_one_thread(tiny_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", None)
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 4)
    monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", 1)  # many blocks per utterance
    original = wpe_module._dereverberate_block
    # id(result) -> (result, threads): holding the result keeps its id from
    # being reused by a later utterance's result on another thread.
    threads_per_call = {}

    def spy(data, config, bins, result):
        threads_per_call.setdefault(id(result), (result, set()))[1].add(threading.get_ident())
        return original(data, config, bins, result)

    monkeypatch.setattr(wpe_module, "_dereverberate_block", spy)
    config = _pipeline_config(tiny_corpus, "wpe_only")
    result = batch_enhance(tiny_corpus, config, tmp_path, split="dev", save_waveforms=False)
    assert len(result.features) == len(tiny_corpus.split_entries("dev"))
    assert len(threads_per_call) == len(result.features)
    assert all(len(threads) == 1 for _, threads in threads_per_call.values())


def test_batch_enhance_parallel_mapper_matches_serial(tiny_corpus, toy_mapper, tmp_path, monkeypatch):
    # The threads share one model, and every utterance maps as
    # enhance_utterance does on its own.
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "wpe_dnn", model=toy_mapper.model_)
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    result = batch_enhance(manifest, config, tmp_path, split="dev")
    assert not result.failures
    for entry in manifest.split_entries("dev"):
        expected = enhance_utterance(load_wav(manifest.resolve(entry.noisy_wav)), config).features
        written = read_features(tmp_path / result.features[entry.id])
        assert np.array_equal(written, expected.astype(np.float32))


def test_wpe_only_peak_memory_stays_within_a_few_spectrograms(monkeypatch):
    # While two utterances of a batch are in flight, each one's arrays add to
    # the process's peak: the noisy spectrogram is dropped once WPE is done,
    # the WPE result once its waveform is synthesized, and stft and istft
    # copy nothing they need not. Blocks of two bins keep WPE's own scratch
    # small beside the arrays measured here.
    monkeypatch.setattr(wpe_module, "_BLOCK_BYTES", 1)
    _, reverberant, _ = make_reverberant_pair(0, seconds=3.0)
    config = PipelineConfig(mode="wpe_only")
    noisy_bytes = stft(reverberant, config.stft).data.nbytes
    expected = enhance_utterance(reverberant, config)
    tracemalloc.start()
    try:
        features = enhance_utterance(reverberant, config).features
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(features, expected.features)
    assert peak <= 4 * noisy_bytes


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
                "fft_size": 1024, "mode": "magnitude", "magnitude_floor": 1e-9},
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


def test_describe_hashes_the_model_once_per_config_on_first_use(tiny_corpus, toy_mapper, tmp_path, monkeypatch):
    hashed = []
    identify = pipeline._identify_model
    monkeypatch.setattr(pipeline, "_identify_model", lambda model: hashed.append(model) or identify(model))
    config = _pipeline_config(tiny_corpus, "dnn_only", model=toy_mapper.model_)
    assert hashed == []  # not at construction
    described = config.describe()
    assert config.describe() == described
    result = batch_enhance(tiny_corpus, config, tmp_path, split="dev", save_waveforms=False)
    assert not result.failures
    assert len(hashed) == 1 and hashed[0] is toy_mapper.model_


def test_hand_built_float64_model_hashes_and_maps_as_its_checkpoint(tiny_corpus, toy_mapper, tmp_path):
    # A model built from float64 arrays holds them rounded as save_model
    # rounds them, so it and its reloaded checkpoint are one mapper.
    trained = toy_mapper.model_
    rng = np.random.default_rng(80)
    weights = [w + rng.normal(scale=1e-3, size=w.shape) for w in trained.weights]
    biases = [b + rng.normal(scale=1e-3, size=b.shape) for b in trained.biases]
    assert all(p.dtype == np.float64 for p in weights + biases)
    hand = MlpModel(weights, biases, trained.output_activation, trained.norm_spec, trained.seed)
    save_model(tmp_path / "hand.sfmd", hand)
    reloaded, _ = load_model(tmp_path / "hand.sfmd")
    configs = {name: _pipeline_config(tiny_corpus, "dnn_only", model=m)
               for name, m in (("hand", hand), ("reloaded", reloaded))}
    assert config_hash(configs["hand"].describe()) == config_hash(configs["reloaded"].describe())
    assert config_hash(configs["hand"].describe()) != config_hash(
        _pipeline_config(tiny_corpus, "dnn_only", model=trained).describe()
    )
    for name, config in configs.items():
        result = batch_enhance(tiny_corpus, config, tmp_path / name, split="test", save_waveforms=False)
        assert not result.failures
    for entry in tiny_corpus.split_entries("test"):
        written = [(tmp_path / name / "features" / f"{entry.id}.sfmf").read_bytes() for name in configs]
        assert written[0] == written[1]


def reference_map(model, log_spec, context, filterbank, floor, mel_mode="power"):
    """The mapping unfused: the old context gather, the float64 input MVN,
    forward in the model's dtype, then the float64 inversion. With a float64
    model it is the mapping map_features ran before it mapped in float32;
    with the float32 model itself it is the mapping map_features runs now."""
    spec = model.norm_spec
    windows = gathered_context(log_spec, context)
    if spec.input_mode == "global_mvn":
        stats = spec.input_mean, spec.input_var
    else:
        stats = utterance_stats(windows, spec.epsilon)
    output = forward(model, apply_mvn(windows, *stats)).output
    if spec.reference_mode == "global_minmax_01":
        return output, denormalize(output, spec)
    energy = np.exp((2.0 if mel_mode == "power" else 1.0) * log_spec)
    proxy_mel = np.log(np.maximum(energy @ filterbank.T, floor))
    mean, var = utterance_stats(proxy_mel, spec.epsilon)
    return output, invert_mvn(output, mean, var)


@pytest.fixture(scope="module")
def mappers(tiny_corpus, toy_mapper):
    """(model, context) for the toy mapper, [2827,128,128,40] in both recipes, and
    init_model's paper-size mapper."""
    train_x, train_y = training_features(tiny_corpus, "train")
    dev_x, dev_y = training_features(tiny_corpus, "dev")
    found = {"toy": (toy_mapper.model_, toy_mapper.context)}
    for recipe in ("original", "enhanced"):
        mapper = SpectralFeatureMapper(
            hidden_units=(128, 128), context=5, recipe=recipe,
            batch_size=128, learning_rate=0.05, max_epochs=3, seed=0,
        )
        mapper.fit(train_x, train_y, dev_x, dev_y, mel_config=tiny_corpus.mel_config())
        found[recipe] = (mapper.model_, 5)
    norm = fit_normalizer([assemble_context(x, 5) for x in train_x], train_y)
    paper = init_model([2827, 2048, 2048, 40], "sigmoid", seed=0, norm_spec=norm)
    found["paper"] = (paper, 5)
    return found


@pytest.mark.parametrize("name", ["toy", "original", "enhanced", "paper"])
def test_float32_mapping_matches_float64_forward(tiny_corpus, mappers, name):
    # Against the float64 forward of the same parameters. Measured worst
    # cases over the 12 test utterances, one or two OpenBLAS threads: 1.6e-6
    # on the network output (enhanced recipe, two threads) and 7.4e-6 nats
    # on log-mel features (paper-size mapper, one or two threads).
    model, context = mappers[name]
    wide = float64_model(model)
    filterbank = mel_matrix(tiny_corpus.mel_config())
    floor = tiny_corpus.feature_config["magnitude_floor"]
    params = [p.copy() for p in model.weights + model.biases]
    assert all(p.dtype == np.float32 for p in params)
    spec = model.norm_spec
    spec_arrays = {k: v.copy() for k, v in vars(spec).items() if isinstance(v, np.ndarray)}
    for log_spec in training_features(tiny_corpus, "test")[0]:
        untouched = log_spec.copy()
        mapped = map_features(model, log_spec, context, filterbank, floor)
        # bit for bit against the unfused chain through the float32 model
        output, features = reference_map(model, log_spec, context, filterbank, floor)
        assert mapped.normalized.tobytes() == output.astype(np.float64).tobytes()
        assert mapped.denormalized.tobytes() == features.tobytes()
        output, features = reference_map(wide, log_spec, context, filterbank, floor)
        assert mapped.normalized.dtype == np.float64 and mapped.denormalized.dtype == np.float64
        assert np.max(np.abs(mapped.normalized - output)) <= 2e-6
        assert np.max(np.abs(mapped.denormalized - features)) <= 1.5e-5
        assert np.array_equal(log_spec, untouched)
    for before, after in zip(params, model.weights + model.biases):
        assert after.dtype == before.dtype and np.array_equal(before, after)
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
            _, features = reference_map(wide, log_spec, context, filterbank, floor, "magnitude")
            assert np.max(np.abs(mapped.denormalized - features)) <= 1.5e-5
            assert np.array_equal(enhance_utterance(wave, config).features, mapped.denormalized)


def test_pipeline_and_estimator_map_the_same_bits(tiny_corpus, toy_mapper):
    # enhance_utterance and SpectralFeatureMapper.transform both map through
    # the trained float32 model itself.
    manifest = tiny_corpus
    config = _pipeline_config(manifest, "dnn_only", model=toy_mapper.model_)
    assert config.model.weights[0].dtype == np.float32
    for entry in manifest.split_entries("test"):
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        logmag = log_magnitude(stft(wave, config.stft), config.mel.magnitude_floor)
        (estimated,) = toy_mapper.transform([logmag])
        assert np.array_equal(enhance_utterance(wave, config).features, estimated)


@pytest.mark.parametrize("mel_mode", ["power", "magnitude"])
def test_estimator_and_cli_invert_with_the_references_mel_config(tmp_path, mel_mode):
    # The enhanced recipe inverts utterance-MVN outputs with the input's own
    # mel statistics, taken in the references' mel mode and floored at their
    # magnitude_floor. A quarter second of digital silence puts mel bands
    # under a 1e-2 floor, so a path that floored at another value, or took
    # the statistics in another mode, would map those frames apart.
    manifest = build_corpus(
        CorpusConfig(utterance_seconds=1.0, n_train=3, n_dev=2, n_test=1, n_rirs=2,
                     n_noises=2, mel_mode=mel_mode, magnitude_floor=1e-2, seed=3),
        tmp_path / "corpus",
    )
    mel = manifest.mel_config()
    entries = manifest.split_entries("test")
    silenced = manifest.resolve(entries[0].noisy_wav)
    wave = load_wav(silenced)
    wave.samples[:4000] = 0.0
    save_wav(wave, silenced, encoding="float32")
    mapper = SpectralFeatureMapper(
        hidden_units=(16, 16), context=1, recipe="enhanced",
        batch_size=64, learning_rate=0.05, max_epochs=2, seed=0,
    )
    mapper.fit(
        *training_features(manifest, "train"), *training_features(manifest, "dev"),
        mel_config=mel,
    )
    test_inputs, _ = training_features(manifest, "test")
    energy = np.exp((2.0 if mel_mode == "power" else 1.0) * test_inputs[0]) @ mel_matrix(mel).T
    # Floored magnitudes keep every magnitude-mel energy above the floor on
    # this corpus; power-mel energies of the silence fall under it.
    assert np.any(energy < mel.magnitude_floor) == (mel_mode == "power")

    # The CLI path: the checkpoint round trip, then the manifest's front end.
    checkpoint = tmp_path / "mapper.sfmd"
    save_model(checkpoint, mapper.model_)
    assert main([
        "enhance", "--manifest", str(manifest.root / "manifest.json"), "--out",
        str(tmp_path / "cli"), "--mode", "dnn_only", "--checkpoint", str(checkpoint),
    ]) == 0
    in_memory = _pipeline_config(manifest, "dnn_only", model=mapper.model_)
    reloaded = _pipeline_config(manifest, "dnn_only", model=load_model(checkpoint)[0])
    for entry, log_spec in zip(entries, test_inputs):
        (estimated,) = mapper.transform([log_spec])
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        assert np.array_equal(enhance_utterance(wave, in_memory).features, estimated)
        assert np.array_equal(enhance_utterance(wave, reloaded).features, estimated)
        written = read_features(tmp_path / "cli" / "features" / f"{entry.id}.sfmf")
        assert np.array_equal(written, estimated.astype(np.float32))


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

import json

import numpy as np
import pytest

from specmap.audio import Waveform, load_wav
from specmap.corpus import (
    CorpusConfig,
    CorpusManifest,
    ManifestEntry,
    RirConfig,
    build_corpus,
    convolve,
    mix_at_snr,
    synth_noise,
    synth_rir,
    synth_speech,
)
from specmap.cli import main
from specmap.errors import ConfigError, ManifestError, NumericError
from specmap.featio import read_features
from specmap.stft import stft


def test_rir_direct_impulse_and_determinism():
    config = RirConfig(t60=0.4, length=4000, seed=5)
    rir = synth_rir(config, 16000)
    assert rir.samples[0] == 1.0 and len(rir.samples) == 4000
    again = synth_rir(config, 16000)
    assert np.array_equal(rir.samples, again.samples)
    assert np.array_equal(synth_rir(RirConfig(length=1), 16000).samples, [1.0])
    with pytest.raises(ConfigError, match="length"):
        RirConfig(length=0)
    with pytest.raises(ConfigError, match="length must be an integer >= 1, got 8000.5"):
        RirConfig(length=8000.5)


def test_rir_tail_energy_matches_direct():
    rir = synth_rir(RirConfig(t60=0.5, length=8000, seed=1), 16000)
    assert np.sum(rir.samples[1:] ** 2) == pytest.approx(1.0)


def schroeder_decay_slope(tail: np.ndarray, sample_rate: int) -> float:
    """dB/s slope of the smoothed squared tail, fit over its early region."""
    window = int(0.005 * sample_rate)
    squared = tail ** 2
    smoothed = np.convolve(squared, np.ones(window) / window, mode="valid")
    t = np.arange(len(smoothed)) / sample_rate
    use = slice(0, int(len(smoothed) * 0.6))
    level_db = 10.0 * np.log10(np.maximum(smoothed[use], 1e-30))
    slope = np.polyfit(t[use], level_db, 1)[0]
    return slope


@pytest.mark.parametrize("t60", [0.3, 0.5])
def test_rir_decay_matches_t60(t60):
    sample_rate = 16000
    rir = synth_rir(RirConfig(t60=t60, length=int(t60 * sample_rate), seed=9), sample_rate)
    slope = schroeder_decay_slope(rir.samples[1:], sample_rate)
    expected = -60.0 / t60
    assert abs(slope - expected) <= 0.15 * abs(expected)


def test_convolve_identity_and_shift():
    rng = np.random.default_rng(0)
    x = Waveform(rng.normal(size=100), 16000)
    unit = Waveform(np.array([1.0]), 16000)
    assert np.allclose(convolve(x, unit).samples, x.samples)
    delayed = np.zeros(8)
    delayed[5] = 1.0
    shifted = convolve(x, Waveform(delayed, 16000)).samples
    assert np.allclose(shifted[5:105], x.samples)
    assert np.allclose(shifted[:5], 0.0)


def test_convolve_matches_direct_sum_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=37)
    b = rng.normal(size=11)
    mine = convolve(Waveform(a, 16000), Waveform(b, 16000)).samples
    oracle = np.zeros(47)
    for i in range(37):
        for j in range(11):
            oracle[i + j] += a[i] * b[j]
    assert np.max(np.abs(mine - oracle)) < 1e-10


def test_fft_convolution_agrees_with_direct():
    rng = np.random.default_rng(2)
    a = rng.normal(size=5000)
    b = rng.normal(size=2000)
    mine = convolve(Waveform(a, 16000), Waveform(b, 16000)).samples
    direct = np.convolve(a, b)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(mine - direct)) < 1e-9 * scale


def test_convolve_sample_rate_mismatch():
    with pytest.raises(ConfigError):
        convolve(Waveform(np.zeros(4), 16000), Waveform(np.zeros(2), 8000))


def test_mix_equal_power_alphas():
    rng = np.random.default_rng(3)
    base = rng.normal(size=8000)
    clean = Waveform(base, 16000)
    noise = Waveform(base.copy(), 16000)  # identical power, zero-offset crop
    result = mix_at_snr(clean, noise, 0.0, np.random.default_rng(0))
    assert result.alpha == pytest.approx(1.0)
    result20 = mix_at_snr(clean, noise, 20.0, np.random.default_rng(0))
    assert result20.alpha == pytest.approx(0.1)


def test_mix_measured_snr_matches_target():
    rng = np.random.default_rng(4)
    clean = Waveform(rng.normal(size=6000), 16000)
    noise = Waveform(rng.normal(size=20000), 16000)
    for target in (-6.0, 0.0, 9.0):
        result = mix_at_snr(clean, noise, target, np.random.default_rng(11))
        measured = 10.0 * np.log10(
            np.mean(clean.samples ** 2) / np.mean(result.noise_component ** 2)
        )
        assert abs(measured - target) < 1e-6
        assert np.array_equal(result.mixed.samples, clean.samples + result.noise_component)


def test_mix_error_cases():
    clean = Waveform(np.ones(100), 16000)
    noise = Waveform(np.ones(200), 16000)
    with pytest.raises(NumericError):
        mix_at_snr(Waveform(np.zeros(100), 16000), noise, 0.0, np.random.default_rng(0))
    with pytest.raises(NumericError):
        mix_at_snr(clean, Waveform(np.zeros(200), 16000), 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        mix_at_snr(clean, Waveform(np.ones(50), 16000), 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ManifestEntry("e", "train", "c", "n", "r", float("inf"), "c.wav", "r.wav", "n.wav", "f.sfmf")
    for snr in (3, -2.5, np.float64(6.0), None):
        assert ManifestEntry("e", "test", "c", "n", "r", snr, "c.wav", "r.wav", "n.wav", "f.sfmf").snr_db == snr


def test_synth_speech_properties():
    wave = synth_speech(1.0, 16000, 3)
    assert len(wave) == 16000
    assert np.max(np.abs(wave.samples)) == pytest.approx(0.5)
    assert np.array_equal(wave.samples, synth_speech(1.0, 16000, 3).samples)
    assert not np.array_equal(wave.samples, synth_speech(1.0, 16000, 4).samples)


def test_synth_noise_colors():
    for color in ("white", "pink", "brown", "rumble"):
        wave = synth_noise(1.0, 16000, 5, color)
        assert len(wave) == 16000
        assert np.sqrt(np.mean(wave.samples ** 2)) == pytest.approx(0.08)
    spectrum_white = np.abs(np.fft.rfft(synth_noise(2.0, 16000, 6, "white").samples))
    spectrum_rumble = np.abs(np.fft.rfft(synth_noise(2.0, 16000, 6, "rumble").samples))
    freqs = np.fft.rfftfreq(32000, 1 / 16000)
    high = freqs > 2000
    low = (freqs > 20) & (freqs < 200)
    ratio_white = spectrum_white[high].mean() / spectrum_white[low].mean()
    ratio_rumble = spectrum_rumble[high].mean() / spectrum_rumble[low].mean()
    assert ratio_rumble < 0.05 * ratio_white


def test_build_corpus_structure(tiny_corpus):
    manifest = tiny_corpus
    grid = 6
    assert len(manifest.split_entries("train")) == 3 * grid
    assert len(manifest.split_entries("dev")) == 2 * grid
    assert len(manifest.split_entries("test")) == 2 * grid
    test_snrs = {e.snr_db for e in manifest.split_entries("test")}
    assert test_snrs == {-6.0, -3.0, 0.0, 3.0, 6.0, 9.0}

    entry = manifest.split_entries("test")[0]
    clean = load_wav(manifest.resolve(entry.clean_wav))
    reverberant = load_wav(manifest.resolve(entry.reverberant_wav))
    noisy = load_wav(manifest.resolve(entry.noisy_wav))
    assert len(clean) == len(reverberant) == len(noisy)
    reference = read_features(manifest.resolve(entry.reference_features))
    frames = stft(noisy, manifest.stft_config()).n_frames
    assert reference.shape == (frames, 40)


def test_reverberant_aligned_with_clean(tiny_corpus):
    # build_corpus puts each RIR's direct path at sample 0, so the
    # cross-correlation must peak at lag 0
    entry = tiny_corpus.split_entries("train")[0]
    clean = load_wav(tiny_corpus.resolve(entry.clean_wav)).samples
    reverberant = load_wav(tiny_corpus.resolve(entry.reverberant_wav)).samples
    lags = range(-5, 6)
    scores = [float(np.dot(clean[5:-5], reverberant[5 + lag: len(clean) - 5 + lag])) for lag in lags]
    assert list(lags)[int(np.argmax(scores))] == 0


def test_manifest_roundtrip(tiny_corpus):
    reloaded = CorpusManifest.load(tiny_corpus.root / "manifest.json")
    assert len(reloaded.entries) == len(tiny_corpus.entries)
    assert reloaded.feature_config == tiny_corpus.feature_config
    assert reloaded.split_entries("dev")[0].id == tiny_corpus.split_entries("dev")[0].id


def _drop_hop(payload):
    del payload["feature_config"]["hop"]


def _add_feature_key(payload):
    payload["feature_config"]["preemphasis"] = 0.97


def _drop_noisy_wav(payload):
    del payload["entries"][0]["noisy_wav"]


def _noisy_wav_as_number(payload):
    payload["entries"][0]["noisy_wav"] = 5


def _id_as_number(payload):
    payload["entries"][0]["id"] = 5


def _as_list(payload):
    return list(payload.values())


def _repeat_an_id(payload):
    payload["entries"].append(next(e for e in payload["entries"] if e["split"] == "test"))


def _front_end(key, value):
    """Damage that sets a value the manifest's STFT or mel configuration rejects."""
    def damage(payload):
        (payload if key == "sample_rate" else payload["feature_config"])[key] = value
    return pytest.param(damage, id=f"{key}={value}")


def _test_snr(value):
    """Damage that gives every test entry an snr_db that is not a finite number."""
    def damage(payload):
        for entry in payload["entries"]:
            if entry["split"] == "test":
                entry["snr_db"] = value
    return pytest.param(damage, id=f"snr_db={value!r}")


@pytest.mark.parametrize(
    "damage",
    [
        _test_snr([3.0]), _test_snr(True), _test_snr("3"),
        _drop_hop, _add_feature_key, _drop_noisy_wav, _noisy_wav_as_number, _id_as_number, _as_list,
        _repeat_an_id,
        _front_end("hop", "x"), _front_end("magnitude_floor", -1), _front_end("n_mels", 0),
        _front_end("window", "blackman"), _front_end("sample_rate", 0),
        _front_end("hop", 160.5), _front_end("fft_size", 512.0), _front_end("n_mels", 40.5),
        _front_end("sample_rate", 16000.5), _front_end("sample_rate", "16000"),
    ],
)
def test_malformed_manifest_is_a_manifest_error(tiny_corpus, tmp_path, capsys, damage):
    payload = json.loads((tiny_corpus.root / "manifest.json").read_text())
    payload = damage(payload) or payload
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ManifestError):
        CorpusManifest.load(path)
    assert main(["enhance", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_build_corpus_rerun_is_byte_identical(tmp_path):
    config = CorpusConfig(
        utterance_seconds=0.6, n_train=1, n_dev=1, n_test=1,
        snr_grid=(0.0, 9.0), n_rirs=1, n_noises=1, seed=3,
    )
    first = build_corpus(config, tmp_path / "a")
    second = build_corpus(config, tmp_path / "b")
    rel_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert rel_files
    for rel in rel_files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    assert [e.id for e in first.entries] == [e.id for e in second.entries]


def test_build_corpus_with_an_empty_snr_grid_adds_no_noise(tmp_path):
    config = CorpusConfig(
        utterance_seconds=0.6, n_train=0, n_dev=0, n_test=3, snr_grid=(), n_rirs=1, seed=4,
    )
    manifest = build_corpus(config, tmp_path / "nn")
    entries = manifest.split_entries("test")
    assert len(entries) == 3
    assert all(e.snr_db is None and e.noise_id is None for e in entries)
    assert all(e.rir_id == "test_rir0" for e in entries)
    assert not list((tmp_path / "nn" / "noise").iterdir())
    noisy = load_wav(manifest.resolve(entries[0].noisy_wav))
    reverberant = load_wav(manifest.resolve(entries[0].reverberant_wav))
    assert np.array_equal(noisy.samples, reverberant.samples)


def test_build_corpus_with_no_rirs_adds_no_reverberation(tmp_path):
    config = CorpusConfig(
        utterance_seconds=0.6, n_train=1, n_dev=1, n_test=2, snr_grid=(-6.0, 9.0), n_rirs=0,
        n_noises=1, seed=4,
    )
    root = tmp_path / "noise_only"
    manifest = build_corpus(config, root)
    assert len(manifest.entries) == (1 + 1 + 2) * 2
    assert {e.snr_db for e in manifest.entries} == {-6.0, 9.0}
    assert all(e.rir_id is None for e in manifest.entries)
    assert not list((root / "rir").iterdir())
    for entry in manifest.entries:
        reverberant = manifest.resolve(entry.reverberant_wav).read_bytes()
        assert reverberant == manifest.resolve(entry.clean_wav).read_bytes(), entry.id


@pytest.mark.parametrize("setting, named", [
    ({"t60": -0.5}, "t60"),
    ({"n_rirs": -1}, "n_rirs"),
    ({"snr_grid": (0.0, 3.0, 0.0)}, "distinct, repeated: ['snr0']"),
    ({"snr_grid": (3, 3.0)}, "distinct, repeated: ['snr3']"),
    ({"snr_grid": (1.5, 1.5000001)}, "distinct, repeated: ['snr1p5']"),  # one label, one mix seed
    ({"snr_grid": (0.0, float("nan"))}, "finite numbers, got nan"),
    ({"snr_grid": (float("inf"),)}, "finite numbers, got inf"),
    ({"snr_grid": (-float("inf"),)}, "finite numbers, got -inf"),
    ({"snr_grid": ("3",)}, "finite numbers, got '3'"),
    ({"snr_grid": (True,)}, "finite numbers, got True"),
    ({"snr_grid": (None,)}, "finite numbers, got None"),
    ({"n_rirs": 1.5}, "n_rirs must be an integer >= 0, got 1.5"),
    ({"n_train": 2.0}, "n_train must be an integer >= 0, got 2.0"),
    ({"n_dev": True}, "n_dev must be an integer >= 0, got True"),
    ({"n_test": "3"}, "n_test must be an integer >= 0, got '3'"),
    ({"n_noises": 1.5}, "n_noises must be an integer >= 1, got 1.5"),
    ({"n_noises": 0.5, "snr_grid": ()}, "n_noises must be an integer >= 0, got 0.5"),
    ({"frame_len": 400.0}, "frame_len must be an integer >= 1, got 400.0"),
    ({"hop": 160.5}, "hop must be an integer >= 1, got 160.5"),
    ({"fft_size": 512.0}, "fft_size must be an integer >= 1, got 512.0"),
    ({"n_mels": 40.5}, "n_mels must be an integer >= 1, got 40.5"),
])
def test_invalid_corpus_config_names_field(tmp_path, setting, named):
    out = tmp_path / "corpus"
    with pytest.raises(ConfigError) as excinfo:
        build_corpus(CorpusConfig(**setting), out)
    assert named in str(excinfo.value)
    assert not out.exists()


def test_a_corpus_without_noise_or_reverberation_needs_no_noise_or_rir_count():
    CorpusConfig(snr_grid=(), n_noises=0, n_rirs=0)
    CorpusConfig(snr_grid=(np.float64(-6.0), np.int64(3)))
    with pytest.raises(ConfigError, match="n_noises"):
        CorpusConfig(n_noises=0)

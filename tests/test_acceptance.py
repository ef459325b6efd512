"""Acceptance suite: one test per shipping criterion.

Run `pytest -v -s tests/test_acceptance.py` to get one PASS/FAIL line per
criterion. The heavier criteria share a module-scoped fixture that builds a
synthetic corpus and trains the reduced-size mapper once.
"""

import time

import numpy as np
import pytest

from conftest import float64_model, make_reverberant_pair, relative_error
from specmap.audio import Waveform, load_wav
from specmap.cli import main as cli_main
from specmap.corpus import CorpusConfig, build_corpus
from specmap.estimators import SpectralFeatureMapper, training_features
from specmap.featio import read_features
from specmap.mel import log_mel, mel_matrix
from specmap.metrics import log_spectral_distortion, mel_mse
from specmap.mlp import (
    TrainConfig,
    evaluate_cost,
    init_model,
    loss_and_gradients,
    make_dropout_masks,
    train,
)
from specmap.pipeline import PipelineConfig, enhance_utterance
from specmap.report import build_report, SystemEvaluation, ConditionMetrics
from specmap.stft import StftConfig, istft, log_magnitude, stft
from specmap.wpe import WpeConfig, wpe_dereverberate

SNR_GRID = (-6.0, -3.0, 0.0, 3.0, 6.0, 9.0)
LOW_SNRS = (-6.0, -3.0, 0.0, 3.0)
HIGH_SNRS = (6.0, 9.0)

# Frozen settings for the trend/convergence criteria (6-8).
GRID_CORPUS = dict(n_train=50, n_dev=10, n_test=5, n_rirs=5, noise_color="rumble", seed=0)
MAPPER_SETTINGS = dict(
    hidden_units=(128, 128), context=5, recipe="original",
    batch_size=128, learning_rate=0.05, max_epochs=12, seed=0,
)
DNN_DEV_REDUCTION_THRESHOLD = 0.30


def _criterion(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_01_stft_roundtrip():
    started = time.perf_counter()
    config = StftConfig(frame_len=400, hop=200, fft_size=512, window="hann")
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        wave = Waveform(rng.normal(size=6400), 16000)
        rec = istft(stft(wave, config))
        lo, hi = config.frame_len, len(rec) - config.frame_len
        err = np.linalg.norm(rec.samples[lo:hi] - wave.samples[lo:hi])
        worst = max(worst, err / np.linalg.norm(wave.samples[lo:hi]))
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        "hann/50% STFT round-trip interior error <= 1e-6 over 100 signals in < 10 s",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_oracle():
    started = time.perf_counter()
    step = 1e-5
    worst = 0.0
    for activation in ("sigmoid", "linear"):
        for dropout in (False, True):
            model = float64_model(init_model([6, 5, 5, 3], activation, seed=31))
            rng = np.random.default_rng(17)
            x = rng.normal(size=(4, 6))
            y = rng.uniform(0.2, 0.8, size=(4, 3))
            masks = (
                make_dropout_masks(np.random.default_rng(5), [5, 5], 4, 0.3)
                if dropout else None
            )
            _, grads_w, grads_b = loss_and_gradients(model, x, y, masks)
            for layer in range(3):
                pairs = (
                    (model.weights[layer], grads_w[layer]),
                    (model.biases[layer], grads_b[layer]),
                )
                for params, grads in pairs:
                    it = np.nditer(params, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        original = params[idx]
                        params[idx] = original + step
                        up = loss_and_gradients(model, x, y, masks)[0]
                        params[idx] = original - step
                        down = loss_and_gradients(model, x, y, masks)[0]
                        params[idx] = original
                        fd = (up - down) / (2 * step)
                        worst = max(worst, float(relative_error(grads[idx], fd)))
    elapsed = time.perf_counter() - started
    _criterion(
        2,
        "backprop matches central finite differences (<= 1e-4) on [6,5,5,3] in < 10 s",
        worst <= 1e-4 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def reverb_only_utterances():
    pairs = [make_reverberant_pair(seed, t60=0.5, seconds=1.5) for seed in range(20)]
    return [(clean, reverberant) for clean, reverberant, _ in pairs]


def test_criterion_03_wpe_improves_lsd(reverb_only_utterances):
    started = time.perf_counter()
    config = StftConfig()
    improved = 0
    for clean, reverberant in reverb_only_utterances:
        clean_log = log_magnitude(stft(clean, config))
        reverb_spec = stft(reverberant, config)
        enhanced = wpe_dereverberate(reverb_spec, WpeConfig()).enhanced
        before = log_spectral_distortion(log_magnitude(reverb_spec), clean_log)
        after = log_spectral_distortion(log_magnitude(enhanced), clean_log)
        improved += after < before
    elapsed = time.perf_counter() - started
    _criterion(
        3,
        "dereverberation lowers LSD vs clean on >= 18/20 reverb-only utterances in < 2 min",
        improved >= 18 and elapsed < 120.0,
        f"improved={improved}/20, {elapsed:.1f}s",
    )


def test_criterion_04_wpe_objective_monotone(reverb_only_utterances):
    _, reverberant = reverb_only_utterances[0]
    spec = stft(reverberant, StftConfig())
    result = wpe_dereverberate(spec, WpeConfig(iterations=3, variance_context=0))
    diffs = np.diff(result.objective, axis=0)
    _criterion(
        4,
        "per-bin prediction objective non-increasing across 3 iterations (slack 1e-9)",
        bool(np.all(diffs <= 1e-9)),
        f"max increase={float(diffs.max()):.3e} over {spec.n_bins} bins",
    )


def test_criterion_05_early_stop_oracle():
    # Each case learns a noisy linear map from 24 frames, so its dev cost
    # reaches its lowest value at an epoch that varies from case to case.
    mismatches, best_epochs = 0, []
    for case in range(40):
        rng = np.random.default_rng(case)
        w = rng.normal(size=(4, 2))
        x = rng.normal(size=(24, 4))
        y = x @ w + rng.normal(size=(24, 2))
        dev_x = rng.normal(size=(10, 4))
        dev_y = dev_x @ w + rng.normal(0.0, 0.5, size=2)
        activation = ("linear", "sigmoid")[case % 2]
        if activation == "sigmoid":
            y, dev_y = 1.0 / (1.0 + np.exp(-y)), 1.0 / (1.0 + np.exp(-dev_y))

        def run(max_epochs, early_stop):
            config = TrainConfig(
                batch_size=8, learning_rate=0.1, max_epochs=max_epochs,
                dropout_rate=(0.0, 0.2)[case // 2 % 2], early_stop=early_stop, rng_seed=case,
            )
            model = init_model([4, 12, 2], activation, seed=100 + case)
            return train(model, x, y, config, dev_x, dev_y)

        stopped, history = run(12, True)
        best = history.best_epoch
        best_epochs.append(best)
        fresh, _ = run(best, False)
        same_bytes = all(
            a.tobytes() == b.tobytes()
            for a, b in zip(stopped.weights + stopped.biases, fresh.weights + fresh.biases)
        )
        if not (
            len(history.dev_cost) == 12
            and best == 1 + int(np.argmin(history.dev_cost))
            and same_bytes
            and evaluate_cost(stopped, dev_x, dev_y) == min(history.dev_cost)
        ):
            mismatches += 1
    _criterion(
        5,
        "early stopping returns the first epoch of lowest dev cost, bit for bit, on 40 runs",
        mismatches == 0,
        f"mismatches={mismatches}, best epochs {min(best_epochs)}-{max(best_epochs)}, "
        f"{sum(1 < b < 12 for b in best_epochs)} between the first and last",
    )


@pytest.fixture(scope="module")
def grid_setup(tmp_path_factory):
    """Corpus, trained mappers and per-system test metrics for criteria 6-8."""
    started = time.perf_counter()
    root = tmp_path_factory.mktemp("acceptance_grid")
    manifest = build_corpus(CorpusConfig(**GRID_CORPUS), root)
    stft_cfg = manifest.stft_config()
    filterbank = mel_matrix(manifest.mel_config())
    floor = manifest.feature_config["magnitude_floor"]
    wpe_cfg = WpeConfig()

    train_x, train_y = training_features(manifest, "train")
    dev_x, dev_y = training_features(manifest, "dev")
    mapper = SpectralFeatureMapper(**MAPPER_SETTINGS)
    mapper.fit(train_x, train_y, dev_x, dev_y, mel_config=manifest.mel_config())

    baseline_dev, mapped_dev = [], []
    for entry, x in zip(manifest.split_entries("dev"), dev_x):
        reference = read_features(manifest.resolve(entry.reference_features))
        spec = stft(load_wav(manifest.resolve(entry.noisy_wav)), stft_cfg)
        baseline_dev.append(mel_mse(log_mel(spec, filterbank, floor), reference))
        mapped_dev.append(mel_mse(mapper.transform([x])[0], reference))
    dev_reduction = 1.0 - np.mean(mapped_dev) / np.mean(baseline_dev)

    matched_x, _ = training_features(manifest, "train", wpe_cfg)
    matched_dev_x, _ = training_features(manifest, "dev", wpe_cfg)
    matched = SpectralFeatureMapper(**MAPPER_SETTINGS)
    matched.fit(matched_x, train_y, matched_dev_x, dev_y, mel_config=manifest.mel_config())

    configs = {
        "baseline": PipelineConfig(mode="baseline", stft=stft_cfg, mel=manifest.mel_config()),
        "wpe_only": PipelineConfig(mode="wpe_only", stft=stft_cfg, mel=manifest.mel_config(),
                                   wpe=wpe_cfg),
        "dnn_only": PipelineConfig(mode="dnn_only", stft=stft_cfg, mel=manifest.mel_config(),
                                   context=5, model=mapper.model_),
        "wpe_dnn": PipelineConfig(mode="wpe_dnn", stft=stft_cfg, mel=manifest.mel_config(),
                                  context=5, wpe=wpe_cfg, model=matched.model_),
    }
    per_system = {name: {snr: [] for snr in SNR_GRID} for name in configs}
    for entry in manifest.split_entries("test"):
        wave = load_wav(manifest.resolve(entry.noisy_wav))
        reference = read_features(manifest.resolve(entry.reference_features))
        for name, config in configs.items():
            feats = enhance_utterance(wave, config).features
            per_system[name][entry.snr_db].append(mel_mse(feats, reference))

    means = {
        name: {snr: float(np.mean(values)) for snr, values in by_snr.items()}
        for name, by_snr in per_system.items()
    }
    return {
        "dev_reduction": float(dev_reduction),
        "model_dims": mapper.model_.layer_dims,
        "means": means,
        "per_system": per_system,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_06_toy_mapping_convergence(grid_setup):
    reduction = grid_setup["dev_reduction"]
    dims_ok = grid_setup["model_dims"] == [2827, 128, 128, 40]
    _criterion(
        6,
        "reduced mapper [2827,128,128,40] cuts dev mel MSE by >= 30% vs unenhanced in < 15 min",
        dims_ok and reduction >= DNN_DEV_REDUCTION_THRESHOLD and grid_setup["elapsed"] < 900.0,
        f"reduction={reduction * 100:.1f}%, dims={grid_setup['model_dims']}, "
        f"{grid_setup['elapsed']:.0f}s incl. matched model and test enhancement",
    )


def _reductions(means, system):
    return {
        snr: (means["baseline"][snr] - means[system][snr]) / means["baseline"][snr]
        for snr in SNR_GRID
    }


def test_criterion_07_trend_shapes(grid_setup):
    means = grid_setup["means"]
    dnn = _reductions(means, "dnn_only")
    wpe = _reductions(means, "wpe_only")
    low = float(np.mean([dnn[snr] for snr in LOW_SNRS]))
    high = float(np.mean([dnn[snr] for snr in HIGH_SNRS]))
    mapper_trend = low > high
    wpe_trend = wpe[9.0] >= wpe[-6.0]
    _criterion(
        7,
        "mapper helps relatively more at low SNR; dereverberation more at high SNR",
        mapper_trend and wpe_trend,
        f"dnn low={low * 100:.1f}% vs high={high * 100:.1f}%; "
        f"wpe +9dB={wpe[9.0] * 100:.1f}% vs -6dB={wpe[-6.0] * 100:.1f}%",
    )


def test_criterion_08_cascade_consistency(grid_setup):
    per_system = grid_setup["per_system"]
    cascade = float(np.mean([v for values in per_system["wpe_dnn"].values() for v in values]))
    alone = float(np.mean([v for values in per_system["dnn_only"].values() for v in values]))
    _criterion(
        8,
        "matched-trained cascade mean mel MSE <= mapper-only mean mel MSE",
        cascade <= alone,
        f"cascade={cascade:.3f} vs mapper-only={alone:.3f}",
    )


def test_criterion_09_report_average_convention():
    values = [26.8, 20.6, 16.2, 13.2, 10.6, 9.7]

    def evaluation(name, mode):
        conditions = []
        for snr, value in zip(SNR_GRID, values):
            utt = f"u{snr:+.0f}"
            conditions.append(ConditionMetrics(
                snr_db=snr,
                utterances=[utt],
                per_utterance={"mel_mse": {utt: value}, "lsd_db": {utt: None},
                               "segsnr_gain_db": {utt: None}},
            ))
        return SystemEvaluation(name, mode, "test", conditions)

    report = build_report([evaluation("baseline", "baseline"), evaluation("other", "wpe_only")])
    average = report.averages["baseline"]["mel_mse"]
    _criterion(
        9,
        "report average of {26.8, 20.6, 16.2, 13.2, 10.6, 9.7} is 16.2 within 0.05",
        abs(average - 16.2) <= 0.05,
        f"avg={average:.4f}",
    )


def _end_to_end_run(root):
    corpus = root / "corpus"
    assert cli_main([
        "simulate", "--out", str(corpus), "--seed", "17",
        "--set", "utterance_seconds=0.8", "--set", "n_train=3", "--set", "n_dev=2",
        "--set", "n_test=2", "--set", "n_rirs=2", "--set", "n_noises=1",
        "--set", "noise_color=rumble",
    ]) == 0
    manifest = str(corpus / "manifest.json")
    model_dir = root / "model"
    assert cli_main([
        "train", "--manifest", manifest, "--out", str(model_dir),
        "--recipe", "original", "--seed", "17",
        "--set", "hidden_units=12,12", "--set", "context=1",
        "--set", "batch_size=64", "--set", "learning_rate=0.1", "--set", "max_epochs=2",
    ]) == 0
    checkpoint = str(model_dir / "model.sfmd")
    eval_paths = []
    for mode in ("baseline", "wpe_only", "dnn_only", "wpe_dnn"):
        system_dir = root / f"sys_{mode}"
        args = ["enhance", "--manifest", manifest, "--out", str(system_dir), "--mode", mode]
        if mode in ("dnn_only", "wpe_dnn"):
            args += ["--checkpoint", checkpoint]
        assert cli_main(args) == 0
        eval_path = root / f"eval_{mode}.json"
        assert cli_main([
            "evaluate", "--manifest", manifest, "--system-dir", str(system_dir),
            "--out", str(eval_path),
        ]) == 0
        eval_paths.append(str(eval_path))
    report_dir = root / "report"
    assert cli_main(["report", "--inputs", *eval_paths, "--out", str(report_dir)]) == 0
    artifacts = {}
    for path in sorted(report_dir.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(report_dir))] = path.read_bytes()
    return artifacts


def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    first = _end_to_end_run(tmp_path / "run1")
    second = _end_to_end_run(tmp_path / "run2")
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[name] == second[name] for name in first)
    elapsed = time.perf_counter() - started
    _criterion(
        10,
        "two simulate->train->enhance->report runs from one seed yield byte-identical reports",
        same_bytes and len(first) > 0,
        f"{len(first)} report artifact(s), {elapsed:.0f}s for both runs",
    )

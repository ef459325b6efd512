import csv
import dataclasses
import json

import numpy as np
import pytest

import specmap
from specmap import estimators
from specmap.cli import main
from specmap.corpus import CorpusConfig
from specmap.estimators import SpectralFeatureMapper
from specmap.featio import load_model, read_features, save_model
from specmap.mlp import early_stop_decision
from specmap.wpe import WpeConfig

BASE_OVERRIDES = [
    "--set", "utterance_seconds=0.8",
    "--set", "n_train=3", "--set", "n_dev=2", "--set", "n_test=2",
    "--set", "n_rirs=2", "--set", "n_noises=1", "--set", "noise_color=rumble",
]

TRAIN_OVERRIDES = [
    "--set", "hidden=12,12", "--set", "context=1",
    "--set", "batch_size=64", "--set", "learning_rate=0.1", "--set", "max_epochs=2",
]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(["simulate", "--out", str(out), "--seed", "5", *BASE_OVERRIDES])
    assert code == 0
    return out


def test_simulate_writes_manifest_and_config(cli_corpus):
    manifest = json.loads((cli_corpus / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert len(manifest["entries"]) == (3 + 2 + 2) * 6
    frozen = (cli_corpus / "config.resolved").read_text()
    assert "seed=5" in frozen


def test_every_exported_name_resolves():
    missing = [name for name in specmap.__all__ if not hasattr(specmap, name)]
    assert not missing
    namespace = {}
    exec("from specmap import *", namespace)
    assert set(specmap.__all__) <= set(namespace)


def test_simulate_seed_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(a), "--seed", "9", *BASE_OVERRIDES]) == 0
    assert main(["simulate", "--out", str(b), "--seed", "9", *BASE_OVERRIDES]) == 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_simulate_invalid_t60_names_field(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "x"), "--set", "t60=-1"])
    assert code == 1
    assert "t60" in capsys.readouterr().err


def test_unknown_mode_and_usage_errors(tmp_path, capsys):
    assert main(["enhance", "--manifest", "nope.json", "--out", str(tmp_path)]) == 2
    code = main(["bogus-command"])
    assert code == 1


def test_train_original_and_enhance_flow(cli_corpus, tmp_path):
    manifest_path = str(cli_corpus / "manifest.json")
    train_dir = tmp_path / "model"
    code = main([
        "train", "--manifest", manifest_path, "--out", str(train_dir),
        "--recipe", "original", "--seed", "3", *TRAIN_OVERRIDES,
    ])
    assert code == 0
    model, config = load_model(train_dir / "model.sfmd")
    assert model.layer_dims == [3 * 257, 12, 12, 40]
    assert config["recipe"] == "original"
    history = json.loads((train_dir / "history.json").read_text())
    assert history["stop_reason"] == "max_epochs"
    assert len(history["train_cost"]) == 2

    enhance_dir = tmp_path / "enhanced"
    code = main([
        "enhance", "--manifest", manifest_path, "--out", str(enhance_dir),
        "--mode", "dnn_only", "--checkpoint", str(train_dir / "model.sfmd"),
    ])
    assert code == 0
    features = sorted((enhance_dir / "features").glob("*.sfmf"))
    assert len(features) == 12
    assert read_features(features[0]).shape[1] == 40


def test_flags_override_the_config_keys_they_name(cli_corpus, tmp_path):
    manifest = str(cli_corpus / "manifest.json")
    train_dir = tmp_path / "model"
    assert main([
        "train", "--manifest", manifest, "--out", str(train_dir),
        "--recipe", "enhanced", "--set", "recipe=original", *TRAIN_OVERRIDES,
    ]) == 0
    model, config = load_model(train_dir / "model.sfmd")
    assert config["recipe"] == "enhanced" and model.output_activation == "linear"
    enhance_dir = tmp_path / "enhanced"
    assert main([
        "enhance", "--manifest", manifest, "--out", str(enhance_dir),
        "--mode", "baseline", "--jobs", "2", "--set", "mode=wpe_only", "--set", "jobs=1",
    ]) == 0
    resolved = (enhance_dir / "config.resolved").read_text().splitlines()
    assert "mode=baseline" in resolved and "jobs=2" in resolved


@pytest.mark.parametrize("command, flag", [
    ("report", "--config"), ("report", "--seed"), ("report", "--set"),
    ("enhance", "--seed"), ("evaluate", "--seed"),
])
def test_commands_reject_options_they_do_not_read(tmp_path, capsys, command, flag):
    required = {
        "report": ["--inputs", "a.json", "--out", str(tmp_path)],
        "enhance": ["--manifest", "m.json", "--out", str(tmp_path)],
        "evaluate": ["--manifest", "m.json", "--system-dir", str(tmp_path), "--out", "e.json"],
    }[command]
    assert main([command, *required, flag, "1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def _resolved_keys(out_dir) -> set:
    return {line.split("=", 1)[0] for line in (out_dir / "config.resolved").read_text().splitlines()}


def test_config_resolved_holds_exactly_the_derived_keys(cli_corpus, tmp_path):
    manifest = str(cli_corpus / "manifest.json")
    train_dir, enhance_dir = tmp_path / "model", tmp_path / "enhanced"
    assert main(["train", "--manifest", manifest, "--out", str(train_dir), *TRAIN_OVERRIDES]) == 0
    assert main(["enhance", "--manifest", manifest, "--out", str(enhance_dir)]) == 0
    wpe_keys = {f"wpe_{f.name}" for f in dataclasses.fields(WpeConfig)}
    mapper_keys = {
        "hidden" if name == "hidden_units" else name for name in SpectralFeatureMapper().get_params()
    }
    assert _resolved_keys(cli_corpus) == {f.name for f in dataclasses.fields(CorpusConfig)}
    assert _resolved_keys(train_dir) == mapper_keys | {"input_processing"} | wpe_keys
    assert _resolved_keys(enhance_dir) == {"mode", "split", "jobs", "save_waveforms"} | wpe_keys


def test_enhance_rejects_a_checkpoint_of_another_sample_rate(cli_corpus, tmp_path, capsys):
    manifest = str(cli_corpus / "manifest.json")
    assert main(["train", "--manifest", manifest, "--out", str(tmp_path / "m"), *TRAIN_OVERRIDES]) == 0
    model, config = load_model(tmp_path / "m" / "model.sfmd")
    checkpoint = tmp_path / "other_rate.sfmd"
    save_model(checkpoint, model, config={**config, "sample_rate": 32000})
    code = main([
        "enhance", "--manifest", manifest, "--out", str(tmp_path / "x"),
        "--mode", "dnn_only", "--checkpoint", str(checkpoint),
    ])
    assert code == 1
    assert "sample_rate" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_enhanced_requires_dev_split(tmp_path, capsys):
    out = tmp_path / "nodev"
    assert main([
        "simulate", "--out", str(out), "--seed", "2",
        "--set", "utterance_seconds=0.8", "--set", "n_train=2",
        "--set", "n_dev=0", "--set", "n_test=1", "--set", "n_rirs=1", "--set", "n_noises=1",
    ]) == 0
    code = main([
        "train", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "m"),
        "--recipe", "enhanced", *TRAIN_OVERRIDES,
    ])
    assert code == 1
    assert "cross-validates" in capsys.readouterr().err


def test_train_enhanced_recipe_records_consistent_history(cli_corpus, tmp_path):
    train_dir = tmp_path / "enhanced_model"
    code = main([
        "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(train_dir),
        "--recipe", "enhanced", "--seed", "4",
        "--set", "hidden=12,12", "--set", "context=1",
        "--set", "batch_size=64", "--set", "learning_rate=0.1", "--set", "max_epochs=6",
        "--set", "dropout_rate=0.1",
    ])
    assert code == 0
    model, config = load_model(train_dir / "model.sfmd")
    assert model.output_activation == "linear"
    assert model.norm_spec.input_mode == "utterance_mvn"
    history = json.loads((train_dir / "history.json").read_text())
    # recompute the stop rule from the logged dev costs
    costs = history["dev_cost"]
    expected_reason = "max_epochs"
    for epoch in range(1, len(costs) + 1):
        reason = early_stop_decision(costs[:epoch])
        if reason is not None:
            expected_reason = reason
            assert epoch == len(costs)
            break
    assert history["stop_reason"] == expected_reason
    if expected_reason != "max_epochs":
        assert history["best_epoch"] == len(costs) - 1


def test_rerun_from_config_resolved_reproduces_artifacts(cli_corpus, tmp_path):
    manifest = str(cli_corpus / "manifest.json")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([
        "train", "--manifest", manifest, "--out", str(first), "--seed", "6",
        "--set", "input_processing=wpe", *TRAIN_OVERRIDES,
    ]) == 0
    assert main([
        "train", "--manifest", manifest, "--out", str(second),
        "--config", str(first / "config.resolved"),
    ]) == 0
    corpus = tmp_path / "corpus"
    assert main(["simulate", "--out", str(corpus), "--config", str(cli_corpus / "config.resolved")]) == 0
    for name in ("model.sfmd", "history.json", "config.resolved"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    for name in ("manifest.json", "config.resolved"):
        assert (cli_corpus / name).read_bytes() == (corpus / name).read_bytes(), name


def test_wpe_delta_override_reaches_wpe_config(cli_corpus, tmp_path, monkeypatch):
    deltas = []
    dereverberate = estimators.wpe_dereverberate

    def recording(spectrogram, config):
        deltas.append(config.delta)
        return dereverberate(spectrogram, config)

    monkeypatch.setattr(estimators, "wpe_dereverberate", recording)
    out = tmp_path / "m"
    assert main([
        "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(out),
        "--set", "input_processing=wpe", "--set", "wpe_delta=1e-3", *TRAIN_OVERRIDES,
    ]) == 0
    assert deltas and set(deltas) == {1e-3}
    assert "wpe_delta=0.001" in (out / "config.resolved").read_text()


@pytest.mark.parametrize("value, named", [("-1", "delta"), ("abc", "wpe_delta")])
def test_bad_wpe_delta_is_a_config_error(cli_corpus, tmp_path, capsys, value, named):
    code = main([
        "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(tmp_path / "m"),
        "--set", f"wpe_delta={value}", *TRAIN_OVERRIDES,
    ])
    assert code == 1
    assert named in capsys.readouterr().err


def test_enhance_baseline_needs_no_checkpoint(cli_corpus, tmp_path):
    out = tmp_path / "base"
    code = main([
        "enhance", "--manifest", str(cli_corpus / "manifest.json"),
        "--out", str(out), "--mode", "baseline",
    ])
    assert code == 0
    assert (out / "config.resolved").exists()


def test_enhance_dnn_without_checkpoint_fails(cli_corpus, tmp_path, capsys):
    code = main([
        "enhance", "--manifest", str(cli_corpus / "manifest.json"),
        "--out", str(tmp_path / "x"), "--mode", "wpe_dnn",
    ])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_evaluate_and_report_flow(cli_corpus, tmp_path, capsys):
    manifest_path = str(cli_corpus / "manifest.json")
    base_dir = tmp_path / "sys_base"
    wpe_dir = tmp_path / "sys_wpe"
    assert main(["enhance", "--manifest", manifest_path, "--out", str(base_dir), "--mode", "baseline"]) == 0
    assert main(["enhance", "--manifest", manifest_path, "--out", str(wpe_dir), "--mode", "wpe_only"]) == 0

    base_eval = tmp_path / "base.json"
    wpe_eval = tmp_path / "wpe.json"
    assert main(["evaluate", "--manifest", manifest_path, "--system-dir", str(base_dir), "--out", str(base_eval)]) == 0
    assert main(["evaluate", "--manifest", manifest_path, "--system-dir", str(wpe_dir), "--out", str(wpe_eval)]) == 0

    report_dir = tmp_path / "report"
    assert main(["report", "--inputs", str(base_eval), str(wpe_eval), "--out", str(report_dir)]) == 0
    with open(report_dir / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 8  # header + 6 SNRs + avg
    header = rows[0]
    value_column = header.index("wpe_only:mel_mse")
    parsed = [float(r[value_column]) for r in rows[1:]]
    assert all(np.isfinite(parsed))

    # single-system report is a config error
    code = main(["report", "--inputs", str(base_eval), "--out", str(tmp_path / "r2")])
    assert code == 1
    assert "baseline" in capsys.readouterr().err


def test_report_csv_parses_back_to_identical_values(cli_corpus, tmp_path):
    manifest_path = str(cli_corpus / "manifest.json")
    base_dir = tmp_path / "sb"
    assert main(["enhance", "--manifest", manifest_path, "--out", str(base_dir), "--mode", "baseline"]) == 0
    base_eval = tmp_path / "b.json"
    assert main(["evaluate", "--manifest", manifest_path, "--system-dir", str(base_dir), "--out", str(base_eval)]) == 0
    other_eval = tmp_path / "o.json"
    payload = json.loads(base_eval.read_text())
    payload["system"] = "other"
    other_eval.write_text(json.dumps(payload))
    report_dir = tmp_path / "rep"
    assert main(["report", "--inputs", str(base_eval), str(other_eval), "--out", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    with open(report_dir / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    col = header.index("baseline:mel_mse")
    for row in rows[1:-1]:
        snr_key = f"{float(row[0]):g}"
        assert float(row[col]) == report["means"]["baseline"]["mel_mse"][snr_key]

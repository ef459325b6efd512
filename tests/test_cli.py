import csv
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import run_script
import specmap
from specmap import _pool, cli, estimators
from specmap.audio import Waveform, load_wav, save_wav
from specmap.cli import TRAIN_DEFAULTS, main
from specmap.corpus import CorpusConfig, CorpusManifest
from specmap.estimators import SpectralFeatureMapper
from specmap.featio import load_model, read_features, save_model, write_features
from specmap.features import NormalizationSpec
from specmap.mlp import init_model
from specmap.runconfig import resolve_config, write_resolved
from specmap.wpe import WpeConfig

BASE_OVERRIDES = [
    "--set", "utterance_seconds=0.8",
    "--set", "n_train=3", "--set", "n_dev=2", "--set", "n_test=2",
    "--set", "n_rirs=2", "--set", "n_noises=1", "--set", "noise_color=rumble",
]

TRAIN_OVERRIDES = [
    "--set", "hidden_units=12,12", "--set", "context=1",
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


def _readme_walkthrough_commands():
    """The specmap command lines of README's CLI walkthrough, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = (line.strip() for line in block.splitlines())
    return [shlex.split(line, comments=True) for line in lines if line.startswith("specmap ")]


def test_readme_cli_walkthrough_names_only_real_keys_and_choices():
    # Parsed as the CLI parses it, which checks every --mode and --recipe
    # choice; nothing runs. Each --set key must then be one of its command's.
    defaults = {
        "simulate": cli.SIMULATE_DEFAULTS, "train": cli.TRAIN_DEFAULTS,
        "enhance": cli.ENHANCE_DEFAULTS, "evaluate": cli.EVALUATE_DEFAULTS,
    }
    commands = _readme_walkthrough_commands()
    for tokens in commands:
        args = cli.build_parser().parse_args(tokens[1:])
        if args.command in defaults:
            resolve_config(defaults[args.command], overrides=args.overrides)
    assert {tokens[1] for tokens in commands} == {"simulate", "train", "enhance", "evaluate", "report"}
    assert sum("--set" in tokens for tokens in commands) >= 3


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


@pytest.mark.parametrize("setting", ["n_mels=0", "n_mels=200", "window=blackman", "f_max=9000"])
def test_simulate_with_a_bad_front_end_writes_nothing(tmp_path, capsys, setting):
    out = tmp_path / "corpus"
    assert main(["simulate", "--out", str(out), *BASE_OVERRIDES, "--set", setting]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0,0", "nan", "inf", "3,-6,3.0"])
def test_simulate_refuses_an_snr_grid_it_cannot_build_and_writes_nothing(tmp_path, capsys, grid):
    out = tmp_path / "corpus"
    assert main(["simulate", "--out", str(out), *BASE_OVERRIDES, "--set", f"snr_grid={grid}"]) == 1
    assert capsys.readouterr().err.startswith("configuration error: snr_grid values must be ")
    assert not out.exists()


def test_simulate_with_an_empty_snr_grid_reruns_from_its_config_resolved(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    overrides = [*BASE_OVERRIDES, "--set", "snr_grid=", "--set", "n_rirs=0"]
    assert main(["simulate", "--out", str(first), *overrides]) == 0
    assert main(["simulate", "--out", str(second), "--config", str(first / "config.resolved")]) == 0
    manifest = CorpusManifest.load(first / "manifest.json")
    assert len(manifest.entries) == 3 + 2 + 2
    assert all(e.snr_db is None and e.rir_id is None for e in manifest.entries)
    for name in ("manifest.json", "config.resolved"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command, old_key", [
    ("simulate", "add_noise=true"), ("simulate", "reverb=false"), ("train", "hidden=12,12"),
])
def test_a_config_resolved_with_a_removed_key_is_refused(cli_corpus, tmp_path, capsys, command, old_key):
    # add_noise and reverb are gone (an empty snr_grid, n_rirs=0), and hidden
    # is spelled hidden_units like the mapper parameter it sets.
    old = tmp_path / "old.resolved"
    if command == "simulate":
        old.write_text((cli_corpus / "config.resolved").read_text() + old_key + "\n")
        args = ["simulate", "--out", str(tmp_path / "x")]
    else:
        write_resolved({k: v for k, v in TRAIN_DEFAULTS.items() if k != "hidden_units"}, tmp_path)
        old.write_text((tmp_path / "config.resolved").read_text() + old_key + "\n")
        args = ["train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(tmp_path / "x")]
    assert main([*args, "--config", str(old)]) == 1
    key = old_key.split("=")[0]
    assert capsys.readouterr().err == f"configuration error: config file: unknown configuration key {key!r}\n"
    assert not (tmp_path / "x").exists()


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
    assert sorted(history) == ["best_epoch", "dev_cost", "train_cost"]
    assert history["best_epoch"] == len(history["train_cost"]) == 2

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
        "--mode", "baseline", "--set", "mode=wpe_only", "--set", "save_waveforms=false",
    ]) == 0
    resolved = (enhance_dir / "config.resolved").read_text().splitlines()
    assert "mode=baseline" in resolved and "save_waveforms=false" in resolved


@pytest.mark.parametrize("command, flag", [
    ("report", "--config"), ("report", "--seed"), ("report", "--set"),
    ("enhance", "--seed"), ("enhance", "--jobs"), ("evaluate", "--seed"),
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
    mapper_keys = set(SpectralFeatureMapper().get_params())
    assert _resolved_keys(cli_corpus) == {f.name for f in dataclasses.fields(CorpusConfig)}
    assert _resolved_keys(train_dir) == mapper_keys | {"input_processing"} | wpe_keys
    assert _resolved_keys(enhance_dir) == {"mode", "split", "save_waveforms"} | wpe_keys


def test_enhance_rejects_a_config_resolved_that_sets_jobs(cli_corpus, tmp_path, capsys):
    # --jobs and its key are gone: a config.resolved written before then is refused.
    manifest = str(cli_corpus / "manifest.json")
    first = tmp_path / "first"
    assert main(["enhance", "--manifest", manifest, "--out", str(first)]) == 0
    old = tmp_path / "old.resolved"
    old.write_text((first / "config.resolved").read_text() + "jobs=1\n")
    code = main(["enhance", "--manifest", manifest, "--out", str(tmp_path / "x"), "--config", str(old)])
    assert code == 1
    assert "unknown configuration key 'jobs'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_wpe_dnn_refuses_a_mapper_trained_on_other_wpe_settings(cli_corpus, tmp_path, capsys):
    manifest = str(cli_corpus / "manifest.json")
    model_dir = tmp_path / "m"
    assert main([
        "train", "--manifest", manifest, "--out", str(model_dir),
        "--set", "input_processing=wpe", "--set", "wpe_taps=5", *TRAIN_OVERRIDES,
    ]) == 0
    _, config = load_model(model_dir / "model.sfmd")
    assert config["wpe"] == dataclasses.asdict(WpeConfig(taps=5))
    assert "input_processing" not in config and "context" not in config
    enhance = [
        "enhance", "--manifest", manifest, "--mode", "wpe_dnn",
        "--checkpoint", str(model_dir / "model.sfmd"), "--set", "save_waveforms=false",
    ]
    assert main([*enhance, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: checkpoint was trained on WPE output with {")
    assert "'taps': 5" in err and "'taps': 10" in err
    assert not (tmp_path / "x").exists()
    assert main([*enhance, "--out", str(tmp_path / "y"), "--set", "wpe_taps=5"]) == 0


def test_dnn_only_refuses_a_mapper_trained_on_wpe_output(cli_corpus, tmp_path, capsys):
    # dnn_only feeds the mapper noisy inputs, which a WPE-trained mapper never saw.
    manifest = str(cli_corpus / "manifest.json")
    model_dir = tmp_path / "m"
    assert main([
        "train", "--manifest", manifest, "--out", str(model_dir),
        "--set", "input_processing=wpe", *TRAIN_OVERRIDES,
    ]) == 0
    enhance = [
        "enhance", "--manifest", manifest, "--checkpoint", str(model_dir / "model.sfmd"),
        "--set", "save_waveforms=false",
    ]
    assert main([*enhance, "--out", str(tmp_path / "x"), "--mode", "dnn_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: checkpoint was trained on WPE output with {")
    assert err.endswith(", not noisy inputs\n")
    assert not (tmp_path / "x").exists()
    assert main([*enhance, "--out", str(tmp_path / "y"), "--mode", "wpe_dnn"]) == 0


def test_enhance_rejects_a_mapper_of_another_output_width(tmp_path):
    # A library-saved checkpoint stores no front end, so only the mapper's
    # 40 outputs can tell it does not fit a 24-mel manifest.
    corpus = tmp_path / "mel24"
    assert main(["simulate", "--out", str(corpus), *BASE_OVERRIDES, "--set", "n_mels=24"]) == 0
    checkpoint = tmp_path / "mapper.sfmd"
    spec = NormalizationSpec(input_mode="utterance_mvn", reference_mode="utterance_mvn")
    save_model(checkpoint, init_model([3 * 257, 4, 40], "linear", seed=1, norm_spec=spec))
    done = run_script(
        "import sys; from specmap.cli import main; sys.exit(main(sys.argv[1:]))",
        "enhance", "--manifest", corpus / "manifest.json", "--out", tmp_path / "x",
        "--mode", "dnn_only", "--checkpoint", checkpoint,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "n_mels 24" in done.stderr
    assert "Traceback" not in done.stderr
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


def test_train_names_a_truncated_noisy_wav_and_writes_no_model(cli_corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 2)  # a helper thread even on one CPU
    manifest = CorpusManifest.load(cli_corpus / "manifest.json")
    broken = manifest.resolve(manifest.split_entries("train")[1].noisy_wav)
    original = broken.read_bytes()
    try:
        broken.write_bytes(original[:len(original) // 2])
        code = main([
            "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(tmp_path / "m"),
            *TRAIN_OVERRIDES,
        ])
    finally:
        broken.write_bytes(original)
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        f"error: {broken}: declared data length exceeds actual file size"
    ]
    assert "Traceback" not in err
    assert not (tmp_path / "m" / "model.sfmd").exists()


@pytest.mark.parametrize("recipe", ["original", "enhanced"])
@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_names_a_reference_of_another_width_and_writes_no_model(
    cli_corpus, tmp_path, capsys, split, recipe
):
    manifest = CorpusManifest.load(cli_corpus / "manifest.json")
    narrow = manifest.resolve(manifest.split_entries(split)[1].reference_features)
    original = narrow.read_bytes()
    try:
        write_features(narrow, read_features(narrow)[:, :-1])  # 39 of the 40 mels
        code = main([
            "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(tmp_path / "m"),
            "--recipe", recipe, *TRAIN_OVERRIDES,
        ])
    finally:
        narrow.write_bytes(original)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: reference utterances must share one width")
    assert "Traceback" not in err
    assert not (tmp_path / "m" / "model.sfmd").exists()


def test_train_enhanced_recipe_records_consistent_history(cli_corpus, tmp_path, capsys):
    train_dir = tmp_path / "enhanced_model"
    code = main([
        "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(train_dir),
        "--recipe", "enhanced", "--seed", "4",
        "--set", "hidden_units=12,12", "--set", "context=1",
        "--set", "batch_size=64", "--set", "learning_rate=0.1", "--set", "max_epochs=6",
        "--set", "dropout_rate=0.1",
    ])
    assert code == 0
    model, config = load_model(train_dir / "model.sfmd")
    assert model.output_activation == "linear"
    assert model.norm_spec.input_mode == "utterance_mvn"
    history = json.loads((train_dir / "history.json").read_text())
    # every epoch runs, and the kept one is the first of lowest dev cost
    costs = history["dev_cost"]
    assert len(costs) == len(history["train_cost"]) == 6
    assert history["best_epoch"] == 1 + int(np.argmin(costs))
    assert f"epochs: 6, best_epoch: {history['best_epoch']}\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("learning_rate, code, message", [
    ("inf", 1, "configuration error: learning_rate must be finite"),
    ("1e300", 2, "error: training diverged"),
], ids=["inf", "1e300"])
def test_train_writes_no_model_with_non_finite_parameters(cli_corpus, tmp_path, capsys, learning_rate, code, message):
    # One epoch of one batch: the only step is the last, so no later batch
    # cost is left to show that it diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        got = main([
            "train", "--manifest", str(cli_corpus / "manifest.json"), "--out", str(tmp_path / "m"),
            *TRAIN_OVERRIDES, "--set", f"learning_rate={learning_rate}",
            "--set", "batch_size=100000", "--set", "max_epochs=1",
        ])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "m" / "model.sfmd").exists()


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


def test_enhance_wpe_dnn_writes_no_waveform_and_scores_none(cli_corpus, tmp_path):
    manifest = str(cli_corpus / "manifest.json")
    train_dir, system = tmp_path / "model", tmp_path / "sys_wpe_dnn"
    assert main([
        "train", "--manifest", manifest, "--out", str(train_dir), *TRAIN_OVERRIDES,
        "--set", "input_processing=wpe",
    ]) == 0
    assert main([
        "enhance", "--manifest", manifest, "--out", str(system), "--mode", "wpe_dnn",
        "--checkpoint", str(train_dir / "model.sfmd"),
    ]) == 0
    assert not (system / "waveforms").exists()
    assert len(list((system / "features").glob("*.sfmf"))) == 12
    records = [json.loads(line) for line in (system / "run_log.jsonl").read_text().splitlines()]
    assert records and all("waveform" not in r for r in records)
    evaluation_path = tmp_path / "eval_wpe_dnn.json"
    assert main([
        "evaluate", "--manifest", manifest, "--system-dir", str(system), "--out", str(evaluation_path),
    ]) == 0
    for cond in json.loads(evaluation_path.read_text())["conditions"]:
        assert cond["means"]["mel_mse"] is not None
        for metric in ("lsd_db", "segsnr_gain_db"):
            assert cond["means"][metric] is None
            assert set(cond["per_utterance"][metric].values()) == {None}


def _rewrite_at_rate(path, sample_rate):
    """Rewrite a WAV with another sample rate in its header and the same samples."""
    save_wav(Waveform(load_wav(path).samples, sample_rate), path, encoding="float32")


@pytest.mark.parametrize("reader", ["train", "enhance", "evaluate_clean", "evaluate_system_waveform"])
def test_a_wav_at_another_sample_rate_is_refused(cli_corpus, tmp_path, capsys, reader):
    manifest_path = str(cli_corpus / "manifest.json")
    manifest = CorpusManifest.load(manifest_path)
    system = tmp_path / "system"
    mode = "wpe_only" if reader == "evaluate_system_waveform" else "baseline"
    if reader.startswith("evaluate"):
        assert main(["enhance", "--manifest", manifest_path, "--out", str(system), "--mode", mode]) == 0
    entry = manifest.split_entries("train" if reader == "train" else "test")[1]
    path = {
        "train": manifest.resolve(entry.noisy_wav),
        "enhance": manifest.resolve(entry.noisy_wav),
        "evaluate_clean": manifest.resolve(entry.clean_wav),
        "evaluate_system_waveform": system / "waveforms" / f"{entry.id}.wav",
    }[reader]
    command = {
        "train": ["train", "--manifest", manifest_path, "--out", str(tmp_path / "m"), *TRAIN_OVERRIDES],
        "enhance": ["enhance", "--manifest", manifest_path, "--out", str(system), "--mode", mode],
    }.get(reader, [
        "evaluate", "--manifest", manifest_path, "--system-dir", str(system),
        "--out", str(tmp_path / "eval.json"),
    ])
    original = path.read_bytes()
    capsys.readouterr()
    try:
        _rewrite_at_rate(path, 8000)
        code = main(command)
    finally:
        path.write_bytes(original)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}: sample rate 8000 != manifest rate 16000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists() and not (tmp_path / "eval.json").exists()

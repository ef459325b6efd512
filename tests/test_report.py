import csv
import json
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from specmap.cli import main
from specmap.errors import ConfigError, ManifestError, ShapeError, SpecmapError
from specmap.featio import read_features, write_features
from specmap import _pool, corpus, report
from specmap.pipeline import PipelineConfig, batch_enhance
from specmap.report import (
    ConditionMetrics,
    SystemEvaluation,
    build_report,
    condition_average,
    evaluate_system,
    write_plot_data,
    write_report_csv,
    write_report_json,
)

SNRS = (-6.0, -3.0, 0.0, 3.0, 6.0, 9.0)


def synthetic_evaluation(name, values, mode="baseline"):
    conditions = []
    for snr, value in zip(SNRS, values):
        utt = f"u{snr:+.0f}"
        conditions.append(
            ConditionMetrics(
                snr_db=snr,
                utterances=[utt],
                per_utterance={
                    "mel_mse": {utt: value},
                    "lsd_db": {utt: value / 2.0},
                    "segsnr_gain_db": {utt: None},
                },
            )
        )
    return SystemEvaluation(name, mode, "test", conditions)


def test_condition_average_matches_table_convention():
    values = [26.8, 20.6, 16.2, 13.2, 10.6, 9.7]
    assert abs(condition_average(values) - 16.2) <= 0.05


def test_self_comparison_has_zero_reductions():
    baseline = synthetic_evaluation("baseline", [26.8, 20.6, 16.2, 13.2, 10.6, 9.7])
    mirror = synthetic_evaluation("mirror", [26.8, 20.6, 16.2, 13.2, 10.6, 9.7], mode="wpe_only")
    report = build_report([baseline, mirror])
    for snr in SNRS:
        assert report.reductions["mirror"]["mel_mse"][snr] == pytest.approx(0.0)
    assert report.average_reductions["mirror"]["mel_mse"]["of_average"] == pytest.approx(0.0)
    assert report.averages["baseline"]["mel_mse"] == pytest.approx(np.mean([26.8, 20.6, 16.2, 13.2, 10.6, 9.7]))


def test_scaled_system_reduction_is_ten_percent():
    values = [26.8, 20.6, 16.2, 13.2, 10.6, 9.7]
    baseline = synthetic_evaluation("baseline", values)
    better = synthetic_evaluation("better", [v * 0.9 for v in values], mode="dnn_only")
    report = build_report([baseline, better])
    for snr in SNRS:
        assert report.reductions["better"]["mel_mse"][snr] == pytest.approx(0.1)
    avg = report.average_reductions["better"]["mel_mse"]
    assert avg["of_average"] == pytest.approx(0.1)
    assert avg["mean_of_conditions"] == pytest.approx(0.1)


def test_report_requires_baseline_and_two_systems():
    only = synthetic_evaluation("baseline", [1, 2, 3, 4, 5, 6])
    with pytest.raises(ConfigError):
        build_report([only])
    other = synthetic_evaluation("other", [1, 2, 3, 4, 5, 6], mode="dnn_only")
    with pytest.raises(ConfigError):
        build_report([other, synthetic_evaluation("other2", [1, 2, 3, 4, 5, 6], mode="dnn_only")])


def test_mismatched_utterance_sets_rejected():
    baseline = synthetic_evaluation("baseline", [1, 2, 3, 4, 5, 6])
    other = synthetic_evaluation("sys", [1, 2, 3, 4, 5, 6], mode="dnn_only")
    other.conditions[0].utterances = ["different"]
    with pytest.raises(SpecmapError):
        build_report([baseline, other])


def test_csv_shape_and_parse_back(tmp_path):
    values = [26.8, 20.6, 16.2, 13.2, 10.6, 9.7]
    systems = [synthetic_evaluation("baseline", values)]
    for i, name in enumerate(("wpe_only", "dnn_only", "wpe_dnn")):
        systems.append(
            synthetic_evaluation(name, [v * (0.9 - 0.1 * i) for v in values], mode=name)
        )
    report = build_report(systems)
    path = write_report_csv(report, tmp_path / "report.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert len(data) == 7  # six SNR rows plus the avg row
    systems = ("baseline", "wpe_only", "dnn_only", "wpe_dnn")
    assert header == (
        ["snr_db"]
        + [f"{s}:{m}" for s in systems for m in ("mel_mse", "lsd_db", "segsnr_gain_db")]
        + [f"{s}:mel_mse_reduction" for s in systems[1:]]
    )
    assert data[-1][0] == "avg"
    # values parse back exactly
    baseline_col = header.index("baseline:mel_mse")
    parsed = [float(r[baseline_col]) for r in data[:-1]]
    assert parsed == values


def test_report_json_and_plotdata_deterministic(tmp_path):
    values = [5.0, 4.0, 3.0, 2.5, 2.0, 1.5]
    report = build_report(
        [
            synthetic_evaluation("baseline", values),
            synthetic_evaluation("sys", [v * 0.8 for v in values], mode="dnn_only"),
        ]
    )
    p1 = write_report_json(report, tmp_path / "a.json")
    p2 = write_report_json(report, tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["schema_version"] == 1
    assert payload["systems"] == ["baseline", "sys"]
    plots = write_plot_data(report, tmp_path / "plots")
    names = {p.name for p in plots}
    assert "baseline.mel_mse.txt" in names and "sys.lsd_db.txt" in names
    lines = (tmp_path / "plots" / "baseline.mel_mse.txt").read_text().strip().splitlines()
    assert len(lines) == 6
    snr, value = lines[0].split()
    assert float(snr) == -6.0 and float(value) == 5.0


def test_evaluation_json_roundtrip(tmp_path):
    evaluation = synthetic_evaluation("baseline", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    path = evaluation.save(tmp_path / "eval.json")
    loaded = SystemEvaluation.load(path)
    assert loaded.system == "baseline"
    assert [c.snr_db for c in loaded.conditions] == list(SNRS)
    assert loaded.conditions[0].means["mel_mse"] == 1.0


def _edited_evaluation(edit):
    payload = synthetic_evaluation("sys", [1.0] * 6, mode="dnn_only").to_dict()
    edit(payload["conditions"][0])
    return json.dumps(payload)


def _drop_metric(cond):
    del cond["per_utterance"]["segsnr_gain_db"]


def _extra_metric(cond):
    cond["per_utterance"]["fer"] = dict.fromkeys(cond["utterances"], 0.0)


def _foreign_utterance(cond):
    cond["per_utterance"]["mel_mse"] = {"other": 1.0}


def _string_value(cond):
    cond["per_utterance"]["lsd_db"] = dict.fromkeys(cond["utterances"], "0.5")


def _string_snr(cond):
    cond["snr_db"] = "-6"


@pytest.mark.parametrize("text", [
    "{not json", '{"schema_version": 1, "system": "x"}', "[1, 2]",
    _edited_evaluation(_drop_metric), _edited_evaluation(_extra_metric),
    _edited_evaluation(_foreign_utterance), _edited_evaluation(_string_value),
    _edited_evaluation(_string_snr),
], ids=["not_json", "missing_conditions", "list", "missing_metric", "extra_metric",
        "foreign_utterance", "string_value", "string_snr"])
def test_malformed_evaluation_is_a_manifest_error(tmp_path, capsys, text):
    path = tmp_path / "eval.json"
    path.write_text(text)
    with pytest.raises(ManifestError):
        SystemEvaluation.load(path)
    baseline = synthetic_evaluation("baseline", [1.0] * 6).save(tmp_path / "baseline.json")
    code = main(["report", "--inputs", str(baseline), str(path), "--out", str(tmp_path / "r")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_system_on_corpus(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    config = PipelineConfig(
        mode="baseline", stft=manifest.stft_config(), mel=manifest.mel_config(),
    )
    out = tmp_path / "baseline_sys"
    batch_enhance(manifest, config, out, split="test")
    evaluation = evaluate_system(manifest, out, mode="baseline", split="test")
    assert evaluation.system == "baseline"
    assert [c.snr_db for c in evaluation.conditions] == sorted(
        {e.snr_db for e in manifest.split_entries("test")}
    )
    for cond in evaluation.conditions:
        assert cond.means["mel_mse"] > 0
        assert cond.means["lsd_db"] is not None  # degraded signal scored for the baseline
        assert cond.means["segsnr_gain_db"] == pytest.approx(0.0)


@pytest.mark.parametrize("mode", ["dnn_only", "wpe_dnn"])
def test_evaluate_system_dnn_waveform_metrics_absent(tiny_corpus, tmp_path, monkeypatch, mode):
    manifest = tiny_corpus
    out = tmp_path / "fake_dnn"
    (out / "features").mkdir(parents=True)
    for entry in manifest.split_entries("test"):
        reference = read_features(manifest.resolve(entry.reference_features))
        write_features(out / "features" / f"{entry.id}.sfmf", reference + 0.25)
    loaded = []
    monkeypatch.setattr(corpus, "load_wav", lambda path: loaded.append(path))  # every WAV evaluation reads
    evaluation = evaluate_system(manifest, out, mode=mode, split="test")
    assert loaded == []  # no output waveform, so no WAV is read
    for cond in evaluation.conditions:
        assert cond.means["mel_mse"] == pytest.approx(0.0625)
        assert cond.means["lsd_db"] is None
        assert cond.means["segsnr_gain_db"] is None


def test_a_missing_waveform_leaves_its_condition_without_a_mean(tiny_corpus, tmp_path):
    manifest = tiny_corpus
    config = PipelineConfig(
        mode="wpe_only", stft=manifest.stft_config(), mel=manifest.mel_config(),
    )
    systems = {}
    for mode in ("baseline", "wpe_only"):
        out = tmp_path / mode
        batch_enhance(manifest, replace(config, mode=mode), out, split="test")
        systems[mode] = out
    missing = manifest.split_entries("test")[0]
    (systems["wpe_only"] / "waveforms" / f"{missing.id}.wav").unlink()
    evaluations = [evaluate_system(manifest, out, mode=mode) for mode, out in systems.items()]
    cond = evaluations[1].condition(missing.snr_db)
    assert cond.count > 1  # the other utterances of the condition still have a waveform
    assert cond.per_utterance["lsd_db"][missing.id] is None
    waveform_metrics = ("lsd_db", "segsnr_gain_db")
    for metric in waveform_metrics:
        assert cond.means[metric] is None
    averages = build_report(evaluations).averages["wpe_only"]
    assert [averages[m] for m in waveform_metrics] == [None, None]
    assert averages["mel_mse"] is not None


@pytest.fixture(scope="module")
def enhanced_systems(tiny_corpus, tmp_path_factory):
    """mode -> the test split of tiny_corpus enhanced by that system, for baseline and wpe_only."""
    root = tmp_path_factory.mktemp("systems")
    systems = {}
    for mode in ("baseline", "wpe_only"):
        config = PipelineConfig(
            mode=mode, stft=tiny_corpus.stft_config(), mel=tiny_corpus.mel_config()
        )
        batch_enhance(tiny_corpus, config, root / mode, split="test")
        systems[mode] = root / mode
    return systems


@pytest.mark.parametrize("mode", ["baseline", "wpe_only"])
def test_evaluation_does_not_depend_on_the_thread_count(tiny_corpus, enhanced_systems, mode,
                                                        monkeypatch):
    serialized = set()
    for threads in (1, 2, 3):
        monkeypatch.setattr(_pool, "_thread_limit", threads)
        evaluation = evaluate_system(tiny_corpus, enhanced_systems[mode], mode=mode)
        serialized.add(json.dumps(evaluation.to_dict(), sort_keys=True))
    assert len(serialized) == 1


def _counted(calls: Counter, fn):
    def counted(path):
        calls[path] += 1
        return fn(path)
    return counted


@pytest.mark.parametrize("mode", ["baseline", "wpe_only"])
def test_each_clean_utterance_is_read_once(tiny_corpus, enhanced_systems, mode, monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    loads, reads = Counter(), Counter()
    monkeypatch.setattr(corpus, "load_wav", _counted(loads, corpus.load_wav))
    monkeypatch.setattr(report, "read_features", _counted(reads, report.read_features))
    evaluate_system(tiny_corpus, enhanced_systems[mode], mode=mode)
    entries = tiny_corpus.split_entries("test")
    clean = {tiny_corpus.resolve(e.clean_wav) for e in entries}
    references = {tiny_corpus.resolve(e.reference_features) for e in entries}
    assert len(clean) < len(entries)  # each clean utterance is mixed at several SNRs
    assert all(loads[path] == 1 for path in clean)
    assert all(reads[path] == 1 for path in references)
    # every entry's own system features and degraded input are still read
    assert sum(reads.values()) == len(references) + len(entries)
    assert all(loads[tiny_corpus.resolve(e.noisy_wav)] >= 1 for e in entries)


def test_missing_features_name_the_first_entry_in_manifest_order(
    tiny_corpus, enhanced_systems, tmp_path, monkeypatch
):
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    system = tmp_path / "baseline"
    shutil.copytree(enhanced_systems["baseline"], system)
    entries = tiny_corpus.split_entries("test")
    first, later = entries[3], entries[-1]  # two different clean utterances
    assert first.clean_wav != later.clean_wav
    for entry in (later, first):
        (system / "features" / f"{entry.id}.sfmf").unlink()
    reads = []
    monkeypatch.setattr(report, "read_features", reads.append)
    with pytest.raises(ManifestError, match=f"utterance {first.id}:"):
        evaluate_system(tiny_corpus, system, mode="baseline")
    assert reads == []  # checked before any utterance is scored


def test_a_shape_mismatch_is_a_shape_error(tiny_corpus, enhanced_systems, tmp_path, monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    system = tmp_path / "baseline"
    shutil.copytree(enhanced_systems["baseline"], system)
    entry = tiny_corpus.split_entries("test")[-1]
    path = system / "features" / f"{entry.id}.sfmf"
    write_features(path, read_features(path)[:-1])
    with pytest.raises(ShapeError, match=entry.id):
        evaluate_system(tiny_corpus, system, mode="baseline")

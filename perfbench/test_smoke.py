"""Smoke test of the benchmark on a tiny configuration; it asserts no speed.

    python3 -m pytest perfbench/test_smoke.py

It checks that every end-to-end and per-layer metric named in BENCHMARK.json
is reported with its unit, that a truncated WAV is counted as a failure
instead of aborting the run, and that run.py refuses a checkout without
specmap sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402

TINY = dataclasses.replace(
    harness.FULL,
    utterance_seconds=0.5,
    enhance_clean=1,
    mapper_hidden=(16, 16),
    train_utterance_seconds=0.5,
    train_clean=2,
    train_test_clean=1,
    train_hidden=(16,),
    train_epochs=2,
    corpora=2,
    setup_repeats=1,
    setup_seconds=0.0,
    min_passes=1,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(tmp_path, workload, trace):
    result, _ = harness.run(workload, 3, 0.0, bool(trace), tmp_path, TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: 44 + 100])


@pytest.mark.parametrize("workload", ["dereverb", "train"])
def test_truncated_wav_counts_as_failed(tmp_path, workload):
    bench = harness.WORKLOADS[workload](5, TINY)
    _, inputs = harness.set_up(bench, tmp_path, 1)
    manifest = inputs.corpora[0].manifest  # only the pass on corpus 0 fails
    entry = manifest.split_entries("train" if workload == "train" else "test")[0]
    _truncate(manifest.resolve(entry.noisy_wav))

    passes = harness.run_passes(bench, inputs, tmp_path, 0.0, 2)
    assert [p.failed for p in passes] == [1, 0]
    assert sum(p.attempted for p in passes) > 1


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dereverb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""

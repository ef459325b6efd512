"""Per-SNR evaluation of enhanced systems and the comparison report.

The report mirrors a per-condition results table: one row per SNR plus an
"avg" row that is the unweighted mean of the condition means. Relative
reductions against the baseline system are computed on condition means; for
the average, both conventions (reduction of the averaged metric, and the
mean of per-condition reductions) are reported.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .audio import Waveform, load_wav
from .errors import ConfigError, ManifestError, ShapeError, SpecmapError
from .featio import read_features
from .metrics import log_spectral_distortion, mel_mse, segmental_snr_gain
from .pipeline import MODES
from .stft import log_magnitude, stft
from .validation import check_choice

METRIC_NAMES = ("mel_mse", "lsd_db", "segsnr_gain_db")
REPORT_SCHEMA_VERSION = 1
BASELINE = "baseline"  # the system every other one is compared against


def condition_average(values) -> float:
    """The table's "avg" convention: unweighted mean over condition rows."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ShapeError("cannot average zero conditions")
    return float(arr.mean())


@dataclass
class ConditionMetrics:
    snr_db: Optional[float]
    utterances: list[str]
    per_utterance: dict  # metric -> {utterance id -> value}
    means: dict          # metric -> float | None

    @property
    def count(self) -> int:
        return len(self.utterances)


@dataclass
class SystemEvaluation:
    system: str
    mode: str
    split: str
    conditions: list[ConditionMetrics] = field(default_factory=list)

    def condition(self, snr_db) -> ConditionMetrics:
        for cond in self.conditions:
            if cond.snr_db == snr_db:
                return cond
        raise KeyError(f"no condition at {snr_db} dB")

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "system": self.system,
            "mode": self.mode,
            "split": self.split,
            "conditions": [
                {
                    "snr_db": c.snr_db,
                    "count": c.count,
                    "utterances": c.utterances,
                    "per_utterance": c.per_utterance,
                    "means": c.means,
                }
                for c in self.conditions
            ],
        }

    def save(self, path) -> Path:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemEvaluation":
        if not isinstance(payload, dict) or payload.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ManifestError("not an evaluation object of a supported schema version")
        conditions = [
            ConditionMetrics(
                snr_db=c["snr_db"],
                utterances=list(c["utterances"]),
                per_utterance=c["per_utterance"],
                means=c["means"],
            )
            for c in payload["conditions"]
        ]
        return cls(payload["system"], payload["mode"], payload["split"], conditions)

    @classmethod
    def load(cls, path) -> "SystemEvaluation":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"{path}: malformed evaluation ({exc!r})") from exc


def _mean_or_none(values: dict) -> Optional[float]:
    present = [v for v in values.values() if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def evaluate_system(
    manifest,
    system_dir,
    mode: str,
    split: str = "test",
    system_name: Optional[str] = None,
) -> SystemEvaluation:
    """Compute per-utterance metrics for one enhanced system.

    mel_mse compares the system's feature files with the clean references.
    The waveform metrics (LSD against the clean log spectrum, segmental SNR
    gain) need an output waveform: the wpe modes save one, and for the
    baseline the degraded input itself plays that role. For dnn_only they
    are undefined and reported as null.
    """
    check_choice(mode, MODES, "mode")
    system_dir = Path(system_dir)
    stft_cfg = manifest.stft_config()
    floor = manifest.magnitude_floor

    by_snr: dict = {}
    for entry in manifest.split_entries(split):
        feature_path = system_dir / "features" / f"{entry.id}.sfmf"
        if not feature_path.is_file():
            raise ManifestError(f"system output missing for utterance {entry.id}: {feature_path}")
        enhanced_feats = read_features(feature_path)
        reference_feats = read_features(manifest.resolve(entry.reference_features))
        if enhanced_feats.shape != reference_feats.shape:
            raise ShapeError(
                f"{entry.id}: system features {enhanced_feats.shape} vs "
                f"reference {reference_feats.shape}"
            )
        mse = mel_mse(enhanced_feats, reference_feats)

        lsd = gain = None
        wave_path = system_dir / "waveforms" / f"{entry.id}.wav"
        if wave_path.is_file() or mode == "baseline":
            clean = load_wav(manifest.resolve(entry.clean_wav))
            degraded = load_wav(manifest.resolve(entry.noisy_wav))
            system_wave = load_wav(wave_path) if wave_path.is_file() else degraded
            n = min(len(system_wave), len(degraded), len(clean))
            lsd = log_spectral_distortion(
                log_magnitude(stft(Waveform(system_wave.samples[:n], clean.sample_rate), stft_cfg), floor),
                log_magnitude(stft(Waveform(clean.samples[:n], clean.sample_rate), stft_cfg), floor),
            )
            gain = segmental_snr_gain(
                system_wave.samples[:n], degraded.samples[:n], clean.samples[:n], clean.sample_rate
            )

        slot = by_snr.setdefault(
            entry.snr_db,
            {"utterances": [], "mel_mse": {}, "lsd_db": {}, "segsnr_gain_db": {}},
        )
        slot["utterances"].append(entry.id)
        slot["mel_mse"][entry.id] = mse
        slot["lsd_db"][entry.id] = lsd
        slot["segsnr_gain_db"][entry.id] = gain

    conditions = []
    for snr_db in sorted(by_snr, key=lambda s: (s is None, s)):
        slot = by_snr[snr_db]
        conditions.append(
            ConditionMetrics(
                snr_db=snr_db,
                utterances=slot["utterances"],
                per_utterance={m: slot[m] for m in METRIC_NAMES},
                means={m: _mean_or_none(slot[m]) for m in METRIC_NAMES},
            )
        )
    return SystemEvaluation(system_name or mode, mode, split, conditions)


def _snr_label(snr_db: Optional[float]) -> str:
    """An SNR row's key in report.json and label in report.csv."""
    return "none" if snr_db is None else f"{snr_db:g}"


def _reduction(base: Optional[float], mine: Optional[float]) -> Optional[float]:
    """Relative reduction against the baseline: 0 against a zero baseline, None if undefined."""
    if base is None or mine is None:
        return None
    return 0.0 if base == 0.0 else (base - mine) / base


@dataclass
class ComparisonReport:
    systems: list[str]
    snr_rows: list
    means: dict       # system -> metric -> {snr -> value | None}
    averages: dict    # system -> metric -> value | None
    reductions: dict  # system -> metric -> {snr -> value | None}
    average_reductions: dict  # system -> metric -> {"of_average": v, "mean_of_conditions": v}

    def to_dict(self) -> dict:
        def by_label(table):
            return {
                s: {m: {_snr_label(k): v for k, v in row.items()} for m, row in per.items()}
                for s, per in table.items()
            }

        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "systems": self.systems,
            "snr_rows": [None if s is None else float(s) for s in self.snr_rows],
            "means": by_label(self.means),
            "averages": self.averages,
            "reductions": by_label(self.reductions),
            "average_reductions": self.average_reductions,
        }


def build_report(evaluations: list[SystemEvaluation]) -> ComparisonReport:
    """Combine per-system evaluations into one comparison against the baseline."""
    names = [e.system for e in evaluations]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate system names in report inputs: {names}")
    if BASELINE not in names:
        raise ConfigError(f"report needs a system named {BASELINE!r}; got {names}")
    if len(evaluations) < 2:
        raise ConfigError("report needs the baseline plus at least one other system")

    baseline = next(e for e in evaluations if e.system == BASELINE)
    snr_rows = [c.snr_db for c in baseline.conditions]
    for ev in evaluations:
        if [c.snr_db for c in ev.conditions] != snr_rows:
            raise SpecmapError(f"system {ev.system!r} covers different SNR conditions")
        for cond in ev.conditions:
            if sorted(cond.utterances) != sorted(baseline.condition(cond.snr_db).utterances):
                raise SpecmapError(
                    f"system {ev.system!r} was evaluated on a different utterance set at "
                    f"{cond.snr_db} dB; comparison would be unfair"
                )

    ordered = [baseline] + [e for e in evaluations if e.system != BASELINE]
    means: dict = {}
    averages: dict = {}
    reductions: dict = {}
    average_reductions: dict = {}
    for ev in ordered:
        means[ev.system] = {
            m: {c.snr_db: c.means[m] for c in ev.conditions} for m in METRIC_NAMES
        }
        averages[ev.system] = {}
        for m in METRIC_NAMES:
            vals = [c.means[m] for c in ev.conditions]
            averages[ev.system][m] = None if any(v is None for v in vals) else condition_average(vals)

    for ev in ordered[1:]:
        reductions[ev.system] = {}
        average_reductions[ev.system] = {}
        for m in METRIC_NAMES:
            per_snr = {
                snr: _reduction(means[BASELINE][m][snr], means[ev.system][m][snr])
                for snr in snr_rows
            }
            reductions[ev.system][m] = per_snr
            of_average = _reduction(averages[BASELINE][m], averages[ev.system][m])
            condition_values = [v for v in per_snr.values() if v is not None]
            average_reductions[ev.system][m] = {
                "of_average": of_average,
                "mean_of_conditions": (
                    float(np.mean(condition_values)) if condition_values else None
                ),
            }

    return ComparisonReport(
        systems=[e.system for e in ordered],
        snr_rows=snr_rows,
        means=means,
        averages=averages,
        reductions=reductions,
        average_reductions=average_reductions,
    )


def _format(value) -> str:
    return "" if value is None else repr(float(value))


def write_report_csv(report: ComparisonReport, path) -> Path:
    """One row per SNR plus the avg row; empty cells mean "not defined"."""
    path = Path(path)
    header = ["snr_db"]
    for system in report.systems:
        header += [f"{system}:{m}" for m in METRIC_NAMES]
    for system in report.systems[1:]:
        header.append(f"{system}:mel_mse_reduction")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for snr in report.snr_rows:
            row = [_snr_label(snr)]
            for system in report.systems:
                row += [_format(report.means[system][m][snr]) for m in METRIC_NAMES]
            for system in report.systems[1:]:
                row.append(_format(report.reductions[system]["mel_mse"][snr]))
            writer.writerow(row)
        avg_row = ["avg"]
        for system in report.systems:
            avg_row += [_format(report.averages[system][m]) for m in METRIC_NAMES]
        for system in report.systems[1:]:
            avg_row.append(_format(report.average_reductions[system]["mel_mse"]["of_average"]))
        writer.writerow(avg_row)
    return path


def write_report_json(report: ComparisonReport, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_plot_data(report: ComparisonReport, out_dir) -> list[Path]:
    """Two-column (snr, value) text files, one per system and metric."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for system in report.systems:
        for metric in METRIC_NAMES:
            lines = []
            for snr in report.snr_rows:
                value = report.means[system][metric][snr]
                if snr is None or value is None:
                    continue
                lines.append(f"{snr:g} {value!r}")
            if not lines:
                continue
            path = out_dir / f"{system}.{metric}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written

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

# The metric table: each feature metric is a function of (system features,
# reference features). The waveform metrics need an output waveform; see _waveform_metrics.
FEATURE_METRICS = {"mel_mse": mel_mse}
WAVEFORM_METRICS = ("lsd_db", "segsnr_gain_db")
METRIC_NAMES = (*FEATURE_METRICS, *WAVEFORM_METRICS)
REPORT_SCHEMA_VERSION = 1
BASELINE = "baseline"  # the system every other one is compared against


def condition_average(values) -> float:
    """The table's "avg" convention: unweighted mean over condition rows."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ShapeError("cannot average zero conditions")
    return float(arr.mean())


def _mean(values) -> Optional[float]:
    """The mean of every value, or None if any is None: no mean over a subset."""
    values = list(values)
    return None if any(v is None for v in values) else condition_average(values)


@dataclass
class ConditionMetrics:
    snr_db: Optional[float]
    utterances: list[str]
    per_utterance: dict  # metric -> {utterance id -> value | None}

    @property
    def count(self) -> int:
        return len(self.utterances)

    @property
    def means(self) -> dict:
        """metric -> mean over the utterances, in their order; None where one lacks a value."""
        return {
            m: _mean(self.per_utterance[m][u] for u in self.utterances) for m in METRIC_NAMES
        }


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
        return _write_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemEvaluation":
        if not isinstance(payload, dict) or payload.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ManifestError("not an evaluation object of a supported schema version")
        conditions = [_condition_from_dict(c) for c in payload["conditions"]]
        return cls(payload["system"], payload["mode"], payload["split"], conditions)

    @classmethod
    def load(cls, path) -> "SystemEvaluation":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (AttributeError, KeyError, TypeError, ValueError, ManifestError) as exc:
                raise ManifestError(f"{path}: malformed evaluation ({exc!r})") from exc


_NUMBER_OR_NULL = (int, float, type(None))  # JSON's true and false are not numbers here


def _condition_from_dict(c: dict) -> ConditionMetrics:
    """One stored condition, rejected unless the report can score it as it stands."""
    cond = ConditionMetrics(c["snr_db"], list(c["utterances"]), c["per_utterance"])
    where = f"condition at {cond.snr_db!r} dB"
    if sorted(cond.per_utterance) != sorted(METRIC_NAMES):
        raise ManifestError(f"{where}: per_utterance must hold exactly {list(METRIC_NAMES)}")
    rows = list(cond.per_utterance.values())
    if any(sorted(row) != sorted(cond.utterances) for row in rows):
        raise ManifestError(f"{where}: a metric is not keyed by the condition's utterances")
    values = [cond.snr_db] + [v for row in rows for v in row.values()]
    if any(type(v) not in _NUMBER_OR_NULL for v in values):
        raise ManifestError(f"{where}: snr_db or a metric value is not a number or null")
    return cond


def _waveform_metrics(manifest, entry, wave_path: Path, mode: str, stft_cfg, floor) -> dict:
    """lsd_db and segsnr_gain_db of one utterance, both None without an output waveform.

    The wpe modes save an output waveform, and for the baseline the degraded
    input itself plays that role. LSD is against the clean log spectrum, and
    the segmental SNR gain is over the degraded input.
    """
    if not wave_path.is_file() and mode != "baseline":
        return dict.fromkeys(WAVEFORM_METRICS)
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
    return dict(zip(WAVEFORM_METRICS, (lsd, gain)))


def evaluate_system(
    manifest,
    system_dir,
    mode: str,
    split: str = "test",
    system_name: Optional[str] = None,
) -> SystemEvaluation:
    """Compute per-utterance metrics for one enhanced system.

    Each feature metric compares the system's feature files with the clean
    references. The waveform metrics are undefined for dnn_only, which saves
    no waveform, and are reported as null.
    """
    check_choice(mode, MODES, "mode")
    system_dir = Path(system_dir)
    stft_cfg = manifest.stft_config()
    floor = manifest.magnitude_floor

    by_snr: dict = {}  # snr -> [(utterance id, metric -> value)]
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
        values = {m: fn(enhanced_feats, reference_feats) for m, fn in FEATURE_METRICS.items()}
        wave_path = system_dir / "waveforms" / f"{entry.id}.wav"
        values.update(_waveform_metrics(manifest, entry, wave_path, mode, stft_cfg, floor))
        by_snr.setdefault(entry.snr_db, []).append((entry.id, values))

    conditions = [
        ConditionMetrics(
            snr_db=snr_db,
            utterances=[uid for uid, _ in by_snr[snr_db]],
            per_utterance={m: {uid: v[m] for uid, v in by_snr[snr_db]} for m in METRIC_NAMES},
        )
        for snr_db in sorted(by_snr, key=lambda s: (s is None, s))
    ]
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
        averages[ev.system] = {m: _mean(means[ev.system][m].values()) for m in METRIC_NAMES}

    for ev in ordered[1:]:
        reductions[ev.system] = {}
        average_reductions[ev.system] = {}
        for m in METRIC_NAMES:
            per_snr = {
                snr: _reduction(means[BASELINE][m][snr], means[ev.system][m][snr])
                for snr in snr_rows
            }
            reductions[ev.system][m] = per_snr
            average_reductions[ev.system][m] = {
                "of_average": _reduction(averages[BASELINE][m], averages[ev.system][m]),
                "mean_of_conditions": _mean(per_snr.values()),
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
        header += [f"{system}:{m}_reduction" for m in FEATURE_METRICS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for snr in report.snr_rows:
            row = [_snr_label(snr)]
            for system in report.systems:
                row += [_format(report.means[system][m][snr]) for m in METRIC_NAMES]
            for system in report.systems[1:]:
                row += [_format(report.reductions[system][m][snr]) for m in FEATURE_METRICS]
            writer.writerow(row)
        avg_row = ["avg"]
        for system in report.systems:
            avg_row += [_format(report.averages[system][m]) for m in METRIC_NAMES]
        for system in report.systems[1:]:
            avg_row += [
                _format(report.average_reductions[system][m]["of_average"]) for m in FEATURE_METRICS
            ]
        writer.writerow(avg_row)
    return path


def _write_json(payload: dict, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_report_json(report: ComparisonReport, path) -> Path:
    return _write_json(report.to_dict(), path)


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

"""The enhancement cascade and its ablations.

Four modes over one utterance: baseline (plain log-mel), wpe_only
(dereverberate, resynthesize, re-analyze), dnn_only (map log-magnitude
context windows to mel features), and wpe_dnn (dereverberate, then map).
Both mapping modes build the mapper's input with input_features, as
training does, and run the config's model as it is, in float32. Only
wpe_only returns a waveform; wpe_dnn's dereverberated one is wpe_only's.

batch_enhance runs a split's utterances on the threads of specmap._pool,
as training_features does, one utterance per thread at a time. WPE runs on
its calling thread, so each utterance does the arithmetic of a one-thread
run and the outputs do not depend on the number of CPUs.
"""

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import _pool
from .audio import Waveform, save_wav
from .errors import ConfigError, ShapeError, SpecmapError
from .estimators import input_features
from .featio import write_features
from .mel import MelConfig, log_mel, mel_matrix
from .mlp import MlpModel, map_features
from .runconfig import config_hash
from .stft import StftConfig, istft, stft
from .validation import check_choice
from .wpe import WpeConfig, wpe_dereverberate

MODES = ("baseline", "wpe_only", "dnn_only", "wpe_dnn")
MAPPING_MODES = ("dnn_only", "wpe_dnn")  # the modes that run the config's model


@dataclass
class PipelineConfig:
    mode: str = "baseline"
    stft: StftConfig = field(default_factory=StftConfig)
    mel: MelConfig = field(default_factory=MelConfig)
    context: int = 5
    wpe: WpeConfig = field(default_factory=WpeConfig)
    model: Optional[MlpModel] = None

    def __post_init__(self):
        check_choice(self.mode, MODES, "mode")
        if self.mel.fft_size != self.stft.fft_size:
            raise ConfigError("mel and stft configs disagree on fft_size")
        if self.mode in MAPPING_MODES:
            if self.model is None:
                raise ConfigError(f"mode {self.mode!r} needs a trained model")
            expected = (2 * self.context + 1) * self.stft.n_bins
            if self.model.input_dim != expected:
                raise ShapeError(
                    f"model input dim {self.model.input_dim} != context {self.context} "
                    f"over {self.stft.n_bins} bins ({expected})"
                )
            if self.model.output_dim != self.mel.n_mels:
                raise ShapeError(
                    f"model output dim {self.model.output_dim} != n_mels {self.mel.n_mels}"
                )
        self._filterbank = mel_matrix(self.mel)
        self._model_id = None

    @property
    def filterbank(self) -> np.ndarray:
        return self._filterbank

    def describe(self) -> dict:
        """Every field, the nested configs as dicts and the model as its identity.

        The model is hashed on the first call and the identity cached, not
        at construction: hashing the paper-size model takes about 30 ms,
        which a config that is never described does not spend.
        """
        if self._model_id is None and self.model is not None:
            self._model_id = _identify_model(self.model)
        described = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "model":
                value = self._model_id
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            described[f.name] = value
        return described


def _identify_model(model: MlpModel) -> dict:
    """Dims, output activation and a sha256 of the float32 parameters and normalization."""
    digest = hashlib.sha256()
    for param in model.weights + model.biases:
        digest.update(memoryview(np.ascontiguousarray(param, dtype="<f4")))
    norm = None if model.norm_spec is None else model.norm_spec.to_dict()
    digest.update(json.dumps(norm, sort_keys=True).encode("utf-8"))
    return {
        "dims": model.layer_dims,
        "output_activation": model.output_activation,
        "sha256": digest.hexdigest(),
    }


@dataclass
class EnhancedUtterance:
    features: np.ndarray                 # (frames, n_mels) log-mel in the feature domain
    enhanced_waveform: Optional[Waveform]  # present for wpe_only


def enhance_utterance(waveform: Waveform, config: PipelineConfig) -> EnhancedUtterance:
    floor = config.mel.magnitude_floor
    if config.mode in MAPPING_MODES:
        wpe = config.wpe if config.mode == "wpe_dnn" else None
        log_spec = input_features(waveform, config.stft, wpe, floor)
        mapped = map_features(
            config.model, log_spec, config.context, config.filterbank, floor, config.mel.mode
        )
        return EnhancedUtterance(mapped.denormalized, None)

    spectrogram = stft(waveform, config.stft)
    enhanced_wave = None
    if config.mode == "wpe_only":
        # Each array is dropped once no later step reads it, which keeps the
        # peak low while several utterances of a batch are in flight.
        enhanced = wpe_dereverberate(spectrogram, config.wpe).enhanced
        del spectrogram
        enhanced_wave = istft(enhanced)
        del enhanced
        spectrogram = stft(enhanced_wave, config.stft)
    feats = log_mel(spectrogram, config.filterbank, floor, config.mel.mode)
    return EnhancedUtterance(feats, enhanced_wave)


@dataclass
class BatchResult:
    features: dict
    waveforms: dict
    failures: dict
    log_path: Path


def batch_enhance(
    manifest,
    config: PipelineConfig,
    out_dir,
    split: str = "test",
    save_waveforms: bool = True,
) -> BatchResult:
    """Enhance every utterance of a split, one feature file per utterance.

    The utterances run on the calling thread and one helper thread per
    further CPU the process may run on, each thread loading, enhancing and
    writing the next unclaimed utterance. Failures to load or enhance are
    recorded per utterance and do not stop the batch; any other error, such
    as a failed write, stops every thread from starting another utterance
    and is raised. The run log is one JSON object per line, in manifest
    order. save_waveforms writes wpe_only's waveforms, the only mode's
    that has one, to waveforms/.
    """
    out_root = Path(out_dir)
    (out_root / "features").mkdir(parents=True, exist_ok=True)
    entries = manifest.split_entries(split)
    digest = config_hash(config.describe())

    def enhance_entry(index: int) -> dict:
        """Load, enhance and write one utterance; its run-log record."""
        entry = entries[index]
        record = {"id": entry.id, "config_hash": digest}
        started = time.perf_counter()
        try:
            outcome = enhance_utterance(manifest.load_waveform(entry.noisy_wav), config)
        except (SpecmapError, OSError) as exc:
            outcome = exc
        record["seconds"] = round(time.perf_counter() - started, 4)
        if isinstance(outcome, Exception):
            record.update(status="failed", error=str(outcome))
            return record
        record["status"] = "ok"
        record["features"] = f"features/{entry.id}.sfmf"
        write_features(out_root / record["features"], outcome.features)
        if save_waveforms and outcome.enhanced_waveform is not None:
            record["waveform"] = f"waveforms/{entry.id}.wav"
            (out_root / "waveforms").mkdir(exist_ok=True)
            save_wav(outcome.enhanced_waveform, out_root / record["waveform"], encoding="float32")
        return record

    records = _pool.run_items(enhance_entry, len(entries))
    log_path = out_root / "run_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return BatchResult(
        features={r["id"]: r["features"] for r in records if "features" in r},
        waveforms={r["id"]: r["waveform"] for r in records if "waveform" in r},
        failures={r["id"]: r["error"] for r in records if r["status"] == "failed"},
        log_path=log_path,
    )

"""The enhancement cascade and its ablations.

Four modes over one utterance: baseline (plain log-mel), wpe_only
(dereverberate, resynthesize, re-analyze), dnn_only (map log-magnitude
context windows to mel features), and wpe_dnn (dereverberate, then map).
wpe_dnn maps the dereverberated spectrogram, as matched training does.

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
from .audio import Waveform, load_wav, save_wav
from .errors import ConfigError, ShapeError, SpecmapError
from .featio import write_features
from .mel import MelConfig, log_mel, mel_matrix
from .mlp import MlpModel, map_features
from .runconfig import config_hash
from .stft import StftConfig, istft, log_magnitude, stft
from .validation import check_choice
from .wpe import WpeConfig, wpe_dereverberate

MODES = ("baseline", "wpe_only", "dnn_only", "wpe_dnn")


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
        if self.mode in ("dnn_only", "wpe_dnn"):
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
        self._mapper = self._model_id = None

    @property
    def filterbank(self) -> np.ndarray:
        return self._filterbank

    @property
    def mapper(self) -> Optional[MlpModel]:
        """The float32 model that every mapping runs through.

        A model that init_model, train or load_model returns is float32
        already and is its own mapper. A float64 model, which a caller
        builds by hand, is cast once per config, not per utterance. The
        mapper is cast (if need be) and hashed on first use rather than at
        construction: hashing the paper-size model takes about 30 ms, and
        a caller which builds a new config from a float64 model while an
        old one is alive then does not hold two casts at once.
        """
        if self._mapper is None and self.model is not None:
            self._mapper = self.model.as_float32()
            self._model_id = _identify_model(self._mapper)
        return self._mapper

    def describe(self) -> dict:
        """Every field, the nested configs as dicts and the model as its cached identity."""
        described = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "model":
                value = None if self.mapper is None else self._model_id
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            described[f.name] = value
        return described


def _identify_model(mapper: MlpModel) -> dict:
    """Dims, output activation and a sha256 of the float32 parameters and normalization."""
    digest = hashlib.sha256()
    for param in mapper.weights + mapper.biases:
        digest.update(memoryview(np.ascontiguousarray(param, dtype="<f4")))
    norm = None if mapper.norm_spec is None else mapper.norm_spec.to_dict()
    digest.update(json.dumps(norm, sort_keys=True).encode("utf-8"))
    return {
        "dims": mapper.layer_dims,
        "output_activation": mapper.output_activation,
        "sha256": digest.hexdigest(),
    }


@dataclass
class EnhancedUtterance:
    features: np.ndarray                 # (frames, n_mels) log-mel in the feature domain
    enhanced_waveform: Optional[Waveform]  # present for the wpe modes


def _mapped_mel(config: PipelineConfig, spectrogram) -> np.ndarray:
    floor, mode = config.mel.magnitude_floor, config.mel.mode
    logmag = log_magnitude(spectrogram, floor)
    mapped = map_features(config.mapper, logmag, config.context, config.filterbank, floor, mode)
    return mapped.denormalized


def enhance_utterance(waveform: Waveform, config: PipelineConfig) -> EnhancedUtterance:
    spectrogram = stft(waveform, config.stft)
    if config.mode == "baseline":
        feats = log_mel(spectrogram, config.filterbank, config.mel.magnitude_floor, config.mel.mode)
        return EnhancedUtterance(feats, None)

    if config.mode == "dnn_only":
        return EnhancedUtterance(_mapped_mel(config, spectrogram), None)

    # Each array is dropped once no later step reads it, which keeps the peak
    # low while several utterances of a batch are in flight.
    enhanced = wpe_dereverberate(spectrogram, config.wpe).enhanced
    del spectrogram
    enhanced_wave = istft(enhanced)
    if config.mode == "wpe_only":
        del enhanced
        respec = stft(enhanced_wave, config.stft)
        feats = log_mel(respec, config.filterbank, config.mel.magnitude_floor, config.mel.mode)
        return EnhancedUtterance(feats, enhanced_wave)

    return EnhancedUtterance(_mapped_mel(config, enhanced), enhanced_wave)


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
    order.
    """
    out_root = Path(out_dir)
    (out_root / "features").mkdir(parents=True, exist_ok=True)
    if save_waveforms:
        (out_root / "waveforms").mkdir(parents=True, exist_ok=True)
    entries = manifest.split_entries(split)
    # describe() builds config.mapper, before the threads that share it start.
    digest = config_hash(config.describe())

    def enhance_entry(index: int) -> dict:
        """Load, enhance and write one utterance; its run-log record."""
        entry = entries[index]
        noisy_path = manifest.resolve(entry.noisy_wav)
        record = {"id": entry.id, "config_hash": digest}
        started = time.perf_counter()
        try:
            outcome = enhance_utterance(load_wav(noisy_path), config)
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

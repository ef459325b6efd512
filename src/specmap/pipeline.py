"""The enhancement cascade and its ablations.

Four modes over one utterance: baseline (plain log-mel), wpe_only
(dereverberate, resynthesize, re-analyze), dnn_only (map log-magnitude
context windows to mel features), and wpe_dnn (dereverberate, then map).
wpe_dnn maps the dereverberated spectrogram, as matched training does.
"""

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

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
    magnitude_floor: float = 1e-10

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
        self._filterbank = mel_matrix(self.mel)
        self._mapper = self._model_id = None

    @property
    def filterbank(self) -> np.ndarray:
        return self._filterbank

    @property
    def mapper(self) -> Optional[MlpModel]:
        """The float32 copy of the model that every mapping runs through.

        Cast and hashed once per config, not per utterance: for the
        paper-size model the two take about 80 ms together. Both happen on
        first use rather than at construction, so that a caller which
        builds a new config while an old one is alive does not hold two
        float32 copies at once.
        """
        if self._mapper is None and self.model is not None:
            self._mapper = self.model.as_float32()
            self._model_id = _identify_model(self._mapper)
        return self._mapper

    def __getstate__(self) -> dict:
        """Pickled state, as sent to batch workers, with the float32 mapper as the model.

        Workers map only through the float32 copy, so the float64 model is
        left out. as_float32() of the copy is the copy itself, so an
        unpickled config maps and hashes as this one does.
        """
        state = self.__dict__.copy()
        state["model"] = self.mapper
        return state

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
    logmag = log_magnitude(spectrogram, config.magnitude_floor)
    return map_features(
        config.mapper, logmag, config.context, config.filterbank, config.magnitude_floor,
        config.mel.mode,
    ).denormalized


def enhance_utterance(waveform: Waveform, config: PipelineConfig) -> EnhancedUtterance:
    spectrogram = stft(waveform, config.stft)
    if config.mode == "baseline":
        feats = log_mel(spectrogram, config.filterbank, config.magnitude_floor, config.mel.mode)
        return EnhancedUtterance(feats, None)

    if config.mode == "dnn_only":
        return EnhancedUtterance(_mapped_mel(config, spectrogram), None)

    result = wpe_dereverberate(spectrogram, config.wpe)
    enhanced_wave = istft(result.enhanced)
    if config.mode == "wpe_only":
        respec = stft(enhanced_wave, config.stft)
        feats = log_mel(respec, config.filterbank, config.magnitude_floor, config.mel.mode)
        return EnhancedUtterance(feats, enhanced_wave)

    return EnhancedUtterance(_mapped_mel(config, result.enhanced), enhanced_wave)


def _enhance_entry(noisy_path, config: PipelineConfig):
    """(outcome, seconds) for one utterance; a failure is returned, not raised."""
    started = time.perf_counter()
    try:
        outcome = enhance_utterance(load_wav(noisy_path), config)
    except (SpecmapError, OSError) as exc:
        outcome = exc
    return outcome, time.perf_counter() - started


# Set once per worker process by the pool initializer, so that a task carries
# only its WAV path and the config, model weights included, is sent once.
_worker_config: Optional[PipelineConfig] = None


def _init_worker(config: PipelineConfig) -> None:
    global _worker_config
    _worker_config = config


def _worker_entry(noisy_path):
    return _enhance_entry(noisy_path, _worker_config)


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
    jobs: int = 1,
    save_waveforms: bool = True,
) -> BatchResult:
    """Enhance every utterance of a split, one feature file per utterance.

    Failures are recorded per utterance and do not stop the batch. The run
    log is one JSON object per line, in manifest order.
    """
    out_root = Path(out_dir)
    (out_root / "features").mkdir(parents=True, exist_ok=True)
    if save_waveforms:
        (out_root / "waveforms").mkdir(parents=True, exist_ok=True)
    entries = manifest.split_entries(split)
    digest = config_hash(config.describe())

    features: dict = {}
    waveforms: dict = {}
    failures: dict = {}
    records = []

    def handle(entry, outcome, seconds):
        record = {"id": entry.id, "config_hash": digest, "seconds": round(seconds, 4)}
        if isinstance(outcome, Exception):
            failures[entry.id] = str(outcome)
            record["status"] = "failed"
            record["error"] = str(outcome)
            records.append(record)
            return
        feature_rel = f"features/{entry.id}.sfmf"
        write_features(out_root / feature_rel, outcome.features)
        features[entry.id] = feature_rel
        record["status"] = "ok"
        record["features"] = feature_rel
        if save_waveforms and outcome.enhanced_waveform is not None:
            wave_rel = f"waveforms/{entry.id}.wav"
            save_wav(outcome.enhanced_waveform, out_root / wave_rel, encoding="float32")
            waveforms[entry.id] = wave_rel
            record["waveform"] = wave_rel
        records.append(record)

    paths = [manifest.resolve(e.noisy_wav) for e in entries]
    if jobs <= 1:
        for entry, path in zip(entries, paths):
            handle(entry, *_enhance_entry(path, config))
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(config,)
        ) as pool:
            results = list(pool.map(_worker_entry, paths))
        for entry, (outcome, seconds) in zip(entries, results):
            handle(entry, outcome, seconds)

    log_path = out_root / "run_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return BatchResult(features, waveforms, failures, log_path)

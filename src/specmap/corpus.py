"""Synthetic reverberant-plus-noisy corpus generation with known references.

The built-in sources are a harmonic speech-like generator (random-walk pitch,
syllabic amplitude modulation, a little broadband excitation) and seeded
white/pink noise. Real clean or noise recordings can be substituted through
the file-list arguments of build_corpus.
"""

import json
import numbers
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .audio import Waveform, load_wav, save_wav
from .errors import ConfigError, ManifestError, NumericError
from .featio import write_features
from .mel import MelConfig, log_mel, mel_matrix
from .seeding import derive_seed
from .stft import DEFAULT_MAGNITUDE_FLOOR, StftConfig, stft
from .validation import check_choice, check_count, check_positive

SPLITS = ("train", "dev", "test")
DEFAULT_SNR_GRID = (-6.0, -3.0, 0.0, 3.0, 6.0, 9.0)
MANIFEST_SCHEMA_VERSION = 1
# The CorpusConfig fields a manifest records: the front end of its references.
FEATURE_KEYS = (
    "frame_len", "hop", "fft_size", "window", "n_mels", "f_min", "f_max", "mel_mode",
    "magnitude_floor",
)
# Per-RIR spreads of the rooms build_corpus draws: t60 varies by up to +/-30%
# of CorpusConfig.t60 and the direct-to-reverberant ratio by up to +/-3 dB.
T60_JITTER = 0.3
DRR_JITTER_DB = 3.0


@dataclass(frozen=True)
class RirConfig:
    t60: float = 0.5
    length: int = 8000
    seed: int = 0

    def __post_init__(self):
        check_positive(self.t60, "t60")
        check_positive(self.length, "length")


def synth_rir(config: RirConfig, sample_rate: int) -> Waveform:
    """Unit direct impulse plus an exponentially decaying noise tail.

    The amplitude envelope exp(-3*ln(10)*t/t60) makes the tail energy fall by
    60 dB over t60 seconds; the tail is rescaled to carry the same total
    energy as the direct path (0 dB direct-to-reverberant ratio).
    """
    rng = np.random.default_rng(config.seed)
    impulse_response = np.zeros(config.length)
    impulse_response[0] = 1.0
    tail_len = config.length - 1
    if tail_len > 0:
        t = np.arange(1, tail_len + 1) / sample_rate
        envelope = np.exp(-3.0 * np.log(10.0) * t / config.t60)
        tail = rng.standard_normal(tail_len) * envelope
        energy = float(np.sum(tail ** 2))
        if energy > 0:
            tail /= np.sqrt(energy)
        impulse_response[1:] = tail
    return Waveform(impulse_response, sample_rate)


def convolve(waveform: Waveform, impulse_response: Waveform) -> Waveform:
    """Full linear convolution, FFT-based above a small size cutoff."""
    if waveform.sample_rate != impulse_response.sample_rate:
        raise ConfigError("convolve needs matching sample rates")
    a, b = waveform.samples, impulse_response.samples
    out_len = len(a) + len(b) - 1
    if len(a) == 0 or len(b) == 0:
        return Waveform(np.zeros(max(out_len, 0)), waveform.sample_rate)
    if out_len <= 4096:
        result = np.convolve(a, b)
    else:
        nfft = 1 << (out_len - 1).bit_length()
        result = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:out_len]
    return Waveform(result, waveform.sample_rate)


@dataclass
class MixResult:
    mixed: Waveform
    noise_component: np.ndarray
    alpha: float
    offset: int


def mix_at_snr(
    clean: Waveform, noise: Waveform, snr_db: float, rng: np.random.Generator
) -> MixResult:
    """Add a random crop of noise scaled so the whole-utterance SNR hits snr_db."""
    if clean.sample_rate != noise.sample_rate:
        raise ConfigError("mix_at_snr needs matching sample rates")
    if len(noise) < len(clean):
        raise ConfigError(f"noise ({len(noise)}) shorter than clean ({len(clean)})")
    if not np.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")
    offset = int(rng.integers(0, len(noise) - len(clean) + 1))
    crop = noise.samples[offset:offset + len(clean)]
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(crop ** 2))
    if p_clean <= 0.0:
        raise NumericError("clean signal is silent; SNR is undefined")
    if p_noise <= 0.0:
        raise NumericError("noise crop is silent; SNR is undefined")
    alpha = float(np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0))))
    scaled = alpha * crop
    return MixResult(
        mixed=Waveform(clean.samples + scaled, clean.sample_rate),
        noise_component=scaled,
        alpha=alpha,
        offset=offset,
    )


def synth_speech(duration_seconds: float, sample_rate: int, seed: int) -> Waveform:
    """Speech-like test signal: jittered harmonics under a syllabic envelope.

    Each syllable gets its own base pitch and harmonic amplitude profile
    (phoneme-like spectral change), and the pitch carries a few percent of
    fast jitter. The jitter matters: it decorrelates the direct sound over
    tens of milliseconds the way real voices do, so delayed-prediction
    dereverberation sees reverberation, not the signal, as predictable.
    """
    check_positive(duration_seconds, "duration_seconds")
    rng = np.random.default_rng(seed)
    n = int(round(duration_seconds * sample_rate))
    n_harmonics = 16  # 16 * 260 Hz stays below Nyquist at 16 kHz

    # Syllable plan: (start, end, base pitch, per-harmonic amplitudes, level).
    syllables = []
    pos = 0
    while pos < n:
        on = int(rng.uniform(0.06, 0.20) * sample_rate)
        gap = int(rng.uniform(0.02, 0.09) * sample_rate)
        base_pitch = rng.uniform(100.0, 240.0)
        tilt = rng.uniform(0.7, 1.6)
        amps = rng.uniform(0.2, 1.0, n_harmonics) / np.arange(1, n_harmonics + 1) ** tilt
        syllables.append((pos, min(pos + on, n), base_pitch, amps, rng.uniform(0.35, 1.0)))
        pos += on + gap

    # Pitch track: per-syllable base plus a random walk and ~2% fast jitter.
    ctrl_rate = 100.0
    n_ctrl = max(2, int(duration_seconds * ctrl_rate) + 1)
    ctrl_t = np.arange(n_ctrl) * sample_rate / ctrl_rate
    pitch_ctrl = np.full(n_ctrl, 150.0)
    for start, end, base_pitch, _, _ in syllables:
        sel = (ctrl_t >= start) & (ctrl_t < end + 0.05 * sample_rate)
        pitch_ctrl[sel] = base_pitch
    pitch_ctrl += np.cumsum(rng.normal(0.0, 1.5, n_ctrl))
    pitch_ctrl *= 1.0 + 0.02 * rng.standard_normal(n_ctrl)
    pitch_ctrl = np.clip(pitch_ctrl, 80.0, 260.0)
    pitch = np.interp(np.arange(n), ctrl_t, pitch_ctrl)
    phase = 2.0 * np.pi * np.cumsum(pitch) / sample_rate

    voiced = np.zeros(n)
    envelope = np.zeros(n)
    for start, end, _, amps, level in syllables:
        seg = slice(start, end)
        envelope[seg] = level
        shimmer = 1.0 + 0.15 * rng.standard_normal(max(1, (end - start) // 160 + 1))
        shimmer = np.interp(np.arange(end - start), np.arange(len(shimmer)) * 160, shimmer)
        chunk = np.zeros(end - start)
        for k in range(1, n_harmonics + 1):
            chunk += amps[k - 1] * np.sin(k * phase[seg] + rng.uniform(0.0, 2.0 * np.pi))
        voiced[seg] = chunk * shimmer

    ramp = max(3, int(0.010 * sample_rate))
    kernel = np.hanning(ramp)
    envelope = np.convolve(envelope, kernel / kernel.sum(), mode="same")

    breath = np.diff(rng.standard_normal(n + 1))  # crude high-pass excitation
    samples = voiced * envelope + breath * (0.06 * envelope + 0.004)
    peak = float(np.max(np.abs(samples)))
    if peak > 0:
        samples *= 0.5 / peak
    return Waveform(samples, sample_rate)


_NOISE_POWER_SLOPES = {"white": 0.0, "pink": 1.0, "brown": 2.0, "rumble": 2.5}


def synth_noise(
    duration_seconds: float, sample_rate: int, seed: int, color: str = "pink"
) -> Waveform:
    """Seeded stationary noise with power spectrum ~ 1/f^slope per color."""
    check_positive(duration_seconds, "duration_seconds")
    check_choice(color, tuple(_NOISE_POWER_SLOPES), "color")
    rng = np.random.default_rng(seed)
    n = int(round(duration_seconds * sample_rate))
    white = rng.standard_normal(n)
    slope = _NOISE_POWER_SLOPES[color]
    if slope == 0.0:
        samples = white
    else:
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        spectrum /= np.maximum(freqs, 10.0) ** (slope / 2.0)
        samples = np.fft.irfft(spectrum, n)
    rms = float(np.sqrt(np.mean(samples ** 2)))
    samples *= 0.08 / max(rms, 1e-12)
    return Waveform(samples, sample_rate)


def _finite_number(value) -> bool:
    """Whether value is a finite real number and not a boolean: what an SNR in dB may be."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and bool(np.isfinite(value))


@dataclass
class ManifestEntry:
    """One mixture; the fields are exactly the manifest JSON keys of an entry."""

    id: str
    split: str
    clean_id: str
    noise_id: Optional[str]
    rir_id: Optional[str]
    snr_db: Optional[float]  # None means no additive noise for this entry
    clean_wav: str
    reverberant_wav: str
    noisy_wav: str
    reference_features: str

    def __post_init__(self):
        check_choice(self.split, SPLITS, "split")
        for f in fields(self):
            value = getattr(self, f.name)
            nullable = f.name in ("noise_id", "rir_id")
            if f.name != "snr_db" and not isinstance(value, str) and not (nullable and value is None):
                raise ConfigError(f"manifest entry field {f.name} must be a string, got {value!r}")
        if self.snr_db is not None and not _finite_number(self.snr_db):
            raise ConfigError(f"snr_db must be a finite number or None, got {self.snr_db!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ManifestEntry":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


@dataclass
class CorpusManifest:
    root: Path
    sample_rate: int
    feature_config: dict
    entries: list[ManifestEntry] = field(default_factory=list)

    def split_entries(self, split: str) -> list[ManifestEntry]:
        check_choice(split, SPLITS, "split")
        return [e for e in self.entries if e.split == split]

    def resolve(self, relative: str) -> Path:
        return self.root / relative

    def load_waveform(self, relative: str, root=None) -> Waveform:
        """The WAV at relative under root (the manifest's directory by default).

        A rate other than the manifest's is a ManifestError: its front end would misread the WAV.
        """
        path = (self.root if root is None else Path(root)) / relative
        waveform = load_wav(path)
        if waveform.sample_rate != self.sample_rate:
            raise ManifestError(
                f"{path}: sample rate {waveform.sample_rate} != manifest rate {self.sample_rate}"
            )
        return waveform

    def _corpus_config(self) -> "CorpusConfig":
        return CorpusConfig(sample_rate=self.sample_rate, **self.feature_config)

    def stft_config(self) -> StftConfig:
        return self._corpus_config().stft_config()

    def mel_config(self) -> MelConfig:
        return self._corpus_config().mel_config()

    def save(self, path=None) -> Path:
        path = Path(path) if path else self.root / "manifest.json"
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "sample_rate": self.sample_rate,
            "feature_config": self.feature_config,
            "entries": [e.to_dict() for e in self.entries],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise ManifestError(f"{path}: not a schema-{MANIFEST_SCHEMA_VERSION} manifest object")
        try:
            feature_config = payload["feature_config"]
            if not isinstance(feature_config, dict) or set(feature_config) != set(FEATURE_KEYS):
                raise ManifestError(f"{path}: feature_config must hold exactly {FEATURE_KEYS}")
            manifest = cls(
                root=path.parent,
                sample_rate=int(payload["sample_rate"]),
                feature_config=feature_config,
                entries=[ManifestEntry.from_dict(e) for e in payload["entries"]],
            )
            manifest.stft_config()  # each checks the sample rate and front-end values
            manifest.mel_config()
        except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise ManifestError(f"{path}: malformed manifest ({exc!r})") from exc
        repeated = sorted(i for i, n in Counter(e.id for e in manifest.entries).items() if n > 1)
        if repeated:
            raise ManifestError(f"{path}: entry ids must be unique, repeated: {repeated}")
        return manifest


@dataclass(frozen=True)
class CorpusConfig:
    sample_rate: int = 16000
    utterance_seconds: float = 1.5
    n_train: int = 20
    n_dev: int = 5
    n_test: int = 5
    snr_grid: tuple = DEFAULT_SNR_GRID  # empty: no additive noise
    noise_color: str = "pink"
    t60: float = 0.5
    n_rirs: int = 3  # 0: no reverberation
    n_noises: int = 2
    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512
    window: str = "hann"
    n_mels: int = 40
    f_min: float = 0.0
    f_max: float = 8000.0
    mel_mode: str = "power"
    magnitude_floor: float = DEFAULT_MAGNITUDE_FLOOR
    seed: int = 0

    def __post_init__(self):
        check_positive(self.sample_rate, "sample_rate")
        check_positive(self.utterance_seconds, "utterance_seconds")
        check_positive(self.t60, "t60")
        check_choice(self.noise_color, tuple(_NOISE_POWER_SLOPES), "noise_color")
        for name in ("n_train", "n_dev", "n_test", "n_rirs"):
            check_count(getattr(self, name), name)
        check_count(self.n_noises, "n_noises", minimum=1 if self.snr_grid else 0)
        for snr_db in self.snr_grid:
            if not _finite_number(snr_db):
                raise ConfigError(f"snr_grid values must be finite numbers, got {snr_db!r}")
        # Each value names its entries and seeds their mix, so two must not share a label.
        labels = Counter(_snr_label(float(snr_db)) for snr_db in self.snr_grid)
        repeated = sorted(label for label, n in labels.items() if n > 1)
        if repeated:
            raise ConfigError(f"snr_grid values must be distinct, repeated: {repeated}")
        check_positive(self.magnitude_floor, "magnitude_floor")

    def stft_config(self) -> StftConfig:
        return StftConfig(self.frame_len, self.hop, self.fft_size, self.window)

    def mel_config(self) -> MelConfig:
        return MelConfig(
            self.n_mels, self.f_min, self.f_max, self.sample_rate, self.fft_size, self.mel_mode,
            self.magnitude_floor,
        )

    def feature_config_dict(self) -> dict:
        return {k: getattr(self, k) for k in FEATURE_KEYS}


def _snr_label(snr_db: Optional[float]) -> str:
    if snr_db is None:
        return "nonoise"
    return "snr" + f"{snr_db:g}".replace("-", "m").replace(".", "p")


def _load_sources(paths: Sequence, sample_rate: int, kind: str) -> list[Waveform]:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise ManifestError(f"missing {kind} source file(s): " + ", ".join(missing))
    loaded = []
    for p in paths:
        w = load_wav(p)
        if w.sample_rate != sample_rate:
            raise ManifestError(f"{p}: sample rate {w.sample_rate} != corpus rate {sample_rate}")
        loaded.append(w)
    return loaded


def build_corpus(
    config: CorpusConfig,
    out_dir,
    clean_files: Optional[Sequence] = None,
    noise_files: Optional[Sequence] = None,
) -> CorpusManifest:
    """Generate all waveforms, reference features and the manifest.

    Per entry: reverberant = clean * RIR truncated to the clean length (so
    frame counts match the reference); noisy = reverberant + scaled noise at
    the entry's SNR. An empty snr_grid makes one entry per utterance with
    no noise (snr_db None), n_rirs=0 leaves reverberant equal to clean (rir_id
    None). Reference mel features always come from the clean signal.
    Every random choice derives from config.seed, so a rerun reproduces the
    corpus byte for byte. RIR and noise pools are drawn per split, so test
    rooms and noises differ from training ones.
    """
    # Everything that can refuse the config runs before the first directory is made.
    stft_cfg = config.stft_config()
    filterbank = mel_matrix(config.mel_config())
    sr = config.sample_rate

    external_clean = _load_sources(clean_files, sr, "clean") if clean_files else None
    external_noise = _load_sources(noise_files, sr, "noise") if noise_files else None

    root = Path(out_dir)
    for sub in ("clean", "reverb", "noisy", "ref_mel", "rir", "noise"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    manifest = CorpusManifest(
        root=root, sample_rate=sr, feature_config=config.feature_config_dict()
    )
    counts = {"train": config.n_train, "dev": config.n_dev, "test": config.n_test}
    snr_values: list[Optional[float]] = [float(s) for s in config.snr_grid] or [None]
    # Each RIR ends at the nominal -60 dB point, with at least one tail sample.
    rir_len = max(int(round(config.t60 * sr)), 2)

    for split in SPLITS:
        rirs = []
        for j in range(config.n_rirs):
            # Rooms differ per split and per index: jittered t60 and DRR keep
            # the reverberation from being a single learnable transformation.
            param_rng = np.random.default_rng(derive_seed(config.seed, f"rirparams/{split}/{j}"))
            t60 = config.t60 * (1.0 + T60_JITTER * param_rng.uniform(-1.0, 1.0))
            drr_db = DRR_JITTER_DB * param_rng.uniform(-1.0, 1.0)
            rir_cfg = RirConfig(
                t60=t60, length=rir_len, seed=derive_seed(config.seed, f"rir/{split}/{j}")
            )
            rir = synth_rir(rir_cfg, sr)
            rir.samples[1:] *= 10.0 ** (-drr_db / 20.0)  # the tail after the direct path
            save_wav(rir, root / "rir" / f"{split}_rir{j}.wav", encoding="float32")
            rirs.append(rir)
        noises = []
        if config.snr_grid:
            noise_duration = 2.0 * config.utterance_seconds + 1.0
            for j in range(config.n_noises):
                if external_noise:
                    noises.append(external_noise[j % len(external_noise)])
                else:
                    noise = synth_noise(
                        noise_duration, sr, derive_seed(config.seed, f"noise/{split}/{j}"),
                        config.noise_color,
                    )
                    save_wav(noise, root / "noise" / f"{split}_noise{j}.wav", encoding="float32")
                    noises.append(noise)

        for i in range(counts[split]):
            clean_id = f"{split}_{i:03d}"
            if external_clean:
                clean = external_clean[i % len(external_clean)]
            else:
                clean = synth_speech(
                    config.utterance_seconds, sr, derive_seed(config.seed, f"clean/{split}/{i}")
                )
            clean_rel = f"clean/{clean_id}.wav"
            save_wav(clean, root / clean_rel, encoding="float32")

            rir_id = None
            if rirs:
                rir_index = i % len(rirs)
                rir_id = f"{split}_rir{rir_index}"
                reverberant = Waveform(
                    convolve(clean, rirs[rir_index]).samples[: len(clean)], sr
                )
            else:
                reverberant = clean

            ref_rel = f"ref_mel/{clean_id}.sfmf"
            write_features(
                root / ref_rel,
                log_mel(stft(clean, stft_cfg), filterbank, config.magnitude_floor, config.mel_mode),
            )
            reverb_rel = f"reverb/{clean_id}.wav"
            save_wav(reverberant, root / reverb_rel, encoding="float32")

            for snr_db in snr_values:
                entry_id = f"{clean_id}-{_snr_label(snr_db)}"
                noise_id = None
                if snr_db is None:
                    noisy = reverberant
                else:
                    noise_index = i % len(noises)
                    noise_id = f"{split}_noise{noise_index}"
                    mix_rng = np.random.default_rng(
                        derive_seed(config.seed, f"mix/{split}/{i}/{snr_db:g}")
                    )
                    noisy = mix_at_snr(reverberant, noises[noise_index], snr_db, mix_rng).mixed
                noisy_rel = f"noisy/{entry_id}.wav"
                save_wav(noisy, root / noisy_rel, encoding="float32")

                manifest.entries.append(ManifestEntry(
                    entry_id, split, clean_id, noise_id, rir_id, snr_db,
                    clean_rel, reverb_rel, noisy_rel, ref_rel,
                ))

    manifest.save()
    return manifest

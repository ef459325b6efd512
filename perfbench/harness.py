"""The specmap benchmark: three seeded workloads, their timed passes, checks and metrics.

Each workload is a closed loop driven from one process: a timed pass starts
only after the previous one returns. A fixed reference kernel runs just
before and after every pass, and pass times are reported at reference
speed: rescaled to a machine on which the kernel takes REFERENCE_S. The
host's single-thread speed swings by up to 1.6x for minutes at a time, and
kernel and pass slow down together, so the rescaled times are steadier than
raw wall times. The set-up generates `corpora` seeded
corpora of one size, and pass k runs on corpus k mod `corpora`, so every
pass does the same amount of work. Quality depends far more on the corpus
than timing does: averaged over the corpora, one seed's mel_mse and lsd_db
are steady. All calls go through the public specmap API, looked up on the
package at call time so that the traced run's wrappers are reached.

- dereverb: wpe_only enhancement of reverberant, noisy 3 s utterances over
  the whole SNR grid. It writes features and waveforms, reads them back, and
  evaluate_system scores them. WPE dominates; the mapper does no work.
- map_infer: dnn_only enhancement with the paper-size [2827,2048,2048,40]
  mapper, whose normalizer and init_model weights are fixed at seed 0. The
  forward pass dominates; WPE does no work. Forward-pass cost does not
  depend on the weight values.
- train: the original recipe at the shape of acceptance criterion 6. Feature
  extraction, train() for a fixed epoch budget with no early stop, then the
  test split through map_features. This is the write side of mlp, against
  the read-only forward pass of map_infer.
"""

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import specmap
from specmap.seeding import derive_seed
from tracer import Tracer

CONTEXT = 5
ORIGINAL_RECIPE = ("global_mvn", "global_minmax_01")
REFERENCE_S = 0.2                 # reference speed: ReferenceKernel.seconds() takes this long


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class ReferenceKernel:
    """Fixed numpy work that gauges the machine's current single-thread speed.

    Each part is a small copy of what one workload spends its time on: small
    complex solves in a Python loop and a batched complex product over a
    12 MB array (WPE), float64 GEMMs with a transcendental at the training
    shape, the paper-size mapper's forward pass on 64 frames, and adagrad
    training steps at the training shape. It uses numpy only, never specmap,
    so a change to the library cannot move it, and every call does the same
    work on the same inputs.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        self.matrix = a @ a.conj().T + np.eye(10)
        self.rhs = rng.standard_normal(10) + 0j
        self.context = rng.standard_normal((257, 10, 300)) + 1j * rng.standard_normal((257, 10, 300))
        self.left = rng.standard_normal((128, 2827))
        self.right = rng.standard_normal((2827, 128))
        self.frames = rng.standard_normal((64, 2827))
        self.mapper = [0.02 * rng.standard_normal(shape) for shape in ((2827, 2048), (2048, 2048), (2048, 40))]
        self.batch = rng.standard_normal((128, 2827))
        self.targets = rng.random((128, 40))
        self.trained = [rng.standard_normal(shape) * scale
                        for shape, scale in (((2827, 128), 0.02), ((128, 128), 0.1), ((128, 40), 0.1))]

    def seconds(self) -> float:
        started = time.perf_counter()
        for _ in range(400):
            np.linalg.solve(self.matrix, self.rhs)
        for _ in range(2):
            weighted = self.context / (1.0 + np.abs(self.context))
            weighted @ self.context.conj().transpose(0, 2, 1)
        for _ in range(20):
            np.tanh(self.left @ self.right)
        hidden = self.frames
        for weight in self.mapper:
            hidden = _sigmoid(hidden @ weight)
        self._train_steps(8)
        return time.perf_counter() - started

    def _train_steps(self, steps: int) -> None:
        w1, w2, w3 = (w.copy() for w in self.trained)
        accumulators = [np.zeros_like(w) for w in (w1, w2, w3)]
        for _ in range(steps):
            h1 = _sigmoid(self.batch @ w1)
            h2 = _sigmoid(h1 @ w2)
            error = h2 @ w3 - self.targets
            d2 = (error @ w3.T) * h2 * (1 - h2)
            d1 = (d2 @ w2.T) * h1 * (1 - h1)
            gradients = (self.batch.T @ d1, h1.T @ d2, h2.T @ error)
            for accumulator, gradient, weight in zip(accumulators, gradients, (w1, w2, w3)):
                accumulator += gradient * gradient
                weight -= 0.001 * gradient / (np.sqrt(accumulator) + 1e-8)


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is what run.py measures; the smoke test shrinks it."""

    utterance_seconds: float = 3.0
    enhance_clean: int = 2           # clean test utterances per enhancement pass, each at 6 SNRs
    mapper_hidden: tuple = (2048, 2048)
    normalizer_clean: int = 1        # clean utterances (x6 SNRs) the map_infer normalizer is fitted on
    train_utterance_seconds: float = 1.5
    train_clean: int = 6
    train_test_clean: int = 10
    train_hidden: tuple = (128, 128)
    train_epochs: int = 6
    corpora: int = 8                 # input sets; pass k runs on corpus k mod corpora
    setup_repeats: int = 3           # at least this many set-ups ...
    setup_seconds: float = 2.0       # ... and more while they take less than this in total
    min_passes: int = 3


FULL = Scale()


@dataclass
class PassResult:
    attempted: int
    failed: int
    wall_s: float
    core_s: float                 # inside batch_enhance, or inside train()
    core_frames: int              # frames through that call; frames x epochs for train()
    audio_s: float                # seconds of audio the pass processed
    mel_mse: Optional[float]
    lsd_db: Optional[float]
    input_id: int = 0             # which of the workload's input sets the pass ran on
    traced: bool = False
    kernel_s: float = REFERENCE_S  # mean of the reference kernel's times just before and after the pass

    def at_reference(self, seconds: float) -> float:
        """A time measured near this pass, rescaled to reference speed."""
        return seconds * REFERENCE_S / self.kernel_s


def _log_magnitude(manifest, entry) -> np.ndarray:
    wave = specmap.load_wav(manifest.resolve(entry.noisy_wav))
    spectrogram = specmap.stft(wave, manifest.stft_config())
    return specmap.log_magnitude(spectrogram, manifest.feature_config["magnitude_floor"])


def _reference(manifest, entry) -> np.ndarray:
    return specmap.read_features(manifest.resolve(entry.reference_features))


def _output_ok(features: np.ndarray, reference: np.ndarray) -> bool:
    return features.shape == reference.shape and bool(np.all(np.isfinite(features)))


def _mel_lsd(features: np.ndarray, reference: np.ndarray) -> float:
    # Log-mel holds log power; halving it gives the log-magnitude scale the metric expects.
    return specmap.log_spectral_distortion(0.5 * features, 0.5 * reference)


def _mean(values) -> Optional[float]:
    return float(np.mean(values)) if values else None


@dataclass
class Corpus:
    manifest: specmap.CorpusManifest
    references: dict                 # test entry id -> clean reference log-mel


def _build_corpus(workdir: Path, seed: int, index: int, **config) -> Corpus:
    manifest = specmap.build_corpus(
        specmap.CorpusConfig(n_dev=0, seed=derive_seed(seed, f"corpus/{index}"), **config),
        workdir / f"corpus{index}",
    )
    references = {e.id: _reference(manifest, e) for e in manifest.split_entries("test")}
    return Corpus(manifest, references)


@dataclass
class EnhanceInputs:
    corpora: list[Corpus]
    config: specmap.PipelineConfig


class _Enhance:
    """One pass: batch_enhance over a corpus' test split, read back, check and score."""

    mode = ""
    save_waveforms = False

    def __init__(self, seed: int, scale: Scale = FULL):
        self.seed = seed
        self.scale = scale

    def _corpora(self, workdir: Path) -> list[Corpus]:
        return [
            _build_corpus(
                workdir, self.seed, k,
                utterance_seconds=self.scale.utterance_seconds,
                n_train=0,
                n_test=self.scale.enhance_clean,
            )
            for k in range(self.scale.corpora)
        ]

    def run_pass(self, inputs: EnhanceInputs, out_dir: Path, index: int) -> PassResult:
        input_id = index % len(inputs.corpora)
        corpus = inputs.corpora[input_id]
        entries = corpus.manifest.split_entries("test")
        started = time.perf_counter()
        batch = specmap.batch_enhance(
            corpus.manifest, inputs.config, out_dir, save_waveforms=self.save_waveforms
        )
        core_s = time.perf_counter() - started
        passed, outputs = [], {}
        for entry in entries:
            if entry.id in batch.failures:
                continue
            try:
                features = specmap.read_features(out_dir / batch.features[entry.id])
                if not _output_ok(features, corpus.references[entry.id]):
                    continue
                if self.save_waveforms and not self._waveform_ok(corpus, out_dir, batch, entry):
                    continue
            except (specmap.SpecmapError, OSError):
                continue
            passed.append(entry)
            outputs[entry.id] = features
        try:
            mel_mse, lsd_db = self._score(corpus, out_dir, passed, outputs)
        except (specmap.SpecmapError, OSError):
            passed, mel_mse, lsd_db = [], None, None
        wall_s = time.perf_counter() - started
        return PassResult(
            attempted=len(entries),
            failed=len(entries) - len(passed),
            wall_s=wall_s,
            core_s=core_s,
            core_frames=sum(outputs[e.id].shape[0] for e in passed),
            audio_s=len(entries) * self.scale.utterance_seconds,
            mel_mse=mel_mse,
            lsd_db=lsd_db,
            input_id=input_id,
        )

    @staticmethod
    def _waveform_ok(corpus: Corpus, out_dir: Path, batch, entry) -> bool:
        wave = specmap.load_wav(out_dir / batch.waveforms[entry.id])  # rejects non-finite samples
        stft_config = corpus.manifest.stft_config()
        frames = corpus.references[entry.id].shape[0]
        return len(wave) == (frames - 1) * stft_config.hop + stft_config.frame_len

    def _score(self, corpus: Corpus, out_dir: Path, passed: list, outputs: dict):
        raise NotImplementedError


class Dereverb(_Enhance):
    name = "dereverb"
    mode = "wpe_only"
    save_waveforms = True

    def setup(self, workdir: Path) -> EnhanceInputs:
        corpora = self._corpora(workdir)
        manifest = corpora[0].manifest
        config = specmap.PipelineConfig(
            mode=self.mode, stft=manifest.stft_config(), mel=manifest.mel_config()
        )
        return EnhanceInputs(corpora, config)

    def _score(self, corpus, out_dir, passed, outputs):
        if not passed:
            return None, None
        manifest = corpus.manifest
        scored = specmap.CorpusManifest(
            manifest.root, manifest.sample_rate, manifest.feature_config, list(passed)
        )
        evaluation = specmap.evaluate_system(scored, out_dir, self.mode)
        return tuple(
            specmap.condition_average(c.means[metric] for c in evaluation.conditions)
            for metric in ("mel_mse", "lsd_db")
        )


class MapInfer(_Enhance):
    name = "map_infer"
    mode = "dnn_only"

    def setup(self, workdir: Path) -> EnhanceInputs:
        # The mapper stands for one deployed checkpoint: its normalizer and
        # weights come from seed 0 whatever the workload seed, which only
        # picks the corpora it enhances. A per-seed random mapper moved the
        # test mel_mse by about 10% between seeds.
        manifest = _build_corpus(
            workdir / "mapper", 0, 0,
            utterance_seconds=self.scale.utterance_seconds,
            n_train=self.scale.normalizer_clean,
            n_test=0,
        ).manifest
        train_entries = manifest.split_entries("train")
        inputs = [specmap.assemble_context(_log_magnitude(manifest, e), CONTEXT) for e in train_entries]
        targets = [_reference(manifest, e) for e in train_entries]
        norm = specmap.fit_normalizer(inputs, targets, *ORIGINAL_RECIPE)
        dims = [inputs[0].shape[1], *self.scale.mapper_hidden, targets[0].shape[1]]
        model = specmap.init_model(dims, "sigmoid", derive_seed(0, "init"), norm)
        config = specmap.PipelineConfig(
            mode=self.mode,
            stft=manifest.stft_config(),
            mel=manifest.mel_config(),
            context=CONTEXT,
            model=model,
        )
        return EnhanceInputs(self._corpora(workdir), config)

    def _score(self, corpus, out_dir, passed, outputs):
        pairs = [(outputs[e.id], corpus.references[e.id]) for e in passed]
        return (
            _mean([specmap.mel_mse(out, ref) for out, ref in pairs]),
            _mean([_mel_lsd(out, ref) for out, ref in pairs]),
        )


@dataclass
class TrainInputs:
    corpora: list[Corpus]
    baselines: list[float]           # per corpus: unenhanced noisy log-mel against the references
    filterbank: np.ndarray
    initial: specmap.MlpModel


class Train:
    """One pass: extract features, train a fresh copy of one seeded model, map the test split."""

    name = "train"

    def __init__(self, seed: int, scale: Scale = FULL):
        self.seed = seed
        self.scale = scale

    def setup(self, workdir: Path) -> TrainInputs:
        stft_config, mel_config = specmap.StftConfig(), specmap.MelConfig()
        filterbank = specmap.mel_matrix(mel_config)
        corpora, baselines = [], []
        for k in range(self.scale.corpora):
            corpus = _build_corpus(
                workdir, self.seed, k,
                utterance_seconds=self.scale.train_utterance_seconds,
                n_train=self.scale.train_clean,
                n_test=self.scale.train_test_clean,
                n_rirs=5,
                noise_color="rumble",
            )
            fc = corpus.manifest.feature_config
            mses = []
            for entry in corpus.manifest.split_entries("test"):
                noisy = specmap.stft(
                    specmap.load_wav(corpus.manifest.resolve(entry.noisy_wav)), stft_config
                )
                noisy_mel = specmap.log_mel(noisy, filterbank, fc["magnitude_floor"], fc["mel_mode"])
                mses.append(specmap.mel_mse(noisy_mel, corpus.references[entry.id]))
            corpora.append(corpus)
            baselines.append(float(np.mean(mses)))
        dims = [(2 * CONTEXT + 1) * stft_config.n_bins, *self.scale.train_hidden, mel_config.n_mels]
        initial = specmap.init_model(dims, "sigmoid", derive_seed(self.seed, "init"))
        return TrainInputs(corpora, baselines, filterbank, initial)

    def run_pass(self, inputs: TrainInputs, out_dir: Path, index: int) -> PassResult:
        input_id = index % len(inputs.corpora)
        corpus = inputs.corpora[input_id]
        manifest = corpus.manifest
        train_entries = manifest.split_entries("train")
        test_entries = manifest.split_entries("test")
        started = time.perf_counter()
        core_s, core_frames, mel_mse, lsd_db, ok = 0.0, 0, None, None, False
        try:
            features = [specmap.assemble_context(_log_magnitude(manifest, e), CONTEXT) for e in train_entries]
            targets = [_reference(manifest, e) for e in train_entries]
            norm = specmap.fit_normalizer(features, targets, *ORIGINAL_RECIPE)
            x = np.vstack([specmap.normalize(m, norm, "input") for m in features])
            y = np.vstack([specmap.normalize(m, norm, "reference") for m in targets])
            del features
            weights, biases = inputs.initial.copy_parameters()
            model = specmap.MlpModel(weights, biases, norm_spec=norm, seed=inputs.initial.seed)
            config = specmap.TrainConfig(
                batch_size=128,
                learning_rate=0.05,
                max_epochs=self.scale.train_epochs,
                rng_seed=derive_seed(self.seed, "train"),
            )
            train_started = time.perf_counter()
            model, history = specmap.train(model, x, y, config)
            core_s = time.perf_counter() - train_started
            core_frames = x.shape[0] * len(history.train_cost)
            del x, y
            mses, lsds, ok = [], [], True
            for entry in test_entries:
                mapped = specmap.map_features(
                    model, _log_magnitude(manifest, entry), CONTEXT, inputs.filterbank,
                    manifest.feature_config["magnitude_floor"],
                ).denormalized
                reference = corpus.references[entry.id]
                ok = ok and mapped is not None and _output_ok(mapped, reference)
                if ok:
                    mses.append(specmap.mel_mse(mapped, reference))
                    lsds.append(_mel_lsd(mapped, reference))
            if ok:
                mel_mse, lsd_db = _mean(mses), _mean(lsds)
                ok = mel_mse < inputs.baselines[input_id]
        except (specmap.SpecmapError, OSError):
            ok = False
        wall_s = time.perf_counter() - started
        n_utterances = len(train_entries) + len(test_entries)
        return PassResult(
            attempted=1,
            failed=0 if ok else 1,
            wall_s=wall_s,
            core_s=core_s,
            core_frames=core_frames,
            audio_s=n_utterances * self.scale.train_utterance_seconds,
            mel_mse=mel_mse,
            lsd_db=lsd_db,
            input_id=input_id,
        )


WORKLOADS = {"dereverb": Dereverb, "map_infer": MapInfer, "train": Train}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s_at_ref": ("s", "lower"),
    "audio_xrt_at_ref": ("s/s", "higher"),
    "frames_per_s_at_ref": ("1/s", "higher"),
    "mel_mse": ("nat2", "lower"),
    "lsd_db": ("dB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Functions the traced run wraps, as <module>.<function>. corpus.* run during
# set-up and are reported per set-up; the rest are reported per timed pass.
TRACED = (
    "wpe.wpe_dereverberate", "wpe.solve_hermitian",
    "stft.stft", "stft.istft", "stft.log_magnitude", "mel.log_mel",
    "features.assemble_context", "features.fit_normalizer", "features.normalize",
    "mlp.map_features", "mlp.forward", "mlp.sigmoid",
    "mlp.train", "mlp.train_step", "mlp.loss_and_gradients", "mlp.evaluate_cost",
    "pipeline.enhance_utterance",
    "audio.load_wav", "audio.save_wav", "featio.write_features", "featio.read_features",
    "report.evaluate_system", "metrics.log_spectral_distortion", "metrics.segmental_snr",
    "corpus.build_corpus", "corpus.synth_speech", "corpus.synth_rir", "corpus.convolve",
    "corpus.mix_at_snr",
)


def _model_arg(args, kwargs):
    return args[0] if args else kwargs["model"]


def _forward_work(args, kwargs, result) -> dict:
    dims = _model_arg(args, kwargs).layer_dims
    rows = result.output.shape[0]
    return {"flop": 2 * rows * sum(a * b for a, b in zip(dims[:-1], dims[1:]))}


def _update_work(args, kwargs, result) -> dict:
    # Adagrad reads the gradient and reads and writes the accumulator and the
    # parameter: at least five float64 streams per parameter.
    model = _model_arg(args, kwargs)
    n_params = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
    return {"bytes": 5 * 8 * n_params}


def _wpe_work(args, kwargs, result) -> dict:
    return {"bins": result.filters.shape[0], "fallback": len(result.fallback_bins)}


HOOKS = {"mlp.forward": _forward_work, "mlp.train_step": _update_work, "wpe.wpe_dereverberate": _wpe_work}

# name -> (unit, better)
PER_LAYER = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "wpe.fallback_ratio": ("ratio", "lower"),
    "mlp.forward.gflop": ("GFLOP", "lower"),
    "mlp.forward.gflop_per_s": ("GFLOP/s", "higher"),
    "mlp.train.total_s": ("s", "lower"),
    "mlp.train_step.update_mb": ("MB", "lower"),
    "pipeline.enhance_utterance.samples": ("count", "higher"),
    "pipeline.enhance_utterance.p50_ms": ("ms", "lower"),
    "pipeline.enhance_utterance.p90_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.wall_s": ("s", "lower"),
    "host.kernel_s": ("s", "lower"),
})


def set_up(workload, workdir: Path, repeats: int, budget_s: float = 0.0):
    """Median set-up seconds over fresh set-ups, and the last set-up's inputs.

    Sets up at least `repeats` times, and again while the set-ups so far took
    less than `budget_s` in total, so that a cheap set-up gets more samples.
    """
    seconds, inputs = [], None
    while len(seconds) < repeats or sum(seconds) < budget_s:
        target = workdir / f"setup{len(seconds)}"
        started = time.perf_counter()
        inputs = workload.setup(target)
        seconds.append(time.perf_counter() - started)
        if len(seconds) > 1:
            shutil.rmtree(workdir / f"setup{len(seconds) - 2}", ignore_errors=True)
    return statistics.median(seconds), inputs


def run_passes(workload, inputs, workdir: Path, seconds: float, min_passes: int,
               tracer: Optional[Tracer] = None) -> list[PassResult]:
    """Closed loop for `seconds`, at least `min_passes` passes (of each kind when traced).

    With a tracer, untraced and traced passes alternate, so that both see the
    same machine state and their difference is the tracing overhead. The
    reference kernel runs, untraced, before the first pass and after every pass.
    """
    kernel = ReferenceKernel()
    kernel_before = kernel.seconds()
    passes: list[PassResult] = []
    # An untraced run covers every input set, so its quality metrics are complete.
    needed = 2 * min_passes if tracer else max(min_passes, workload.scale.corpora)
    started = time.perf_counter()
    while len(passes) < needed or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        out_dir = workdir / f"pass{len(passes)}"
        if traced:
            tracer.trace_id = len(passes)
            tracer.install()
        try:
            result = workload.run_pass(inputs, out_dir, len(passes))
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
        kernel_after = kernel.seconds()
        result.traced = traced
        result.kernel_s = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        passes.append(result)
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quality(passes: list[PassResult], metric: str) -> Optional[float]:
    """Mean over input sets of the metric's value on that set (passes on one set agree)."""
    per_set = {}
    for p in passes:
        value = getattr(p, metric)
        if value is not None:
            per_set.setdefault(p.input_id, value)
    return _mean(list(per_set.values()))


def end_to_end_metrics(setup_s: float, rss_mb: float, passes: list[PassResult]) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s_at_ref": statistics.median(p.at_reference(p.wall_s) for p in passes),
        "audio_xrt_at_ref": statistics.median(p.audio_s / p.at_reference(p.wall_s) for p in passes),
        "frames_per_s_at_ref": statistics.median(
            p.core_frames / p.at_reference(p.core_s) for p in passes
        ),
        "mel_mse": _quality(passes, "mel_mse"),
        "lsd_db": _quality(passes, "lsd_db"),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer: Tracer, passes: list[PassResult]) -> dict:
    n_passes = sum(p.traced for p in passes)
    self_time = tracer.self_times()
    spans: dict = {name: [] for name in TRACED}
    for span in tracer.spans:
        in_setup = span.trace_id == "setup"
        if in_setup == span.name.startswith("corpus."):
            spans[span.name].append(span)

    values = {}
    for name in TRACED:
        per = 1 if name.startswith("corpus.") else n_passes
        values[f"{name}.calls"] = len(spans[name]) / per
        values[f"{name}.self_s"] = sum(self_time[s.span_id] for s in spans[name]) / per

    def work_total(name, key):
        return sum(s.work[key] for s in spans[name] if s.work)

    bins = work_total("wpe.wpe_dereverberate", "bins")
    flop = work_total("mlp.forward", "flop")
    forward_self = sum(self_time[s.span_id] for s in spans["mlp.forward"])
    latencies_ms = [1e3 * s.duration for s in spans["pipeline.enhance_utterance"]]
    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall_s for p in passes if p.traced)
    values.update({
        "wpe.fallback_ratio": work_total("wpe.wpe_dereverberate", "fallback") / bins if bins else 0.0,
        "mlp.forward.gflop": flop / n_passes / 1e9,
        "mlp.forward.gflop_per_s": flop / forward_self / 1e9 if forward_self else 0.0,
        "mlp.train.total_s": sum(s.duration for s in spans["mlp.train"]) / n_passes,
        "mlp.train_step.update_mb": work_total("mlp.train_step", "bytes") / n_passes / 1e6,
        "pipeline.enhance_utterance.samples": len(latencies_ms),
        "pipeline.enhance_utterance.p50_ms": float(np.percentile(latencies_ms, 50)) if latencies_ms else 0.0,
        "pipeline.enhance_utterance.p90_ms": float(np.percentile(latencies_ms, 90)) if latencies_ms else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "host.wall_s": untraced_wall,
        "host.kernel_s": statistics.median(p.kernel_s for p in passes),
    })
    return values


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale: Scale = FULL):
    """One benchmark run: the result object run.py prints last, and the untraced passes."""
    workload = WORKLOADS[name](seed, scale)
    tracer = Tracer(TRACED, HOOKS) if trace else None
    if tracer:
        tracer.trace_id = "setup"
        tracer.install()
        try:
            setup_s, inputs = set_up(workload, workdir, 1)
        finally:
            tracer.uninstall()
    else:
        setup_s, inputs = set_up(workload, workdir, scale.setup_repeats, scale.setup_seconds)
    # An untimed warm-up pass. Peak memory is read after it, before the
    # reference kernel allocates its arrays; every later pass does the same work.
    workload.run_pass(inputs, workdir / "warmup", 0)
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    rss_mb = peak_rss_mb()
    passes = run_passes(workload, inputs, workdir, seconds, scale.min_passes, tracer)
    if tracer:
        values, units = layer_metrics(tracer, passes), PER_LAYER
    else:
        values, units = end_to_end_metrics(setup_s, rss_mb, passes), END_TO_END
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }
    return result, [p for p in passes if not p.traced]


def _git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy loaded, when it can be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_context(root: Path, pinned_threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": pinned_threads,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }

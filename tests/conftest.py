import dataclasses
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specmap
from specmap.audio import Waveform
from specmap.corpus import CorpusConfig, RirConfig, build_corpus, convolve, synth_rir, synth_speech


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small full-grid corpus shared by pipeline/report/CLI-independent tests."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    config = CorpusConfig(
        utterance_seconds=1.0,
        n_train=3,
        n_dev=2,
        n_test=2,
        n_rirs=2,
        n_noises=2,
        noise_color="rumble",
        seed=7,
    )
    manifest = build_corpus(config, root)
    return manifest


def make_reverberant_pair(seed: int, t60: float = 0.5, seconds: float = 1.5):
    """(clean, reverberant) waveform pair with a known synthetic room response."""
    clean = synth_speech(seconds, 16000, 1000 + seed)
    rir = synth_rir(RirConfig(t60=t60, length=8000, seed=2000 + seed), 16000)
    reverberant = Waveform(convolve(clean, rir).samples[: len(clean)], 16000)
    return clean, reverberant, rir


def relative_error(a, b, floor=1e-8):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def float64_model(model):
    """A copy of model with its parameters widened to float64, for the float64 reference paths.

    An MlpModel is built with float32 parameters, so the copy is built from
    them and its arrays are widened by assignment afterwards; it holds the
    same values, and every pass through it computes in float64.
    """
    wide = dataclasses.replace(model)
    wide.weights = [w.astype(np.float64) for w in model.weights]
    wide.biases = [b.astype(np.float64) for b in model.biases]
    return wide


def gathered_context(feats, context):
    """The fancy-index gather that assemble_context replaced: one copy per window."""
    n_frames = feats.shape[0]
    offsets = np.arange(-context, context + 1)
    index = np.clip(np.arange(n_frames)[:, None] + offsets[None, :], 0, n_frames - 1)
    return feats[index].reshape(n_frames, -1)


def run_script(script: str, *args, timeout: float = 300.0) -> subprocess.CompletedProcess:
    """Run `python -c script args...` in a new process group, with specmap importable.

    On timeout the whole group, worker processes and forked children
    included, is killed and the test fails.
    """
    src = str(Path(specmap.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    with subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as process:
        try:
            out, err = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail(f"script still running after {timeout} s")
    return subprocess.CompletedProcess(process.args, process.returncode, out, err)

import numpy as np
import pytest

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
    rir = synth_rir(RirConfig(t60=t60, length=8000, direct_delay=0, seed=2000 + seed), 16000)
    reverberant = Waveform(convolve(clean, rir).samples[: len(clean)], 16000)
    return clean, reverberant, rir


def relative_error(a, b, floor=1e-8):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def gathered_context(feats, context):
    """The fancy-index gather that assemble_context replaced: one copy per window."""
    n_frames = feats.shape[0]
    offsets = np.arange(-context, context + 1)
    index = np.clip(np.arange(n_frames)[:, None] + offsets[None, :], 0, n_frames - 1)
    return feats[index].reshape(n_frames, -1)

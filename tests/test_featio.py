import json
import struct

import numpy as np
import pytest

from specmap.cli import main
from specmap.errors import FormatError
from specmap.featio import load_model, read_features, save_model, write_features
from specmap.features import NormalizationSpec
from specmap.mlp import init_model


def test_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(13, 40))
    path = tmp_path / "x.sfmf"
    write_features(path, matrix)
    back = read_features(path)
    assert back.shape == (13, 40)
    assert np.array_equal(back, matrix.astype(np.float32).astype(np.float64))
    assert path.read_bytes()[:4] == b"SFMF"


def test_feature_rewrite_is_byte_identical(tmp_path):
    matrix = np.random.default_rng(1).normal(size=(7, 5))
    first = tmp_path / "a.sfmf"
    second = tmp_path / "b.sfmf"
    write_features(first, matrix)
    write_features(second, read_features(first))
    assert first.read_bytes() == second.read_bytes()


def test_feature_format_errors(tmp_path):
    bad = tmp_path / "bad.sfmf"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_features(bad)
    short = tmp_path / "short.sfmf"
    write_features(short, np.zeros((2, 3)))
    short.write_bytes(short.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_features(short)


def _norm_spec():
    return NormalizationSpec(
        input_mode="global_mvn",
        reference_mode="global_minmax_01",
        input_mean=np.arange(6.0),
        input_var=np.arange(1.0, 7.0),
        ref_min=np.array([-1.0, 0.0]),
        ref_max=np.array([0.5, 2.0]),
    )


def test_checkpoint_roundtrip(tmp_path):
    model = init_model([6, 4, 4, 2], "sigmoid", seed=3, norm_spec=_norm_spec())
    path = tmp_path / "m.sfmd"
    save_model(path, model, config={"context": 5, "recipe": "original"})
    loaded, config = load_model(path)
    assert config == {"context": 5, "recipe": "original"}
    assert loaded.layer_dims == [6, 4, 4, 2]
    assert loaded.output_activation == "sigmoid"
    assert loaded.seed == 3
    for a, b in zip(loaded.weights, model.weights):
        assert np.array_equal(a, b.astype(np.float32).astype(np.float64))
    assert np.array_equal(loaded.norm_spec.input_mean, model.norm_spec.input_mean)
    assert loaded.norm_spec.reference_mode == "global_minmax_01"


def test_checkpoint_save_load_save_bit_exact(tmp_path):
    model = init_model([5, 3, 2], "linear", seed=9, norm_spec=_norm_spec())
    first = tmp_path / "a.sfmd"
    second = tmp_path / "b.sfmd"
    save_model(first, model, config={"k": 1})
    loaded, config = load_model(first)
    save_model(second, loaded, config=config)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()[:4] == b"SFMD"


def test_checkpoint_format_errors(tmp_path):
    bad = tmp_path / "bad.sfmd"
    bad.write_bytes(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(FormatError):
        load_model(bad)
    truncated = tmp_path / "trunc.sfmd"
    model = init_model([4, 3, 2], "sigmoid", seed=1)
    save_model(truncated, model)
    truncated.write_bytes(truncated.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_model(truncated)


def _with_metadata(path, edit) -> None:
    """Rewrite the JSON block of the checkpoint at path with edit(metadata)."""
    blob = path.read_bytes()
    (n_layers,) = struct.unpack("<I", blob[8:12])
    shapes = [struct.unpack("<II", blob[12 + 8 * i:20 + 8 * i]) for i in range(n_layers)]
    pos = 12 + 8 * n_layers + sum(4 * (rows * cols + cols) for rows, cols in shapes)
    meta = edit(json.loads(blob[pos + 4:].decode("utf-8")))
    payload = json.dumps(meta).encode("utf-8")
    path.write_bytes(blob[:pos] + struct.pack("<I", len(payload)) + payload)


BAD_METADATA = {
    "not_an_object": lambda meta: [meta],
    "missing_seed": lambda meta: {k: v for k, v in meta.items() if k != "seed"},
    "mistyped_seed": lambda meta: {**meta, "seed": "x"},
    "missing_activation": lambda meta: {k: v for k, v in meta.items() if k != "output_activation"},
    "hidden_activation_not_sigmoid": lambda meta: {**meta, "hidden_activation": "tanh"},
    "norm_spec_not_an_object": lambda meta: {**meta, "norm_spec": [1, 2]},
    "norm_spec_bad_mode": lambda meta: {**meta, "norm_spec": {**meta["norm_spec"], "input_mode": "x"}},
    "norm_spec_missing_epsilon": lambda meta: {
        **meta, "norm_spec": {k: v for k, v in meta["norm_spec"].items() if k != "epsilon"}
    },
    "config_not_an_object": lambda meta: {**meta, "config": [5]},
}


@pytest.mark.parametrize("case", sorted(BAD_METADATA))
def test_malformed_checkpoint_metadata_is_a_format_error(case, tiny_corpus, tmp_path, capsys):
    path = tmp_path / "m.sfmd"
    save_model(path, init_model([6, 4, 2], "sigmoid", seed=3, norm_spec=_norm_spec()), {"context": 5})
    _with_metadata(path, BAD_METADATA[case])
    with pytest.raises(FormatError):
        load_model(path)
    code = main([
        "enhance", "--manifest", str(tiny_corpus.root / "manifest.json"), "--mode", "dnn_only",
        "--checkpoint", str(path), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "malformed metadata" in capsys.readouterr().err


def _enhance_dnn(manifest, checkpoint, out):
    return main([
        "enhance", "--manifest", str(manifest.root / "manifest.json"), "--mode", "dnn_only",
        "--checkpoint", str(checkpoint), "--out", str(out),
    ])


def test_enhance_takes_the_context_from_the_model_dims(tiny_corpus, tmp_path, capsys):
    n_bins = tiny_corpus.stft_config().n_bins
    norm_spec = NormalizationSpec(
        input_mode="global_mvn", reference_mode="global_minmax_01",
        input_mean=np.zeros(3 * n_bins), input_var=np.ones(3 * n_bins),
        ref_min=np.zeros(40), ref_max=np.ones(40),
    )
    model = init_model([3 * n_bins, 4, 40], "sigmoid", seed=3, norm_spec=norm_spec)
    good, edited = tmp_path / "good.sfmd", tmp_path / "edited.sfmd"
    save_model(good, model, {"context": 1})
    save_model(edited, model, {"context": 1})
    _with_metadata(edited, lambda meta: {**meta, "config": {"context": "x"}})
    assert _enhance_dnn(tiny_corpus, good, tmp_path / "good") == 0
    assert _enhance_dnn(tiny_corpus, edited, tmp_path / "edited") == 0
    written = sorted(p.name for p in (tmp_path / "good" / "features").iterdir())
    assert len(written) == len(tiny_corpus.split_entries("test"))
    for name in written:
        assert (tmp_path / "good" / "features" / name).read_bytes() == (
            tmp_path / "edited" / "features" / name
        ).read_bytes()

    wrong_dim = tmp_path / "wrong.sfmd"
    save_model(wrong_dim, init_model([3 * n_bins + 1, 4, 40], "sigmoid", seed=3), {"context": 1})
    capsys.readouterr()
    assert _enhance_dnn(tiny_corpus, wrong_dim, tmp_path / "wrong") == 2
    assert "model input dim" in capsys.readouterr().err

import json
import struct

import numpy as np
import pytest

from conftest import float64_model
from specmap.cli import main
from specmap.errors import FormatError, NumericError
from specmap.featio import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_model,
    read_features,
    save_model,
    write_features,
)
from specmap.features import NormalizationSpec
from specmap.mlp import TrainConfig, init_model, train
from specmap.pipeline import PipelineConfig
from specmap.runconfig import config_hash


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


@pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300])
def test_feature_beyond_float32_range_is_refused_before_writing(tmp_path, value):
    matrix = np.zeros((3, 4))
    matrix[1, 2] = value
    path = tmp_path / "big.sfmf"
    with pytest.raises(NumericError, match="beyond float32 range"):
        write_features(path, matrix)  # warnings are errors: the cast's overflow warning included
    assert not path.exists()


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
    model = float64_model(init_model([6, 4, 4, 2], "sigmoid", seed=3, norm_spec=_norm_spec()))
    path = tmp_path / "m.sfmd"
    save_model(path, model, config={"context": 5, "recipe": "original"})
    loaded, config = load_model(path)
    assert config == {"context": 5, "recipe": "original"}
    assert loaded.layer_dims == [6, 4, 4, 2]
    assert loaded.output_activation == "sigmoid"
    assert loaded.seed == 3
    for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
        assert a.dtype == np.float32 and np.array_equal(a, b.astype(np.float32))
    assert np.array_equal(loaded.norm_spec.input_mean, model.norm_spec.input_mean)
    assert loaded.norm_spec.reference_mode == "global_minmax_01"


def test_checkpoint_save_load_save_bit_exact(tmp_path):
    model = init_model([6, 3, 2], "linear", seed=9, norm_spec=_norm_spec())
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


def test_checkpoint_of_no_layers_is_a_format_error(tiny_corpus, tmp_path, capsys):
    meta = json.dumps({"hidden_activation": "sigmoid", "output_activation": "sigmoid", "seed": 3,
                       "norm_spec": _norm_spec().to_dict(), "config": {"context": 5}}).encode("utf-8")
    path = tmp_path / "m.sfmd"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, 0, len(meta)) + meta)
    with pytest.raises(FormatError, match="at least one layer"):
        load_model(path)
    capsys.readouterr()
    assert _enhance_dnn(tiny_corpus, path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    "norm_spec_narrower_than_the_input": lambda meta: {
        **meta, "norm_spec": {**meta["norm_spec"], "input_mean": [0.0] * 5}
    },
    "norm_spec_wider_than_the_output": lambda meta: {
        **meta, "norm_spec": {**meta["norm_spec"], "ref_min": [0.0] * 3, "ref_max": [1.0] * 3}
    },
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


def test_trained_model_is_float32_and_survives_a_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(40, 6)), rng.uniform(0.2, 0.8, size=(40, 2))
    initial = init_model([6, 4, 2], "sigmoid", seed=3, norm_spec=_norm_spec())
    model, _ = train(initial, x, y, TrainConfig(batch_size=8, max_epochs=2, rng_seed=1))
    assert model is initial  # trained in place
    assert all(p.dtype == np.float32 for p in model.weights + model.biases)
    path = tmp_path / "m.sfmd"
    save_model(path, model)
    loaded, _ = load_model(path)
    for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
        assert a.dtype == np.float32 and a.tobytes() == b.tobytes()
    # wpe_only checks no model dims against the front end, so a toy model hashes
    configs = [PipelineConfig(mode="wpe_only", model=m) for m in (model, loaded)]
    assert config_hash(configs[0].describe()) == config_hash(configs[1].describe())


def _nan_weight(model):
    model.weights[1][2, 1] = np.nan


def _inf_input_var(model):
    model.norm_spec.input_var[4] = np.inf


@pytest.mark.parametrize(
    "damage, named",
    [(_nan_weight, "layer 1 weights"), (_inf_input_var, "input_var")],
    ids=["nan_weight", "inf_input_var"],
)
def test_non_finite_checkpoint_is_refused_before_any_utterance(
    damage, named, tiny_corpus, tmp_path, capsys
):
    model = init_model([6, 4, 2], "sigmoid", seed=3, norm_spec=_norm_spec())
    damage(model)
    path = tmp_path / "m.sfmd"
    save_model(path, model)
    with pytest.raises(FormatError, match=f"non-finite values in {named}"):
        load_model(path)
    capsys.readouterr()
    assert _enhance_dnn(tiny_corpus, path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and named in err
    assert not (tmp_path / "out").exists()

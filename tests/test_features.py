import tracemalloc

import numpy as np
import pytest

from conftest import gathered_context
from specmap.errors import ConfigError
from specmap.features import (
    NormalizationSpec,
    assemble_context,
    denormalize,
    fit_normalizer,
    invert_mvn,
    normalize,
    utterance_stats,
)


def test_context_zero_is_identity():
    x = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(assemble_context(x, 0), x)


def test_context_single_frame_replicates():
    x = np.array([[1.0, 2.0]])
    out = assemble_context(x, 5)
    assert out.shape == (1, 22)
    assert np.array_equal(out, np.tile([1.0, 2.0], 11)[None, :])


def test_context_row_matches_index_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 4))
    out = assemble_context(x, 5)
    assert out.shape == (20, 44)
    expected = np.concatenate([x[t] for t in range(5, 16)])
    assert np.array_equal(out[10], expected)
    # edge rows replicate the nearest frame
    expected_first = np.concatenate([x[max(t, 0)] for t in range(-5, 6)])
    assert np.array_equal(out[0], expected_first)


def test_context_empty_input():
    out = assemble_context(np.zeros((0, 7)), 3)
    assert out.shape == (0, 49)


@pytest.mark.parametrize("context", [0, 1, 5])
@pytest.mark.parametrize("n_frames", [1, 2, 5, 11, 298])
def test_context_matches_the_gather_bitwise(n_frames, context):
    base = np.random.default_rng(n_frames * 10 + context).normal(size=(n_frames, 9))
    layouts = {
        "c_order": base,
        "fortran_order": np.asfortranarray(base),
        "column_slice": np.random.default_rng(context).normal(size=(n_frames, 20))[:, 3:12],
    }
    for name, feats in layouts.items():
        out = assemble_context(feats, context)
        expected = gathered_context(feats, context)
        assert out.dtype == np.float64 and out.shape == expected.shape, name
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), name


def test_context_result_is_read_only_and_private():
    feats = np.random.default_rng(3).normal(size=(12, 4))
    out = assemble_context(feats, 2)
    expected = out.copy()
    with pytest.raises(ValueError):
        out[0, 0] = 1.0
    feats[:] = 7.0  # the caller's array changes afterwards
    assert np.array_equal(out, expected)


def test_context_does_not_copy_each_frame_per_window():
    feats = np.random.default_rng(4).normal(size=(1000, 257))
    tracemalloc.start()
    try:
        out = assemble_context(feats, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1000, 11 * 257)
    assert peak < 3 * feats.nbytes  # the gather allocated 11x


def test_fit_normalizer_hand_stats():
    inputs = [np.array([[0.0, 2.0], [2.0, 0.0]])]
    refs = [np.array([[1.0], [3.0]])]
    spec = fit_normalizer(inputs, refs)
    assert np.allclose(spec.input_mean, [1.0, 1.0])
    assert np.allclose(spec.input_var, [1.0, 1.0])
    assert np.allclose(spec.ref_min, [1.0])
    assert np.allclose(spec.ref_max, [3.0])


def test_constant_dimension_clamps_with_warning():
    inputs = [np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])]
    refs = [np.array([[0.0], [1.0], [2.0]])]
    with pytest.warns(UserWarning):
        spec = fit_normalizer(inputs, refs)
    assert spec.input_var[0] == pytest.approx(spec.epsilon)
    normalized = normalize(inputs[0], spec, "input")
    assert np.allclose(normalized[:, 0], 0.0)


def test_minmax_maps_extremes_to_unit_interval():
    refs = [np.array([[2.0], [4.0], [3.0]])]
    spec = fit_normalizer(refs, refs)
    normalized = normalize(refs[0], spec, "reference")
    assert normalized.min() == 0.0
    assert normalized.max() == 1.0


def test_minmax_outside_training_range():
    spec = NormalizationSpec(ref_min=np.array([0.0]), ref_max=np.array([2.0]))
    out = normalize(np.array([[3.0]]), spec, "reference")
    assert out[0, 0] == pytest.approx(1.5)


def test_utterance_mvn_properties():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.5, size=(50, 6))
    spec = NormalizationSpec(input_mode="utterance_mvn", reference_mode="utterance_mvn")
    normalized = normalize(x, spec, "input")
    assert np.max(np.abs(normalized.mean(axis=0))) < 1e-9
    assert np.max(np.abs(normalized.var(axis=0) - 1.0)) < 1e-6


def test_single_frame_hits_variance_clamp():
    spec = NormalizationSpec(input_mode="utterance_mvn", reference_mode="utterance_mvn")
    out = normalize(np.array([[4.0, -2.0]]), spec, "input")
    assert np.allclose(out, 0.0)


def test_denormalize_inverts():
    rng = np.random.default_rng(2)
    inputs = [rng.normal(size=(30, 5)) * 4 + 2]
    refs = [rng.uniform(-3, 5, size=(30, 2))]
    spec = fit_normalizer(inputs, refs)
    x = rng.normal(size=(8, 5))
    restored = invert_mvn(normalize(x, spec, "input"), spec.input_mean, spec.input_var)
    assert np.max(np.abs(restored - x)) < 1e-9
    y = rng.uniform(-3, 5, size=(8, 2))
    assert np.max(np.abs(denormalize(normalize(y, spec, "reference"), spec) - y)) < 1e-9

    uspec = NormalizationSpec(input_mode="utterance_mvn", reference_mode="utterance_mvn")
    mean, var = utterance_stats(y, uspec.epsilon)
    normalized = normalize(y, uspec, "reference")
    assert np.max(np.abs(invert_mvn(normalized, mean, var) - y)) < 1e-9
    with pytest.raises(ConfigError):
        denormalize(normalized, uspec)


def test_fit_normalizer_requires_data():
    with pytest.raises(ConfigError):
        fit_normalizer([], [], "global_mvn", "global_minmax_01")

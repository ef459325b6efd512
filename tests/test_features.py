import tracemalloc

import numpy as np
import pytest

from conftest import gathered_context
from specmap.errors import ConfigError, NumericError, ShapeError
from specmap.features import (
    NormalizationSpec,
    apply_mvn,
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
    normalized = apply_mvn(x, *utterance_stats(x, spec.epsilon))
    assert np.max(np.abs(normalized.mean(axis=0))) < 1e-9
    assert np.max(np.abs(normalized.var(axis=0) - 1.0)) < 1e-6
    assert normalize(x, spec, "input").tobytes() == normalized.astype(np.float32).tobytes()


def _float64_input_mvn(x, spec):
    """The input MVN in float64, from numpy's own mean and variance."""
    if spec.input_mode == "global_mvn":
        mean, var = spec.input_mean, spec.input_var
    else:
        mean, var = x.mean(axis=0), np.maximum(x.var(axis=0), spec.epsilon)
    return (x - mean) / np.sqrt(var)


@pytest.mark.parametrize("input_mode", ["global_mvn", "utterance_mvn"])
@pytest.mark.parametrize("n_frames", [1, 37])
def test_input_normalization_is_the_float64_mvn_rounded_once(input_mode, n_frames):
    # One frame has no spread: utterance_mvn clamps its variance at epsilon.
    rng = np.random.default_rng(11)
    train = [rng.normal(2.0, 3.0, size=(40, 7))]
    spec = fit_normalizer(train, [rng.uniform(size=(40, 2))], input_mode, "global_minmax_01")
    x = rng.normal(1.0, 2.0, size=(n_frames, 7))
    untouched = x.copy()
    normalized = normalize(x, spec, "input")
    assert normalized.dtype == np.float32
    assert normalized.tobytes() == _float64_input_mvn(x, spec).astype(np.float32).tobytes()
    assert np.array_equal(x, untouched)
    assert normalize(x[:, :2], spec, "reference").dtype == np.float64


def test_input_normalization_refuses_a_value_beyond_float32_range():
    spec = NormalizationSpec(input_mean=np.zeros(3), input_var=np.ones(3),
                             ref_min=np.zeros(2), ref_max=np.ones(2))
    x = np.zeros((4, 3))
    x[2, 1] = 1e39
    with pytest.raises(NumericError, match="features contains values beyond float32 range"):
        normalize(x, spec, "input")  # warnings are errors: the cast's overflow warning included


@pytest.mark.parametrize("input_mode", ["global_mvn", "utterance_mvn"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_input_normalization_refuses_non_finite_values(input_mode, bad):
    spec = NormalizationSpec(input_mode, "global_minmax_01", input_mean=np.zeros(3),
                             input_var=np.ones(3), ref_min=np.zeros(2), ref_max=np.ones(2))
    x = np.zeros((4, 3))
    x[2, 1] = bad
    with pytest.raises(NumericError, match="features contains non-finite values"):
        normalize(assemble_context(x, 0), spec, "input")


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
    normalized = apply_mvn(x, spec.input_mean, spec.input_var)
    restored = invert_mvn(normalized, spec.input_mean, spec.input_var)
    assert np.max(np.abs(restored - x)) < 1e-9
    assert normalize(x, spec, "input").tobytes() == normalized.astype(np.float32).tobytes()
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


# fit_normalizer reduces one utterance at a time; the pooled statistics it
# replaced are the reference, bit for bit.

def _pooled_stats(inputs, refs):
    pooled, ref_pool = np.vstack(inputs), np.vstack(refs)
    var = np.maximum(pooled.var(axis=0), NormalizationSpec.epsilon)
    return pooled.mean(axis=0), var, ref_pool.min(axis=0), ref_pool.max(axis=0)


def _ragged(rng, lengths, dim, scale=1.0):
    return [rng.normal(size=(n, dim)) * scale + rng.normal() * 40.0 for n in lengths]


@pytest.mark.filterwarnings("ignore:.*near-zero")  # the one-frame set
@pytest.mark.parametrize("dim", [1, 2, 7, 40, 363])
@pytest.mark.parametrize("lengths", [(1,), (1, 250, 3), (97, 0, 180, 1, 61, 130)], ids=str)
def test_fit_normalizer_equals_the_pooled_statistics_bitwise(dim, lengths):
    rng = np.random.default_rng(50 + dim + len(lengths))
    inputs = _ragged(rng, lengths, dim, scale=10 ** rng.uniform(-2, 2))
    refs = _ragged(rng, lengths, 4)
    spec = fit_normalizer(inputs, refs)
    got = (spec.input_mean, spec.input_var, spec.ref_min, spec.ref_max)
    for a, b in zip(got, _pooled_stats(inputs, refs)):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_fit_normalizer_reads_context_views_as_pooled():
    rng = np.random.default_rng(57)
    logs = _ragged(rng, (1, 140, 33, 210), 33)
    inputs = [assemble_context(x, 5) for x in logs]  # read-only overlapping views
    assert not any(m.flags.writeable or m.flags.c_contiguous for m in inputs[1:])
    refs = _ragged(rng, (1, 140, 33, 210), 40)
    spec = fit_normalizer(inputs, refs)
    pooled = _pooled_stats([m.copy() for m in inputs], refs)
    for a, b in zip((spec.input_mean, spec.input_var, spec.ref_min, spec.ref_max), pooled):
        assert a.tobytes() == b.tobytes()


def test_fit_normalizer_holds_no_pooled_copy():
    rng = np.random.default_rng(58)
    lengths = rng.integers(100, 200, size=24)
    inputs = [assemble_context(x, 5) for x in _ragged(rng, lengths, 33)]
    refs = _ragged(rng, lengths, 40)
    longest = max(lengths) * inputs[0].shape[1] * 8
    pooled = sum(lengths) * inputs[0].shape[1] * 8
    tracemalloc.start()
    try:
        fit_normalizer(inputs, refs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured 1.24x the longest utterance; pooling the utterances and
    # their deviations peaked at 2.0x the pooled matrix.
    assert peak < 3 * longest < pooled / 4


def test_fit_normalizer_refuses_mixed_widths_and_no_frames():
    with pytest.raises(ShapeError):
        fit_normalizer([np.zeros((3, 2)), np.zeros((3, 3))], [np.zeros((3, 1))] * 2)
    with pytest.raises(ConfigError, match="at least one frame"):
        fit_normalizer([np.zeros((0, 2))], [np.zeros((0, 1))])


@pytest.mark.parametrize("name", ["input_mean", "input_var", "ref_min", "ref_max"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_refuses_non_finite_statistics(name, bad):
    stats = {"input_mean": np.zeros(3), "input_var": np.ones(3),
             "ref_min": np.zeros(2), "ref_max": np.ones(2)}
    stats[name][1] = bad
    with pytest.raises(ConfigError, match=f"non-finite values in {name}"):
        NormalizationSpec(**stats)

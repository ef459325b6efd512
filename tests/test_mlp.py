import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import float64_model, relative_error
from specmap.errors import ConfigError, NumericError, ShapeError
from specmap.features import NormalizationSpec, fit_normalizer, invert_mvn, normalize, utterance_stats
from specmap import mlp
from specmap.mlp import (
    ADAGRAD_EPSILON,
    AdagradState,
    MlpModel,
    TrainConfig,
    TrainHistory,
    evaluate_cost,
    forward,
    init_model,
    loss_and_gradients,
    make_dropout_masks,
    map_features,
    sigmoid,
    train,
    train_step,
)
from specmap.seeding import derive_seed
from specmap.validation import as_float32


def test_init_deterministic_and_zero_biases():
    a = init_model([6, 5, 3], "sigmoid", seed=42)
    b = init_model([6, 5, 3], "sigmoid", seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert all(np.all(bias == 0) for bias in a.biases)
    c = init_model([6, 5, 3], "sigmoid", seed=43)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_weight_mean_within_three_sigma():
    model = init_model([2048, 2048], "linear", seed=0)
    w = model.weights[0]
    limit = np.sqrt(6.0 / (2048 + 2048))
    sigma_mean = (limit / np.sqrt(3.0)) / np.sqrt(w.size)
    assert abs(w.mean()) < 3 * sigma_mean
    assert np.all(np.abs(w) <= limit)


def _whole_layer_draws(dims, seed):
    """Weights as one float64 draw per layer, narrowed to float32: the stream init_model blocks."""
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32))
    return weights


@pytest.mark.parametrize("dims", [[256, 1024, 40], [301, 3000, 7], [2827, 2048]],
                         ids=["fan-out-divides-block", "fan-out-does-not", "paper-input-layer"])
def test_init_model_equals_the_whole_layer_draw_narrowed_to_float32(dims):
    model = init_model(dims, "sigmoid", seed=5)
    for w, expected in zip(model.weights, _whole_layer_draws(dims, 5), strict=True):
        assert w.dtype == np.float32
        assert_same_bits(w, expected)
    assert all(b.dtype == np.float32 and not b.any() for b in model.biases)


def test_init_model_holds_no_float64_layer():
    tracemalloc.start()
    try:
        model = init_model([2827, 2048, 2048, 40], "sigmoid", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 1.007x: one block of float64 draws beside the parameters.
    assert peak < 1.1 * sum(p.nbytes for p in model.weights + model.biases)


def test_forward_zero_parameters_gives_half():
    model = MlpModel(
        [np.zeros((4, 3)), np.zeros((3, 2))],
        [np.zeros(3), np.zeros(2)],
        output_activation="sigmoid",
    )
    out = forward(model, np.random.default_rng(0).normal(size=(5, 4))).output
    assert np.allclose(out, 0.5)


def test_dropout_rate_zero_masks_match_maskless():
    model = init_model([4, 3, 3, 2], "sigmoid", seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4))
    masks = make_dropout_masks(np.random.default_rng(3), [3, 3], 6, 0.0)
    assert np.array_equal(forward(model, x, masks).output, forward(model, x).output)


def test_single_unit_chain_hand_computed():
    def sigma(v):
        return 1.0 / (1.0 + np.exp(-v))

    model = float64_model(MlpModel(
        [np.array([[0.7]]), np.array([[-1.3]]), np.array([[2.1]])],
        [np.array([0.1]), np.array([0.2]), np.array([-0.3])],
        output_activation="sigmoid",
    ))
    # The float32 values nearest the ones given, which the model holds.
    w1, w2, w3 = (float(w[0, 0]) for w in model.weights)
    b1, b2, b3 = (float(b[0]) for b in model.biases)
    x = 0.4
    h1 = sigma(w1 * x + b1)
    h2 = sigma(w2 * h1 + b2)
    expected = sigma(w3 * h2 + b3)
    out = forward(model, np.array([[x]])).output[0, 0]
    assert abs(out - expected) < 1e-12


def test_adagrad_closed_form_sequence():
    model = MlpModel([np.array([[1.0]])], [np.array([0.0])], output_activation="linear")
    state = AdagradState(model)
    config = TrainConfig(learning_rate=0.1)
    deltas = []
    for _ in range(4):
        w, b = float(model.weights[0][0, 0]), float(model.biases[0][0])
        # with out - ref = 0.5 and one sample, dL/dw = 2*(out-ref)*x = 1
        train_step(model, np.array([[1.0]]), np.array([[w + b - 0.5]]), config, state)
        deltas.append(w - float(model.weights[0][0, 0]))
    expected = [0.1 / np.sqrt(k) for k in (1, 2, 3, 4)]
    assert np.allclose(deltas, expected, atol=1e-7)


def test_zero_loss_means_no_update():
    narrow = init_model([3, 4, 2], "linear", seed=5)
    x = np.random.default_rng(6).normal(size=(4, 3))
    for model in (float64_model(narrow), narrow):  # train_step computes in the weights' dtype
        refs = forward(model, x).output
        before = [w.copy() for w in model.weights]
        loss = train_step(model, x, refs, TrainConfig(), AdagradState(model))
        assert loss == 0.0
        for w_before, w_after in zip(before, model.weights):
            assert_same_bits(w_before, w_after)


@pytest.mark.parametrize("activation", ["sigmoid", "linear"])
@pytest.mark.parametrize("with_dropout", [False, True])
def test_gradients_match_finite_differences(activation, with_dropout):
    rng = np.random.default_rng(7)
    model = float64_model(init_model([6, 5, 5, 3], activation, seed=11))
    x = rng.normal(size=(4, 6))
    y = rng.uniform(0.2, 0.8, size=(4, 3))
    masks = make_dropout_masks(np.random.default_rng(8), [5, 5], 4, 0.3) if with_dropout else None
    _, grads_w, grads_b = loss_and_gradients(model, x, y, masks)
    step = 1e-5
    worst = 0.0
    for layer in range(3):
        for params, grads in ((model.weights[layer], grads_w[layer]), (model.biases[layer], grads_b[layer])):
            it = np.nditer(params, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = params[idx]
                params[idx] = original + step
                up = loss_and_gradients(model, x, y, masks)[0]
                params[idx] = original - step
                down = loss_and_gradients(model, x, y, masks)[0]
                params[idx] = original
                fd = (up - down) / (2 * step)
                worst = max(worst, float(relative_error(grads[idx], fd)))
    assert worst <= 1e-4


def test_dropout_expectation_on_preactivations():
    rng = np.random.default_rng(9)
    model = init_model([5, 8, 8, 2], "linear", seed=13)
    x = rng.normal(size=(1, 5))
    h1 = forward(model, x).hidden[0]
    reference = h1 @ model.weights[1] + model.biases[1]
    mask_rng = np.random.default_rng(14)
    n_masks = 10_000
    samples = np.empty((n_masks, reference.shape[1]))
    for i in range(n_masks):
        mask = make_dropout_masks(mask_rng, [8], 1, 0.35)[0]
        samples[i] = (h1 * mask) @ model.weights[1] + model.biases[1]
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_masks)
    assert np.all(np.abs(mean - reference[0]) <= 3 * stderr + 1e-12)


def test_full_batch_gradient_descent_does_not_increase_loss():
    rng = np.random.default_rng(15)
    model = init_model([4, 6, 2], "sigmoid", seed=17)
    x = rng.normal(size=(16, 4))
    y = rng.uniform(0.1, 0.9, size=(16, 2))
    loss_before, grads_w, grads_b = loss_and_gradients(model, x, y)
    lr = 0.05
    for layer in range(len(model.weights)):
        model.weights[layer] -= lr * grads_w[layer]
        model.biases[layer] -= lr * grads_b[layer]
    loss_after = loss_and_gradients(model, x, y)[0]
    assert loss_after <= loss_before


def test_sigmoid_outputs_stay_in_open_interval():
    model = init_model([3, 4, 2], "sigmoid", seed=29)
    model.weights[-1] *= 1e4  # drive the output layer deep into saturation
    extreme = np.array([[1e3, -1e3, 1e3], [-1e3, 1e3, -1e3]])
    out = forward(model, extreme).output
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_train_fixed_epochs_without_early_stop():
    rng = np.random.default_rng(20)
    model = init_model([3, 4, 2], "sigmoid", seed=21)
    x = rng.normal(size=(20, 3))
    y = rng.uniform(0.2, 0.8, size=(20, 2))
    config = TrainConfig(batch_size=8, max_epochs=3, early_stop=False, rng_seed=1)
    _, history = train(model, x, y, config)
    assert len(history.train_cost) == 3
    assert history.best_epoch == 3


def test_fixed_epoch_training_takes_no_parameter_snapshots(monkeypatch):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20, 3))
    y = rng.uniform(0.2, 0.8, size=(20, 2))
    dev_x, dev_y = rng.normal(size=(6, 3)), rng.uniform(0.2, 0.8, size=(6, 2))
    config = TrainConfig(batch_size=8, max_epochs=3, early_stop=False, rng_seed=3)
    expected, expected_history = train(init_model([3, 4, 2], "sigmoid", seed=42), x, y, config, dev_x, dev_y)

    def no_snapshot(self):
        raise AssertionError("only early stopping keeps a best epoch's parameters")

    monkeypatch.setattr(MlpModel, "copy_parameters", no_snapshot)
    trained, history = train(init_model([3, 4, 2], "sigmoid", seed=42), x, y, config, dev_x, dev_y)
    assert history == expected_history and len(history.dev_cost) == 3
    for a, b in zip(trained.weights + trained.biases, expected.weights + expected.biases):
        assert_same_bits(a, b)


def test_train_early_stop_returns_the_first_epoch_of_lowest_dev_cost(monkeypatch):
    # A noisy linear map learnt from 24 frames: the dev cost falls to a
    # lowest value at epoch 7, through 5 new lows, and then wanders above it.
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    x = rng.normal(size=(24, 3))
    y = x @ w + rng.normal(size=(24, 2))
    dev_x = rng.normal(size=(10, 3))
    dev_y = dev_x @ w
    model = init_model([3, 16, 2], "linear", seed=23)
    config = TrainConfig(
        batch_size=8, learning_rate=0.1, max_epochs=20, early_stop=True, rng_seed=2
    )
    copies = []
    copy_parameters = MlpModel.copy_parameters

    def counted_copy(self):
        copies.append(self)
        return copy_parameters(self)

    monkeypatch.setattr(MlpModel, "copy_parameters", counted_copy)
    trained, history = train(model, x, y, config, dev_x, dev_y)
    costs = history.dev_cost
    assert len(costs) == len(history.train_cost) == 20
    assert history.best_epoch == 1 + int(np.argmin(costs)) == 7
    # one copy per epoch that set a new lowest dev cost
    assert len(copies) == sum(c < min(costs[:i], default=np.inf) for i, c in enumerate(costs)) == 5
    assert evaluate_cost(trained, dev_x, dev_y) == min(costs)


def test_train_requires_dev_for_early_stop():
    model = init_model([3, 4, 2], "sigmoid", seed=1)
    x = np.zeros((4, 3))
    y = np.full((4, 2), 0.5)
    with pytest.raises(ConfigError):
        train(model, x, y, TrainConfig(early_stop=True))


@pytest.mark.parametrize("given", ["dev_inputs", "dev_references"])
def test_train_refuses_unpaired_dev_data(given):
    model = init_model([3, 4, 2], "sigmoid", seed=1)
    x = np.zeros((10, 3))
    y = np.full((10, 2), 0.5)
    dev = {"dev_inputs": x[:4], "dev_references": y[:4]}
    with pytest.raises(ConfigError, match="dev_inputs and dev_references together"):
        train(model, x, y, TrainConfig(max_epochs=1), **{given: dev[given]})


def test_train_bit_reproducible():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(30, 4))
    y = rng.uniform(0.2, 0.8, size=(30, 2))
    config = TrainConfig(batch_size=8, max_epochs=4, dropout_rate=0.2, rng_seed=5)
    run = []
    for _ in range(2):
        model = init_model([4, 6, 6, 2], "sigmoid", seed=9)
        trained, _ = train(model, x, y, config)
        run.append([w.copy() for w in trained.weights])
    for wa, wb in zip(*run):
        assert np.array_equal(wa, wb)


def test_training_divergence_raises():
    model = float64_model(init_model([2, 3, 1], "linear", seed=0))
    model.weights[0] *= 1e200
    model.weights[1] *= 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        train_step(
            model,
            np.ones((2, 2)) * 1e10,
            np.zeros((2, 1)),
            TrainConfig(),
            AdagradState(model),
        )


def _minmax_spec(dim=3):
    return NormalizationSpec(
        input_mode="global_mvn",
        reference_mode="global_minmax_01",
        input_mean=np.zeros(dim),
        input_var=np.ones(dim),
        ref_min=np.zeros(2),
        ref_max=np.ones(2),
    )


def test_map_features_shapes_and_determinism():
    model = init_model([9, 5, 2], "sigmoid", seed=2, norm_spec=_minmax_spec(9))
    log_spec = np.random.default_rng(25).normal(size=(12, 3))
    first = map_features(model, log_spec, context=1)
    second = map_features(model, log_spec, context=1)
    assert first.denormalized.shape == (12, 2)
    assert np.array_equal(first.denormalized, second.denormalized)
    with pytest.raises(ShapeError):
        map_features(model, log_spec, context=2)


def test_map_features_utterance_reference_needs_filterbank():
    spec = NormalizationSpec(input_mode="utterance_mvn", reference_mode="utterance_mvn")
    model = init_model([3, 4, 2], "linear", seed=3, norm_spec=spec)
    log_spec = np.random.default_rng(26).normal(size=(10, 3))
    with pytest.raises(ConfigError, match="filterbank"):
        map_features(model, log_spec, context=0)
    filterbank = np.abs(np.random.default_rng(27).normal(size=(2, 3)))
    mapped = map_features(model, log_spec, context=0, mel_filterbank=filterbank)
    # inverted with the power-mel statistics of the input itself, floored at 1e-10
    proxy = np.log(np.maximum(np.exp(2.0 * log_spec) @ filterbank.T, 1e-10))
    mean, var = utterance_stats(proxy, spec.epsilon)
    assert np.array_equal(mapped.denormalized, invert_mvn(mapped.normalized, mean, var))
    for wrong in (filterbank[:1], filterbank[:, :2]):  # mels != outputs, bins != input bins
        with pytest.raises(ShapeError, match="filterbank"):
            map_features(model, log_spec, context=0, mel_filterbank=wrong)


# Slow references for the in-place hot path: the two-branch logistic, the
# float64 out-of-place adagrad step that train_step() replaced, and the
# out-of-place float32 update in the fast path's operation order. The fast
# paths must agree with the logistic and the float32 update bit for bit,
# and a float32 model must stay near the float64 step.

def reference_sigmoid(x):
    """The two-branch logistic, computed and clamped in x's dtype (float64 or float32)."""
    one = x.dtype.type(1.0)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = one / (one + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (one + ex)
    floor = np.finfo(np.float32).tiny if x.dtype == np.float32 else 1e-300
    return np.clip(out, floor, np.nextafter(one, x.dtype.type(0.0)))


def reference_forward_output(model, x, masks=None):
    activation = x
    for layer in range(len(model.weights) - 1):
        activation = reference_sigmoid(activation @ model.weights[layer] + model.biases[layer])
        if masks is not None:
            activation = activation * masks[layer]
    z = activation @ model.weights[-1] + model.biases[-1]
    return reference_sigmoid(z) if model.output_activation == "sigmoid" else z


def reference_train_step(model, batch, reference, config, state, masks=None):
    loss, grads_w, grads_b = loss_and_gradients(model, batch, reference, masks)
    for layer in range(len(model.weights)):
        state.accum_w[layer] += grads_w[layer] ** 2
        state.accum_b[layer] += grads_b[layer] ** 2
        model.weights[layer] -= (
            config.learning_rate * grads_w[layer]
            / np.sqrt(state.accum_w[layer] + ADAGRAD_EPSILON)
        )
        model.biases[layer] -= (
            config.learning_rate * grads_b[layer]
            / np.sqrt(state.accum_b[layer] + ADAGRAD_EPSILON)
        )
    return loss


def reference_float32_step(model, batch, reference, config, state, masks=None):
    """Float32 gradients of a float32 model; the update out of place in float32."""
    loss, grads_w, grads_b = loss_and_gradients(model, batch, reference, masks)
    params = model.weights + model.biases
    accums = state.accum_w + state.accum_b
    for param, accum, g in zip(params, accums, grads_w + grads_b):
        assert param.dtype == accum.dtype == g.dtype == np.float32
        accum += g * g
        param -= config.learning_rate * (g / np.sqrt(accum + ADAGRAD_EPSILON))
    return loss


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    unsigned = f"u{a.itemsize}"
    assert np.array_equal(a.view(unsigned), b.view(unsigned))


def test_sigmoid_matches_two_branch_reference_bitwise():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
                      36.7, -36.7, 709.8, -709.8, 1e-300, -1e-300])
    rng = np.random.default_rng(30)
    for x in (edges, rng.normal(scale=8.0, size=(298, 40)), rng.normal(scale=8.0, size=(64, 128))):
        untouched = x.copy()
        fast = sigmoid(x)
        assert_same_bits(x, untouched)  # the argument is left alone
        assert_same_bits(fast, reference_sigmoid(x))
        in_place = x.copy()
        assert sigmoid(in_place, out=in_place) is in_place
        assert_same_bits(in_place, fast)


def test_float32_sigmoid_matches_two_branch_float32_reference_bitwise():
    info = np.finfo(np.float32)
    edges = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7, 104.0, -104.0,
         info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
         info.tiny / 2, -info.tiny / 2],
        dtype=np.float32,
    )
    batch = np.random.default_rng(31).normal(scale=8.0, size=(298, 2048)).astype(np.float32)
    assert 0.4 < np.mean(batch >= 0) < 0.6  # random signs, the mixed case a branch mispredicts
    for x in (edges, batch):
        expected = reference_sigmoid(x)
        in_place = x.copy()
        assert sigmoid(in_place, out=in_place) is in_place
        assert_same_bits(in_place, expected)


def two_temporary_sigmoid(x, out=None):
    """sigmoid() with a boolean mask and a separate denominator, as it was first written."""
    if out is None:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
    pos = x >= 0
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.maximum(out, pos, out=out)
    np.divide(out, denom, out=out)
    return np.clip(out, *mlp._SIGMOID_CLAMPS[out.dtype], out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_two_temporary_formula_bitwise(dtype):
    edges = np.array([np.nan, -np.nan, 200.0, -200.0, 0.0, -0.0], dtype=dtype)
    batch = np.random.default_rng(39).normal(scale=8.0, size=(37, 53)).astype(dtype)
    for x in (edges, batch):
        assert_same_bits(sigmoid(x), two_temporary_sigmoid(x))
        expected = two_temporary_sigmoid(x.copy(), out=x.copy())
        in_place = x.copy()
        assert_same_bits(sigmoid(in_place, out=in_place), expected)


def test_sigmoid_propagates_nan():
    x = np.array([np.nan, -np.nan, 0.5, -0.5])
    fast = sigmoid(x)
    assert np.isnan(fast[:2]).all()
    assert_same_bits(fast[2:], reference_sigmoid(x)[2:])


@pytest.mark.parametrize("activation", ["sigmoid", "linear"])
@pytest.mark.parametrize("with_dropout", [False, True])
def test_forward_matches_reference_bitwise(activation, with_dropout):
    rng = np.random.default_rng(31)
    model = float64_model(init_model([30, 24, 24, 5], activation, seed=32))
    model.biases = [rng.normal(size=b.shape) for b in model.biases]
    x = rng.normal(scale=3.0, size=(17, 30))
    masks = make_dropout_masks(rng, [24, 24], 17, 0.25) if with_dropout else None
    untouched = [x.copy()] + ([m.copy() for m in masks] if masks else [])
    output = forward(model, x, masks).output
    assert_same_bits(output, reference_forward_output(model, x, masks))
    for before, after in zip(untouched, [x] + (masks or [])):
        assert_same_bits(before, after)


def _steps(step, model, state, dropout_rate):
    """Losses of 20 seeded adagrad steps, the same data for every step function; inputs stay intact."""
    rng = np.random.default_rng(33)
    config = TrainConfig(learning_rate=0.05)
    losses = []
    for _ in range(20):
        x = rng.normal(size=(8, 12))
        y = rng.uniform(0.1, 0.9, size=(8, 4))
        masks = make_dropout_masks(rng, [9, 9], 8, dropout_rate) if dropout_rate else None
        inputs = [x, y] + (masks or [])
        untouched = [a.copy() for a in inputs]
        losses.append(step(model, x, y, config, state, masks))
        for before, after in zip(untouched, inputs):
            assert_same_bits(before, after)
    return losses


def _trained_pair(reference_step, dropout_rate, reference_dtype):
    """A float32 model stepped by train_step, and one of reference_dtype by reference_step."""
    fast = init_model([12, 9, 9, 4], "sigmoid", seed=34)
    slow = init_model([12, 9, 9, 4], "sigmoid", seed=34)
    if reference_dtype == np.float64:
        slow = float64_model(slow)
    fast_state, slow_state = AdagradState(fast), AdagradState(slow)
    fast_losses = _steps(train_step, fast, fast_state, dropout_rate)
    slow_losses = _steps(reference_step, slow, slow_state, dropout_rate)
    return (fast, fast_state, fast_losses), (slow, slow_state, slow_losses)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_train_step_matches_out_of_place_float32_reference_bitwise(dropout_rate):
    (fast, fast_state, fast_losses), (slow, slow_state, slow_losses) = _trained_pair(
        reference_float32_step, dropout_rate, np.float32
    )
    assert fast_losses == slow_losses
    pairs = [
        (fast.weights, slow.weights), (fast.biases, slow.biases),
        (fast_state.accum_w, slow_state.accum_w), (fast_state.accum_b, slow_state.accum_b),
    ]
    for fast_arrays, slow_arrays in pairs:
        for a, b in zip(fast_arrays, slow_arrays):
            assert a.dtype == np.float32
            assert_same_bits(a, b)


# Largest relative distance of a float32 model's steps from the float64
# reference over 20 steps, as a parameter array's norm and per loss:
# measured 3.8e-7 and 6.6e-8 without dropout, 1.7e-7 and 8.3e-8 with it.
MIXED_PRECISION_BOUND = 2e-6


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_train_steps_stay_near_the_float64_reference(dropout_rate):
    (fast, _, fast_losses), (slow, _, slow_losses) = _trained_pair(
        reference_train_step, dropout_rate, np.float64
    )
    assert max(relative_error(fast_losses, slow_losses)) <= MIXED_PRECISION_BOUND
    for a, b in zip(fast.weights + fast.biases, slow.weights + slow.biases):
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.linalg.norm(a - b) <= MIXED_PRECISION_BOUND * np.linalg.norm(b)
    assert fast_losses[-1] < fast_losses[0]  # the bound is not met by standing still


@pytest.mark.parametrize("with_dropout", [False, True])
def test_loss_and_gradients_of_a_float64_model_stay_float64(with_dropout):
    rng = np.random.default_rng(39)
    model = float64_model(init_model([6, 5, 5, 3], "sigmoid", seed=40))
    x = rng.normal(size=(4, 6))
    y = rng.uniform(0.2, 0.8, size=(4, 3))
    masks = make_dropout_masks(rng, [5, 5], 4, 0.3) if with_dropout else None
    loss, grads_w, grads_b = loss_and_gradients(model, x, y, masks)
    assert isinstance(loss, float)
    assert all(g.dtype == np.float64 for g in grads_w + grads_b)
    output = reference_forward_output(model, x, masks)
    assert output.dtype == np.float64
    assert loss == float(np.mean((output - y) ** 2))


# Float32 mapping: the float32 sigmoid, forward pass and model parameters. The
# float64 paths above stay bit-identical; map_features is checked against
# the float64 forward in tests/test_pipeline.py.

def test_float32_sigmoid_stays_float32_in_open_interval():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 104.0, -104.0, 800.0, -800.0],
                     dtype=np.float32)
    out = edges.copy()
    assert sigmoid(out, out=out) is out
    assert out.dtype == np.float32
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert out[2] == np.nextafter(np.float32(1), np.float32(0))
    assert out[3] == np.finfo(np.float32).tiny
    nan = np.array([np.nan, -np.nan, 0.5, -0.5], dtype=np.float32)
    sigmoid(nan, out=nan)
    assert nan.dtype == np.float32 and np.isnan(nan[:2]).all()


def test_float32_sigmoid_agrees_with_float64():
    x = np.random.default_rng(35).normal(scale=8.0, size=(298, 40))
    narrow = x.astype(np.float32)
    sigmoid(narrow, out=narrow)
    assert np.max(np.abs(narrow - sigmoid(x))) <= 1e-7


def test_sigmoid_without_out_computes_in_float64():
    x = np.random.default_rng(36).normal(scale=8.0, size=(5, 7)).astype(np.float32)
    assert_same_bits(sigmoid(x), reference_sigmoid(x.astype(np.float64)))


def test_model_built_from_float64_arrays_holds_them_narrowed_to_float32():
    rng = np.random.default_rng(2)
    weights = [rng.normal(size=(9, 5)), rng.normal(size=(5, 2))]
    biases = [rng.normal(size=5), rng.normal(size=2)]
    untouched = [p.copy() for p in weights + biases]
    model = MlpModel(weights, biases, "linear", _minmax_spec(9), seed=2)
    for held, given in zip(model.weights + model.biases, weights + biases, strict=True):
        assert_same_bits(held, given.astype(np.float32))
    for before, after in zip(untouched, weights + biases):
        assert_same_bits(before, after)  # the caller's arrays are left alone
    assert (model.output_activation, model.seed) == ("linear", 2)


def test_model_built_from_float32_arrays_shares_them():
    source = init_model([9, 5, 2], "sigmoid", seed=3)
    model = MlpModel(source.weights, source.biases)
    for held, given in zip(model.weights + model.biases, source.weights + source.biases, strict=True):
        assert held.dtype == np.float32 and np.shares_memory(held, given)


def test_model_refuses_a_parameter_beyond_float32_range_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the narrowing's overflow warning included
        with pytest.raises(NumericError, match="non-finite values in layer 0 weights"):
            MlpModel([np.array([[1e39, 1.0]])], [np.zeros(2)], "linear")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layer, name", [(0, "weights"), (1, "biases")])
def test_model_refuses_a_parameter_that_is_not_finite(value, layer, name):
    source = init_model([3, 4, 2], "sigmoid", seed=4)
    params = {"weights": [w.copy() for w in source.weights],
              "biases": [b.copy() for b in source.biases]}
    params[name][layer].flat[1] = value
    with pytest.raises(NumericError, match=f"non-finite values in layer {layer} {name}"):
        MlpModel(params["weights"], params["biases"])


def test_float32_forward_runs_in_float32_with_and_without_dropout():
    rng = np.random.default_rng(37)
    narrow = init_model([30, 24, 24, 5], "sigmoid", seed=32)
    model = float64_model(narrow)
    x = rng.normal(scale=3.0, size=(17, 30))
    masks = make_dropout_masks(rng, [24, 24], 17, 0.25)
    assert all(m.dtype == np.float32 for m in masks)
    for state, wide in ((forward(narrow, x), forward(model, x)),
                        (forward(narrow, x, masks), forward(model, x, masks))):
        arrays = state.hidden + state.masked + [state.output]
        assert all(a.dtype == np.float32 for a in arrays)
        assert wide.output.dtype == np.float64
        assert np.max(np.abs(state.output - wide.output)) <= 1e-6
    x[3, 4] = np.nan
    assert np.all(np.isnan(forward(narrow, x).output[3]))  # forward takes checked batches
    narrow.norm_spec = NormalizationSpec(input_mean=np.zeros(30), input_var=np.ones(30),
                                         ref_min=np.zeros(5), ref_max=np.ones(5))
    with pytest.raises(NumericError):
        map_features(narrow, x, context=0)


def test_train_step_rejects_nan_batch():
    model = init_model([3, 4, 2], "sigmoid", seed=38)
    batch = np.ones((4, 3))
    batch[1, 2] = np.nan
    before = [p.copy() for p in model.weights + model.biases]
    with pytest.raises(NumericError, match="diverged"):
        train_step(model, batch, np.full((4, 2), 0.5), TrainConfig(), AdagradState(model))
    for p_before, p_after in zip(before, model.weights + model.biases):
        assert np.array_equal(p_before, p_after)


# train() gathers its batches from one float32 copy of the inputs. The
# reference is the loop it replaced: float64 rows gathered per batch and
# narrowed inside each step, the dev cost narrowed chunk by chunk.

def reference_train(model, x, y, config, dev_x=None, dev_y=None):
    shuffle_rng = np.random.default_rng(derive_seed(config.rng_seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(config.rng_seed, "dropout"))
    state = AdagradState(model)
    history = TrainHistory()
    snapshots = []  # every epoch's parameters; train() copies only new lows
    for _ in range(config.max_epochs):
        order = shuffle_rng.permutation(len(x))
        costs = []
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            masks = None
            if config.dropout_rate:
                masks = make_dropout_masks(
                    dropout_rng, model.layer_dims[1:-1], len(rows), config.dropout_rate
                )
            costs.append(train_step(model, x[rows], y[rows], config, state, masks))
        history.train_cost.append(float(np.mean(costs)))
        if dev_x is not None:
            history.dev_cost.append(evaluate_cost(model, dev_x, dev_y))
        snapshots.append(model.copy_parameters())
    history.best_epoch = config.max_epochs
    if config.early_stop:
        history.best_epoch = 1 + int(np.argmin(history.dev_cost))
        model.weights, model.biases = snapshots[history.best_epoch - 1]
    return model, history


@pytest.mark.parametrize(
    "activation, dropout_rate, early_stop, with_dev",
    [("sigmoid", 0.0, False, False), ("sigmoid", 0.0, False, True), ("linear", 0.3, True, True)],
    ids=["plain", "dev", "dropout-early-stop"],
)
def test_train_matches_the_per_batch_narrowing_loop_bitwise(activation, dropout_rate, early_stop, with_dev):
    rng = np.random.default_rng(60)
    x = rng.normal(size=(70, 9)) * 3.0
    y = rng.normal(size=(70, 3)) if activation == "linear" else rng.uniform(0.1, 0.9, size=(70, 3))
    dev_x = rng.normal(size=(23, 9)) * 3.0 if with_dev else None
    dev_y = None
    if with_dev:
        dev_y = y[:23] + (4.0 if early_stop else 0.0)  # unrelated targets bottom out early
    config = TrainConfig(batch_size=16, learning_rate=0.05, max_epochs=12,
                         dropout_rate=dropout_rate, early_stop=early_stop, rng_seed=7)
    model = init_model([9, 11, 6, 3], activation, seed=61)
    initial = MlpModel(*model.copy_parameters(), activation)  # train() steps model in place
    untouched = [a.copy() for a in (x, y) + ((dev_x, dev_y) if with_dev else ())]
    got, got_history = train(model, x, y, config, dev_x, dev_y)
    want, want_history = reference_train(initial, x, y, config, dev_x, dev_y)
    assert got_history == want_history
    assert len(got_history.dev_cost) == (len(got_history.train_cost) if with_dev else 0)
    if early_stop:
        assert got_history.best_epoch < config.max_epochs
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.dtype == np.float32
        assert_same_bits(a, b)
    for before, after in zip(untouched, (x, y) + ((dev_x, dev_y) if with_dev else ())):
        assert_same_bits(before, after)


def _traced_train_peak(x, dev_x, y, dev_y):
    config = TrainConfig(batch_size=256, max_epochs=1, rng_seed=3)
    model = init_model([x.shape[1], 16, 4], "sigmoid", seed=62)
    tracemalloc.start()
    try:
        train(model, x, y, config, dev_x, dev_y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_uses_float32_inputs_without_a_copy():
    rng = np.random.default_rng(63)
    x = rng.normal(size=(20000, 64)).astype(np.float32)
    dev_x = rng.normal(size=(5000, 64)).astype(np.float32)
    y, dev_y = rng.uniform(0.1, 0.9, size=(20000, 4)), rng.uniform(0.1, 0.9, size=(5000, 4))
    inputs_bytes = x.nbytes + dev_x.nbytes
    # Measured 0.11x, with no finiteness mask of either matrix; float64
    # inputs, narrowed into new float32 copies, measured 1.11x.
    assert _traced_train_peak(x, dev_x, y, dev_y) < 0.5 * inputs_bytes
    assert _traced_train_peak(x.astype(np.float64), dev_x.astype(np.float64), y, dev_y) > inputs_bytes


class _FirstStep(Exception):
    pass


def test_train_allocates_no_large_array_before_its_first_step(monkeypatch):
    # A quarter of the matrix's bytes is the size of a finiteness mask of it.
    rng = np.random.default_rng(68)
    x = rng.standard_normal(size=(2000, 2827), dtype=np.float32)
    y = rng.uniform(0.1, 0.9, size=(2000, 4))
    model = init_model([2827, 8, 4], "sigmoid", seed=69)
    peaks = []

    def first_step(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _FirstStep

    monkeypatch.setattr(mlp, "train_step", first_step)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstStep):
            train(model, x, y, TrainConfig(batch_size=64, max_epochs=1))
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < x.nbytes // 4


@pytest.mark.parametrize("input_mode", ["global_mvn", "utterance_mvn"])
def test_train_takes_stacked_normalized_inputs_without_a_copy(input_mode):
    # np.vstack of normalize's inputs, as a caller of train() builds it.
    rng = np.random.default_rng(66)
    utterances = [rng.normal(size=(n, 6)) for n in (9, 1, 14)]
    spec = fit_normalizer(utterances, [rng.uniform(size=(n, 2)) for n in (9, 1, 14)],
                          input_mode, "global_minmax_01")
    x = np.vstack([normalize(m, spec, "input") for m in utterances])
    assert x.dtype == np.float32
    assert np.shares_memory(as_float32(x, "train inputs", 2), x)


@pytest.mark.parametrize("matrix", ["train inputs", "dev inputs"])
@pytest.mark.parametrize("value, message", [(1e39, "beyond float32 range"), (-1e300, "beyond float32 range"),
                                            (np.nan, "non-finite"), (np.inf, "non-finite")])
def test_train_refuses_inputs_float32_cannot_hold_before_any_step(monkeypatch, matrix, value, message):
    rng = np.random.default_rng(64)
    x, dev_x = rng.normal(size=(20, 3)), rng.normal(size=(6, 3))
    y, dev_y = rng.uniform(0.2, 0.8, size=(20, 2)), rng.uniform(0.2, 0.8, size=(6, 2))
    (x if matrix == "train inputs" else dev_x)[4, 1] = value
    steps = []
    monkeypatch.setattr(mlp, "train_step", lambda *args: steps.append(args))
    model = init_model([3, 4, 2], "sigmoid", seed=65)
    with pytest.raises(NumericError, match=f"{matrix}.*{message}"):
        train(model, x, y, TrainConfig(batch_size=8, max_epochs=2), dev_x, dev_y)
    assert steps == []


def test_train_reaches_each_step_function_through_the_module_globals(monkeypatch):
    # A wrapper bound to a name in specmap.mlp, as the benchmark's tracer
    # binds its spans, sees every batch step and dev cost that train() takes.
    calls = {}
    for name in ("train_step", "loss_and_gradients", "forward", "evaluate_cost"):
        def counted(*args, _name=name, _original=getattr(mlp, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(mlp, name, counted)
    rng = np.random.default_rng(66)
    x, dev_x = rng.normal(size=(20, 3)), rng.normal(size=(6, 3))
    y, dev_y = rng.uniform(0.2, 0.8, size=(20, 2)), rng.uniform(0.2, 0.8, size=(6, 2))
    model = init_model([3, 4, 2], "sigmoid", seed=67)
    train(model, x, y, TrainConfig(batch_size=8, max_epochs=2), dev_x, dev_y)
    # 3 batches in each of 2 epochs, one dev cost per epoch, one forward pass each
    assert calls == {"train_step": 6, "loss_and_gradients": 6, "evaluate_cost": 2, "forward": 8}


@pytest.mark.parametrize("field", ["batch_size", "max_epochs"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, "8", 0])
def test_train_config_takes_only_positive_integer_counts(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_train_config_refuses_a_learning_rate_that_is_not_finite(value):
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=value)


@pytest.mark.parametrize("with_dev", [False, True])
def test_train_refuses_to_return_parameters_its_last_step_made_non_finite(with_dev):
    # One epoch of one batch: the only step is the last, so no later batch
    # cost is left to show that it diverged.
    rng = np.random.default_rng(70)
    x, y = rng.normal(size=(8, 3)), rng.uniform(0.2, 0.8, size=(8, 2))
    dev = (rng.normal(size=(4, 3)), rng.uniform(0.2, 0.8, size=(4, 2))) if with_dev else ()
    model = init_model([3, 4, 2], "sigmoid", seed=71)
    config = TrainConfig(batch_size=8, learning_rate=1e300, max_epochs=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="training diverged"):
        train(model, x, y, config, *dev)


@pytest.mark.parametrize("split", ["train", "dev"])
@pytest.mark.parametrize("matrix", ["inputs", "references"])
def test_train_refuses_a_width_the_model_does_not_map_before_any_step(monkeypatch, split, matrix):
    rng = np.random.default_rng(68)
    data = {"train": [rng.normal(size=(20, 3)), rng.uniform(0.2, 0.8, size=(20, 2))],
            "dev": [rng.normal(size=(6, 3)), rng.uniform(0.2, 0.8, size=(6, 2))]}
    pair = data[split]
    column = 0 if matrix == "inputs" else 1
    pair[column] = pair[column][:, :-1]
    steps = []
    monkeypatch.setattr(mlp, "train_step", lambda *args: steps.append(args))
    model = init_model([3, 4, 2], "sigmoid", seed=69)
    with pytest.raises(ShapeError, match=f"{split} inputs and references have widths"):
        train(model, *data["train"], TrainConfig(batch_size=8, max_epochs=2), *data["dev"])
    assert steps == []

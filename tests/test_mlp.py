import numpy as np
import pytest

from conftest import relative_error
from specmap.errors import ConfigError, NumericError, ShapeError
from specmap.features import NormalizationSpec
from specmap.mlp import (
    ADAGRAD_EPSILON,
    AdagradState,
    MlpModel,
    TrainConfig,
    early_stop_decision,
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

    model = MlpModel(
        [np.array([[0.7]]), np.array([[-1.3]]), np.array([[2.1]])],
        [np.array([0.1]), np.array([0.2]), np.array([-0.3])],
        output_activation="sigmoid",
    )
    x = 0.4
    h1 = sigma(0.7 * x + 0.1)
    h2 = sigma(-1.3 * h1 + 0.2)
    expected = sigma(2.1 * h2 - 0.3)
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
    model = init_model([3, 4, 2], "linear", seed=5)
    x = np.random.default_rng(6).normal(size=(4, 3))
    refs = forward(model.as_float32(), x).output  # the precision train_step computes in
    before = [w.copy() for w in model.weights]
    loss = train_step(model, x, refs, TrainConfig(), AdagradState(model))
    assert loss == 0.0
    for w_before, w_after in zip(before, model.weights):
        assert np.array_equal(w_before, w_after)


@pytest.mark.parametrize("activation", ["sigmoid", "linear"])
@pytest.mark.parametrize("with_dropout", [False, True])
def test_gradients_match_finite_differences(activation, with_dropout):
    rng = np.random.default_rng(7)
    model = init_model([6, 5, 5, 3], activation, seed=11)
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


def test_early_stop_rule_examples():
    assert early_stop_decision([10.0, 10.2]) == "dev_increase"
    assert early_stop_decision([10.0, 9.995]) == "dev_plateau"
    assert early_stop_decision([10.0, 9.5]) is None
    assert early_stop_decision([10.0]) is None
    assert early_stop_decision([10.0, 10.05]) == "dev_plateau"


def reference_stop(costs, increase=0.01, improvement=0.001):
    """Straight-line reimplementation of the two stop rules."""
    for epoch in range(2, len(costs) + 1):
        prev, cur = costs[epoch - 2], costs[epoch - 1]
        if cur > prev * (1 + increase):
            return epoch, epoch - 1, "dev_increase"
        if (prev - cur) < improvement * prev:
            return epoch, epoch - 1, "dev_plateau"
    return len(costs), len(costs), "max_epochs"


def simulate_loop(costs):
    """Replays the decision exactly the way train() applies it per epoch."""
    seen = []
    for epoch, cost in enumerate(costs, start=1):
        seen.append(cost)
        reason = early_stop_decision(seen)
        if reason is not None:
            return epoch, epoch - 1, reason
    return len(costs), len(costs), "max_epochs"


def test_stop_rule_matches_reference_on_random_sequences():
    rng = np.random.default_rng(19)
    for _ in range(300):
        length = rng.integers(1, 12)
        costs = np.abs(rng.normal(10, 3, size=length)).tolist()
        assert simulate_loop(costs) == reference_stop(costs)


def test_train_fixed_epochs_without_early_stop():
    rng = np.random.default_rng(20)
    model = init_model([3, 4, 2], "sigmoid", seed=21)
    x = rng.normal(size=(20, 3))
    y = rng.uniform(0.2, 0.8, size=(20, 2))
    config = TrainConfig(batch_size=8, max_epochs=3, early_stop=False, rng_seed=1)
    _, history = train(model, x, y, config)
    assert len(history.train_cost) == 3
    assert history.stop_reason == "max_epochs"
    assert history.best_epoch == 3


def test_fixed_epoch_training_takes_no_parameter_snapshots(monkeypatch):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20, 3))
    y = rng.uniform(0.2, 0.8, size=(20, 2))
    dev_x, dev_y = rng.normal(size=(6, 3)), rng.uniform(0.2, 0.8, size=(6, 2))
    config = TrainConfig(batch_size=8, max_epochs=3, early_stop=False, rng_seed=3)
    expected, expected_history = train(init_model([3, 4, 2], "sigmoid", seed=42), x, y, config, dev_x, dev_y)

    def no_snapshot(self):
        raise AssertionError("only early stopping needs the previous epoch's parameters")

    monkeypatch.setattr(MlpModel, "copy_parameters", no_snapshot)
    trained, history = train(init_model([3, 4, 2], "sigmoid", seed=42), x, y, config, dev_x, dev_y)
    assert history == expected_history and len(history.dev_cost) == 3
    for a, b in zip(trained.weights + trained.biases, expected.weights + expected.biases):
        assert_same_bits(a, b)


def test_train_early_stop_returns_previous_epoch_model():
    rng = np.random.default_rng(22)
    model = init_model([3, 8, 2], "linear", seed=23)
    x = rng.normal(size=(24, 3))
    y = rng.normal(size=(24, 2))
    dev_x = rng.normal(size=(10, 3))
    dev_y = rng.normal(size=(10, 2)) + 4.0  # unrelated targets: dev stalls fast
    config = TrainConfig(
        batch_size=8, learning_rate=0.05, max_epochs=50, early_stop=True, rng_seed=2
    )
    trained, history = train(model, x, y, config, dev_x, dev_y)
    epochs_run = len(history.dev_cost)
    assert history.stop_reason in ("dev_increase", "dev_plateau")
    assert history.best_epoch == epochs_run - 1
    # returned parameters reproduce the previous epoch's dev cost
    returned_cost = evaluate_cost(trained, dev_x, dev_y)
    assert returned_cost == pytest.approx(history.dev_cost[history.best_epoch - 1], rel=1e-12)
    assert simulate_loop(history.dev_cost)[2] == history.stop_reason


def test_train_requires_dev_for_early_stop():
    model = init_model([3, 4, 2], "sigmoid", seed=1)
    x = np.zeros((4, 3))
    y = np.full((4, 2), 0.5)
    with pytest.raises(ConfigError):
        train(model, x, y, TrainConfig(early_stop=True))


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
    model = init_model([2, 3, 1], "linear", seed=0)
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
    assert mapped.denormalized is not None
    assert mapped.inversion_mean.shape == (2,)


# Slow references for the in-place hot path: the two-branch logistic, the
# float64 out-of-place adagrad step that train_step() replaced, and the
# out-of-place form of its float32-compute, float64-update step. The fast
# paths must agree with the latter two bit for bit and stay near the first.

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


def reference_mixed_precision_step(model, batch, reference, config, state, masks=None):
    """Gradients of a fresh float32 copy; the update out of place in float64."""
    loss, grads_w, grads_b = loss_and_gradients(model.as_float32(), batch, reference, masks)
    params = model.weights + model.biases
    accums = state.accum_w + state.accum_b
    for param, accum, grad in zip(params, accums, grads_w + grads_b):
        assert grad.dtype == np.float32
        g = grad.astype(np.float64)
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


def test_sigmoid_propagates_nan():
    x = np.array([np.nan, -np.nan, 0.5, -0.5])
    fast = sigmoid(x)
    assert np.isnan(fast[:2]).all()
    assert_same_bits(fast[2:], reference_sigmoid(x)[2:])


@pytest.mark.parametrize("activation", ["sigmoid", "linear"])
@pytest.mark.parametrize("with_dropout", [False, True])
def test_forward_matches_reference_bitwise(activation, with_dropout):
    rng = np.random.default_rng(31)
    model = init_model([30, 24, 24, 5], activation, seed=32)
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


def _trained_pair(reference_step, dropout_rate):
    fast = init_model([12, 9, 9, 4], "sigmoid", seed=34)
    slow = init_model([12, 9, 9, 4], "sigmoid", seed=34)
    fast_state, slow_state = AdagradState(fast), AdagradState(slow)
    fast_losses = _steps(train_step, fast, fast_state, dropout_rate)
    slow_losses = _steps(reference_step, slow, slow_state, dropout_rate)
    return (fast, fast_state, fast_losses), (slow, slow_state, slow_losses)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_train_step_matches_mixed_precision_reference_bitwise(dropout_rate):
    (fast, fast_state, fast_losses), (slow, slow_state, slow_losses) = _trained_pair(
        reference_mixed_precision_step, dropout_rate
    )
    assert fast_losses == slow_losses
    pairs = [
        (fast.weights, slow.weights), (fast.biases, slow.biases),
        (fast_state.accum_w, slow_state.accum_w), (fast_state.accum_b, slow_state.accum_b),
    ]
    for fast_arrays, slow_arrays in pairs:
        for a, b in zip(fast_arrays, slow_arrays):
            assert a.dtype == np.float64
            assert_same_bits(a, b)
    # the working copy holds the parameters as as_float32() rounds them
    narrow = fast.as_float32()
    for a, b in zip(fast_state.working.weights + fast_state.working.biases,
                    narrow.weights + narrow.biases):
        assert a.dtype == np.float32 and np.array_equal(a, b)


# Largest relative distance of the float32-compute steps from the float64
# reference over 20 steps, as a parameter array's norm and per loss:
# measured 2.3e-7 and 5.6e-8 without dropout, 1.2e-7 and 7.6e-8 with it.
MIXED_PRECISION_BOUND = 2e-6


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_train_steps_stay_near_the_float64_reference(dropout_rate):
    (fast, _, fast_losses), (slow, _, slow_losses) = _trained_pair(
        reference_train_step, dropout_rate
    )
    assert max(relative_error(fast_losses, slow_losses)) <= MIXED_PRECISION_BOUND
    for a, b in zip(fast.weights + fast.biases, slow.weights + slow.biases):
        assert np.linalg.norm(a - b) <= MIXED_PRECISION_BOUND * np.linalg.norm(b)
    assert fast_losses[-1] < fast_losses[0]  # the bound is not met by standing still


@pytest.mark.parametrize("with_dropout", [False, True])
def test_loss_and_gradients_of_a_float64_model_stay_float64(with_dropout):
    rng = np.random.default_rng(39)
    model = init_model([6, 5, 5, 3], "sigmoid", seed=40)
    x = rng.normal(size=(4, 6))
    y = rng.uniform(0.2, 0.8, size=(4, 3))
    masks = make_dropout_masks(rng, [5, 5], 4, 0.3) if with_dropout else None
    loss, grads_w, grads_b = loss_and_gradients(model, x, y, masks)
    assert isinstance(loss, float)
    assert all(g.dtype == np.float64 for g in grads_w + grads_b)
    output = reference_forward_output(model, x, masks)
    assert output.dtype == np.float64
    assert loss == float(np.mean((output - y) ** 2))


# Float32 mapping: the float32 sigmoid, forward pass and model copy. The
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


def test_as_float32_copy_keeps_metadata_and_leaves_the_model_alone():
    model = init_model([9, 5, 2], "linear", seed=2, norm_spec=_minmax_spec(9))
    copy = model.as_float32()
    assert all(p.dtype == np.float32 for p in copy.weights + copy.biases)
    assert all(p.dtype == np.float64 for p in model.weights + model.biases)
    assert copy.norm_spec is model.norm_spec
    assert (copy.output_activation, copy.seed) == ("linear", 2)
    assert copy.as_float32() is copy
    for wide, narrow in zip(model.weights, copy.weights):
        assert np.array_equal(narrow, wide.astype(np.float32))


def test_float32_forward_runs_in_float32_with_and_without_dropout():
    rng = np.random.default_rng(37)
    model = init_model([30, 24, 24, 5], "sigmoid", seed=32)
    x = rng.normal(scale=3.0, size=(17, 30))
    narrow = model.as_float32()
    masks = make_dropout_masks(rng, [24, 24], 17, 0.25)
    assert all(m.dtype == np.float32 for m in masks)
    for state, wide in ((forward(narrow, x), forward(model, x)),
                        (forward(narrow, x, masks), forward(model, x, masks))):
        arrays = state.hidden + state.masked + [state.output]
        assert all(a.dtype == np.float32 for a in arrays)
        assert wide.output.dtype == np.float64
        assert np.max(np.abs(state.output - wide.output)) <= 1e-6
    x[3, 4] = np.nan
    with pytest.raises(NumericError):
        forward(narrow, x)


def test_train_step_rejects_nan_batch():
    model = init_model([3, 4, 2], "sigmoid", seed=38)
    batch = np.ones((4, 3))
    batch[1, 2] = np.nan
    before = [w.copy() for w in model.weights]
    with pytest.raises(NumericError, match="non-finite"):
        train_step(model, batch, np.full((4, 2), 0.5), TrainConfig(), AdagradState(model))
    for w_before, w_after in zip(before, model.weights):
        assert np.array_equal(w_before, w_after)

"""Sigmoid multilayer perceptron with adagrad training and early stopping.

The mapper network takes normalized log-magnitude context windows and
produces 40 mel features per frame, on the CPU. Every pass, training
included, computes in the dtype of the model's weights. An MlpModel holds
float32 parameters from construction, the precision that checkpoints
store, and train() trains them in place and returns the model, so every
model maps through itself; the float64 reference checks widen a built
model's arrays by assignment and step them directly. Each computation is
one function: train() calls train_step and evaluate_cost, train_step calls
loss_and_gradients, and that calls forward. The four check only shapes;
data is checked where it enters, in train() and (through assemble_context
and normalize) in map_features, so a NaN passed to forward gives NaN out,
and train_step refuses a non-finite batch loss before any update. A trained
model, the same model reloaded from its checkpoint and the estimator that
holds it therefore map every utterance to the same bits. Training and
mapping are byte-identical on reruns for a fixed seed, sequential
execution and a fixed BLAS thread count: the GEMMs split their sums by
thread, so between one and two OpenBLAS threads the paper-size forward
pass differs by about 3e-16 in float64 and its float32 mapping by about
2e-7 (2.7e-6 nats on log-mel features).
"""

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .features import (
    NormalizationSpec,
    assemble_context,
    denormalize,
    invert_mvn,
    normalize,
    utterance_stats,
)
from .mel import MEL_MODES
from .seeding import derive_seed
from .stft import DEFAULT_MAGNITUDE_FLOOR
from .validation import all_finite, as_float32, as_float_matrix, check_choice, check_count, check_positive

OUTPUT_ACTIVATIONS = ("sigmoid", "linear")

ADAGRAD_EPSILON = 1e-8

# (floor, ceiling) of the sigmoid per dtype. Each bound is representable in
# its dtype: a float64 ceiling would round up to 1.0 in float32 and the
# float64 floor of 1e-300 down to 0.
_SIGMOID_CLAMPS = {
    np.dtype(np.float64): (1e-300, np.nextafter(1.0, 0.0)),
    np.dtype(np.float32): (np.finfo(np.float32).tiny, np.nextafter(np.float32(1), np.float32(0))),
}


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic, clamped into the open interval (0, 1).

    One pass over t = exp(-|x|): 1/(1+t) where x >= 0, t/(1+t) elsewhere,
    so no exp ever overflows. The numerator is max(t, x >= 0), a select
    without a branch: t <= 1 where x >= 0 and t >= 0 elsewhere, and max
    propagates NaN. (A masked copy mispredicts a branch per element on
    mixed signs and ran over ten times slower.) It is the one temporary:
    x >= 0 is written into it as 0 or 1, then max(t, .) over it, and 1 + t
    is formed in out. Without `out` the result is a new float64 array and
    the argument is left unchanged. `out=x`
    (float64 or float32, same shape) overwrites x with the result, computed
    in x's dtype, which saves an allocation on a temporary the caller owns.
    The float32 clamp is [float32 tiny, largest float32 below 1]. NaN
    inputs give NaN outputs.
    """
    if out is None:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
    numerator = np.greater_equal(x, 0, out=np.empty_like(out))  # before out, which may be x
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.maximum(out, numerator, out=numerator)
    out += 1.0
    np.divide(numerator, out, out=out)
    return np.clip(out, *_SIGMOID_CLAMPS[out.dtype], out=out)


@dataclass
class MlpModel:
    """A multilayer perceptron with sigmoid hidden units and float32 parameters.

    Each parameter passes through as_float32, which keeps a float32 array
    as is and rounds any other as save_model does, so a model built by hand
    from float64 arrays and its reloaded checkpoint hold the same bits. A
    parameter it refuses is a NumericError naming its layer, so every model
    can be saved and loaded back. Normalization statistics that do not fit
    the layers (input_mean and input_var of input_dim, ref_min and ref_max
    of output_dim) are a ShapeError.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "sigmoid"
    norm_spec: Optional[NormalizationSpec] = None
    seed: int = 0

    def __post_init__(self):
        if not self.weights:
            raise ShapeError("a model needs at least one layer")
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must pair up layer by layer")
        self.weights = [_float32_parameter(w, i, "weights", 2) for i, w in enumerate(self.weights)]
        self.biases = [_float32_parameter(b, i, "biases", 1) for i, b in enumerate(self.biases)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i}: input dim breaks the layer chain")
        if self.norm_spec is not None:
            for name, dim in (
                ("input_mean", self.input_dim), ("input_var", self.input_dim),
                ("ref_min", self.output_dim), ("ref_max", self.output_dim),
            ):
                value = getattr(self.norm_spec, name)
                if value is not None and np.shape(value) != (dim,):
                    raise ShapeError(f"norm_spec {name} has shape {np.shape(value)}, not ({dim},)")
        check_choice(self.output_activation, OUTPUT_ACTIVATIONS, "output_activation")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy_parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


def _float32_parameter(param, layer: int, name: str, ndim: int) -> np.ndarray:
    try:
        return as_float32(param, f"layer {layer} {name}", ndim)
    except NumericError as exc:
        raise NumericError(f"non-finite values in layer {layer} {name}") from exc


def init_model(
    dims: Sequence[int],
    output_activation: str = "sigmoid",
    seed: int = 0,
    norm_spec: Optional[NormalizationSpec] = None,
) -> MlpModel:
    """Uniform(+/- sqrt(6/(fan_in+fan_out))) float32 weights, zero float32 biases, seeded.

    Each layer's float64 draws are made one block of rows at a time, cut as
    train_step's update blocks are (at most 32768 draws, or one row of a
    wider layer), and rounded into the layer's float32 array, so no float64
    layer is ever held. The blocks consume the generator's stream in the
    order of one whole-layer draw, so the weights equal that draw narrowed
    with astype(np.float32), bit for bit.
    """
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"dims must chain at least input->output, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = np.empty((fan_in, fan_out), dtype=np.float32)
        rows = _block_rows(w)
        for start in range(0, fan_in, rows):
            block = w[start:start + rows]
            block[...] = rng.uniform(-limit, limit, size=block.shape)
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float32))
    return MlpModel(weights, biases, output_activation, norm_spec, seed)


def make_dropout_masks(
    rng: np.random.Generator, hidden_dims: Sequence[int], batch_size: int, rate: float
) -> list[np.ndarray]:
    """Inverted-dropout masks: Bernoulli(1-rate) scaled by 1/(1-rate), in float32.

    Float32 masks keep a float32 forward pass in float32; a float64 pass
    promotes them exactly.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    scale = np.float32(1.0 / keep)
    return [(rng.random((batch_size, dim)) < keep).astype(np.float32) * scale for dim in hidden_dims]


@dataclass
class ForwardState:
    hidden: list[np.ndarray]  # post-sigmoid, pre-mask
    masked: list[np.ndarray]  # hidden after dropout (same arrays when no masks)
    output: np.ndarray


def forward(model: MlpModel, batch: np.ndarray, dropout_masks=None) -> ForwardState:
    """Activations of every layer for one batch; the batch is not modified.

    Computes in the dtype of the model's weights. With float32 weights, as
    every MlpModel is built with, the batch is cast to float32 once and
    every layer runs in float32, with float32 dropout masks. With float64
    weights, assigned to a built model, every operation runs in float64. Each
    layer adds its bias to the fresh product a @ W and applies the sigmoid
    to it in place, so the sum and the activation need no arrays of their
    own. Only the batch's shape is checked: a NaN in it gives NaN out.
    """
    x = np.asarray(batch)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ShapeError(f"batch has dim {x.shape[1]}, model expects {model.input_dim}")
    n_hidden = len(model.weights) - 1
    if dropout_masks is not None and len(dropout_masks) != n_hidden:
        raise ShapeError(f"expected {n_hidden} dropout masks, got {len(dropout_masks)}")
    x = x.astype(model.weights[0].dtype, copy=False)

    hidden, masked = [], []
    activation = x
    for layer in range(n_hidden):
        h = activation @ model.weights[layer]
        h += model.biases[layer]
        sigmoid(h, out=h)
        hidden.append(h)
        if dropout_masks is not None:
            h = h * dropout_masks[layer]
        masked.append(h)
        activation = h
    output = activation @ model.weights[-1]
    output += model.biases[-1]
    if model.output_activation == "sigmoid":
        sigmoid(output, out=output)
    return ForwardState(hidden, masked, output)


def loss_and_gradients(model: MlpModel, batch, reference, dropout_masks=None):
    """Mean-squared-error loss and backpropagated parameter gradients.

    The gradients have the dtype of the model's weights. The output error
    out - reference is taken in float64 from a float64 reference, for the
    loss, and cast to the weights' dtype once it is scaled into the output
    gradient. The backward pass scales each layer's fresh upstream product
    by the mask, h and 1 - h in place, in that order. The batch and
    reference are taken as checked, as forward takes them.
    """
    x = np.asarray(batch).astype(model.weights[0].dtype, copy=False)
    state = forward(model, x, dropout_masks)
    out = state.output
    if out.shape != reference.shape:
        raise ShapeError(f"output {out.shape} vs reference {reference.shape}")
    error = out - reference
    loss = float(np.mean(error ** 2))

    d_out = (2.0 * error / out.size).astype(out.dtype, copy=False)
    if model.output_activation == "sigmoid":
        delta = d_out * out * (1.0 - out)
    else:
        delta = d_out

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    inputs = [x] + state.masked
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = inputs[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer == 0:
            break
        upstream = delta @ model.weights[layer].T
        if dropout_masks is not None:
            upstream *= dropout_masks[layer - 1]
        h = state.hidden[layer - 1]
        upstream *= h
        upstream *= 1.0 - h
        delta = upstream
    return loss, grads_w, grads_b


# Elements per block of the adagrad update. A block's scratch row and its
# slices of the parameter, accumulator and gradient (512 KB in float32)
# stay in a core's L2 cache through the update's seven passes: on the
# paper-size mapper, with 2 MB of L2 per core, one float32 update took a
# median 27 ms in blocks of 32768 against 37 ms over whole arrays.
_UPDATE_BLOCK = 32768


def _block_rows(param: np.ndarray) -> int:
    """Leading-axis rows per block of one parameter: at least one."""
    return max(1, _UPDATE_BLOCK // max(1, param[0].size))


class AdagradState:
    """Adagrad state for training one model in the dtype of its parameters.

    - accum_w, accum_b: the squared-gradient accumulators, in the dtype of
      the model's parameters (float32 in train(), float64 for a float64
      model stepped directly);
    - scratch: one row of one update block, in the same dtype and shared
      by every parameter, so an update allocates nothing.
    """

    def __init__(self, model: MlpModel):
        self.accum_w = [np.zeros_like(w) for w in model.weights]
        self.accum_b = [np.zeros_like(b) for b in model.biases]
        params = model.weights + model.biases
        width = max(min(len(p), _block_rows(p)) * p[0].size for p in params)
        self.scratch = np.empty(width, dtype=self.accum_w[0].dtype)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.01
    max_epochs: int = 50
    dropout_rate: float = 0.0
    early_stop: bool = False  # return the epoch of lowest dev cost; needs a dev set
    rng_seed: int = 0

    def __post_init__(self):
        check_count(self.batch_size, "batch_size", minimum=1)
        check_count(self.max_epochs, "max_epochs", minimum=1)
        check_positive(self.learning_rate, "learning_rate")
        if not np.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


def train_step(
    model: MlpModel,
    batch: np.ndarray,
    reference: np.ndarray,
    config: TrainConfig,
    state: AdagradState,
    dropout_masks=None,
) -> float:
    """One adagrad update in place; returns the batch MSE before the update.

    The forward and backward passes run in the dtype of the model's
    weights, so the gradients have that dtype; the loss is float64. Per
    parameter, with g its gradient, accum += g*g, then
    param -= lr * (g / sqrt(accum + ADAGRAD_EPSILON)), evaluated in that
    order in cache-sized blocks and in the parameters' dtype. The batch,
    reference and masks are not modified. They are taken as checked, as
    loss_and_gradients takes them: a non-finite batch gives a non-finite
    loss, which is a NumericError raised before any parameter moves.
    """
    loss, grads_w, grads_b = loss_and_gradients(model, batch, reference, dropout_masks)
    if not np.isfinite(loss):
        raise NumericError(f"training diverged: batch cost is {loss}")
    for param, grad, accum in zip(
        model.weights + model.biases, grads_w + grads_b, state.accum_w + state.accum_b
    ):
        rows = _block_rows(param)
        for start in range(0, len(param), rows):
            block = slice(start, start + rows)
            p, a, g = param[block], accum[block], grad[block]
            s = state.scratch[:p.size].reshape(p.shape)
            np.multiply(g, g, out=s)
            a += s
            np.add(a, ADAGRAD_EPSILON, out=s)
            np.sqrt(s, out=s)
            np.divide(g, s, out=s)
            s *= config.learning_rate
            p -= s
    return loss


def _check_widths(model: MlpModel, x: np.ndarray, y: np.ndarray, split: str) -> None:
    if x.shape[1] != model.input_dim or y.shape[1] != model.output_dim:
        raise ShapeError(f"{split} inputs and references have widths {x.shape[1]} and {y.shape[1]}, "
                         f"model maps {model.input_dim} to {model.output_dim}")


def evaluate_cost(model: MlpModel, inputs: np.ndarray, references: np.ndarray) -> float:
    """Full-set MSE without dropout, in the dtype of the model's weights.

    This is the dev cost that train() records. The squared errors are
    summed in float64 in a fixed order of 4096-frame chunks. The inputs and
    references are taken as checked, as forward takes them.
    """
    if len(inputs) != len(references):
        raise ShapeError("inputs and references must have the same frame count")
    total, chunk = 0.0, 4096
    for start in range(0, len(inputs), chunk):
        out = forward(model, inputs[start:start + chunk]).output
        total += float(np.sum((out - references[start:start + chunk]) ** 2))
    return total / max(1, references.size)


@dataclass
class TrainHistory:
    train_cost: list[float] = field(default_factory=list)
    dev_cost: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def train(
    model: MlpModel,
    train_inputs: np.ndarray,
    train_references: np.ndarray,
    config: TrainConfig,
    dev_inputs: Optional[np.ndarray] = None,
    dev_references: Optional[np.ndarray] = None,
) -> tuple[MlpModel, TrainHistory]:
    """Epoch loop with seeded shuffling, optional dropout and early stopping.

    Trains the model's parameters in place, in their dtype (float32 for
    every MlpModel as built), and returns the model, so a caller that
    reuses its initial model copies it first. The training and dev inputs
    pass through as_float32 once, which uses a float32 matrix (np.vstack
    of normalize's inputs, say) as is; what it refuses is refused before
    the first step, as is a width the model does not map (a ShapeError)
    and dev inputs without dev references, or the reverse (a ConfigError).
    Every batch is gathered from that one copy. The references stay
    float64. Each batch goes through train_step, and the dev cost is
    evaluate_cost's. Every run trains all max_epochs epochs. With
    early_stop set, train returns the parameters of the first epoch with
    the lowest dev cost and reports that epoch as best_epoch, copying the
    parameters only when an epoch sets a new lowest cost; without it,
    best_epoch is max_epochs. The last step can leave parameters that are
    not finite with no later batch cost to show it, as a learning rate far
    too large does; returning them is a NumericError instead. Dedicated
    child seeds keep the shuffle and dropout streams independent of each
    other and of init.
    """
    x = as_float32(train_inputs, "train inputs", 2)
    y = as_float_matrix(train_references, "train references")
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ConfigError("training set must be nonempty with paired inputs/references")
    _check_widths(model, x, y, "train")
    if (dev_inputs is None) != (dev_references is None):
        raise ConfigError("train needs dev_inputs and dev_references together, or neither")
    has_dev = dev_inputs is not None and len(dev_inputs) > 0
    if config.early_stop and not has_dev:
        raise ConfigError(
            "early stopping cross-validates against a development set; none was provided"
        )
    if has_dev:
        dev_x = as_float32(dev_inputs, "dev inputs", 2)
        dev_y = as_float_matrix(dev_references, "dev references")
        if dev_x.shape[0] != dev_y.shape[0]:
            raise ShapeError("dev inputs and dev references must have the same frame count")
        _check_widths(model, dev_x, dev_y, "dev")

    shuffle_rng = np.random.default_rng(derive_seed(config.rng_seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(config.rng_seed, "dropout"))
    hidden_dims = model.layer_dims[1:-1]
    adagrad = AdagradState(model)
    history = TrainHistory(best_epoch=config.max_epochs)
    best = None

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(x.shape[0])
        batch_costs = []
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            masks = None
            if config.dropout_rate > 0.0:
                masks = make_dropout_masks(dropout_rng, hidden_dims, len(rows), config.dropout_rate)
            batch_costs.append(train_step(model, x[rows], y[rows], config, adagrad, masks))
        history.train_cost.append(float(np.mean(batch_costs)))
        if has_dev:
            history.dev_cost.append(evaluate_cost(model, dev_x, dev_y))
        if config.early_stop and history.dev_cost[-1] < min(history.dev_cost[:-1], default=np.inf):
            best = model.copy_parameters()
            history.best_epoch = epoch
    if best is not None:
        model.weights, model.biases = best
    if not all(all_finite(p) for p in model.weights + model.biases):
        raise NumericError("training diverged: the trained parameters are not finite")
    return model, history


@dataclass
class MappedFeatures:
    """Mapper output for one utterance, in normalized and feature domains.

    For minmax-normalized references the inversion is exact via the stored
    range. For utterance-MVN references the clean utterance statistics are
    unknown at mapping time, so the inversion uses the statistics of the
    degraded input's own mel features, in the references' mel mode and
    floor, as a stand-in; normalized keeps the output before that inversion.
    """

    normalized: np.ndarray
    denormalized: np.ndarray


def map_features(
    model: MlpModel,
    log_spec: np.ndarray,
    context: int,
    mel_filterbank: Optional[np.ndarray] = None,
    magnitude_floor: float = DEFAULT_MAGNITUDE_FLOOR,
    mel_mode: str = "power",
) -> MappedFeatures:
    """Run one utterance of log-magnitude frames through the mapper.

    The mapping runs in the dtype of the model's weights, float32 for every
    MlpModel as built. Context assembly and denormalization run in float64;
    normalize computes the input MVN in float64 and hands the network its
    float32 rounding. Every returned array is float64. The inputs are not
    modified. Utterance-MVN references need the filterbank, floor and mode
    of the references' MelConfig to build the input's stand-in statistics.
    An utterance of no frames maps to (0, outputs) arrays, with no
    statistics taken.
    """
    spec = model.norm_spec
    if spec is None:
        raise ConfigError("model has no normalization spec; train or load one first")
    check_choice(mel_mode, MEL_MODES, "mel_mode")
    if spec.reference_mode != "global_minmax_01" and mel_filterbank is None:
        raise ConfigError("utterance-MVN references need a mel filterbank to invert; pass one")
    assembled = assemble_context(log_spec, context)
    n_bins = np.asarray(log_spec).shape[1]
    if assembled.shape[1] != model.input_dim:
        raise ShapeError(
            f"context {context} over {n_bins} bins gives dim "
            f"{assembled.shape[1]}, model expects {model.input_dim}"
        )
    expected = (model.output_dim, n_bins)
    if mel_filterbank is not None and mel_filterbank.shape != expected:
        raise ShapeError(f"mel filterbank {mel_filterbank.shape} != (outputs, bins) {expected}")
    if not len(assembled):
        # No frames: no output to invert, and no utterance statistics to take.
        return MappedFeatures(np.zeros((0, model.output_dim)), np.zeros((0, model.output_dim)))
    normalized_in = normalize(assembled, spec, "input")
    output = forward(model, normalized_in).output.astype(np.float64)

    if spec.reference_mode == "global_minmax_01":
        return MappedFeatures(output, denormalize(output, spec))

    log_spec = as_float_matrix(log_spec, "log_spec")
    energy = np.exp(2.0 * log_spec) if mel_mode == "power" else np.exp(log_spec)
    proxy_mel = np.log(np.maximum(energy @ mel_filterbank.T, magnitude_floor))
    mean, var = utterance_stats(proxy_mel, spec.epsilon)
    return MappedFeatures(output, invert_mvn(output, mean, var))


"""Sigmoid multilayer perceptron with adagrad training and early stopping.

The mapper network takes normalized log-magnitude context windows and
produces 40 mel features per frame, on the CPU. Training runs in float64.
Mapping runs in float32 through a float32 copy of the model, the precision
that checkpoints store, so a model kept in memory and the same model
reloaded from its checkpoint map every utterance to the same bits.
Training and mapping are byte-identical on reruns for a fixed seed,
sequential execution and a fixed BLAS thread count: the GEMMs split their
sums by thread, so between one and two OpenBLAS threads the paper-size
forward pass differs by about 3e-16 in float64 and its float32 mapping by
about 2e-7 (2.7e-6 nats on log-mel features).
"""

from dataclasses import asdict, dataclass, field, replace
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
from .validation import as_float_matrix, check_choice, check_positive

OUTPUT_ACTIVATIONS = ("sigmoid", "linear")

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
    so no exp ever overflows. Without `out` the result is a new float64
    array and the argument is left unchanged. `out=x` (float64 or float32,
    same shape) overwrites x with the result, computed in x's dtype, which
    saves an allocation on a temporary the caller owns. The float32 clamp
    is [float32 tiny, largest float32 below 1]. NaN inputs give NaN outputs.
    """
    if out is None:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
    pos = x >= 0  # taken before out, which may be x, is written
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.copyto(out, 1.0, where=pos)
    np.divide(out, denom, out=out)
    return np.clip(out, *_SIGMOID_CLAMPS[out.dtype], out=out)


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "sigmoid"
    output_activation: str = "sigmoid"
    norm_spec: Optional[NormalizationSpec] = None
    seed: int = 0

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must pair up layer by layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i}: input dim breaks the layer chain")
        check_choice(self.output_activation, OUTPUT_ACTIVATIONS, "output_activation")
        if self.hidden_activation != "sigmoid":
            raise ConfigError("only sigmoid hidden units are supported")

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

    def set_parameters(self, weights, biases) -> None:
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]

    def as_float32(self) -> "MlpModel":
        """This model with float32 parameters, for mapping; itself when already float32.

        The cast rounds as save_model does, so the copy of a trained model
        and the copy of its reloaded checkpoint hold the same bits.
        """
        if all(p.dtype == np.float32 for p in self.weights + self.biases):
            return self
        return replace(
            self,
            weights=[w.astype(np.float32) for w in self.weights],
            biases=[b.astype(np.float32) for b in self.biases],
        )


def init_model(
    dims: Sequence[int],
    output_activation: str = "sigmoid",
    seed: int = 0,
    norm_spec: Optional[NormalizationSpec] = None,
) -> MlpModel:
    """Uniform(+/- sqrt(6/(fan_in+fan_out))) weights, zero biases, seeded."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"dims must chain at least input->output, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, "sigmoid", output_activation, norm_spec, seed)


def make_dropout_masks(
    rng: np.random.Generator, hidden_dims: Sequence[int], batch_size: int, rate: float
) -> list[np.ndarray]:
    """Inverted-dropout masks: Bernoulli(1-rate) scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return [
        (rng.random((batch_size, dim)) < keep).astype(np.float64) / keep
        for dim in hidden_dims
    ]


@dataclass
class ForwardState:
    hidden: list[np.ndarray]  # post-sigmoid, pre-mask
    masked: list[np.ndarray]  # hidden after dropout (same arrays when no masks)
    output: np.ndarray


def forward(model: MlpModel, batch: np.ndarray, dropout_masks=None) -> ForwardState:
    """Activations of every layer for one batch; the batch is not modified.

    Computes in the dtype of the model's weights. With float64 weights
    (training) every operation runs in float64. With float32 weights
    (mapping, see MlpModel.as_float32) the checked float64 batch is cast to
    float32 once and every layer runs in float32; dropout masks belong to
    training and are rejected there. Each layer adds its bias to the fresh
    product a @ W and applies the sigmoid to it in place, so the sum and the
    activation need no arrays of their own.
    """
    return _forward(model, as_float_matrix(batch, "batch"), dropout_masks)


def _forward(model: MlpModel, x: np.ndarray, dropout_masks=None) -> ForwardState:
    """forward() on a float64 matrix already checked to be finite."""
    if x.shape[1] != model.input_dim:
        raise ShapeError(f"batch has dim {x.shape[1]}, model expects {model.input_dim}")
    n_hidden = len(model.weights) - 1
    if dropout_masks is not None and len(dropout_masks) != n_hidden:
        raise ShapeError(f"expected {n_hidden} dropout masks, got {len(dropout_masks)}")
    if model.weights[0].dtype == np.float32:
        if dropout_masks is not None:
            raise ConfigError("dropout masks are for training; a float32 model only maps")
        x = x.astype(np.float32)

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
    """Mean-squared-error loss and backpropagated parameter gradients."""
    x = as_float_matrix(batch, "batch")
    y = as_float_matrix(reference, "reference")
    return _loss_and_gradients(model, x, y, dropout_masks)


def _loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray, dropout_masks=None):
    """loss_and_gradients() on float64 matrices already checked to be finite.

    The backward pass scales each layer's fresh upstream product by the
    mask, h and 1 - h in place, in that order.
    """
    state = _forward(model, x, dropout_masks)
    out = state.output
    if out.shape != y.shape:
        raise ShapeError(f"output {out.shape} vs reference {y.shape}")
    loss = float(np.mean((out - y) ** 2))

    d_out = 2.0 * (out - y) / out.size
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


class AdagradState:
    """Per-parameter squared-gradient accumulators."""

    def __init__(self, model: MlpModel):
        self.accum_w = [np.zeros_like(w) for w in model.weights]
        self.accum_b = [np.zeros_like(b) for b in model.biases]


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.01
    max_epochs: int = 50
    dropout_rate: float = 0.0
    adagrad_epsilon: float = 1e-8
    early_stop: bool = False
    increase_threshold: float = 0.01
    improvement_threshold: float = 0.001
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_positive(self.learning_rate, "learning_rate")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        check_positive(self.adagrad_epsilon, "adagrad_epsilon")
        check_positive(self.increase_threshold, "increase_threshold")
        check_positive(self.improvement_threshold, "improvement_threshold")


def train_step(
    model: MlpModel,
    batch: np.ndarray,
    reference: np.ndarray,
    config: TrainConfig,
    state: AdagradState,
    dropout_masks=None,
) -> float:
    """One adagrad update in place; returns the batch MSE before the update.

    Per parameter, accum += g*g, then param -= lr*g / sqrt(accum + eps),
    evaluated in that order in one scratch array and the fresh gradient
    itself, so each parameter's update allocates one temporary. The batch,
    reference and masks are not modified.
    """
    x = as_float_matrix(batch, "batch")
    y = as_float_matrix(reference, "reference")
    return _train_step(model, x, y, config, state, dropout_masks)


def _train_step(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    state: AdagradState,
    dropout_masks=None,
) -> float:
    """train_step() on float64 matrices already checked to be finite."""
    loss, grads_w, grads_b = _loss_and_gradients(model, x, y, dropout_masks)
    if not np.isfinite(loss):
        raise NumericError(f"training diverged: batch cost is {loss}")
    params = model.weights + model.biases
    accums = state.accum_w + state.accum_b
    for param, grad, accum in zip(params, grads_w + grads_b, accums):
        scratch = grad * grad
        accum += scratch
        np.add(accum, config.adagrad_epsilon, out=scratch)
        np.sqrt(scratch, out=scratch)
        grad *= config.learning_rate
        grad /= scratch
        param -= grad
    return loss


def evaluate_cost(model: MlpModel, inputs: np.ndarray, references: np.ndarray, chunk: int = 4096) -> float:
    """Full-set MSE without dropout, accumulated in a fixed chunk order."""
    x = as_float_matrix(inputs, "inputs")
    y = as_float_matrix(references, "references")
    if x.shape[0] != y.shape[0]:
        raise ShapeError("inputs and references must have the same frame count")
    total = 0.0
    for start in range(0, x.shape[0], chunk):
        out = _forward(model, x[start:start + chunk]).output
        total += float(np.sum((out - y[start:start + chunk]) ** 2))
    return total / max(1, y.size)


def early_stop_decision(
    dev_costs: Sequence[float],
    increase_threshold: float = 0.01,
    improvement_threshold: float = 0.001,
) -> Optional[str]:
    """Stop rule on the dev-cost sequence so far.

    Returns "dev_increase" when the latest cost rose by more than
    increase_threshold relative to the previous epoch, "dev_plateau" when it
    failed to improve by at least improvement_threshold relative, else None.
    """
    if len(dev_costs) < 2:
        return None
    prev, cur = dev_costs[-2], dev_costs[-1]
    if cur > prev * (1.0 + increase_threshold):
        return "dev_increase"
    if (prev - cur) < improvement_threshold * prev:
        return "dev_plateau"
    return None


@dataclass
class TrainHistory:
    train_cost: list[float] = field(default_factory=list)
    dev_cost: list[float] = field(default_factory=list)
    stop_reason: str = "max_epochs"
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

    When a stop rule fires after epoch e, the parameters from epoch e-1 are
    restored and reported as best_epoch. Dedicated child seeds keep the
    shuffle and dropout streams independent of each other and of init.
    """
    x = as_float_matrix(train_inputs, "train inputs")
    y = as_float_matrix(train_references, "train references")
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ConfigError("training set must be nonempty with paired inputs/references")
    has_dev = dev_inputs is not None and dev_references is not None and len(dev_inputs) > 0
    if config.early_stop and not has_dev:
        raise ConfigError(
            "early stopping cross-validates against a development set; none was provided"
        )

    shuffle_rng = np.random.default_rng(derive_seed(config.rng_seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(config.rng_seed, "dropout"))
    hidden_dims = model.layer_dims[1:-1]
    adagrad = AdagradState(model)
    history = TrainHistory()

    for epoch in range(1, config.max_epochs + 1):
        previous = model.copy_parameters()
        order = shuffle_rng.permutation(x.shape[0])
        batch_costs = []
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            masks = None
            if config.dropout_rate > 0.0:
                masks = make_dropout_masks(dropout_rng, hidden_dims, len(rows), config.dropout_rate)
            batch_costs.append(_train_step(model, x[rows], y[rows], config, adagrad, masks))
        history.train_cost.append(float(np.mean(batch_costs)))
        if has_dev:
            history.dev_cost.append(evaluate_cost(model, dev_inputs, dev_references))
        if config.early_stop:
            reason = early_stop_decision(
                history.dev_cost, config.increase_threshold, config.improvement_threshold
            )
            if reason is not None:
                model.set_parameters(*previous)
                history.stop_reason = reason
                history.best_epoch = epoch - 1
                return model, history

    history.stop_reason = "max_epochs"
    history.best_epoch = config.max_epochs
    return model, history


@dataclass
class MappedFeatures:
    """Mapper output for one utterance, in normalized and feature domains.

    For minmax-normalized references the inversion is exact via the stored
    range. For utterance-MVN references the clean utterance statistics are
    unknown at mapping time, so the inversion uses the statistics of the
    degraded input's own mel features, in the references' mel mode, as a
    stand-in; those statistics are returned so callers can redo the
    inversion with better ones.
    """

    normalized: np.ndarray
    denormalized: np.ndarray
    inversion_mean: Optional[np.ndarray] = None
    inversion_var: Optional[np.ndarray] = None


def map_features(
    model: MlpModel,
    log_spec: np.ndarray,
    context: int,
    mel_filterbank: Optional[np.ndarray] = None,
    magnitude_floor: float = 1e-10,
    mel_mode: str = "power",
) -> MappedFeatures:
    """Run one utterance of log-magnitude frames through the mapper.

    The mapping runs in float32 through model.as_float32(), so pass a
    float32 model to skip the per-call cast. Context assembly,
    normalization and denormalization run in float64, and every returned
    array is float64. The inputs are not modified. Utterance-MVN references
    need the mel filterbank and mel mode (MelConfig.mode) of the references
    to build the input's stand-in statistics.
    """
    spec = model.norm_spec
    if spec is None:
        raise ConfigError("model has no normalization spec; train or load one first")
    check_choice(mel_mode, MEL_MODES, "mel_mode")
    if spec.reference_mode != "global_minmax_01" and mel_filterbank is None:
        raise ConfigError("utterance-MVN references need a mel filterbank to invert; pass one")
    assembled = assemble_context(log_spec, context)
    if assembled.shape[1] != model.input_dim:
        raise ShapeError(
            f"context {context} over {np.asarray(log_spec).shape[1]} bins gives dim "
            f"{assembled.shape[1]}, model expects {model.input_dim}"
        )
    if len(assembled):
        normalized_in = normalize(assembled, spec, "input")
        output = forward(model.as_float32(), normalized_in).output.astype(np.float64)
    else:
        output = np.zeros((0, model.output_dim))

    if spec.reference_mode == "global_minmax_01":
        return MappedFeatures(output, denormalize(output, spec, "reference"))

    log_spec = as_float_matrix(log_spec, "log_spec")
    energy = np.exp(2.0 * log_spec) if mel_mode == "power" else np.exp(log_spec)
    proxy_mel = np.log(np.maximum(energy @ mel_filterbank.T, magnitude_floor))
    mean, var = utterance_stats(proxy_mel, spec.epsilon)
    return MappedFeatures(output, invert_mvn(output, mean, var), mean, var)


"""Multi-task feed-forward network: rectifier hidden layers, affine output.

All target variables are predicted jointly through a shared trunk.
Training runs full-batch gradient steps with adaptive-moment updates and
inverted dropout on the hidden layers. Everything is deterministic for a
fixed config seed: one generator drives initialization first, then the
per-iteration dropout masks. Training computes in float32; predictions
are returned as float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, DivergenceError, ValidationError
from ..lexicon import AlignedLexicon
from .base import MappingModel, _count

__all__ = [
    "FfnnConfig",
    "FfnnModel",
    "init_ffnn",
    "ffnn_forward",
    "ffnn_loss",
    "ffnn_backward",
    "gradient_check",
]

# the dtype every network trains in; forward and backward compute in the
# weights' dtype, so float64 weights (older model files, gradient_check)
# still run through the same functions
TRAIN_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True)
class FfnnConfig:
    """Architecture and training hyperparameters.

    Defaults follow the reference setup: two 128-unit hidden layers,
    0.2 dropout on hidden outputs, 10,000 full-batch iterations, and the
    standard adaptive-moment settings (step 1e-3, decays 0.9/0.999,
    epsilon 1e-8). The step and epsilon must hold in the training dtype.
    """

    hidden_sizes: tuple[int, ...] = (128, 128)
    dropout_hidden: float = 0.2
    iterations: int = 10_000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(_count("hidden_sizes entry", h) for h in self.hidden_sizes)
        object.__setattr__(self, "hidden_sizes", sizes)
        object.__setattr__(self, "iterations", _count("iterations", self.iterations))
        if not self.hidden_sizes:
            raise ValidationError("hidden_sizes must not be empty")
        if not 0.0 <= self.dropout_hidden < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout_hidden!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("moment decays must lie in [0, 1)")
        # values in (tiny, huge] round to a positive finite number in the
        # training dtype; as Python floats the bounds compare with a huge
        # JSON integer without overflow
        info = np.finfo(TRAIN_DTYPE)
        tiny, huge = float(info.smallest_subnormal) / 2, float(info.max)
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if not tiny < value <= huge:
                raise ValidationError(
                    f"{name} must be positive and finite in {TRAIN_DTYPE}, got {value!r}"
                )


class FfnnModel(MappingModel):
    """Parameter container plus the uniform fit/predict contract.

    weights[l] has shape (fan_out, fan_in); the last layer is affine.
    A model constructed from a config alone is unfitted until fit() or
    fit_arrays() trains it in place.
    """

    def __init__(
        self,
        config: FfnnConfig | None = None,
        *,
        weights=None,
        biases=None,
        source_format=None,
        target_format=None,
        loss_trace=None,
    ):
        self.config = config if config is not None else FfnnConfig()
        self.weights = weights
        self.biases = biases
        self.source_format = source_format
        self.target_format = target_format
        self.loss_trace = list(loss_trace) if loss_trace is not None else []

    @property
    def n_features(self):
        return None if self.weights is None else self.weights[0].shape[1]

    def fit_arrays(self, S, T) -> "FfnnModel":
        """Train in place, in float32, from a fresh seeded initialization."""
        cfg = self.config
        S, T = (a.astype(TRAIN_DTYPE, copy=False) for a in self._training(S, T))
        rng = np.random.default_rng(cfg.seed)
        sizes = [S.shape[1], *cfg.hidden_sizes, T.shape[1]]
        self.weights, self.biases = _init_layers(sizes, rng, TRAIN_DTYPE)
        self.loss_trace = _train(self, S, T, rng)
        return self

    def predict(self, X) -> np.ndarray:
        out, _ = ffnn_forward(self, self._query(X), mode="eval")
        return out.astype(np.float64, copy=False)

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def _init_layers(sizes, rng, dtype=np.float64):
    """Uniform draws in +-sqrt(6/(fan_in+fan_out)) per layer, zero biases.

    The draws are float64 whatever the dtype, then cast, so every dtype
    starts from the same generator stream.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype))
    return weights, biases


def _train(m: FfnnModel, S, T, rng) -> list[float]:
    """Run m.config.iterations full-batch steps on m's parameters in place,
    in their dtype; returns the loss trace. S and T are in that dtype too.

    A diverging run overflows to inf and nan; the finite-loss check ends
    it in a DivergenceError, so those float warnings are muted.
    """
    params = [*m.weights, *m.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, m.config.iterations + 1):
            out, cache = ffnn_forward(m, S, mode="train", rng=rng)
            loss = ffnn_loss(out, T)
            if not math.isfinite(loss):
                raise DivergenceError("training loss is not finite", iteration=it)
            trace.append(loss)
            grads_w, grads_b = ffnn_backward(m, cache, T)
            _adam_step(m.config, it, params, (*grads_w, *grads_b), moments)
    return trace


def _adam_step(cfg: FfnnConfig, it: int, params, grads, moments) -> None:
    """One adaptive-moment update of params in place at iteration it.

    Every scalar is cast to the parameters' dtype first: a float64 scalar
    would promote float32 arithmetic to float64 under NEP 50.
    """
    dt = params[0].dtype.type
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = dt(1.0 - b1), dt(1.0 - b2)
    bc1, bc2 = dt(1.0 - b1**it), dt(1.0 - b2**it)
    b1, b2 = dt(b1), dt(b2)
    lr, eps = dt(cfg.learning_rate), dt(cfg.epsilon)
    for p, g, (m1, m2) in zip(params, grads, moments):
        m1[:] = b1 * m1 + c1 * g
        m2[:] = b2 * m2 + c2 * (g * g)
        p -= (lr * (m1 / bc1)) / (np.sqrt(m2 / bc2) + eps)


def init_ffnn(cfg: FfnnConfig, source_format, target_format) -> FfnnModel:
    """Fresh untrained model: the initialization fit_arrays starts from."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [source_format.size, *cfg.hidden_sizes, target_format.size]
    weights, biases = _init_layers(sizes, rng, TRAIN_DTYPE)
    return FfnnModel(
        cfg,
        weights=weights,
        biases=biases,
        source_format=source_format,
        target_format=target_format,
    )


@dataclass
class _ForwardCache:
    model: FfnnModel
    mode: str
    # per hidden layer: (layer input, pre-activation z, scaled dropout mask or None)
    layers: list = field(default_factory=list)
    last_input: np.ndarray | None = None
    output: np.ndarray | None = None


def ffnn_forward(m: FfnnModel, X, mode: str = "eval", rng=None):
    """Run the network; returns (output, cache for the backward pass).

    In train mode each hidden layer's output gets an inverted dropout
    mask drawn from ``rng`` (scaled by 1/keep); eval mode applies neither
    masks nor scaling. The output layer is always affine and unbounded.
    Everything is computed in the weights' dtype.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    if m.weights is None:
        raise ContractError("forward pass on an uninitialized model")
    dt = m.weights[0].dtype
    X = np.ascontiguousarray(X, dtype=dt)
    if X.ndim != 2 or X.shape[1] != m.weights[0].shape[1]:
        raise ContractError(
            f"expected (n, {m.weights[0].shape[1]}) input, got {X.shape}"
        )
    p = m.config.dropout_hidden if m.config is not None else 0.0
    dropping = mode == "train" and p > 0.0
    if dropping and rng is None:
        raise ContractError("train-mode forward with dropout needs a generator")
    keep = dt.type(1.0 - p)
    inv = dt.type(1.0 / (1.0 - p))
    cache = _ForwardCache(model=m, mode=mode)
    a = X
    for W, b in zip(m.weights[:-1], m.biases[:-1]):
        z = a @ W.T
        z += b
        h = np.maximum(z, 0.0)
        mask = None
        if dropping:
            # dtype= keeps a bool * scalar product in dt under numpy 1.x too
            mask = np.multiply(rng.random(size=z.shape, dtype=dt) < keep, inv, dtype=dt)
            h *= mask
        cache.layers.append((a, z, mask))
        a = h
    out = a @ m.weights[-1].T + m.biases[-1]
    cache.last_input = a
    cache.output = out
    return out, cache


def ffnn_loss(pred, gold) -> float:
    """Mean squared error over every output cell."""
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    if pred.size == 0:
        raise ContractError("loss of empty matrices is undefined")
    d = pred - gold
    return float(np.mean(d * d))


def ffnn_backward(m: FfnnModel, cache: _ForwardCache, gold):
    """Exact gradients of ffnn_loss through the cached forward pass.

    Returns (weight gradients, bias gradients), one entry per layer.
    """
    if cache.model is not m:
        raise ContractError("cache was produced by a different model")
    dt = cache.output.dtype
    gold = np.asarray(gold, dtype=dt)
    if gold.shape != cache.output.shape:
        raise ContractError(
            f"gold shape {gold.shape} does not match cached output "
            f"{cache.output.shape}"
        )
    n_layers = len(m.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = (cache.output - gold) * dt.type(2.0 / cache.output.size)
    grads_w[-1] = np.ascontiguousarray(delta.T @ cache.last_input)
    grads_b[-1] = delta.sum(axis=0)
    if n_layers == 1:
        return grads_w, grads_b
    back = delta @ m.weights[-1]
    for l in range(n_layers - 2, -1, -1):
        a_prev, z, mask = cache.layers[l]
        gate = z > 0.0
        if mask is not None:
            gate = gate * mask
        dz = back * gate
        grads_w[l] = np.ascontiguousarray(dz.T @ a_prev)
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            back = dz @ m.weights[l]
    return grads_w, grads_b


def _check_net(hidden_sizes, in_dim, out_dim, seed):
    """Build a throwaway network for gradient checking.

    Unlike FfnnConfig, the harness accepts an empty hidden_sizes tuple:
    a purely affine network whose quadratic loss makes finite differences
    nearly exact, which pins down the check's own accuracy.
    """
    rng = np.random.default_rng(seed)
    weights, biases = _init_layers([in_dim, *hidden_sizes, out_dim], rng)
    # bias draws keep nothing at exactly zero so relu kinks are unlikely
    biases = [rng.uniform(-0.1, 0.1, size=b.shape) for b in biases]
    return FfnnModel(None, weights=weights, biases=biases)


def gradient_check(cfg, sample, *, seed: int = 0, step: float = 1e-5) -> float:
    """Compare analytic gradients with central finite differences.

    ``cfg`` is an FfnnConfig (its dropout must be disabled) or a bare
    hidden-size tuple, possibly empty. ``sample`` is (X, gold) or an
    AlignedLexicon. Returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if isinstance(cfg, FfnnConfig):
        if cfg.dropout_hidden != 0.0:
            raise ContractError("gradient check requires dropout disabled")
        hidden_sizes = cfg.hidden_sizes
        seed = cfg.seed
    else:
        hidden_sizes = tuple(int(h) for h in cfg)
    if isinstance(sample, AlignedLexicon):
        X, gold = sample.source_matrix, sample.target_matrix
    else:
        X, gold = sample
    X = np.ascontiguousarray(X, dtype=np.float64)
    gold = np.ascontiguousarray(gold, dtype=np.float64)
    model = _check_net(hidden_sizes, X.shape[1], gold.shape[1], seed)
    out, cache = ffnn_forward(model, X, mode="eval")
    grads_w, grads_b = ffnn_backward(model, cache, gold)
    worst = 0.0
    for param, grad in zip(
        (*model.weights, *model.biases), (*grads_w, *grads_b)
    ):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = ffnn_loss(ffnn_forward(model, X, mode="eval")[0], gold)
            flat[i] = orig - step
            down = ffnn_loss(ffnn_forward(model, X, mode="eval")[0], gold)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst

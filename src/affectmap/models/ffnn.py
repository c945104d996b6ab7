"""Multi-task feed-forward network: rectifier hidden layers, affine output.

All target variables are predicted jointly through a shared trunk.
Training runs full-batch gradient steps with adaptive-moment updates and
inverted dropout on the hidden layers. Everything is deterministic for a
fixed config seed: one generator drives initialization first, then the
per-iteration dropout masks.
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


@dataclass(frozen=True)
class FfnnConfig:
    """Architecture and training hyperparameters.

    Defaults follow the reference setup: two 128-unit hidden layers,
    0.2 dropout on hidden outputs, 10,000 full-batch iterations, and the
    standard adaptive-moment settings (step 1e-3, decays 0.9/0.999,
    epsilon 1e-8).
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
        if not self.learning_rate > 0.0:
            raise ValidationError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("moment decays must lie in [0, 1)")
        if not self.epsilon > 0.0:
            raise ValidationError("epsilon must be positive")


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
        """Train in place from a fresh seeded initialization."""
        cfg = self.config
        S, T = self._training(S, T)
        rng = np.random.default_rng(cfg.seed)
        sizes = [S.shape[1], *cfg.hidden_sizes, T.shape[1]]
        self.weights, self.biases = _init_layers(sizes, rng)
        params = [a.reshape(-1) for a in (*self.weights, *self.biases)]
        moment1 = [np.zeros(p.size) for p in params]
        moment2 = [np.zeros(p.size) for p in params]
        lr, b1, b2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon
        trace = []
        for it in range(1, cfg.iterations + 1):
            out, cache = ffnn_forward(self, S, mode="train", rng=rng)
            loss = ffnn_loss(out, T)
            if not math.isfinite(loss):
                raise DivergenceError("training loss is not finite", iteration=it)
            trace.append(loss)
            grads_w, grads_b = ffnn_backward(self, cache, T)
            grads = [g.reshape(-1) for g in (*grads_w, *grads_b)]
            bc1 = 1.0 - b1**it
            bc2 = 1.0 - b2**it
            for p, g, m1, m2 in zip(params, grads, moment1, moment2):
                m1[:] = b1 * m1 + (1.0 - b1) * g
                m2[:] = b2 * m2 + (1.0 - b2) * (g * g)
                p -= (lr * (m1 / bc1)) / (np.sqrt(m2 / bc2) + eps)
        self.loss_trace = trace
        return self

    def predict(self, X) -> np.ndarray:
        out, _ = ffnn_forward(self, self._query(X), mode="eval")
        return out

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def _init_layers(sizes, rng):
    """Uniform draws in +-sqrt(6/(fan_in+fan_out)) per layer, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(np.ascontiguousarray(rng.uniform(-limit, limit, size=(fan_out, fan_in))))
        biases.append(np.zeros(fan_out))
    return weights, biases


def init_ffnn(cfg: FfnnConfig, source_format, target_format) -> FfnnModel:
    """Fresh untrained model with seeded initialization."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [source_format.size, *cfg.hidden_sizes, target_format.size]
    weights, biases = _init_layers(sizes, rng)
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
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    if m.weights is None:
        raise ContractError("forward pass on an uninitialized model")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.weights[0].shape[1]:
        raise ContractError(
            f"expected (n, {m.weights[0].shape[1]}) input, got {X.shape}"
        )
    p = m.config.dropout_hidden if m.config is not None else 0.0
    dropping = mode == "train" and p > 0.0
    if dropping and rng is None:
        raise ContractError("train-mode forward with dropout needs a generator")
    keep = 1.0 - p
    inv = 1.0 / keep
    cache = _ForwardCache(model=m, mode=mode)
    a = X
    for W, b in zip(m.weights[:-1], m.biases[:-1]):
        z = a @ W.T
        z += b
        h = np.maximum(z, 0.0)
        mask = None
        if dropping:
            mask = (rng.random(size=z.shape) < keep) * inv
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
    gold = np.asarray(gold, dtype=np.float64)
    if gold.shape != cache.output.shape:
        raise ContractError(
            f"gold shape {gold.shape} does not match cached output "
            f"{cache.output.shape}"
        )
    n_layers = len(m.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = (cache.output - gold) * (2.0 / cache.output.size)
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

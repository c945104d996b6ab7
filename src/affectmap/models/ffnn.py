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

from ..errors import ConfigurationError, ContractError, DivergenceError, ValidationError
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

    @property
    def input_dtype(self):
        """The dtype the network computes in: its weights'."""
        return self.weights[0].dtype

    def fit_arrays(self, S, T) -> "FfnnModel":
        """Train in place, in float32, from a fresh seeded initialization."""
        cfg = self.config
        S, T = self._training(S, T, TRAIN_DTYPE)
        rng = np.random.default_rng(cfg.seed)
        sizes = [S.shape[1], *cfg.hidden_sizes, T.shape[1]]
        try:
            self.weights, self.biases = _init_layers(sizes, rng, TRAIN_DTYPE)
            ws = _Workspace(self, S, T)
        except (MemoryError, ValueError) as e:  # numpy refuses a size past its limit
            raise ConfigurationError(
                f"cannot allocate a network of layer sizes {sizes}: {e}") from None
        self.loss_trace = _train(self, ws, rng)
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


class _Workspace:
    """Every buffer one fit writes, allocated once and reused by each iteration.

    The model's weights and biases become views into one flat parameter
    vector, and the gradients into one laid out the same way, so the
    elementwise Adam step runs once over the whole vector. Per hidden layer:
    pre-activation, activation, bool mask and float dropout mask (None
    without dropout). The loss runs in float64 against targets copied once.
    """

    def __init__(self, m: FfnnModel, S, T):
        dt = m.input_dtype
        arrays = (*m.weights, *m.biases)
        self.params = np.concatenate([a.reshape(-1) for a in arrays])
        self.grads, self.m1, self.m2, self.s1, self.s2 = (
            np.zeros_like(self.params) for _ in range(5))
        n_layers, at = len(m.weights), np.cumsum([0, *(a.size for a in arrays)])
        params, grads = ([flat[i:j].reshape(a.shape) for i, j, a in zip(at, at[1:], arrays)]
                         for flat in (self.params, self.grads))
        m.weights, m.biases = params[:n_layers], params[n_layers:]
        self.grads_w, self.grads_b = grads[:n_layers], grads[n_layers:]
        dropping = m.config.dropout_hidden > 0.0
        self.hidden = [
            (np.empty(shape, dt), np.empty(shape, dt), np.empty(shape, bool),
             np.empty(shape, dt) if dropping else None)
            for shape in ((S.shape[0], w.shape[0]) for w in m.weights[:-1])
        ]
        self.out, self.delta = np.empty(T.shape, dt), np.empty(T.shape, dt)
        self.loss = np.empty(T.shape, np.float64)
        self.S, self.T, self.gold64 = S, T, T.astype(np.float64)


def _train(m: FfnnModel, ws: _Workspace, rng) -> list[float]:
    """Run m.config.iterations full-batch steps on m's parameters in place,
    in their dtype, through the buffers of ws; returns the loss trace.

    A diverging run overflows to inf and nan; the finite-loss check ends
    it in a DivergenceError, so those float warnings are muted.
    """
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, m.config.iterations + 1):
            out, cache = ffnn_forward(m, ws.S, "train", rng, ws)
            loss = ffnn_loss(out, ws.gold64, ws.loss)
            if not math.isfinite(loss):
                raise DivergenceError("training loss is not finite", iteration=it)
            trace.append(loss)
            ffnn_backward(m, cache, ws.T, ws)
            _adam_step(m.config, it, ws)
    return trace


def _adam_step(cfg: FfnnConfig, it: int, ws: _Workspace) -> None:
    """One adaptive-moment update of the flat parameter vector in place at
    iteration it, in the expression order of m1 = b1*m1 + c1*g,
    m2 = b2*m2 + c2*(g*g) and p -= (lr*(m1/bc1)) / (sqrt(m2/bc2) + eps).

    Every scalar is cast to the parameters' dtype first: a float64 scalar
    would promote float32 arithmetic to float64 under NEP 50.
    """
    p, g, m1, m2, s1, s2 = ws.params, ws.grads, ws.m1, ws.m2, ws.s1, ws.s2
    dt = p.dtype.type
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = dt(1.0 - b1), dt(1.0 - b2)
    bc1, bc2 = dt(1.0 - b1**it), dt(1.0 - b2**it)
    b1, b2 = dt(b1), dt(b2)
    lr, eps = dt(cfg.learning_rate), dt(cfg.epsilon)
    np.add(np.multiply(b1, m1, out=m1), np.multiply(c1, g, out=s1), out=m1)
    np.add(np.multiply(b2, m2, out=m2), np.multiply(c2, np.multiply(g, g, out=s2), out=s2), out=m2)
    np.multiply(lr, np.divide(m1, bc1, out=s1), out=s1)
    np.add(np.sqrt(np.divide(m2, bc2, out=s2), out=s2), eps, out=s2)
    np.subtract(p, np.divide(s1, s2, out=s1), out=p)


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


def ffnn_forward(m: FfnnModel, X, mode: str = "eval", rng=None, ws=None):
    """Run the network; returns (output, cache for the backward pass).

    In train mode each hidden layer's output gets an inverted dropout
    mask drawn from ``rng`` (scaled by 1/keep); eval mode applies neither
    masks nor scaling. The output layer is always affine and unbounded.
    Everything is computed in the weights' dtype, into the buffers of the
    training workspace ``ws`` when one is given, else into new arrays.
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
    for l, (W, b) in enumerate(zip(m.weights[:-1], m.biases[:-1])):
        z, h, keep_mask, mask = ws.hidden[l] if ws is not None else (None,) * 4
        z = np.matmul(a, W.T, out=z)
        z += b
        h = np.maximum(z, 0.0, out=h)
        if dropping:
            # dtype= keeps a bool * scalar product in dt under numpy 1.x too
            keep_mask = _keep_mask(rng, z.shape, keep, keep_mask)
            mask = np.multiply(keep_mask, inv, dtype=dt, out=mask)
            h *= mask
        cache.layers.append((a, z, mask if dropping else None))
        a = h
    out = np.matmul(a, m.weights[-1].T, out=None if ws is None else ws.out)
    out += m.biases[-1]
    cache.last_input = a
    cache.output = out
    return out, cache


def _keep_mask(rng, shape, keep, out=None) -> np.ndarray:
    """The cells of ``rng.random(size=shape, dtype=keep.dtype) < keep``,
    found from the generator's raw 64-bit words without making the floats,
    written into the bool array ``out`` when one is given.

    numpy makes a float64 uniform as (w >> 11) * 2**-53 from one word w,
    and a float32 one as (u >> 8) * 2**-24 from one 32-bit half u: the low
    half of a word first, the high half kept in the state (``has_uint32``,
    ``uinteger``) for the next float32 draw. So a cell is kept when its
    integer lies below ceil(keep * 2**53) << 11, or ceil(keep * 2**24) << 8.
    The buffered half is read first and the last unread half written back,
    so the generator ends as rng.random would leave it. Only bit generators
    that buffer a half-word this way are accepted: PCG64 (default_rng),
    PCG64DXSM, Philox and SFC64.
    """
    bitgen = getattr(rng, "bit_generator", None)
    state = bitgen.state if bitgen is not None else {}
    if "has_uint32" not in state:
        raise ContractError(
            "dropout needs a PCG64, PCG64DXSM, Philox or SFC64 generator, "
            f"got {state.get('bit_generator', type(rng).__name__)}"
        )
    n = math.prod(shape)
    out = np.empty(shape, dtype=bool) if out is None else out
    mask = out.reshape(n)
    # limit is the largest kept integer, one below the bound: at keep == 1
    # the bound is 2**64 (2**32), which the word type cannot hold
    if keep.dtype == np.float64:
        limit = np.uint64((math.ceil(float(keep) * 2**53) << 11) - 1)
        np.less_equal(bitgen.random_raw(n), limit, out=mask)
        return out
    if n == 0:
        return out
    limit = np.uint32((math.ceil(float(keep) * 2**24) << 8) - 1)
    pending = state["has_uint32"]
    words = bitgen.random_raw((n - pending + 1) // 2)
    # halves by value, low then high, whatever the native byte order
    lanes = words.astype("<u8", copy=False).view("<u4")
    if pending:
        mask[0] = state["uinteger"] <= limit
    np.less_equal(lanes[: n - pending], limit, out=mask[pending:])
    state = bitgen.state
    state["has_uint32"] = (n - pending) % 2
    if words.size:
        state["uinteger"] = int(lanes[-1])
    bitgen.state = state
    return out


def ffnn_loss(pred, gold, out=None) -> float:
    """Mean squared error over every output cell, in float64; the squared
    errors go into ``out`` when it is given."""
    pred = np.asarray(pred)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    if pred.size == 0:
        raise ContractError("loss of empty matrices is undefined")
    d = np.subtract(pred, gold, out=out, dtype=np.float64)
    return float(np.mean(np.multiply(d, d, out=d)))


def ffnn_backward(m: FfnnModel, cache: _ForwardCache, gold, ws=None):
    """Exact gradients of ffnn_loss through the cached forward pass.

    Returns (weight gradients, bias gradients), one entry per layer. With
    the training workspace ``ws`` they are its gradient views, and the
    cache's buffers are overwritten on the way down.
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
    grads_w = [None] * n_layers if ws is None else ws.grads_w
    grads_b = [None] * n_layers if ws is None else ws.grads_b
    delta = np.subtract(cache.output, gold, out=None if ws is None else ws.delta)
    delta *= dt.type(2.0 / cache.output.size)
    grads_w[-1] = np.matmul(delta.T, cache.last_input, out=grads_w[-1])
    grads_b[-1] = np.sum(delta, axis=0, out=grads_b[-1])
    for l in range(n_layers - 2, -1, -1):
        a_prev, z, mask = cache.layers[l]
        # the layer's own buffers are free once z is gated: its activation
        # was the input of the layer above, whose gradient is already made
        z_buf, h_buf, gate, mask_buf = ws.hidden[l] if ws is not None else (None,) * 4
        gate = np.greater(z, 0.0, out=gate)
        W = m.weights[l + 1]  # with one unit, each cell of delta @ W is a single product
        back = (np.multiply if W.shape[0] == 1 else np.matmul)(delta, W, out=z_buf)
        if mask is not None:
            gate = np.multiply(gate, mask, out=mask_buf)
        delta = np.multiply(back, gate, out=h_buf)
        grads_w[l] = np.matmul(delta.T, a_prev, out=grads_w[l])
        grads_b[l] = np.sum(delta, axis=0, out=grads_b[l])
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

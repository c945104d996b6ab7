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
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ContractError, DivergenceError, ValidationError
from .base import MappingModel, _count

__all__ = ["FfnnConfig", "FfnnModel", "init_ffnn", "ffnn_loss", "gradient_check"]

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
        # each width is at most its product with the next, the last one at most itself
        check_layers((*sizes, 1), f"hidden_sizes {list(sizes)}")
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


def check_layers(sizes, what: str, error=ValidationError) -> None:
    """numpy allocates no array of more bytes than intp holds, so no two
    adjacent layer widths may multiply past it; what leads the error."""
    limit = np.iinfo(np.intp).max // TRAIN_DTYPE.itemsize
    if max(a * b for a, b in zip(sizes, sizes[1:])) > limit:
        raise error(f"{what}: a layer of more than {limit} cells")


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
            ws = _Workspace(self, S, T, rng)
        except (MemoryError, ValueError) as e:  # numpy refuses a size past its limit
            raise ConfigurationError(
                f"cannot allocate a network of layer sizes {sizes}: {e}") from None
        self.loss_trace = _train(self, ws)
        return self

    def predict(self, X) -> np.ndarray:
        X = self._query(X)
        return ffnn_forward(self, X, _Workspace(self, X)).astype(np.float64, copy=False)


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
    """The buffers of the network passes over one input matrix X, allocated
    once and reused by every pass.

    Built from X alone, it holds what a prediction needs: per hidden layer
    a pre-activation and an activation, and the output. Built with targets
    T, it is a training workspace. The model's weights and biases become
    views into one flat parameter vector, and the gradients into one laid
    out the same way, so the elementwise Adam step runs once over the whole
    vector. Each hidden layer adds a bool mask and, when the config drops
    units and a generator rng is given, a float dropout mask drawn from rng
    on every forward pass. The loss runs in float64 against targets copied
    once.
    """

    def __init__(self, m: FfnnModel, X, T=None, rng=None):
        dt, shapes = m.input_dtype, [(len(X), w.shape[0]) for w in m.weights]
        self.X, self.T, self.rng = X, T, rng
        self.hidden = [(np.empty(s, dt), np.empty(s, dt), None, None) for s in shapes[:-1]]
        self.out = np.empty(shapes[-1], dt)
        if T is None:
            return
        arrays = (*m.weights, *m.biases)
        self.params = np.concatenate([a.reshape(-1) for a in arrays])
        self.grads, self.m1, self.m2, self.s1, self.s2 = (
            np.zeros_like(self.params) for _ in range(5))
        n_layers, at = len(m.weights), np.cumsum([0, *(a.size for a in arrays)])
        params, grads = ([flat[i:j].reshape(a.shape) for i, j, a in zip(at, at[1:], arrays)]
                         for flat in (self.params, self.grads))
        m.weights, m.biases = params[:n_layers], params[n_layers:]
        self.grads_w, self.grads_b = grads[:n_layers], grads[n_layers:]
        dropping = rng is not None and m.config.dropout_hidden > 0.0
        self.hidden = [(z, h, np.empty(z.shape, bool), np.empty(z.shape, dt) if dropping else None)
                       for z, h, _, _ in self.hidden]
        self.delta, self.loss = np.empty(T.shape, dt), np.empty(T.shape, np.float64)
        self.gold64 = T.astype(np.float64)


def _train(m: FfnnModel, ws: _Workspace) -> list[float]:
    """Run m.config.iterations full-batch steps on m's parameters in place,
    in their dtype, through the training workspace ws; returns the loss trace.

    A diverging run overflows to inf and nan; the finite-loss check ends
    it in a DivergenceError, so those float warnings are muted.
    """
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, m.config.iterations + 1):
            loss = ffnn_loss(ffnn_forward(m, ws.X, ws), ws.gold64, ws.loss)
            if not math.isfinite(loss):
                raise DivergenceError("training loss is not finite", iteration=it)
            trace.append(loss)
            ffnn_backward(m, ws.X, ws.T, ws)
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


def ffnn_forward(m: FfnnModel, X, ws: _Workspace) -> np.ndarray:
    """Run the network on the rows of X, in the weights' dtype, through the
    buffers of ws; returns ws.out.

    When ws holds dropout masks, each hidden layer's output is multiplied
    by an inverted dropout mask drawn from ws.rng (scaled by 1/keep);
    otherwise neither masks nor scaling apply. The output layer is always
    affine and unbounded.
    """
    dt, keep = m.input_dtype, 1.0 - m.config.dropout_hidden
    a = X
    for W, b, (z, h, keep_mask, mask) in zip(m.weights, m.biases, ws.hidden):
        np.matmul(a, W.T, out=z)
        z += b
        np.maximum(z, 0.0, out=h)
        if mask is not None:
            _keep_mask(ws.rng, dt.type(keep), keep_mask)
            # dtype= keeps a bool * scalar product in dt under numpy 1.x too
            h *= np.multiply(keep_mask, dt.type(1.0 / keep), dtype=dt, out=mask)
        a = h
    np.matmul(a, m.weights[-1].T, out=ws.out)
    ws.out += m.biases[-1]
    return ws.out


def _keep_mask(rng, keep, out) -> None:
    """Write into the bool array ``out`` the cells of
    ``rng.random(size=out.shape, dtype=keep.dtype) < keep``, found from the
    generator's raw 64-bit words without making the floats.

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
    n = out.size
    mask = out.reshape(n)
    # limit is the largest kept integer, one below the bound: at keep == 1
    # the bound is 2**64 (2**32), which the word type cannot hold
    if keep.dtype == np.float64:
        limit = np.uint64((math.ceil(float(keep) * 2**53) << 11) - 1)
        np.less_equal(bitgen.random_raw(n), limit, out=mask)
        return
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


def ffnn_backward(m: FfnnModel, X, T, ws: _Workspace) -> None:
    """Exact gradients of ffnn_loss at targets T through the last forward
    pass of X in ws, written into ws.grads.

    The pass's buffers are overwritten on the way down: a layer's
    activation buffer takes its delta once the layer above has used it,
    and its pre-activation buffer the back-propagated product.
    """
    delta = np.subtract(ws.out, T, out=ws.delta)
    delta *= delta.dtype.type(2.0 / delta.size)
    inputs = [X, *(h for _, h, _, _ in ws.hidden)]
    np.matmul(delta.T, inputs[-1], out=ws.grads_w[-1])
    np.sum(delta, axis=0, out=ws.grads_b[-1])
    for l in range(len(ws.hidden) - 1, -1, -1):
        z, h, gate, mask = ws.hidden[l]
        np.greater(z, 0.0, out=gate)
        W = m.weights[l + 1]  # with one unit, each cell of delta @ W is a single product
        back = (np.multiply if W.shape[0] == 1 else np.matmul)(delta, W, out=z)
        if mask is not None:
            gate = np.multiply(gate, mask, out=mask)
        delta = np.multiply(back, gate, out=h)
        np.matmul(delta.T, inputs[l], out=ws.grads_w[l])
        np.sum(delta, axis=0, out=ws.grads_b[l])


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


def gradient_check(hidden_sizes, sample, *, seed: int = 0, step: float = 1e-5) -> float:
    """Compare analytic gradients with central finite differences.

    ``hidden_sizes`` is a tuple of hidden widths, possibly empty, and
    ``sample`` is (X, gold). Returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    hidden_sizes = tuple(int(h) for h in hidden_sizes)
    X, gold = MappingModel._training(*sample)
    model = _check_net(hidden_sizes, X.shape[1], gold.shape[1], seed)
    ws = _Workspace(model, X, gold)
    ffnn_forward(model, X, ws)
    ffnn_backward(model, X, gold, ws)
    worst = 0.0
    for i, analytic in enumerate(ws.grads):
        orig = ws.params[i]
        ws.params[i] = orig + step
        up = ffnn_loss(ffnn_forward(model, X, ws), gold, ws.loss)
        ws.params[i] = orig - step
        down = ffnn_loss(ffnn_forward(model, X, ws), gold, ws.loss)
        ws.params[i] = orig
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst

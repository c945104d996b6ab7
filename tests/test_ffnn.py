import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fit_float64, make_affine_arrays, make_aligned
from affectmap.errors import ContractError, DivergenceError, ValidationError
from affectmap.lexicon import BE5, VAD
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    ffnn_loss,
    gradient_check,
    init_ffnn,
)
from affectmap.models import ffnn as ffnn_module
from affectmap.models.ffnn import _Workspace, ffnn_backward, ffnn_forward


def hand_net(weights, biases):
    return FfnnModel(
        None,
        weights=[np.asarray(w, dtype=np.float64) for w in weights],
        biases=[np.asarray(b, dtype=np.float64) for b in biases],
    )


def eval_pass(m, X):
    """A forward pass of X, cast to m's dtype, through a prediction workspace."""
    X = np.asarray(X, dtype=m.input_dtype)
    return ffnn_forward(m, X, _Workspace(m, X))


def training_ws(m, X, rng=None):
    """A training workspace for the rows of X, with zero targets."""
    return _Workspace(m, X, np.zeros((len(X), m.weights[-1].shape[0]), m.input_dtype), rng)


def rows(n, seed, dtype=np.float32):
    return np.random.default_rng(seed).uniform(1, 9, size=(n, 3)).astype(dtype)


class TestConfig:
    def test_defaults(self):
        cfg = FfnnConfig()
        assert cfg.hidden_sizes == (128, 128)
        assert cfg.dropout_hidden == 0.2
        assert cfg.iterations == 10_000
        assert cfg.learning_rate == 1e-3
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)

    def test_rejects_empty_hidden(self):
        with pytest.raises(ValidationError):
            FfnnConfig(hidden_sizes=())

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValidationError):
            FfnnConfig(dropout_hidden=1.0)
        with pytest.raises(ValidationError):
            FfnnConfig(dropout_hidden=-0.1)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValidationError):
            FfnnConfig(iterations=0)

    def test_rejects_bad_optimizer_params(self):
        with pytest.raises(ValidationError):
            FfnnConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            FfnnConfig(beta1=1.0)
        with pytest.raises(ValidationError):
            FfnnConfig(epsilon=0.0)

    @pytest.mark.parametrize("name", ["learning_rate", "epsilon"])
    def test_refuses_steps_float32_cannot_hold(self, name):
        # non-finite, negative, past float32's range (a huge JSON integer
        # too), or below half its least subnormal, so rounding to 0
        for bad in (math.inf, -math.inf, math.nan, -1e-3, 10**400, 1e39, 1e-46):
            with pytest.raises(ValidationError, match=f"{name}.*float32"):
                FfnnConfig(**{name: bad})
        assert getattr(FfnnConfig(**{name: 1e-45}), name) == 1e-45


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_ffnn(FfnnConfig(seed=7), VAD, BE5)
        b = init_ffnn(FfnnConfig(seed=7), VAD, BE5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seeds_differ(self):
        a = init_ffnn(FfnnConfig(seed=7), VAD, BE5)
        b = init_ffnn(FfnnConfig(seed=8), VAD, BE5)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_shapes_chain(self):
        fmt5 = VAD
        cfg = FfnnConfig(hidden_sizes=(128, 128))
        m = init_ffnn(cfg, BE5, fmt5)
        assert [w.shape for w in m.weights] == [(128, 5), (128, 128), (3, 128)]
        assert [b.shape for b in m.biases] == [(128,), (128,), (3,)]

    def test_biases_zero_weights_bounded(self):
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        for b in m.biases:
            assert np.all(b == 0.0)
        for w in m.weights:
            fan_out, fan_in = w.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_parameter_count_sharing(self):
        # hidden trunk identical across target widths; only the output
        # layer scales with |t|
        cfg = FfnnConfig(hidden_sizes=(128, 128))
        m3 = init_ffnn(cfg, BE5, VAD)  # 5 -> 3
        sizes = [5, 128, 128, 3]
        expected = sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))
        assert sum(a.size for a in (*m3.weights, *m3.biases)) == expected


class TestForward:
    def test_zero_network_outputs_bias(self):
        net = hand_net(
            [np.zeros((4, 3)), np.zeros((2, 4))],
            [np.zeros(4), np.array([5.0, -1.0])],
        )
        X = np.random.default_rng(0).normal(size=(6, 3))
        out = eval_pass(net, X)
        assert np.array_equal(out, np.tile([5.0, -1.0], (6, 1)))

    def test_hand_evaluation(self):
        # relu(2*1 + (-1)) * 3 + 0.5 = 3.5
        net = hand_net([[[1.0]], [[3.0]]], [[-1.0], [0.5]])
        out = eval_pass(net, [[2.0]])
        assert out[0, 0] == 3.5

    def test_relu_gates_negative_preactivation(self):
        net = hand_net([[[1.0]], [[3.0]]], [[-1.0], [0.5]])
        out = eval_pass(net, [[0.5]])
        assert out[0, 0] == 0.5

    def test_eval_independent_of_seed(self):
        # a pass drops no unit without a generator, whatever the config's
        # dropout: through a prediction workspace, a training one and predict
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        X = rows(4, 1)
        a = eval_pass(m, X)
        b = ffnn_forward(m, X, training_ws(m, X))
        c = m.predict(X)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_train_mode_without_dropout_equals_eval(self):
        m = init_ffnn(FfnnConfig(seed=0, dropout_hidden=0.0), VAD, BE5)
        X = rows(5, 2)
        tr = ffnn_forward(m, X, training_ws(m, X, np.random.default_rng(0)))
        ev = eval_pass(m, X)
        assert np.array_equal(tr, ev)

    def test_dropout_scaling_preserves_expectation(self):
        # one hidden layer: the affine output head makes the train-mode
        # expectation exactly the eval output (deeper nets only match
        # per layer, not end to end, because relu is nonlinear)
        m = init_ffnn(FfnnConfig(hidden_sizes=(16,), seed=3), VAD, BE5)
        X = rows(100, 3)
        ev = eval_pass(m, X)
        ws = training_ws(m, X, np.random.default_rng(4))
        acc = np.zeros_like(ev)
        reps = 2000
        for _ in range(reps):
            acc += ffnn_forward(m, X, ws)
        assert np.abs(acc / reps - ev).mean() < 0.05 * np.abs(ev - ev.mean(axis=0)).mean()

    def test_shape_mismatch(self):
        # outside input enters through predict, which checks it
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        with pytest.raises(ContractError):
            m.predict(np.ones((1, 4)))


class TestLoss:
    def test_zero_at_gold(self):
        p = np.random.default_rng(0).normal(size=(4, 3))
        assert ffnn_loss(p, p) == 0.0

    def test_constant_offset(self):
        gold = np.zeros((3, 4))
        assert ffnn_loss(gold + 2.0, gold) == 4.0

    def test_hand_value(self):
        assert ffnn_loss([[0.0, 0.0]], [[1.0, 3.0]]) == 5.0

    def test_mean_over_all_cells(self):
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        gold = np.zeros((2, 2))
        assert ffnn_loss(pred, gold) == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ffnn_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestBackward:
    def test_zero_gradients_at_gold(self):
        m = init_ffnn(FfnnConfig(seed=1, dropout_hidden=0.0), VAD, BE5)
        X = rows(6, 5)
        ws = training_ws(m, X)
        out = ffnn_forward(m, X, ws)
        ffnn_backward(m, X, out.copy(), ws)
        for g in (*ws.grads_w, *ws.grads_b):
            assert np.all(g == 0.0)

    def test_gold_shape_checked(self):
        # outside targets enter through gradient_check (and fit_arrays), which check them
        with pytest.raises(ContractError):
            gradient_check((4,), (np.ones((2, 3)), np.ones((3, 5))))

    def test_masked_paths_carry_no_gradient(self):
        # a unit whose dropout mask is zero is dead for the step, so the
        # weights feeding it get exactly zero gradient
        cfg = FfnnConfig(hidden_sizes=(32,), dropout_hidden=0.5, seed=0)
        m = init_ffnn(cfg, VAD, BE5)
        X = rows(1, 6)
        ws = training_ws(m, X, np.random.default_rng(7))
        out = ffnn_forward(m, X, ws)
        [(z, _, _, mask)] = ws.hidden
        dead = (mask[0] == 0.0) | (z[0] <= 0.0)
        assert dead.any() and (~dead).any()
        ffnn_backward(m, X, out + 1.0, ws)
        assert np.all(ws.grads_w[0][dead] == 0.0)
        assert np.all(ws.grads_w[0][~dead] != 0.0)


class TestGradientCheck:
    def test_linear_network_nearly_exact(self):
        # quadratic loss: central differences are exact up to rounding,
        # and a larger step suppresses the rounding term
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        gold = rng.normal(size=(20, 2))
        assert gradient_check((), (X, gold), seed=0, step=1e-3) < 1e-10

    def test_small_network(self):
        rng = np.random.default_rng(100)
        X = rng.normal(size=(10, 3))
        gold = rng.normal(size=(10, 2))
        assert gradient_check((8, 8), (X, gold), seed=0) < 1e-4

    def test_detects_corrupted_gradient(self, monkeypatch):
        real = ffnn_module.ffnn_backward

        def corrupted(m, X, T, ws):
            real(m, X, T, ws)
            ws.grads_w[0][0, 0] *= 2.0

        monkeypatch.setattr(ffnn_module, "ffnn_backward", corrupted)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        gold = rng.normal(size=(10, 2))
        assert gradient_check((8,), (X, gold), seed=0) > 1e-2


class TestTraining:
    def test_deterministic_bitwise(self):
        S, T = make_affine_arrays(n=40, seed=3)
        cfg = FfnnConfig(hidden_sizes=(16,), iterations=50, seed=9)
        a = FfnnModel(cfg).fit_arrays(S, T)
        b = FfnnModel(cfg).fit_arrays(S, T)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)
        assert a.loss_trace == b.loss_trace

    def test_loss_trace_finite_and_descending(self):
        S, T = make_affine_arrays(n=60, seed=4)
        for seed in range(20):
            cfg = FfnnConfig(hidden_sizes=(16,), iterations=60, seed=seed)
            m = FfnnModel(cfg).fit_arrays(S, T)
            trace = m.loss_trace
            assert len(trace) == 60
            assert all(math.isfinite(v) for v in trace)
            assert trace[-1] < trace[0]

    def test_exact_iteration_count(self):
        S, T = make_affine_arrays(n=30, seed=5)
        m = FfnnModel(FfnnConfig(hidden_sizes=(8,), iterations=17, seed=0)).fit_arrays(S, T)
        assert len(m.loss_trace) == 17

    def test_affine_recovery(self):
        S, T = make_affine_arrays(n=300, seed=0, mscale=0.8, offset=0.0)
        cfg = FfnnConfig(iterations=2000, dropout_hidden=0.0, seed=0)
        m = FfnnModel(cfg).fit_arrays(S[:200], T[:200])
        pred = m.predict(S[200:])
        from affectmap.stats import pearson

        for j in range(T.shape[1]):
            assert pearson(pred[:, j], T[200:, j]) > 0.999

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_with_iteration(self):
        # the overflow ends in DivergenceError alone, with no float warning
        S, T = make_affine_arrays(n=30, seed=6)
        cfg = FfnnConfig(hidden_sizes=(8,), iterations=500, learning_rate=1e30, seed=0)
        with pytest.raises(DivergenceError) as exc:
            FfnnModel(cfg).fit_arrays(S, T)
        assert exc.value.iteration >= 1

    def test_train_from_aligned(self):
        al = make_aligned(n=40, noise=0.0)
        m = FfnnModel(FfnnConfig(hidden_sizes=(8,), iterations=30, seed=0)).fit(al)
        assert m.fitted
        assert m.source_format is al.source_format
        assert m.predict(al.source_matrix).shape == (40, 5)

    def test_empty_training_set(self):
        with pytest.raises(ContractError):
            FfnnModel(FfnnConfig()).fit_arrays(np.empty((0, 3)), np.empty((0, 5)))

    def test_predict_before_fit(self):
        with pytest.raises(ContractError):
            FfnnModel(FfnnConfig()).predict(np.ones((1, 3)))


def _reference_train(cfg, S, T, dtype):
    """Train with the original elementwise expressions, kept as a bit-level
    reference: np.where relu/dropout chains forward and backward, and the
    Adam step in its original expression order. Everything but the loss is
    computed in dtype, each scalar rounded once from float64; the loss is
    the float64 mean of the squared errors. Uses the same BLAS as the code
    under test, so equality does not depend on the machine."""
    dt = np.dtype(dtype).type
    S = np.ascontiguousarray(S, dtype=dt)
    T = np.ascontiguousarray(T, dtype=dt)
    rng = np.random.default_rng(cfg.seed)
    sizes = [S.shape[1], *cfg.hidden_sizes, T.shape[1]]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dt))
        biases.append(np.zeros(fan_out, dtype=dt))
    params = [a.reshape(-1) for a in (*weights, *biases)]
    moment1 = [np.zeros(p.size, dtype=dt) for p in params]
    moment2 = [np.zeros(p.size, dtype=dt) for p in params]
    zero = dt(0.0)
    keep = dt(1.0 - cfg.dropout_hidden)
    inv = dt(1.0 / (1.0 - cfg.dropout_hidden))
    lr, b1, b2, eps = (dt(v) for v in (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon))
    c1, c2 = dt(1.0 - cfg.beta1), dt(1.0 - cfg.beta2)
    trace = []
    for it in range(1, cfg.iterations + 1):
        layers = []
        a = S
        for W, b in zip(weights[:-1], biases[:-1]):
            z = a @ W.T + b
            h = np.where(z > zero, z, zero)
            if cfg.dropout_hidden > 0.0:
                u = rng.random(size=z.shape, dtype=dt)
                h = np.where(u < keep, h * inv, zero)
            else:
                u = None
            layers.append((a, z, u))
            a = h
        out = a @ weights[-1].T + biases[-1]
        d = out - T
        d64 = out.astype(np.float64) - T.astype(np.float64)
        trace.append(float(np.mean(d64 * d64)))
        delta = d * dt(2.0 / out.size)
        grads_w = [None] * len(weights)
        grads_b = [None] * len(weights)
        grads_w[-1] = delta.T @ a
        grads_b[-1] = delta.sum(axis=0)
        back = delta @ weights[-1]
        for l in range(len(weights) - 2, -1, -1):
            a_prev, z, u = layers[l]
            if u is None:
                dz = np.where(z > zero, back, zero)
            else:
                dz = np.where(z > zero, np.where(u < keep, back * inv, zero), zero)
            grads_w[l] = dz.T @ a_prev
            grads_b[l] = dz.sum(axis=0)
            if l > 0:
                back = dz @ weights[l]
        grads = [g.reshape(-1) for g in (*grads_w, *grads_b)]
        bc1 = dt(1.0 - cfg.beta1**it)
        bc2 = dt(1.0 - cfg.beta2**it)
        for p, g, m, v in zip(params, grads, moment1, moment2):
            m[:] = b1 * m + c1 * g
            v[:] = b2 * v + c2 * (g * g)
            p -= (lr * (m / bc1)) / (np.sqrt(v / bc2) + eps)
    return weights, biases, trace


class TestReferenceBits:
    """Training matches the reference expressions bit for bit: fit_arrays
    in float32, and the same training loop on float64 weights."""

    @pytest.mark.parametrize("hidden", [(128, 128), (8,)], ids=["128x128", "8"])
    @pytest.mark.parametrize("dropout", [0.2, 0.0])
    def test_matches_reference_trainer(self, hidden, dropout):
        S, T = make_affine_arrays(n=60, seed=11)
        cfg = FfnnConfig(hidden_sizes=hidden, dropout_hidden=dropout, iterations=25, seed=4)
        self._assert_same_bits(cfg, S, T, np.float64)

    @pytest.mark.parametrize("hidden", [(128, 128), (8,)], ids=["128x128", "8"])
    @pytest.mark.parametrize("dropout", [0.2, 0.0])
    def test_matches_reference_trainer_float32(self, hidden, dropout):
        S, T = make_affine_arrays(n=60, seed=11)
        cfg = FfnnConfig(hidden_sizes=hidden, dropout_hidden=dropout, iterations=25, seed=4)
        self._assert_same_bits(cfg, S, T, np.float32)

    @pytest.mark.parametrize("hidden", [(7,), (7, 5)], ids=["7", "7x5"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_cell_count(self, hidden, dtype):
        # 61x7 and 61x5 dropout cells per layer: float32 draws leave a
        # half-word pending across layers and iterations
        S, T = make_affine_arrays(n=61, seed=13)
        cfg = FfnnConfig(hidden_sizes=hidden, iterations=25, seed=6)
        self._assert_same_bits(cfg, S, T, dtype)

    @pytest.mark.parametrize("hidden", [(7,), (7, 5)], ids=["7", "7x5"])
    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_output(self, hidden, n, dtype):
        # the boosted base-net shape: back-propagation through a one-unit
        # output layer is an outer product, not a GEMM
        S, T = make_affine_arrays(n=n, seed=14)
        cfg = FfnnConfig(hidden_sizes=hidden, iterations=25, seed=7)
        self._assert_same_bits(cfg, S, T[:, :1], dtype)

    def test_zero_preactivation_takes_the_strict_gate(self):
        # all-zero input rows meet zero initial biases: the first step
        # sees pre-activations that are exactly 0.0 in every hidden layer
        S, T = make_affine_arrays(n=40, seed=12)
        S[::4] = 0.0
        cfg = FfnnConfig(hidden_sizes=(16, 16), iterations=25, seed=5)
        model = init_ffnn(cfg, VAD, BE5)
        S32 = S.astype(np.float32)
        ws = _Workspace(model, S32, T.astype(np.float32), np.random.default_rng(cfg.seed))
        ffnn_forward(model, S32, ws)
        assert all(np.any(z == 0.0) for z, _, _, _ in ws.hidden)
        for dtype in (np.float64, np.float32):
            self._assert_same_bits(cfg, S, T, dtype)

    @staticmethod
    def _assert_same_bits(cfg, S, T, dtype):
        if dtype is np.float32:
            got = FfnnModel(cfg).fit_arrays(S, T)
        else:
            got = fit_float64(cfg, S, T)
        weights, biases, trace = _reference_train(cfg, S, T, dtype)
        for a, b in zip((*got.weights, *got.biases), (*weights, *biases)):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)
        assert np.array_equal(got.loss_trace, trace)


def test_float32_fit_stays_float32(monkeypatch):
    """Every weight, bias, gradient, moment, scratch and forward buffer of a
    float32 fit is float32: the flat vectors, the views into them, and the
    workspace's per-layer, output and delta buffers. A float64 array, or a
    float64 scalar that NEP 50 lets promote an expression into a new array,
    would show here as a float64 result; one whose result is written back
    into a float32 array is left to the reference-bits tests. Predictions
    come back as float64. Every pass takes its rows positionally where the
    benchmark tracer counts them: the forward pass's input as args[1], the
    backward pass's targets as args[2]."""
    seen, passes = [], []
    forward, backward = ffnn_module.ffnn_forward, ffnn_module.ffnn_backward
    adam = ffnn_module._adam_step

    def spy_forward(*args):
        m, X, ws = args
        passes.append(("forward", len(args[1])))
        out = forward(*args)
        seen.extend([out, X, *m.weights, *m.biases])
        seen.extend(a for layer in ws.hidden for a in layer if a is not None and a.dtype != bool)
        return out

    def spy_backward(*args):
        passes.append(("backward", len(args[2])))
        backward(*args)

    def spy_adam(cfg, it, ws):
        seen.extend([ws.params, ws.grads, ws.m1, ws.m2, ws.s1, ws.s2, ws.out, ws.delta])
        seen.extend([*ws.grads_w, *ws.grads_b])
        seen.extend(a for layer in ws.hidden for a in layer if a.dtype != bool)
        adam(cfg, it, ws)

    monkeypatch.setattr(ffnn_module, "ffnn_forward", spy_forward)
    monkeypatch.setattr(ffnn_module, "ffnn_backward", spy_backward)
    monkeypatch.setattr(ffnn_module, "_adam_step", spy_adam)
    S, T = make_affine_arrays(n=30, seed=2)
    m = FfnnModel(FfnnConfig(hidden_sizes=(8, 8), iterations=3, seed=1)).fit_arrays(S, T)
    # per iteration: forward output and input + 6 parameters + 2 layers x 3;
    # Adam 8 + 6 gradient views + 2 layers x 3 float buffers
    assert len(seen) == 3 * ((2 + 6 + 2 * 3) + (8 + 6 + 2 * 3))
    assert m.predict(S[:7]).dtype == np.float64
    assert passes == [("forward", 30), ("backward", 30)] * 3 + [("forward", 7)]
    assert {a.dtype for a in seen} == {np.dtype(np.float32)}
    assert {a.dtype for a in (*m.weights, *m.biases)} == {np.dtype(np.float32)}
    assert all(type(v) is float for v in m.loss_trace)


def _parameters(model):
    return [*model.weights, *model.biases]


def test_fits_share_no_parameter_memory():
    """Each fit owns its parameter vector: a refit, another model's fit and
    the base nets of one boosted ensemble leave earlier parameters alone."""
    rng = np.random.default_rng(2)
    S = rng.normal(size=(60, 4))
    T = np.tanh(S @ rng.normal(size=(4, 2)))
    cfg = FfnnConfig(hidden_sizes=(16,), dropout_hidden=0.0, iterations=20, seed=1)
    m = FfnnModel(cfg).fit_arrays(S, T)
    first = [a.copy() for a in _parameters(m)]
    kept = _parameters(m)
    m.fit_arrays(S, T[:, ::-1])
    other = FfnnModel(cfg).fit_arrays(S, T)
    ensemble = BoostedEnsemble(stages=3, base_config=cfg, seed=1).fit_arrays(S, T)
    assert [len(nets) for nets in ensemble.stages] == [3, 3]
    nets = [m, other, *(net for nets in ensemble.stages for net in nets)]
    arrays = [kept, *map(_parameters, nets)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not any(np.shares_memory(x, y) for x in a for y in b)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


def _same_state(a, b):
    """Bit-generator states equal, arrays (Philox keys) compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


ACCEPTED_BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64
]


class TestDropoutMasks:
    """Train-mode dropout keeps exactly the cells where
    rng.random(size=z.shape, dtype) < keep, and leaves the generator where
    those draws leave it, for every accepted bit generator."""

    @pytest.mark.parametrize(
        "bitgen", ACCEPTED_BIT_GENERATORS, ids=lambda g: g.__name__
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, hidden", [(61, (7, 5)), (60, (8,)), (1, (1,))], ids=["61x7x5", "60x8", "1x1"]
    )
    @pytest.mark.parametrize("pending", [0, 3], ids=["even", "half-word-pending"])
    def test_masks_equal_uniform_draws(self, bitgen, dtype, n, hidden, pending):
        model, X = self._net(hidden, dtype, n)
        got, want = np.random.Generator(bitgen(9)), np.random.Generator(bitgen(9))
        for rng in (got, want):
            # an odd float32 draw leaves half of a raw word buffered
            rng.random(pending, dtype=np.float32)
        keep = dtype(1.0 - model.config.dropout_hidden)
        ws = training_ws(model, X, got)
        for _ in range(2):
            ffnn_forward(model, X, ws)
            for z, _, _, mask in ws.hidden:
                assert np.array_equal(mask != 0.0, want.random(size=z.shape, dtype=dtype) < keep)
        assert _same_state(got.bit_generator.state, want.bit_generator.state)
        assert np.array_equal(got.random(5, dtype=np.float32), want.random(5, dtype=np.float32))
        assert np.array_equal(got.random(5), want.random(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keep", [0.8, 0.7, 0.5, 0.1, 0.001, 1.0 - 1e-9, 1.0])
    def test_words_at_the_threshold(self, dtype, keep):
        # random draws almost never land next to the threshold: feed words
        # on both sides of it and at both ends, and hold the mask to numpy's
        # uniform formula, (u >> 8) * 2**-24 or (w >> 11) * 2**-53, < keep
        keep = dtype(keep)
        bits, drop, top = (24, 8, 2**32 - 1) if dtype is np.float32 else (53, 11, 2**64 - 1)
        bound = math.ceil(float(keep) * 2**bits) << drop
        cells = sorted({min(max(bound + d, 0), top) for d in (-257, -256, -1, 0, 1, 255, 256)}
                       | {0, top})
        cells = np.array(cells + cells[:1] * (len(cells) % 2), dtype=np.uint64)
        words = cells if dtype is np.float64 else cells[0::2] | (cells[1::2] << np.uint64(32))

        class Words:  # hands out the given raw words, with no half-word buffered
            state = {"has_uint32": 0, "uinteger": 0}

            def random_raw(self, size):
                return words[:size]

        uniform = (cells >> np.uint64(drop)).astype(dtype) * dtype(2.0**-bits)
        rng = SimpleNamespace(bit_generator=Words())
        got = np.empty(cells.shape, bool)
        ffnn_module._keep_mask(rng, keep, got)
        assert np.array_equal(got, uniform < keep)

    def test_refuses_a_generator_without_a_buffered_half_word(self):
        model, X = self._net((4,), np.float32, 6)
        ws = training_ws(model, X, np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(ContractError, match="MT19937"):
            ffnn_forward(model, X, ws)

    @staticmethod
    def _net(hidden, dtype, n):
        cfg = FfnnConfig(hidden_sizes=hidden, dropout_hidden=0.3, iterations=1)
        weights, biases = ffnn_module._init_layers(
            [3, *hidden, 5], np.random.default_rng(2), dtype
        )
        return FfnnModel(cfg, weights=weights, biases=biases), rows(n, 3, dtype)

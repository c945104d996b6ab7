import math

import numpy as np
import pytest

from conftest import fit_float64, make_affine_arrays, make_aligned
from affectmap.errors import ContractError, DivergenceError, ValidationError
from affectmap.lexicon import BE5, VAD
from affectmap.models import (
    FfnnConfig,
    FfnnModel,
    ffnn_backward,
    ffnn_forward,
    ffnn_loss,
    gradient_check,
    init_ffnn,
)
from affectmap.models import ffnn as ffnn_module


def hand_net(weights, biases):
    return FfnnModel(
        None,
        weights=[np.asarray(w, dtype=np.float64) for w in weights],
        biases=[np.asarray(b, dtype=np.float64) for b in biases],
    )


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
        assert m3.parameter_count() == expected


class TestForward:
    def test_zero_network_outputs_bias(self):
        net = hand_net(
            [np.zeros((4, 3)), np.zeros((2, 4))],
            [np.zeros(4), np.array([5.0, -1.0])],
        )
        X = np.random.default_rng(0).normal(size=(6, 3))
        out, _ = ffnn_forward(net, X, mode="eval")
        assert np.array_equal(out, np.tile([5.0, -1.0], (6, 1)))

    def test_hand_evaluation(self):
        # relu(2*1 + (-1)) * 3 + 0.5 = 3.5
        net = hand_net([[[1.0]], [[3.0]]], [[-1.0], [0.5]])
        out, _ = ffnn_forward(net, [[2.0]], mode="eval")
        assert out[0, 0] == 3.5

    def test_relu_gates_negative_preactivation(self):
        net = hand_net([[[1.0]], [[3.0]]], [[-1.0], [0.5]])
        out, _ = ffnn_forward(net, [[0.5]], mode="eval")
        assert out[0, 0] == 0.5

    def test_eval_independent_of_seed(self):
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        X = np.random.default_rng(1).uniform(1, 9, size=(4, 3))
        a, _ = ffnn_forward(m, X, mode="eval", rng=np.random.default_rng(1))
        b, _ = ffnn_forward(m, X, mode="eval", rng=np.random.default_rng(999))
        c, _ = ffnn_forward(m, X, mode="eval")
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_train_mode_needs_generator(self):
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        X = np.ones((2, 3))
        with pytest.raises(ContractError):
            ffnn_forward(m, X, mode="train")

    def test_train_mode_without_dropout_equals_eval(self):
        m = init_ffnn(FfnnConfig(seed=0, dropout_hidden=0.0), VAD, BE5)
        X = np.random.default_rng(2).uniform(1, 9, size=(5, 3))
        tr, _ = ffnn_forward(m, X, mode="train", rng=np.random.default_rng(0))
        ev, _ = ffnn_forward(m, X, mode="eval")
        assert np.array_equal(tr, ev)

    def test_dropout_scaling_preserves_expectation(self):
        # one hidden layer: the affine output head makes the train-mode
        # expectation exactly the eval output (deeper nets only match
        # per layer, not end to end, because relu is nonlinear)
        m = init_ffnn(FfnnConfig(hidden_sizes=(16,), seed=3), VAD, BE5)
        X = np.random.default_rng(3).uniform(1, 9, size=(100, 3))
        ev, _ = ffnn_forward(m, X, mode="eval")
        rng = np.random.default_rng(4)
        acc = np.zeros_like(ev)
        reps = 2000
        for _ in range(reps):
            out, _ = ffnn_forward(m, X, mode="train", rng=rng)
            acc += out
        assert np.abs(acc / reps - ev).mean() < 0.05 * np.abs(ev - ev.mean(axis=0)).mean()

    def test_bad_mode(self):
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        with pytest.raises(ContractError):
            ffnn_forward(m, np.ones((1, 3)), mode="test")

    def test_shape_mismatch(self):
        m = init_ffnn(FfnnConfig(seed=0), VAD, BE5)
        with pytest.raises(ContractError):
            ffnn_forward(m, np.ones((1, 4)), mode="eval")


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
        X = np.random.default_rng(5).uniform(1, 9, size=(6, 3))
        out, cache = ffnn_forward(m, X, mode="eval")
        grads_w, grads_b = ffnn_backward(m, cache, out.copy())
        for g in (*grads_w, *grads_b):
            assert np.all(g == 0.0)

    def test_foreign_cache_rejected(self):
        a = init_ffnn(FfnnConfig(seed=1), VAD, BE5)
        b = init_ffnn(FfnnConfig(seed=2), VAD, BE5)
        X = np.ones((2, 3))
        _, cache = ffnn_forward(a, X, mode="eval")
        with pytest.raises(ContractError):
            ffnn_backward(b, cache, np.ones((2, 5)))

    def test_gold_shape_checked(self):
        m = init_ffnn(FfnnConfig(seed=1), VAD, BE5)
        _, cache = ffnn_forward(m, np.ones((2, 3)), mode="eval")
        with pytest.raises(ContractError):
            ffnn_backward(m, cache, np.ones((3, 5)))

    def test_masked_paths_carry_no_gradient(self):
        # a unit whose dropout mask is zero is dead for the step, so the
        # weights feeding it get exactly zero gradient
        cfg = FfnnConfig(hidden_sizes=(32,), dropout_hidden=0.5, seed=0)
        m = init_ffnn(cfg, VAD, BE5)
        X = np.random.default_rng(6).uniform(1, 9, size=(1, 3))
        rng = np.random.default_rng(7)
        out, cache = ffnn_forward(m, X, mode="train", rng=rng)
        _, z, mask = cache.layers[0]
        dead = (mask[0] == 0.0) | (z[0] <= 0.0)
        assert dead.any() and (~dead).any()
        grads_w, _ = ffnn_backward(m, cache, out + 1.0)
        assert np.all(grads_w[0][dead] == 0.0)
        assert np.all(grads_w[0][~dead] != 0.0)


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

    def test_accepts_config_and_lexicon(self):
        cfg = FfnnConfig(hidden_sizes=(6,), dropout_hidden=0.0, seed=3)
        al = make_aligned(n=12, noise=0.0)
        assert gradient_check(cfg, al) < 1e-4

    def test_rejects_dropout(self):
        cfg = FfnnConfig(hidden_sizes=(6,), dropout_hidden=0.2)
        with pytest.raises(ContractError):
            gradient_check(cfg, (np.ones((3, 3)), np.ones((3, 5))))

    def test_detects_corrupted_gradient(self, monkeypatch):
        real = ffnn_module.ffnn_backward

        def corrupted(m, cache, gold):
            grads_w, grads_b = real(m, cache, gold)
            grads_w[0][0, 0] *= 2.0
            return grads_w, grads_b

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

    def test_zero_preactivation_takes_the_strict_gate(self):
        # all-zero input rows meet zero initial biases: the first step
        # sees pre-activations that are exactly 0.0 in every hidden layer
        S, T = make_affine_arrays(n=40, seed=12)
        S[::4] = 0.0
        cfg = FfnnConfig(hidden_sizes=(16, 16), iterations=25, seed=5)
        model = init_ffnn(cfg, VAD, BE5)
        rng = np.random.default_rng(cfg.seed)
        _, cache = ffnn_forward(model, S, mode="train", rng=rng)
        assert all(np.any(z == 0.0) for _, z, _ in cache.layers)
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
    """Every weight, bias, gradient, moment and forward-cache array of a
    float32 fit is float32. A float64 array, or a float64 scalar that NEP 50
    lets promote an expression, would show here as a float64 result; one
    whose result is written back into a float32 array is left to the
    reference-bits tests. Predictions come back as float64."""
    seen = []
    forward, adam = ffnn_module.ffnn_forward, ffnn_module._adam_step

    def spy_forward(m, X, mode="eval", rng=None):
        out, cache = forward(m, X, mode, rng)
        seen.extend([out, cache.last_input, cache.output])
        seen.extend(a for layer in cache.layers for a in layer)
        return out, cache

    def spy_adam(cfg, it, params, grads, moments):
        seen.extend([*params, *grads, *(m for pair in moments for m in pair)])
        adam(cfg, it, params, grads, moments)

    monkeypatch.setattr(ffnn_module, "ffnn_forward", spy_forward)
    monkeypatch.setattr(ffnn_module, "_adam_step", spy_adam)
    S, T = make_affine_arrays(n=30, seed=2)
    m = FfnnModel(FfnnConfig(hidden_sizes=(8, 8), iterations=3, seed=1)).fit_arrays(S, T)
    assert len(seen) == 3 * (3 + 3 * 2) + 3 * (4 * 6)
    assert {a.dtype for a in seen} == {np.dtype(np.float32)}
    assert {a.dtype for a in (*m.weights, *m.biases)} == {np.dtype(np.float32)}
    assert m.predict(S).dtype == np.float64
    assert all(type(v) is float for v in m.loss_trace)

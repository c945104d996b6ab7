"""Elementwise semantics of the FFNN training kernels.

The relu/dropout forward and backward and the adaptive-moment step live
inline in ``models/ffnn.py``; these tests check them through the forward
and backward passes over a workspace, and through the training loop,
against straightforward reference math. The adaptive-moment tests run the training loop on
float64 weights, so the float64 reference math holds to its tolerances.
"""

from dataclasses import replace

import numpy as np
from conftest import fit_float64, init_float64, make_affine_arrays

from affectmap.models.ffnn import (
    FfnnConfig,
    FfnnModel,
    _Workspace,
    ffnn_backward,
    ffnn_forward,
)


def one_hidden_net(rng, dropout, n_in=5, width=19, n_out=3):
    cfg = FfnnConfig(hidden_sizes=(width,), dropout_hidden=dropout)
    weights = [rng.normal(size=(width, n_in)), rng.normal(size=(n_out, width))]
    biases = [rng.normal(size=width), rng.normal(size=n_out)]
    return FfnnModel(cfg, weights=weights, biases=biases)


def params_of(model):
    return [a.copy() for a in (*model.weights, *model.biases)]


def grads_at(model, S, T):
    ws = _Workspace(model, S, T)
    ffnn_forward(model, S, ws)
    ffnn_backward(model, S, T, ws)
    return [*ws.grads_w, *ws.grads_b]


class TestNumpySemantics:
    """Behavior checks against straightforward reference math."""

    def test_hidden_forward_no_dropout(self):
        rng = np.random.default_rng(0)
        model = one_hidden_net(rng, 0.0)
        X = rng.normal(size=(37, 5))
        ws = _Workspace(model, X)
        ffnn_forward(model, X, ws)
        [(z, h, _, mask)] = ws.hidden
        zlin = X @ model.weights[0].T
        assert mask is None
        assert np.array_equal(z, zlin + model.biases[0])
        assert np.array_equal(h, np.maximum(z, 0.0))

    def test_hidden_forward_dropout_masks_and_scales(self):
        rng = np.random.default_rng(1)
        keep = 0.8
        model = one_hidden_net(rng, 1.0 - keep)
        X = rng.normal(size=(37, 5))
        ws = _Workspace(model, X, np.zeros((37, 3)), np.random.default_rng(7))
        ffnn_forward(model, X, ws)
        [(z, hd, _, _)] = ws.hidden
        u = np.random.default_rng(7).random(size=z.shape)
        relu = np.maximum(X @ model.weights[0].T + model.biases[0], 0.0)
        expect = np.where(u < keep, relu / keep, 0.0)
        assert np.allclose(hd, expect)
        assert np.all(hd[u >= keep] == 0.0)

    def test_hidden_backward_combines_masks(self):
        rng = np.random.default_rng(2)
        keep = 0.7
        model = one_hidden_net(rng, 1.0 - keep, width=6)
        X = rng.normal(size=(10, 5))
        gold = rng.normal(size=(10, 3))
        ws = _Workspace(model, X, gold, np.random.default_rng(8))
        out = ffnn_forward(model, X, ws)
        z = ws.hidden[0][0].copy()  # the backward pass overwrites it
        ffnn_backward(model, X, gold, ws)
        u = np.random.default_rng(8).random(size=z.shape)
        delta = ((out - gold) * (2.0 / out.size)) @ model.weights[-1]
        expect = np.where(z > 0.0, np.where(u < keep, delta / keep, 0.0), 0.0)
        assert np.allclose(ws.grads_b[0], expect.sum(axis=0))
        assert np.allclose(ws.grads_w[0], expect.T @ X)

    def test_relu_backward(self):
        # one input of 1 and zero hidden weights: the pre-activations are
        # the hidden biases; the output weights set the incoming delta
        model = FfnnModel(
            None,
            weights=[np.zeros((3, 1)), np.array([[1.0, 2.0, -3.0]])],
            biases=[np.array([0.5, -0.5, 2.0]), np.zeros(1)],
        )
        X = np.ones((1, 1))
        ws = _Workspace(model, X, np.zeros((1, 1)))
        out = ffnn_forward(model, X, ws)
        ffnn_backward(model, X, out - 0.5, ws)
        assert ws.grads_b[0].tolist() == [1.0, 0.0, -3.0]

    def test_relu_gate_is_strict_at_zero(self):
        model = FfnnModel(
            None,
            weights=[np.zeros((1, 1)), np.ones((1, 1))],
            biases=[np.zeros(1), np.zeros(1)],
        )
        X = np.ones((1, 1))
        ws = _Workspace(model, X, np.zeros((1, 1)))
        out = ffnn_forward(model, X, ws)
        assert ws.hidden[0][0][0, 0] == 0.0
        ffnn_backward(model, X, out - 0.5, ws)
        assert ws.grads_b[0][0] == 0.0

    def test_adam_first_step_moves_by_lr(self):
        # with bias correction the very first step is lr * sign(g) for eps ~ 0
        S, T = make_affine_arrays(n=30, seed=3)
        cfg = FfnnConfig(
            hidden_sizes=(6,), dropout_hidden=0.0, iterations=1, epsilon=1e-12, seed=3
        )
        start, _ = init_float64(cfg, 3, 5)
        grads = grads_at(start, S, T)
        stepped = fit_float64(cfg, S, T)
        for p0, p1, g in zip(params_of(start), params_of(stepped), grads):
            assert np.allclose(p1 - p0, -cfg.learning_rate * np.sign(g))

    def test_adam_moment_recursions(self):
        # the second step is fixed by the moments carried over from the first
        S, T = make_affine_arrays(n=30, seed=4)
        cfg = FfnnConfig(hidden_sizes=(6,), dropout_hidden=0.0, iterations=1, seed=4)
        lr, b1, b2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon
        g1 = grads_at(init_float64(cfg, 3, 5)[0], S, T)
        one = fit_float64(cfg, S, T)
        g2 = grads_at(one, S, T)
        two = fit_float64(replace(cfg, iterations=2), S, T)
        bc1, bc2 = 1.0 - b1**2, 1.0 - b2**2
        for p1, p2, a, b in zip(params_of(one), params_of(two), g1, g2):
            m = b1 * ((1.0 - b1) * a) + (1.0 - b1) * b
            v = b2 * ((1.0 - b2) * a * a) + (1.0 - b2) * b * b
            expect = -lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            assert np.allclose(p2 - p1, expect, rtol=1e-6, atol=1e-12)

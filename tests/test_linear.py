import numpy as np
import pytest

from conftest import make_affine_arrays, make_aligned
from affectmap.errors import ContractError
from affectmap.models import LinearModel


class TestFit:
    def test_three_point_exact(self):
        # 2x2 normal equations by hand: slope 2, intercept 1
        m = LinearModel().fit_arrays([[0.0], [1.0], [2.0]], [[1.0], [3.0], [5.0]])
        assert m.W[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert m.b[0] == pytest.approx(1.0, abs=1e-12)
        assert m.predict([[4.0]])[0, 0] == pytest.approx(9.0, abs=1e-12)

    def test_affine_recovery(self):
        rng = np.random.default_rng(5)
        S = rng.uniform(1.0, 9.0, size=(10, 1))
        T = 2.0 * S + 1.0
        m = LinearModel().fit_arrays(S, T)
        assert np.abs(m.predict(S) - T).max() < 1e-8
        assert m.W[0, 0] == pytest.approx(2.0, abs=1e-8)
        assert m.b[0] == pytest.approx(1.0, abs=1e-8)

    def test_identity_map(self):
        rng = np.random.default_rng(6)
        S = rng.uniform(1.0, 9.0, size=(40, 3))
        m = LinearModel().fit_arrays(S, S)
        assert np.allclose(m.W, np.eye(3), atol=1e-8)
        assert np.allclose(m.b, 0.0, atol=1e-8)

    def test_multi_output_recovery(self):
        S, T = make_affine_arrays(n=60, seed=1)
        m = LinearModel().fit_arrays(S, T)
        assert np.abs(m.predict(S) - T).max() < 1e-9

    def test_fit_from_aligned_lexicon(self):
        al = make_aligned(n=50, noise=0.0)
        m = LinearModel().fit(al)
        assert m.source_format is al.source_format
        assert m.target_format is al.target_format
        assert np.abs(m.predict(al.source_matrix) - al.target_matrix).max() < 1e-9

    def test_empty_training_set(self):
        with pytest.raises(ContractError):
            LinearModel().fit_arrays(np.empty((0, 3)), np.empty((0, 5)))

    def test_row_count_mismatch(self):
        with pytest.raises(ContractError):
            LinearModel().fit_arrays(np.ones((4, 2)), np.ones((5, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lstsq_when_well_conditioned(self, seed):
        # centred inputs and unit-scale coefficients keep cond(A) small, so the
        # normal equations lose nothing measurable against a QR-based solve
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(200, 3))
        coef = rng.choice([-1.0, 1.0], size=(4, 5)) * rng.uniform(0.5, 2.0, size=(4, 5))
        A = np.hstack([S, np.ones((200, 1))])
        T = A @ coef + rng.normal(0.0, 0.1, size=(200, 5))
        m = LinearModel().fit_arrays(S, T)
        expected = np.linalg.lstsq(A, T, rcond=None)[0]
        np.testing.assert_allclose(np.vstack([m.W.T, m.b]), expected, rtol=1e-12, atol=0)

    def test_rank_deficient_falls_back(self):
        # duplicated column: normal equations singular, pseudo-inverse path
        rng = np.random.default_rng(7)
        base = rng.uniform(1.0, 9.0, size=(30, 1))
        S = np.hstack([base, base])
        T = 3.0 * base + 1.0
        m = LinearModel().fit_arrays(S, T)
        assert np.abs(m.predict(S) - T).max() < 1e-6


class TestPredict:
    def test_zero_weights_return_bias(self):
        m = LinearModel()
        m.W = np.zeros((2, 3))
        m.b = np.array([5.0, 7.0])
        out = m.predict(np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(out, np.tile([5.0, 7.0], (6, 1)))

    def test_empty_query(self):
        m = LinearModel().fit_arrays([[0.0], [1.0]], [[1.0], [3.0]])
        out = m.predict(np.empty((0, 1)))
        assert out.shape == (0, 1)

    def test_before_fit(self):
        with pytest.raises(ContractError):
            LinearModel().predict([[1.0]])

    def test_column_mismatch(self):
        m = LinearModel().fit_arrays([[0.0], [1.0]], [[1.0], [3.0]])
        with pytest.raises(ContractError):
            m.predict([[1.0, 2.0]])

    def test_output_shape(self):
        S, T = make_affine_arrays(n=30, s=3, t=5, seed=2)
        m = LinearModel().fit_arrays(S, T)
        assert m.predict(S[:7]).shape == (7, 5)

    def test_no_clamping(self):
        # extrapolation runs past any rating scale on purpose
        m = LinearModel().fit_arrays([[0.0], [1.0]], [[1.0], [3.0]])
        assert m.predict([[100.0]])[0, 0] == pytest.approx(201.0, abs=1e-9)

    def test_exactly_affine_with_zero_bias(self):
        rng = np.random.default_rng(8)
        S = rng.normal(size=(50, 3))
        T = S @ rng.normal(size=(3, 4))
        m = LinearModel().fit_arrays(S, T)
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 3))
        lhs = m.predict(2.0 * x + 0.25 * y) - m.b
        rhs = 2.0 * (m.predict(x) - m.b) + 0.25 * (m.predict(y) - m.b)
        assert np.allclose(lhs, rhs, atol=1e-9)

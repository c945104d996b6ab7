import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affectmap.errors import ContractError
from affectmap.models import KnnModel
from affectmap.models import knn as knn_module
from conftest import make_aligned


def knn_oracle(model, X):
    """Scalar re-implementation mirroring the documented evaluation order:
    per-feature squared-difference accumulation, stable (distance, index)
    ordering, then neighbor-by-neighbor mean accumulation."""
    S = model.source
    T = model.target
    k = min(model.k, S.shape[0])
    out = np.empty((len(X), T.shape[1]))
    for qi, q in enumerate(np.asarray(X, dtype=np.float64)):
        dists = []
        for idx in range(S.shape[0]):
            acc = 0.0
            for f in range(S.shape[1]):
                diff = q[f] - S[idx, f]
                acc += diff * diff
            dists.append((acc, idx))
        dists.sort()
        for var in range(T.shape[1]):
            acc = 0.0
            for j in range(k):
                acc += T[dists[j][1], var]
            out[qi, var] = acc / k
    return out


class TestConstruction:
    def test_stores_matrices_verbatim(self):
        rng = np.random.default_rng(0)
        S = rng.uniform(1.0, 9.0, size=(20, 3))
        T = rng.uniform(1.0, 5.0, size=(20, 5))
        m = KnnModel(k=4).fit_arrays(S, T)
        assert np.array_equal(m.source, S)
        assert np.array_equal(m.target, T)

    def test_default_k(self):
        assert KnnModel().k == 20

    def test_k_zero_rejected(self):
        with pytest.raises(ContractError):
            KnnModel(k=0)

    def test_k_negative_and_fractional_rejected(self):
        with pytest.raises(ContractError):
            KnnModel(k=-3)
        with pytest.raises(ContractError):
            KnnModel(k=2.5)

    def test_small_n_construction_allowed(self):
        S = np.ones((5, 2))
        m = KnnModel(k=20).fit_arrays(S, np.ones((5, 3)))
        assert m.k == 20

    def test_empty_training_set(self):
        with pytest.raises(ContractError):
            KnnModel(k=1).fit_arrays(np.empty((0, 2)), np.empty((0, 2)))

    def test_fit_from_aligned(self):
        al = make_aligned(n=30)
        m = KnnModel(k=3).fit(al)
        assert m.source_format is al.source_format
        assert np.array_equal(m.source, al.source_matrix)


class TestPredict:
    def test_unique_nearest(self):
        m = KnnModel(k=1).fit_arrays([[0.0], [10.0]], [[1.0], [3.0]])
        assert m.predict([[1.0]])[0, 0] == 1.0

    def test_mean_of_both(self):
        m = KnnModel(k=2).fit_arrays([[0.0], [10.0]], [[1.0], [3.0]])
        assert m.predict([[1.0]])[0, 0] == 2.0

    def test_tie_broken_by_row_index(self):
        # query sits on row 1; rows 0 and 2 tie at distance 2 and the
        # lower stored index wins, so the mean pairs targets 4 and 0
        m = KnnModel(k=2).fit_arrays([[0.0], [2.0], [4.0]], [[0.0], [4.0], [8.0]])
        assert m.predict([[2.0]])[0, 0] == 2.0

    def test_k_clamped_with_warning(self):
        m = KnnModel(k=20).fit_arrays([[0.0], [1.0], [2.0]], [[0.0], [3.0], [6.0]])
        with pytest.warns(UserWarning, match="exceeds the training size"):
            out = m.predict([[1.0]])
        assert out[0, 0] == 3.0

    def test_before_fit(self):
        with pytest.raises(ContractError):
            KnnModel(k=1).predict([[1.0]])

    def test_column_mismatch(self):
        m = KnnModel(k=1).fit_arrays([[0.0, 1.0]], [[1.0]])
        with pytest.raises(ContractError):
            m.predict([[1.0]])

    def test_outputs_bounded_by_stored_targets(self):
        rng = np.random.default_rng(1)
        m = KnnModel(k=5).fit_arrays(
            rng.uniform(1, 9, size=(50, 3)), rng.uniform(1, 5, size=(50, 4))
        )
        out = m.predict(rng.uniform(-20, 30, size=(40, 3)))
        for var in range(4):
            assert out[:, var].min() >= m.target[:, var].min()
            assert out[:, var].max() <= m.target[:, var].max()

    def test_matches_scalar_oracle_bitwise(self):
        rng = np.random.default_rng(2)
        for k in (1, 3, 20):
            m = KnnModel(k=k).fit_arrays(
                rng.uniform(1, 9, size=(50, 3)), rng.uniform(1, 5, size=(50, 5))
            )
            X = rng.uniform(1, 9, size=(25, 3))
            assert np.array_equal(m.predict(X), knn_oracle(m, X))

    def test_oracle_with_duplicate_training_rows(self):
        # duplicated rows force genuine distance ties at every query
        rng = np.random.default_rng(3)
        S = np.repeat(rng.uniform(1, 9, size=(10, 2)), 3, axis=0)
        T = rng.uniform(1, 5, size=(30, 2))
        m = KnnModel(k=4).fit_arrays(S, T)
        X = S[::2] + 1e-12
        assert np.array_equal(m.predict(X), knn_oracle(m, X))

    def test_chunked_prediction_identical(self, monkeypatch):
        rng = np.random.default_rng(4)
        m = KnnModel(k=3).fit_arrays(
            rng.uniform(1, 9, size=(40, 3)), rng.uniform(1, 5, size=(40, 2))
        )
        X = rng.uniform(1, 9, size=(17, 3))
        whole = m.predict(X)
        monkeypatch.setattr(knn_module, "_CHUNK_CELLS", 80)
        assert np.array_equal(m.predict(X), whole)

    def test_single_training_row(self):
        m = KnnModel(k=1).fit_arrays([[0.0]], [[2.0]])
        assert m.predict([[5.0]])[0, 0] == 2.0


def argsort_reference(model, X):
    """Full stable argsort over the same per-feature distances; unlike the
    scalar oracle it orders NaN rows the way numpy does (NaN last)."""
    S = model.source
    T = model.target
    k = min(model.k, S.shape[0])
    X = np.asarray(X, dtype=np.float64)
    d2 = np.zeros((len(X), S.shape[0]))
    for f in range(S.shape[1]):
        diff = X[:, f : f + 1] - S[:, f]
        d2 += diff * diff
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    acc = np.zeros((len(X), T.shape[1]))
    for j in range(k):
        acc += T[order[:, j]]
    return acc / k


def tied_and_untied(seed):
    """Training set with every row duplicated, plus queries of which half
    sit on a training row (distance ties at every k) and half off the grid."""
    rng = np.random.default_rng(seed)
    S = np.repeat(rng.uniform(1, 9, size=(20, 3)), 2, axis=0)
    T = rng.uniform(1, 5, size=(40, 5))
    X = np.empty((24, 3))
    X[0::2] = S[rng.choice(40, size=12, replace=False)]
    X[1::2] = rng.uniform(1, 9, size=(12, 3))
    return S, T, X


class TestSelection:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_tied_and_untied_rows_in_one_block(self, k):
        S, T, X = tied_and_untied(seed=10 + k)
        m = KnnModel(k=k).fit_arrays(S, T)
        assert np.array_equal(m.predict(X), knn_oracle(m, X))

    def test_k_equals_training_size(self):
        S, T, X = tied_and_untied(seed=11)
        m = KnnModel(k=len(S)).fit_arrays(S, T)
        assert np.array_equal(m.predict(X), knn_oracle(m, X))

    def test_queries_on_training_rows(self):
        rng = np.random.default_rng(12)
        S = rng.uniform(1, 9, size=(30, 2))
        T = rng.uniform(1, 5, size=(30, 3))
        for k in (1, 4):
            m = KnnModel(k=k).fit_arrays(S, T)
            assert np.array_equal(m.predict(S), knn_oracle(m, S))

    def test_nan_and_inf_query_rows(self):
        rng = np.random.default_rng(13)
        S = rng.uniform(1, 9, size=(30, 3))
        T = rng.uniform(1, 5, size=(30, 2))
        X = rng.uniform(1, 9, size=(8, 3))
        X[1, 0] = np.nan
        X[3] = np.inf
        X[4, 2] = -np.inf
        X[6] = np.nan
        for k in (1, 5, 30):
            m = KnnModel(k=k).fit_arrays(S, T)
            got = m.predict(X)
            assert np.array_equal(got, argsort_reference(m, X), equal_nan=True)
            if k == 1:
                # a non-finite row ties every training row, so row 0 wins
                assert np.array_equal(got[[1, 3, 4, 6]], T[[0, 0, 0, 0]])

    def test_tied_rows_across_block_boundaries(self, monkeypatch):
        S, T, X = tied_and_untied(seed=14)
        m = KnnModel(k=5).fit_arrays(S, T)
        whole = m.predict(X)
        # 3 query rows per block: tied and untied rows share blocks and
        # straddle every boundary
        monkeypatch.setattr(knn_module, "_CHUNK_CELLS", 3 * len(S))
        assert np.array_equal(m.predict(X), whole)
        assert np.array_equal(whole, knn_oracle(m, X))


@st.composite
def pruning_cases(draw):
    """Training rows and queries on a coarse grid (ties and duplicates
    abound), at a scale where squares are exact, underflow or overflow, or
    offset far from 0 so that differences round, with NaN/inf cells
    sprinkled into the queries."""
    d = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    n_train = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 0.25, 1e-160, 1e-162, 1e154, 1e155]))
    offset = draw(st.sampled_from([0.0, 0.0, 1e6]))
    grid = st.integers(-6, 6).map(float)
    S = offset + draw(arrays(np.float64, (n_train, d), elements=grid)) * scale
    X = offset + draw(arrays(np.float64, (draw(st.integers(0, 40)), d), elements=grid)) * scale
    if X.size:
        for cell in draw(st.lists(st.integers(0, X.size - 1), max_size=3)):
            X.flat[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    T = draw(arrays(np.float64, (n_train, 2), elements=st.floats(1.0, 5.0)))
    k = draw(st.integers(1, n_train + 3))
    leaf = draw(st.integers(1, 6))
    return S, T, X, k, leaf


class TestPruning:
    @settings(max_examples=300, deadline=None)
    @given(pruning_cases())
    def test_bitwise_equal_to_brute_force(self, case):
        S, T, X, k, leaf = case
        m = KnnModel(k=k).fit_arrays(S, T)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # a few queries per leaf, so most inputs are split into many
            mp.setattr(knn_module, "_CHUNK_CELLS", leaf * len(S))
            got = m.predict(X)
            want = argsort_reference(m, X)
        assert got.tobytes() == want.tobytes()

    def test_scores_a_fraction_of_the_cells(self, monkeypatch):
        # 1,000 training rows and 5,000 queries from one 3-d Gaussian
        # cloud, k=20: pruning must leave most query x train cells unscored
        rng = np.random.default_rng(20)
        S = rng.normal(size=(1000, 3))
        X = rng.normal(size=(5000, 3))
        m = KnnModel(k=20).fit_arrays(S, rng.uniform(1, 5, size=(1000, 5)))
        cells = []
        nearest = knn_module._nearest

        def counted(d2, k):
            cells.append(d2.size)
            return nearest(d2, k)

        monkeypatch.setattr(knn_module, "_nearest", counted)
        got = m.predict(X)
        assert sum(cells) <= 0.4 * X.shape[0] * S.shape[0]
        assert np.array_equal(got, argsort_reference(m, X))

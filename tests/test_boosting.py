import io
import tracemalloc

import numpy as np
import pytest

from affectmap.errors import ConfigurationError, ContractError, ParseError
from affectmap.models import (
    DEFAULT_BASE_CONFIG,
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    read_feature_vectors,
)
from affectmap.stats import pearson

FAST_BASE = FfnnConfig(hidden_sizes=(16,), dropout_hidden=0.0, iterations=300)


def constant_net(value, n_features=2):
    """One-hidden-layer net that outputs `value` for every input."""
    return FfnnModel(
        None,
        weights=[np.zeros((1, n_features)), np.zeros((1, 1))],
        biases=[np.zeros(1), np.array([float(value)])],
    )


def hand_ensemble(predictions, weights, n_features=2):
    e = BoostedEnsemble(stages=len(predictions), base_config=FAST_BASE, seed=0)
    e.stages = [[constant_net(v, n_features) for v in predictions]]
    e.stage_weights = [np.asarray(weights, dtype=np.float64)]
    e.n_features = n_features
    e.variables = ("v",)
    return e


class TestWeightedMedian:
    def test_equal_weights(self):
        e = hand_ensemble([1.0, 2.0, 9.0], [1.0, 1.0, 1.0])
        assert e.predict(np.zeros((3, 2))).tolist() == [[2.0]] * 3

    def test_heavy_tail_pulls_median(self):
        e = hand_ensemble([1.0, 2.0, 9.0], [1.0, 1.0, 9.0])
        assert e.predict(np.zeros((1, 2)))[0, 0] == 9.0

    def test_heavy_head_pulls_median(self):
        e = hand_ensemble([1.0, 2.0, 9.0], [9.0, 1.0, 1.0])
        assert e.predict(np.zeros((1, 2)))[0, 0] == 1.0

    def test_unsorted_stage_order(self):
        # stage predictions arrive in training order, not sorted
        e = hand_ensemble([9.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert e.predict(np.zeros((1, 2)))[0, 0] == 2.0

    def test_single_stage_is_identity(self):
        e = hand_ensemble([3.4], [0.7])
        assert e.predict(np.zeros((2, 2)))[0, 0] == 3.4


class TestFit:
    def test_construction_validation(self):
        with pytest.raises(ContractError):
            BoostedEnsemble(stages=0)
        with pytest.raises(ContractError):
            BoostedEnsemble(stages=2.5)

    def test_default_base_config(self):
        assert DEFAULT_BASE_CONFIG.hidden_sizes == (100,)
        assert BoostedEnsemble().base_config is DEFAULT_BASE_CONFIG

    def test_stages_one_equals_base_learner(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(40, 3))
        y = F @ [1.0, -2.0, 0.5] + 3.0
        e = BoostedEnsemble(stages=1, base_config=FAST_BASE, seed=4).fit_arrays(
            F, y[:, None]
        )
        assert len(e.stages[0]) == 1
        X = rng.normal(size=(10, 3))
        assert np.array_equal(
            e.predict(X)[:, 0], e.stages[0][0].predict(X)[:, 0]
        )

    def test_one_ensemble_per_variable(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(30, 3))
        T = rng.normal(size=(30, 2))
        e = BoostedEnsemble(stages=2, base_config=FAST_BASE, seed=0).fit_arrays(F, T)
        assert len(e.stages) == 2
        assert len(e.stage_weights) == 2
        assert e.predict(F).shape == (30, 2)

    def test_stage_weights_positive(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(60, 4))
        y = np.tanh(F @ rng.normal(size=4))[:, None]
        e = BoostedEnsemble(stages=4, base_config=FAST_BASE, seed=1).fit_arrays(F, y)
        for w in e.stage_weights:
            assert np.all(w > 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, 1))
        a = BoostedEnsemble(stages=2, base_config=FAST_BASE, seed=5).fit_arrays(F, y)
        b = BoostedEnsemble(stages=2, base_config=FAST_BASE, seed=5).fit_arrays(F, y)
        X = rng.normal(size=(8, 3))
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_no_harm_across_seeds(self):
        # ensemble held-out r must not fall more than 0.02 below its own
        # first base learner across seeds (fixture-validated margin)
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            F = rng.normal(size=(160, 6))
            w = rng.normal(size=6)
            y = np.tanh(F @ w) * 2.0 + 3.0 + rng.normal(0, 0.15, size=160)
            e = BoostedEnsemble(
                stages=4, base_config=FfnnConfig(hidden_sizes=(16,), dropout_hidden=0.0, iterations=400), seed=seed
            ).fit_arrays(F[:80], y[:80, None])
            r_ens = pearson(e.predict(F[80:])[:, 0], y[80:])
            r_base = pearson(e.stages[0][0].predict(F[80:])[:, 0], y[80:])
            assert r_ens >= r_base - 0.02

    def test_empty_training_set(self):
        with pytest.raises(ContractError):
            BoostedEnsemble(stages=1, base_config=FAST_BASE).fit_arrays(
                np.empty((0, 3)), np.empty((0, 1))
            )

    def test_predict_before_fit(self):
        with pytest.raises(ContractError):
            BoostedEnsemble(stages=1).predict(np.ones((1, 3)))

    def test_feature_width_checked(self):
        rng = np.random.default_rng(4)
        e = BoostedEnsemble(stages=1, base_config=FAST_BASE, seed=0).fit_arrays(
            rng.normal(size=(20, 3)), rng.normal(size=(20, 1))
        )
        with pytest.raises(ContractError):
            e.predict(np.ones((2, 4)))


class TestFitBoosted:
    def test_predict_shape(self):
        T = np.random.default_rng(0).uniform(1, 5, size=(25, 5))
        rng = np.random.default_rng(2)
        F = rng.normal(size=(25, 3))
        e = BoostedEnsemble(stages=1, base_config=FAST_BASE, seed=0).fit_arrays(F, T)
        out = e.predict(rng.normal(size=(2, 3)))
        assert out.shape == (2, 5)


class TestReadFeatureVectors:
    def test_basic(self):
        data = b"cat\t0.5\t1.5\ndog\t-1.0\t2.0\n"
        feats = read_feature_vectors(io.BytesIO(data))
        assert set(feats) == {"cat", "dog"}
        assert feats["cat"].tolist() == [0.5, 1.5]

    def test_no_header_expected(self):
        # a would-be header line is just a row whose values fail to parse
        data = b"word\tv1\tv2\ncat\t0.5\t1.5\n"
        with pytest.raises(ParseError, match="line 1"):
            read_feature_vectors(io.BytesIO(data))

    def test_duplicates_averaged_with_warning(self):
        data = b"cat\t1.0\t3.0\ncat\t3.0\t5.0\n"
        with pytest.warns(UserWarning, match="duplicate"):
            feats = read_feature_vectors(io.BytesIO(data))
        assert feats["cat"].tolist() == [2.0, 4.0]

    def test_mixed_lengths(self):
        data = b"cat\t1.0\t3.0\ndog\t1.0\n"
        with pytest.raises(ParseError, match="line 2"):
            read_feature_vectors(io.BytesIO(data))

    @pytest.mark.parametrize("cell", [b"nan", b"inf"])
    def test_non_finite_value(self, cell):
        data = b"cat\t0.5\t1.5\nw1\t1.0\t" + cell + b"\n"
        with pytest.raises(ParseError, match="line 2.*non-finite"):
            read_feature_vectors(io.BytesIO(data))

    def test_word_only_row(self):
        with pytest.raises(ParseError):
            read_feature_vectors(io.BytesIO(b"cat\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            read_feature_vectors(io.BytesIO(b""))

    def test_case_kept(self):
        assert list(read_feature_vectors(io.BytesIO(b"Cat\t1.0\n"))) == ["Cat"]

    def test_crlf(self):
        data = b"cat\t1.0\r\ndog\t2.0\r\n"
        feats = read_feature_vectors(io.BytesIO(data))
        assert len(feats) == 2

    def test_bad_cell_is_named_with_its_column(self):
        row = ["0.5"] * 300
        row[3] = "inf"
        data = ("cat\t" + "\t".join(["1.0"] * 300) + "\nw1\t" + "\t".join(row) + "\n").encode()
        with pytest.raises(ParseError) as caught:
            read_feature_vectors(io.BytesIO(data))
        assert str(caught.value) == "line 2: non-finite feature value 'inf' in column 5"
        row[3], row[7] = "1e400", "x"  # a non-numeric cell outranks an earlier non-finite one
        data = ("w1\t" + "\t".join(row) + "\n").encode()
        with pytest.raises(ParseError) as caught:
            read_feature_vectors(io.BytesIO(data))
        assert str(caught.value) == "line 1: non-numeric feature value 'x' in column 9"

    def test_stream_stays_open(self):
        stream = io.BytesIO(b"cat\t1.0\n")
        read_feature_vectors(stream)
        assert not stream.closed

    def test_text_stream_refused(self):
        with pytest.raises(ConfigurationError, match="StringIO"):
            read_feature_vectors(io.StringIO("cat\t1.0\n"))

    def test_one_matrix_within_memory_bound(self, tmp_path):
        """2,000 x 300 vectors come back as the rows of one matrix, and the
        read never holds more than half as much again as that matrix."""
        rng = np.random.default_rng(0)
        cells = [[f"{v:.5f}" for v in row] for row in rng.normal(size=(2000, 300))]
        path = tmp_path / "emb.tsv"
        path.write_text("".join(f"w{i}\t" + "\t".join(row) + "\n" for i, row in enumerate(cells)),
                        encoding="utf-8")
        expected = np.array([[float(c) for c in row] for row in cells])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            feats = read_feature_vectors(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * expected.nbytes
        vectors = list(feats.values())
        assert list(feats) == [f"w{i}" for i in range(2000)]
        assert vectors[0].base is not None
        assert all(v.base is vectors[0].base for v in vectors)
        assert vectors[1].ctypes.data - vectors[0].ctypes.data == 300 * 8
        np.testing.assert_array_equal(np.stack(vectors), expected)

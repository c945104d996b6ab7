import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_aligned, malformed_model_files, misshaped_model_files
from affectmap.errors import ContractError, ParseError
from affectmap.lexicon import BE5, Lexicon
from affectmap.models import (
    MAGIC,
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    fit_boosted,
    load_model,
    save_model,
)


def round_trip(model, tmp_path, name):
    path = tmp_path / f"{name}.afmap"
    save_model(model, path)
    return load_model(path), path


QUERIES = np.random.default_rng(99).uniform(1.0, 9.0, size=(15, 3))


class TestRoundTrip:
    def test_linear(self, tmp_path):
        al = make_aligned(n=50, seed=1)
        m = LinearModel().fit(al)
        back, _ = round_trip(m, tmp_path, "linear")
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))
        assert back.source_format == m.source_format
        assert back.target_format == m.target_format

    def test_knn(self, tmp_path):
        al = make_aligned(n=50, seed=2)
        m = KnnModel(k=7).fit(al)
        back, _ = round_trip(m, tmp_path, "knn")
        assert back.k == 7
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))

    def test_ffnn(self, tmp_path):
        al = make_aligned(n=40, seed=3)
        cfg = FfnnConfig(hidden_sizes=(16,), iterations=40, seed=5)
        m = FfnnModel(cfg).fit(al)
        back, _ = round_trip(m, tmp_path, "ffnn")
        assert back.config == cfg
        assert back.loss_trace == m.loss_trace
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))

    def test_boosted(self, tmp_path):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(40)]
        feats = {w: rng.normal(size=4) for w in words}
        # learnable targets so boosting grows past the first stage
        mix = rng.normal(size=(4, 5)) * 0.3
        vals = np.clip(3.0 + np.array([feats[w] for w in words]) @ mix, 1.0, 5.0)
        lex = Lexicon(BE5, words, vals)
        base = FfnnConfig(hidden_sizes=(16,), dropout_hidden=0.0, iterations=400)
        m = fit_boosted(feats, lex, stages=3, seed=0, base_config=base)
        assert any(len(nets) > 1 for nets in m.stages)
        back, _ = round_trip(m, tmp_path, "boosted")
        X = rng.normal(size=(12, 4))
        assert np.array_equal(back.predict(X), m.predict(X))
        assert back.variables == m.variables
        for wa, wb in zip(m.stage_weights, back.stage_weights):
            assert np.array_equal(wa, wb)

    def test_file_object(self):
        al = make_aligned(n=30, seed=5)
        m = LinearModel().fit(al)
        buf = io.BytesIO()
        save_model(m, buf)
        back = load_model(io.BytesIO(buf.getvalue()))
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))

    def test_save_load_save_identical_bytes(self, tmp_path):
        al = make_aligned(n=30, seed=6)
        m = KnnModel(k=3).fit(al)
        _, path = round_trip(m, tmp_path, "first")
        first = path.read_bytes()
        back = load_model(path)
        buf = io.BytesIO()
        save_model(back, buf)
        assert buf.getvalue() == first


class TestFileFormat:
    def test_magic_prefix(self, tmp_path):
        al = make_aligned(n=20, seed=7)
        _, path = round_trip(LinearModel().fit(al), tmp_path, "m")
        assert path.read_bytes()[:8] == MAGIC == b"AFMAP001"

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_model(io.BytesIO(b"NOTAMODL" + b"\x00" * 32))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_model(io.BytesIO(b""))

    def test_truncated_header(self, tmp_path):
        al = make_aligned(n=20, seed=8)
        _, path = round_trip(LinearModel().fit(al), tmp_path, "m")
        raw = path.read_bytes()
        with pytest.raises(ParseError, match="header"):
            load_model(io.BytesIO(raw[:14]))

    def test_truncated_payload(self, tmp_path):
        al = make_aligned(n=20, seed=9)
        _, path = round_trip(LinearModel().fit(al), tmp_path, "m")
        raw = path.read_bytes()
        with pytest.raises(ParseError, match="truncated"):
            load_model(io.BytesIO(raw[:-8]))

    def test_corrupt_header_json(self, tmp_path):
        al = make_aligned(n=20, seed=10)
        _, path = round_trip(LinearModel().fit(al), tmp_path, "m")
        raw = bytearray(path.read_bytes())
        raw[12] = ord("X")
        with pytest.raises(ParseError, match="header"):
            load_model(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize("name", sorted(malformed_model_files()))
    def test_malformed_header_or_payload(self, name):
        with pytest.raises(ParseError):
            load_model(io.BytesIO(malformed_model_files()[name]))

    @pytest.mark.parametrize("name", sorted(misshaped_model_files()))
    def test_shape_chain_checked_on_load(self, name):
        with pytest.raises(ParseError, match="shape|variables|rows"):
            load_model(io.BytesIO(misshaped_model_files()[name]))

    def test_boosted_stage_counts_match_variables(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(20)]
        feats = {w: rng.normal(size=3) for w in words}
        lex = Lexicon(BE5, words, rng.uniform(1.0, 5.0, size=(20, 5)))
        base = FfnnConfig(hidden_sizes=(4,), iterations=1)
        with pytest.warns(UserWarning):
            m = fit_boosted(feats, lex, stages=1, seed=0, base_config=base)
        m.variables = m.variables[:4]
        m.target_format = None
        buf = io.BytesIO()
        save_model(m, buf)
        with pytest.raises(ParseError, match="4 variables but 5 stage counts"):
            load_model(io.BytesIO(buf.getvalue()))

    def test_unfitted_model_rejected(self):
        with pytest.raises(ContractError):
            save_model(LinearModel(), io.BytesIO())
        with pytest.raises(ContractError):
            save_model(KnnModel(), io.BytesIO())
        with pytest.raises(ContractError):
            save_model(BoostedEnsemble(), io.BytesIO())

    def test_unknown_object_rejected(self):
        with pytest.raises(ContractError):
            save_model(object(), io.BytesIO())


FLOAT64_MODELS = Path(__file__).parent / "data" / "float64_models"


class TestNetworkDtype:
    def test_float32_ffnn_round_trip(self, tmp_path):
        m = FfnnModel(FfnnConfig(hidden_sizes=(16,), iterations=40, seed=5)).fit(
            make_aligned(n=40, seed=3)
        )
        back, path = round_trip(m, tmp_path, "ffnn32")
        assert b'"dtype":"float32"' in path.read_bytes()
        assert back.config == m.config
        for a in (*back.weights, *back.biases):
            assert a.dtype == np.float32
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))

    def test_float32_boosted_round_trip(self, tmp_path):
        al = make_aligned(n=40, seed=8)
        base = FfnnConfig(hidden_sizes=(8,), dropout_hidden=0.0, iterations=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a weak first boosting stage
            m = BoostedEnsemble(stages=3, base_config=base, seed=1).fit(al)
        assert any(len(nets) > 1 for nets in m.stages)
        back, _ = round_trip(m, tmp_path, "boosted32")
        nets = [net for stage in back.stages for net in stage]
        assert {a.dtype for net in nets for a in (*net.weights, *net.biases)} == {
            np.dtype(np.float32)
        }
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))

    @pytest.mark.parametrize("kind", ["ffnn", "boosted"])
    def test_files_without_dtype_load_as_float64(self, kind):
        """Files written before training moved to float32 hold float64
        networks; they predict the numbers they were saved with. Each query
        row has one nonzero, so every dot product is a single rounded
        product and the expected bits hold on any BLAS kernel."""
        raw = (FLOAT64_MODELS / f"{kind}.afm").read_bytes()
        assert b'"dtype"' not in raw
        expected = json.loads((FLOAT64_MODELS / "predictions.json").read_text())
        model = load_model(io.BytesIO(raw))
        nets = [model] if kind == "ffnn" else [n for stage in model.stages for n in stage]
        assert {a.dtype for n in nets for a in (*n.weights, *n.biases)} == {np.dtype(np.float64)}
        got = model.predict(np.array(expected["queries"]))
        assert [[float(x).hex() for x in row] for row in got] == expected[kind]

import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    _frame,
    _split_model,
    make_aligned,
    malformed_model_files,
    misshaped_model_files,
)
from affectmap.cli import main
from affectmap.errors import AffectMapError, ContractError, ParseError
from affectmap.lexicon import BE5
from affectmap.models import (
    MAGIC,
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
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
        # learnable targets so boosting grows past the first stage
        base = FfnnConfig(hidden_sizes=(16,), dropout_hidden=0.0, iterations=400)
        m = BoostedEnsemble(stages=3, base_config=base, seed=0).fit(make_aligned(n=40, seed=4))
        assert any(len(nets) > 1 for nets in m.stages)
        back, _ = round_trip(m, tmp_path, "boosted")
        assert np.array_equal(back.predict(QUERIES), m.predict(QUERIES))
        assert back.variables == m.variables == BE5.variables
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
        base = FfnnConfig(hidden_sizes=(4,), iterations=1)
        with pytest.warns(UserWarning):
            m = BoostedEnsemble(stages=1, base_config=base, seed=0).fit_arrays(
                rng.normal(size=(20, 3)), rng.uniform(1.0, 5.0, size=(20, 5)))
        m.variables = BE5.variables[:4]
        m.target_format = None
        buf = io.BytesIO()
        save_model(m, buf)
        with pytest.raises(ParseError, match="4 variables but 5 stage counts"):
            load_model(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("changes, named", [
        ({"scale_low": "1", "scale_high": "9"}, "'scale_low' must be a finite number"),
        ({"variables": "vad"}, "'variables' must be a list of strings"),
        ({"name": 5}, "'name' must be a string"),
    ], ids=["scale-strings", "variables-string", "name-int"])
    def test_mistyped_format_is_refused(self, changes, named, tmp_path, capsys):
        """A saved format is typed as a manifest's inline format is: a
        string bound, a variables string or a numeric name does not load,
        and predict exits 2 instead of failing on it later."""
        raw, header, payload = _split_model(LinearModel().fit(make_aligned(n=20, seed=11)))
        header["source_format"].update(changes)
        path = tmp_path / "m.afm"
        path.write_bytes(_frame(raw, header, payload))
        with pytest.raises(AffectMapError, match=named):
            load_model(path)
        query = tmp_path / "q.tsv"
        query.write_bytes(b"word\tvalence\tarousal\tdominance\nq\t5\t5\t5\n")
        out = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(path), str(query), str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("side", ["source_format", "target_format"])
    def test_failed_format_names_its_side(self, side, tmp_path, capsys):
        """A saved format that fails its own checks is a header fault: the
        load ends in a ParseError naming the side, and the CLI exits 2."""
        raw, header, payload = _split_model(LinearModel().fit(make_aligned(n=20, seed=12)))
        header[side]["scale_low"] = "1"
        path = tmp_path / "m.afm"
        path.write_bytes(_frame(raw, header, payload))
        with pytest.raises(ParseError, match=f"{side}.*'scale_low' must be a finite number"):
            load_model(path)
        assert main(["model", "load", str(path)]) == 2
        err = capsys.readouterr().err
        assert side in err and "got '1'" in err and "Traceback" not in err

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


def _with_cell(model, name, value, dtype=None):
    """A model file with the first cell of one payload array set to value,
    and optionally the header's network dtype rewritten."""
    raw, header, payload = _split_model(model)
    offset = 0
    for entry in header["arrays"]:
        if entry["name"] == name:
            break
        offset += 8 * int(np.prod(entry["shape"]))
    payload = payload[:offset] + np.float64(value).astype("<f8").tobytes() + payload[offset + 8:]
    if dtype is not None:
        header["meta"]["dtype"] = dtype
    return _frame(raw, header, payload)


def _small_models():
    al = make_aligned(n=8, seed=6)
    rng = np.random.default_rng(7)
    base = FfnnConfig(hidden_sizes=(3,), iterations=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a weak first boosting stage
        boosted = BoostedEnsemble(stages=1, base_config=base).fit_arrays(
            rng.normal(size=(8, 2)), rng.uniform(1.0, 5.0, size=(8, 2)))
    return {
        "linear": LinearModel().fit(al),
        "knn": KnnModel(k=2).fit(al),
        "ffnn": FfnnModel(base).fit(al),
        "boosted": boosted,
    }


class TestNonFinitePayload:
    """A model file holding NaN or an infinity, or a network value its
    dtype cannot hold, fails to load, naming the array."""

    @pytest.mark.parametrize("kind,name,value", [
        ("linear", "W", np.nan), ("linear", "b", np.inf), ("knn", "source", -np.inf),
        ("knn", "target", np.nan), ("ffnn", "W0", np.nan), ("ffnn", "b1", -np.inf),
        ("ffnn", "loss_trace", np.nan), ("boosted", "v0_weights", np.inf),
        ("boosted", "v1s0_W1", np.nan),
    ])
    def test_nan_or_infinity(self, kind, name, value):
        data = _with_cell(_small_models()[kind], name, value)
        with pytest.raises(ParseError, match=f"array '{name}' holds a non-finite value"):
            load_model(io.BytesIO(data))

    @pytest.mark.parametrize("kind,name", [("ffnn", "W0"), ("ffnn", "b0"), ("boosted", "v0s0_W1")])
    def test_past_float32_range(self, kind, name):
        data = _with_cell(_small_models()[kind], name, -1e39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the cast either
            with pytest.raises(ParseError, match=f"array '{name}' holds a value past the "
                                                 "range of float32"):
                load_model(io.BytesIO(data))

    def test_float64_network_holds_it(self):
        model = load_model(io.BytesIO(_with_cell(_small_models()["ffnn"], "W0", 1e39, "float64")))
        assert model.weights[0].dtype == np.float64 and model.weights[0][0, 0] == 1e39

    def test_predict_exits_2(self, tmp_path, capsys):
        from affectmap.cli import main

        path = tmp_path / "nan.afm"
        path.write_bytes(_with_cell(_small_models()["linear"], "W", np.nan))
        query = tmp_path / "q.tsv"
        query.write_text("word\tvalence\tarousal\tdominance\nq0\t5.0\t5.0\t5.0\n", encoding="utf-8")
        out = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(path), str(query), str(out)]) == 2
        err = capsys.readouterr().err
        assert "array 'W' holds a non-finite value" in err and "Traceback" not in err
        assert not out.exists()

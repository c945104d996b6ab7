"""Hostile inputs: mutated model files and TSV rows.

Whatever the mutation, loading fails with an AffectMapError subclass or
succeeds, and the CLI answers with an exit code (0 when the mutant is
still a valid input, 1 for I/O, 2 for bad input, 64 for usage), never
with a traceback.
"""

import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_aligned
from affectmap.cli import main
from affectmap.errors import AffectMapError
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    load_model,
    save_model,
)

EXIT_CODES = (0, 1, 2, 64)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _saved(model) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def _model_files() -> list[bytes]:
    al = make_aligned(n=8, seed=4)
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        boosted = BoostedEnsemble(
            stages=2, base_config=FfnnConfig(hidden_sizes=(3,), iterations=2)
        ).fit_arrays(rng.normal(size=(8, 2)), rng.uniform(1.0, 5.0, size=(8, 2)))
    return [
        _saved(LinearModel().fit(al)),
        _saved(KnnModel(k=2).fit(al)),
        _saved(FfnnModel(FfnnConfig(hidden_sizes=(3,), iterations=2)).fit(al)),
        _saved(boosted),
    ]


MODEL_FILES = _model_files()


def _header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[8:12], "little")


@st.composite
def mutated_model(draw) -> bytes:
    raw = draw(st.sampled_from(MODEL_FILES))
    how = draw(st.sampled_from(["truncate", "flip", "splice", "swap-header", "header-bytes"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        data = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            # bias flips towards the header, where the structure lives
            end = draw(st.sampled_from([_header_end(raw), len(raw)]))
            data[draw(st.integers(0, end - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if how == "splice":
        at = draw(st.integers(0, len(raw)))
        cut = draw(st.integers(0, 16))
        return raw[:at] + draw(st.binary(max_size=16)) + raw[at + cut :]
    if how == "swap-header":
        other = draw(st.sampled_from(MODEL_FILES))
        return other[: _header_end(other)] + raw[_header_end(raw) :]
    # rewrite one header value with an arbitrary JSON value
    header = json.loads(raw[12 : _header_end(raw)])
    node, key = header, None
    path = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
    for step in path:
        if isinstance(node, dict) and node:
            key = sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            key = step % len(node)
        else:
            break
        if not isinstance(node[key], (dict, list)) or step == path[-1]:
            break
        node = node[key]
    value = draw(st.recursive(
        st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=5,
    ))
    if key is not None:
        node[key] = value
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[_header_end(raw) :]


@FUZZ
@given(mutated_model())
def test_mutated_model_file_fails_typed(data):
    try:
        model = load_model(io.BytesIO(data))
    except AffectMapError:
        return
    assert hasattr(model, "predict")


@FUZZ
@given(mutated_model())
def test_model_load_command_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.afm"
        path.write_bytes(data)
        assert main(["model", "load", str(path)]) in EXIT_CODES


# ---- TSV rows ------------------------------------------------------------

_VAD = "word\tvalence\tarousal\tdominance\nw0\t5.0\t3.5\t6.25\nw1\t2.0\t8.0\t4.0\nw2\t7.5\t1.0\t9.0\n"
_BE5 = "word\tjoy\tanger\tsadness\tfear\tdisgust\nw0\t2\t3\t1.5\t4\t1\nw1\t1\t1\t5\t2\t2.5\nw2\t4\t2\t2\t3\t1\n"
_FEATURES = "w0\t0.5\t-1.0\nw1\t1.5\t0.25\nw2\t-0.75\t2.0\n"
_RELIABILITY = (
    "dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
    "syn\tjoy\t0.8\t40\ttrue\nsyn\tvalence\t0.7\t10\tfalse\n"
)
FILES = {"vad.tsv": _VAD, "be5.tsv": _BE5, "emb.tsv": _FEATURES, "rel.tsv": _RELIABILITY}

_cell = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", " ", "0", "10", "-1", "1_0", "\r", "\t"]),
)


@st.composite
def mutated_tsv(draw) -> tuple[str, bytes]:
    name = draw(st.sampled_from(sorted(FILES)))
    lines = FILES[name].rstrip("\n").split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split("\t")
    how = draw(st.sampled_from(["cell", "drop-cell", "add-cell", "drop-row", "copy-row", "bytes"]))
    if how == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_cell)
    elif how == "drop-cell":
        del cells[draw(st.integers(0, len(cells) - 1))]
    elif how == "add-cell":
        cells.insert(draw(st.integers(0, len(cells))), draw(_cell))
    lines[i] = "\t".join(cells)
    if how == "drop-row":
        del lines[i]
    elif how == "copy-row":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at + 1 :]
    return name, data


@FUZZ
@given(mutated_tsv())
def test_validate_on_mutated_tsv_exit_code(mutant):
    name, data = mutant
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for fname, text in FILES.items():
            (root / fname).write_bytes(data if fname == name else text.encode("utf-8"))
        manifest = {
            "seed": 1, "k_folds": 2, "output_dir": "out", "reliability": "rel.tsv",
            "datasets": [{"id": "syn", "language": "en", "sides": [
                {"path": "vad.tsv", "format": "VAD"}, {"path": "be5.tsv", "format": "BE5"}]}],
            "models": [{"name": "wei", "kind": "boosted", "features_path": "emb.tsv"}],
        }
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # duplicate rows are averaged with a warning
            assert main(["validate", "--manifest", str(root / "manifest.json")]) in EXIT_CODES


@pytest.mark.parametrize("name", sorted(FILES))
def test_invalid_utf8_is_a_parse_error(name, tmp_path, capsys):
    """Every TSV reader turns undecodable bytes into ParseError."""
    for fname, text in FILES.items():
        (tmp_path / fname).write_bytes(b"\xff\xfe" + text.encode() if fname == name else text.encode())
    manifest = {
        "seed": 1, "output_dir": "out", "reliability": "rel.tsv",
        "datasets": [{"id": "syn", "language": "en", "sides": [
            {"path": "vad.tsv", "format": "VAD"}, {"path": "be5.tsv", "format": "BE5"}]}],
        "models": [{"name": "wei", "kind": "boosted", "features_path": "emb.tsv"}],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", "--manifest", str(tmp_path / "manifest.json")]) == 2
    assert "not valid UTF-8" in capsys.readouterr().out


# JSON the decoder itself gives up on: an integer past the int-string
# limit, and nesting past the recursion limit
_UNPARSABLE_JSON = {"huge-int": b'{"kind": ' + b"1" * 5000 + b"}", "deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("name", sorted(_UNPARSABLE_JSON))
def test_unparsable_model_header(name, tmp_path, capsys):
    blob = _UNPARSABLE_JSON[name]
    (tmp_path / "m.afm").write_bytes(b"AFMAP001" + len(blob).to_bytes(4, "little") + blob)
    assert main(["model", "load", str(tmp_path / "m.afm")]) == 2
    assert "corrupt model header" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(_UNPARSABLE_JSON))
def test_unparsable_manifest(name, tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(_UNPARSABLE_JSON[name])
    assert main(["validate", "--manifest", str(tmp_path / "manifest.json")]) == 2
    assert "is not valid JSON" in capsys.readouterr().err

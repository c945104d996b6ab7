"""Hostile inputs: mutated model files, TSV rows and manifests.

Whatever the mutation, loading fails with an AffectMapError subclass or
succeeds, and the CLI answers with an exit code (0 when the mutant is
still a valid input, 1 for I/O, 2 for bad input, 64 for usage), never
with a traceback.
"""

import copy
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    feature_outcome,
    make_aligned,
    parse_outcome,
    reference_feature_parse,
    reference_parse,
)
from affectmap import lexicon, tsv
from affectmap.cli import main
from affectmap.errors import AffectMapError, ParseError
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    load_model,
    read_feature_vectors,
    save_model,
)
from affectmap.models import boosting

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


def _mutate(draw, data: bytes, cell) -> bytes:
    """data with one row, one cell or a few bytes changed."""
    lines = data.rstrip(b"\n").split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(b"\t")
    how = draw(st.sampled_from(["cell", "drop-cell", "add-cell", "drop-row", "copy-row", "bytes"]))
    if how == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(cell).encode("utf-8")
    elif how == "drop-cell":
        del cells[draw(st.integers(0, len(cells) - 1))]
    elif how == "add-cell":
        cells.insert(draw(st.integers(0, len(cells))), draw(cell).encode("utf-8"))
    lines[i] = b"\t".join(cells)
    if how == "drop-row":
        del lines[i]
    elif how == "copy-row":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    data = b"\n".join(lines) + b"\n"
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at + 1 :]
    return data


@st.composite
def mutated_tsv(draw) -> tuple[str, bytes]:
    name = draw(st.sampled_from(sorted(FILES)))
    return name, _mutate(draw, FILES[name].encode("utf-8"), _cell)


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


_PARSE_OPTIONS = ["default", "clamp", "lowercase", "scale", "scale+clamp"]
# a lexicon with an unbound column, blank lines, a word repeated on the
# next row and one repeated far below, so that small blocks split them
_VAD_NOTES = (
    "word\tvalence\tnote\tarousal\tdominance\n"
    "w0\t5.0\tfirst\t3.5\t6.25\nw1\t2.0\t\t8.0\t4.0\nw1\t2.5\tn/a\t7.0\t4.5\n\n"
    "W2\t7.5\t\u00e9\t1.0\t9.0\nw3\t1.0\tx y\t9.0\t1.0\n\n\nw4\t4.25\t-\t4.5\t5.5\n"
    "w0\t6.0\tlast\t3.0\t6.75\nw5\t3.125\t\t2.0\t8.5\n"
)
_LEXICONS = {
    "vad.tsv": (lexicon.VAD, _VAD),
    "be5.tsv": (lexicon.BE5, _BE5),
    "vad-notes.tsv": (lexicon.VAD, _VAD_NOTES),
}
# cells the lexicon reader treats apart: ones only float() reads, padding
# numpy's parser skips and float() refuses, Unicode space both skip,
# non-finite and out-of-range values, and line ends inside a row
_lexicon_cell = st.one_of(_cell, st.sampled_from([
    "1_0", "2_5.5", "\u0663", "\uff14.5", "\x1c3", "3\x1f", "\x1e", "\xa03", "3\u3000", "infinity",
    "-nan", "\r", "\r\n", "\n", "\n\n", "9.5", "0.5", " 4 ", "+.5e1"]))
# bytes per block: one character, a few rows, the default
_BLOCK_SIZES = [1, 40, 1 << 16]


@st.composite
def mutated_lexicon(draw) -> tuple[lexicon.EmotionFormat, bytes]:
    fmt, text = _LEXICONS[draw(st.sampled_from(sorted(_LEXICONS)))]
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        data = _mutate(draw, data, _lexicon_cell)
    return fmt, data


def _parse_options(fmt, option):
    options = {"clamp": "clamp" in option, "lowercase": option == "lowercase"}
    if "scale" in option:
        options["scale"] = (fmt.scale_low - 1.0, fmt.scale_high + 1.0)
    return options


@FUZZ
@given(mutated_lexicon(), st.sampled_from(_PARSE_OPTIONS), st.sampled_from(_BLOCK_SIZES))
def test_parse_matches_reference(mutant, option, block_bytes):
    """parse_lexicon gives what the reference parser gives: same words,
    value bits and diagnostics, or the same exception and message. Small
    blocks put rows, repeats and the first bad row in different numpy
    parser calls, and 1-3 stacked mutations put an undecodable byte after
    a bad row."""
    fmt, data = mutant
    options = _parse_options(fmt, option)
    with mock.patch.object(tsv, "_BLOCK_BYTES", block_bytes):
        outcome = parse_outcome(lexicon.parse_lexicon, data, fmt, **options)
    assert outcome == parse_outcome(reference_parse, data, fmt, **options)


_HEADER = b"word\tvalence\tarousal\tdominance\n"


@pytest.mark.parametrize("block_bytes", _BLOCK_SIZES)
@pytest.mark.parametrize("option", _PARSE_OPTIONS)
@pytest.mark.parametrize("data", [
    _HEADER + b"a\t1\t2\t3\rb\t4\t5\t6\r\rc\t7\t8\t9\r",  # lone CR line ends
    _HEADER + b"a\t1\t2\t3\r\nb\t4\t5\t6\r\n\r\nc\tx\t8\t9\r\n",  # the failing line counts CRLFs
    _HEADER + b"\n\na\t1\t2\t3\n\n\nb\t4\t5\t6\n\n",  # blank lines
    _HEADER + b"a\t1_0\t2\t3\nb\t\xd9\xa3\t\xef\xbc\x94.5\t6\n",  # cells only float() reads
    _HEADER + b"a\t\x1c1\t2\x1f\t3\nb\t\xc2\xa04\t5\xe3\x80\x80\t6\n",  # padding, Unicode space
    _HEADER + b"a\tinf\t2\t3\n",
    _HEADER + b"a\tnan\t2\t3\n",
    _HEADER + b"a\t1\t2\nb\t4\t5\t6\n",  # short row
    _HEADER + b"a\t1\t2\t3\tjunk\nb\t4\t5\t6\n",  # long row
    _HEADER + b"a\t1\t2\t3\nb\t4\t5\t6\na\t7\t8\t9\nb\t9\t9\t9\n",  # repeats
    _HEADER + b"a\t0\t2\t3\nb\t4\t10\t6\nc\t-1\t1e9\t9.5\n",  # out of range
    _HEADER + b"a\t0\t2\t3\na\t4\t10\t6\n",  # a clamp before a repeat on one row
    _HEADER + b"a\tx\t2\t3\nb\t1\t2\t3\xff\n",  # an undecodable byte outranks a bad row
    _HEADER + b"a\t1\t2\nb\t1\t2\t3\n" * 3000 + b"\xe2\x82\n",  # ... also far below it
    _HEADER + b"a\t1\t2\t3\n\xe2\x82",  # a truncated sequence at the end
    b"word\tvalence\n\xff",  # a missing column, then an undecodable byte
    b"\n" + _HEADER,  # missing header row
], ids=["lone-cr", "crlf-bad-line", "blank-lines", "float-only", "padding-and-unicode-space",
        "inf", "nan", "short-row", "long-row", "repeats", "out-of-range", "clamp-then-repeat",
        "bad-row-then-undecodable", "bad-row-then-undecodable-later", "truncated-sequence",
        "bad-header-then-undecodable", "missing-header"])
def test_parse_pinned_cases(data, option, block_bytes):
    fmt = lexicon.VAD
    options = _parse_options(fmt, option)
    with mock.patch.object(tsv, "_BLOCK_BYTES", block_bytes):
        outcome = parse_outcome(lexicon.parse_lexicon, data, fmt, **options)
    assert outcome == parse_outcome(reference_parse, data, fmt, **options)


# cells the reader treats apart: line ends inside a row, padding that numpy's
# parser would skip but float() refuses, and Unicode space, which both skip
_feature_cell = st.one_of(_cell, st.sampled_from(
    ["\r", "\r\n", "\x1c1", "1\x1f", "\x1e", "\xa01", "1\u3000", "\x0b", "+.5", "-0", "1e-3"]))


@st.composite
def mutated_features(draw) -> bytes:
    data = _FEATURES.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        data = _mutate(draw, data, _feature_cell)
    return data


def _float_only(data: bytes) -> bool:
    """Whether a value cell of data is one that float() reads and numpy's
    parser does not: digit-group underscores or non-ASCII digits. The
    reader refuses such cells on purpose."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        for cell in line.split("\t")[1:]:
            try:
                float(cell)
            except ValueError:
                continue
            if "_" in cell or not cell.strip().isascii():
                return True
    return False


@FUZZ
@given(mutated_features(), st.sampled_from([1, 12, 1 << 16]))
def test_feature_read_matches_reference(data, block_chars):
    """read_feature_vectors gives what the whole-text reader gave: the same
    words in the same order, value bits and duplicate warnings, or the same
    exception class and line. Small blocks put rows, repeats and the first
    bad row in different numpy parser calls."""
    assume(not _float_only(data))
    with mock.patch.object(tsv, "_BLOCK_BYTES", block_chars):
        outcome = feature_outcome(read_feature_vectors, data)
    assert outcome == feature_outcome(reference_feature_parse, data)


@pytest.mark.parametrize("data", [
    b"cat\t1.0\rdog\t2.0\r\rbird\t3.0\r",  # lone CR line ends
    b"cat\t1.0\rdog\t2.0\r\rbad\tx\n",  # the failing line counts lone CRs
    b"cat\t1.0\r\ndog\t2.0\r\r\nbad\t\x1c\n",
    b"cat\t\x1c1.0\n",  # padding numpy's parser skips but float() refuses
    b"cat\t1.0\x1f\n",
    b"\x1ccat\x1f\t1.0\n",  # around a word it is trimmed, as str.strip() does
    b"cat\t\xc2\xa01.0\xe3\x80\x80\n",  # Unicode spaces, which both skip
    b"cat\t1\ncat\t2\nbad\tx\n",  # the repeat is reported before the bad row
    b"cat\tx\ndog\t1\xff\n",  # an undecodable byte anywhere outranks a bad row
    b"cat\n" + b"dog\t1\n" * 5000 + b"\xff\n",  # also past the first decoded chunk
    b"cat\t1\ncat\t2\n\xff",
], ids=["lone-cr", "lone-cr-bad-line", "crlf-bad-line", "padded-before", "padded-after",
        "padded-word", "unicode-space", "repeat-then-bad-row", "bad-row-then-undecodable",
        "bad-row-then-undecodable-later", "repeat-then-undecodable"])
def test_feature_read_pinned_cases(data):
    assert feature_outcome(read_feature_vectors, data) == feature_outcome(
        reference_feature_parse, data)


@pytest.mark.parametrize("cell", ["1_0", "1_000.5", "\u0661", "\u0663.\u0665", "\uff11"])
def test_float_only_feature_cells_are_refused(cell):
    """The one deliberate difference from the whole-text reader: a cell only
    float() reads is a ParseError naming the cell and its column."""
    data = f"cat\t0.5\t1.5\ndog\t2.5\t{cell}\n".encode("utf-8")
    assert set(reference_feature_parse(io.BytesIO(data))) == {"cat", "dog"}
    with pytest.raises(ParseError, match=f"line 2: non-numeric feature value '{cell}' in column 3"):
        read_feature_vectors(io.BytesIO(data))


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


# ---- lexicon job outputs -------------------------------------------------

# "{root}" becomes the example's temp directory, so an absolute output
# would land where the workspace snapshot sees it
_output = st.lists(st.sampled_from(
    ["a", "b.tsv", ".", "..", "/", "\0", "{root}", "run_meta.json", "validation.txt",
     ".manifest.json"]), max_size=4).map("".join)


@FUZZ
@given(st.lists(_output, min_size=1, max_size=2))
def test_lexicon_job_outputs_stay_planned(outputs):
    """validate and run build-lexicon agree on every set of job outputs:
    both exit 0 or both exit 2. On exit 0 the workspace gains exactly the
    planned files inside output_dir, and on exit 2 nothing but the
    validation report."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        work = root / "work"
        work.mkdir()
        for fname in ("vad.tsv", "be5.tsv"):
            (work / fname).write_text(FILES[fname], encoding="utf-8")
        outputs = [o.replace("{root}", str(root)) for o in outputs]
        job = {"mode": "monolingual", "model": "knn", "training_id": "syn",
               "source": {"path": "vad.tsv", "format": "VAD"}}
        manifest = {
            "seed": 1, "output_dir": "out",
            "datasets": [{"id": "syn", "language": "en", "sides": [
                {"path": "vad.tsv", "format": "VAD"}, {"path": "be5.tsv", "format": "BE5"}]}],
            "models": [{"name": "knn", "kind": "knn", "params": {"k": 1}}],
            "lexicon_jobs": [{**job, "output": o} for o in outputs],
        }
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        def files():
            return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

        before = files()
        argv = ["--manifest", str(work / "manifest.json")]
        codes = {main(["validate", *argv]), main(["run", "build-lexicon", *argv])}
        assert codes in ({0}, {2})
        planned = {"validation.txt"}
        if codes == {0}:
            planned |= {"run_meta.json", *(n for o in outputs for n in (
                Path(o).name, Path(o).name + ".manifest.json"))}
        assert files() - before == {f"work/out/{name}" for name in planned}


# ---- manifests -----------------------------------------------------------

FIXTURE = Path(__file__).parent / "data" / "cli_fixture"
TABLES = json.loads((FIXTURE / "tables_manifest.json").read_text(encoding="utf-8"))
_TOP_KEYS = ["seed", "output_dir", "k_folds", "n_star", "datasets", "reliability", "models",
             "crosslingual_model", "ablation", "lexicon_jobs"]
# the keys manifest objects hold, so that an extra key is often a known key
# in the wrong object
_MANIFEST_KEYS = [
    *_TOP_KEYS, "id", "language", "sides", "path", "format", "columns", "scale", "lowercase",
    "clamp", "name", "kind", "params", "features_path", "k", "mode", "output", "model",
    "training_id", "training_ids", "training_direction", "source", "exclusions", "direction",
    "variables", "scale_low", "scale_high", "word"]
# Strings come from a pool and a narrow alphabet that cannot spell a network
# kind: model save trains a network at its default 10,000 iterations, which
# on the fixture took 5 s (ffnn) and 47 s (boosted) on a 2-core Xeon. Neither
# holds a "." or "/", nor names a fixture file, so an output_dir stays a new
# directory inside the example's own.
_strings = st.one_of(
    st.sampled_from(["", "syn", "other", "lr", "knn", "VAD", "VA", "BE5", "dim2cat", "cat2dim",
                     "monolingual", "crosslingual", "en", "missing", "new", "valence", "joy"]),
    st.text(alphabet="ab \t\x00é-", max_size=6))
_huge = st.sampled_from([2**61 - 1, 2**63, 10**400, -(10**400), 1e308, -1e308, 5e-324])
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(), _huge, _strings),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(
        st.one_of(st.sampled_from(_MANIFEST_KEYS), _strings), inner, max_size=3)),
    max_leaves=6)
_GONE = object()


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, (*path, key))


def _edit(draw, value, how):
    """value after one edit: a type swap, deleted (_GONE), an extra key or
    entry, one more level of nesting, or a huge number."""
    if how == "swap":
        return draw(_json)
    if how == "delete":
        return _GONE
    if how == "extra" and isinstance(value, dict):
        return {**value, draw(st.sampled_from(_MANIFEST_KEYS)): draw(_json)}
    if how == "extra" and isinstance(value, list):
        return [*value, draw(_json)]
    if how == "huge":
        return draw(_huge)
    return draw(st.sampled_from([[value], {draw(st.sampled_from(_MANIFEST_KEYS)): value}]))


_HOW = st.sampled_from(["swap", "delete", "extra", "nest", "huge"])


@st.composite
def mutated_manifest(draw) -> tuple[dict, list[str], list[str]]:
    """The tables manifest after up to three edits, up to two more given as
    --set flags (a top-level or a dotted key), and model save's own flags."""
    doc = copy.deepcopy(TABLES)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        value = _edit(draw, node[path[-1]] if path else doc, draw(_HOW))
        if not path:
            doc = {} if value is _GONE else value
        elif value is _GONE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    flags = []
    for _ in range(draw(st.integers(0, 2))):
        head = draw(st.sampled_from([*_TOP_KEYS, "bogus"]))
        node = doc.get(head) if isinstance(doc, dict) else None
        key = head
        if isinstance(node, dict) and node and draw(st.booleans()):
            tail = draw(st.sampled_from(sorted(node)))
            key, node = f"{head}.{tail}", node[tail]
        value = _edit(draw, node, draw(_HOW.filter(lambda how: how != "delete")))
        flags += ["--set", f"{key}={json.dumps(value)}"]
    save = []  # mostly names the fixture defines; no direction is model save's default
    for key, names in (("dataset", ["syn"]), ("model", ["lr", "knn"]), ("direction", [None])):
        value = draw(st.sampled_from(names) if draw(st.integers(0, 3)) else _json)
        save += [] if value is None else ["--set", f"{key}={json.dumps(value)}"]
    return doc, flags, save


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse's usage error
        return e.code


@FUZZ
@given(mutated_manifest())
def test_mutated_manifest_exit_codes(mutant):
    """validate ends in 0, 2 or 64 and model save in 0, 1 or 2, whatever the
    manifest or the --set flags hold; any other exception fails the test."""
    doc, flags, save = mutant
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("syn_vad.tsv", "syn_be5.tsv", "reliability.tsv"):
            shutil.copy(FIXTURE / name, root)
        (root / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--manifest", str(root / "manifest.json"), *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a k past the training rows
            assert _exit_code(["validate", *argv]) in (0, 2, 64)
            assert _exit_code(["model", "save", str(root / "m.afm"), *argv, *save]) in (0, 1, 2)

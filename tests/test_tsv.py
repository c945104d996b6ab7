"""The TSV dialect module: its block splitter and line walker, the
warning site of its readers, and the names other modules keep exporting
from it."""

import ast
import io
import warnings
from pathlib import Path
from unittest import mock

import affectmap
from affectmap import lexicon, models, stats, tsv
from affectmap.models import boosting

_DATA = b"word\tv\r\na\t1\n\nb\t2\r\n" + "é\t3\n".encode("utf-8")


def test_one_byte_blocks_hold_one_line_each():
    """Patched to 1 byte, the block size cuts after every line end, a CRLF
    and a character of two bytes included; the last block is the empty
    rest after the final line end, as at any size."""
    with mock.patch.object(tsv, "_BLOCK_BYTES", 1):
        blocks = list(tsv._blocks(io.BytesIO(_DATA)))
    assert blocks == [(1, ["word\tv"]), (2, ["a\t1"]), (3, [""]), (4, ["b\t2"]),
                      (5, ["é\t3"]), (6, [""])]
    assert list(tsv._blocks(io.BytesIO(_DATA))) == [
        (1, ["word\tv", "a\t1", "", "b\t2", "é\t3"]), (6, [""])]


def test_block_size_is_patched_where_blocks_reads_it():
    """lexicon does not re-export the block size, so a patch aimed there
    fails instead of leaving the reader at its 64 KiB blocks."""
    assert tsv._blocks.__globals__ is vars(tsv)
    assert not hasattr(lexicon, "_BLOCK_BYTES")


def test_numbered_lines_skip_blank_lines_and_count_every_line_end():
    data = b"a\r\n\nb\rc\n\n"
    expected = [(1, "a"), (3, "b"), (4, "c")]
    assert tsv.numbered_lines(data, "x") == expected
    with mock.patch.object(tsv, "_BLOCK_BYTES", 1):
        assert tsv.numbered_lines(io.BytesIO(data), "x") == expected


def test_feature_warnings_point_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tsv.read_feature_vectors(b"a\t1\na\t2\n")
    assert [(Path(w.filename), str(w.message)) for w in caught] == [
        (Path(__file__), "duplicate feature entry for 'a'; averaging")]


def _imported_modules(module) -> set[str]:
    """The affectmap modules that module's source imports from."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    package = module.__name__.split(".")[:-1]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[: len(package) - node.level + 1]
            names.add(".".join([*base, *filter(None, [node.module])]))
    return names


def test_the_dialect_module_is_a_leaf():
    assert _imported_modules(tsv) == {"affectmap.errors"}
    for module in (boosting, stats):
        assert "affectmap.lexicon" not in _imported_modules(module), module.__name__


def test_reader_names_stay_where_they_were():
    assert lexicon.Diagnostic is affectmap.Diagnostic is tsv.Diagnostic
    assert lexicon.canonical_word is affectmap.canonical_word is tsv.canonical_word
    assert lexicon.parse_lexicon is affectmap.parse_lexicon
    assert lexicon.ParseCache
    assert (boosting.read_feature_vectors is models.read_feature_vectors
            is affectmap.read_feature_vectors is tsv.read_feature_vectors)
    assert stats.read_reliability_records is affectmap.read_reliability_records

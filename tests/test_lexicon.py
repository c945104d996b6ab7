import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import parse_outcome, reference_parse
from affectmap.errors import (
    ConfigurationError,
    EmptyAlignmentError,
    ParseError,
    ValidationError,
)
from affectmap.lexicon import (
    BE5,
    VA,
    VAD,
    AlignedLexicon,
    EmotionFormat,
    Lexicon,
    align,
    canonical_word,
    concat,
    parse_lexicon,
    project,
)

VAD_COLUMNS = {
    "word": "word",
    "valence": "valence",
    "arousal": "arousal",
    "dominance": "dominance",
}


def tsv(*rows):
    return ("\n".join("\t".join(r) for r in rows) + "\n").encode("utf-8")


BASIC = tsv(
    ("word", "valence", "arousal", "dominance"),
    ("calm", "7.0", "2.5", "6.0"),
    ("rage", "2.0", "8.0", "5.5"),
)


class TestEmotionFormat:
    def test_builtins(self):
        assert VAD.variables == ("valence", "arousal", "dominance")
        assert VAD.scale_low == 1.0 and VAD.scale_high == 9.0
        assert BE5.variables == ("joy", "anger", "sadness", "fear", "disgust")
        assert BE5.scale_low == 1.0 and BE5.scale_high == 5.0
        assert VA.size == 2

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValidationError):
            EmotionFormat("x", (), 1, 5)
        with pytest.raises(ValidationError):
            EmotionFormat("x", ("a", "a"), 1, 5)
        with pytest.raises(ValidationError):
            EmotionFormat("x", ("a",), 5, 1)

    def test_bounds_are_stored_as_floats(self):
        fmt = EmotionFormat("x", ["a", "b"], 1, np.float64(9))
        assert fmt.variables == ("a", "b")
        assert (type(fmt.scale_low), type(fmt.scale_high)) == (float, float)
        assert fmt == EmotionFormat("x", ("a", "b"), 1.0, 9.0)

    @pytest.mark.parametrize("args, named", [
        ((5, ("a",), 1, 9), "'name' must be a string"),
        (("x", "ab", 1, 9), "'variables' must be a list of strings"),
        (("x", ("a", 1), 1, 9), "'variables' must be a list of strings"),
        (("x", (), 1, 9), "'variables' must be a list of strings"),
        (("x", ("a",), "1", 9), "'scale_low' must be a finite number"),
        (("x", ("a",), True, 9), "'scale_low' must be a finite number"),
        (("x", ("a",), np.float32(1), 9), "'scale_low' must be a finite number"),
        (("x", ("a",), 1, float("nan")), "'scale_high' must be a finite number"),
        (("x", ("a",), 1, float("inf")), "'scale_high' must be a finite number"),
        (("x", ("a",), 1, 10**400), "'scale_high' must be a finite number"),
    ], ids=["name-int", "variables-string", "variables-int-entry", "variables-empty",
            "scale_low-string", "scale_low-bool", "scale_low-float32", "scale_high-nan", "scale_high-inf",
            "scale_high-huge-int"])
    def test_mistyped_fields_are_refused_by_name(self, args, named):
        with pytest.raises(ValidationError, match=named):
            EmotionFormat(*args)

    def test_to_dict_round_trips_through_json(self):
        for fmt in (VAD, VA, BE5, EmotionFormat("x", ("a",), -1, 1)):
            d = json.loads(json.dumps(fmt.to_dict()))
            assert list(d) == ["name", "variables", "scale_low", "scale_high"]
            assert EmotionFormat(**d) == fmt


class TestParse:
    def test_basic(self):
        lex = parse_lexicon(BASIC, VAD, VAD_COLUMNS, language="en")
        assert lex.words == ("calm", "rage")
        assert lex.vector("calm").tolist() == [7.0, 2.5, 6.0]
        assert lex.language == "en"

    def test_column_remap_and_extra_columns(self):
        data = tsv(
            ("id", "Word", "V", "A", "D", "junk"),
            ("1", "calm", "7", "2.5", "6", "zzz"),
        )
        lex = parse_lexicon(
            data,
            VAD,
            {"word": "Word", "valence": "V", "arousal": "A", "dominance": "D"},
        )
        assert lex.vector("calm").tolist() == [7.0, 2.5, 6.0]

    def test_missing_binding_is_config_error(self):
        with pytest.raises(ConfigurationError):
            parse_lexicon(BASIC, VAD, {"word": "word", "valence": "valence"})

    def test_unknown_column_is_config_error(self):
        cols = dict(VAD_COLUMNS, valence="nope")
        with pytest.raises(ConfigurationError, match="nope"):
            parse_lexicon(BASIC, VAD, cols)

    def test_non_numeric_cell(self):
        data = tsv(("word", "valence", "arousal", "dominance"), ("x", "7", "abc", "5"))
        with pytest.raises(ParseError, match="line 2"):
            parse_lexicon(data, VAD, VAD_COLUMNS)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, cell):
        # clamp would let NaN through: it is neither below nor above the bounds
        data = BASIC + f"y\t5\t{cell}\t5\n".encode()
        with pytest.raises(ParseError, match="line 4.*non-finite"):
            parse_lexicon(data, VAD, VAD_COLUMNS, clamp=True)

    def test_short_row(self):
        data = BASIC + b"onlyonefield\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_lexicon(data, VAD, VAD_COLUMNS)

    def test_crlf_normalized(self):
        data = BASIC.replace(b"\n", b"\r\n")
        lex = parse_lexicon(data, VAD, VAD_COLUMNS)
        assert lex.words == ("calm", "rage")

    def test_out_of_bounds_rejected(self):
        data = tsv(("word", "valence", "arousal", "dominance"), ("x", "9.5", "2", "5"))
        with pytest.raises(ValidationError, match="9.5"):
            parse_lexicon(data, VAD, VAD_COLUMNS)

    def test_clamp_optin_with_diagnostic(self):
        data = tsv(("word", "valence", "arousal", "dominance"), ("x", "9.5", "2", "5"))
        diags = []
        lex = parse_lexicon(data, VAD, VAD_COLUMNS, clamp=True, diagnostics=diags)
        assert lex.vector("x")[0] == 9.0
        assert len(diags) == 1 and diags[0].kind == "clamped"

    def test_duplicates_averaged_with_warning(self):
        data = tsv(
            ("word", "valence", "arousal", "dominance"),
            ("x", "2", "2", "2"),
            ("x", "4", "6", "2"),
        )
        diags = []
        lex = parse_lexicon(data, VAD, VAD_COLUMNS, diagnostics=diags)
        assert len(lex) == 1
        assert lex.vector("x").tolist() == [3.0, 4.0, 2.0]
        assert [d.kind for d in diags] == ["duplicate"]

    def test_canonicalization_merges(self):
        # NFC: e + combining acute == precomposed e-acute
        data = tsv(
            ("word", "valence", "arousal", "dominance"),
            ("café", "2", "2", "2"),
            ("café ", "4", "4", "4"),
        )
        lex = parse_lexicon(data, VAD, VAD_COLUMNS)
        assert lex.words == ("café",)
        assert lex.vector("café").tolist() == [3.0, 3.0, 3.0]

    def test_lowercase_optin(self):
        data = tsv(("word", "valence", "arousal", "dominance"), ("Calm", "7", "2", "6"))
        assert parse_lexicon(data, VAD, VAD_COLUMNS).words == ("Calm",)
        assert parse_lexicon(data, VAD, VAD_COLUMNS, lowercase=True).words == ("calm",)

    def test_source_scale_rescaling(self):
        # file on [0,1], format on [1,9]
        data = tsv(
            ("word", "valence", "arousal", "dominance"),
            ("x", "0", "0.5", "1"),
        )
        lex = parse_lexicon(data, VAD, VAD_COLUMNS, scale=(0.0, 1.0))
        assert lex.vector("x").tolist() == [1.0, 5.0, 9.0]

    def test_empty_word_rejected(self):
        data = tsv(("word", "valence", "arousal", "dominance"), (" ", "2", "2", "2"))
        with pytest.raises(ParseError, match="empty word"):
            parse_lexicon(data, VAD, VAD_COLUMNS)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_lexicon(b"", VAD, VAD_COLUMNS)

    def test_file_object_input(self):
        lex = parse_lexicon(io.BytesIO(BASIC), VAD, VAD_COLUMNS)
        assert len(lex) == 2

    def test_non_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_lexicon(b"\xff\xfe" + BASIC, VAD, VAD_COLUMNS)

    @pytest.mark.parametrize("data", [b"word\tvalence\tarousal\tdominance\n",
                                      b"word\tvalence\tarousal\tdominance\n\n\n"])
    def test_header_only_parses_quietly(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no block of nothing goes to numpy's parser
            assert len(parse_lexicon(data, VAD, VAD_COLUMNS)) == 0

    def test_text_stream_is_refused(self):
        """Sources are bytes: a path, bytes or a binary stream."""
        with pytest.raises(ConfigurationError, match="cannot read lexicon from StringIO"):
            parse_lexicon(io.StringIO(BASIC.decode("utf-8")), VAD, VAD_COLUMNS)


_HEADER = ("word", "valence", "arousal", "dominance")

# name: (file bytes, parse options, words, values, diagnostic kinds)
_PARSE_CASES = {
    "duplicate": (
        tsv(_HEADER, ("x", "2", "2", "2"), ("y", "1", "9", "5"), ("x", "4", "6", "2")),
        {}, ("x", "y"), [[3.0, 4.0, 2.0], [1.0, 9.0, 5.0]], ["duplicate"],
    ),
    "clamp": (
        tsv(_HEADER, ("x", "9.5", "2", "0.5")),
        {"clamp": True}, ("x",), [[9.0, 2.0, 1.0]], ["clamped", "clamped"],
    ),
    "clamped-duplicate": (
        tsv(_HEADER, ("x", "9.5", "2", "2"), ("x", "8", "4", "0")),
        {"clamp": True}, ("x",), [[8.5, 3.0, 1.5]], ["clamped", "clamped", "duplicate"],
    ),
    "crlf": (
        BASIC.replace(b"\n", b"\r\n"),
        {}, ("calm", "rage"), [[7.0, 2.5, 6.0], [2.0, 8.0, 5.5]], [],
    ),
    "header-only": (tsv(_HEADER), {}, (), np.empty((0, 3)), []),
    "trailing-empty-lines": (
        BASIC + b"\n\n\n",
        {}, ("calm", "rage"), [[7.0, 2.5, 6.0], [2.0, 8.0, 5.5]], [],
    ),
    "scale": (
        tsv(_HEADER, ("x", "0", "0.5", "1"), ("y", "0.25", "0.75", "0.125")),
        {"scale": (0.0, 1.0)}, ("x", "y"), [[1.0, 5.0, 9.0], [3.0, 7.0, 2.0]], [],
    ),
    "separator-padding": (
        tsv(_HEADER, ("x", "\x1c2\x1f", " 3 ", "\u20034")),
        {}, ("x",), [[2.0, 3.0, 4.0]], [],
    ),
}

# name: (file bytes, parse options, exception, message fragment); the
# earliest fault by line wins, whatever its kind
_FAULT_CASES = {
    "range-before-short-row": (
        tsv(_HEADER, ("x", "9.5", "2", "2"), ("y", "1")),
        {}, ValidationError, "line 2: valence=9.5",
    ),
    "short-row-before-range": (
        tsv(_HEADER, ("y", "1"), ("x", "9.5", "2", "2")),
        {}, ParseError, "expected at least 4",
    ),
    "padded-non-numeric": (
        tsv(_HEADER, ("x", "\x1cfive ", "2", "2")),
        {}, ParseError, "non-numeric value 'five'",
    ),
    "non-finite-after-clamp": (
        tsv(_HEADER, ("x", "9.5", "2", "2"), ("y", " nan", "2", "2")),
        {"clamp": True}, ParseError, "non-finite value 'nan'",
    ),
}


class TestParseMatchesReference:
    """parse_lexicon gives the reference parser's words, value bits,
    diagnostics and exceptions."""

    @pytest.mark.parametrize("case", sorted(_PARSE_CASES))
    def test_case(self, case):
        data, options, words, values, kinds = _PARSE_CASES[case]
        diags = []
        lex = parse_lexicon(data, VAD, VAD_COLUMNS, diagnostics=diags, **options)
        assert lex.words == words
        assert lex.values.tobytes() == np.asarray(values, dtype=np.float64).tobytes()
        assert [d.kind for d in diags] == kinds
        assert parse_outcome(parse_lexicon, data, VAD, **options) == parse_outcome(
            reference_parse, data, VAD, **options
        )

    @pytest.mark.parametrize("case", sorted(_FAULT_CASES))
    def test_fault(self, case):
        data, options, error, fragment = _FAULT_CASES[case]
        with pytest.raises(error, match=fragment):
            parse_lexicon(data, VAD, VAD_COLUMNS, **options)
        assert parse_outcome(parse_lexicon, data, VAD, **options) == parse_outcome(
            reference_parse, data, VAD, **options
        )


def test_parse_holds_little_more_than_the_lexicon(tmp_path):
    """The source is read block by block, so on a generated 40,000-row
    lexicon the parse peaks at no more than 1.5 times what the returned
    lexicon holds (its words, word index and values), as tracemalloc sees
    it; decoding and splitting the whole text first peaked at 2.4 times."""
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 9.0, size=(40_000, 3)).round(4)
    path = tmp_path / "big.tsv"
    path.write_text("word\tvalence\tarousal\tdominance\n" + "".join(
        f"w{i:05d}{chr(97 + i % 26) * (i % 7)}\t{a:.4f}\t{b:.4f}\t{c:.4f}\n"
        for i, (a, b, c) in enumerate(values.tolist())), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lex = parse_lexicon(path, VAD, VAD_COLUMNS)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(lex) == 40_000 and lex.values.tobytes() == values.tobytes()
    assert held > lex.values.nbytes
    assert peak <= 1.5 * held


class TestLexicon:
    def test_values_read_only(self):
        lex = parse_lexicon(BASIC, VAD, VAD_COLUMNS)
        with pytest.raises(ValueError):
            lex.values[0, 0] = 1.0

    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            Lexicon(BE5, ["a"], np.array([[0.5, 2, 2, 2, 2]]))

    def test_nan_rating_names_its_word(self):
        values = np.array([[2.0, 2.0], [2.0, np.nan]])
        with pytest.raises(ValidationError, match="'b'"):
            Lexicon(VA, ["a", "b"], values)

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValidationError):
            Lexicon(VA, ["a", "a"], np.array([[2.0, 2.0], [3.0, 3.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Lexicon(VA, ["a"], np.array([[2.0, 2.0, 2.0]]))


class TestAlign:
    def test_intersection_in_first_order(self):
        a = Lexicon(VAD, ["x", "y", "z"], np.tile([5.0, 5.0, 5.0], (3, 1)), language="en")
        b = Lexicon(BE5, ["z", "x"], np.tile([3.0] * 5, (2, 1)), language="en")
        al = align(a, b)
        assert al.words == ("x", "z")
        assert al.source_format is VAD and al.target_format is BE5
        assert al.language == "en"

    def test_no_overlap(self):
        a = Lexicon(VAD, ["x"], [[5.0, 5.0, 5.0]], language="en")
        b = Lexicon(BE5, ["y"], [[3.0] * 5], language="en")
        with pytest.raises(EmptyAlignmentError):
            align(a, b)

    def test_same_format_rejected(self):
        a = Lexicon(VAD, ["x"], [[5.0, 5.0, 5.0]])
        with pytest.raises(ConfigurationError):
            align(a, a)

    def test_language_mismatch_guard(self):
        a = Lexicon(VAD, ["x"], [[5.0, 5.0, 5.0]], language="en")
        b = Lexicon(BE5, ["x"], [[3.0] * 5], language="de")
        with pytest.raises(ConfigurationError):
            align(a, b)
        al = align(a, b, allow_language_mismatch=True)
        assert al.language == "multi"


class TestAlignedLexicon:
    def _make(self):
        return AlignedLexicon(
            ["a", "b"],
            VAD,
            BE5,
            [[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]],
            [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0]],
            language="en",
        )

    def test_swapped(self):
        al = self._make()
        sw = al.swapped()
        assert sw.source_format is BE5 and sw.target_format is VAD
        assert np.array_equal(sw.source_matrix, al.target_matrix)
        assert sw.words == al.words
        assert sw.row_languages == al.row_languages

    def test_same_format_names_rejected(self):
        with pytest.raises(ValidationError):
            AlignedLexicon(["a"], VAD, VAD, [[2.0] * 3], [[2.0] * 3])


class TestProject:
    AL = AlignedLexicon(["a"], VAD, BE5, [[2.0, 3.0, 4.0]], [[1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_lexicon_projection_to_builtin(self):
        out = project(self.AL, ["valence", "arousal"], "source")
        assert out.source_format is VA and out.target_format is BE5
        assert out.source_matrix.tolist() == [[2.0, 3.0]]

    def test_explicit_sides(self):
        out = project(self.AL, ["joy"], "target")
        assert out.source_format is VAD
        assert out.target_format.variables == ("joy",)
        assert out.target_matrix.tolist() == [[1.0]]
        with pytest.raises(ConfigurationError, match="unknown side 'auto'"):
            project(self.AL, ["joy"], "auto")

    def test_unknown_variable(self):
        with pytest.raises(ConfigurationError):
            project(self.AL, ["joy"], "source")

    def test_order_follows_keep(self):
        out = project(self.AL, ["dominance", "valence"], "source")
        assert out.source_matrix.tolist() == [[4.0, 2.0]]


class TestConcat:
    def test_row_languages_carried(self):
        a = AlignedLexicon(
            ["a"], VAD, BE5, [[2.0] * 3], [[2.0] * 5], language="en"
        )
        b = AlignedLexicon(
            ["b"], VAD, BE5, [[3.0] * 3], [[3.0] * 5], language="de"
        )
        both = concat([a, b])
        assert both.language == "multi"
        assert both.row_languages == ("en", "de")
        assert len(both) == 2

    def test_duplicate_words_allowed(self):
        a = AlignedLexicon(["a"], VAD, BE5, [[2.0] * 3], [[2.0] * 5], language="en")
        both = concat([a, a])
        assert both.words == ("a", "a")

    def test_format_mismatch(self):
        a = AlignedLexicon(["a"], VAD, BE5, [[2.0] * 3], [[2.0] * 5])
        b = AlignedLexicon(["b"], VA, BE5, [[2.0] * 2], [[2.0] * 5])
        with pytest.raises(ConfigurationError):
            concat([a, b])


def test_canonical_word():
    assert canonical_word("  x ") == "x"
    assert canonical_word("Grande") == "Grande"
    assert canonical_word("Grande", lowercase=True) == "grande"
    assert canonical_word("café") == "café"

import hashlib
import io
import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_render_lexicon
from affectmap import lexgen
from affectmap.errors import ConfigurationError, EmptyOutputError
from affectmap.experiments import ModelSpec, render_json
from affectmap.lexgen import (
    LexiconBuildJob,
    build_lexicons,
    format_rating,
    render_lexicon,
)
from affectmap.lexicon import BE5, VA, VAD, AlignedLexicon, EmotionFormat, Lexicon, parse_lexicon


def make_training(n=120, seed=0, slope=0.45):
    """VAD -> BE5 where every BE5 variable rides on valence only."""
    rng = np.random.default_rng(seed)
    words = [f"t{i:03d}" for i in range(n)]
    vad = rng.uniform(1.0, 9.0, size=(n, 3))
    be5 = np.clip(3.0 + np.outer(vad[:, 0] - 5.0, np.full(5, slope)), 1.0, 5.0)
    return AlignedLexicon(words, VAD, BE5, vad, be5, language="en")


def make_source(words, seed=1):
    rng = np.random.default_rng(seed)
    return Lexicon(
        VAD, words, rng.uniform(1.0, 9.0, size=(len(words), 3)),
        language="en", source_id="src",
    )


def make_job(source=None, exclusions=(), training=None, mode="monolingual"):
    return LexiconBuildJob(
        mode=mode,
        source_lexicon=source if source is not None else make_source(["alpha", "beta", "gamma"]),
        training=training if training is not None else make_training(),
        model_spec=ModelSpec("lr", "lr"),
        output_name="out.tsv",
        exclusion_sets=list(exclusions),
    )


class TestFormatRating:
    def test_half_rounds_away_from_zero(self):
        assert format_rating(1.0005) == "1.001"
        assert format_rating(2.5135) == "2.514"
        assert format_rating(-1.0005) == "-1.001"

    def test_plain_rounding(self):
        assert format_rating(1.0004) == "1.000"
        assert format_rating(3.14159) == "3.142"
        assert format_rating(2.9996) == "3.000"

    def test_three_decimals_always(self):
        assert format_rating(2.0) == "2.000"
        assert format_rating(5) == "5.000"

    def test_round_trip_quantum(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(1.0, 5.0, size=500):
            assert abs(float(format_rating(v)) - v) <= 5e-4 + 1e-12


class TestRenderLexicon:
    def _lex(self):
        return Lexicon(
            BE5,
            ["mango", "apple", "kiwi"],
            [[3.0, 1.5, 2.0, 1.0, 1.25], [4.2, 1.0, 1.0, 2.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0]],
            language="en",
        )

    def test_header_and_sorted_rows(self):
        text = render_lexicon(self._lex()).decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "word\tjoy\tanger\tsadness\tfear\tdisgust"
        assert [l.split("\t")[0] for l in lines[1:]] == ["apple", "kiwi", "mango"]
        assert lines[3] == "mango\t3.000\t1.500\t2.000\t1.000\t1.250"

    def test_trailing_newline(self):
        assert render_lexicon(self._lex()).endswith(b"\n")

    def test_byte_determinism(self):
        assert render_lexicon(self._lex()) == render_lexicon(self._lex())

    def test_write_then_parse_round_trip(self):
        lex = self._lex()
        columns = {"word": "word", **{v: v for v in BE5.variables}}
        back = parse_lexicon(render_lexicon(lex), BE5, columns)
        assert set(back.words) == set(lex.words)
        for w in lex.words:
            assert np.all(np.abs(back.vector(w) - lex.vector(w)) <= 5e-4)


def reference_render(lex):
    """The per-cell path render_lexicon must reproduce byte for byte."""
    lines = ["\t".join(("word", *lex.format.variables))]
    for word in sorted(lex.words):
        lines.append("\t".join((word, *(format_rating(v) for v in lex.vector(word)))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _neighbours(v):
    return [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]


# cells a binary/decimal rounding mismatch would hit: decimal ties
# (1.0005 prints as a half but is stored just below it), exact binary
# ties (1.0625 is a half exactly, which "%.3f" rounds to even), their
# neighbours, and both ends of the scale
PINNED = sorted({
    x
    for v in (1.0005, 2.5135, 1.0625, 2.4375, 3.1875, 4.9995, 4.0005, 1.0, 5.0,
              1.0004, 1.0006, 4.9996, 2.0, 3.0)
    for x in _neighbours(v)
    if 1.0 <= x <= 5.0
})

SIGNED = EmotionFormat("S", ("a", "b", "c"), -10.0, 10.0)
_halves = st.integers(-20_000, 20_000).map(lambda k: k / 2000)  # decimal ties and 3-decimal grid
_binary = st.integers(-1280, 1280).map(lambda k: k / 128)  # exact binary values, ties among them
_near = st.tuples(st.one_of(_halves, _binary), st.sampled_from([-np.inf, np.inf])).map(
    lambda t: float(np.nextafter(t[0], t[1]))
)
_cell = st.one_of(st.floats(-10.0, 10.0), _halves, _binary, _near).filter(lambda v: -10 <= v <= 10)


class TestRenderMatchesFormatRating:
    def test_pinned_cells(self):
        values = np.array(PINNED)
        words = [f"w{i:03d}" for i in range(len(values))][::-1]
        lex = Lexicon(BE5, words, np.repeat(values[:, None], 5, axis=1))
        assert render_lexicon(lex) == reference_render(lex)

    @pytest.mark.parametrize("v,expected", [
        (1.0005, "1.001"), (1.0625, "1.063"), (2.4375, "2.438"), (4.9995, "5.000"),
        (1.0, "1.000"), (5.0, "5.000"), (-1.0005, "-1.001"), (-0.0, "-0.000"),
        (-0.0001, "-0.000"),
    ])
    def test_pinned_strings(self, v, expected):
        lex = Lexicon(SIGNED, ["w"], [[v, v, v]])
        assert render_lexicon(lex).decode().split("\n")[1] == "\t".join(["w", *[expected] * 3])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_cell, _cell, _cell), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_any_cells(self, rows, rnd):
        words = [f"w{i:03d}" for i in range(len(rows))]
        rnd.shuffle(words)
        lex = Lexicon(SIGNED, words, np.array(rows, dtype=np.float64))
        assert render_lexicon(lex) == reference_render(lex)


WIDE = EmotionFormat("W", ("a", "b", "c"), -1e7, 1e7)
# cells a few thousandths around some bases: ties at +-0.0005 and their
# neighbours, zeros of either sign, magnitudes of 1e6 and more
_base = st.sampled_from([0.0, -0.0, 1.0, -3.0, 4.9995, 999_999.9995, 1e6, -2.5e6, 123_456.7895])


def _near_base(t):
    base, k, step = t
    v = base + k / 2000
    return float(np.nextafter(v, step * np.inf)) if step else v


@st.composite
def _render_rows(draw):
    """Rows whose cells share a few bases (a narrow span of thousandths,
    printed from a table) or spread over the whole scale (printed cell by
    cell)."""
    bases = draw(st.lists(_base, min_size=1, max_size=3))
    cell = st.one_of(
        st.tuples(st.sampled_from(bases), st.integers(-40, 40), st.sampled_from([-1, 0, 1]))
        .map(_near_base),
        st.sampled_from([-0.0, -0.0001, -0.0004999, -0.0005, 0.0005, -1e6, 1e6]),
        st.floats(-1e7, 1e7),
    )
    return draw(st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=60))


HUGE = EmotionFormat("H", ("a", "b", "c"), -1e308, 1e308)


class TestRenderHugeCells:
    """Cells far past the table's range print through format_rating
    without being scaled by 1000 first, which would overflow."""

    @pytest.mark.parametrize("v", [1e25, -1e306, 1.7976931348623157e308])
    def test_format_rating_prints_every_digit(self, v):
        assert format_rating(v) == "%d.000" % int(Decimal(repr(v)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [
        (1e306, 1e306, 1e306),
        (-1e308, 1e308, 2.5),
        (1.7976e305, -9.99e307, 1e6),
    ])
    def test_huge_cells_print_as_format_rating(self, row):
        lex = Lexicon(HUGE, ["w"], [row])
        expected = "\t".join(["w", *map(format_rating, row)])
        assert render_lexicon(lex) == f"word\ta\tb\tc\n{expected}\n".encode()


class TestRenderMatchesReference:
    """render_lexicon prints the bytes the row-by-row renderer printed."""

    @settings(max_examples=300, deadline=None)
    @given(_render_rows(), st.randoms(use_true_random=False))
    def test_any_cells(self, rows, rnd):
        words = [f"w{i:03d}" for i in range(len(rows))]
        rnd.shuffle(words)
        lex = Lexicon(WIDE, words, np.array(rows, dtype=np.float64))
        assert render_lexicon(lex) == reference_render_lexicon(lex)

    @pytest.mark.parametrize("span", [0, 1 << 16], ids=["cell-by-cell", "table"])
    def test_both_paths(self, span, monkeypatch):
        """A large lexicon on the BE5 scale, with ties, printed from the
        table and, with no table allowed, cell by cell."""
        monkeypatch.setattr(lexgen, "_TABLE_SPAN", span)
        rng = np.random.default_rng(3)
        values = rng.uniform(1.0, 5.0, size=(4000, 5))
        values[::7, 1] = rng.integers(2000, 10_000, size=values[::7].shape[0]) / 2000
        values[::11, 3] = np.nextafter(values[::11, 3], np.inf)
        lex = Lexicon(BE5, [f"w{i:05d}" for i in range(4000)][::-1], values)
        assert render_lexicon(lex) == reference_render_lexicon(lex)

    def test_digest_hashes_each_word_then_a_nul(self):
        for words in ([], ["a"], ["caf\u00e9", "", "x y"]):
            h = hashlib.sha256()
            for word in words:
                h.update(word.encode("utf-8"))
                h.update(b"\x00")
            assert lexgen._digest(words) == h.hexdigest()


class TestBuildJob:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            make_job(mode="bilingual")

    def test_source_format_must_match_training_source(self):
        src = Lexicon(VA, ["a"], [[5.0, 5.0]], language="en")
        with pytest.raises(ConfigurationError, match="match"):
            make_job(source=src)

    def test_same_variables_different_scale_rejected(self):
        shifted = Lexicon(
            BE5, ["a", "b", "c"], [[3.0] * 5, [2.0] * 5, [4.0] * 5], language="en"
        )
        with pytest.raises(ConfigurationError):
            make_job(source=shifted)


class TestBuildLexicon:
    def test_predicts_uncovered_words(self):
        out, manifest, _ = build_lexicons([make_job()], seed=0)[0]
        assert set(out.words) == {"alpha", "beta", "gamma"}
        assert out.format is BE5
        assert manifest["new_words"] == 3
        assert manifest["total_excluded"] == 0

    def test_prediction_quality(self):
        # the training map is exactly linear inside the unclipped region
        src = make_source([f"q{i}" for i in range(50)], seed=7)
        out, _, _ = build_lexicons([make_job(source=src)], seed=0)[0]
        expected = np.clip(3.0 + 0.45 * (src.values[:, 0] - 5.0), 1.0, 5.0)
        mask = (expected > 1.05) & (expected < 4.95)
        got = np.array([out.vector(w)[0] for w in src.words])
        assert np.allclose(got[mask], expected[mask], atol=0.05)

    def test_exclusion_counts(self):
        src = make_source(["w1", "w2", "w3", "w4"])
        ex1 = Lexicon(BE5, ["w1", "w2"], [[2.0] * 5] * 2, source_id="first")
        ex2 = Lexicon(BE5, ["w2", "w3", "zzz"], [[2.0] * 5] * 3, source_id="second")
        out, manifest, _ = build_lexicons([make_job(source=src, exclusions=[ex1, ex2])], seed=0)[0]
        assert out.words == ("w4",)
        assert manifest["new_words"] == 1
        assert manifest["total_excluded"] == 3
        assert manifest["excluded_counts"] == [
            {"source_id": "first", "words_excluded": 2},
            {"source_id": "second", "words_excluded": 2},
        ]

    def test_full_exclusion_is_an_error(self):
        src = make_source(["w1", "w2"])
        ex = Lexicon(BE5, ["w1", "w2"], [[2.0] * 5] * 2)
        with pytest.raises(EmptyOutputError):
            build_lexicons([make_job(source=src, exclusions=[ex])], seed=0)[0]

    def test_outputs_clamped_to_scale(self):
        # slope 0.6: the true map exceeds [1, 5] at extreme valence, so the
        # fitted model predicts out of bounds there and the clamp must bind
        training = make_training(slope=0.6)
        words = [f"e{i}" for i in range(40)]
        vals = np.column_stack(
            [np.linspace(1.0, 9.0, 40), np.full(40, 5.0), np.full(40, 5.0)]
        )
        src = Lexicon(VAD, words, vals, language="en")
        out, _, _ = build_lexicons([make_job(source=src, training=training)], seed=0)[0]
        assert np.all(out.values >= 1.0)
        assert np.all(out.values <= 5.0)
        assert out.values.max() == 5.0
        assert out.values.min() == 1.0

    def test_output_digest_matches_rendered_bytes(self):
        out, manifest, rendered = build_lexicons([make_job()], seed=0)[0]
        assert rendered == render_lexicon(out)
        assert manifest["output_digest"] == hashlib.sha256(rendered).hexdigest()

    def test_rebuild_is_byte_identical(self):
        a_out, a_man, _ = build_lexicons([make_job()], seed=5)[0]
        b_out, b_man, _ = build_lexicons([make_job()], seed=5)[0]
        assert render_lexicon(a_out) == render_lexicon(b_out)
        assert a_man == b_man

    def test_seed_recorded_and_derived(self):
        _, manifest, _ = build_lexicons([make_job()], seed=11)[0]
        assert manifest["seed"] == 11
        assert 0 <= manifest["model_seed"] < 2**63
        _, again, _ = build_lexicons([make_job()], seed=11)[0]
        assert manifest["model_seed"] == again["model_seed"]

    def test_manifest_core_fields(self):
        src = make_source(["a", "b", "c", "d"])
        out, manifest, _ = build_lexicons([make_job(source=src)], seed=0)[0]
        assert manifest["mode"] == "monolingual"
        assert manifest["output_name"] == "out.tsv"
        assert manifest["model"] == {"name": "lr", "kind": "lr", "params": {}}
        assert manifest["training_size"] == 120
        assert manifest["training_language"] == "en"
        assert manifest["source_words"] == 4
        assert manifest["target_format"]["variables"] == list(BE5.variables)
        assert len(manifest["input_digests"]["source_lexicon"]) == 64
        assert len(manifest["input_digests"]["training"]) == 64
        assert manifest["input_digests"]["exclusion_sets"] == []

    def test_input_digest_tracks_content(self):
        _, m1, _ = build_lexicons([make_job(source=make_source(["a", "b"], seed=1))], seed=0)[0]
        _, m2, _ = build_lexicons([make_job(source=make_source(["a", "b"], seed=2))], seed=0)[0]
        assert m1["input_digests"]["source_lexicon"] != m2["input_digests"]["source_lexicon"]
        assert m1["input_digests"]["training"] == m2["input_digests"]["training"]

    def test_manifest_is_json_ready(self):
        _, manifest, _ = build_lexicons([make_job()], seed=0)[0]
        written = render_json(manifest)
        assert json.loads(written) == json.loads(json.dumps(manifest))
        assert written == render_json(build_lexicons([make_job()], seed=0)[0][1])

"""Lexicon job sources: jobs next to each other over one source parse it
once, and the cache keeps no more than the last clean parse."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse
from test_cli import _render_tsv, write_dataset, write_manifest
from affectmap import cli
from affectmap import manifest as manifest_module
from affectmap.cli import main
from affectmap.lexicon import VA, VAD, EmotionFormat, ParseCache, parse_lexicon

HEADER = ["word", "lemma", "valence", "arousal", "dominance"]


def _write_source(path, n=15, seed=4, dominance=None, repeat=False):
    """A VAD source with a second word column; ``dominance`` replaces the
    first row's dominance cell, ``repeat`` makes the last word repeat the
    first."""
    rng = np.random.default_rng(seed)
    rows = [[f"Q{i}", f"lemma{i % 5}", *(repr(float(v)) for v in rng.uniform(1, 9, 3))]
            for i in range(n)]
    if dominance is not None:
        rows[0][4] = dominance
    if repeat:
        rows[-1][0] = rows[0][0]
    path.write_bytes(_render_tsv(HEADER, rows))


VA_COLUMNS = {"word": "word", "valence": "valence", "arousal": "arousal"}
VA_JOB = {"mode": "crosslingual", "training_ids": ["syn"]}
VAD_JOB = {"mode": "monolingual", "training_id": "syn"}


def _workspace(root, first=(), second=(), second_job=VA_JOB, **source):
    """A monolingual VAD job a.tsv and, by default, a cross-lingual VA job
    b.tsv over query.tsv; first and second add keys to their source sides."""
    write_dataset(root)
    _write_source(root / "query.tsv", **source)
    return write_manifest(root, lexicon_jobs=[
        {**VAD_JOB, "output": "a.tsv", "model": "lr",
         "source": {"path": "query.tsv", "format": "VAD", **dict(first)}},
        {**second_job, "output": "b.tsv", "model": "lr",
         "source": {"path": "query.tsv", "format": "VA", "columns": VA_COLUMNS, **dict(second)}},
    ])


@pytest.fixture
def parses(monkeypatch):
    """The paths parse_lexicon is called on, as the manifest calls it."""
    calls = []
    parse = manifest_module.parse_lexicon

    def counting(data, *args, **kwargs):
        calls.append(data.name)
        return parse(data, *args, **kwargs)

    monkeypatch.setattr(manifest_module, "parse_lexicon", counting)
    return calls


def _validate(root, manifest):
    code = main(["validate", "--manifest", str(manifest), "--out", str(root / "o")])
    lines = (root / "o" / "validation.txt").read_text().splitlines()
    return code, {line.split("\t")[1]: line for line in lines}


@pytest.mark.parametrize("second, second_job", [
    ({}, VA_JOB), ({"format": "VAD", "columns": None}, VAD_JOB),
], ids=["projection", "exact"])
def test_two_jobs_over_one_source_parse_it_once(tmp_path, parses, second, second_job):
    manifest = _workspace(tmp_path, second=second, second_job=second_job)
    code, lines = _validate(tmp_path, manifest)
    assert code == 0
    assert lines["lexicon job b.tsv"] == "ok\tlexicon job b.tsv\t15 source words"
    assert parses.count("query.tsv") == 1
    for jobs in ("1", "2"):
        parses.clear()
        argv = ["run", "build-lexicon", "--manifest", str(manifest), "--jobs", jobs]
        assert main([*argv, "--out", str(tmp_path / f"o{jobs}")]) == 0
        assert parses.count("query.tsv") == 1
    for name in ("a.tsv", "b.tsv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_projected_source_equals_a_fresh_parse(tmp_path, parses, monkeypatch):
    """The VA job's source, projected from the VAD job's parse on a
    declared scale, holds the bits and names a parse of its own gives."""
    side = {"scale": [0, 10], "lowercase": True, "language": "xx"}
    manifest = _workspace(tmp_path, first=side, second=side)
    sources = []
    build = cli.build_lexicons
    monkeypatch.setattr(cli, "build_lexicons", lambda build_jobs, *a, **k: (
        sources.extend(j.source_lexicon for j in build_jobs), build(build_jobs, *a, **k))[1])
    assert main(["run", "build-lexicon", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o")]) == 0
    assert parses.count("query.tsv") == 1
    vad, va = sources
    for parse in (parse_lexicon, reference_parse):
        fresh = parse(tmp_path / "query.tsv", VA, VA_COLUMNS, language="xx",
                      source_id="query.tsv", lowercase=True, scale=(0.0, 10.0))
        assert va.words == fresh.words
        assert va.values.tobytes() == fresh.values.tobytes()
        assert (va.format, va.language, va.source_id) == (VA, "xx", "query.tsv")
    assert va.words is vad.words and va._index is vad._index  # one word index per source


INLINE_VA = {"name": "W", "variables": ["valence", "arousal"], "scale_low": 1, "scale_high": 10}


@pytest.mark.parametrize("second", [
    {"lowercase": True},
    {"clamp": True},
    {"scale": [1, 9]},
    {"format": INLINE_VA, "columns": None},
    {"columns": {"word": "lemma", "valence": "valence", "arousal": "arousal"}},
], ids=["lowercase", "clamp", "scale", "format-bounds", "word-column"])
def test_a_side_that_differs_is_parsed_again(tmp_path, parses, second):
    manifest = _workspace(tmp_path, second=second)
    _validate(tmp_path, manifest)
    assert parses.count("query.tsv") == 2


def test_junk_in_dominance_fails_only_the_vad_job(tmp_path, parses):
    manifest = _workspace(tmp_path, dominance="high")
    code, lines = _validate(tmp_path, manifest)
    assert code == 2
    assert lines["lexicon job a.tsv"].startswith("error\tlexicon job a.tsv\tline 2: non-numeric")
    assert lines["lexicon job b.tsv"] == "ok\tlexicon job b.tsv\t15 source words"
    assert parses.count("query.tsv") == 2


def test_a_parse_with_a_diagnostic_is_not_reused(tmp_path, parses):
    """Each job reports the repeated word itself."""
    manifest = _workspace(tmp_path, repeat=True)
    code, lines = _validate(tmp_path, manifest)
    assert code == 0
    assert parses.count("query.tsv") == 2
    report = (tmp_path / "o" / "validation.txt").read_text()
    for job in ("a.tsv", "b.tsv"):
        assert f"warning\tlexicon job {job}\tduplicate\tline 16\tQ0\t" in report


@pytest.mark.parametrize("jobs, batches", [(1, 6), (3, 2)])
def test_cache_holds_one_source_beyond_the_batch(tmp_path, monkeypatch, jobs, batches):
    """With six jobs over six distinct sources, the last three each with a
    repeated word (so their parses are not kept), run build-lexicon never
    holds more than one parsed source beyond the batch being loaded or run,
    counted as each source parse and each batch starts."""
    write_dataset(tmp_path)
    names = [f"s{i}.tsv" for i in range(6)]
    for seed, name in enumerate(names):
        _write_source(tmp_path / name, n=40, seed=seed, repeat=seed >= 3)
    manifest = write_manifest(tmp_path, lexicon_jobs=[
        {"mode": "monolingual", "output": f"out{i}.tsv", "model": "lr", "training_id": "syn",
         "source": {"path": name, "format": "VAD"}} for i, name in enumerate(names)])
    parsed = []  # a weak reference to each source parse, one per job
    batch_from = 0  # parsed[batch_from:] are the sources of the batch being loaded or run
    held = []  # earlier batches' sources still alive, as each parse and batch starts

    def count_held():
        gc.collect()
        held.append(sum(ref() is not None for ref in parsed[:batch_from]))

    parse = manifest_module.parse_lexicon

    def tracking(*args, **kwargs):
        if kwargs["source_id"] in names:
            count_held()
        lex = parse(*args, **kwargs)
        if lex.source_id in names:
            parsed.append(weakref.ref(lex))
        return lex

    build = cli.build_lexicons

    def counting(build_jobs, *args, **kwargs):
        nonlocal batch_from
        count_held()
        batch_from = len(parsed)
        return build(build_jobs, *args, **kwargs)

    monkeypatch.setattr(manifest_module, "parse_lexicon", tracking)
    monkeypatch.setattr(cli, "build_lexicons", counting)
    assert main(["run", "build-lexicon", "--manifest", str(manifest), "--jobs", str(jobs),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(parsed) == 6 and len(held) == 6 + batches
    assert max(held) <= 1


_value = st.floats(0.0, 10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_value, _value, _value), min_size=1, max_size=30),
       st.permutations(["valence", "arousal", "dominance"]),
       st.sampled_from([None, (0.0, 10.0), (-1.0, 12.5)]))
def test_any_projection_matches_its_own_parse(rows, order, scale):
    """Any two of a source's three columns, in any order, on any declared
    scale: the projection holds a fresh parse's bits."""
    data = _render_tsv(["word", "valence", "arousal", "dominance"],
                       [[f"w{i}", *map(repr, row)] for i, row in enumerate(rows)])
    fmt = EmotionFormat("P", ("p", "q"), 0.0, 10.0)
    columns = {"word": "word", "p": order[0], "q": order[1]}
    whole = EmotionFormat("T", ("valence", "arousal", "dominance"), 0.0, 10.0)
    cache = ParseCache()
    calls = []

    def parse(*args, **kwargs):
        calls.append(args[1])
        return parse_lexicon(*args, **kwargs)

    vad_columns = {"word": "word", **{v: v for v in VAD.variables}}
    cache.load(parse, data, whole, vad_columns, scale=scale)
    projected = cache.load(parse, data, fmt, columns, scale=scale, source_id="s")
    assert calls == [whole]
    fresh = reference_parse(data, fmt, columns, scale=scale, source_id="s")
    assert projected.words == fresh.words and projected.source_id == "s"
    assert projected.values.tobytes() == fresh.values.tobytes()

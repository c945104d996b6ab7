"""One load path per lexicon side: a command parses each input file once,
whether the file is a dataset side, a job source or an exclusion, and lets
the parse go after its last read. A parse that raised or reported a
diagnostic is not shared, so each reader reports its own."""

import gc
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse
from test_cli import TABLES_MANIFEST, _render_tsv, write_dataset, write_manifest
from affectmap import cli
from affectmap import manifest as manifest_module
from affectmap.cli import main
from affectmap.lexicon import VA, EmotionFormat, parse_lexicon
from affectmap.manifest import Manifest

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


@pytest.mark.parametrize("argv", [["validate"], ["run", "build-lexicon", "--jobs", "1"],
                                  ["run", "build-lexicon", "--jobs", "2"]],
                         ids=["validate", "build-jobs1", "build-jobs2"])
def test_each_fixture_file_is_parsed_once(tmp_path, parses, argv):
    """The tables fixture reads syn_vad.tsv and syn_be5.tsv as the dataset's
    sides and as its two jobs' sources: one parse of each per command."""
    assert main([*argv, "--manifest", str(TABLES_MANIFEST), "--out", str(tmp_path)]) == 0
    assert sorted(parses) == ["syn_be5.tsv", "syn_vad.tsv"]


def _excluding(root, side, jobs=2):
    """jobs lexicon jobs over query.tsv, each excluding the words of side."""
    write_dataset(root)
    _write_source(root / "query.tsv")
    return write_manifest(root, lexicon_jobs=[
        {**VAD_JOB, "output": f"{i}.tsv", "model": "lr", "exclusions": [side],
         "source": {"path": "query.tsv", "format": "VAD"}} for i in range(jobs)])


def test_a_dataset_side_and_exclusions_share_one_parse(tmp_path, parses):
    manifest = _excluding(tmp_path, {"path": "w_be5.tsv", "format": "BE5"})
    assert _validate(tmp_path, manifest)[0] == 0
    assert parses.count("w_be5.tsv") == 1
    parses.clear()
    assert main(["run", "build-lexicon", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o")]) == 0
    assert parses.count("w_be5.tsv") == 1


def test_a_parse_with_a_clamped_value_is_not_shared(tmp_path, parses):
    """The dataset side and the exclusion each report the clamped cell."""
    side = {"path": "w_be5.tsv", "format": "BE5", "clamp": True}
    manifest = _excluding(tmp_path, side, jobs=1)
    doc = json.loads(manifest.read_text())
    doc["datasets"][0]["sides"][1] = side
    manifest.write_text(json.dumps(doc))
    be5 = tmp_path / "w_be5.tsv"
    lines = be5.read_text().splitlines()
    lines[1] = "\t".join([lines[1].split("\t")[0], "7.0", *lines[1].split("\t")[2:]])
    be5.write_text("\n".join(lines) + "\n")
    assert _validate(tmp_path, manifest)[0] == 0
    assert parses.count("w_be5.tsv") == 2
    report = (tmp_path / "o" / "validation.txt").read_text()
    for reader in ("dataset syn", "lexicon job 0.tsv"):
        assert f"warning\t{reader}\tclamped\tline 2\tw000\t" in report


def test_a_source_of_non_adjacent_batches_stays_parsed_between_them(tmp_path, monkeypatch):
    """Jobs over s0, s1 and s0 again, one per batch: s0 is parsed once,
    held through the second batch and let go after the third job loads."""
    write_dataset(tmp_path)
    for seed, name in enumerate(("s0.tsv", "s1.tsv")):
        _write_source(tmp_path / name, seed=seed)
    manifest = write_manifest(tmp_path, lexicon_jobs=[
        {**VAD_JOB, "output": f"out{i}.tsv", "model": "lr",
         "source": {"path": name, "format": "VAD"}}
        for i, name in enumerate(("s0.tsv", "s1.tsv", "s0.tsv"))])
    parsed = {}  # source file -> a weak reference to its parse
    parse = manifest_module.parse_lexicon

    def tracking(data, *args, **kwargs):
        lex = parse(data, *args, **kwargs)
        assert data.name not in parsed
        parsed[data.name] = weakref.ref(lex)
        return lex

    s0_alive = []  # as each batch starts
    build = cli.build_lexicons

    def counting(build_jobs, *args, **kwargs):
        gc.collect()
        s0_alive.append(parsed["s0.tsv"]() is not None)
        return build(build_jobs, *args, **kwargs)

    monkeypatch.setattr(manifest_module, "parse_lexicon", tracking)
    monkeypatch.setattr(cli, "build_lexicons", counting)
    assert main(["run", "build-lexicon", "--manifest", str(manifest), "--jobs", "1",
                 "--out", str(tmp_path / "o")]) == 0
    assert sorted(parsed) == ["s0.tsv", "s1.tsv", "w_be5.tsv", "w_vad.tsv"]
    assert s0_alive == [True, True, False]
    assert (tmp_path / "o" / "out0.tsv").read_bytes() == (tmp_path / "o" / "out2.tsv").read_bytes()


@pytest.mark.parametrize("jobs, batches", [(1, 6), (3, 2)])
def test_cache_holds_one_source_beyond_the_batch(tmp_path, monkeypatch, jobs, batches):
    """With six jobs over six distinct sources, each read once (the last
    three with a repeated word), run build-lexicon holds no parsed source
    beyond the batch being loaded or run, counted as each source parse and
    each batch starts: a parse with no reads to come is not kept."""
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
    assert max(held) == 0


_value = st.floats(0.0, 10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_value, _value, _value), min_size=1, max_size=30),
       st.permutations(["valence", "arousal", "dominance"]),
       st.sampled_from([None, [0.0, 10.0], [-1.0, 12.5]]))
def test_any_projection_matches_its_own_parse(rows, order, scale):
    """Any two of a source's three columns, in any order, on any declared
    scale: the side a manifest projects from another side's parse holds a
    fresh parse's bits."""
    whole = {"path": "s.tsv", "format": {"name": "T", "variables": ["valence", "arousal",
             "dominance"], "scale_low": 0.0, "scale_high": 10.0}, "scale": scale}
    part = {**whole, "format": {**whole["format"], "name": "P", "variables": ["p", "q"]},
            "columns": {"word": "word", "p": order[0], "q": order[1]}}
    data = _render_tsv(["word", "valence", "arousal", "dominance"],
                       [[f"w{i}", *map(repr, row)] for i, row in enumerate(rows)])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "s.tsv").write_bytes(data)
        manifest = Manifest(seed=0, base_dir=root, output_dir=root, k_folds=2, n_star=20,
                            raw={"lexicon_jobs": [{"source": whole}, {"source": part}]})
        first = manifest._load_side(whole, "a", None)
        projected = manifest._load_side(part, "b", None)
        assert projected._index is first._index  # taken from the first side's parse
        fmt = EmotionFormat("P", ("p", "q"), 0.0, 10.0)
        fresh = reference_parse(root / "s.tsv", fmt, part["columns"], source_id="s.tsv",
                                scale=None if scale is None else tuple(scale))
    assert projected.format == fmt
    assert projected.words == fresh.words and projected.source_id == "s.tsv"
    assert projected.values.tobytes() == fresh.values.tobytes()

"""Declarative experiment manifest: one JSON file binds datasets, model
specs, reliability records, and lexicon build jobs.

Schema (paths are resolved relative to the manifest file):

{
  "seed": 17,                      # required; no implicit randomness
  "output_dir": "out",             # default "out"
  "k_folds": 10,                   # optional
  "n_star": 20,                    # reliability normalization target
  "datasets": [
    {"id": "en_2", "language": "en",
     "sides": [
        {"path": "en2_vad.tsv", "format": "VAD",
         "columns": {"word": "Word", "valence": "Val", ...},  # optional
         "scale": [1, 9],          # optional: file's native interval
         "lowercase": false, "clamp": false},
        {"path": "en2_be5.tsv", "format": "BE5"}
     ]}
  ],
  "reliability": "reliability.tsv",          # optional
  "models": [
    {"name": "lr", "kind": "lr"},
    {"name": "knn", "kind": "knn", "params": {"k": 20}},
    {"name": "ffnn", "kind": "ffnn", "params": {"hidden_sizes": [128, 128]}},
    {"name": "wei", "kind": "boosted", "params": {"stages": 5},
     "features_path": "embeddings.tsv"}      # optional feature input
  ],
  "crosslingual_model": "ffnn",               # optional, default: first model
  "ablation": {"direction": "dim2cat"},       # optional
  "lexicon_jobs": [
    {"mode": "monolingual", "output": "new_lexicon.tsv", "model": "ffnn",
     "training_id": "en_2", "training_direction": "dim2cat",
     "source": {"path": "...", "format": "VAD", ...},
     "exclusions": [{"path": "...", "format": "BE5", ...}]}
  ]
}

A format is a builtin name ("VAD", "VA", "BE5") or an inline object
{"name": ..., "variables": [...], "scale_low": ..., "scale_high": ...}.
Column maps default to the variable names themselves plus "word".
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .errors import ConfigurationError, ParseError, ValidationError
from .experiments import (ModelSpec, _ablation_sources, _crosslingual_training, _orient,
                          _refuse_unknown_keys)
from .lexgen import LexiconBuildJob
from .lexicon import (
    BUILTIN_FORMATS,
    AlignedLexicon,
    EmotionFormat,
    Lexicon,
    align,
    parse_lexicon,
)
from .models.ffnn import check_layers
from .stats import ReliabilityRecord, normalize_shr, read_reliability_records
from .tsv import read_feature_vectors

__all__ = ["DEFAULT_DIRECTION", "Manifest", "load_manifest"]

DEFAULT_DIRECTION = "dim2cat"  # of ablation, a lexicon job and model save


def _format_from(value, owner: str) -> EmotionFormat:
    if isinstance(value, str) and value in BUILTIN_FORMATS:
        return BUILTIN_FORMATS[value]
    if not isinstance(value, dict):
        raise ConfigurationError(f"{owner}'format' must be one of {sorted(BUILTIN_FORMATS)} "
                                 f"or an object, got {value!r}")
    keys = [f.name for f in fields(EmotionFormat)]
    _refuse_unknown_keys(value, keys, owner, "format ")
    try:  # a missing key reads as null, which the check names
        return EmotionFormat(**{key: value.get(key) for key in keys})
    except ValidationError as e:
        raise ConfigurationError(f"{owner}{e}") from None


def _field(raw: dict, key: str, ok, what: str, default=None, owner: str = ""):
    """raw[key] (default when absent) if ok() accepts it, else an error naming key and owner."""
    value = raw.get(key, default)
    if not ok(value):
        raise ConfigurationError(f"{owner}{key!r} must be {what}, got {value!r}")
    return value


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_path(v) -> bool:  # a NUL byte ends every system call on the path
    return _is_str(v) and "\0" not in v


_PATH = "a string without NUL bytes"
# the keys each manifest object may hold; any other fails naming it
_KEYS = {"seed", "output_dir", "k_folds", "n_star", "datasets", "reliability", "models",
         "crosslingual_model", "ablation", "lexicon_jobs"}
_SIDE_KEYS = {"path", "format", "columns", "scale", "lowercase", "clamp", "language"}
_JOB_KEYS = {"mode", "output", "model", "training_direction", "source", "exclusions"}
_TRAINING_KEY = {"monolingual": "training_id", "crosslingual": "training_ids"}  # by job mode


def _is_json(v) -> bool:  # JSON has no NaN or infinity
    try:
        json.dumps(v, allow_nan=False)
    except ValueError:
        return False
    return True


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:  # finite: the bound also refuses ints past the float range
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _list_of(ok, n=None):
    """Accepts a list, of n entries when n is given, whose entries ok() accepts."""
    return lambda v: isinstance(v, list) and n in (None, len(v)) and all(map(ok, v))


def _objects(raw: dict, key: str, n=None, owner: str = "") -> list[dict]:
    what = "a list of JSON objects" if n is None else f"a list of {n} JSON objects"
    return list(_field(raw, key, _list_of(lambda v: isinstance(v, dict), n), what, [], owner))


@dataclass
class Manifest:
    """Parsed and path-resolved manifest. Loading inputs is lazy so that
    `validate` can report every problem instead of stopping at the first.
    Every parse appends its diagnostics to ``diagnostics``."""

    seed: int
    base_dir: Path
    output_dir: Path
    k_folds: int
    n_star: int
    raw: dict
    digest: str = ""  # sha256 of the bytes load_manifest parsed
    diagnostics: list = field(default_factory=list)
    _dataset_cache: dict = field(default_factory=dict, repr=False)
    _models: list | None = field(default=None, repr=False)  # feature files are read once
    _parses: dict = field(default_factory=dict, repr=False)  # side key -> clean parse to share

    # ---- input loading -------------------------------------------------

    def _side(self, side, owner: str, language=None) -> tuple:
        """A side's reuse key (path first), format, column map and parse options. owner
        names the side's dataset or job in errors; a job's side may set its language."""
        if not isinstance(side, dict) or "path" not in side or "format" not in side:
            raise ConfigurationError(f"{owner}: a side needs path and format, got {side!r}")
        owner += ": "
        if language is None:
            language = _field(side, "language", _is_str, "a string", "", owner)
        elif "language" in side:
            raise ConfigurationError(f"{owner}'language' is set on the dataset, not its sides")
        _refuse_unknown_keys(side, _SIDE_KEYS, owner, "side ")
        fmt = _format_from(side["format"], owner)
        path = _field(side, "path", _is_path, _PATH, owner=owner)
        columns = _field(side, "columns", lambda v: v is None or isinstance(v, dict) and all(
            type(c) is str for c in v.values()), "an object of strings", owner=owner)
        if columns is None:
            columns = {"word": "word", **{v: v for v in fmt.variables}}
        scale = _field(side, "scale", lambda v: v is None or _list_of(_is_number, 2)(v),
                       "a pair of finite numbers", owner=owner)
        scale = None if scale is None else (float(scale[0]), float(scale[1]))
        flags = {key: _field(side, key, lambda v: isinstance(v, bool), "true or false", False,
                             owner) for key in ("lowercase", "clamp")}
        data = self.base_dir / path
        key = (data, columns.get("word"), *flags.values(), scale, fmt.scale_low, fmt.scale_high)
        return key, fmt, columns, dict(language=language, source_id=path, scale=scale, **flags)

    @cached_property
    def _reads(self) -> dict:
        """Side key -> reads still to come, counted on first use: one per dataset side, lexicon
        job source and exclusion. A malformed side gets no key."""
        def dicts(v):
            return [x for x in v if isinstance(x, dict)] if isinstance(v, list) else []

        jobs = dicts(self.raw.get("lexicon_jobs"))
        reads = {}
        for side in [*(s for e in dicts(self.raw.get("datasets")) for s in dicts(e.get("sides"))),
                     *(j.get("source") for j in jobs),
                     *(x for j in jobs for x in dicts(j.get("exclusions")))]:
            with suppress(ConfigurationError):  # it fails on its own read
                key = self._side(side, "")[0]
                reads[key] = reads.get(key, 0) + 1
        return reads

    def _load_side(self, side, owner: str, language=None) -> Lexicon:
        """One lexicon. While its key has reads to come, the command's first clean parse
        of the key (no error, no diagnostic) is kept, and a side whose value columns it
        holds takes them by projection, with a fresh parse's bits; any other side is
        parsed. After the key's last read the parse is let go."""
        key, fmt, columns, options = self._side(side, owner, language)
        left = self._reads[key] = self._reads.get(key, 0) - 1
        # the held parse's position of each value column, and the parse; none held, none match
        positions, lex = (self._parses.get if left > 0 else self._parses.pop)(key, ({}, None))
        idx = [positions.get(columns.get(v)) for v in fmt.variables]
        if None not in idx:
            values = lex.values if idx == list(range(lex.format.size)) else lex.values[:, idx]
            return Lexicon(fmt, lex.words, values, language=options["language"],
                           source_id=options["source_id"], _index=lex._index)
        reported = len(self.diagnostics)
        lex = parse_lexicon(key[0], fmt, columns, diagnostics=self.diagnostics, **options)
        if left > 0 and len(self.diagnostics) == reported and key not in self._parses:
            self._parses[key] = ({columns[v]: j for j, v in enumerate(fmt.variables)}, lex)
        return lex

    def dataset_entries(self) -> list[dict]:
        """The dataset entries, each id a string and no id repeated."""
        entries = _objects(self.raw, "datasets")
        ids = [_field(e, "id", _is_str, "a string", owner="dataset: ") for e in entries]
        for n, ds_id in enumerate(ids):
            if ds_id in ids[:n]:
                raise ConfigurationError(f"duplicate dataset id {ds_id!r}")
        return entries

    def load_dataset(self, entry: dict) -> AlignedLexicon:
        """The aligned dataset, loaded once; a failed load is named, not repeated, later."""
        ds_id = entry["id"]
        if ds_id in self._dataset_cache:
            if self._dataset_cache[ds_id] is None:
                raise ConfigurationError(f"dataset {ds_id!r} did not load")
            return self._dataset_cache[ds_id]
        self._dataset_cache[ds_id] = None  # until it has loaded
        owner = f"dataset {ds_id!r}"
        _refuse_unknown_keys(entry, ("id", "language", "sides"), f"{owner}: ")
        sides = _objects(entry, "sides", 2, f"{owner}: ")
        language = _field(entry, "language", _is_str, "a string", "", f"{owner}: ")
        a, b = (self._load_side(s, owner, language) for s in sides)
        self._dataset_cache[ds_id] = align(a, b)
        return self._dataset_cache[ds_id]

    def load_datasets(self, ids=None) -> dict[str, AlignedLexicon]:
        """The datasets ids names (all when None): another's failure is not theirs."""
        return {e["id"]: self.load_dataset(e) for e in self.dataset_entries()
                if ids is None or e["id"] in ids}

    def _widest_format(self) -> int:
        """The most variables a dataset side's format declares; 1 if a dataset is malformed."""
        try:
            return max((len(_format_from(s.get("format"), "").variables) for e in
                        self.dataset_entries() for s in _objects(e, "sides", 2)), default=1)
        except ConfigurationError:
            return 1

    def load_models(self) -> list[ModelSpec]:
        if self._models is not None:
            return list(self._models)
        specs = []
        for entry in _objects(self.raw, "models"):
            name = _field(entry, "name", _is_str, "a string", owner="model: ")
            if any(spec.name == name for spec in specs):
                raise ConfigurationError(f"duplicate model name {name!r}")
            owner = f"model {name!r}: "
            _refuse_unknown_keys(entry, ("name", "kind", "params", "features_path"), owner)
            kind = _field(entry, "kind", _is_str, "a string", owner=owner)
            params = _field(entry, "params", lambda v: isinstance(v, dict), "an object", {}, owner)
            path = _field(entry, "features_path", lambda v: v is None or _is_path(v), _PATH,
                          owner=owner)
            features = read_feature_vectors(self.base_dir / path) if path else None
            spec = ModelSpec(name=name, kind=kind, params=dict(params), features=features)
            model = spec.build(0)  # bad params fail here, before any run starts
            if spec.kind in ("ffnn", "boosted"):  # its layers at their real widths
                width, boosted = self._widest_format(), spec.kind == "boosted"
                sizes = [len(next(iter(features.values()))) if features else width,
                         *(model.base_config if boosted else model.config).hidden_sizes,
                         1 if boosted else width]  # a boosted base net has one output
                check_layers(sizes, f"{owner}cannot allocate a network of layer sizes {sizes}",
                             ConfigurationError)
            # a param the model ignores, such as a seed, is still recorded in build manifests
            _field(entry, "params", _is_json, "free of NaN and infinity", {}, owner)
            specs.append(spec)
        self._models = specs
        return list(specs)

    def load_reliability(self) -> list[ReliabilityRecord] | None:
        """The reliability records, normalized to n_star participants."""
        rel = _field(self.raw, "reliability", lambda v: v is None or _is_path(v), _PATH)
        if not rel:
            return None
        records = read_reliability_records(self.base_dir / rel)
        return [normalize_shr(r, self.n_star) for r in records]

    def model(self, name, what: str = "model", ratings: bool = True) -> ModelSpec:
        """The model called name (None: the first), which what names in errors.
        Trained from ratings, it may not read features_path."""
        spec = next((s for s in self.load_models() if name in (None, s.name)), None)
        if spec is None:
            raise ConfigurationError(f"{what} {name!r} is not a defined model")
        if ratings and spec.features is not None:
            raise ConfigurationError(f"{what} {name!r} reads features_path: only run monolingual "
                                     "and crosslingual train a feature-input model")
        return spec

    def crosslingual_spec(self) -> ModelSpec:  # which may read features_path
        return self.model(self.raw.get("crosslingual_model"), "crosslingual_model", False)

    def ablation_direction(self, datasets: dict[str, AlignedLexicon]) -> str:
        """The ablation direction, once ``datasets`` pass run_ablation's checks of it."""
        direction = self.raw.get("ablation", {}).get("direction", DEFAULT_DIRECTION)
        try:
            _ablation_sources(datasets, direction)
        except ConfigurationError as e:
            raise ConfigurationError(f"ablation: 'direction': {e}") from None
        return direction

    # ---- lexicon build jobs --------------------------------------------

    def lexicon_job_entries(self) -> list[dict]:
        """The lexicon job entries. Each output names a file directly in
        output_dir, and no two files a run writes there share a name."""
        entries = _objects(self.raw, "lexicon_jobs")
        planned = {"run_meta.json": "the run metadata", "validation.txt": "the validation report"}
        for output in (e["output"] for e in entries if _is_str(e.get("output"))):
            job, name = f"lexicon job {output!r}", Path(output).name
            if not _is_path(output) or name in ("", "..") or Path(output) != Path(name):
                raise ConfigurationError(f"{job}: 'output' must name a file directly in "
                                         f"output_dir, without a NUL byte, got {output!r}")
            for file, what in ((name, job), (name + ".manifest.json", f"{job} build manifest")):
                if file in planned:
                    raise ConfigurationError(
                        f"duplicate lexicon job output {file!r} ({planned[file]} and {what})")
                planned[file] = what
        return entries

    def build_job(self, entry: dict) -> LexiconBuildJob:
        job = f"lexicon job {entry.get('output')!r}"
        owner = f"{job}: "
        mode, output, model = (_field(entry, k, _is_str, "a string", owner=owner)
                               for k in ("mode", "output", "model"))
        if mode == "monolingual":
            ids = [_field(entry, "training_id", _is_str, "a dataset id", owner=owner)]
        elif mode == "crosslingual":
            ids = _field(entry, "training_ids", lambda v: bool(v) and _list_of(_is_str)(v),
                         "a non-empty list of dataset ids", owner=owner)
        else:
            raise ConfigurationError(f"{owner}unknown mode {mode!r}")
        _refuse_unknown_keys(entry, {*_JOB_KEYS, _TRAINING_KEY[mode]}, owner)  # not the other's
        spec = self.model(model, f"{owner}model")  # a job predicts from the source's ratings
        direction = _field(entry, "training_direction", _is_str, "a string", DEFAULT_DIRECTION,
                           owner)
        datasets = self.load_datasets(ids)
        training = (_orient(datasets, ids[0], direction) if mode == "monolingual"
                    else _crosslingual_training(datasets, ids, direction))

        source = self._load_side(entry.get("source"), f"{job} source")
        exclusions = [self._load_side(x, f"{job} exclusion")
                      for x in _objects(entry, "exclusions", owner=owner)]
        return LexiconBuildJob(mode=mode, source_lexicon=source, training=training,
                               model_spec=spec, output_name=output, exclusion_sets=exclusions)


def load_manifest(path, overrides: dict | None = None) -> Manifest:
    """Read and structurally validate a manifest file.

    overrides (from --set/--seed/--out) patch top-level keys; dotted keys
    patch one level deep.
    """
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as e:
        raise OSError(f"cannot read manifest {path}: {e}") from e
    try:
        raw = json.loads(raw_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # undecodable, not JSON, too deep or too long
        raise ParseError(f"manifest {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("manifest root must be a JSON object")
    for key, value in (overrides or {}).items():
        if "." in key:
            head, tail = key.split(".", 1)
            node = raw.setdefault(head, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"cannot override {key!r}: {head!r} is not an object")
            node[tail] = value
        else:
            raw[key] = value
    _refuse_unknown_keys(raw, _KEYS, "manifest: ")
    if "seed" not in raw:
        raise ConfigurationError("manifest must declare a seed (no implicit randomness)")
    seed = _field(raw, "seed", _is_int, "an integer")
    k_folds = _field(raw, "k_folds", lambda v: _is_int(v) and v >= 2, "an integer >= 2", 10)
    n_star = _field(raw, "n_star", lambda v: _is_int(v) and 1 <= v <= sys.float_info.max,
                    "a positive integer in the float range", 20)
    ablation = _field(raw, "ablation", lambda v: isinstance(v, dict), "a JSON object", {})
    _refuse_unknown_keys(ablation, ("direction",), "ablation: ")
    _field(ablation, "direction", _is_str, "a string", DEFAULT_DIRECTION, "ablation: ")
    base_dir = path.resolve().parent
    output_dir = base_dir / _field(raw, "output_dir", _is_path, _PATH, "out")  # kept if absolute
    return Manifest(
        seed=seed,
        base_dir=base_dir,
        output_dir=output_dir,
        k_folds=k_folds,
        n_star=n_star,
        raw=raw,
        digest=hashlib.sha256(raw_bytes).hexdigest(),
    )

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

import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .errors import ConfigurationError, ParseError
from .experiments import ModelSpec, _crosslingual_training, _orient
from .lexgen import LexiconBuildJob
from .lexicon import (
    BUILTIN_FORMATS,
    AlignedLexicon,
    EmotionFormat,
    Lexicon,
    ParseCache,
    align,
    parse_lexicon,
)
from .models.boosting import read_feature_vectors
from .stats import ReliabilityRecord, normalize_shr, read_reliability_records

__all__ = ["Manifest", "load_manifest"]


def _format_from(value, owner: str) -> EmotionFormat:
    if isinstance(value, str) and value in BUILTIN_FORMATS:
        return BUILTIN_FORMATS[value]
    if not isinstance(value, dict):
        raise ConfigurationError(f"{owner}'format' must be one of {sorted(BUILTIN_FORMATS)} "
                                 f"or an object, got {value!r}")
    return EmotionFormat(
        _field(value, "name", _is_str, "a string", owner=owner),
        tuple(_field(value, "variables", _list_of(_is_str), "a list of strings", owner=owner)),
        *(float(_field(value, key, _is_number, "a finite number", owner=owner))
          for key in ("scale_low", "scale_high")),
    )


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
_SIDE_KEYS = {"path", "format", "columns", "scale", "lowercase", "clamp"}


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
    `validate` can report every problem instead of stopping at the first."""

    seed: int
    base_dir: Path
    output_dir: Path
    k_folds: int
    n_star: int
    raw: dict
    source_path: Path | None = None
    _dataset_cache: dict = field(default_factory=dict, repr=False)
    _models: list | None = field(default=None, repr=False)  # feature files are read once
    _sources: ParseCache = field(default_factory=ParseCache, repr=False)  # of lexicon jobs

    # ---- input loading -------------------------------------------------

    def _load_side(self, side, owner: str, diagnostics, language=None, cached=False) -> Lexicon:
        """One lexicon; owner names its dataset or lexicon job in errors. A
        job's side may set its language; a dataset's sides take the dataset's."""
        if not isinstance(side, dict) or "path" not in side or "format" not in side:
            raise ConfigurationError(f"{owner}: a side needs path and format, got {side!r}")
        owner += ": "
        if language is None:
            language = _field(side, "language", _is_str, "a string", "", owner)
        elif "language" in side:
            raise ConfigurationError(f"{owner}'language' is set on the dataset, not its sides")
        for key in sorted(side.keys() - _SIDE_KEYS - {"language"}):
            raise ConfigurationError(f"{owner}unknown side key {key!r}")
        fmt = _format_from(side["format"], owner)
        path = _field(side, "path", _is_path, _PATH, owner=owner)
        columns = _field(side, "columns", lambda v: v is None or isinstance(v, dict) and all(
            type(c) is str for c in v.values()), "an object of strings", owner=owner)
        if columns is None:
            columns = {"word": "word", **{v: v for v in fmt.variables}}
        scale = _field(side, "scale", lambda v: v is None or _list_of(_is_number, 2)(v),
                       "a pair of finite numbers", owner=owner)
        flags = {key: _field(side, key, lambda v: isinstance(v, bool), "true or false", False,
                             owner) for key in ("lowercase", "clamp")}
        parse = partial(self._sources.load, parse_lexicon) if cached else parse_lexicon
        return parse(
            self.base_dir / path, fmt, columns, language=language,
            source_id=path, scale=None if scale is None else (float(scale[0]), float(scale[1])),
            diagnostics=diagnostics, **flags,
        )

    def dataset_entries(self) -> list[dict]:
        """The dataset entries, each id a string and no id repeated."""
        entries = _objects(self.raw, "datasets")
        ids = [_field(e, "id", _is_str, "a string", owner="dataset: ") for e in entries]
        for n, ds_id in enumerate(ids):
            if ds_id in ids[:n]:
                raise ConfigurationError(f"duplicate dataset id {ds_id!r}")
        return entries

    def load_dataset(self, entry: dict, diagnostics=None) -> AlignedLexicon:
        """The aligned dataset, loaded once; a failed load is named, not repeated, later."""
        ds_id = entry["id"]
        if ds_id in self._dataset_cache:
            if self._dataset_cache[ds_id] is None:
                raise ConfigurationError(f"dataset {ds_id!r} did not load")
            return self._dataset_cache[ds_id]
        self._dataset_cache[ds_id] = None  # until it has loaded
        owner = f"dataset {ds_id!r}"
        sides = _objects(entry, "sides", 2, f"{owner}: ")
        language = _field(entry, "language", _is_str, "a string", "", f"{owner}: ")
        a, b = (self._load_side(s, owner, diagnostics, language) for s in sides)
        self._dataset_cache[ds_id] = align(a, b)
        return self._dataset_cache[ds_id]

    def load_datasets(self) -> dict[str, AlignedLexicon]:
        return {e["id"]: self.load_dataset(e) for e in self.dataset_entries()}

    def load_models(self) -> list[ModelSpec]:
        if self._models is not None:
            return list(self._models)
        specs = []
        for entry in _objects(self.raw, "models"):
            name = _field(entry, "name", _is_str, "a string", owner="model: ")
            if any(spec.name == name for spec in specs):
                raise ConfigurationError(f"duplicate model name {name!r}")
            owner = f"model {name!r}: "
            for key in sorted(entry.keys() - {"name", "kind", "params", "features_path"}):
                raise ConfigurationError(f"{owner}unknown key {key!r}")
            kind = _field(entry, "kind", _is_str, "a string", owner=owner)
            params = _field(entry, "params", lambda v: isinstance(v, dict), "an object", {}, owner)
            path = _field(entry, "features_path", lambda v: v is None or _is_path(v), _PATH,
                          owner=owner)
            features = read_feature_vectors(self.base_dir / path) if path else None
            spec = ModelSpec(name=name, kind=kind, params=dict(params), features=features)
            spec.build(0)  # bad params fail here, before any run starts
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

    def crosslingual_spec(self, specs: list[ModelSpec]) -> ModelSpec:
        name = self.raw.get("crosslingual_model")
        if name is None:
            if not specs:
                raise ConfigurationError("manifest defines no models")
            return specs[0]
        for spec in specs:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"crosslingual_model {name!r} is not a defined model")

    def ablation_direction(self, datasets: dict[str, AlignedLexicon]) -> str:
        """The ablation direction, once each of ``datasets`` is known to offer it."""
        direction = self.raw.get("ablation", {}).get("direction", "dim2cat")
        try:
            for ds_id in datasets:
                _orient(datasets, ds_id, direction)
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

    def build_job(self, entry: dict, diagnostics=None) -> LexiconBuildJob:
        job = f"lexicon job {entry.get('output')!r}"
        owner = f"{job}: "
        mode, output, model = (_field(entry, k, _is_str, "a string", owner=owner)
                               for k in ("mode", "output", "model"))
        specs = {s.name: s for s in self.load_models()}
        if model not in specs:
            raise ConfigurationError(f"{owner}model {model!r} is not a defined model")
        if specs[model].features is not None:  # a job predicts from the source's ratings
            raise ConfigurationError(f"{owner}model {model!r} reads features_path, "
                                     "which lexicon jobs do not support")
        direction = _field(entry, "training_direction", _is_str, "a string", "dim2cat", owner)
        if mode == "monolingual":
            ids = [_field(entry, "training_id", _is_str, "a dataset id", owner=owner)]
        elif mode == "crosslingual":
            ids = _field(entry, "training_ids", lambda v: bool(v) and _list_of(_is_str)(v),
                         "a non-empty list of dataset ids", owner=owner)
        else:
            raise ConfigurationError(f"{owner}unknown mode {mode!r}")
        # only the datasets the job trains on: another's failure is not its own
        entries = {e["id"]: e for e in self.dataset_entries() if e["id"] in ids}
        datasets = {i: self.load_dataset(e, diagnostics) for i, e in entries.items()}
        training = (_orient(datasets, ids[0], direction) if mode == "monolingual"
                    else _crosslingual_training(datasets, ids, direction))

        source = self._load_side(entry.get("source"), f"{job} source", diagnostics, cached=True)
        exclusions = [
            self._load_side(x, f"{job} exclusion", diagnostics)
            for x in _objects(entry, "exclusions", owner=owner)
        ]
        return LexiconBuildJob(
            mode=mode,
            source_lexicon=source,
            training=training,
            model_spec=specs[model],
            output_name=output,
            exclusion_sets=exclusions,
        )


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
    if "seed" not in raw:
        raise ConfigurationError("manifest must declare a seed (no implicit randomness)")
    seed = _field(raw, "seed", _is_int, "an integer")
    k_folds = _field(raw, "k_folds", lambda v: _is_int(v) and v >= 2, "an integer >= 2", 10)
    n_star = _field(raw, "n_star", lambda v: _is_int(v) and v >= 1, "a positive integer", 20)
    ablation = _field(raw, "ablation", lambda v: isinstance(v, dict), "a JSON object", {})
    _field(ablation, "direction", _is_str, "a string", "dim2cat", "ablation: ")
    base_dir = path.resolve().parent
    output_dir = base_dir / _field(raw, "output_dir", _is_path, _PATH, "out")  # kept if absolute
    return Manifest(
        seed=seed,
        base_dir=base_dir,
        output_dir=output_dir,
        k_folds=k_folds,
        n_star=n_star,
        raw=raw,
        source_path=path.resolve(),
    )

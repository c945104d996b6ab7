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
from pathlib import Path

from .errors import ConfigurationError, ParseError
from .experiments import ModelSpec, _orient, _without_dominance
from .lexgen import LexiconBuildJob
from .lexicon import (
    BUILTIN_FORMATS,
    AlignedLexicon,
    Diagnostic,
    EmotionFormat,
    Lexicon,
    align,
    concat,
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

    # ---- input loading -------------------------------------------------

    def _resolve(self, rel) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

    def _load_side(self, side, owner: str, diagnostics: list[Diagnostic] | None) -> Lexicon:
        """One lexicon; owner names its dataset or lexicon job in errors."""
        if not isinstance(side, dict) or "path" not in side or "format" not in side:
            raise ConfigurationError(f"{owner}: a side needs path and format, got {side!r}")
        owner += ": "
        fmt = _format_from(side["format"], owner)
        path = _field(side, "path", _is_str, "a string", owner=owner)
        columns = _field(side, "columns", lambda v: v is None or isinstance(v, dict) and all(
            type(c) is str for c in v.values()), "an object of strings", owner=owner)
        if columns is None:
            columns = {"word": "word", **{v: v for v in fmt.variables}}
        scale = _field(side, "scale", lambda v: v is None or _list_of(_is_number, 2)(v),
                       "a pair of finite numbers", owner=owner)
        flags = {key: _field(side, key, lambda v: isinstance(v, bool), "true or false", False,
                             owner) for key in ("lowercase", "clamp")}
        return parse_lexicon(
            self._resolve(path), fmt, columns, language=side.get("language", ""),
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
        ds_id = entry["id"]
        if ds_id in self._dataset_cache:
            return self._dataset_cache[ds_id]
        owner = f"dataset {ds_id!r}"
        sides = _objects(entry, "sides", 2, f"{owner}: ")
        language = entry.get("language", "")
        a, b = (self._load_side({**s, "language": language}, owner, diagnostics) for s in sides)
        aligned = align(a, b)
        self._dataset_cache[ds_id] = aligned
        return aligned

    def load_datasets(self, diagnostics=None) -> dict[str, AlignedLexicon]:
        return {e["id"]: self.load_dataset(e, diagnostics) for e in self.dataset_entries()}

    def load_models(self) -> list[ModelSpec]:
        if self._models is not None:
            return list(self._models)
        specs = []
        for entry in _objects(self.raw, "models"):
            name = _field(entry, "name", _is_str, "a string", owner="model: ")
            if any(spec.name == name for spec in specs):
                raise ConfigurationError(f"duplicate model name {name!r}")
            owner = f"model {name!r}: "
            kind = _field(entry, "kind", _is_str, "a string", owner=owner)
            params = _field(entry, "params", lambda v: isinstance(v, dict), "an object", {}, owner)
            path = _field(entry, "features_path", lambda v: v is None or _is_str(v), "a string",
                          owner=owner)
            features = read_feature_vectors(self._resolve(path)) if path else None
            spec = ModelSpec(name=name, kind=kind, params=dict(params), features=features)
            spec.build(0)  # bad params fail here, before any run starts
            specs.append(spec)
        self._models = specs
        return list(specs)

    def load_reliability(self, normalized: bool = True) -> list[ReliabilityRecord] | None:
        rel = _field(self.raw, "reliability", lambda v: v is None or _is_str(v), "a string")
        if not rel:
            return None
        records = read_reliability_records(self._resolve(rel))
        if normalized:
            records = [normalize_shr(r, self.n_star) for r in records]
        return records

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
        return _objects(self.raw, "lexicon_jobs")

    def build_job(self, entry: dict, diagnostics=None) -> LexiconBuildJob:
        job = f"lexicon job {entry.get('output')!r}"
        owner = f"{job}: "
        mode, output, model = (_field(entry, k, _is_str, "a string", owner=owner)
                               for k in ("mode", "output", "model"))
        specs = {s.name: s for s in self.load_models()}
        if model not in specs:
            raise ConfigurationError(f"{owner}model {model!r} is not a defined model")
        direction = _field(entry, "training_direction", _is_str, "a string", "dim2cat", owner)
        datasets = self.load_datasets(diagnostics)
        if mode == "monolingual":
            ds_id = _field(entry, "training_id", _is_str, "a dataset id", owner=owner)
            training = _orient(datasets, ds_id, direction)
        elif mode == "crosslingual":
            ids = _field(entry, "training_ids", lambda v: bool(v) and _list_of(_is_str)(v),
                         "a non-empty list of dataset ids", owner=owner)
            training = concat([_without_dominance(_orient(datasets, i, direction)) for i in ids])
        else:
            raise ConfigurationError(f"{owner}unknown mode {mode!r}")

        source = self._load_side(entry.get("source"), f"{job} source", diagnostics)
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
    out = Path(raw.get("output_dir", "out"))
    output_dir = out if out.is_absolute() else base_dir / out
    return Manifest(
        seed=seed,
        base_dir=base_dir,
        output_dir=output_dir,
        k_folds=k_folds,
        n_star=n_star,
        raw=raw,
        source_path=path.resolve(),
    )

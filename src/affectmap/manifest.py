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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, ParseError
from .experiments import ModelSpec
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


def _format_from(value) -> EmotionFormat:
    if isinstance(value, str):
        if value not in BUILTIN_FORMATS:
            raise ConfigurationError(
                f"unknown format {value!r}; builtins: {sorted(BUILTIN_FORMATS)}"
            )
        return BUILTIN_FORMATS[value]
    if isinstance(value, dict):
        try:
            return EmotionFormat(
                value["name"],
                tuple(value["variables"]),
                float(value["scale_low"]),
                float(value["scale_high"]),
            )
        except KeyError as e:
            raise ConfigurationError(f"inline format is missing key {e}") from None
    raise ConfigurationError(f"format must be a name or an object, got {value!r}")


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

    # ---- input loading -------------------------------------------------

    def _resolve(self, rel) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

    def _load_side(
        self, side: dict, language: str, diagnostics: list[Diagnostic] | None
    ) -> Lexicon:
        if "path" not in side or "format" not in side:
            raise ConfigurationError(f"dataset side needs path and format: {side}")
        fmt = _format_from(side["format"])
        columns = side.get("columns")
        if columns is None:
            columns = {"word": "word", **{v: v for v in fmt.variables}}
        scale = side.get("scale")
        if scale is not None:
            scale = (float(scale[0]), float(scale[1]))
        path = self._resolve(side["path"])
        return parse_lexicon(
            path,
            fmt,
            columns,
            language=language,
            source_id=str(side["path"]),
            lowercase=bool(side.get("lowercase", False)),
            clamp=bool(side.get("clamp", False)),
            scale=scale,
            diagnostics=diagnostics,
        )

    def dataset_entries(self) -> list[dict]:
        return list(self.raw.get("datasets", []))

    def load_dataset(self, entry: dict, diagnostics=None) -> AlignedLexicon:
        ds_id = entry["id"]
        if ds_id in self._dataset_cache:
            return self._dataset_cache[ds_id]
        sides = entry.get("sides", [])
        if len(sides) != 2:
            raise ConfigurationError(
                f"dataset {ds_id!r} needs exactly 2 sides, got {len(sides)}"
            )
        language = entry.get("language", "")
        a = self._load_side(sides[0], language, diagnostics)
        b = self._load_side(sides[1], language, diagnostics)
        aligned = align(a, b)
        self._dataset_cache[ds_id] = aligned
        return aligned

    def load_datasets(self, diagnostics=None) -> dict[str, AlignedLexicon]:
        entries = self.dataset_entries()
        ids = [e.get("id") for e in entries]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate dataset ids: {ids}")
        out = {}
        for entry in entries:
            if "id" not in entry:
                raise ConfigurationError(f"dataset entry without id: {entry}")
            out[entry["id"]] = self.load_dataset(entry, diagnostics)
        return out

    def load_models(self) -> list[ModelSpec]:
        specs = []
        for entry in self.raw.get("models", []):
            if "name" not in entry or "kind" not in entry:
                raise ConfigurationError(f"model entry needs name and kind: {entry}")
            features = None
            if entry.get("features_path"):
                features = read_feature_vectors(self._resolve(entry["features_path"]))
            specs.append(
                ModelSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    params=dict(entry.get("params", {})),
                    features=features,
                )
            )
        return specs

    def load_reliability(self, normalized: bool = True) -> list[ReliabilityRecord] | None:
        rel = self.raw.get("reliability")
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

    def ablation_direction(self) -> str:
        return self.raw.get("ablation", {}).get("direction", "dim2cat")

    # ---- lexicon build jobs --------------------------------------------

    def lexicon_job_entries(self) -> list[dict]:
        return list(self.raw.get("lexicon_jobs", []))

    def build_job(self, entry: dict, diagnostics=None):
        from .experiments import directions_for
        from .lexgen import LexiconBuildJob

        for key in ("mode", "output", "model", "source"):
            if key not in entry:
                raise ConfigurationError(f"lexicon job needs {key!r}: {entry}")
        specs = {s.name: s for s in self.load_models()}
        if entry["model"] not in specs:
            raise ConfigurationError(
                f"lexicon job model {entry['model']!r} is not a defined model"
            )
        direction = entry.get("training_direction", "dim2cat")
        datasets = self.load_datasets(diagnostics)

        def oriented(ds_id):
            if ds_id not in datasets:
                raise ConfigurationError(f"unknown training dataset {ds_id!r}")
            options = dict(directions_for(datasets[ds_id]))
            if direction not in options:
                raise ConfigurationError(
                    f"dataset {ds_id!r} has no direction {direction!r}"
                )
            return options[direction]

        if entry["mode"] == "monolingual":
            if "training_id" not in entry:
                raise ConfigurationError("monolingual lexicon job needs training_id")
            training = oriented(entry["training_id"])
        elif entry["mode"] == "crosslingual":
            ids = entry.get("training_ids")
            if not ids:
                raise ConfigurationError("crosslingual lexicon job needs training_ids")
            from .experiments import _without_dominance

            training = concat([_without_dominance(oriented(i)) for i in ids])
        else:
            raise ConfigurationError(f"unknown lexicon job mode {entry['mode']!r}")

        source_entry = dict(entry["source"])
        source = self._load_side(
            source_entry, source_entry.get("language", ""), diagnostics
        )
        exclusions = [
            self._load_side(dict(x), x.get("language", ""), diagnostics)
            for x in entry.get("exclusions", [])
        ]
        return LexiconBuildJob(
            mode=entry["mode"],
            source_lexicon=source,
            training=training,
            model_spec=specs[entry["model"]],
            output_name=entry["output"],
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
    try:
        seed = int(raw["seed"])
    except (TypeError, ValueError):
        raise ConfigurationError(f"seed must be an integer, got {raw['seed']!r}") from None
    k_folds = int(raw.get("k_folds", 10))
    n_star = int(raw.get("n_star", 20))
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

"""Generate new emotion lexicons from trained mapping models.

A build job trains a model on bi-representational data, predicts the
target-format ratings of every word in a mono-format source lexicon that
is not already covered by an exclusion lexicon, clamps the predictions
to the target scale (the only place clamping ever happens), and renders
a sorted, byte-deterministic TSV plus a JSON build manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, EmptyOutputError
from .experiments import ModelSpec, derive_seed
from .lexicon import AlignedLexicon, Lexicon

__all__ = [
    "LexiconBuildJob",
    "build_lexicon",
    "render_lexicon",
    "write_lexicon",
    "write_lexicon_bytes",
    "write_build_manifest",
    "format_rating",
]


@dataclass
class LexiconBuildJob:
    """Everything needed to produce one new lexicon.

    mode is monolingual (training = the best same-language aligned set,
    chosen by the manifest author) or crosslingual (training = a
    multilingual concatenation). Exclusion sets hold words that already
    have target-format ratings and must not be re-predicted.
    """

    mode: str
    source_lexicon: Lexicon
    training: AlignedLexicon
    model_spec: ModelSpec
    output_name: str
    exclusion_sets: list[Lexicon] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("monolingual", "crosslingual"):
            raise ConfigurationError(
                f"mode must be monolingual or crosslingual, got {self.mode!r}"
            )
        src = self.source_lexicon.format
        trn = self.training.source_format
        if src.variables != trn.variables or not (
            src.scale_low == trn.scale_low and src.scale_high == trn.scale_high
        ):
            raise ConfigurationError(
                f"source lexicon format {src.name!r} {src.variables} does not "
                f"match training source format {trn.name!r} {trn.variables}; "
                "project or rescale first"
            )


def format_rating(v: float) -> str:
    """3 decimals, ties away from zero: 1.0005 -> '1.001'.

    Goes through the shortest decimal repr of the float so that values
    that print as exact halves round like exact halves.
    """
    return str(Decimal(repr(float(v))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def render_lexicon(lex: Lexicon) -> bytes:
    """TSV bytes: header, rows sorted lexicographically by word."""
    header = "\t".join(("word", *lex.format.variables))
    lines = [header]
    for word in sorted(lex.words):
        vec = lex.vector(word)
        lines.append("\t".join((word, *(format_rating(v) for v in vec))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_lexicon(lex: Lexicon, path) -> None:
    write_lexicon_bytes(render_lexicon(lex), path)


def write_lexicon_bytes(data: bytes, path) -> None:
    """Write a lexicon already rendered by render_lexicon."""
    path = Path(path)
    try:
        path.write_bytes(data)
    except OSError as e:
        raise OSError(f"cannot write lexicon to {path}: {e}") from e


def _digest_lexicon(lex: Lexicon) -> str:
    h = hashlib.sha256()
    for word in lex.words:
        h.update(word.encode("utf-8"))
        h.update(b"\x00")
    h.update(np.ascontiguousarray(lex.values, dtype="<f8").tobytes())
    return h.hexdigest()


def _digest_aligned(al: AlignedLexicon) -> str:
    h = hashlib.sha256()
    for word in al.words:
        h.update(word.encode("utf-8"))
        h.update(b"\x00")
    h.update(np.ascontiguousarray(al.source_matrix, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(al.target_matrix, dtype="<f8").tobytes())
    return h.hexdigest()


def build_lexicon(job: LexiconBuildJob, seed: int) -> tuple[Lexicon, dict, bytes]:
    """Train, predict uncovered words, clamp, and describe the build.

    Returns the new lexicon, a JSON-ready manifest with the training
    size, per-exclusion-set hit counts, model config, seeds, and content
    digests of all inputs and of the rendered output, and the rendered
    TSV bytes themselves, so the lexicon is rendered once per build.
    """
    model_seed = derive_seed(seed, "lexgen", job.mode, job.model_spec.name, job.output_name)
    model = job.model_spec.build(model_seed)
    model.fit_arrays(job.training.source_matrix, job.training.target_matrix)

    excluded_union: set[str] = set()
    excluded_counts = []
    source_words = set(job.source_lexicon.words)
    for i, ex in enumerate(job.exclusion_sets):
        hits = len(source_words & set(ex.words))
        excluded_counts.append(
            {"source_id": ex.source_id or f"exclusion_{i}", "words_excluded": hits}
        )
        excluded_union.update(ex.words)

    new_words = [w for w in job.source_lexicon.words if w not in excluded_union]
    if not new_words:
        raise EmptyOutputError(
            "every source word is covered by an exclusion set; nothing to build"
        )
    keep_idx = [i for i, w in enumerate(job.source_lexicon.words) if w not in excluded_union]
    pred = model.predict(job.source_lexicon.values[keep_idx])
    fmt = job.training.target_format
    np.clip(pred, fmt.scale_low, fmt.scale_high, out=pred)
    out = Lexicon(
        fmt,
        new_words,
        pred,
        language=job.source_lexicon.language,
        source_id=job.output_name,
    )
    rendered = render_lexicon(out)
    manifest = {
        "mode": job.mode,
        "output_name": job.output_name,
        "model": {
            "name": job.model_spec.name,
            "kind": job.model_spec.kind,
            "params": job.model_spec.params,
        },
        "seed": seed,
        "model_seed": model_seed,
        "training_size": len(job.training),
        "training_language": job.training.language,
        "source_words": len(job.source_lexicon),
        "new_words": len(new_words),
        "total_excluded": len(job.source_lexicon) - len(new_words),
        "excluded_counts": excluded_counts,
        "target_format": {
            "name": fmt.name,
            "variables": list(fmt.variables),
            "scale_low": fmt.scale_low,
            "scale_high": fmt.scale_high,
        },
        "input_digests": {
            "source_lexicon": _digest_lexicon(job.source_lexicon),
            "training": _digest_aligned(job.training),
            "exclusion_sets": [_digest_lexicon(ex) for ex in job.exclusion_sets],
        },
        "output_digest": hashlib.sha256(rendered).hexdigest(),
    }
    return out, manifest, rendered


def write_build_manifest(manifest: dict, path) -> None:
    Path(path).write_bytes(
        json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8") + b"\n"
    )

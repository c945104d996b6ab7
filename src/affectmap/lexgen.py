"""Generate new emotion lexicons from trained mapping models.

A build job trains a model on bi-representational data, predicts the
target-format ratings of every word in a mono-format source lexicon that
is not already covered by an exclusion lexicon, clamps the predictions
to the target scale (the only place clamping ever happens), and renders
a sorted, byte-deterministic TSV plus a JSON build manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import ConfigurationError, EmptyOutputError
from .experiments import ModelSpec, WorkUnit, derive_seed, run_units
from .lexicon import AlignedLexicon, Lexicon

__all__ = [
    "LexiconBuildJob",
    "build_lexicons",
    "render_lexicon",
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
        if not src.same_layout(trn):
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


# "%.3f" rounds a cell's binary value, format_rating its shortest repr;
# they can disagree only where v * 1000 is within rounding error of a
# half, so cells nearer a half than this (in units of 0.001), and cells
# of 1e6 and above, where that error can reach it, go to format_rating.
_TIE_TOLERANCE = 1e-6


def render_lexicon(lex: Lexicon) -> bytes:
    """TSV bytes: header, rows sorted lexicographically by word, each
    cell as format_rating prints it."""
    order = sorted(range(len(lex.words)), key=lex.words.__getitem__)
    values = lex.values[order]
    scaled = values * 1000.0
    plain = (np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_TOLERANCE) & (np.abs(values) < 1e6)
    row_format = "\t".join(["%s"] + ["%.3f"] * lex.format.size)
    lines = ["\t".join(("word", *lex.format.variables))]
    for i, row, ok in zip(order, map(np.ndarray.tolist, values), plain.all(axis=1).tolist()):
        if ok:
            lines.append(row_format % (lex.words[i], *row))
        else:
            lines.append("\t".join((lex.words[i], *map(format_rating, row))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _digest(words, *matrices) -> str:
    h = hashlib.sha256()
    for word in words:
        h.update(word.encode("utf-8"))
        h.update(b"\x00")
    for m in matrices:
        h.update(np.ascontiguousarray(m, dtype="<f8").tobytes())
    return h.hexdigest()


def build_lexicons(build_jobs, seed: int, *, jobs: int = 1) -> list[tuple[Lexicon, dict, bytes]]:
    """Train, predict uncovered words, clamp, and describe each build.

    Each job's fit and prediction is one work unit; the units run on up
    to `jobs` threads. Per job this returns the new lexicon, a JSON-ready
    manifest with the training size, per-exclusion-set hit counts, model
    config, seeds, and content digests of all inputs and of the rendered
    output, and the rendered TSV bytes themselves, so the lexicon is
    rendered once per build.
    """
    units = []
    for job in build_jobs:
        excluded = set().union(*(ex.words for ex in job.exclusion_sets))
        keep_idx = [i for i, w in enumerate(job.source_lexicon.words) if w not in excluded]
        if not keep_idx:
            raise EmptyOutputError(
                "every source word is covered by an exclusion set; nothing to build"
            )
        model_seed = derive_seed(seed, "lexgen", job.mode, job.model_spec.name, job.output_name)
        units.append(WorkUnit(job.model_spec, model_seed, job.training.source_matrix,
                              job.training.target_matrix, job.source_lexicon.values,
                              test_rows=keep_idx))
    return [
        _describe_build(job, seed, unit, pred)
        for job, unit, pred in zip(build_jobs, units, run_units(units, jobs))
    ]


def _describe_build(job: LexiconBuildJob, seed: int, unit: WorkUnit, pred: np.ndarray):
    new_words = [job.source_lexicon.words[i] for i in unit.test_rows]
    fmt, t = job.training.target_format, job.training
    np.clip(pred, fmt.scale_low, fmt.scale_high, out=pred)
    out = Lexicon(
        fmt,
        new_words,
        pred,
        language=job.source_lexicon.language,
        source_id=job.output_name,
    )
    source_words = set(job.source_lexicon.words)
    excluded_counts = [
        {"source_id": ex.source_id or f"exclusion_{i}",
         "words_excluded": len(source_words & set(ex.words))}
        for i, ex in enumerate(job.exclusion_sets)
    ]
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
        "model_seed": unit.seed,
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
            "source_lexicon": _digest(job.source_lexicon.words, job.source_lexicon.values),
            "training": _digest(t.words, t.source_matrix, t.target_matrix),
            "exclusion_sets": [_digest(ex.words, ex.values) for ex in job.exclusion_sets],
        },
        "output_digest": hashlib.sha256(rendered).hexdigest(),
    }
    return out, manifest, rendered

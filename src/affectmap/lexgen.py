"""Generate new emotion lexicons from trained mapping models.

A build job trains a model on bi-representational data, predicts the
target-format ratings of every word in a mono-format source lexicon that
is not already covered by an exclusion lexicon, clamps the predictions
to the target scale (predictions are clamped only here), and renders
a sorted, byte-deterministic TSV plus a JSON build manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from .errors import ConfigurationError, EmptyOutputError
from .experiments import ModelSpec, WorkUnit, derive_seed, run_units
from .lexicon import AlignedLexicon, EmotionFormat, Lexicon

__all__ = [
    "LexiconBuildJob",
    "build_lexicons",
    "predicted_lexicon",
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
    output_name: str  # the file name it writes, which seeds its model
    exclusion_sets: list[Lexicon] = field(default_factory=list)
    keep_rows: list[int] = field(init=False)  # source rows no exclusion covers: one or more

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
                f"match training source format {trn.name!r} {trn.variables}; give the source "
                'side the training source format (for a cross-lingual job, "format": "VA")'
            )
        excluded = set().union(*(ex.words for ex in self.exclusion_sets))
        self.keep_rows = [i for i, w in enumerate(self.source_lexicon.words) if w not in excluded]
        if not self.keep_rows:
            raise EmptyOutputError(f"lexicon job {self.output_name!r}: every source word is "
                                   "covered by an exclusion set; nothing to build")


def format_rating(v: float) -> str:
    """3 decimals, ties away from zero: 1.0005 -> '1.001'.

    Goes through the shortest decimal repr of the float so that values
    that print as exact halves round like exact halves.
    """
    return str(Decimal(repr(float(v))).quantize(Decimal("0.001"), ROUND_HALF_UP, _EVERY_DIGIT))


# "%.3f" rounds a cell's binary value, format_rating its shortest repr;
# they can disagree only where v * 1000 is within rounding error of a
# half, so cells nearer a half than this (in units of 0.001), and cells
# of 1e6 and above, where that error can reach it, go to format_rating.
_TIE_TOLERANCE = 1e-6
_EVERY_DIGIT = Context(prec=312)  # room for every integer digit of a finite float, and 3 more
_TABLE_SPAN = 1 << 16  # widest range of thousandths printed from a table


def render_lexicon(lex: Lexicon) -> bytes:
    """TSV bytes: header, rows sorted lexicographically by word, each
    cell as format_rating prints it."""
    order = sorted(range(len(lex.words)), key=lex.words.__getitem__)
    values = lex.values[order].ravel()
    small = np.abs(values) < 1e6  # larger cells skip the scaling, which could overflow
    scaled = np.where(small, values, 0.0) * 1000.0
    plain = (np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_TOLERANCE) & small
    # away from a tie "%.3f" prints a cell's nearest thousandth, so plain
    # cells take their text from a table of those, when it is the shorter
    # list; a negative cell that rounds to zero prints -0.000. Each cell's
    # text starts with its tab.
    thousandths = np.where(plain, np.rint(scaled), 0.0).astype(np.int64)
    kept = thousandths[plain]
    low, high = (int(kept.min()), int(kept.max())) if kept.size else (0, 0)
    if high - low <= min(_TABLE_SPAN, values.size):
        table = ["\t%.3f" % (k / 1000) for k in range(low, high + 1)] + ["\t-0.000"]
        index = np.where(plain, thousandths - low, 0)  # the rest is overwritten below
        index[np.signbit(values) & (thousandths == 0)] = len(table) - 1
        cells = np.array(table, dtype=object)[index].tolist()
    else:
        cells = list(map("\t%.3f".__mod__, values.tolist()))
    for i in np.flatnonzero(~plain).tolist():
        cells[i] = "\t" + format_rating(values[i])
    size = lex.format.size
    parts = [""] * (len(order) * (size + 2))  # per row: word, its cells, line end
    parts[::size + 2] = np.array(lex.words, dtype=object)[order].tolist()
    for j in range(size):
        parts[j + 1::size + 2] = cells[j::size]
    parts[size + 1::size + 2] = ["\n"] * len(order)
    header = "\t".join(("word", *lex.format.variables)) + "\n"
    return (header + "".join(parts)).encode("utf-8")


def _digest(words, *matrices) -> str:
    h = hashlib.sha256()
    h.update("\0".join([*words, ""]).encode("utf-8"))  # each word, then a NUL
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
    units = [WorkUnit(job.model_spec,
                      derive_seed(seed, "lexgen", job.mode, job.model_spec.name, job.output_name),
                      job.training.source_matrix, job.training.target_matrix,
                      job.source_lexicon.values, test_rows=job.keep_rows) for job in build_jobs]
    return [_describe_build(job, seed, unit, pred)
            for job, unit, pred in zip(build_jobs, units, run_units(units, jobs))]


def predicted_lexicon(fmt: EmotionFormat, words, pred: np.ndarray, **meta) -> Lexicon:
    """The lexicon of words rated pred in fmt, pred clamped in place to fmt's scale."""
    np.clip(pred, fmt.scale_low, fmt.scale_high, out=pred)
    return Lexicon(fmt, words, pred, **meta)


def _describe_build(job: LexiconBuildJob, seed: int, unit: WorkUnit, pred: np.ndarray):
    new_words = [job.source_lexicon.words[i] for i in job.keep_rows]
    fmt, t = job.training.target_format, job.training
    out = predicted_lexicon(fmt, new_words, pred, language=job.source_lexicon.language,
                            source_id=job.output_name)
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
        "target_format": fmt.to_dict(),
        "input_digests": {
            "source_lexicon": _digest(job.source_lexicon.words, job.source_lexicon.values),
            "training": _digest(t.words, t.source_matrix, t.target_matrix),
            "exclusion_sets": [_digest(ex.words, ex.values) for ex in job.exclusion_sets],
        },
        "output_digest": hashlib.sha256(rendered).hexdigest(),
    }
    return out, manifest, rendered

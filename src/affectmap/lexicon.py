"""Emotion lexicons: validation, projection, alignment.

A lexicon maps words to rating vectors in one emotion format (e.g. VAD on
[1,9] or BE5 on [1,5]). An aligned lexicon pairs two formats over the same
words and is the training/evaluation unit for every mapping model.

All values here are immutable after construction; rating arrays are stored
as read-only float64 matrices.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, EmptyAlignmentError, ValidationError
from .tsv import Diagnostic, canonical_word, read_lexicon_rows

__all__ = [
    "EmotionFormat",
    "VAD",
    "VA",
    "BE5",
    "BUILTIN_FORMATS",
    "Diagnostic",
    "Lexicon",
    "AlignedLexicon",
    "canonical_word",
    "parse_lexicon",
    "align",
    "project",
    "concat",
]


@dataclass(frozen=True)
class EmotionFormat:
    """A named set of affective variables with a shared rating scale. The
    bounds are finite ints or floats, stored as floats."""

    name: str
    variables: tuple[str, ...]
    scale_low: float
    scale_high: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValidationError(f"'name' must be a string, got {self.name!r}")
        if not isinstance(self.variables, (list, tuple)) or not self.variables or not all(
                isinstance(v, str) for v in self.variables):
            raise ValidationError(
                f"'variables' must be a list of strings (one or more), got {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        for key in ("scale_low", "scale_high"):
            value = getattr(self, key)  # the bound refuses NaN and ints past the float range
            if isinstance(value, bool) or not isinstance(value, (int, float)) or \
                    not abs(value) <= sys.float_info.max:
                raise ValidationError(f"{key!r} must be a finite number, got {value!r}")
            object.__setattr__(self, key, float(value))
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate variable names in format {self.name!r}")
        if not self.scale_low < self.scale_high:
            raise ValidationError(
                f"format {self.name!r}: scale_low must be below scale_high"
            )

    @property
    def size(self) -> int:
        return len(self.variables)

    def to_dict(self) -> dict:
        """The fields as JSON values; EmotionFormat(**d) reads them back."""
        return {**asdict(self), "variables": list(self.variables)}

    def same_layout(self, other: "EmotionFormat") -> bool:
        """True when variables and scale bounds match (names may differ)."""
        return (
            self.variables == other.variables
            and self.scale_low == other.scale_low
            and self.scale_high == other.scale_high
        )


VAD = EmotionFormat("VAD", ("valence", "arousal", "dominance"), 1.0, 9.0)
VA = EmotionFormat("VA", ("valence", "arousal"), 1.0, 9.0)
BE5 = EmotionFormat("BE5", ("joy", "anger", "sadness", "fear", "disgust"), 1.0, 5.0)

BUILTIN_FORMATS = {f.name: f for f in (VAD, VA, BE5)}


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class Lexicon:
    """Ordered word -> rating-vector map in a single emotion format."""

    def __init__(
        self,
        fmt: EmotionFormat,
        words: Sequence[str],
        values: np.ndarray,
        language: str = "",
        source_id: str = "",
        *,
        _index: dict[str, int] | None = None,  # word -> row, built by a parse or shared
    ):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != len(words):
            raise ValidationError(
                f"expected a ({len(words)}, {fmt.size}) rating matrix, got {values.shape}"
            )
        if values.shape[1] != fmt.size:
            raise ValidationError(
                f"format {fmt.name!r} has {fmt.size} variables but vectors have "
                f"{values.shape[1]} components"
            )
        words = tuple(words)
        index = _index
        if index is None:
            index = dict(zip(words, range(len(words))))
            if len(index) != len(words):
                raise ValidationError("duplicate words in lexicon")
        inside = (values >= fmt.scale_low) & (values <= fmt.scale_high)
        if not inside.all():
            # NaN compares false both ways, so it lands here too
            bad = int(np.argmax(~inside))
            row, col = divmod(bad, fmt.size)
            raise ValidationError(
                f"rating {values[row, col]!r} for word {words[row]!r} "
                f"({fmt.variables[col]}) outside [{fmt.scale_low}, {fmt.scale_high}]"
            )
        self.format = fmt
        self.words = words
        self.values = _readonly(values)
        self.language = language
        self.source_id = source_id
        self._index = index

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        return self.values[self._index[word]]

    def __repr__(self) -> str:
        return (
            f"Lexicon({self.format.name}, {len(self)} words, "
            f"language={self.language!r})"
        )


class AlignedLexicon:
    """Words with paired source and target rating matrices."""

    def __init__(
        self,
        words: Sequence[str],
        source_format: EmotionFormat,
        target_format: EmotionFormat,
        source_matrix: np.ndarray,
        target_matrix: np.ndarray,
        language: str = "",
        row_languages: Sequence[str] | None = None,
    ):
        if source_format.name == target_format.name:
            raise ValidationError(
                f"source and target formats must differ (both {source_format.name!r})"
            )
        words = tuple(words)
        source_matrix = np.asarray(source_matrix, dtype=np.float64)
        target_matrix = np.asarray(target_matrix, dtype=np.float64)
        n = len(words)
        if source_matrix.shape != (n, source_format.size):
            raise ValidationError(
                f"source matrix shape {source_matrix.shape} does not match "
                f"({n}, {source_format.size})"
            )
        if target_matrix.shape != (n, target_format.size):
            raise ValidationError(
                f"target matrix shape {target_matrix.shape} does not match "
                f"({n}, {target_format.size})"
            )
        for label, fmt, m in (
            ("source", source_format, source_matrix),
            ("target", target_format, target_matrix),
        ):
            if m.size and not (np.all(m >= fmt.scale_low) and np.all(m <= fmt.scale_high)):
                raise ValidationError(
                    f"{label} ratings fall outside [{fmt.scale_low}, {fmt.scale_high}]"
                )
        if row_languages is None:
            row_languages = (language,) * n
        row_languages = tuple(row_languages)
        if len(row_languages) != n:
            raise ValidationError("row_languages length does not match word count")
        self.words = words
        self.source_format = source_format
        self.target_format = target_format
        self.source_matrix = _readonly(source_matrix)
        self.target_matrix = _readonly(target_matrix)
        self.language = language
        self.row_languages = row_languages

    def __len__(self) -> int:
        return len(self.words)

    def swapped(self) -> "AlignedLexicon":
        """Same rows with source and target roles exchanged."""
        return AlignedLexicon(
            self.words,
            self.target_format,
            self.source_format,
            self.target_matrix,
            self.source_matrix,
            language=self.language,
            row_languages=self.row_languages,
        )

    def __repr__(self) -> str:
        return (
            f"AlignedLexicon({self.source_format.name}->{self.target_format.name}, "
            f"{len(self)} words, language={self.language!r})"
        )


def parse_lexicon(data: str | Path | bytes | IO[bytes], fmt: EmotionFormat,
                  column_map: Mapping[str, str], *, language: str = "", source_id: str = "",
                  **options) -> Lexicon:
    """A Lexicon read from a TSV source by ``tsv.read_lexicon_rows``, which
    documents the dialect and the ``options``: lowercase, clamp, scale and
    diagnostics."""
    rows, values = read_lexicon_rows(data, fmt, column_map, **options)
    return Lexicon(fmt, tuple(rows), values, language=language, source_id=source_id,
                   _index=rows)


class ParseCache:
    """The last lexicon parsed clean, so that a later side binding the same
    source takes its values from it instead of parsing the file again.

    A side reuses the parse when the path, word column, ``lowercase``,
    ``clamp``, declared ``scale`` and format bounds are the same, its value
    columns are among the parse's, and that parse raised nothing and
    reported no diagnostic. The scale map, the range check and duplicate
    averaging all work per column, so the projected values have the bits
    a parse of their own would give. Every other side is parsed by
    ``parse`` (``parse_lexicon``'s signature), and kept when it is clean.
    """

    def __init__(self):
        self._last = None  # (key, value column -> index, lexicon) of the last clean parse

    def load(self, parse, data, fmt, column_map, *, language="", source_id="",
             lowercase=False, clamp=False, scale=None, diagnostics=None) -> Lexicon:
        key = (data, column_map.get("word"), lowercase, clamp, scale,
               fmt.scale_low, fmt.scale_high)
        if self._last is not None and self._last[0] == key:
            _, positions, lex = self._last
            idx = [positions.get(column_map.get(v)) for v in fmt.variables]
            if None not in idx:
                values = lex.values if idx == list(range(lex.format.size)) else lex.values[:, idx]
                return Lexicon(fmt, lex.words, values, language=language, source_id=source_id,
                               _index=lex._index)
        self._last = None  # let the last parse go before this one allocates
        sink = [] if diagnostics is None else diagnostics
        reported = len(sink)
        lex = parse(data, fmt, column_map, language=language, source_id=source_id,
                    lowercase=lowercase, clamp=clamp, scale=scale, diagnostics=sink)
        if len(sink) == reported:
            self._last = (key, {column_map[v]: j for j, v in enumerate(fmt.variables)}, lex)
        return lex


def align(
    a: Lexicon, b: Lexicon, *, allow_language_mismatch: bool = False
) -> AlignedLexicon:
    """Pair two lexicons on their word intersection, ordered as in ``a``."""
    if a.format.name == b.format.name:
        raise ConfigurationError(
            f"cannot align two lexicons of the same format ({a.format.name!r})"
        )
    if a.language != b.language and not allow_language_mismatch:
        raise ConfigurationError(
            f"language mismatch: {a.language!r} vs {b.language!r} "
            "(pass allow_language_mismatch=True to override)"
        )
    shared = [w for w in a.words if w in b]
    if not shared:
        raise EmptyAlignmentError(
            f"no overlapping words between {a.source_id or a.format.name} "
            f"and {b.source_id or b.format.name}"
        )
    source = np.array([a.vector(w) for w in shared])
    target = np.array([b.vector(w) for w in shared])
    language = a.language if a.language == b.language else "multi"
    return AlignedLexicon(shared, a.format, b.format, source, target, language=language)


def _project_format(fmt: EmotionFormat, keep: Sequence[str]) -> EmotionFormat:
    keep = tuple(keep)
    projected = replace(fmt, name=f"{fmt.name}[{','.join(keep)}]", variables=keep)
    for builtin in BUILTIN_FORMATS.values():
        if builtin.same_layout(projected):
            return builtin
    return fmt if keep == fmt.variables else projected


def _keep_indices(fmt: EmotionFormat, keep: Sequence[str]) -> list[int]:
    if not keep:
        raise ConfigurationError("keep list must not be empty")
    unknown = [v for v in keep if v not in fmt.variables]
    if unknown:
        raise ConfigurationError(
            f"unknown variable(s) {unknown} for format {fmt.name!r}"
        )
    return [fmt.variables.index(v) for v in keep]


def project(x: AlignedLexicon, keep: Sequence[str], side: str) -> AlignedLexicon:
    """Restrict one side's ratings to the ``keep`` variables, in the given
    order; ``side`` ("source" or "target") names the side they belong to."""
    if side == "target":
        return project(x.swapped(), keep, "source").swapped()
    if side != "source":
        raise ConfigurationError(f"unknown side {side!r}")
    idx = _keep_indices(x.source_format, keep)
    return AlignedLexicon(
        x.words,
        _project_format(x.source_format, keep),
        x.target_format,
        x.source_matrix[:, idx],
        x.target_matrix,
        language=x.language,
        row_languages=x.row_languages,
    )


def concat(parts: Sequence[AlignedLexicon]) -> AlignedLexicon:
    """Row-wise concatenation; duplicate words stay as distinct rows."""
    if not parts:
        raise ConfigurationError("concat needs at least one part")
    head = parts[0]
    for p in parts[1:]:
        if not (
            p.source_format.same_layout(head.source_format)
            and p.target_format.same_layout(head.target_format)
        ):
            raise ConfigurationError(
                f"format mismatch in concat: {p.source_format.name}->"
                f"{p.target_format.name} vs {head.source_format.name}->"
                f"{head.target_format.name} (project first)"
            )
    words: list[str] = []
    row_languages: list[str] = []
    for p in parts:
        words.extend(p.words)
        row_languages.extend(p.row_languages)
    languages = {p.language for p in parts}
    language = head.language if len(languages) == 1 else "multi"
    return AlignedLexicon(
        words,
        head.source_format,
        head.target_format,
        np.concatenate([p.source_matrix for p in parts]),
        np.concatenate([p.target_matrix for p in parts]),
        language=language,
        row_languages=row_languages,
    )

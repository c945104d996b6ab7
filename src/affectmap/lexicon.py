"""Emotion lexicons: parsing, validation, rescaling, projection, alignment.

A lexicon maps words to rating vectors in one emotion format (e.g. VAD on
[1,9] or BE5 on [1,5]). An aligned lexicon pairs two formats over the same
words and is the training/evaluation unit for every mapping model.

All values here are immutable after construction; rating arrays are stored
as read-only float64 matrices.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyAlignmentError,
    ParseError,
    ValidationError,
)

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
    "rescale",
    "align",
    "project",
    "concat",
]


@dataclass(frozen=True)
class EmotionFormat:
    """A named set of affective variables with a shared rating scale."""

    name: str
    variables: tuple[str, ...]
    scale_low: float
    scale_high: float

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValidationError("emotion format needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate variable names in format {self.name!r}")
        if not self.scale_low < self.scale_high:
            raise ValidationError(
                f"format {self.name!r}: scale_low must be below scale_high"
            )

    @property
    def size(self) -> int:
        return len(self.variables)

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


@dataclass(frozen=True)
class Diagnostic:
    """Structured warning emitted while ingesting a file."""

    kind: str
    message: str
    line: int | None = None
    word: str | None = None


def canonical_word(word: str, lowercase: bool = False) -> str:
    """NFC-normalize and trim a word; lowercasing is opt-in."""
    w = unicodedata.normalize("NFC", word).strip()
    return w.lower() if lowercase else w


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
        if len(set(words)) != len(words):
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
        self._index = {w: i for i, w in enumerate(words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        return self.values[self._index[word]]

    def entries(self) -> dict[str, np.ndarray]:
        """Entry-order dict view of the lexicon."""
        return {w: self.values[i] for i, w in enumerate(self.words)}

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

    def take(self, indices: Sequence[int]) -> "AlignedLexicon":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.intp)
        return AlignedLexicon(
            [self.words[i] for i in idx],
            self.source_format,
            self.target_format,
            self.source_matrix[idx],
            self.target_matrix[idx],
            language=self.language,
            row_languages=[self.row_languages[i] for i in idx],
        )

    def __repr__(self) -> str:
        return (
            f"AlignedLexicon({self.source_format.name}->{self.target_format.name}, "
            f"{len(self)} words, language={self.language!r})"
        )


def _decode(data) -> str:
    if isinstance(data, (str, Path)):
        raw = Path(data).read_bytes()
    elif isinstance(data, bytes):
        raw = data
    elif hasattr(data, "read"):
        raw = data.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        raise ConfigurationError(f"cannot read lexicon from {type(data).__name__}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from None
    # normalize line endings instead of rejecting CRLF files outright
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _emit(payload: bytes, dest) -> None:
    """Write bytes to a binary stream or a path."""
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        Path(dest).write_bytes(payload)


def parse_lexicon(
    data: str | Path | bytes | IO[bytes],
    fmt: EmotionFormat,
    column_map: Mapping[str, str],
    *,
    language: str = "",
    source_id: str = "",
    lowercase: bool = False,
    clamp: bool = False,
    scale: tuple[float, float] | None = None,
    diagnostics: list[Diagnostic] | None = None,
) -> Lexicon:
    """Parse a TSV lexicon file.

    The dialect is strict: UTF-8, tab separated, '.' decimal separator,
    first row is the header, no quoting or escaping. ``column_map`` binds
    the key ``"word"`` plus every format variable to a header name.

    ``scale`` declares the file's native rating interval; when it differs
    from the format bounds, values are linearly mapped onto them. Values
    outside the declared bounds raise unless ``clamp`` is set, in which
    case they are clamped with a diagnostic. Duplicate words (after NFC
    normalization, trimming and optional lowercasing) are averaged per
    variable and reported as diagnostics.
    """
    missing = [v for v in ("word", *fmt.variables) if v not in column_map]
    if missing:
        raise ConfigurationError(
            f"column_map is missing bindings for: {', '.join(missing)}"
        )
    text = _decode(data)
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise ParseError("missing header row", line=1)
    header = lines[0].split("\t")
    positions = {}
    for key in ("word", *fmt.variables):
        col = column_map[key]
        if col not in header:
            raise ConfigurationError(
                f"column {col!r} (bound to {key!r}) not found in header"
            )
        positions[key] = header.index(col)

    src_low, src_high = scale if scale is not None else (fmt.scale_low, fmt.scale_high)
    if not src_low < src_high:
        raise ConfigurationError("declared scale must satisfy low < high")
    span = (fmt.scale_high - fmt.scale_low) / (src_high - src_low)

    sink = diagnostics if diagnostics is not None else []
    rows: dict[str, list[np.ndarray]] = {}
    first_line: dict[str, int] = {}
    needed = max(positions.values()) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) < needed:
            raise ParseError(
                f"expected at least {needed} tab-separated fields, got {len(cells)}",
                line=lineno,
            )
        word = canonical_word(cells[positions["word"]], lowercase=lowercase)
        if not word:
            raise ParseError("empty word", line=lineno)
        vec = np.empty(fmt.size)
        for j, var in enumerate(fmt.variables):
            cell = cells[positions[var]].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} in column {column_map[var]!r}",
                    line=lineno,
                ) from None
            if scale is not None:
                v = fmt.scale_low + (v - src_low) * span
            if not fmt.scale_low <= v <= fmt.scale_high:
                if not math.isfinite(v):
                    raise ParseError(
                        f"non-finite value {cell!r} in column {column_map[var]!r}",
                        line=lineno,
                    )
                if clamp:
                    clamped = min(max(v, fmt.scale_low), fmt.scale_high)
                    sink.append(
                        Diagnostic(
                            "clamped",
                            f"{var}={v!r} clamped to {clamped!r}",
                            line=lineno,
                            word=word,
                        )
                    )
                    v = clamped
                else:
                    raise ValidationError(
                        f"line {lineno}: {var}={v!r} for word {word!r} outside "
                        f"[{fmt.scale_low}, {fmt.scale_high}]"
                    )
            vec[j] = v
        if word in rows:
            sink.append(
                Diagnostic(
                    "duplicate",
                    f"word {word!r} repeats entry from line {first_line[word]}; "
                    "ratings averaged",
                    line=lineno,
                    word=word,
                )
            )
        else:
            first_line[word] = lineno
        rows.setdefault(word, []).append(vec)

    words = list(rows)
    values = np.array(
        [np.mean(rows[w], axis=0) if len(rows[w]) > 1 else rows[w][0] for w in words]
    ).reshape(len(words), fmt.size)
    return Lexicon(fmt, words, values, language=language, source_id=source_id)


def rescale(lex: Lexicon, target_low: float, target_high: float) -> Lexicon:
    """Linearly map every rating onto [target_low, target_high]."""
    if not target_low < target_high:
        raise ConfigurationError("target_low must be below target_high")
    fmt = lex.format
    span = (target_high - target_low) / (fmt.scale_high - fmt.scale_low)
    values = target_low + (lex.values - fmt.scale_low) * span
    # endpoints can overshoot by one ulp; clip so bound invariants stay exact
    np.clip(values, target_low, target_high, out=values)
    new_fmt = replace(fmt, scale_low=float(target_low), scale_high=float(target_high))
    return Lexicon(
        new_fmt, lex.words, values, language=lex.language, source_id=lex.source_id
    )


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


def project(x, keep: Sequence[str], side: str = "auto"):
    """Restrict ratings to the ``keep`` variables, in the given order.

    For an AlignedLexicon, ``side`` selects which format the names refer
    to; the default resolves it automatically and rejects ambiguity.
    """
    if isinstance(x, Lexicon):
        idx = _keep_indices(x.format, keep)
        return Lexicon(
            _project_format(x.format, keep),
            x.words,
            x.values[:, idx],
            language=x.language,
            source_id=x.source_id,
        )
    if isinstance(x, AlignedLexicon):
        if side == "auto":
            in_src = all(v in x.source_format.variables for v in keep)
            in_tgt = all(v in x.target_format.variables for v in keep)
            if in_src and in_tgt:
                raise ConfigurationError(
                    "keep variables exist on both sides; pass side='source' "
                    "or side='target'"
                )
            if in_src:
                side = "source"
            elif in_tgt:
                side = "target"
            else:
                raise ConfigurationError(
                    f"variables {list(keep)} not found on either side"
                )
        if side == "target":
            return project(x.swapped(), keep, "source").swapped()
        if side == "source":
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
        raise ConfigurationError(f"unknown side {side!r}")
    raise ConfigurationError(f"cannot project {type(x).__name__}")


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

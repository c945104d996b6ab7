"""Emotion lexicons: parsing, validation, rescaling, projection, alignment.

A lexicon maps words to rating vectors in one emotion format (e.g. VAD on
[1,9] or BE5 on [1,5]). An aligned lexicon pairs two formats over the same
words and is the training/evaluation unit for every mapping model.

All values here are immutable after construction; rating arrays are stored
as read-only float64 matrices.
"""

from __future__ import annotations

import io
import math
import unicodedata
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import (
    AffectMapError,
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


def _canonical_words(words: list[str], lowercase: bool) -> list[str]:
    """canonical_word of each word, none holding a line end. NFC never
    composes across one, so the joined words are normalized at once."""
    joined = "\n".join(words)
    normal = unicodedata.normalize("NFC", joined)
    if normal != joined:
        words = normal.split("\n")
    words = list(map(str.strip, words))
    return list(map(str.lower, words)) if lowercase else words


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


# numpy's parser skips these around a value, as str.strip() does, and float()
# refuses them, so a block holding one is read row by row
_PADDING = "\x1c\x1d\x1e\x1f"
_BLOCK_BYTES = 1 << 16  # source bytes read, decoded and parsed at a time


def _byte_stream(source, what: str):
    """source (a path, bytes or a binary stream) as a context manager over
    a binary stream; a caller's stream stays open."""
    if isinstance(source, (str, Path)):
        return open(source, "rb")
    if isinstance(source, bytes):
        return io.BytesIO(source)
    if hasattr(source, "read") and not isinstance(source, io.TextIOBase):
        return nullcontext(source)
    raise ConfigurationError(f"cannot read {what} from {type(source).__name__}")


def _blocks(stream):
    """(number of the first line, lines) for each block of whole lines of
    a UTF-8 stream; CR, CRLF and LF each end a line. An undecodable byte
    is worded as when the whole source is decoded at once."""
    lineno, offset, pending = 1, 0, []
    while True:
        chunk = stream.read(_BLOCK_BYTES)
        # cut after the last LF, else after the last CR but the final byte,
        # which may be the first half of a CRLF
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        data = b"".join(pending)
        pending = [chunk[cut:]]
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            start = offset + e.start
            where = (f"byte 0x{e.object[e.start]:02x} in position {start}"
                     if e.end - e.start == 1 else f"bytes in position {start}-{offset + e.end - 1}")
            raise ParseError(f"input is not valid UTF-8: '{e.encoding}' codec can't "
                             f"decode {where}: {e.reason}") from None
        offset += len(data)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if chunk:
            lines.pop()  # data ended with a line end; the next line starts in the next chunk
        yield lineno, lines
        lineno += len(lines)
        if not chunk:
            return


class _BlockReader:
    """The rows of one TSV source, appended block by block to one flat
    float64 buffer. numpy's text parser reads a block's values; a block it
    refuses, or whose words or values the format's checks do not vouch
    for, is read again one row at a time, so the row loop decides every
    error and diagnostic.

    A format supplies _split (a block's words and the texts numpy parses,
    or None), _parse (their checked values, or None), _row (the row loop's
    body: a row's word and checked values, or its error) and _repeat (how
    a repeated word is reported)."""

    def __init__(self):
        self.flat = array("d")
        self.rows: dict[str, int] = {}  # word -> line of its first row, in first-seen order
        self.repeats: dict[str, list[np.ndarray]] = {}  # later rows, averaged in at the end

    def read(self, blocks) -> AffectMapError | None:
        """Take every block. The first bad row's error is returned, not
        raised, once the rest of the source has decoded: an undecodable
        byte anywhere outranks it and is raised."""
        for first, lines in blocks:
            try:
                self._take_block(first, lines)
            except AffectMapError as e:
                for _ in blocks:
                    pass
                return e
        return None

    def _take_block(self, first, lines) -> None:
        if "" in lines:  # blank lines are skipped
            texts = [line for line in lines if line]
            linenos = [first + i for i, line in enumerate(lines) if line]
        else:
            texts, linenos = lines, range(first, first + len(lines))
        if not texts:
            return
        split = self._split(texts)
        values = None
        if split is not None and not any(map("".join(split[1]).__contains__, _PADDING)):
            try:
                values = self._parse(split[1])
            except ValueError:  # a bad or missing cell
                pass
        if values is not None:
            self._take(linenos, split[0], values)
            return
        for lineno, text in zip(linenos, texts):  # one at a time: the first bad row raises
            self._take((lineno,), *self._row(lineno, text))

    def _take(self, linenos, words, values) -> None:
        """Append the rows of new words; keep a repeated word's row apart."""
        rows = self.rows
        if rows.keys().isdisjoint(words):
            count = len(rows)
            rows.update(zip(words, linenos))
            if len(rows) - count == len(words):
                self.flat.frombytes(values.tobytes())
                return
            for word in words:  # a word repeats within the block: undo, then row by row
                rows.pop(word, None)
        for lineno, word, row in zip(linenos, words, values):
            if word in rows:
                self._repeat(word, lineno)
                self.repeats.setdefault(word, []).append(row.copy())
            else:
                rows[word] = lineno
                self.flat.frombytes(row.tobytes())

    def matrix(self, width: int) -> np.ndarray:
        """The rows as one matrix, each repeated word's rows averaged."""
        matrix = np.frombuffer(self.flat, dtype=np.float64).reshape(len(self.rows), width)
        if self.repeats:
            for i, word in enumerate(self.rows):
                if word in self.repeats:
                    matrix[i] = np.mean([matrix[i], *self.repeats[word]], axis=0)
        return matrix


class _LexiconReader(_BlockReader):
    """A lexicon TSV: a header row, then a word and the bound value columns
    per row, mapped onto the format's scale and range-checked."""

    def __init__(self, fmt, column_map, lowercase, clamp, scale, sink):
        super().__init__()
        self.fmt, self.column_map, self.lowercase, self.clamp = fmt, column_map, lowercase, clamp
        self.scale, self.sink = scale, sink

    def _take_block(self, first, lines) -> None:
        if first == 1:  # the header opens the first block
            self._bind(lines[0])
            first, lines = 2, lines[1:]
        super()._take_block(first, lines)

    def _bind(self, header: str) -> None:
        if not header.strip():
            raise ParseError("missing header row", line=1)
        header = header.split("\t")
        fmt, column_map = self.fmt, self.column_map
        positions = {}
        for key in ("word", *fmt.variables):
            col = column_map[key]
            if col not in header:
                raise ConfigurationError(
                    f"column {col!r} (bound to {key!r}) not found in header"
                )
            positions[key] = header.index(col)
        src_low, src_high = (
            self.scale if self.scale is not None else (fmt.scale_low, fmt.scale_high)
        )
        if not src_low < src_high:
            raise ConfigurationError("declared scale must satisfy low < high")
        self.src_low = src_low
        self.span = (fmt.scale_high - fmt.scale_low) / (src_high - src_low)
        self.wpos = positions["word"]
        self.needed = max(positions.values()) + 1
        self.columns = [(var, positions[var]) for var in fmt.variables]
        self.usecols = [p for _, p in self.columns]

    def _split(self, texts):
        wpos, lowercase = self.wpos, self.lowercase
        try:
            words = [text.split("\t", wpos + 1)[wpos] for text in texts]
        except IndexError:  # a row too short to hold its word
            return None
        words = _canonical_words(words, lowercase)
        return (words, texts) if all(words) else None

    def _parse(self, texts):
        low, high = self.fmt.scale_low, self.fmt.scale_high
        values = np.loadtxt(texts, delimiter="\t", usecols=self.usecols, comments=None,
                            dtype=np.float64, ndmin=2)
        if self.scale is not None:  # low + (v - src_low) * span, as the row loop maps it
            values -= self.src_low
            values *= self.span
            values += low
        if values.shape == (len(texts), self.fmt.size) and \
                ((values >= low) & (values <= high)).all():
            return values
        return None

    def _row(self, lineno, line):
        cells = line.split("\t")
        if len(cells) < self.needed:
            raise ParseError(
                f"expected at least {self.needed} tab-separated fields, got {len(cells)}",
                line=lineno,
            )
        word = canonical_word(cells[self.wpos], self.lowercase)
        if not word:
            raise ParseError("empty word", line=lineno)
        low, high = self.fmt.scale_low, self.fmt.scale_high
        values = []
        for var, p in self.columns:
            try:
                v = float(cells[p])
            except ValueError:
                cell = cells[p].strip()  # str.strip() also takes \x1c-\x1f, which float() refuses
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric value {cell!r} in column {self.column_map[var]!r}",
                        line=lineno,
                    ) from None
            if self.scale is not None:
                v = low + (v - self.src_low) * self.span
            if not low <= v <= high:
                if not math.isfinite(v):
                    raise ParseError(
                        f"non-finite value {cells[p].strip()!r} in column "
                        f"{self.column_map[var]!r}",
                        line=lineno,
                    )
                if self.clamp:
                    clamped = min(max(v, low), high)
                    self.sink.append(Diagnostic("clamped", f"{var}={v!r} clamped to {clamped!r}",
                                                line=lineno, word=word))
                    v = clamped
                else:
                    raise ValidationError(
                        f"line {lineno}: {var}={v!r} for word {word!r} outside "
                        f"[{low}, {high}]"
                    )
            values.append(v)
        return (word,), np.array([values])

    def _repeat(self, word, lineno) -> None:
        message = f"word {word!r} repeats entry from line {self.rows[word]}; ratings averaged"
        self.sink.append(Diagnostic("duplicate", message, line=lineno, word=word))


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
    first row is the header, no quoting or escaping. CR, CRLF and LF all
    end a line, and blank lines are skipped. ``column_map`` binds the key
    ``"word"`` plus every format variable to a header name.

    ``scale`` declares the file's native rating interval; when it differs
    from the format bounds, values are linearly mapped onto them. Values
    outside the declared bounds raise unless ``clamp`` is set, in which
    case they are clamped with a diagnostic. Duplicate words (after NFC
    normalization, trimming and optional lowercasing) are averaged per
    variable and reported as diagnostics.

    The source is read block by block and the bound columns are parsed by
    numpy's text parser; a block it refuses, or whose values leave the
    scale, is read again row by row, and that loop decides every error,
    clamp and diagnostic.
    """
    missing = [v for v in ("word", *fmt.variables) if v not in column_map]
    if missing:
        raise ConfigurationError(
            f"column_map is missing bindings for: {', '.join(missing)}"
        )
    reader = _LexiconReader(fmt, column_map, lowercase, clamp, scale,
                            diagnostics if diagnostics is not None else [])
    with _byte_stream(data, "lexicon") as stream:
        error = reader.read(_blocks(stream))
    if error is not None:
        raise error
    words = list(reader.rows)
    values = reader.matrix(fmt.size)
    del reader  # its word index goes before the lexicon builds its own
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

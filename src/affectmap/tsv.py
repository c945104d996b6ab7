"""The TSV dialect of every input file, and its readers.

Lexicons, feature files and reliability tables are UTF-8, tab separated,
with '.' decimals and no quoting or escaping. CR, CRLF and LF each end a
line, blank lines are skipped, and an undecodable byte outranks every
other fault of its source, which is a path, bytes or a binary stream.
Lexicon and feature rows go through numpy's text parser a block of lines
at a time; a block it refuses, or whose words or values the checks do
not vouch for, is read again row by row, and that loop decides every
error and diagnostic.
"""

from __future__ import annotations

import io
import math
import unicodedata
import warnings
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .errors import AffectMapError, ConfigurationError, ParseError, ValidationError

__all__ = [
    "Diagnostic",
    "canonical_word",
    "numbered_lines",
    "read_lexicon_rows",
    "read_feature_vectors",
]


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


def _canonical_words(words: list[str], lowercase: bool = False) -> list[str]:
    """canonical_word of each word, none holding a line end. NFC never
    composes across one, so the joined words are normalized at once."""
    joined = "\n".join(words)
    normal = unicodedata.normalize("NFC", joined)
    if normal != joined:
        words = normal.split("\n")
    words = list(map(str.strip, words))
    return list(map(str.lower, words)) if lowercase else words


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


def numbered_lines(source, what: str) -> list[tuple[int, str]]:
    """Each non-blank line of source with its number; what names its kind in an error."""
    with _byte_stream(source, what) as stream:
        return [(first + i, line) for first, block in _blocks(stream)
                for i, line in enumerate(block) if line]


class _BlockReader:
    """The rows of one TSV source, read block by block as the module
    docstring tells. A format supplies _split (a block's words and the
    texts numpy parses, or None), _parse (their checked values, or None),
    _row (the row loop's body: a row's word and checked values, or its
    error) and _repeat (how a repeated word is reported)."""

    def __init__(self):
        self.flat = array("d")
        self.rows: dict[str, int] = {}  # word -> its row, in first-seen order
        self.lines = array("q")  # each row's first line, for the repeat messages
        self.repeats: dict[str, list[np.ndarray]] = {}  # later rows, averaged in at the end
        self.warnings: list[str] = []  # given, in file order, once the source has decoded

    def read(self, source, what: str) -> None:
        """Take every block of source, what naming its kind in an error.
        The first bad row raises once the rest of the source has decoded
        and the warnings are given; an undecodable byte outranks both."""
        error = None
        with _byte_stream(source, what) as stream:
            blocks = _blocks(stream)
            for first, lines in blocks:
                try:
                    self._take_block(first, lines)
                except AffectMapError as e:
                    error = e
                    break
            for _ in blocks:
                pass
        for message in self.warnings:
            warnings.warn(message, stacklevel=3)  # at the public reader's caller
        if error is not None:
            raise error

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
            rows.update(zip(words, range(count, count + len(words))))
            if len(rows) - count == len(words):
                self.lines.extend(linenos)
                self.flat.frombytes(values.tobytes())
                return
            for word in words:  # a word repeats within the block: undo, then row by row
                rows.pop(word, None)
        for lineno, word, row in zip(linenos, words, values):
            if word in rows:
                self._repeat(word, lineno)
                self.repeats.setdefault(word, []).append(row.copy())
            else:
                rows[word] = len(rows)
                self.lines.append(lineno)
                self.flat.frombytes(row.tobytes())

    def matrix(self, width: int) -> np.ndarray:
        """The rows as one matrix, each repeated word's rows averaged."""
        matrix = np.frombuffer(self.flat, dtype=np.float64).reshape(len(self.rows), width)
        for word, later in self.repeats.items():
            i = self.rows[word]
            matrix[i] = np.mean([matrix[i], *later], axis=0)
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
        scale = (fmt.scale_low, fmt.scale_high) if self.scale is None else self.scale
        self.src_low, src_high = scale
        if not self.src_low < src_high:
            raise ConfigurationError("declared scale must satisfy low < high")
        self.span = (fmt.scale_high - fmt.scale_low) / (src_high - self.src_low)
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
        first = self.lines[self.rows[word]]
        message = f"word {word!r} repeats entry from line {first}; ratings averaged"
        self.sink.append(Diagnostic("duplicate", message, line=lineno, word=word))


def read_lexicon_rows(source: str | Path | bytes | IO[bytes], fmt,
                      column_map: Mapping[str, str], *, lowercase: bool = False,
                      clamp: bool = False, scale: tuple[float, float] | None = None,
                      diagnostics: list[Diagnostic] | None = None) -> tuple[dict, np.ndarray]:
    """A lexicon's words, each mapped to its row in first-seen order, and
    its float64 rating matrix in the variables of ``fmt``, an EmotionFormat.

    The first row is the header; ``column_map`` binds ``"word"`` and each
    variable to a header name. A cell is read as float() reads it, so
    "1_0" is 10. ``scale`` declares the file's native interval, mapped
    linearly onto the format's. A value outside it raises, or is clamped
    with a diagnostic under ``clamp``. The rows of a repeated word (after
    canonicalization) are averaged, with a diagnostic.
    """
    missing = [v for v in ("word", *fmt.variables) if v not in column_map]
    if missing:
        raise ConfigurationError(
            f"column_map is missing bindings for: {', '.join(missing)}"
        )
    reader = _LexiconReader(fmt, column_map, lowercase, clamp, scale,
                            diagnostics if diagnostics is not None else [])
    reader.read(source, "lexicon")
    return reader.rows, reader.matrix(fmt.size)


def read_feature_vectors(source: str | Path | bytes | IO[bytes]) -> dict[str, np.ndarray]:
    """A word -> feature-vector map from TSV rows (word, v1, ..., vD) with
    no header and one width. A cell must be an ASCII decimal: one only
    float() reads, such as "1_0", is refused. A repeated word's vectors
    are averaged, with a warning. The vectors are rows of one matrix.
    """
    reader = _FeatureReader()
    reader.read(source, "features")
    if not reader.rows:
        raise ParseError("no feature vectors found", line=1)
    matrix = reader.matrix(reader.width)
    return {word: matrix[i] for i, word in enumerate(reader.rows)}


class _FeatureReader(_BlockReader):
    """A feature file: a word, then every value, per row; one width."""

    def __init__(self):
        super().__init__()
        self.width = None

    def _split(self, texts):
        parts = [text.partition("\t") for text in texts]
        words = _canonical_words([word for word, _, _ in parts])
        rests = [rest for _, _, rest in parts]
        # no value or blank values: numpy's parser would skip what float() refuses
        if all(words) and all(rest and not rest.isspace() for rest in rests):
            return words, rests
        return None

    def _parse(self, rests):
        values = np.loadtxt(rests, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)
        width = self.width or values.shape[1]
        if values.shape == (len(rests), width) and np.isfinite(values).all():
            self.width = width
            return values
        return None

    def _row(self, lineno, text):
        """One row's word and values, checked in order: word-only row, empty
        word, non-numeric cell, non-finite cell, width."""
        word, tab, rest = text.partition("\t")
        word = canonical_word(word)
        if not tab:
            raise ParseError("expected a word and at least one value", line=lineno)
        if not word:
            raise ParseError("empty word", line=lineno)
        cells = rest.split("\t")
        values = []
        for column, cell in enumerate(cells, start=2):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or "_" in cell or not cell.strip().isascii():
                raise ParseError(f"non-numeric feature value {cell!r} in column {column}",
                                 line=lineno)
            values.append(value)
        for column, (cell, value) in enumerate(zip(cells, values), start=2):
            if not math.isfinite(value):
                raise ParseError(f"non-finite feature value {cell!r} in column {column}",
                                 line=lineno)
        if self.width is None:
            self.width = len(values)
        elif len(values) != self.width:
            raise ParseError(f"feature vector of length {len(values)}, expected {self.width}",
                             line=lineno)
        return (word,), np.array([values])

    def _repeat(self, word, lineno) -> None:
        self.warnings.append(f"duplicate feature entry for {word!r}; averaging")

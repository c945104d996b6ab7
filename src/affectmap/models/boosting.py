"""Boosted-network baseline: per-variable ensembles over feature vectors.

This is the reference baseline that maps arbitrary feature vectors
(typically word embeddings) onto rating variables. Each target variable
gets its own additive ensemble of one-hidden-layer networks, grown by
adaptive resampling with a linear loss; prediction is the weighted
median of the stage predictions.
"""

from __future__ import annotations

import io
import math
import warnings
from array import array
from dataclasses import replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, ContractError, ParseError
from ..lexicon import AlignedLexicon, Lexicon, canonical_word
from .base import MappingModel, _count
from .ffnn import TRAIN_DTYPE, FfnnConfig, FfnnModel

__all__ = [
    "BoostedEnsemble",
    "fit_boosted",
    "read_feature_vectors",
    "DEFAULT_BASE_CONFIG",
]

DEFAULT_BASE_CONFIG = FfnnConfig(hidden_sizes=(100,))


class BoostedEnsemble(MappingModel):
    """One boosted regressor per target variable.

    Base learners are one-hidden-layer 100-unit rectifier networks by
    default, each trained with its own seed drawn from the ensemble
    generator. Stage weights are log(1/beta) with beta = L/(1-L) for
    average linear loss L; growth stops early when L reaches 0.5 or a
    stage fits perfectly. A first stage with L >= 0.5 is kept at weight
    1.0 so the ensemble always predicts something meaningful.
    """

    def __init__(self, stages: int = 10, base_config: FfnnConfig | None = None, seed: int = 0):
        self.max_stages = _count("stages", stages, ContractError)
        self.base_config = base_config if base_config is not None else DEFAULT_BASE_CONFIG
        self.seed = seed
        self.stages = None  # per variable: list of FfnnModel
        self.stage_weights = None  # per variable: float64 array, positive
        self.variables = None

    def fit(self, train: AlignedLexicon) -> "BoostedEnsemble":
        self.variables = train.target_format.variables
        return super().fit(train)

    @property
    def input_dtype(self):
        """The dtype its networks compute in, which they all share."""
        return self.stages[0][0].input_dtype if self.stages else TRAIN_DTYPE

    def fit_arrays(self, F, T) -> "BoostedEnsemble":
        F, T = self._training(F, T)
        # cast once: every base net gathers its rows from F in the dtype it
        # trains in; the targets and the boosting error stay float64
        F = F.astype(TRAIN_DTYPE)
        rng = np.random.default_rng(self.seed)
        self.n_features = F.shape[1]
        self.stages = []
        self.stage_weights = []
        for var in range(T.shape[1]):
            nets, weights = self._boost_variable(F, T[:, var], rng)
            self.stages.append(nets)
            self.stage_weights.append(np.asarray(weights, dtype=np.float64))
        return self

    def _boost_variable(self, F, y, rng):
        n = F.shape[0]
        w = np.full(n, 1.0 / n)
        nets: list[FfnnModel] = []
        weights: list[float] = []
        for stage in range(self.max_stages):
            cfg = replace(self.base_config, seed=int(rng.integers(0, 2**63)))
            idx = rng.choice(n, size=n, replace=True, p=w)
            net = FfnnModel(cfg).fit_arrays(F[idx], y[idx, None])
            pred = net.predict(F)[:, 0]
            err = np.abs(pred - y)
            err_max = err.max()
            if err_max != 0.0:
                err = err / err_max
            avg_loss = float(np.sum(w * err))
            if avg_loss <= 0.0:
                # perfect stage dominates; standard convention gives it
                # weight 1.0 and stops the growth
                nets.append(net)
                weights.append(1.0)
                break
            if avg_loss >= 0.5:
                if not nets:
                    warnings.warn(
                        "first boosting stage has average loss >= 0.5; "
                        "keeping it alone with weight 1.0",
                        stacklevel=3,
                    )
                    nets.append(net)
                    weights.append(1.0)
                break
            beta = avg_loss / (1.0 - avg_loss)
            nets.append(net)
            weights.append(math.log(1.0 / beta))
            if stage < self.max_stages - 1:
                w = w * np.power(beta, 1.0 - err)
                w = w / w.sum()
        return nets, weights

    def predict(self, X) -> np.ndarray:
        X = self._query(X)
        out = np.empty((X.shape[0], len(self.stages)))
        rows = np.arange(X.shape[0])
        for var, (nets, weights) in enumerate(zip(self.stages, self.stage_weights)):
            preds = np.stack([net.predict(X)[:, 0] for net in nets], axis=1)
            order = np.argsort(preds, axis=1, kind="stable")
            cdf = np.cumsum(weights[order], axis=1)
            median_or_above = cdf >= 0.5 * cdf[:, -1:]
            chosen = order[rows, median_or_above.argmax(axis=1)]
            out[:, var] = preds[rows, chosen]
        return out


def fit_boosted(
    train_features: Mapping[str, Sequence[float]],
    train_targets: Lexicon,
    stages: int,
    seed: int,
    base_config: FfnnConfig | None = None,
) -> BoostedEnsemble:
    """Boost against the words shared by the feature map and the lexicon."""
    shared = [w for w in train_targets.words if w in train_features]
    if not shared:
        raise ContractError("features and targets share no words")
    lengths = {len(train_features[w]) for w in shared}
    if len(lengths) != 1:
        raise ContractError(f"feature vectors have mixed lengths: {sorted(lengths)}")
    F = np.array([train_features[w] for w in shared], dtype=np.float64)
    T = np.array([train_targets.vector(w) for w in shared])
    ensemble = BoostedEnsemble(stages=stages, base_config=base_config, seed=seed)
    ensemble.target_format = train_targets.format
    ensemble.variables = train_targets.format.variables
    return ensemble.fit_arrays(F, T)


def read_feature_vectors(
    source: str | Path | IO[bytes], *, lowercase: bool = False
) -> dict[str, np.ndarray]:
    """Read a word -> feature-vector map from TSV (word, v1, ..., vD).

    No header row; blank lines are skipped and CR, CRLF and LF all end a
    line. Vector lengths must agree. Words canonicalize the same way
    lexicon words do; duplicates are averaged with a warning. Values are
    ASCII decimals: a cell only float() reads (digit-group underscores,
    non-ASCII digits) is refused. The source is read line by line and its
    values are parsed in blocks by numpy's text parser; the vectors are
    the rows of one float64 matrix.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return read_feature_vectors(stream, lowercase=lowercase)
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif not hasattr(source, "read") or isinstance(source, io.TextIOBase):
        raise ConfigurationError(f"cannot read features from {type(source).__name__}")
    reader = _FeatureReader(lowercase)
    text = io.TextIOWrapper(source, encoding="utf-8", newline=None)
    try:
        error = reader.read(text)
        if error is not None:
            for _ in text:  # an undecodable byte anywhere outranks a bad row
                pass
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from None
    finally:
        text.detach()  # the caller's stream stays open
    for message in reader.duplicates:
        warnings.warn(message, stacklevel=2)
    if error is not None:
        raise error
    return reader.vectors()


# numpy's parser skips these around a value, as str.strip() does; float() refuses them
_PADDING = "\x1c\x1d\x1e\x1f"
_BLOCK_CHARS = 1 << 16  # value text per np.loadtxt call


class _FeatureReader:
    """The rows of one feature file, appended block by block to one flat
    buffer. Rows the block parser cannot vouch for are read one at a
    time, so the first bad row raises with its own message."""

    def __init__(self, lowercase: bool):
        self.lowercase = lowercase
        self.width = None
        self.flat = array("d")
        self.rows: dict[str, int] = {}  # word -> its row, in first-seen order
        self.repeats: dict[str, list[np.ndarray]] = {}  # later rows, averaged in at the end
        self.duplicates: list[str] = []  # warnings, in file order

    def read(self, lines) -> ParseError | None:
        """Take every line. The first bad row's error is returned, not raised,
        so that the caller can first see whether the rest of the file decodes."""
        block, chars = [], 0
        try:
            for lineno, line in enumerate(lines, start=1):
                line = line.removesuffix("\n")
                if not line:
                    continue
                word, tab, rest = line.partition("\t")
                word = canonical_word(word, self.lowercase)
                if not (tab and word and rest) or rest.isspace() \
                        or any(map(rest.__contains__, _PADDING)):
                    # no value, blank values or padding: numpy's parser would skip
                    # what float() refuses, so the row is read alone, after those before it
                    self._flush(block)
                    block, chars = [], 0
                    self._take([word], self._values(lineno, word, tab, rest))
                    continue
                block.append((lineno, word, rest))
                chars += len(rest)
                if chars >= _BLOCK_CHARS:
                    self._flush(block)
                    block, chars = [], 0
            self._flush(block)
        except ParseError as e:
            return e
        return None

    def _flush(self, block) -> None:
        if not block:
            return
        try:
            values = np.loadtxt([rest for _, _, rest in block], delimiter="\t",
                                comments=None, dtype=np.float64, ndmin=2)
        except ValueError:  # a bad cell, or rows of unequal width
            values = np.empty((0, 0))
        width = self.width or values.shape[1]
        if values.shape == (len(block), width) and np.isfinite(values).all():
            self.width = width
            self._take([word for _, word, _ in block], values)
            return
        for lineno, word, rest in block:  # one at a time: the first bad row raises
            self._take([word], self._values(lineno, word, "\t", rest))

    def _values(self, lineno, word, tab, rest) -> np.ndarray:
        """One row's values as a 1-row matrix, checked in order: word-only
        row, empty word, non-numeric cell, non-finite cell, width."""
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
        return np.array([values])

    def _take(self, words, values) -> None:
        """Append the rows of new words; keep a repeated word's row apart."""
        keep = []
        for i, word in enumerate(words):
            if word in self.rows:
                self.duplicates.append(f"duplicate feature entry for {word!r}; averaging")
                self.repeats.setdefault(word, []).append(values[i].copy())
            else:
                self.rows[word] = len(self.rows)
                keep.append(i)
        self.flat.frombytes((values if len(keep) == len(words) else values[keep]).tobytes())

    def vectors(self) -> dict[str, np.ndarray]:
        if not self.rows:
            raise ParseError("no feature vectors found", line=1)
        matrix = np.frombuffer(self.flat, dtype=np.float64).reshape(len(self.rows), self.width)
        for word, later in self.repeats.items():
            i = self.rows[word]
            matrix[i] = np.mean([matrix[i], *later], axis=0)
        return {word: matrix[i] for word, i in self.rows.items()}

"""Boosted-network baseline: per-variable ensembles over feature vectors.

This is the reference baseline that maps arbitrary feature vectors
(typically word embeddings) onto rating variables. Each target variable
gets its own additive ensemble of one-hidden-layer networks, grown by
adaptive resampling with a linear loss; prediction is the weighted
median of the stage predictions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ..errors import ContractError, ParseError
from ..lexicon import (
    AlignedLexicon,
    Lexicon,
    _blocks,
    _BlockReader,
    _byte_stream,
    _canonical_words,
    canonical_word,
)
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
    non-ASCII digits) is refused. The source is read block by block and
    its values are parsed by numpy's text parser; the vectors are the rows
    of one float64 matrix.
    """
    reader = _FeatureReader(lowercase)
    with _byte_stream(source, "features") as stream:
        error = reader.read(_blocks(stream))
    for message in reader.duplicates:
        warnings.warn(message, stacklevel=2)
    if error is not None:
        raise error
    if not reader.rows:
        raise ParseError("no feature vectors found", line=1)
    matrix = reader.matrix(reader.width)
    return {word: matrix[i] for i, word in enumerate(reader.rows)}


class _FeatureReader(_BlockReader):
    """A feature file: a word, then every value, per row; one width."""

    def __init__(self, lowercase: bool):
        super().__init__()
        self.lowercase = lowercase
        self.width = None
        self.duplicates: list[str] = []  # warnings, in file order

    def _split(self, texts):
        parts = [text.partition("\t") for text in texts]
        words = _canonical_words([word for word, _, _ in parts], self.lowercase)
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
        word = canonical_word(word, self.lowercase)
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
        self.duplicates.append(f"duplicate feature entry for {word!r}; averaging")

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
from ..lexicon import AlignedLexicon, Lexicon, _decode, canonical_word
from .ffnn import FfnnConfig, FfnnModel

__all__ = [
    "BoostedEnsemble",
    "fit_boosted",
    "predict_boosted",
    "read_feature_vectors",
    "DEFAULT_BASE_CONFIG",
]

DEFAULT_BASE_CONFIG = FfnnConfig(hidden_sizes=(100,))


class BoostedEnsemble:
    """One boosted regressor per target variable.

    Base learners are one-hidden-layer 100-unit rectifier networks by
    default, each trained with its own seed drawn from the ensemble
    generator. Stage weights are log(1/beta) with beta = L/(1-L) for
    average linear loss L; growth stops early when L reaches 0.5 or a
    stage fits perfectly. A first stage with L >= 0.5 is kept at weight
    1.0 so the ensemble always predicts something meaningful.
    """

    def __init__(self, stages: int = 10, base_config: FfnnConfig | None = None, seed: int = 0):
        if int(stages) != stages or stages < 1:
            raise ContractError(f"stages must be a positive integer, got {stages!r}")
        self.max_stages = int(stages)
        self.base_config = base_config if base_config is not None else DEFAULT_BASE_CONFIG
        self.seed = seed
        self.stages = None  # per variable: list of FfnnModel
        self.stage_weights = None  # per variable: float64 array, positive
        self.target_format = None
        self.variables = None
        self.n_features = None

    @property
    def fitted(self) -> bool:
        return self.stages is not None

    def fit(self, train: AlignedLexicon) -> "BoostedEnsemble":
        self.target_format = train.target_format
        self.variables = train.target_format.variables
        return self.fit_arrays(train.source_matrix, train.target_matrix)

    def fit_arrays(self, F, T) -> "BoostedEnsemble":
        F = np.ascontiguousarray(F, dtype=np.float64)
        T = np.ascontiguousarray(T, dtype=np.float64)
        if F.ndim != 2 or T.ndim != 2 or F.shape[0] != T.shape[0]:
            raise ContractError(f"incompatible training shapes {F.shape} and {T.shape}")
        if F.shape[0] == 0:
            raise ContractError("cannot fit on an empty training set")
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
        if not self.fitted:
            raise ContractError("predict called before fit")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ContractError(f"expected (n, {self.n_features}) input, got {X.shape}")
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


def predict_boosted(e: BoostedEnsemble, features) -> np.ndarray:
    """Predict from a feature matrix or a word -> vector map."""
    if isinstance(features, Mapping):
        features = np.array([features[w] for w in features], dtype=np.float64)
    return e.predict(features)


def read_feature_vectors(
    source: str | Path | IO[bytes], *, lowercase: bool = False
) -> dict[str, np.ndarray]:
    """Read a word -> feature-vector map from TSV (word, v1, ..., vD).

    No header row. Vector lengths must agree. Words canonicalize the
    same way lexicon words do; duplicates are averaged with a warning.
    """
    text = _decode(source)
    rows: dict[str, list[np.ndarray]] = {}
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            raise ParseError("expected a word and at least one value", line=lineno)
        word = canonical_word(cells[0], lowercase=lowercase)
        if not word:
            raise ParseError("empty word", line=lineno)
        try:
            vec = np.array([float(c) for c in cells[1:]])
        except ValueError:
            raise ParseError(f"non-numeric feature value in {cells[1:]!r}", line=lineno) from None
        if not np.isfinite(vec).all():
            raise ParseError(f"non-finite feature value in {cells[1:]!r}", line=lineno)
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ParseError(
                f"feature vector of length {vec.size}, expected {width}", line=lineno
            )
        if word in rows:
            warnings.warn(f"duplicate feature entry for {word!r}; averaging", stacklevel=2)
        rows.setdefault(word, []).append(vec)
    if not rows:
        raise ParseError("no feature vectors found", line=1)
    return {
        w: (np.mean(v, axis=0) if len(v) > 1 else v[0]) for w, v in rows.items()
    }

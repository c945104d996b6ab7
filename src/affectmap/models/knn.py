"""Nearest-neighbor mapping model."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ContractError
from ..lexicon import AlignedLexicon

__all__ = ["KnnModel", "fit_knn", "predict_knn"]

# query rows per distance block, sized so a block stays a few MB
_CHUNK_CELLS = 4_194_304


class KnnModel:
    """k-nearest-neighbor regression (lazy learner).

    Stores the training matrices verbatim. Each query is answered by the
    unweighted mean of the target rows of its k nearest training rows by
    Euclidean distance in source space; distance ties are broken by
    stored row index, ascending. k larger than the training size is
    clamped at prediction time with a warning.
    """

    def __init__(self, k: int = 20):
        if int(k) != k or k < 1:
            raise ContractError(f"k must be a positive integer, got {k!r}")
        self.k = int(k)
        self.source = None
        self.target = None
        self.source_format = None
        self.target_format = None

    def fit(self, train: AlignedLexicon) -> "KnnModel":
        self.source_format = train.source_format
        self.target_format = train.target_format
        return self.fit_arrays(train.source_matrix, train.target_matrix)

    def fit_arrays(self, S, T) -> "KnnModel":
        S = np.ascontiguousarray(S, dtype=np.float64)
        T = np.ascontiguousarray(T, dtype=np.float64)
        if S.ndim != 2 or T.ndim != 2 or S.shape[0] != T.shape[0]:
            raise ContractError(
                f"incompatible training shapes {S.shape} and {T.shape}"
            )
        if S.shape[0] == 0:
            raise ContractError("cannot fit on an empty training set")
        self.source = S
        self.target = T
        return self

    def predict(self, X) -> np.ndarray:
        if self.source is None:
            raise ContractError("predict called before fit")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.source.shape[1]:
            raise ContractError(
                f"expected (n, {self.source.shape[1]}) input, got {X.shape}"
            )
        n_train = self.source.shape[0]
        k = self.k
        if k > n_train:
            warnings.warn(
                f"k={k} exceeds the training size {n_train}; using all "
                f"{n_train} training rows",
                stacklevel=2,
            )
            k = n_train
        out = np.empty((X.shape[0], self.target.shape[1]))
        chunk = max(1, _CHUNK_CELLS // n_train)
        for start in range(0, X.shape[0], chunk):
            q = X[start : start + chunk]
            # accumulate one feature at a time so memory stays at one
            # (chunk, train) block; a broadcast (queries, train, d)
            # temporary would raise peak RSS d-fold on these chunks
            d2 = np.zeros((q.shape[0], n_train))
            for f in range(q.shape[1]):
                diff = q[:, f : f + 1] - self.source[:, f]
                d2 += diff * diff
            # stable sort on squared distance = ascending-index tie-break
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            # neighbor-by-neighbor accumulation keeps the averaging order
            # identical to a scalar reference implementation
            acc = np.zeros((q.shape[0], self.target.shape[1]))
            for j in range(k):
                acc += self.target[order[:, j]]
            out[start : start + chunk] = acc / k
        return out


def fit_knn(train: AlignedLexicon, k: int = 20) -> KnnModel:
    return KnnModel(k=k).fit(train)


def predict_knn(m: KnnModel, X) -> np.ndarray:
    return m.predict(X)

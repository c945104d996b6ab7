"""Nearest-neighbor mapping model."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ContractError
from .base import MappingModel, _count

__all__ = ["KnnModel"]

# cells (query rows x training rows) per distance block: 131,072 float64
# cells are 1 MiB, so the distance block and its scratch block stay in a
# 2 MiB L2 cache while the features accumulate and the selection reads
# them. Predicting 39k queries over 1000 x 3 training rows (k=20) on a
# 2-core Xeon took 0.6 s at 64k-256k cells and 1.0 s at 4M cells (32 MiB)
_CHUNK_CELLS = 131_072


class KnnModel(MappingModel):
    """k-nearest-neighbor regression (lazy learner).

    Stores the training matrices verbatim. Each query is answered by the
    unweighted mean of the target rows of its k nearest training rows by
    Euclidean distance in source space; distance ties are broken by
    stored row index, ascending. k larger than the training size is
    clamped at prediction time with a warning.

    Selection is by argpartition with an exact tie-break: a query whose
    k-th smallest squared distance is reached by exactly k training rows
    sorts only those k, by (distance, index); any other query (a tie at
    the k-th distance, a NaN or inf query) takes a full stable sort. Both
    give the neighbours of ``np.argsort(d2, kind="stable")[:, :k]``.
    """

    def __init__(self, k: int = 20):
        self.k = _count("k", k, ContractError)
        self.source = None
        self.target = None

    @property
    def n_features(self):
        return None if self.source is None else self.source.shape[1]

    def fit_arrays(self, S, T) -> "KnnModel":
        self.source, self.target = self._training(S, T)
        return self

    def predict(self, X) -> np.ndarray:
        X = self._query(X)
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
        rows = min(chunk, X.shape[0])
        # one distance block and one scratch block per call; zeros so a
        # model with no source features still sees all-zero distances
        d2_block = np.zeros((rows, n_train))
        sq_block = np.empty((rows, n_train))
        for start in range(0, X.shape[0], chunk):
            q = X[start : start + chunk]
            d2 = d2_block[: q.shape[0]]
            sq = sq_block[: q.shape[0]]
            # accumulate one feature at a time so memory stays at one
            # (chunk, train) block; a broadcast (queries, train, d)
            # temporary would raise peak RSS d-fold. The first feature
            # writes d2 directly: 0.0 + x == x for every x >= +0.
            for f in range(q.shape[1]):
                dst = d2 if f == 0 else sq
                np.subtract(q[:, f : f + 1], self.source[:, f], out=dst)
                np.multiply(dst, dst, out=dst)
                if f:
                    np.add(d2, sq, out=d2)
            order = _nearest(d2, k)
            # neighbor-by-neighbor accumulation keeps the averaging order
            # identical to a scalar reference implementation
            acc = np.zeros((q.shape[0], self.target.shape[1]))
            for j in range(k):
                acc += self.target[order[:, j]]
            out[start : start + chunk] = acc / k
        return out


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k column indices of smallest d2, by (d2, index).

    Equal to ``np.argsort(d2, axis=1, kind="stable")[:, :k]``. A row where
    exactly k entries are <= its k-th smallest value has one k-nearest set:
    argpartition finds it and only those k are sorted. Any other row (a tie
    at the k-th distance, or a NaN/inf query, where the count is 0 or the
    whole row) takes the full stable sort.
    """
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(d2, part[:, k - 1 :], axis=1)
    tied = np.count_nonzero(d2 <= kth, axis=1) != k
    part.sort(axis=1)
    by_dist = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(part, by_dist, axis=1)
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return order

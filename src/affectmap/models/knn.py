"""Nearest-neighbor mapping model."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ContractError
from .base import MappingModel, _count

__all__ = ["KnnModel"]

# cells (query rows x training rows) per distance block: 131,072 float64
# cells are 1 MiB, so a block stays in a 2 MiB L2 cache while the features
# accumulate and the selection reads it. A leaf of at most this // n_train
# queries is scored against its candidates. Predicting 39k queries over
# 1000 x 3 training rows (k=20) on a 2-core Xeon took 0.2 s, scoring 16%
# of the cells; scoring them all in blocks of this size took 0.6-0.7 s
_CHUNK_CELLS = 131_072


class KnnModel(MappingModel):
    """k-nearest-neighbor regression (lazy learner).

    Stores the training matrices verbatim. Each query is answered by the
    unweighted mean of the target rows of its k nearest training rows by
    Euclidean distance in source space; distance ties are broken by
    stored row index, ascending. k larger than the training size is
    clamped at prediction time with a warning.

    A query is scored only against the rows that can be among its
    neighbours. Finite queries are split into leaves at the median of each
    node's widest axis. A leaf's bound R, the largest k-th squared distance
    of its queries to the 2k rows nearest its centre, is at least each of
    their k-th distances. Its candidates are the rows whose squared
    distance to its box is at most R. That box distance adds the same
    rounded squares of rounded differences, none larger, and rounding is
    monotone: a row left out is beyond every leaf query's k-th neighbour,
    so every output bit is that of a search over all rows. One block of
    queries, non-finite queries, 2k >= n_train and no features: all rows.
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
        S, T = self.source, self.target
        n_train, d = S.shape
        k = self.k
        if k > n_train:
            warnings.warn(
                f"k={k} exceeds the training size {n_train}; using all "
                f"{n_train} training rows",
                stacklevel=2,
            )
            k = n_train
        out = np.empty((X.shape[0], T.shape[1]))
        chunk = max(1, _CHUNK_CELLS // n_train)
        prune = d > 0 and 2 * k < n_train and len(X) > chunk
        if prune:
            # a leaf of k/4 training rows' share of the queries has a box small
            # against a k-nearest ball; at least 32 rows pay its fixed cost
            leaf = min(chunk, max(32, k * len(X) // (4 * n_train)))
            perm, starts = _leaves(X, leaf)
        else:
            leaf, perm, starts = chunk, np.arange(len(X)), np.arange(0, len(X), chunk)
        bounds = np.r_[starts, len(X)]
        # a group of leaves shares bound and neighbour arrays of <= 1/4 block
        group = max(1, min(chunk, _CHUNK_CELLS // (4 * leaf * max(d, 2 * k))))
        ST = np.ascontiguousarray(S.T)
        for g in range(0, len(starts), group):
            b = bounds[g : g + group + 1]
            rows = perm[b[0] : b[-1]]
            QT = np.ascontiguousarray(X.take(rows, axis=0).T)
            st = b[:-1] - b[0]
            keep = _candidates(QT, st, np.diff(b), ST, k) if prune else None
            nbr = np.empty((len(rows), k), dtype=np.intp)
            nd2 = np.empty((len(rows), k))
            for i, (s0, s1) in enumerate(zip(st, b[1:] - b[0])):
                cand = np.arange(n_train) if keep is None else np.flatnonzero(keep[i])
                SC = ST.take(cand, axis=1)
                diffs = (QT[f, s0:s1, None] - SC[f] for f in range(d))
                d2 = _sq_dists(diffs, (s1 - s0, len(cand)))
                cols, nd2[s0:s1] = _nearest(d2, k)
                nbr[s0:s1] = cand.take(cols)
            # neighbour by neighbour in (d2, index) order, as a scalar reference
            nbr = np.take_along_axis(nbr, np.argsort(nd2, axis=1, kind="stable"), axis=1)
            acc = np.zeros((len(rows), T.shape[1]))
            for j in range(k):
                acc += T.take(nbr[:, j], axis=0)
            out[rows] = acc / k
        return out


def _leaves(X: np.ndarray, leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """A row order of X and where each leaf starts in it: the finite rows,
    split at the median of a node's widest axis until a node holds at most
    leaf rows, then the non-finite rows in leaves of leaf rows."""
    fin = np.isfinite(X).all(axis=1)
    perm = np.r_[np.flatnonzero(fin), np.flatnonzero(~fin)]
    n_fin = int(fin.sum())
    XT = np.ascontiguousarray(X.T)
    starts, stack = [], [(0, n_fin)] if n_fin else []
    while stack:
        a, b = stack.pop()
        if b - a <= leaf:
            starts.append(a)
            continue
        P = XT.take(perm[a:b], axis=1)
        mid = (b - a) // 2
        perm[a:b] = perm[a:b][np.argpartition(P[np.argmax(np.ptp(P, axis=1))], mid)]
        stack += [(a + mid, b), (a, a + mid)]
    return perm, np.array(starts + list(range(n_fin, len(X), leaf)), dtype=np.intp)


def _candidates(QT, st, sizes, ST, k: int) -> np.ndarray:
    """(leaves, n_train) mask of the training rows (columns of ST) that can
    be among the k nearest of a query of the leaf; leaf i is the queries
    (columns of QT) from st[i], sizes[i] of them."""
    d = len(ST)
    lo = np.minimum.reduceat(QT, st, axis=1)
    hi = np.maximum.reduceat(QT, st, axis=1)
    mid = (lo + hi) / 2
    near = np.argpartition(_sq_dists(mid[f, :, None] - ST[f] for f in range(d)), 2 * k - 1, axis=1)
    nb = np.repeat(near[:, : 2 * k], sizes, axis=0)
    dq = _sq_dists(QT[f, :, None] - ST[f].take(nb) for f in range(d))
    R = np.maximum.reduceat(np.partition(dq, k - 1, axis=1)[:, k - 1], st)
    box = _sq_dists(np.clip(ST[f], lo[f, :, None], hi[f, :, None]) - ST[f] for f in range(d))
    # a NaN bound (a NaN query in the leaf) keeps every row
    return ~(box > R[:, None])


def _sq_dists(diffs, shape=None) -> np.ndarray:
    """The sum of the squares of the per-feature difference arrays diffs,
    which it overwrites, added feature by feature: every distance and bound
    above is summed this way. With no features, zeros of shape."""
    d2 = None
    for t in diffs:
        np.multiply(t, t, out=t)
        # the first square is the sum so far: 0.0 + x == x for every x >= +0
        d2 = t if d2 is None else np.add(d2, t, out=d2)
    return np.zeros(shape) if d2 is None else d2


def _nearest(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k column indices of smallest d2 by (d2, index), in
    ascending column order, and their d2: a stable sort by d2 then gives
    the neighbours of ``np.argsort(d2, axis=1, kind="stable")[:, :k]``.

    A row where exactly k entries are <= its k-th smallest value has one
    k-nearest set. Any other row (a tie at the k-th distance, or a NaN/inf
    query: a count of 0 or of the whole row) takes a full stable sort's k.
    """
    near = d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    tied = np.flatnonzero(np.count_nonzero(near, axis=1) != k)
    if tied.size:
        near[tied] = False
        near[tied[:, None], np.argsort(d2[tied], axis=1, kind="stable")[:, :k]] = True
    cols = np.flatnonzero(near)
    return cols.reshape(-1, k) % d2.shape[1], d2.take(cols).reshape(-1, k)

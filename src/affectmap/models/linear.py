"""Linear regression mapping model (ordinary least squares)."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..lexicon import AlignedLexicon

__all__ = ["LinearModel"]


class LinearModel:
    """Per-variable affine map: predictions are X @ W.T + b.

    W has one row per target variable, one column per source variable.
    Fitted by least squares on the bias-augmented source matrix; the
    normal equations are solved through their Cholesky factor, with a
    pseudo-inverse fallback when that factor does not exist (G is not
    positive definite, as for rank-deficient systems).
    """

    def __init__(self):
        self.W = None
        self.b = None
        self.source_format = None
        self.target_format = None

    def fit(self, train: AlignedLexicon) -> "LinearModel":
        self.source_format = train.source_format
        self.target_format = train.target_format
        return self.fit_arrays(train.source_matrix, train.target_matrix)

    def fit_arrays(self, S, T) -> "LinearModel":
        S = np.asarray(S, dtype=np.float64)
        T = np.asarray(T, dtype=np.float64)
        if S.ndim != 2 or T.ndim != 2 or S.shape[0] != T.shape[0]:
            raise ContractError(f"incompatible training shapes {S.shape} and {T.shape}")
        if S.shape[0] == 0:
            raise ContractError("cannot fit on an empty training set")
        ones = np.ones((S.shape[0], 1))
        A = np.hstack([S, ones])
        G = A.T @ A
        c = A.T @ T
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            theta = np.linalg.pinv(G) @ c
        else:
            theta = np.linalg.solve(L.T, np.linalg.solve(L, c))
        self.W = np.ascontiguousarray(theta[:-1].T)
        self.b = np.ascontiguousarray(theta[-1])
        return self

    def predict(self, X) -> np.ndarray:
        if self.W is None:
            raise ContractError("predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.W.shape[1]:
            raise ContractError(
                f"expected (n, {self.W.shape[1]}) input, got {X.shape}"
            )
        return X @ self.W.T + self.b

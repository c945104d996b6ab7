"""Linear regression mapping model (ordinary least squares)."""

from __future__ import annotations

import numpy as np

from .base import MappingModel

__all__ = ["LinearModel"]


class LinearModel(MappingModel):
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

    @property
    def n_features(self):
        return None if self.W is None else self.W.shape[1]

    def fit_arrays(self, S, T) -> "LinearModel":
        S, T = self._training(S, T)
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
        X = self._query(X)
        return X @ self.W.T + self.b

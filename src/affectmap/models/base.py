"""The fit/predict contract every mapping model shares."""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import ContractError, ValidationError
from ..lexicon import AlignedLexicon

__all__ = ["MappingModel"]


def _count(name: str, v, error=ValidationError) -> int:
    """v as a positive int; refuses a bool, a string, a fractional or non-finite float."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
        raise error(f"{name} must be a positive integer, got {v!r}")
    return int(v)


class MappingModel:
    """Base of the mapping models: fit(aligned) trains on an aligned
    lexicon and records its formats, fit_arrays(S, T) trains on a source
    and a target matrix, predict(X) maps an (n, n_features) matrix.

    Subclasses define fit_arrays and predict, pass their inputs through
    _training and _query first, and report their input width as
    n_features, None until fitted. A fitted model that computes in another
    dtype than float64 names it as input_dtype, which _query casts to.
    """

    source_format = None
    target_format = None
    n_features = None
    input_dtype = np.dtype(np.float64)

    @property
    def fitted(self) -> bool:
        return self.n_features is not None

    def fit(self, train: AlignedLexicon):
        self.source_format = train.source_format
        self.target_format = train.target_format
        return self.fit_arrays(train.source_matrix, train.target_matrix)

    @staticmethod
    def _training(S, T, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """S and T as C arrays of dtype, one row per training item."""
        S = np.ascontiguousarray(S, dtype=dtype)
        T = np.ascontiguousarray(T, dtype=dtype)
        if S.ndim != 2 or T.ndim != 2 or S.shape[0] != T.shape[0]:
            raise ContractError(f"incompatible training shapes {S.shape} and {T.shape}")
        if S.shape[0] == 0:
            raise ContractError("cannot fit on an empty training set")
        return S, T

    def _query(self, X) -> np.ndarray:
        """X as a C array of input_dtype with n_features columns."""
        if not self.fitted:
            raise ContractError("predict called before fit")
        X = np.ascontiguousarray(X, dtype=self.input_dtype)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ContractError(f"expected (n, {self.n_features}) input, got {X.shape}")
        return X

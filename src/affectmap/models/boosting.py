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

import numpy as np

from ..errors import ContractError
from ..tsv import read_feature_vectors  # re-exported
from .base import MappingModel, _count
from .ffnn import TRAIN_DTYPE, FfnnConfig, FfnnModel

__all__ = [
    "BoostedEnsemble",
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

    def fit(self, train) -> "BoostedEnsemble":
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

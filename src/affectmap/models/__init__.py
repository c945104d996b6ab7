"""Mapping models behind a single fit/predict contract."""

from .boosting import (
    DEFAULT_BASE_CONFIG,
    BoostedEnsemble,
    read_feature_vectors,
)
from .ffnn import (
    FfnnConfig,
    FfnnModel,
    ffnn_loss,
    gradient_check,
    init_ffnn,
)
from .io import MAGIC, load_model, save_model
from .knn import KnnModel
from .linear import LinearModel

__all__ = [
    "LinearModel",
    "KnnModel",
    "FfnnConfig",
    "FfnnModel",
    "init_ffnn",
    "ffnn_loss",
    "gradient_check",
    "BoostedEnsemble",
    "DEFAULT_BASE_CONFIG",
    "read_feature_vectors",
    "MAGIC",
    "save_model",
    "load_model",
]

"""The package exposes one way to fit, predict, cross-validate, build and
write: the model classes' fit/fit_arrays/predict and the protocol runners."""

from affectmap import experiments, lexgen, models
import affectmap

# functional wrappers that duplicated the kept paths; see README "Python API"
REMOVED = (
    "fit_linear", "predict_linear", "fit_knn", "predict_knn", "train_ffnn",
    "train_ffnn_arrays", "predict_boosted", "cross_validate", "build_lexicon",
    "write_lexicon",
)


def test_one_way_to_fit():
    assert [n for n in models.__all__ if not hasattr(models, n)] == []
    for module in (affectmap, models, experiments, lexgen):
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__

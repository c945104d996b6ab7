"""The package exposes one way to fit, predict, cross-validate, build and
write: the model classes' fit/fit_arrays/predict and the protocol runners."""

import ast
from pathlib import Path

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


def test_runtime_imports_no_scipy():
    """numpy is the one runtime dependency; scipy serves the tests as an oracle."""
    root = Path(affectmap.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root)}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []

"""The package exposes one way to fit, predict, cross-validate, build and
write: the model classes' fit/fit_arrays/predict and the protocol runners."""

import ast
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_aligned
from affectmap import cli, experiments, lexgen, lexicon, models, stats
from affectmap.errors import ContractError
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    load_model,
    save_model,
)
import affectmap

# functional wrappers that duplicated the kept paths, the file writers
# that the CLI's one output writer replaced, the network passes, which
# now take a private workspace, and second paths that no command took;
# see README "Python API"
REMOVED = (
    "fit_linear", "predict_linear", "fit_knn", "predict_knn", "train_ffnn",
    "train_ffnn_arrays", "predict_boosted", "cross_validate", "build_lexicon",
    "write_lexicon", "write_report_json", "write_report_table", "write_reliability_records",
    "write_lexicon_bytes", "write_build_manifest", "_write_run_meta", "_pick_direction", "_emit",
    "CvResult", "_cross_validate_cells", "ffnn_forward", "ffnn_backward", "fit_boosted",
    "rescale", "_as_dataset_map",
)


def test_one_way_to_fit():
    assert [n for n in models.__all__ if not hasattr(models, n)] == []
    for module in (affectmap, models, experiments, lexgen, lexicon, stats, cli):
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


_TINY = FfnnConfig(hidden_sizes=(4,), iterations=3)
_MODELS = {
    "lr": LinearModel,
    "knn": lambda: KnnModel(k=3),
    "ffnn": lambda: FfnnModel(_TINY),
    "boosted": lambda: BoostedEnsemble(stages=2, base_config=_TINY),
}


@pytest.mark.parametrize("make", _MODELS.values(), ids=_MODELS)
def test_one_fit_predict_contract(make):
    """Every model guards fit_arrays and predict alike, refuses to be saved
    unfitted, and round-trips both formats recorded by fit() through a file."""
    with pytest.raises(ContractError, match="incompatible training shapes"):
        make().fit_arrays(np.zeros((3, 2)), np.zeros((4, 1)))
    with pytest.raises(ContractError, match="empty training set"):
        make().fit_arrays(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ContractError, match="before fit"):
        make().predict(np.zeros((1, 3)))
    with pytest.raises(ContractError, match="unfitted"):
        save_model(make(), io.BytesIO())
    data = make_aligned(n=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a weak first boosting stage
        model = make().fit(data)
    with pytest.raises(ContractError, match=r"expected \(n, 3\) input"):
        model.predict(np.zeros((1, 2)))
    buf = io.BytesIO()
    save_model(model, buf)
    back = load_model(io.BytesIO(buf.getvalue()))
    assert (back.source_format, back.target_format) == (data.source_format, data.target_format)
    assert np.array_equal(back.predict(data.source_matrix), model.predict(data.source_matrix))

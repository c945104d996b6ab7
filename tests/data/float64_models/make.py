"""Write ffnn.afm, boosted.afm and predictions.json into the directory given.

    PYTHONPATH=src python tests/data/float64_models/make.py OUT_DIR

The committed files were written by commit 51f4f7a, the last one that
trained networks in float64 and saved no dtype; run on a later checkout
this script writes float32 models instead. tests/test_serialize.py
checks that the committed files still load and predict these numbers.
"""
import json
import sys
from pathlib import Path

import numpy as np

from affectmap.lexicon import BE5, VAD
from affectmap.models import BoostedEnsemble, FfnnConfig, FfnnModel, save_model

out = Path(sys.argv[1])
out.mkdir(parents=True, exist_ok=True)
rng = np.random.default_rng(2018)
S = rng.uniform(1.0, 9.0, size=(24, 3))
T = np.clip(1.0 + (S - 1.0) @ rng.uniform(0.0, 0.5, size=(3, 5)), 1.0, 5.0)

ffnn = FfnnModel(FfnnConfig(hidden_sizes=(1,), iterations=40, seed=7)).fit_arrays(S, T)
ffnn.source_format, ffnn.target_format = VAD, BE5
base = FfnnConfig(hidden_sizes=(1,), dropout_hidden=0.0, iterations=60)
boosted = BoostedEnsemble(stages=3, base_config=base, seed=5).fit_arrays(S, T)
boosted.source_format, boosted.target_format = VAD, BE5
boosted.variables = BE5.variables
assert any(len(nets) > 1 for nets in boosted.stages)

# one nonzero per row: every dot product in predict is a single rounded
# product, so the expected bits do not depend on the BLAS kernel
queries = [
    [v if c == col else 0.0 for c in range(3)] for v in (1.0, 2.5, 5.0, 9.0) for col in range(3)
]
doc = {"queries": queries}
for name, model in (("ffnn", ffnn), ("boosted", boosted)):
    save_model(model, out / f"{name}.afm")
    doc[name] = [[float(x).hex() for x in row] for row in model.predict(np.array(queries))]
(out / "predictions.json").write_text(json.dumps(doc, indent=1) + "\n")
print({k: (v if k == "queries" else v[:2]) for k, v in doc.items()})

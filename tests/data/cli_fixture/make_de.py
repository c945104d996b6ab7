"""Write de_vad.tsv and de_be5.tsv, the CLI fixture's second language,
into the directory given:

    python tests/data/cli_fixture/make_de.py tests/data/cli_fixture

crosslingual_manifest.json pairs this dataset with syn. Its BE5 ratings
follow the linear map that syn's follow (a least-squares fit to
syn_vad.tsv and syn_be5.tsv, rounded to hundredths) plus noise, so a
model trained on either language predicts the other. The map is applied
by elementwise sums, not a matrix product, so no BLAS kernel moves a
bit, and each cell is printed as the repr of its float64.
"""
import sys
from pathlib import Path

import numpy as np

out = Path(sys.argv[1])
out.mkdir(parents=True, exist_ok=True)
rng = np.random.default_rng(2018)
n = 30
words = [f"d{i:03d}" for i in range(n)]
vad = rng.uniform(1.0, 9.0, size=(n, 3))
# rows joy, anger, sadness, fear, disgust; columns valence, arousal, dominance
M = np.array([[-0.07, 0.03, -0.09], [-0.04, -0.10, -0.04], [-0.09, -0.12, -0.08],
              [-0.04, -0.11, -0.07], [0.05, -0.06, 0.03]])
be5 = 3.0 + rng.normal(0.0, 0.08, size=(n, 5))
for j in range(3):
    be5 += (vad[:, [j]] - 5.0) * M[:, j]
be5 = np.clip(be5, 1.0, 5.0)

for name, header, values in (("de_vad.tsv", ("valence", "arousal", "dominance"), vad),
                             ("de_be5.tsv", ("joy", "anger", "sadness", "fear", "disgust"), be5)):
    rows = ["\t".join(("word", *header))]
    rows += ["\t".join((w, *map(repr, row.tolist()))) for w, row in zip(words, values)]
    (out / name).write_text("\n".join(rows) + "\n", encoding="utf-8")

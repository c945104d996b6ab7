"""Fixed-seed synthetic workloads at en_2 scale.

``generate(name, seed, dest)`` writes every TSV and the manifest for one
workload into ``dest`` and returns a ``Workload``: the CLI commands to
time, the outputs each command must produce, and the held-back truth the
quality metric is scored against. The CLI only ever sees the files; the
true BE5 ratings of the generated source words stay in memory.

Rating model: VAD is drawn per word; each BE5 variable is a logistic
function of VAD plus noise, so the mapping is learnable and nonlinear.
Word vectors are a fixed random projection of both rating sets plus
noise, which gives the boosted feature model real signal.

Why each workload (recorded in BENCHMARK.json as well):

* cv-ffnn: the paper's main 10-fold table over lr/knn/ffnn on one
  1000-word dataset. FFNN training (3->128->128->5, elementwise-bound
  dropout kernels) is nearly all of the run; kNN only sees 100-query folds.
* boost-emb: boosted networks on 300-d word vectors for two languages
  (1000 en + 700 de words), 300->100->1 GEMM-bound base nets on resampled
  rows, unequal CV cells at --jobs 2 (scheduling), then serial
  cross-lingual transfer.
* lexgen-knn: lexicon generation for a 40k-word source lexicon (39k
  queries through kNN, 40k-row parse, TSV rendering) plus ablation and
  reliability normalization. No FFNN runs: the control for FFNN work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Command", "Workload", "generate"]

WORKLOADS = ("cv-ffnn", "boost-emb", "lexgen-knn")

VAD_VARS = ("valence", "arousal", "dominance")
BE5_VARS = ("joy", "anger", "sadness", "fear", "disgust")

N_EN = 1000
N_DE = 700
N_SOURCE = 40_000  # includes the N_EN English words, which are excluded
EMBED_DIM = 300

# Reduced fixed iteration counts keep a workload repeatable several times
# within one run; per-iteration cost is reported so results extrapolate to
# the default 10k iterations.
FFNN_ITERATIONS = 30
BOOST_ITERATIONS = 4
BOOST_STAGES = 3

# logistic BE5 response: 1 + 4 * sigmoid(bias + weights . (vad - 5))
_BE5_WEIGHTS = np.array(
    [
        [1.10, 0.25, 0.10],  # joy
        [-0.80, 0.60, -0.30],  # anger
        [-0.90, -0.40, -0.20],  # sadness
        [-0.70, 0.70, -0.50],  # fear
        [-0.80, 0.30, 0.00],  # disgust
    ]
)
_BE5_BIAS = np.array([-1.2, -1.6, -1.3, -1.5, -1.8])


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and the files it must leave."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2])


@dataclass
class Workload:
    name: str
    manifest: Path
    out_dir: Path
    setup: Command
    commands: list[Command]
    # lexicon output name -> (words, true BE5 ratings) of the words it must hold
    truth: dict[str, tuple[list[str], np.ndarray]] = field(default_factory=dict)


def _words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct lowercase words of 4-10 letters plus a unique suffix."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lengths = rng.integers(4, 11, size=n)
    codes = letters[rng.integers(0, 26, size=(n, 10))]
    ids = rng.permutation(n)
    return [
        codes[i, : lengths[i]].tobytes().decode("ascii") + format(int(ids[i]), "x")
        for i in range(n)
    ]


def _vad(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(5.0, 1.6, size=n)
    a = rng.normal(4.6, 1.4, size=n)
    d = 5.0 + 0.45 * (v - 5.0) + rng.normal(0.0, 1.2, size=n)
    return np.clip(np.column_stack([v, a, d]), 1.0, 9.0)


def _be5(rng: np.random.Generator, vad: np.ndarray) -> np.ndarray:
    """True BE5 ratings: a logistic response to VAD plus rating noise."""
    logits = _BE5_BIAS + (vad - 5.0) @ _BE5_WEIGHTS.T
    clean = 1.0 + 4.0 / (1.0 + np.exp(-logits))
    return np.clip(clean + rng.normal(0.0, 0.22, size=clean.shape), 1.0, 5.0)


def _write_tsv(path: Path, header, words, values) -> None:
    lines = ["\t".join(header)]
    lines += [
        word + "\t" + "\t".join(f"{v:.4f}" for v in row)
        for word, row in zip(words, values)
    ]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_dataset(dest: Path, lang: str, rng, words, vad, be5) -> list[dict]:
    _write_tsv(dest / f"{lang}_vad.tsv", ("word", *VAD_VARS), words, vad)
    # the BE5 side lists the words in another order; alignment follows VAD
    order = rng.permutation(len(words))
    _write_tsv(
        dest / f"{lang}_be5.tsv",
        ("word", *BE5_VARS),
        [words[i] for i in order],
        be5[order],
    )
    return [
        {"path": f"{lang}_vad.tsv", "format": "VAD"},
        {"path": f"{lang}_be5.tsv", "format": "BE5"},
    ]


def _write_reliability(path: Path, rng, dataset_ids) -> None:
    lines = ["dataset\tvariable\treported_r\tn_participants\tsba_applied"]
    for ds in dataset_ids:
        for var in (*VAD_VARS, *BE5_VARS):
            r = round(float(rng.uniform(0.70, 0.95)), 3)
            n = int(rng.integers(20, 60))
            sba = "true" if rng.random() < 0.5 else "false"
            lines.append(f"{ds}\t{var}\t{r}\t{n}\t{sba}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_embeddings(path: Path, rng, words, vad, be5) -> None:
    ratings = np.column_stack([(vad - 5.0) / 2.0, be5 - 3.0])
    # the projection is the same for every seed, so how much signal the
    # vectors carry (and thus quality_r) does not depend on the seed
    projection = np.random.default_rng(2018).normal(
        0.0, 1.0 / np.sqrt(ratings.shape[1]), size=(ratings.shape[1], EMBED_DIM)
    )
    vectors = ratings @ projection + rng.normal(0.0, 0.5, size=(len(words), EMBED_DIM))
    lines = [
        word + "\t" + "\t".join(f"{v:.5f}" for v in row)
        for word, row in zip(words, vectors)
    ]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _run(task: str, jobs: int, outputs) -> Command:
    return Command(("run", task, "--jobs", str(jobs)), tuple(outputs) + ("run_meta.json",))


def generate(name: str, seed: int, dest) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``dest``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    # one stream per workload so the workloads do not share inputs
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    n_new = N_SOURCE - N_EN if name == "lexgen-knn" else 0
    words = _words(rng, N_EN + N_DE + n_new)
    # rounded as the TSVs store them
    vad = np.round(_vad(rng, len(words)), 4)
    be5 = np.round(_be5(rng, vad), 4)
    en, de = slice(0, N_EN), slice(N_EN, N_EN + N_DE)

    manifest = {"seed": int(seed), "k_folds": 10, "output_dir": "out",
                "reliability": "reliability.tsv"}
    datasets = [
        {"id": "en", "language": "en",
         "sides": _write_dataset(dest, "en", rng, words[en], vad[en], be5[en])},
    ]
    if name != "cv-ffnn":
        datasets.append(
            {"id": "de", "language": "de",
             "sides": _write_dataset(dest, "de", rng, words[de], vad[de], be5[de])}
        )
    manifest["datasets"] = datasets
    _write_reliability(dest / "reliability.tsv", rng, [d["id"] for d in datasets])

    workload = Workload(
        name=name,
        manifest=dest / "manifest.json",
        out_dir=dest / "out",
        setup=Command(("validate",), ("validation.txt",)),
        commands=[],
    )
    if name == "cv-ffnn":
        manifest["models"] = [
            {"name": "lr", "kind": "lr"},
            {"name": "knn", "kind": "knn", "params": {"k": 20}},
            {"name": "ffnn", "kind": "ffnn",
             "params": {"hidden_sizes": [128, 128], "iterations": FFNN_ITERATIONS}},
        ]
        workload.commands = [
            _run("monolingual", 1, ("monolingual_report.json", "monolingual_table.tsv")),
        ]
    elif name == "boost-emb":
        _write_embeddings(dest / "embeddings.tsv", rng, words[: N_EN + N_DE],
                          vad[: N_EN + N_DE], be5[: N_EN + N_DE])
        manifest["models"] = [
            {"name": "wei", "kind": "boosted", "features_path": "embeddings.tsv",
             "params": {"stages": BOOST_STAGES,
                        "base": {"hidden_sizes": [100], "iterations": BOOST_ITERATIONS}}},
        ]
        manifest["crosslingual_model"] = "wei"
        workload.commands = [
            _run("monolingual", 2, ("monolingual_report.json", "monolingual_table.tsv")),
            _run("crosslingual", 2, ("crosslingual_report.json", "crosslingual_table.tsv")),
        ]
    else:
        # the source lexicon: every English word plus the new ones, no German
        new = np.arange(N_EN + N_DE, len(words))
        keep = np.r_[np.arange(N_EN), new]
        keep = keep[rng.permutation(keep.size)]
        _write_tsv(dest / "source_vad.tsv", ("word", *VAD_VARS),
                   [words[i] for i in keep], vad[keep])
        truth = ([words[i] for i in new], be5[new])
        exclusion = [{"path": "en_be5.tsv", "format": "BE5"}]
        manifest["models"] = [
            {"name": "lr", "kind": "lr"},
            {"name": "knn", "kind": "knn", "params": {"k": 20}},
        ]
        manifest["ablation"] = {"direction": "dim2cat"}
        manifest["lexicon_jobs"] = [
            {"mode": "monolingual", "output": "knn_en_be5.tsv", "model": "knn",
             "training_id": "en", "training_direction": "dim2cat",
             "source": {"path": "source_vad.tsv", "format": "VAD"},
             "exclusions": exclusion},
            {"mode": "crosslingual", "output": "lr_multi_be5.tsv", "model": "lr",
             "training_ids": ["en", "de"], "training_direction": "dim2cat",
             "source": {"path": "source_vad.tsv", "format": "VA",
                        "columns": {"word": "word", "valence": "valence",
                                    "arousal": "arousal"}},
             "exclusions": exclusion},
        ]
        lexicons = [job["output"] for job in manifest["lexicon_jobs"]]
        workload.truth = {out: truth for out in lexicons}
        workload.commands = [
            _run("build-lexicon", 1,
                 [x for out in lexicons for x in (out, out + ".manifest.json")]),
            _run("ablation", 1, ("ablation_report.json", "ablation_table.tsv")),
            _run("shr-normalize", 1, ("reliability_normalized.tsv",)),
        ]
    workload.manifest.write_bytes(
        json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8") + b"\n"
    )
    return workload

"""Acceptance gate: one check per shipped guarantee, each printing a
single PASS/FAIL line (run with -s to stream them)."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_vshape_arrays
from test_knn import knn_oracle

from affectmap.cli import main as cli_main
from affectmap.experiments import ModelSpec, make_folds, run_ablation, run_monolingual
from affectmap.lexicon import BE5, VAD, AlignedLexicon, align, parse_lexicon
from affectmap.models import (
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    gradient_check,
)
from affectmap.stats import (
    RaterMatrix,
    ReliabilityRecord,
    normalize_shr,
    pearson,
    sba_adjust,
    split_half_reliability,
)

DATA = Path(__file__).parent / "data"


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _pearson_brute(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = sum((a - mx) ** 2 for a in x)
    sy = sum((b - my) ** 2 for b in y)
    r = cov / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def test_a1_pearson_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.uniform(-50.0, 50.0, n)
        y = rng.uniform(-50.0, 50.0, n) + rng.uniform(-1, 1) * x
        worst = max(worst, abs(pearson(x, y) - _pearson_brute(x.tolist(), y.tolist())))
    elapsed = time.perf_counter() - start
    _verdict(
        "A1", worst < 1e-12 and elapsed < 5.0,
        f"pearson vs brute force on 1000 pairs: max |dev| {worst:.2e} "
        f"(tol 1e-12), {elapsed:.1f}s (cap 5s)",
    )


def test_a2_sba_exactness():
    devs = [
        abs(sba_adjust(0.5, 2.0) - 2.0 / 3.0),
        abs(sba_adjust(0.8, 0.25) - 0.5),
    ]
    devs += [abs(sba_adjust(1.0, k) - 1.0) for k in (0.1, 0.25, 1.0, 2.0, 19.0)]
    worst = max(devs)

    # chained fixtures: normalizing must equal the direct adjustment bit
    # for bit, and the closed-form targets to the same 1e-12
    chained = [
        (ReliabilityRecord("d", "v", 0.8, 40, True), sba_adjust(0.8, 20 / (2 * 40)), 0.5),
        (ReliabilityRecord("d", "v", 0.7, 10, False), sba_adjust(0.7, 20 / 10), 1.4 / 1.7),
        (ReliabilityRecord("d", "v", 1.0, 500, False), 1.0, 1.0),
    ]
    chain_exact = True
    for rec, direct, target in chained:
        got = normalize_shr(rec, 20).normalized_r
        chain_exact = chain_exact and got == direct and abs(got - target) < 1e-12
    _verdict(
        "A2", worst < 1e-12 and chain_exact,
        f"sba fixtures max |dev| {worst:.2e} (tol 1e-12); "
        f"normalize_shr chains exactly: {chain_exact}",
    )


def test_a3_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    shapes = [(4,), (8,), (16,), (4, 4), (8, 8), (16, 8), (5, 3), (12,), (6, 6), (10, 4)]
    worst = 0.0
    for i, hidden in enumerate(shapes):
        X = rng.uniform(1.0, 9.0, size=(12, 4))
        gold = rng.uniform(1.0, 5.0, size=(12, 3))
        worst = max(worst, gradient_check(hidden, (X, gold), seed=i))
    elapsed = time.perf_counter() - start
    _verdict(
        "A3", worst < 1e-4 and elapsed < 10.0,
        f"max relative gradient error over 10 nets: {worst:.2e} "
        f"(tol 1e-4), {elapsed:.1f}s (cap 10s)",
    )


def _affine_recovery_data():
    rng = np.random.default_rng(0)
    S = rng.uniform(1.0, 9.0, size=(300, 3))
    M = rng.uniform(-0.8, 0.8, size=(5, 3))
    T = (S - 5.0) @ M.T
    return S[:200], T[:200], S[200:], T[200:]


def test_a4_model_recovery():
    start = time.perf_counter()
    S_tr, T_tr, S_te, T_te = _affine_recovery_data()

    lr = LinearModel().fit_arrays(S_tr, T_tr)
    lr_r = [pearson(lr.predict(S_te)[:, v], T_te[:, v]) for v in range(5)]

    cfg = FfnnConfig(iterations=2000, dropout_hidden=0.0, seed=0)
    net = FfnnModel(cfg).fit_arrays(S_tr, T_tr)
    net_r = [pearson(net.predict(S_te)[:, v], T_te[:, v]) for v in range(5)]

    elapsed = time.perf_counter() - start
    ok = min(lr_r) > 0.9999 and min(net_r) > 0.999 and elapsed < 60.0
    _verdict(
        "A4", ok,
        f"held-out per-variable r: LR min {min(lr_r):.6f} (floor 0.9999), "
        f"FFNN min {min(net_r):.6f} (floor 0.999), {elapsed:.1f}s (cap 60s)",
    )


def test_a5_nonlinearity_advantage():
    start = time.perf_counter()
    S, T = make_vshape_arrays(300, seed=0)
    S_tr, T_tr, S_te, T_te = S[:200], T[:200], S[200:], T[200:]

    lr = LinearModel().fit_arrays(S_tr, T_tr)
    lr_mean = float(np.mean([pearson(lr.predict(S_te)[:, v], T_te[:, v]) for v in range(5)]))

    net = FfnnModel(FfnnConfig(iterations=2000, seed=0)).fit_arrays(S_tr, T_tr)
    net_mean = float(np.mean([pearson(net.predict(S_te)[:, v], T_te[:, v]) for v in range(5)]))

    elapsed = time.perf_counter() - start
    gap = net_mean - lr_mean
    _verdict(
        "A5", gap >= 0.2 and elapsed < 60.0,
        f"V-shape held-out mean r: FFNN {net_mean:.4f} vs LR {lr_mean:.4f}, "
        f"gap {gap:.4f} (floor 0.2), {elapsed:.1f}s (cap 60s)",
    )


def test_a6_knn_oracle_equivalence():
    rng = np.random.default_rng(6)
    exact = True
    for k in (1, 5, 20):
        # one-decimal grid forces duplicate rows and exact distance ties
        S = np.round(rng.uniform(1.0, 9.0, size=(50, 3)), 1)
        T = np.round(rng.uniform(1.0, 5.0, size=(50, 4)), 1)
        X = np.round(rng.uniform(1.0, 9.0, size=(200 // 3 + 1, 3)), 1)
        m = KnnModel(k=k).fit_arrays(S, T)
        exact = exact and np.array_equal(m.predict(X), knn_oracle(m, X))
    _verdict(
        "A6", exact,
        f"KnnModel.predict vs exhaustive oracle, 201 queries x k in (1, 5, 20): "
        f"bitwise equal: {exact}",
    )


def test_a7_fold_integrity():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(2, min(n, 20) + 1))
        seed = int(rng.integers(0, 10_000))
        folds = make_folds(n, k, seed)
        again = make_folds(n, k, seed)
        sizes = [len(folds.test_indices(f)) for f in range(k)]
        seen = sorted(np.concatenate([folds.test_indices(f) for f in range(k)]).tolist())
        ok = ok and seen == list(range(n))
        ok = ok and max(sizes) - min(sizes) <= 1
        ok = ok and folds.assignment == again.assignment
    _verdict(
        "A7", ok,
        f"500 random (n, k, seed) triples: partition + size spread <= 1 + "
        f"reproducibility: {ok}",
    )


def test_a8_shr_calibration():
    start = time.perf_counter()
    doc = json.loads((DATA / "shr_oracle.json").read_text())
    n_items, n_raters = doc["n_items"], doc["n_raters"]
    worst = 0.0
    for level in doc["levels"]:
        sigma = level["sigma"]
        rng = np.random.default_rng([44, int(sigma * 1000)])
        truth = rng.normal(doc["truth_mean"], doc["truth_sd"], n_items)
        ratings = truth[:, None] + rng.normal(0.0, sigma, (n_items, n_raters))
        m = RaterMatrix([f"i{i}" for i in range(n_items)], ratings)
        got = split_half_reliability(m, iterations=100, seed=44)
        worst = max(worst, abs(got - level["expected_r"]))
    elapsed = time.perf_counter() - start
    _verdict(
        "A8", worst <= 0.05 and elapsed < 30.0,
        f"split-half reliability vs 1000-resample oracle at 3 noise levels: "
        f"max |dev| {worst:.4f} (tol 0.05), {elapsed:.1f}s (cap 30s)",
    )


def test_a9_en2_reproduction():
    data_dir = os.environ.get("AFFECTMAP_EN2_DIR")
    if not data_dir:
        print(
            "A9: SKIP - set AFFECTMAP_EN2_DIR to a directory containing "
            "en2_vad.tsv and en2_be5.tsv (see README) to enable"
        )
        pytest.skip("en_2 data not supplied")
    root = Path(data_dir)
    vad_cols = {"word": "word", **{v: v for v in VAD.variables}}
    be5_cols = {"word": "word", **{v: v for v in BE5.variables}}
    vad = parse_lexicon(root / "en2_vad.tsv", VAD, vad_cols, language="en",
                        lowercase=True, clamp=True)
    be5 = parse_lexicon(root / "en2_be5.tsv", BE5, be5_cols, language="en",
                        lowercase=True, clamp=True)
    aligned = align(vad, be5)

    reports = run_monolingual({"en_2": aligned}, [ModelSpec("ffnn", "ffnn")], seed=0)
    cat2dim = next(r for r in reports if r.direction == "cat2dim")
    r_dev = abs(cat2dim.format_average_r - 0.843)

    ablation = run_ablation({"en_2": aligned}, "dim2cat", seed=0)
    drop_dev = abs(ablation.drops["valence"] - 0.12)

    _verdict(
        "A9", r_dev <= 0.02 and drop_dev <= 0.03,
        f"en_2: FFNN cat2dim average r {cat2dim.format_average_r:.3f} "
        f"(target 0.843 +/- 0.02), valence ablation drop "
        f"{ablation.drops['valence']:.3f} (target 0.12 +/- 0.03)",
    )


def test_a10_end_to_end_determinism(tmp_path):
    fixture = DATA / "cli_fixture" / "manifest.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "monolingual", "--manifest", str(fixture), "--out", str(out_a)]) == 0
    assert cli_main(["run", "monolingual", "--manifest", str(fixture), "--out", str(out_b)]) == 0
    report_names = ("monolingual_report.json", "monolingual_table.tsv", "run_meta.json")
    reports_ok = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in report_names)

    rng = np.random.default_rng(10)
    (tmp_path / "query.tsv").write_bytes(
        (
            "\n".join(
                ["word\tvalence\tarousal\tdominance"]
                + [
                    f"q{i}\t" + "\t".join(repr(float(v)) for v in rng.uniform(1, 9, 3))
                    for i in range(15)
                ]
            )
            + "\n"
        ).encode("utf-8")
    )
    job_manifest = {
        "seed": 3,
        "datasets": json.loads(fixture.read_text())["datasets"],
        "models": [{"name": "lr", "kind": "lr"}],
        "lexicon_jobs": [
            {
                "mode": "monolingual",
                "output": "new.tsv",
                "model": "lr",
                "training_id": "syn",
                "training_direction": "dim2cat",
                "source": {"path": str(tmp_path / "query.tsv"), "format": "VAD"},
            }
        ],
    }
    for side in job_manifest["datasets"][0]["sides"]:
        side["path"] = str((DATA / "cli_fixture" / side["path"]).resolve())
    mpath = tmp_path / "job.json"
    mpath.write_bytes(json.dumps(job_manifest).encode("utf-8"))
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert cli_main(["run", "build-lexicon", "--manifest", str(mpath), "--out", str(out_c)]) == 0
    assert cli_main(["run", "build-lexicon", "--manifest", str(mpath), "--out", str(out_d)]) == 0
    lexicon_names = ("new.tsv", "new.tsv.manifest.json")
    lexicons_ok = all((out_c / n).read_bytes() == (out_d / n).read_bytes() for n in lexicon_names)

    _verdict(
        "A10", reports_ok and lexicons_ok,
        f"two identical cmd_run invocations: reports byte-identical: {reports_ok}, "
        f"lexicons byte-identical: {lexicons_ok}",
    )


def test_a11_ablation_ordering():
    rng = np.random.default_rng(0)
    n = 300
    words = [f"w{i:04d}" for i in range(n)]
    vad = rng.uniform(1.0, 9.0, size=(n, 3))
    coefs = np.array([0.22, 0.13, 0.05])  # true importance: v > a > d
    scale = rng.uniform(0.85, 1.15, size=5)
    T = 3.0 + np.outer((vad - 5.0) @ coefs, scale)
    T = np.clip(T + rng.normal(0.0, 0.05, T.shape), 1.0, 5.0)
    data = AlignedLexicon(words, VAD, BE5, vad, T, language="en")

    report = run_ablation({"graded": data}, "dim2cat", seed=0)
    d = report.drops
    ordered = d["valence"] > d["arousal"] > d["dominance"]
    _verdict(
        "A11", ordered,
        f"ablation drops ordered by true coefficients: valence {d['valence']:.3f} "
        f"> arousal {d['arousal']:.3f} > dominance {d['dominance']:.3f}: {ordered}",
    )

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import malformed_model_files, misshaped_model_files
from affectmap import __version__, experiments, lexgen
from affectmap.cli import _write_outputs, main
from affectmap.lexicon import BE5, Lexicon
from affectmap.models import load_model

DATA_DIR = Path(__file__).parent / "data"
# a kNN and an lr lexicon job, ablation and the reliability records on the
# CLI fixture, and the files of theirs that no BLAS kernel moves: the report
# JSONs go through BLAS reductions, so they are left out
TABLES_MANIFEST = DATA_DIR / "cli_fixture" / "tables_manifest.json"
TABLE_GOLDENS = {
    "build-lexicon": ("knn_syn_be5.tsv", "knn_syn_be5.tsv.manifest.json", "lr_syn_vad.tsv",
                      "lr_syn_vad.tsv.manifest.json"),
    "ablation": ("ablation_table.tsv",),
    "shr-normalize": ("reliability_normalized.tsv",),
}


def _assert_table_goldens(out: Path) -> None:
    for name in (name for names in TABLE_GOLDENS.values() for name in names):
        assert (out / name).read_bytes() == (DATA_DIR / "golden" / name).read_bytes(), name


def _render_tsv(header, rows):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(c) for c in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_dataset(dirpath, n=40, seed=0, noise=0.1, prefix="w"):
    """Paired VAD/BE5 TSV files linked by a noisy affine map."""
    rng = np.random.default_rng(seed)
    words = [f"{prefix}{i:03d}" for i in range(n)]
    vad = rng.uniform(1.0, 9.0, size=(n, 3))
    M = rng.uniform(-0.12, 0.12, size=(5, 3))
    be5 = np.clip(3.0 + (vad - 5.0) @ M.T + rng.normal(0, noise, (n, 5)), 1.0, 5.0)
    (dirpath / f"{prefix}_vad.tsv").write_bytes(
        _render_tsv(
            ["word", "valence", "arousal", "dominance"],
            [[w, *(repr(float(v)) for v in row)] for w, row in zip(words, vad)],
        )
    )
    (dirpath / f"{prefix}_be5.tsv").write_bytes(
        _render_tsv(
            ["word", "joy", "anger", "sadness", "fear", "disgust"],
            [[w, *(repr(float(v)) for v in row)] for w, row in zip(words, be5)],
        )
    )
    return words, vad, be5


def write_manifest(dirpath, name="manifest.json", **overrides):
    doc = {
        "seed": 7,
        "k_folds": 4,
        "output_dir": "out",
        "datasets": [
            {
                "id": "syn",
                "language": "en",
                "sides": [
                    {"path": "w_vad.tsv", "format": "VAD"},
                    {"path": "w_be5.tsv", "format": "BE5"},
                ],
            }
        ],
        "models": [
            {"name": "lr", "kind": "lr"},
            {"name": "knn", "kind": "knn", "params": {"k": 5}},
        ],
    }
    doc.update(overrides)
    path = dirpath / name
    path.write_bytes(json.dumps(doc, indent=2).encode("utf-8"))
    return path


def write_every_task_manifest(root):
    """Two languages, rating models (boosted too), a boosted feature-input
    model, ablation and three lexicon jobs: one manifest that every run task
    accepts."""
    words_en, *_ = write_dataset(root, n=40, seed=0, prefix="w")
    words_de, *_ = write_dataset(root, n=36, seed=1, prefix="x")
    rng = np.random.default_rng(3)
    emb = [w + "\t" + "\t".join(repr(float(v)) for v in rng.normal(size=4))
           for w in words_en + words_de]
    (root / "emb.tsv").write_text("\n".join(emb) + "\n", encoding="utf-8")
    (root / "query.tsv").write_bytes(_render_tsv(
        ["word", "valence", "arousal", "dominance"],
        [[f"q{i}", *(repr(float(v)) for v in rng.uniform(1, 9, 3))] for i in range(15)],
    ))
    job = {"mode": "monolingual", "training_direction": "dim2cat",
           "source": {"path": "query.tsv", "format": "VAD"}}
    side = lambda p, fmt: {"path": f"{p}_{fmt.lower()}.tsv", "format": fmt}  # noqa: E731
    boost = {"stages": 2, "base": {"hidden_sizes": [4], "iterations": 3}}
    return write_manifest(
        root,
        datasets=[
            {"id": "en", "language": "en", "sides": [side("w", "VAD"), side("w", "BE5")]},
            {"id": "de", "language": "de", "sides": [side("x", "VAD"), side("x", "BE5")]},
        ],
        models=[
            {"name": "lr", "kind": "lr"},
            {"name": "knn", "kind": "knn", "params": {"k": 5}},
            {"name": "wei", "kind": "boosted", "features_path": "emb.tsv", "params": boost},
            {"name": "boost", "kind": "boosted", "params": boost},
        ],
        crosslingual_model="wei",
        lexicon_jobs=[
            {**job, "output": "lr.tsv", "model": "lr", "training_id": "en"},
            {**job, "output": "boost.tsv", "model": "boost", "training_id": "en"},
            {**job, "output": "knn.tsv", "model": "knn", "mode": "crosslingual",
             "training_ids": ["en", "de"], "source": {**job["source"], "format": "VA"}},
        ],
    )


@pytest.fixture
def workspace(tmp_path):
    write_dataset(tmp_path)
    manifest = write_manifest(tmp_path)
    return tmp_path, manifest


class TestUsage:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_unknown_task_is_usage_error(self, workspace):
        _, manifest = workspace
        with pytest.raises(SystemExit) as exc:
            main(["run", "frobnicate", "--manifest", str(manifest)])
        assert exc.value.code == 64

    def test_missing_manifest_flag(self):
        assert main(["validate"]) == 2

    def test_missing_manifest_file(self, tmp_path):
        assert main(["validate", "--manifest", str(tmp_path / "nope.json")]) == 1

    def test_bad_manifest_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"{not json")
        assert main(["validate", "--manifest", str(path)]) == 2

    def test_manifest_without_seed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"{}")
        assert main(["validate", "--manifest", str(path)]) == 2

    def test_bad_set_override(self, workspace, tmp_path):
        _, manifest = workspace
        code = main(["validate", "--manifest", str(manifest), "--set", "noequals"])
        assert code == 2


class TestValidate:
    def test_ok(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        out = tmp_path / "vout"
        code = main(["validate", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "ok\tdataset syn\t40 aligned words" in text
        assert (out / "validation.txt").read_text() == text

    def test_paths_resolve_against_the_manifest_unless_absolute(self, tmp_path):
        data, home = tmp_path / "data", tmp_path / "home"
        data.mkdir()
        home.mkdir()
        write_dataset(data)
        (data / "rel.tsv").write_bytes(_render_tsv(
            ["dataset", "variable", "reported_r", "n_participants", "sba_applied"],
            [["syn", "joy", "0.8", "40", "true"]]))
        sides = [{"path": str(data / "w_vad.tsv"), "format": "VAD"},
                 {"path": "../data/w_be5.tsv", "format": "BE5"}]
        job = {"mode": "monolingual", "output": "new.tsv", "model": "lr", "training_id": "syn",
               "source": {"path": str(data / "w_vad.tsv"), "format": "VAD"}}
        manifest = write_manifest(
            home, output_dir=str(tmp_path / "out"), reliability=str(data / "rel.tsv"),
            datasets=[{"id": "syn", "language": "en", "sides": sides}], lexicon_jobs=[job])
        assert main(["validate", "--manifest", str(manifest)]) == 0
        report = (tmp_path / "out" / "validation.txt").read_text()
        assert "ok\tdataset syn\t40 aligned words" in report
        assert "error" not in report

    def test_missing_column_named_in_diagnostics(self, tmp_path, capsys):
        write_dataset(tmp_path)
        manifest = write_manifest(
            tmp_path,
            datasets=[
                {
                    "id": "syn",
                    "language": "en",
                    "sides": [
                        {
                            "path": "w_vad.tsv",
                            "format": "VAD",
                            "columns": {
                                "word": "word",
                                "valence": "VALENCE_Z",
                                "arousal": "arousal",
                                "dominance": "dominance",
                            },
                        },
                        {"path": "w_be5.tsv", "format": "BE5"},
                    ],
                }
            ],
        )
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "VALENCE_Z" in capsys.readouterr().out

    def test_out_of_range_rating_names_word(self, tmp_path, capsys):
        write_dataset(tmp_path)
        bad = tmp_path / "w_vad.tsv"
        text = bad.read_text()
        bad.write_text(text.replace("\n", "\nzebra\t12.0\t5.0\t5.0\n", 1))
        manifest = write_manifest(tmp_path)
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "zebra" in capsys.readouterr().out

    def test_missing_dataset_file(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)  # TSVs never written
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().out

    def test_missing_dataset_reported_once(self, tmp_path, capsys):
        # the ablation check sees only the datasets that loaded
        manifest = write_manifest(tmp_path, ablation={"direction": "dim2cat"})
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines if line.startswith("error")] == [
            "dataset syn"
        ]

    def test_missing_dataset_reported_once_under_lexicon_jobs(self, tmp_path, capsys):
        # syn's files are missing; a job on the healthy dataset is unaffected
        # and a job on syn names it without repeating its error
        write_dataset(tmp_path, prefix="v")
        good = {"id": "good", "language": "en", "sides": [
            {"path": "v_vad.tsv", "format": "VAD"}, {"path": "v_be5.tsv", "format": "BE5"}]}
        job = {"mode": "monolingual", "model": "lr", "training_direction": "dim2cat",
               "source": {"path": "v_vad.tsv", "format": "VAD"}}
        manifest = write_manifest(
            tmp_path,
            datasets=[*_sides()["datasets"], good],
            lexicon_jobs=[
                {**job, "output": "good.tsv", "training_id": "good"},
                {**job, "output": "syn.tsv", "training_id": "syn"},
                {**job, "output": "both.tsv", "mode": "crosslingual",
                 "training_ids": ["good", "syn"]},
            ],
        )
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        errors = [line.split("\t") for line in lines if line.startswith("error")]
        assert [label for _, label, _ in errors] == [
            "dataset syn", "lexicon job syn.tsv", "lexicon job both.tsv"
        ]
        assert sum("w_vad.tsv" in line for line in lines) == 1
        assert errors[1][2] == errors[2][2] == "dataset 'syn' did not load"
        assert "ok\tlexicon job good.tsv\t40 source words" in lines

    def test_lexicon_job_listed(self, tmp_path, capsys):
        write_dataset(tmp_path)
        rng = np.random.default_rng(3)
        (tmp_path / "query.tsv").write_bytes(
            _render_tsv(
                ["word", "valence", "arousal", "dominance"],
                [[f"q{i}", *(repr(float(v)) for v in rng.uniform(1, 9, 3))] for i in range(7)],
            )
        )
        manifest = write_manifest(
            tmp_path,
            lexicon_jobs=[
                {
                    "mode": "monolingual",
                    "output": "new.tsv",
                    "model": "lr",
                    "training_id": "syn",
                    "training_direction": "dim2cat",
                    "source": {"path": "query.tsv", "format": "VAD"},
                }
            ],
        )
        code = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "ok\tlexicon job new.tsv\t7 source words" in capsys.readouterr().out


class TestRunMonolingual:
    def test_writes_artifacts(self, workspace, tmp_path):
        _, manifest = workspace
        out = tmp_path / "results"
        code = main(["run", "monolingual", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "monolingual_report.json").read_bytes())
        assert doc["meta"] == {"task": "monolingual", "seed": 7, "k_folds": 4}
        assert len(doc["reports"]) == 4  # 2 directions x 2 models
        table = (out / "monolingual_table.tsv").read_text()
        assert table.startswith("dataset\tdirection\titems\tlr\tknn\n")
        meta = json.loads((out / "run_meta.json").read_bytes())
        assert meta["version"] == __version__
        assert meta["task"] == "monolingual"
        assert meta["seed"] == 7
        assert meta["k_folds"] == 4
        digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert meta["manifest_digest"] == digest

    def test_two_runs_byte_identical(self, workspace, tmp_path):
        _, manifest = workspace
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "monolingual", "--manifest", str(manifest), "--out", str(out_a)]) == 0
        assert main(["run", "monolingual", "--manifest", str(manifest), "--out", str(out_b)]) == 0
        for name in ("monolingual_report.json", "monolingual_table.tsv", "run_meta.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override(self, workspace, tmp_path):
        _, manifest = workspace
        out = tmp_path / "o"
        main(["run", "monolingual", "--manifest", str(manifest), "--out", str(out), "--seed", "99"])
        meta = json.loads((out / "run_meta.json").read_bytes())
        assert meta["seed"] == 99
        doc = json.loads((out / "monolingual_report.json").read_bytes())
        assert doc["meta"]["seed"] == 99

    def test_set_override(self, workspace, tmp_path):
        _, manifest = workspace
        out = tmp_path / "o"
        main(
            [
                "run", "monolingual",
                "--manifest", str(manifest),
                "--out", str(out),
                "--set", "k_folds=3",
            ]
        )
        meta = json.loads((out / "run_meta.json").read_bytes())
        assert meta["k_folds"] == 3

    @pytest.mark.filterwarnings("ignore:first boosting stage")
    def test_jobs_flag_same_output(self, tmp_path):
        """Every task's outputs and run_meta.json are byte-identical at
        --jobs 1, 2 and 3, boosted feature-input cells included."""
        manifest = write_every_task_manifest(tmp_path)
        outputs = {
            "monolingual": ("monolingual_report.json", "monolingual_table.tsv"),
            "crosslingual": ("crosslingual_report.json", "crosslingual_table.tsv"),
            "ablation": ("ablation_report.json", "ablation_table.tsv"),
            "build-lexicon": ("lr.tsv", "lr.tsv.manifest.json", "boost.tsv",
                              "boost.tsv.manifest.json", "knn.tsv", "knn.tsv.manifest.json"),
        }
        for task, names in outputs.items():
            runs = []
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"{task}-{jobs}"
                argv = ["run", task, "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]
                assert main(argv) == 0, (task, jobs)
                runs.append({n: (out / n).read_bytes() for n in (*names, "run_meta.json")})
            assert runs[0] == runs[1] == runs[2], task

    def test_jobs_below_one_is_usage_error(self, workspace, capsys):
        _, manifest = workspace
        for jobs in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "monolingual", "--manifest", str(manifest), "--jobs", jobs])
            assert exc.value.code == 64
            assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_pool_never_wider_than_the_units(self, workspace, tmp_path, monkeypatch):
        """--jobs is an upper bound: the pool gets one worker per unit at
        most (2 directions x 2 models x 4 folds here)."""
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", SerialPool)
        _, manifest = workspace
        argv = ["run", "monolingual", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main([*argv, "--jobs", "1000"]) == 0
        assert main([*argv, "--jobs", "3"]) == 0
        assert widths == [16, 3]

    def test_golden_files(self, tmp_path):
        fixture = DATA_DIR / "cli_fixture" / "manifest.json"
        golden = DATA_DIR / "golden"
        out = tmp_path / "out"
        code = main(["run", "monolingual", "--manifest", str(fixture), "--out", str(out)])
        assert code == 0
        for name in ("monolingual_report.json", "monolingual_table.tsv"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_exit_code(self, tmp_path, capsys):
        write_dataset(tmp_path)
        manifest = write_manifest(
            tmp_path,
            models=[
                {
                    "name": "blowup",
                    "kind": "ffnn",
                    "params": {"hidden_sizes": [8], "iterations": 50, "learning_rate": 1e30},
                }
            ],
        )
        for jobs in ("1", "2"):
            argv = ["run", "monolingual", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
            assert main([*argv, "--jobs", jobs]) == 3, jobs
            assert "divergence" in capsys.readouterr().err

    def test_network_too_large_to_allocate(self, workspace, tmp_path, capsys):
        # the widest layer validate lets through; its product with the
        # 3 input columns is past numpy's limit, refused before any memory
        root, _ = workspace
        width = np.iinfo(np.intp).max // 4
        manifest = write_manifest(root, **_net(hidden_sizes=[width], iterations=1))
        argv = ["run", "monolingual", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot allocate a network of layer sizes [" in err
        assert f", {width}, " in err
        assert "Traceback" not in err


class TestRunOtherTasks:
    def test_golden_files(self, tmp_path):
        out = tmp_path / "out"
        for task in TABLE_GOLDENS:
            assert main(["run", task, "--manifest", str(TABLES_MANIFEST), "--out", str(out)]) == 0
        _assert_table_goldens(out)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the forced OpenBLAS kernels are x86-64 ones")
    @pytest.mark.parametrize("core", ["SandyBridge", "Prescott"])
    def test_golden_files_under_a_forced_blas_kernel(self, core, tmp_path):
        """The same bytes from a process whose OpenBLAS runs the kernels of
        an older x86-64 core, which every x86-64 host can run."""
        out = tmp_path / "out"
        argvs = [["run", task, "--manifest", str(TABLES_MANIFEST), "--out", str(out)]
                 for task in TABLE_GOLDENS]
        probe = ("import json, sys\nfrom affectmap.cli import main\n"
                 "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_CORETYPE": core}
        done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        _assert_table_goldens(out)

    def test_shr_normalize(self, tmp_path):
        (tmp_path / "rel.tsv").write_bytes(
            _render_tsv(
                ["dataset", "variable", "reported_r", "n_participants", "sba_applied"],
                [
                    ["syn", "joy", "0.8", "40", "true"],
                    ["syn", "valence", "0.7", "10", "false"],
                ],
            )
        )
        manifest = write_manifest(tmp_path, datasets=[], reliability="rel.tsv")
        out = tmp_path / "o"
        code = main(["run", "shr-normalize", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        lines = (out / "reliability_normalized.tsv").read_text().strip().split("\n")
        assert lines[0].split("\t")[-1] == "normalized_r"
        by_var = {l.split("\t")[1]: l.split("\t")[-1] for l in lines[1:]}
        assert by_var["joy"] == "0.500"  # 20/(2*40) applied to 0.8
        assert by_var["valence"] == "0.824"  # (20/10)*0.7 / (1 + 0.7)

    def test_shr_normalize_without_records(self, workspace, tmp_path):
        _, manifest = workspace
        code = main(["run", "shr-normalize", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_ablation(self, workspace, tmp_path):
        _, manifest = workspace
        out = tmp_path / "o"
        code = main(["run", "ablation", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "ablation_report.json").read_bytes())
        assert doc["direction"] == "dim2cat"
        assert set(doc["drops"]) == {"valence", "arousal", "dominance"}
        table = (out / "ablation_table.tsv").read_text().strip().split("\n")
        assert table[0] == "variable\tdrop"
        assert len(table) == 4

    def test_ablation_on_a_constant_target_variable(self, tmp_path):
        words, vad, be5 = write_dataset(tmp_path)
        be5[:, 0] = 3.0  # joy: no fold has a defined r for it
        (tmp_path / "w_be5.tsv").write_bytes(_render_tsv(
            ["word", "joy", "anger", "sadness", "fear", "disgust"],
            [[w, *(repr(float(v)) for v in row)] for w, row in zip(words, be5)],
        ))
        manifest = write_manifest(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "ablation", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "ablation_report.json").read_bytes())
        assert doc["drops"] == {"valence": None, "arousal": None, "dominance": None}
        assert doc["per_dataset_drops"] == {"syn": doc["drops"]}
        assert doc["full_average_r"] == {"syn": None}
        table = (out / "ablation_table.tsv").read_text().strip().split("\n")
        assert table[1:] == ["valence\tn/a", "arousal\tn/a", "dominance\tn/a"]

    def test_crosslingual(self, tmp_path):
        write_dataset(tmp_path, prefix="w", seed=0)
        write_dataset(tmp_path, prefix="x", seed=1)
        manifest = write_manifest(
            tmp_path,
            datasets=[
                {
                    "id": "en",
                    "language": "en",
                    "sides": [
                        {"path": "w_vad.tsv", "format": "VAD"},
                        {"path": "w_be5.tsv", "format": "BE5"},
                    ],
                },
                {
                    "id": "de",
                    "language": "de",
                    "sides": [
                        {"path": "x_vad.tsv", "format": "VAD"},
                        {"path": "x_be5.tsv", "format": "BE5"},
                    ],
                },
            ],
            crosslingual_model="lr",
        )
        out = tmp_path / "o"
        code = main(["run", "crosslingual", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "crosslingual_report.json").read_bytes())
        assert doc["meta"]["model"] == "lr"
        assert len(doc["reports"]) == 4
        for rep in doc["reports"]:
            assert "dominance" not in rep["variables"]
            assert rep["n_train"] == 40

    def test_build_lexicon(self, tmp_path, monkeypatch):
        write_dataset(tmp_path)
        rng = np.random.default_rng(5)
        query_words = [f"q{i}" for i in range(12)]
        (tmp_path / "query.tsv").write_bytes(
            _render_tsv(
                ["word", "valence", "arousal", "dominance"],
                [[w, *(repr(float(v)) for v in rng.uniform(1, 9, 3))] for w in query_words],
            )
        )
        (tmp_path / "known.tsv").write_bytes(
            _render_tsv(
                ["word", "joy", "anger", "sadness", "fear", "disgust"],
                [["q0", "2.0", "2.0", "2.0", "2.0", "2.0"],
                 ["q5", "2.0", "2.0", "2.0", "2.0", "2.0"]],
            )
        )
        job = {
            "mode": "monolingual",
            "output": "new.tsv",
            "model": "lr",
            "training_id": "syn",
            "training_direction": "dim2cat",
            "source": {"path": "query.tsv", "format": "VAD"},
            "exclusions": [{"path": "known.tsv", "format": "BE5"}],
        }
        manifest = write_manifest(
            tmp_path,
            lexicon_jobs=[job, {**job, "output": "knn.tsv", "model": "knn", "exclusions": []}],
        )
        renders = []
        render = lexgen.render_lexicon
        monkeypatch.setattr(lexgen, "render_lexicon", lambda lex: renders.append(1) or render(lex))
        out = tmp_path / "o"
        code = main(["run", "build-lexicon", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        # one render per lexicon: the manifest digests the very bytes written
        assert len(renders) == 2
        for name in ("new.tsv", "knn.tsv"):
            build = json.loads((out / (name + ".manifest.json")).read_bytes())
            assert build["output_digest"] == hashlib.sha256((out / name).read_bytes()).hexdigest()
        produced = (out / "new.tsv").read_bytes()
        build = json.loads((out / "new.tsv.manifest.json").read_bytes())
        assert build["new_words"] == 10
        assert build["total_excluded"] == 2
        words = [l.split("\t")[0] for l in produced.decode().strip().split("\n")[1:]]
        assert "q0" not in words and "q5" not in words
        assert len(words) == 10
        assert json.loads((out / "knn.tsv.manifest.json").read_bytes())["new_words"] == 12

    def test_build_lexicon_without_jobs(self, workspace, tmp_path):
        _, manifest = workspace
        code = main(["run", "build-lexicon", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2


def _nan_lexicon(root):
    path = root / "w_vad.tsv"
    lines = path.read_text().split("\n")
    lines[3] = "\t".join([*lines[3].split("\t")[:2], "nan", "5.0"])
    path.write_text("\n".join(lines))
    return write_manifest(root), "monolingual"


def _nan_features(root):
    (root / "emb.tsv").write_bytes(b"w000\t0.5\nw001\tnan\n")
    models = [{"name": "boost", "kind": "boosted", "features_path": "emb.tsv"}]
    return write_manifest(root, models=models), "monolingual"


def _bad_normalized_r(root):
    (root / "rel.tsv").write_bytes(
        _render_tsv(
            ["dataset", "variable", "reported_r", "n_participants", "sba_applied", "normalized_r"],
            [["syn", "joy", "0.8", "40", "true", "high"]],
        )
    )
    return write_manifest(root, reliability="rel.tsv"), "shr-normalize"


class TestMalformedInputs:
    @pytest.mark.parametrize("setup", [_nan_lexicon, _nan_features, _bad_normalized_r])
    def test_exit_2_naming_the_line(self, setup, workspace, capsys):
        root, _ = workspace
        manifest, task = setup(root)
        assert main(["run", task, "--manifest", str(manifest), "--out", str(root / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affectmap: error: line ")


def _net(kind="ffnn", **params):
    return {"models": [{"name": "net", "kind": kind, "params": params}]}


def _sides(*sides, **vad_keys):
    """The syn dataset with its sides replaced, or its VAD side's keys."""
    if not sides:
        sides = ({"path": "w_vad.tsv", "format": "VAD", **vad_keys},
                 {"path": "w_be5.tsv", "format": "BE5"})
    return {"datasets": [{"id": "syn", "language": "en", "sides": list(sides)}]}


def _job_source(job_keys=(), **keys):
    """One monolingual lexicon job, with some of its keys or its source's replaced."""
    job = {"mode": "monolingual", "output": "new.tsv", "model": "lr", "training_id": "syn",
           "source": {"path": "w_vad.tsv", "format": "VAD", **keys}}
    return {"lexicon_jobs": [{**job, **dict(job_keys)}]}


_INLINE_VAD = {"name": "X", "variables": ["valence", "arousal", "dominance"],
               "scale_low": 1, "scale_high": 9}


class TestManifestShape:
    """Manifest faults that ended in tracebacks, or ran on a silently
    coerced value: each exits 2 naming the key or the model, at validate
    and at every run it used to reach."""

    @pytest.mark.parametrize("overrides, named, tasks", [
        ({"k_folds": "x"}, "'k_folds'", ("monolingual",)),
        ({"seed": 1.5}, "'seed'", ("monolingual",)),
        ({"lexicon_jobs": [5]}, "'lexicon_jobs'", ("build-lexicon",)),
        ({"datasets": {"a": 1}}, "'datasets'", ("monolingual",)),
        ({"models": "lr"}, "'models'", ("monolingual",)),
        (_net(hidden_sizes="ab", iterations=1), "model 'net'", ("monolingual",)),
        (_net(iterations="7"), "model 'net'", ("monolingual",)),
        (_net("knn", k="z"), "model 'net'", ("monolingual",)),
        (_net(bogus=1, iterations=1), "model 'net'", ("monolingual",)),
        ({"models": [{"name": "net", "kind": "lr", "params": "x"}]}, "model 'net'",
         ("monolingual",)),
        (_sides(5, 6), "dataset 'syn': 'sides'", ("monolingual",)),
        (_sides(scale="ab"), "dataset 'syn': 'scale'", ("monolingual",)),
        (_sides(scale=[1, float("inf")]), "dataset 'syn': 'scale'", ("monolingual",)),
        (_sides(path=5), "dataset 'syn': 'path'", ("monolingual",)),
        (_sides(lowercase="no"), "dataset 'syn': 'lowercase'", ("monolingual",)),
        (_sides(columns={"word": 1}), "dataset 'syn': 'columns'", ("monolingual",)),
        (_job_source(clamp=1), "lexicon job 'new.tsv' source: 'clamp'", ("build-lexicon",)),
        (_net(iterations=7.5), "model 'net': iterations", ("monolingual",)),
        (_net(iterations=float("inf")), "model 'net': iterations", ("monolingual",)),
        (_net(iterations=True), "model 'net': iterations", ("monolingual",)),
        (_net(hidden_sizes=[4.5], iterations=1), "model 'net': hidden_sizes", ("monolingual",)),
        (_net(hidden_sizes=[True], iterations=1), "model 'net': hidden_sizes", ("monolingual",)),
        (_net("boosted", base={"iterations": 2.5}), "model 'net': iterations", ("monolingual",)),
        ({"k_folds": 1}, "'k_folds'", ("monolingual",)),
        (_sides(format={**_INLINE_VAD, "variables": 5}), "dataset 'syn': 'variables'",
         ("monolingual",)),
        (_sides(format={**_INLINE_VAD, "scale_low": "a"}), "dataset 'syn': 'scale_low'",
         ("monolingual",)),
        ({"datasets": [{**_sides()["datasets"][0], "id": ["syn"]}]}, "'id'", ("monolingual",)),
        (_job_source({"mode": "crosslingual", "training_ids": 5}),
         "lexicon job 'new.tsv': 'training_ids'", ("build-lexicon",)),
        (_job_source({"training_id": ["syn"]}), "lexicon job 'new.tsv': 'training_id'",
         ("build-lexicon",)),
        ({"ablation": 5}, "'ablation'", ("ablation",)),
        (_net("knn", k=True), "model 'net': k", ("monolingual",)),
        (_net("boosted", stages=True), "model 'net': stages", ("monolingual",)),
        (_job_source({"training_direction": ["x"]}),
         "lexicon job 'new.tsv': 'training_direction'", ("build-lexicon",)),
        ({"reliability": 5}, "'reliability'", ("shr-normalize", "monolingual")),
        ({"models": [{"name": "net", "kind": "lr", "features_path": 5}]},
         "model 'net': 'features_path'", ("monolingual",)),
        ({"models": [{"name": "net", "kind": ["x"]}]}, "model 'net': 'kind'", ("monolingual",)),
        ({"models": [{"name": ["x"], "kind": "lr"}]}, "'name'", ("monolingual",)),
        ({"ablation": {"direction": ["x"]}}, "ablation: 'direction'", ("ablation",)),
        ({"ablation": {"direction": 5}}, "ablation: 'direction'", ("ablation",)),
        ({"datasets": _sides()["datasets"] * 2}, "duplicate dataset id 'syn'", ("monolingual",)),
        (_net(learning_rate=float("inf"), iterations=1), "model 'net': learning_rate",
         ("monolingual",)),
        (_net(epsilon=float("inf"), iterations=1), "model 'net': epsilon", ("monolingual",)),
        (_net(learning_rate=10**400, iterations=1), "model 'net': learning_rate",
         ("monolingual",)),
        ({"models": [{"name": "lr", "kind": "lr"}, {"name": "lr", "kind": "knn"}],
          **_job_source()}, "duplicate model name 'lr'", ("monolingual", "build-lexicon")),
        ({"ablation": {"direction": "bogus"}}, "ablation: 'direction'", ("ablation",)),
        ({"n_star": 0}, "'n_star'", ("monolingual",)),
        ({"lexicon_jobs": _job_source()["lexicon_jobs"] * 2},
         "duplicate lexicon job output 'new.tsv'", ("build-lexicon",)),
        ({"lexicon_jobs": [*_job_source()["lexicon_jobs"], *_job_source(
            {"output": "./new.tsv", "model": "knn"})["lexicon_jobs"]]},
         "duplicate lexicon job output 'new.tsv'", ("build-lexicon",)),
        (_job_source({"output": "/abs/x.tsv"}), "lexicon job '/abs/x.tsv': 'output'",
         ("build-lexicon",)),
        (_job_source({"output": "../../x.tsv"}), "lexicon job '../../x.tsv': 'output'",
         ("build-lexicon",)),
        (_job_source({"output": "sub/x.tsv"}), "lexicon job 'sub/x.tsv': 'output'",
         ("build-lexicon",)),
        (_job_source({"output": "a\u0000b.tsv"}), "lexicon job 'a\\x00b.tsv': 'output'",
         ("build-lexicon",)),
        (_job_source({"output": "run_meta.json"}),
         "duplicate lexicon job output 'run_meta.json' (the run metadata and lexicon job "
         "'run_meta.json')", ("build-lexicon",)),
        ({"lexicon_jobs": [*_job_source({"output": "a.tsv"})["lexicon_jobs"],
                           *_job_source({"output": "a.tsv.manifest.json"})["lexicon_jobs"]]},
         "duplicate lexicon job output 'a.tsv.manifest.json' (lexicon job 'a.tsv' build manifest "
         "and lexicon job 'a.tsv.manifest.json')", ("build-lexicon",)),
        ({"output_dir": "o\u0000ut"}, "'output_dir'", ("monolingual",)),
        (_sides(path="w_vad\u0000.tsv"), "dataset 'syn': 'path'", ("monolingual",)),
        ({"models": [{"name": "net", "kind": "lr", "features_path": "e\u0000.tsv"}]},
         "model 'net': 'features_path'", ("monolingual",)),
        ({"models": [{"name": "net", "kind": "knn", "params": {"seed": float("nan")}}],
          **_job_source({"model": "net"})}, "model 'net': 'params'",
         ("monolingual", "build-lexicon")),
        ({"models": [{"name": "net", "kind": "lr", "paramz": {}}]},
         "model 'net': unknown key 'paramz'", ("monolingual",)),
        ({"models": [{"name": "net", "kind": "boosted", "feature_path": "emb.tsv"}]},
         "model 'net': unknown key 'feature_path'", ("monolingual",)),
        (_net(hidden_sizes=[2**62], iterations=1), "model 'net': hidden_sizes",
         ("monolingual",)),
        (_net(hidden_sizes=[2**31, 2**31], iterations=1), "model 'net': hidden_sizes",
         ("monolingual",)),
        (_net("boosted", base={"hidden_sizes": [2**62]}), "model 'net': hidden_sizes",
         ("monolingual",)),
        ({"datasets": [{**_sides()["datasets"][0], "language": ["en"]}]},
         "dataset 'syn': 'language'", ("monolingual", "crosslingual")),
        ({"datasets": [{**_sides()["datasets"][0], "language": 5}]},
         "dataset 'syn': 'language'", ("monolingual", "crosslingual")),
        (_job_source(language=["en"]), "lexicon job 'new.tsv' source: 'language'",
         ("build-lexicon",)),
        (_sides(lowercse=True), "dataset 'syn': unknown side key 'lowercse'", ("monolingual",)),
        (_sides(language=5), "dataset 'syn': 'language' is set on the dataset",
         ("monolingual", "crosslingual")),
        (_sides(language="en"), "dataset 'syn': 'language' is set on the dataset",
         ("monolingual",)),
        (_job_source(colums={}), "lexicon job 'new.tsv' source: unknown side key 'colums'",
         ("build-lexicon",)),
        (_job_source({"exclusions": [{"path": "w_be5.tsv", "format": "BE5", "Clamp": True}]}),
         "lexicon job 'new.tsv' exclusion: unknown side key 'Clamp'", ("build-lexicon",)),
        (_net(hiden_sizes=[4]), "model 'net': 'params': unknown key 'hiden_sizes'",
         ("monolingual",)),
        (_net("knn", kk=3), "model 'net': 'params': unknown key 'kk'", ("monolingual",)),
        (_net("lr", k=3), "model 'net': 'params': unknown key 'k'", ("monolingual",)),
        (_net("boosted", base=5), "model 'net': 'params.base' must be an object, got 5",
         ("monolingual",)),
        (_net("boosted", base={"hiden_sizes": [4]}),
         "model 'net': 'params.base': unknown key 'hiden_sizes'", ("monolingual",)),
        (_sides(format={**_INLINE_VAD, "scale": [1, 9]}),
         "dataset 'syn': unknown format key 'scale'", ("monolingual",)),
        ({"k_fold": 5}, "manifest: unknown key 'k_fold'", ("monolingual",)),
        ({"datasets": [{**_sides()["datasets"][0], "lang": "de"}]},
         "dataset 'syn': unknown key 'lang'", ("monolingual",)),
        (_job_source({"exclusion": [{"path": "w_be5.tsv", "format": "BE5"}]}),
         "lexicon job 'new.tsv': unknown key 'exclusion'", ("build-lexicon",)),
        ({"ablation": {"direction": "dim2cat", "directon": "cat2dim"}},
         "ablation: unknown key 'directon'", ("ablation",)),
        ({"crosslingual_model": "nope"}, "crosslingual_model 'nope' is not a defined model",
         ("crosslingual",)),
    ], ids=["k_folds-string", "seed-float", "lexicon_jobs-int", "datasets-object",
            "models-string", "ffnn-hidden_sizes", "ffnn-iterations-string", "knn-k",
            "ffnn-unknown-param", "params-string", "sides-ints", "scale-string",
            "scale-infinite", "path-int", "lowercase-string", "columns-int",
            "job-clamp-int", "ffnn-iterations-fraction", "ffnn-iterations-infinite",
            "ffnn-iterations-bool", "ffnn-hidden_sizes-fraction", "ffnn-hidden_sizes-bool",
            "boosted-base-iterations", "k_folds-one", "format-variables-int",
            "format-scale_low-string", "dataset-id-list", "job-training_ids-int",
            "job-training_id-list", "ablation-int", "knn-k-bool", "boosted-stages-bool",
            "job-training_direction-list", "reliability-int", "features_path-int", "kind-list",
            "name-list", "ablation-direction-list", "ablation-direction-int",
            "dataset-id-duplicate", "ffnn-learning_rate-Infinity", "ffnn-epsilon-Infinity",
            "ffnn-learning_rate-huge-int", "models-name-duplicate", "ablation-direction-bogus",
            "n_star-zero", "job-output-duplicate", "job-output-same-path",
            "job-output-absolute", "job-output-parent", "job-output-subdirectory", "job-output-nul",
            "job-output-run-meta", "job-output-manifest-sibling", "output_dir-nul", "path-nul",
            "features_path-nul", "params-NaN", "model-unknown-key",
            "model-misspelt-features_path", "ffnn-hidden_sizes-past-numpy",
            "ffnn-hidden_sizes-product-past-numpy", "boosted-base-hidden_sizes-past-numpy",
            "dataset-language-list", "dataset-language-int", "job-source-language-list",
            "side-misspelt-lowercase", "side-language-int", "side-language-string",
            "job-source-unknown-key", "job-exclusion-unknown-key", "ffnn-params-unknown-key",
            "knn-params-unknown-key", "lr-params-unknown-key", "boosted-base-int",
            "boosted-base-unknown-key", "format-unknown-key", "top-level-unknown-key",
            "dataset-unknown-key", "job-misspelt-exclusions", "ablation-unknown-key",
            "crosslingual_model-undefined"])
    def test_exit_2_naming_the_fault(self, overrides, named, tasks, workspace, capsys):
        root, _ = workspace
        manifest = write_manifest(root, **overrides)
        out_flag = [] if "output_dir" in overrides else ["--out", str(root / "o")]
        for argv in (["validate"], *(["run", task] for task in tasks)):
            assert main([*argv, "--manifest", str(manifest), *out_flag]) == 2
            out, err = capsys.readouterr()
            assert named in out + err, argv
            assert "Traceback" not in err


    def test_crosslingual_model_is_not_resolved_when_models_fail(self, workspace, capsys):
        # the models error is the one report: the name is resolved only against loaded models
        root, _ = workspace
        manifest = write_manifest(root, **_net("knn", kk=3), crosslingual_model="nope")
        assert main(["validate", "--manifest", str(manifest), "--out", str(root / "o")]) == 2
        out = capsys.readouterr().out
        assert [line.split("\t")[1] for line in out.splitlines()
                if line.startswith("error")] == ["models"]

    def test_lexicon_job_refuses_a_feature_model(self, workspace, capsys):
        # a job feeds the source lexicon's ratings, never a feature file
        root, _ = workspace
        (root / "emb.tsv").write_bytes(b"w000\t0.5\nw001\t1.5\n")
        manifest = write_manifest(root, models=[
            {"name": "wei", "kind": "boosted", "features_path": "emb.tsv"}],
            **_job_source({"model": "wei"}))
        for argv in (["validate"], ["run", "build-lexicon"]):
            assert main([*argv, "--manifest", str(manifest), "--out", str(root / "o")]) == 2
            out, err = capsys.readouterr()
            assert "lexicon job 'new.tsv': model 'wei' reads features_path" in out + err, argv
        assert not (root / "o" / "new.tsv").exists()

    def test_job_sides_may_set_their_language(self, workspace):
        root, _ = workspace
        manifest = write_manifest(root, **_job_source({"exclusions": [
            {"path": "w_be5.tsv", "format": "BE5", "language": "de"}]}, language="en"))
        assert main(["validate", "--manifest", str(manifest), "--out", str(root / "o")]) == 0


def _files(root):
    """Every file under root, hidden ones included, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOutputPlan:
    """A run puts its files directly in output_dir, and only once the
    whole task has succeeded."""

    @pytest.mark.parametrize("output", ["{root}/abs.tsv", "../x.tsv", "../../x.tsv", "sub/x.tsv"])
    def test_refused_output_writes_nothing(self, output, workspace):
        root, _ = workspace
        out = root / "o" / "run"
        (out / "sub").mkdir(parents=True)
        manifest = write_manifest(root, **_job_source({"output": output.format(root=root)}))
        before = _files(root)
        for argv in (["validate"], ["run", "build-lexicon"]):
            assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 2
        after = _files(root)
        assert after.pop("o/run/validation.txt")
        assert after == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fault", ["every-word-excluded", "injected"])
    def test_failed_job_leaves_no_partial_output(self, fault, jobs, workspace, monkeypatch):
        """Job 2 fails after job 1 was built: none of the build's files and
        no temp file remain, an earlier run's report stays, and its
        run_meta.json is gone."""
        root, manifest = workspace
        out = root / "o"
        assert main(["run", "monolingual", "--manifest", str(manifest), "--out", str(out)]) == 0
        before = _files(out)
        del before["run_meta.json"]
        job = _job_source()["lexicon_jobs"][0]
        second = {**job, "output": "second.tsv"}
        if fault == "every-word-excluded":
            second["exclusions"] = [{"path": "w_be5.tsv", "format": "BE5"}]
        else:
            render, renders = lexgen.render_lexicon, []

            def render_once(lex):
                renders.append(lex)
                if len(renders) == 2:
                    raise RuntimeError("job 2")
                return render(lex)

            monkeypatch.setattr(lexgen, "render_lexicon", render_once)
        manifest = write_manifest(root, lexicon_jobs=[job, second])
        argv = ["run", "build-lexicon", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]
        if fault == "injected":
            with pytest.raises(RuntimeError, match="job 2"):
                main(argv)
        else:
            assert main(argv) == 2
        assert _files(out) == before


class TestWriteOutputs:
    def test_write_failure_carries_path(self, tmp_path, monkeypatch):
        def disk_full(**kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", disk_full)
        with pytest.raises(OSError, match="no/such/dir.tsv: .*No space left"):
            _write_outputs(tmp_path / "no" / "such", [("dir.tsv", b"x")])

    def test_failed_rename_names_the_file_and_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "b.tsv").mkdir()
        with pytest.raises(OSError, match="b.tsv"):
            _write_outputs(tmp_path, [("a.tsv", b"a"), ("b.tsv", b"b")])
        assert _files(tmp_path) == {"a.tsv": b"a"}

    def test_files_get_the_mode_a_plain_write_gives(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        _write_outputs(tmp_path, [("a.tsv", b"a")])
        assert (tmp_path / "a.tsv").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_feature_file_read_once_per_process(tmp_path, monkeypatch):
    """validate and run build-lexicon read a model's feature file once,
    however many lexicon jobs name a model."""
    from affectmap import manifest as manifest_module

    reads = []
    read = manifest_module.read_feature_vectors
    monkeypatch.setattr(manifest_module, "read_feature_vectors",
                        lambda path: reads.append(path) or read(path))
    manifest = write_every_task_manifest(tmp_path)
    argv = ["--manifest", str(manifest), "--out", str(tmp_path / "o")]
    assert main(["validate", *argv]) == 0
    assert len(reads) == 1
    reads.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a weak first boosting stage
        assert main(["run", "build-lexicon", *argv]) == 0
    assert len(reads) == 1


class TestGradientCheckCommand:
    def test_passes(self, capsys):
        assert main(["gradient-check"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out


class TestModelCommands:
    def test_save_load_predict_round_trip(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        model_path = tmp_path / "syn.afm"
        code = main(
            [
                "model", "save", str(model_path),
                "--manifest", str(manifest),
                "--set", "dataset=syn",
                "--set", "model=lr",
                "--set", "direction=dim2cat",
            ]
        )
        assert code == 0
        assert model_path.exists()

        assert main(["model", "load", str(model_path)]) == 0
        text = capsys.readouterr().out
        assert "kind: LinearModel" in text
        assert "source format: VAD" in text
        assert "target format: BE5" in text

        rng = np.random.default_rng(9)
        queries = rng.uniform(1.0, 9.0, size=(6, 3))
        query_path = tmp_path / "q.tsv"
        query_path.write_bytes(
            _render_tsv(
                ["word", "valence", "arousal", "dominance"],
                [[f"q{i}", *(repr(float(v)) for v in row)] for i, row in enumerate(queries)],
            )
        )
        out_path = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(model_path), str(query_path), str(out_path)]) == 0
        expected = np.clip(load_model(model_path).predict(queries), 1.0, 5.0)
        words = [f"q{i}" for i in range(len(queries))]
        assert out_path.read_bytes() == lexgen.render_lexicon(Lexicon(BE5, words, expected))

    @pytest.mark.parametrize("model, direction, query, golden", [
        ("knn", None, "syn_vad.tsv", "knn_syn_be5.tsv"),
        ("lr", "cat2dim", "syn_be5.tsv", "lr_syn_vad.tsv"),
    ])
    def test_predict_writes_what_a_lexicon_job_writes(self, model, direction, query, golden,
                                                      tmp_path):
        """A saved model applied to a lexicon job's source prints that job's
        golden lexicon byte for byte: one clamp and one renderer."""
        path = tmp_path / f"{model}.afm"
        chosen = [] if direction is None else ["--set", f"direction={direction}"]
        assert main(["model", "save", str(path), "--manifest", str(TABLES_MANIFEST),
                     "--set", "dataset=syn", "--set", f"model={model}", *chosen]) == 0
        out = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(path), str(DATA_DIR / "cli_fixture" / query),
                     str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / "golden" / golden).read_bytes()

    def test_save_takes_its_own_keys_as_raw_text(self, tmp_path, capsys):
        """A dataset id of digits alone is named as typed, not as JSON."""
        for name in ("syn_vad.tsv", "syn_be5.tsv"):
            (tmp_path / name).write_bytes((DATA_DIR / "cli_fixture" / name).read_bytes())
        doc = json.loads(TABLES_MANIFEST.read_text())
        doc["datasets"][0]["id"] = "2018"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main(["model", "save", str(tmp_path / "m.afm"), "--manifest", str(manifest),
                     "--set", "dataset=2018", "--set", "model=lr"]) == 0
        assert "saved lr model for 2018 dim2cat" in capsys.readouterr().out

    def test_save_unknown_dataset(self, workspace, tmp_path):
        _, manifest = workspace
        code = main(
            [
                "model", "save", str(tmp_path / "m.afm"),
                "--manifest", str(manifest),
                "--set", "dataset=zzz",
                "--set", "model=lr",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("second, direction", [
        ({"path": "w_be5.tsv", "format": "BE5"}, "dim2cat"),
        ({"path": "w_vad.tsv", "format": _INLINE_VAD}, "src2tgt"),
    ])
    def test_save_default_direction(self, second, direction, workspace, tmp_path, capsys):
        """dim2cat when the dataset offers it, else the first direction."""
        root, _ = workspace
        manifest = write_manifest(root, **_sides({"path": "w_vad.tsv", "format": "VAD"}, second))
        argv = ["model", "save", str(tmp_path / "m.afm"), "--manifest", str(manifest),
                "--set", "dataset=syn", "--set", "model=lr"]
        assert main(argv) == 0
        assert f"for syn {direction} to" in capsys.readouterr().out

    def test_save_unknown_direction(self, workspace, tmp_path, capsys):
        _, manifest = workspace
        path = tmp_path / "m.afm"
        code = main(["model", "save", str(path), "--manifest", str(manifest),
                     "--set", "dataset=syn", "--set", "model=lr", "--set", "direction=bogus"])
        assert code == 2
        assert "no direction 'bogus'" in capsys.readouterr().err
        assert not path.exists()

    def test_save_refuses_feature_input_model(self, workspace, tmp_path, capsys):
        root, _ = workspace
        (root / "emb.tsv").write_bytes(b"w000\t0.5\nw001\t1.5\n")
        manifest = write_manifest(root, models=[
            {"name": "wei", "kind": "boosted", "features_path": "emb.tsv"}])
        code = main(["model", "save", str(tmp_path / "m.afm"), "--manifest", str(manifest),
                     "--set", "dataset=syn", "--set", "model=wei"])
        assert code == 2
        assert "feature-input" in capsys.readouterr().err

    def test_save_needs_dataset_and_model(self, workspace, tmp_path):
        _, manifest = workspace
        code = main(["model", "save", str(tmp_path / "m.afm"), "--manifest", str(manifest)])
        assert code == 2

    def test_load_rejects_non_model(self, tmp_path):
        path = tmp_path / "junk.afm"
        path.write_bytes(b"definitely not a model")
        assert main(["model", "load", str(path)]) == 2

    @pytest.mark.parametrize("name", sorted(malformed_model_files()))
    def test_load_rejects_malformed_model(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.afm"
        path.write_bytes(malformed_model_files()[name])
        assert main(["model", "load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affectmap: error: ")
        assert "Traceback" not in err

    def test_boosted_save_then_predict(self, tmp_path):
        """A boosted model fitted on ratings keeps its source format, so the
        saved file can be applied to a lexicon."""
        write_dataset(tmp_path)
        base = {"hidden_sizes": [4], "iterations": 3}
        manifest = write_manifest(tmp_path, models=[
            {"name": "wei", "kind": "boosted", "params": {"stages": 2, "base": base}}])
        model_path = tmp_path / "wei.afm"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a weak first boosting stage
            assert main(["model", "save", str(model_path), "--manifest", str(manifest),
                         "--set", "dataset=syn", "--set", "model=wei",
                         "--set", "direction=dim2cat"]) == 0
        out_path = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(model_path), str(tmp_path / "w_vad.tsv"),
                     str(out_path)]) == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "word\tjoy\tanger\tsadness\tfear\tdisgust"
        assert len(lines) == 41

    @pytest.mark.parametrize("name", ["ffnn-W1-transposed", "knn-target-transposed"])
    def test_predict_rejects_misshaped_model(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.afm"
        path.write_bytes(misshaped_model_files()[name])
        query_path = tmp_path / "q.tsv"
        query_path.write_bytes(
            _render_tsv(["word", "valence", "arousal", "dominance"], [["q0", "5.0", "5.0", "5.0"]])
        )
        out_path = tmp_path / "pred.tsv"
        assert main(["model", "predict", str(path), str(query_path), str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affectmap: error: ")
        assert "Traceback" not in err
        assert not out_path.exists()


def test_run_leaves_scipy_unloaded(tmp_path):
    """The runtime needs numpy alone: a process that validates and runs
    every task, linear fits and t-tests included, never imports scipy."""
    src = Path(__file__).resolve().parent.parent / "src"
    every = write_every_task_manifest(tmp_path)
    doc = json.loads(every.read_text())
    doc["reliability"] = str(DATA_DIR / "cli_fixture" / "reliability.tsv")
    every.write_text(json.dumps(doc))
    runs = [["run", "monolingual", "--manifest", str(DATA_DIR / "cli_fixture" / "manifest.json")],
            ["validate", "--manifest", str(every)],
            *(["run", task, "--manifest", str(every)] for task in
              ("monolingual", "crosslingual", "ablation", "shr-normalize", "build-lexicon"))]
    probe = (
        "import json, sys, warnings\n"
        "from affectmap.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    argvs = [[*argv, "--out", str(tmp_path / "o")] for argv in runs]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == f"{[0] * len(runs)} False"


class TestWhatACommandTrainsOn:
    """The manifest alone resolves the model and the datasets a command
    trains on: one lookup by name with one message, only the named datasets
    loaded, a lexicon job's training key by its mode, and each network's
    layers checked at their real widths at validate."""

    def test_save_loads_only_the_dataset_it_trains_on(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        broken = {"id": "other", "language": "de", "sides": [
            {"path": "missing.tsv", "format": "VAD"}, {"path": "w_be5.tsv", "format": "BE5"}]}
        both = write_manifest(root, name="both.json", datasets=[*_sides()["datasets"], broken])
        save = ["--set", "dataset=syn", "--set", "model=lr"]
        assert main(["model", "save", str(tmp_path / "alone.afm"), "--manifest", str(manifest),
                     *save]) == 0
        assert main(["model", "save", str(tmp_path / "both.afm"), "--manifest", str(both),
                     *save]) == 0
        assert (tmp_path / "both.afm").read_bytes() == (tmp_path / "alone.afm").read_bytes()
        # the dataset it trains on still stops it
        capsys.readouterr()
        assert main(["model", "save", str(tmp_path / "other.afm"), "--manifest", str(both),
                     "--set", "dataset=other", "--set", "model=lr"]) == 1
        assert "missing.tsv" in capsys.readouterr().err
        assert not (tmp_path / "other.afm").exists()

    @pytest.mark.parametrize("argv, overrides, named", [
        (["model", "save", "m.afm", "--set", "dataset=syn", "--set", "model=nope"], {},
         "affectmap: error: model 'nope' is not a defined model"),
        (["validate"], _job_source({"model": "nope"}),
         "lexicon job 'new.tsv': model 'nope' is not a defined model"),
        (["run", "build-lexicon"], _job_source({"model": "nope"}),
         "lexicon job 'new.tsv': model 'nope' is not a defined model"),
    ], ids=["model-save", "validate-job", "build-lexicon-job"])
    def test_one_unknown_model_message(self, argv, overrides, named, workspace, capsys):
        root, _ = workspace
        manifest = write_manifest(root, **overrides)
        argv = [root / a if a.endswith(".afm") else a for a in argv]
        assert main([*map(str, argv), "--manifest", str(manifest), "--out", str(root / "o")]) == 2
        out, err = capsys.readouterr()
        assert named in out + err

    # a crosslingual job trains without dominance, so its source side is VA
    @pytest.mark.parametrize("own, fmt, key", [
        ({"mode": "crosslingual", "training_ids": ["syn"]}, "VA", "training_id"),
        ({"mode": "monolingual", "training_id": "syn"}, "VAD", "training_ids"),
    ], ids=["crosslingual-training_id", "monolingual-training_ids"])
    def test_job_refuses_the_other_modes_training_key(self, own, fmt, key, workspace, capsys):
        root, _ = workspace
        job = {**own, "output": "new.tsv", "model": "lr",
               "source": {"path": "w_vad.tsv", "format": fmt}}
        argv = ["--manifest", str(root / "manifest.json"), "--out", str(root / "o")]
        write_manifest(root, lexicon_jobs=[job])
        assert main(["validate", *argv]) == 0
        other = "syn" if key == "training_id" else ["syn"]
        write_manifest(root, lexicon_jobs=[{**job, key: other}])
        for command in (["validate"], ["run", "build-lexicon"]):
            assert main([*command, *argv]) == 2
            out, err = capsys.readouterr()
            assert f"lexicon job 'new.tsv': unknown key '{key}'" in out + err, command
        assert not (root / "o" / "new.tsv").exists()

    def test_format_mismatch_says_what_a_manifest_can_do(self, workspace, capsys):
        root, _ = workspace
        job = {"mode": "crosslingual", "output": "new.tsv", "model": "lr", "training_ids": ["syn"],
               "source": {"path": "w_vad.tsv", "format": "VAD"}}
        manifest = write_manifest(root, lexicon_jobs=[job])
        assert main(["validate", "--manifest", str(manifest), "--out", str(root / "o")]) == 2
        out = capsys.readouterr().out
        assert ("source lexicon format 'VAD' ('valence', 'arousal', 'dominance') does not match "
                "training source format 'VA' ('valence', 'arousal'); give the source side the "
                'training source format (for a cross-lingual job, "format": "VA")') in out
        assert "rescale" not in out

    @pytest.mark.parametrize("model, sizes", [
        ({"kind": "ffnn", "params": {"hidden_sizes": [2**61 - 1], "iterations": 1}},
         [5, 2**61 - 1, 5]),
        ({"kind": "boosted", "params": {"base": {"hidden_sizes": [2**61 - 1]}}},
         [5, 2**61 - 1, 1]),
        # fed the 2 feature columns: only the 5 outputs take it past numpy's limit
        ({"kind": "ffnn", "params": {"hidden_sizes": [(2**61 - 1) // 3]},
          "features_path": "emb.tsv"}, [2, (2**61 - 1) // 3, 5]),
    ], ids=["ffnn", "boosted-base", "ffnn-features"])
    def test_full_layer_sizes_checked_at_validate(self, model, sizes, workspace, capsys):
        root, _ = workspace
        (root / "emb.tsv").write_bytes(b"w000\t0.5\t1.0\nw001\t1.5\t2.0\n")
        manifest = write_manifest(root, models=[{"name": "net", **model}])
        argv = ["--manifest", str(manifest), "--out", str(root / "o")]
        for command in (["validate"], ["run", "monolingual"]):
            assert main([*command, *argv]) == 2
            out, err = capsys.readouterr()
            assert f"model 'net': cannot allocate a network of layer sizes {sizes}: " in out + err
            assert "Traceback" not in err


class TestHugeIntegers:
    """Integers past the float range, which ended in an OverflowError
    traceback, fail typed instead."""

    def test_n_star_past_the_float_range(self, workspace, capsys):
        root, manifest = workspace
        argv = ["--manifest", str(manifest), "--out", str(root / "o"), "--set", f"n_star={10**400}"]
        for command in (["validate"], ["run", "shr-normalize"]):
            assert main([*command, *argv]) == 2
            err = capsys.readouterr().err
            assert "'n_star' must be a positive integer in the float range" in err

    def test_participant_count_past_the_float_range(self, workspace, capsys):
        root, _ = workspace
        (root / "rel.tsv").write_text("dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
                                      f"syn\tjoy\t0.8\t{10**400}\ttrue\n", encoding="utf-8")
        manifest = write_manifest(root, reliability="rel.tsv")
        assert main(["validate", "--manifest", str(manifest), "--out", str(root / "o")]) == 2
        out, err = capsys.readouterr()
        assert "error\treliability\tlength factor must be positive" in out
        assert "Traceback" not in err

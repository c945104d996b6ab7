"""Command-line interface.

Commands: validate, run <task>, gradient-check, model save/load/predict.
A declarative JSON manifest binds all inputs; see manifest.py for the
schema. Exit codes: 0 ok, 1 I/O failure, 2 validation/contract failure,
3 numerical divergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    AffectMapError,
    ConfigurationError,
    DivergenceError,
)
from .experiments import (
    derive_seed,
    directions_for,
    run_ablation,
    run_crosslingual,
    run_monolingual,
    write_report_json,
    write_report_table,
)
from .lexgen import build_lexicons, write_build_manifest, write_lexicon_bytes
from .manifest import load_manifest
from .models import gradient_check, load_model, save_model
from .stats import write_reliability_records

TASKS = ("monolingual", "crosslingual", "ablation", "shr-normalize", "build-lexicon")

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_set(values) -> dict:
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _manifest_overrides(args) -> dict:
    overrides = _parse_set(getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["output_dir"] = args.out
    return overrides


def _load(args):
    if not getattr(args, "manifest", None):
        raise ConfigurationError("--manifest is required for this command")
    return load_manifest(args.manifest, _manifest_overrides(args))


def _write_run_meta(manifest, task: str) -> None:
    digest = hashlib.sha256(Path(manifest.source_path).read_bytes()).hexdigest()
    meta = {
        "version": __version__,
        "task": task,
        "seed": manifest.seed,
        "k_folds": manifest.k_folds,
        "manifest_digest": digest,
    }
    path = manifest.output_dir / "run_meta.json"
    path.write_bytes(json.dumps(meta, sort_keys=True, indent=2).encode("utf-8") + b"\n")


def cmd_validate(args) -> int:
    manifest = _load(args)
    lines = []
    note = lines.append
    errors = 0

    def attempt(label, fn):
        nonlocal errors
        diags = []
        try:
            result = fn(diags)
        except (AffectMapError, OSError) as e:
            errors += 1
            note(f"error\t{label}\t{e}")
            result = None
        for d in diags:
            where = f"line {d.line}" if d.line else ""
            note(f"warning\t{label}\t{d.kind}\t{where}\t{d.word or ''}\t{d.message}")
        return result

    for entry in attempt("datasets", lambda d: manifest.dataset_entries()) or []:
        label = f"dataset {entry.get('id', '?')}"
        aligned = attempt(label, lambda d, e=entry: manifest.load_dataset(e, d))
        if aligned is not None:
            note(
                f"ok\t{label}\t{len(aligned)} aligned words\t"
                f"{aligned.source_format.name}<->{aligned.target_format.name}"
            )
    attempt("models", lambda d: manifest.load_models())
    attempt("reliability", lambda d: manifest.load_reliability())
    for entry in attempt("lexicon jobs", lambda d: manifest.lexicon_job_entries()) or []:
        label = f"lexicon job {entry.get('output', '?')}"
        job = attempt(label, lambda d, e=entry: manifest.build_job(e, d))
        if job is not None:
            note(f"ok\t{label}\t{len(job.source_lexicon)} source words")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    (manifest.output_dir / "validation.txt").write_text(report, encoding="utf-8")
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_run(args) -> int:
    manifest = _load(args)
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    task = args.task
    if task == "monolingual":
        datasets = manifest.load_datasets()
        specs = manifest.load_models()
        reliability = manifest.load_reliability()
        reports = run_monolingual(
            datasets,
            specs,
            manifest.seed,
            k_folds=manifest.k_folds,
            reliability=reliability,
            jobs=args.jobs,
        )
        meta = {"task": task, "seed": manifest.seed, "k_folds": manifest.k_folds}
        write_report_json(reports, out / "monolingual_report.json", meta=meta)
        write_report_table(reports, out / "monolingual_table.tsv")
    elif task == "crosslingual":
        datasets = manifest.load_datasets()
        specs = manifest.load_models()
        spec = manifest.crosslingual_spec(specs)
        reports = run_crosslingual(datasets, spec, manifest.seed, jobs=args.jobs)
        meta = {"task": task, "seed": manifest.seed, "model": spec.name}
        write_report_json(reports, out / "crosslingual_report.json", meta=meta)
        write_report_table(reports, out / "crosslingual_table.tsv")
    elif task == "ablation":
        datasets = manifest.load_datasets()
        direction = manifest.ablation_direction()
        report = run_ablation(
            datasets, direction, manifest.seed, k_folds=manifest.k_folds, jobs=args.jobs
        )
        doc = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
        (out / "ablation_report.json").write_bytes(doc.encode("utf-8") + b"\n")
        rows = ["variable\tdrop"]
        rows += [f"{v}\t{report.drops[v]:.3f}" for v in report.source_variables]
        (out / "ablation_table.tsv").write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    elif task == "shr-normalize":
        records = manifest.load_reliability(normalized=True)
        if records is None:
            raise ConfigurationError("manifest declares no reliability records path")
        write_reliability_records(out / "reliability_normalized.tsv", records)
    elif task == "build-lexicon":
        entries = manifest.lexicon_job_entries()
        if not entries:
            raise ConfigurationError("manifest declares no lexicon_jobs")
        # a job holds its whole source lexicon: load only as many as run at once
        for start in range(0, len(entries), args.jobs):
            batch = entries[start : start + args.jobs]
            built = build_lexicons(
                [manifest.build_job(e) for e in batch], manifest.seed, jobs=args.jobs
            )
            for entry, (_, build_manifest, rendered) in zip(batch, built):
                write_lexicon_bytes(rendered, out / entry["output"])
                write_build_manifest(build_manifest, out / (entry["output"] + ".manifest.json"))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown task {task!r}")
    _write_run_meta(manifest, task)
    return EXIT_OK


def cmd_gradient_check(args) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst = 0.0
    for trial in range(3):
        X = rng.uniform(1.0, 9.0, size=(10, 4))
        gold = rng.uniform(1.0, 5.0, size=(10, 3))
        err = gradient_check((8,), (X, gold), seed=trial)
        worst = max(worst, err)
    print(f"max relative gradient error over 3 nets: {worst:.3e}")
    if worst >= 1e-4:
        print("FAIL: exceeds 1e-4", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _pick_direction(data, wanted):
    options = dict(directions_for(data))
    if wanted:
        if wanted not in options:
            raise ConfigurationError(
                f"direction {wanted!r} not available; options: {sorted(options)}"
            )
        return wanted, options[wanted]
    label = "dim2cat" if "dim2cat" in options else sorted(options)[0]
    return label, options[label]


def cmd_model_save(args) -> int:
    manifest = _load(args)
    overrides = _parse_set(args.set)
    dataset_id = overrides.get("dataset")
    model_name = overrides.get("model")
    if not dataset_id or not model_name:
        raise ConfigurationError(
            "model save needs --set dataset=ID and --set model=NAME"
        )
    datasets = manifest.load_datasets()
    if dataset_id not in datasets:
        raise ConfigurationError(f"unknown dataset {dataset_id!r}")
    specs = {s.name: s for s in manifest.load_models()}
    if model_name not in specs:
        raise ConfigurationError(f"unknown model {model_name!r}")
    direction, data = _pick_direction(datasets[dataset_id], overrides.get("direction"))
    spec = specs[model_name]
    seed = derive_seed(manifest.seed, dataset_id, direction, spec.name, "save")
    model = spec.build(seed)
    if spec.features is not None:
        raise ConfigurationError("model save does not support feature-input specs")
    model.fit(data)
    save_model(model, args.path)
    print(f"saved {spec.kind} model for {dataset_id} {direction} to {args.path}")
    return EXIT_OK


def cmd_model_load(args) -> int:
    model = load_model(args.path)
    kind = type(model).__name__
    src, tgt = model.source_format, model.target_format
    print(f"kind: {kind}")
    print(f"source format: {src.name if src else 'n/a'}")
    print(f"target format: {tgt.name if tgt else 'n/a'}")
    return EXIT_OK


def cmd_model_predict(args) -> int:
    from .lexicon import parse_lexicon

    model = load_model(args.path)
    src, tgt = model.source_format, model.target_format
    if src is None or tgt is None:
        raise ConfigurationError(
            "model file carries no format bindings; predict via the API instead"
        )
    columns = {"word": "word", **{v: v for v in src.variables}}
    lex = parse_lexicon(Path(args.input), src, columns)
    pred = model.predict(lex.values)
    lines = ["\t".join(("word", *tgt.variables))]
    for i, word in enumerate(lex.words):
        lines.append("\t".join((word, *(f"{v:.6f}" for v in pred[i]))))
    Path(args.output).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(lex.words)} predictions to {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="affectmap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"affectmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest_required=True):
        p.add_argument("--manifest", help="path to the experiment manifest JSON")
        p.add_argument("--seed", type=int, help="override the manifest seed")
        p.add_argument("--jobs", type=int, default=1, help="worker threads (one fold per unit)")
        p.add_argument("--out", help="override the manifest output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a manifest key (JSON value or bare string)",
        )

    p_validate = sub.add_parser("validate", help="parse and check every manifest input")
    common(p_validate)
    p_validate.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="run an experiment task")
    p_run.add_argument("task", choices=TASKS)
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_grad = sub.add_parser("gradient-check", help="verify analytic gradients")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=cmd_gradient_check)

    p_model = sub.add_parser("model", help="save, inspect, or apply trained models")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)

    p_save = model_sub.add_parser("save", help="train a manifest model and save it")
    p_save.add_argument("path", help="output model file")
    common(p_save)
    p_save.set_defaults(fn=cmd_model_save)

    p_load = model_sub.add_parser("load", help="print a saved model's header")
    p_load.add_argument("path")
    p_load.set_defaults(fn=cmd_model_load)

    p_pred = model_sub.add_parser("predict", help="apply a saved model to a lexicon TSV")
    p_pred.add_argument("path", help="saved model file")
    p_pred.add_argument("input", help="input lexicon TSV (source format columns)")
    p_pred.add_argument("output", help="output predictions TSV")
    p_pred.set_defaults(fn=cmd_model_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.fn(args)
    except DivergenceError as e:
        print(f"affectmap: divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except AffectMapError as e:
        print(f"affectmap: error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"affectmap: i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

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
import os
import sys
import tempfile
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AffectMapError, ConfigurationError, DivergenceError
from .experiments import (
    _orient,
    derive_seed,
    directions_for,
    render_report_json,
    render_report_table,
    run_ablation,
    run_crosslingual,
    run_monolingual,
)
from .lexgen import build_lexicons, render_lexicon
from .lexicon import Lexicon, parse_lexicon
from .manifest import DEFAULT_DIRECTION, load_manifest
from .models import gradient_check, load_model, save_model
from .stats import render_reliability_records

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


def _parse_set(values, text=()) -> dict:
    """Each --set key=value: the value decoded as JSON, else the bare string.
    A key in text takes the raw text after "=" as it is."""
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            overrides[key] = raw if key in text else json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _manifest_overrides(args, text=()) -> dict:
    overrides = _parse_set(getattr(args, "set", None), text)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["output_dir"] = args.out
    return overrides


def _load(args, overrides=None):
    if not getattr(args, "manifest", None):
        raise ConfigurationError("--manifest is required for this command")
    return load_manifest(args.manifest,
                         _manifest_overrides(args) if overrides is None else overrides)


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode("utf-8") + b"\n"


def _write_outputs(out: Path, files) -> None:
    """Write each (name, bytes) pair of files to out/name.

    Each file goes to a temp file in out as it comes, and only once files
    is exhausted are they renamed into place, in order. So an exception
    raised by files or by a write leaves every name in out as it was, and
    no temp file outlives the call.
    """
    out.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # mkstemp makes 0600 files; give each the mode open() would
    os.umask(umask)
    staged = []
    try:
        for name, data in files:
            path = out / name
            try:
                fd, tmp = tempfile.mkstemp(prefix=".affectmap-", suffix=".tmp", dir=out)
                staged.append((tmp, path))
                with os.fdopen(fd, "wb") as f:
                    os.fchmod(f.fileno(), 0o666 & ~umask)
                    f.write(data)
            except OSError as e:
                raise OSError(f"cannot write {path}: {e}") from e
        for tmp, path in staged:
            os.replace(tmp, path)  # its error names both paths
    except BaseException:  # interrupts too: no temp file outlives the call
        for tmp, _ in staged:
            with suppress(FileNotFoundError):  # renamed already
                os.unlink(tmp)
        raise


def _monolingual(manifest, jobs: int):
    reports = run_monolingual(manifest.load_datasets(), manifest.load_models(), manifest.seed,
                              k_folds=manifest.k_folds, reliability=manifest.load_reliability(),
                              jobs=jobs)
    meta = {"task": "monolingual", "seed": manifest.seed, "k_folds": manifest.k_folds}
    yield "monolingual_report.json", render_report_json(reports, meta=meta)
    yield "monolingual_table.tsv", render_report_table(reports)


def _crosslingual(manifest, jobs: int):
    datasets = manifest.load_datasets()
    spec = manifest.crosslingual_spec()
    reports = run_crosslingual(datasets, spec, manifest.seed, jobs=jobs)
    meta = {"task": "crosslingual", "seed": manifest.seed, "model": spec.name}
    yield "crosslingual_report.json", render_report_json(reports, meta=meta)
    yield "crosslingual_table.tsv", render_report_table(reports)


def _ablation(manifest, jobs: int):
    datasets = manifest.load_datasets()
    direction = manifest.ablation_direction(datasets)
    report = run_ablation(datasets, direction, manifest.seed, k_folds=manifest.k_folds, jobs=jobs)
    doc = report.to_dict()  # a NaN drop (a constant target variable) is None here
    yield "ablation_report.json", _json_bytes(doc)
    rows = ["variable\tdrop", *(f"{v}\t{'n/a' if d is None else format(d, '.3f')}"
                                 for v, d in doc["drops"].items())]
    yield "ablation_table.tsv", ("\n".join(rows) + "\n").encode("utf-8")


def _shr_normalize(manifest, jobs: int):
    records = manifest.load_reliability()
    if records is None:
        raise ConfigurationError("manifest declares no reliability records path")
    yield "reliability_normalized.tsv", render_reliability_records(records)


def _build_lexicon(manifest, jobs: int):
    entries = manifest.lexicon_job_entries()
    if not entries:
        raise ConfigurationError("manifest declares no lexicon_jobs")
    # a job holds its whole source lexicon: load only as many as run at once
    for start in range(0, len(entries), jobs):
        batch = entries[start : start + jobs]
        built = build_lexicons([manifest.build_job(e) for e in batch], manifest.seed, jobs=jobs)
        for entry, (_, build_manifest, rendered) in zip(batch, built):
            name = Path(entry["output"]).name  # the plan has checked it is a bare file name
            yield name, rendered
            yield name + ".manifest.json", _json_bytes(build_manifest)


# each task yields the (file name, bytes) pairs it puts in output_dir
TASKS = {
    "monolingual": _monolingual,
    "crosslingual": _crosslingual,
    "ablation": _ablation,
    "shr-normalize": _shr_normalize,
    "build-lexicon": _build_lexicon,
}


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

    loaded = {}
    for entry in attempt("datasets", lambda d: manifest.dataset_entries()) or []:
        label = f"dataset {entry.get('id', '?')}"
        aligned = attempt(label, lambda d, e=entry: manifest.load_dataset(e, d))
        if aligned is not None:
            loaded[entry["id"]] = aligned
            note(
                f"ok\t{label}\t{len(aligned)} aligned words\t"
                f"{aligned.source_format.name}<->{aligned.target_format.name}"
            )
    specs = attempt("models", lambda d: manifest.load_models())
    if specs is not None and "crosslingual_model" in manifest.raw:
        attempt("crosslingual_model", lambda d: manifest.crosslingual_spec())
    if "ablation" in manifest.raw:
        # only the datasets that loaded: a failed one is already reported
        attempt("ablation", lambda d: manifest.ablation_direction(loaded))
    attempt("reliability", lambda d: manifest.load_reliability())
    for entry in attempt("lexicon jobs", lambda d: manifest.lexicon_job_entries()) or []:
        label = f"lexicon job {entry.get('output', '?')}"
        job = attempt(label, lambda d, e=entry: manifest.build_job(e, d))
        if job is not None:
            note(f"ok\t{label}\t{len(job.source_lexicon)} source words")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    _write_outputs(manifest.output_dir, [("validation.txt", report.encode("utf-8"))])
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_run(args) -> int:
    manifest = _load(args)
    digest = hashlib.sha256(manifest.source_path.read_bytes()).hexdigest()
    meta = {"version": __version__, "task": args.task, "seed": manifest.seed,
            "k_folds": manifest.k_folds, "manifest_digest": digest}
    # from here until the run's files are all in place, output_dir holds no run_meta.json
    (manifest.output_dir / "run_meta.json").unlink(missing_ok=True)
    files = chain(TASKS[args.task](manifest, args.jobs), [("run_meta.json", _json_bytes(meta))])
    _write_outputs(manifest.output_dir, files)
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


def cmd_model_save(args) -> int:
    # these --set keys choose what to save, by the raw text of a manifest string (a
    # dataset id may be all digits); they patch no manifest key
    own = ("dataset", "model", "direction")
    overrides = _manifest_overrides(args, own)
    dataset_id, model_name, direction = (overrides.pop(k, None) for k in own)
    manifest = _load(args, overrides)
    if not dataset_id or not model_name:
        raise ConfigurationError("model save needs --set dataset=ID and --set model=NAME")
    datasets = manifest.load_datasets([dataset_id])  # none but the one it trains on
    if not direction and datasets:  # dim2cat, else the first label
        labels = [label for label, _ in directions_for(*datasets.values())]
        direction = DEFAULT_DIRECTION if DEFAULT_DIRECTION in labels else labels[0]
    data = _orient(datasets, dataset_id, direction)
    spec = manifest.model(model_name)
    seed = derive_seed(manifest.seed, dataset_id, direction, spec.name, "save")
    save_model(spec.build(seed).fit(data), args.path)
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
    model = load_model(args.path)
    src, tgt = model.source_format, model.target_format
    if src is None or tgt is None:
        raise ConfigurationError(
            "model file carries no format bindings; predict via the API instead"
        )
    columns = {"word": "word", **{v: v for v in src.variables}}
    lex = parse_lexicon(Path(args.input), src, columns)
    pred = np.clip(model.predict(lex.values), tgt.scale_low, tgt.scale_high)  # as a job clamps
    out = Path(args.output)
    _write_outputs(out.parent, [(out.name, render_lexicon(Lexicon(tgt, lex.words, pred)))])
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

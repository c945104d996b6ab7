"""Evaluation protocols: cross-validation, significance, ablation,
cross-lingual transfer, and reliability comparison.

Every model training inside a protocol draws its seed deterministically
from (base seed, dataset id, direction, spec name, fold index), so runs
are reproducible cell by cell no matter how work is scheduled, and every
spec sees identical train/test splits, which is what licenses the paired
t-tests between specs.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AffectMapError,
    ConfigurationError,
    ContractError,
    DegenerateInputError,
)
from .lexicon import AlignedLexicon, concat, project
from .models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
)
from .stats import ReliabilityRecord, format_stars, paired_t_test, pearson

__all__ = [
    "derive_seed",
    "FoldSplit",
    "make_folds",
    "ModelSpec",
    "WorkUnit",
    "run_units",
    "EvalReport",
    "AblationReport",
    "directions_for",
    "run_monolingual",
    "run_ablation",
    "run_crosslingual",
    "compare_to_shr",
    "render_json",
    "render_report_json",
    "render_report_table",
]

_DIMENSIONAL = frozenset(("valence", "arousal", "dominance"))


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and any hashable labels."""
    h = hashlib.blake2s(digest_size=8)
    h.update(str(int(base)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little") % (2**63)


@dataclass(frozen=True)
class FoldSplit:
    """Partition of 0..n-1 into folds whose sizes differ by at most 1."""

    n_items: int
    k_folds: int
    seed: int
    assignment: tuple[int, ...]

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignment) == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignment) != fold)


def make_folds(n: int, k: int = 10, seed: int = 0) -> FoldSplit:
    """Shuffle indices, deal them into k contiguous blocks; the remainder
    goes one extra item per fold starting from fold 0."""
    if k < 2:
        raise ContractError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ContractError(f"cannot split {n} items into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    base, remainder = divmod(n, k)
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < remainder else 0)
        assignment[order[start : start + size]] = fold
        start += size
    return FoldSplit(n_items=n, k_folds=k, seed=seed, assignment=tuple(int(a) for a in assignment))


@dataclass
class ModelSpec:
    """A named, buildable model configuration.

    kind is one of lr, knn, ffnn, boosted. params go to the model
    constructor; any "seed" inside them is ignored because protocol code
    derives per-cell seeds itself. An optional word -> feature-vector map
    replaces the source-side ratings as model input (the embedding
    baseline).
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    features: Mapping | None = None

    _KINDS = ("lr", "knn", "ffnn", "boosted")

    def __post_init__(self):
        aliases = {"linear": "lr", "wei": "boosted"}
        self.kind = aliases.get(self.kind, self.kind)
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected one of {self._KINDS}"
            )

    def build(self, seed: int = 0):
        """An unfitted model. A param the constructor cannot take (unknown
        key, wrong type) is a ConfigurationError naming this spec and the key."""
        params = dict(self.params)
        params.pop("seed", None)
        net_keys = {f.name for f in fields(FfnnConfig)}
        known = {"lr": (), "knn": {"k"}, "ffnn": net_keys, "boosted": {"stages", "base"}}
        try:
            _refuse_unknown_keys(params, known[self.kind], "'params': ")
            if self.kind == "lr":
                return LinearModel()
            if self.kind == "knn":
                return KnnModel(**params)
            # FfnnConfig turns a JSON hidden_sizes list into a tuple itself
            if self.kind == "ffnn":
                return FfnnModel(FfnnConfig(**params, seed=seed))
            base = params.get("base")
            if base is not None and not isinstance(base, dict):
                raise ConfigurationError(f"'params.base' must be an object, got {base!r}")
            _refuse_unknown_keys(base or {}, net_keys, "'params.base': ")
            base = None if base is None else FfnnConfig(**base)
            return BoostedEnsemble(stages=params.get("stages", 10), base_config=base, seed=seed)
        except (TypeError, ValueError, AffectMapError) as e:
            raise ConfigurationError(f"model {self.name!r}: {e}") from None


def _refuse_unknown_keys(raw: dict, known, owner: str = "", what: str = "") -> None:
    """A ConfigurationError naming owner and the first key of raw, sorted,
    that is not in known: "<owner>unknown <what>key '<key>'"."""
    for key in sorted(raw.keys() - set(known)):
        raise ConfigurationError(f"{owner}unknown {what}key {key!r}")


def _feature_matrix(spec: ModelSpec, words) -> np.ndarray:
    """The feature vectors of words, one row each; a word without one fails naming spec."""
    missing = [w for w in words if w not in spec.features]
    if missing:
        raise ConfigurationError(f"model {spec.name!r}: {len(missing)} dataset words have no "
                                 f"feature vector (first few: {missing[:3]})")
    return np.array([spec.features[w] for w in words], dtype=np.float64)


def _inputs(spec: ModelSpec, data: AlignedLexicon, memo: dict) -> np.ndarray:
    """Model inputs for data's rows. A feature-input matrix depends only on
    the words, so memo keeps one per (spec, word list) and both directions
    of a dataset share it."""
    if spec.features is None:
        return data.source_matrix
    key = (spec.name, data.words)
    if key not in memo:
        memo[key] = _feature_matrix(spec, data.words)
    return memo[key]


@dataclass(frozen=True)
class WorkUnit:
    """One fit -> predict step, the grain every protocol is scheduled at:
    a (dataset, direction, spec, fold) CV fold, a cross-lingual evaluation
    or a lexicon build. Row selections apply when the unit runs (None:
    every row), so queued units share matrices instead of holding copies."""

    spec: ModelSpec
    seed: int
    train_X: np.ndarray
    train_T: np.ndarray
    test_X: np.ndarray
    train_rows: np.ndarray | None = None
    test_rows: np.ndarray | None = None


def _rows(a: np.ndarray, idx) -> np.ndarray:
    return a if idx is None else a[idx]


def _run_unit(unit: WorkUnit) -> np.ndarray:
    model = unit.spec.build(unit.seed)
    model.fit_arrays(_rows(unit.train_X, unit.train_rows), _rows(unit.train_T, unit.train_rows))
    return model.predict(_rows(unit.test_X, unit.test_rows))


def run_units(units: Sequence[WorkUnit], jobs: int = 1) -> list[np.ndarray]:
    """The predictions of each unit, in submission order. Units run
    serially at jobs == 1, otherwise on min(jobs, len(units)) threads;
    seeds travel with the units, so results cannot depend on the schedule.
    The first failure in submission order is raised and queued units are
    cancelled."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(units) < 2:
        return [_run_unit(u) for u in units]
    pool = ThreadPoolExecutor(max_workers=min(jobs, len(units)))
    try:
        return list(pool.map(_run_unit, units))
    finally:
        pool.shutdown(cancel_futures=True)


def _correlate(pred: np.ndarray, gold: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per-variable r, NaN where undefined, and the undefined variables."""
    r = np.full(gold.shape[1], np.nan)
    degenerate = []
    for v in range(gold.shape[1]):
        try:
            r[v] = pearson(pred[:, v], gold[:, v])
        except (DegenerateInputError, ContractError):
            degenerate.append(v)
    return r, degenerate


def _evaluate(cells, jobs: int) -> list[tuple[np.ndarray, list[tuple[int, int]], np.ndarray]]:
    """Score (units, gold) cells whose units' test rows partition gold's
    rows, running the units of all cells as one batch. Per cell: the
    (n_units, n_variables) r of each unit against gold at its test rows,
    the degenerate (unit, variable) pairs, and the per-variable r of the
    pooled predictions; r is NaN where undefined."""
    preds = iter(run_units([u for units, _ in cells for u in units], jobs))
    scored = []
    for units, gold in cells:
        pooled = np.empty_like(gold)
        unit_r, degenerate = [], []
        for i, unit in enumerate(units):
            pred = next(preds)
            rows = slice(None) if unit.test_rows is None else unit.test_rows
            pooled[rows] = pred
            r, bad = _correlate(pred, gold[rows])
            unit_r.append(r)
            degenerate += [(i, v) for v in bad]
        scored.append((np.array(unit_r), degenerate, _correlate(pooled, gold)[0]))
    return scored


def _per_variable_mean(fold_r: np.ndarray) -> np.ndarray:
    """Mean r over folds per variable, skipping NaN; NaN where every fold is."""
    good = [col[~np.isnan(col)] for col in fold_r.T]
    return np.array([g.mean() if g.size else np.nan for g in good])


def _fold_rows(data: AlignedLexicon, k_folds: int, seed: int) -> list:
    """(train rows, test rows) per fold of data's content-seeded split, built
    once per dataset and shared by every cell on it, not allocated per unit."""
    folds = make_folds(len(data), k_folds, derive_seed(seed, _content_key(data), "folds"))
    return [(folds.train_indices(f), folds.test_indices(f)) for f in range(k_folds)]


def _cv_cell(spec, X, T, fold_rows, seed, dataset_id, direction) -> tuple[list, np.ndarray]:
    """A cross-validation cell for _evaluate: one unit per fold."""
    units = [
        WorkUnit(spec, derive_seed(seed, dataset_id, direction, spec.name, fold),
                 X, T, X, train, test)
        for fold, (train, test) in enumerate(fold_rows)
    ]
    return units, T


def _nan_to_none(x):
    """x, nested dicts, lists and arrays included, with every NaN as None:
    the reports are strict JSON."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nan_to_none(v) for v in x]
    return None if isinstance(x, float) and np.isnan(x) else x


@dataclass
class EvalReport:
    """One dataset x direction x model evaluation."""

    dataset_id: str
    direction: str
    model: str
    variables: tuple[str, ...]
    fold_r: np.ndarray
    per_variable_r: np.ndarray
    format_average_r: float
    pooled_per_variable_r: np.ndarray
    pooled_format_average_r: float
    degenerate_cells: list[tuple[int, int]]
    n_items: int
    k_folds: int
    seed: int
    n_train: int | None = None
    best: bool = False
    significance: dict | None = None
    shr_flags: dict[str, str] | None = None

    def to_dict(self) -> dict:
        return _nan_to_none({
            **asdict(self),
            "per_variable_r": dict(zip(self.variables, self.per_variable_r.tolist())),
            "pooled_per_variable_r": dict(zip(self.variables, self.pooled_per_variable_r.tolist())),
        })


def _report(spec, dataset_id, direction, data, scored, seed, k_folds, n_train=None) -> EvalReport:
    """An EvalReport from one _evaluate cell's scores."""
    fold_r, degenerate, pooled_r = scored
    per_var = _per_variable_mean(fold_r)
    fmt_avg = float(per_var.mean()) if per_var.size else float("nan")
    pooled_avg = float(pooled_r.mean()) if pooled_r.size else float("nan")
    return EvalReport(
        dataset_id=dataset_id,
        direction=direction,
        model=spec.name,
        variables=data.target_format.variables,
        fold_r=fold_r,
        per_variable_r=per_var,
        format_average_r=fmt_avg,
        pooled_per_variable_r=pooled_r,
        pooled_format_average_r=pooled_avg,
        degenerate_cells=degenerate,
        n_items=len(data),
        k_folds=k_folds,
        seed=seed,
        n_train=n_train,
    )


def directions_for(data: AlignedLexicon) -> list[tuple[str, AlignedLexicon]]:
    """Both orientations of an aligned dataset, labeled.

    When exactly one side carries dimensional variables (valence,
    arousal, dominance) the labels are cat2dim/dim2cat; otherwise the
    neutral src2tgt/tgt2src.
    """
    src_dim = any(v in _DIMENSIONAL for v in data.source_format.variables)
    tgt_dim = any(v in _DIMENSIONAL for v in data.target_format.variables)
    if src_dim != tgt_dim:
        dim2cat = data if src_dim else data.swapped()
        return [("cat2dim", dim2cat.swapped()), ("dim2cat", dim2cat)]
    return [("src2tgt", data), ("tgt2src", data.swapped())]


def _orient(datasets: Mapping[str, AlignedLexicon], ds_id: str, direction: str) -> AlignedLexicon:
    """Dataset ds_id in the given direction; a ConfigurationError names a
    missing dataset or direction, whatever JSON value names it."""
    if not isinstance(ds_id, str) or ds_id not in datasets:
        raise ConfigurationError(f"unknown dataset {ds_id!r}")
    options = dict(directions_for(datasets[ds_id]))
    if not isinstance(direction, str) or direction not in options:
        raise ConfigurationError(
            f"dataset {ds_id!r} has no direction {direction!r}; available: {sorted(options)}"
        )
    return options[direction]


def _content_key(data: AlignedLexicon) -> str:
    """Digest of words and matrices; fold splits are seeded from this so
    identical datasets get identical splits whatever they are called."""
    h = hashlib.blake2s(digest_size=8)
    for w in data.words:
        h.update(w.encode("utf-8"))
        h.update(b"\x00")
    h.update(np.ascontiguousarray(data.source_matrix).tobytes())
    h.update(np.ascontiguousarray(data.target_matrix).tobytes())
    return h.hexdigest()


def _attach_significance(reports: list[EvalReport]) -> None:
    """Mark the best spec per (dataset, direction) and test it against the
    runner-up on their per-fold format-average series."""
    ranked = sorted(
        reports,
        key=lambda r: (-(r.format_average_r if not np.isnan(r.format_average_r) else -np.inf)),
    )
    best = ranked[0]
    best.best = True
    if len(ranked) < 2:
        return
    second = ranked[1]
    # per-fold format-average r: the series the significance test runs on
    a, b = best.fold_r.mean(axis=1), second.fold_r.mean(axis=1)
    ok = ~(np.isnan(a) | np.isnan(b))
    try:
        if ok.sum() < 2:
            raise DegenerateInputError("fewer than 2 comparable folds")
        t, p, stars = paired_t_test(a[ok], b[ok])
        best.significance = {
            "versus": second.model,
            "t": float(t),
            "p": float(p),
            "stars": int(stars),
        }
    except DegenerateInputError:
        best.significance = {"versus": second.model, "result": "n.s."}


def run_monolingual(
    datasets,
    specs: Sequence[ModelSpec],
    seed: int,
    *,
    k_folds: int = 10,
    reliability: Sequence[ReliabilityRecord] | None = None,
    jobs: int = 1,
) -> list[EvalReport]:
    """Cross-validated comparison of specs on every dataset and direction.

    One fold split per dataset is shared by every spec and direction.
    The best spec per (dataset, direction) cell gets a paired t-test
    against the second best; reliability records, when given, add
    per-variable above/below flags.
    """
    data_map = dict(datasets)
    if not data_map:
        raise ContractError("no datasets given")
    if not specs:
        raise ContractError("no model specs given")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate spec names: {names}")
    cells, labels, memo = [], [], {}
    for ds_id, data in data_map.items():
        fold_rows = _fold_rows(data, k_folds, seed)
        for direction, oriented in directions_for(data):
            for spec in specs:
                X = _inputs(spec, oriented, memo)
                cells.append(_cv_cell(spec, X, oriented.target_matrix, fold_rows, seed, ds_id,
                                      direction))
                labels.append((spec, ds_id, direction, oriented))
    reports = [
        _report(*label, scored, seed, k_folds)
        for label, scored in zip(labels, _evaluate(cells, jobs))
    ]

    by_cell: dict[tuple[str, str], list[EvalReport]] = {}
    for report in reports:
        by_cell.setdefault((report.dataset_id, report.direction), []).append(report)
    for group in by_cell.values():
        _attach_significance(group)
    if reliability is not None:
        reports = [compare_to_shr(r, reliability) for r in reports]
    return reports


@dataclass
class AblationReport:
    """Average correlation drop from leaving out each source variable."""

    direction: str
    source_variables: tuple[str, ...]
    drops: dict[str, float]
    per_dataset_drops: dict[str, dict[str, float]]
    full_average_r: dict[str, float]
    seed: int
    k_folds: int

    def to_dict(self) -> dict:
        return _nan_to_none(asdict(self))


def _ablation_sources(datasets: Mapping[str, AlignedLexicon], direction: str):
    """Each of datasets in direction, and the source variables they all share,
    which ablation leaves out one at a time: at least two."""
    oriented = {ds_id: _orient(datasets, ds_id, direction) for ds_id in datasets}
    found = list(dict.fromkeys(o.source_format.variables for o in oriented.values())) or [()]
    if len(found) > 1:
        raise ConfigurationError(f"datasets disagree on source variables: {found[1]} vs {found[0]}")
    if oriented and len(found[0]) < 2:
        raise ConfigurationError(f"too few source variables to leave one out: {found[0]}")
    return oriented, found[0]


def run_ablation(
    datasets, direction: str, seed: int, *, k_folds: int = 10, jobs: int = 1
) -> AblationReport:
    """Leave-one-source-variable-out comparison with the linear model.

    The linear model is used because it has no hyperparameters to
    confound the comparison. Full and ablated runs share identical fold
    splits per dataset; the drop is full minus ablated format-average r,
    averaged over datasets.
    """
    data_map = dict(datasets)
    if not data_map:
        raise ContractError("no datasets given")
    spec = ModelSpec("lr", "lr")
    oriented_map, source_vars = _ablation_sources(data_map, direction)
    cells = []
    for ds_id, oriented in oriented_map.items():
        rows = _fold_rows(oriented, k_folds, seed)
        variants = [(direction, oriented)] + [
            (f"{direction}/without-{var}",
             project(oriented, [v for v in source_vars if v != var], side="source"))
            for var in source_vars
        ]
        for label, lex in variants:
            cells.append(_cv_cell(spec, lex.source_matrix, lex.target_matrix, rows, seed, ds_id,
                                  label))
    means = iter(float(_per_variable_mean(r).mean()) for r, _, _ in _evaluate(cells, jobs))
    per_dataset: dict[str, dict[str, float]] = {}
    full_scores: dict[str, float] = {}
    for ds_id in oriented_map:
        full_scores[ds_id] = full_avg = next(means)
        per_dataset[ds_id] = {var: full_avg - next(means) for var in source_vars}
    averaged = {
        var: float(np.mean([per_dataset[ds][var] for ds in per_dataset]))
        for var in source_vars
    }
    return AblationReport(
        direction=direction,
        source_variables=source_vars,
        drops=averaged,
        per_dataset_drops=per_dataset,
        full_average_r=full_scores,
        seed=seed,
        k_folds=k_folds,
    )


def _without_dominance(data: AlignedLexicon) -> AlignedLexicon:
    for side, fmt in (("source", data.source_format), ("target", data.target_format)):
        if "dominance" in fmt.variables:
            data = project(data, [v for v in fmt.variables if v != "dominance"], side=side)
    return data


def _crosslingual_training(datasets: Mapping, ids, direction: str) -> AlignedLexicon:
    """Datasets ids in direction, without dominance, stacked: the training
    set of a cross-lingual evaluation or lexicon build."""
    return concat([_without_dominance(_orient(datasets, i, direction)) for i in ids])


def run_crosslingual(datasets, spec: ModelSpec, seed: int, *, jobs: int = 1) -> list[EvalReport]:
    """Train on all other-language data, evaluate on each dataset whole.

    Dominance is excluded throughout (several source languages lack it),
    and there is no cross-validation: one training run, one evaluation
    per dataset and direction. Training rows keep their language tags and
    are asserted to never match the evaluation language.
    """
    data_map = dict(datasets)
    languages = {d.language for d in data_map.values()}
    if len(languages) < 2:
        raise ConfigurationError(
            f"cross-lingual transfer needs at least 2 languages, got {sorted(languages)}"
        )
    cells, labels, memo = [], [], {}
    for ds_id, data in data_map.items():
        others = {i: other for i, other in data_map.items() if other.language != data.language}
        for direction, oriented in directions_for(data):
            eval_data = _without_dominance(oriented)
            train = _crosslingual_training(others, others, direction)
            if any(lang == data.language for lang in train.row_languages):
                raise ContractError(
                    "training rows leaked from the evaluation language "
                    f"{data.language!r}"
                )
            unit = WorkUnit(spec, derive_seed(seed, ds_id, direction, spec.name, 0),
                            _inputs(spec, train, memo), train.target_matrix,
                            _inputs(spec, eval_data, memo))
            cells.append(([unit], eval_data.target_matrix))
            labels.append((ds_id, direction, eval_data, len(train)))
    return [
        _report(spec, ds_id, direction, eval_data, scored, seed, 0, n_train)
        for (ds_id, direction, eval_data, n_train), scored in zip(labels, _evaluate(cells, jobs))
    ]


def compare_to_shr(
    report: EvalReport, records: Sequence[ReliabilityRecord]
) -> EvalReport:
    """Flag each variable above/below the normalized human reliability.

    "above" requires strictly exceeding the normalized r; ties are
    "below". Variables without a record for this dataset are
    "unreported".
    """
    by_variable = {}
    for rec in records:
        if rec.dataset_id == report.dataset_id:
            if rec.normalized_r is None:
                raise ContractError(
                    f"record {rec.dataset_id}/{rec.variable} is not normalized"
                )
            by_variable[rec.variable] = rec.normalized_r
    flags = {}
    for var, r in zip(report.variables, report.per_variable_r):
        if var not in by_variable:
            flags[var] = "unreported"
        elif not np.isnan(r) and float(r) > by_variable[var]:
            flags[var] = "above"
        else:
            flags[var] = "below"
    return replace(report, shr_flags=flags)


def render_json(doc) -> bytes:
    """doc as every JSON output holds it: sorted keys, indent 2, no NaN, one final newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode("utf-8") + b"\n"


def render_report_json(reports: Sequence[EvalReport], *, meta: dict | None = None) -> bytes:
    """One structured document per run; byte-reproducible for fixed inputs."""
    return render_json({"meta": meta or {}, "reports": [r.to_dict() for r in reports]})


def _table_cell(report: EvalReport) -> str:
    if np.isnan(report.format_average_r):
        cell = "n/a"
    else:
        cell = f"{report.format_average_r:.3f}"
    if report.significance and "stars" in report.significance:
        cell += format_stars(report.significance["stars"])
    elif report.significance and report.significance.get("result") == "n.s.":
        cell += " n.s."
    if report.best:
        cell = f"[{cell}]"
    return cell


def render_report_table(reports: Sequence[EvalReport]) -> bytes:
    """Human-readable TSV: one row per dataset x direction, one column
    per model, best cell bracketed, stars appended."""
    models = list(dict.fromkeys(r.model for r in reports))
    rows: dict[tuple[str, str], dict[str, EvalReport]] = {}
    for r in reports:
        rows.setdefault((r.dataset_id, r.direction), {})[r.model] = r
    lines = ["\t".join(["dataset", "direction", "items", *models])]
    for (ds, direction), row in rows.items():
        n_items = next(iter(row.values())).n_items
        cells = [_table_cell(row[m]) if m in row else "" for m in models]
        lines.append("\t".join([ds, direction, str(n_items), *cells]))
    return ("\n".join(lines) + "\n").encode("utf-8")

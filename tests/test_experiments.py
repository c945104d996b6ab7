import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_aligned
from affectmap import experiments
from affectmap.errors import ConfigurationError, ContractError, DegenerateInputError
from affectmap.experiments import (
    ModelSpec,
    WorkUnit,
    compare_to_shr,
    derive_seed,
    directions_for,
    make_folds,
    run_ablation,
    run_crosslingual,
    run_monolingual,
    run_units,
    render_report_json,
    render_report_table,
)
from affectmap.lexicon import BE5, VAD, AlignedLexicon, EmotionFormat, project
from affectmap.stats import ReliabilityRecord, normalize_shr


class _LookupModel:
    """Returns the gold target for any query row it has seen; tests the
    harness itself rather than any real learner."""

    def __init__(self, S, T, flip):
        self.S = S
        self.T = T if not flip else 6.0 - T
        self.keys = {tuple(row): i for i, row in enumerate(S)}

    def fit_arrays(self, S, T):
        return self

    def predict(self, X):
        idx = [self.keys[tuple(row)] for row in np.asarray(X)]
        return self.T[idx]


class _OracleSpec(ModelSpec):
    def __init__(self, name, data, flip=False):
        super().__init__(name=name, kind="lr")
        self._model = _LookupModel(data.source_matrix, data.target_matrix, flip)

    def build(self, seed=0):
        return self._model


class _ConstantSpec(ModelSpec):
    def __init__(self, name="const"):
        super().__init__(name=name, kind="lr")

    def build(self, seed=0):
        class _Const:
            def fit_arrays(self, S, T):
                self.mean = T.mean(axis=0)
                return self

            def predict(self, X):
                return np.tile(self.mean, (len(X), 1))

        return _Const()


def make_valence_driven(n=200, seed=0, coef=(0.40, 0.30, 0.25, 0.35, 0.28), noise=0.0):
    """BE5 targets depend only on Valence; Arousal and Dominance carry
    no information at all."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:04d}" for i in range(n)]
    vad = rng.uniform(1.0, 9.0, size=(n, 3))
    T = 3.0 + np.outer(vad[:, 0] - 5.0, coef)
    if noise:
        T = T + rng.normal(0.0, noise, size=T.shape)
    T = np.clip(T, 1.0, 5.0)
    return AlignedLexicon(words, VAD, BE5, vad, T, language="en")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_parts_matter(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "a", "c")
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")
        assert derive_seed(7) != derive_seed(8)

    def test_range(self):
        for base in range(50):
            s = derive_seed(base, "x")
            assert 0 <= s < 2**63


class TestMakeFolds:
    def test_even_division(self):
        folds = make_folds(100, 10, seed=0)
        sizes = [len(folds.test_indices(f)) for f in range(10)]
        assert sizes == [10] * 10

    def test_remainder_spread(self):
        folds = make_folds(13, 10, seed=1)
        sizes = sorted(len(folds.test_indices(f)) for f in range(10))
        assert sizes == [1] * 7 + [2] * 3
        # remainder goes to the leading folds
        assert [len(folds.test_indices(f)) for f in range(3)] == [2, 2, 2]

    def test_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            k = int(rng.integers(2, min(n, 12) + 1))
            folds = make_folds(n, k, seed=int(rng.integers(0, 1000)))
            seen = np.concatenate([folds.test_indices(f) for f in range(k)])
            assert sorted(seen.tolist()) == list(range(n))
            sizes = [len(folds.test_indices(f)) for f in range(k)]
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = make_folds(37, 10, seed=5)
        b = make_folds(37, 10, seed=5)
        c = make_folds(37, 10, seed=6)
        assert a.assignment == b.assignment
        assert a.assignment != c.assignment

    def test_train_test_complementary(self):
        folds = make_folds(20, 4, seed=0)
        for f in range(4):
            train = set(folds.train_indices(f).tolist())
            test = set(folds.test_indices(f).tolist())
            assert train | test == set(range(20))
            assert not train & test

    def test_k_validation(self):
        with pytest.raises(ContractError):
            make_folds(5, 6)
        with pytest.raises(ContractError):
            make_folds(5, 1)


class TestModelSpec:
    def test_kind_aliases(self):
        assert ModelSpec("m", "linear").kind == "lr"
        assert ModelSpec("m", "wei").kind == "boosted"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("m", "svm")

    def test_lr_rejects_params(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("m", "lr", params={"k": 3}).build()

    def test_knn_params(self):
        m = ModelSpec("m", "knn", params={"k": 7}).build()
        assert m.k == 7

    def test_ffnn_params_and_seed(self):
        spec = ModelSpec("m", "ffnn", params={"hidden_sizes": [8], "iterations": 5})
        m = spec.build(seed=42)
        assert m.config.hidden_sizes == (8,)
        assert m.config.seed == 42

    def test_spec_seed_param_ignored(self):
        spec = ModelSpec("m", "ffnn", params={"seed": 7, "iterations": 5})
        assert spec.build(seed=42).config.seed == 42

    def test_boosted_params(self):
        spec = ModelSpec(
            "m", "boosted", params={"stages": 3, "base": {"hidden_sizes": [8], "iterations": 5}}
        )
        e = spec.build(seed=1)
        assert e.max_stages == 3
        assert e.base_config.hidden_sizes == (8,)


class TestDirections:
    def test_dimensional_labels(self):
        al = make_aligned(n=20)
        pairs = dict(directions_for(al))
        assert set(pairs) == {"cat2dim", "dim2cat"}
        assert pairs["cat2dim"].source_format.variables == BE5.variables
        assert pairs["cat2dim"].target_format.variables == VAD.variables
        assert pairs["dim2cat"].source_format.variables == VAD.variables

    def test_neutral_labels(self):
        a = EmotionFormat("fmt_a", ("alpha", "beta"), 1.0, 5.0)
        b = EmotionFormat("fmt_b", ("gamma",), 1.0, 5.0)
        al = AlignedLexicon(["w"], a, b, [[2.0, 2.0]], [[2.0]])
        pairs = dict(directions_for(al))
        assert set(pairs) == {"src2tgt", "tgt2src"}
        assert pairs["src2tgt"].source_format is a
        assert pairs["tgt2src"].source_format is b


def _cv_cell(spec, data, k_folds):
    """(fold r, degenerate cells, pooled r) of one cross-validation cell,
    built and scored the way run_monolingual and run_ablation do theirs."""
    rows = experiments._fold_rows(data, k_folds, 0)
    cell = experiments._cv_cell(spec, data.source_matrix, data.target_matrix, rows, 0, "ds",
                                "dim2cat")
    return experiments._evaluate([cell], jobs=1)[0]


class TestCrossValidate:
    def test_oracle_predictor_r_one(self):
        al = make_aligned(n=50, seed=1)
        fold_r, degenerate, pooled_r = _cv_cell(_OracleSpec("oracle", al), al, 5)
        assert np.allclose(fold_r, 1.0)
        assert np.allclose(pooled_r, 1.0)
        assert degenerate == []

    def test_negated_oracle_r_minus_one(self):
        al = make_aligned(n=50, seed=2)
        fold_r, _, pooled_r = _cv_cell(_OracleSpec("neg", al, flip=True), al, 5)
        assert np.allclose(fold_r, -1.0)
        assert np.allclose(pooled_r, -1.0)

    def test_constant_predictor_flags_all_cells(self):
        al = make_aligned(n=40, seed=3)
        fold_r, degenerate, _ = _cv_cell(_ConstantSpec(), al, 4)
        assert np.all(np.isnan(fold_r))
        assert len(degenerate) == 4 * 5
        assert np.all(np.isnan(experiments._per_variable_mean(fold_r)))

    def test_linear_on_affine_data(self):
        al = make_aligned(n=120, seed=4, noise=0.0)
        fold_r, _, _ = _cv_cell(ModelSpec("lr", "lr"), al, 10)
        assert np.all(experiments._per_variable_mean(fold_r) > 0.999)


class TestRunMonolingual:
    def test_identical_specs_not_significant(self):
        al = make_aligned(n=60, seed=5)
        reports = run_monolingual(
            {"ds": al},
            [ModelSpec("lr_a", "lr"), ModelSpec("lr_b", "lr")],
            seed=0,
            k_folds=5,
        )
        assert len(reports) == 4  # 2 directions x 2 specs
        for direction in ("cat2dim", "dim2cat"):
            group = [r for r in reports if r.direction == direction]
            best = [r for r in group if r.best]
            assert len(best) == 1
            assert best[0].significance == {
                "versus": ("lr_a" if best[0].model == "lr_b" else "lr_b"),
                "result": "n.s.",
            }

    def test_nonlinear_data_ranks_ffnn_first(self):
        # targets ride on |valence-5|, invisible to the linear model
        rng = np.random.default_rng(6)
        n = 150
        words = [f"w{i}" for i in range(n)]
        vad = rng.uniform(1.0, 9.0, size=(n, 3))
        V = rng.uniform(0.1, 0.2, size=(5, 3))
        be5 = 3.0 + (np.abs(vad - 5.0) - 2.0) @ V.T
        al = AlignedLexicon(words, VAD, BE5, vad, np.clip(be5, 1.0, 5.0), language="en")
        specs = [
            ModelSpec("lr", "lr"),
            ModelSpec("ffnn", "ffnn", params={"hidden_sizes": [32, 32], "iterations": 800}),
        ]
        reports = run_monolingual({"v": al}, specs, seed=0, k_folds=5)
        cell = [r for r in reports if r.direction == "dim2cat" and r.best]
        assert len(cell) == 1
        assert cell[0].model == "ffnn"
        assert cell[0].significance["stars"] >= 1

    def test_means_recomputable(self):
        al = make_aligned(n=80, seed=7, noise=0.2)
        reports = run_monolingual(
            {"ds": al}, [ModelSpec("knn", "knn", params={"k": 5})], seed=3, k_folds=8
        )
        for r in reports:
            recomputed = np.nanmean(r.fold_r, axis=0)
            assert np.allclose(recomputed, r.per_variable_r, atol=1e-12)
            assert abs(np.mean(r.per_variable_r) - r.format_average_r) < 1e-12

    def test_duplicate_spec_names_rejected(self):
        al = make_aligned(n=30)
        with pytest.raises(ConfigurationError):
            run_monolingual({"d": al}, [ModelSpec("x", "lr"), ModelSpec("x", "knn")], seed=0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ContractError):
            run_monolingual({}, [ModelSpec("x", "lr")], seed=0)
        with pytest.raises(ContractError):
            run_monolingual({"d": make_aligned(n=30)}, [], seed=0)

    def test_parallel_equals_serial(self):
        al = make_aligned(n=60, seed=8, noise=0.1)
        specs = [ModelSpec("lr", "lr"), ModelSpec("knn", "knn", params={"k": 3})]
        serial = run_monolingual({"d": al}, specs, seed=1, k_folds=5, jobs=1)
        parallel = run_monolingual({"d": al}, specs, seed=1, k_folds=5, jobs=4)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.to_dict() == b.to_dict()

    def test_reliability_flags_attached(self):
        al = make_aligned(n=60, seed=9, noise=0.0)
        records = [
            normalize_shr(ReliabilityRecord("d", "joy", 0.5, 20, False)),
            normalize_shr(ReliabilityRecord("d", "valence", 0.999, 20, False)),
        ]
        reports = run_monolingual(
            {"d": al}, [ModelSpec("lr", "lr")], seed=0, k_folds=5, reliability=records
        )
        dim2cat = next(r for r in reports if r.direction == "dim2cat")
        assert dim2cat.shr_flags["joy"] == "above"  # lr is near-perfect here
        assert dim2cat.shr_flags["anger"] == "unreported"
        cat2dim = next(r for r in reports if r.direction == "cat2dim")
        assert cat2dim.shr_flags["valence"] in ("above", "below")
        assert cat2dim.shr_flags["arousal"] == "unreported"


class _FailingSpec(ModelSpec):
    """Fits fine except on the folds whose seed is listed."""

    def __init__(self, fail_seeds):
        super().__init__(name="fail", kind="lr")
        self.fail_seeds = fail_seeds

    def build(self, seed=0):
        if seed in self.fail_seeds:
            raise DegenerateInputError(f"unit {seed} failed")
        return ModelSpec("lr", "lr").build(seed)


class TestWorkUnits:
    def _units(self, n_units=6):
        al = make_aligned(n=40, seed=3)
        folds = make_folds(len(al), n_units, seed=0)
        S, T = al.source_matrix, al.target_matrix
        return [
            WorkUnit(ModelSpec("lr", "lr"), fold, S, T, S,
                     folds.train_indices(fold), folds.test_indices(fold))
            for fold in range(n_units)
        ]

    def test_submission_order_at_any_jobs(self):
        units = self._units()
        serial = run_units(units, jobs=1)
        # two cells, the second with gold constant on unit 1's test rows of variable 2
        gold = units[0].train_T.copy()
        gold[units[1].test_rows, 2] = 3.0
        cells = [(units, units[0].train_T), (units, gold)]
        scored = experiments._evaluate(cells, jobs=1)
        assert scored[0][1] == [] and scored[1][1] == [(1, 2)]
        assert np.isnan(scored[1][0][1, 2]) and not np.isnan(scored[1][2]).any()
        for jobs in (2, 3, 8, 100):
            for p1, p2 in zip(serial, run_units(units, jobs=jobs), strict=True):
                assert np.array_equal(p1, p2)
            for (r1, d1, p1), (r2, d2, p2) in zip(scored, experiments._evaluate(cells, jobs=jobs),
                                                  strict=True):
                assert np.array_equal(r1, r2, equal_nan=True) and d1 == d2
                assert np.array_equal(p1, p2, equal_nan=True)

    def test_more_threads_than_cores_with_a_short_switch_interval(self):
        units = self._units(8) * 4
        serial = run_units(units)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_units(units, jobs=8)
        finally:
            sys.setswitchinterval(old)
        for p1, p2 in zip(serial, parallel, strict=True):
            assert np.array_equal(p1, p2)

    def test_predictions_equal_a_direct_fit(self):
        for unit in self._units():
            pred, = run_units([unit])
            S, T, train, test = unit.train_X, unit.train_T, unit.train_rows, unit.test_rows
            direct = unit.spec.build(unit.seed).fit_arrays(S[train], T[train]).predict(S[test])
            assert pred.shape == (len(test), T.shape[1])
            assert np.array_equal(pred, direct)

    def test_first_failure_in_submission_order_is_raised(self):
        units = [replace(u, spec=_FailingSpec({2, 4})) for u in self._units()]
        for jobs in (1, 2, 6):
            with pytest.raises(DegenerateInputError, match="unit 2 failed"):
                run_units(units, jobs=jobs)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_units(self._units(), jobs=0)

    def test_feature_matrix_built_once_per_dataset_and_spec(self, monkeypatch):
        built = []
        real = experiments._feature_matrix
        monkeypatch.setattr(
            experiments, "_feature_matrix", lambda f, words: built.append(len(words)) or real(f, words)
        )
        data = {"a": make_aligned(n=30, seed=1, prefix="a"), "b": make_aligned(n=24, seed=2, prefix="b")}
        rng = np.random.default_rng(0)
        features = {w: rng.normal(size=2) for d in data.values() for w in d.words}
        specs = [ModelSpec("f1", "lr", features=features), ModelSpec("f2", "knn", {"k": 3}, features)]
        reports = run_monolingual(data, specs, seed=0, k_folds=3, jobs=2)
        assert len(reports) == 8  # 2 datasets x 2 directions x 2 specs
        assert built == [30, 30, 24, 24]  # per (dataset, spec), shared by both directions

    def test_ablation_and_crosslingual_parallel_equal_serial(self):
        data = {"en": make_aligned(n=50, seed=1), "de": make_aligned(n=40, seed=2, language="de", prefix="x")}
        spec = ModelSpec("knn", "knn", params={"k": 4})
        assert (run_ablation(data, "dim2cat", seed=3, k_folds=4).to_dict()
                == run_ablation(data, "dim2cat", seed=3, k_folds=4, jobs=3).to_dict())
        serial = run_crosslingual(data, spec, seed=3)
        parallel = run_crosslingual(data, spec, seed=3, jobs=3)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


class TestRunAblation:
    def test_construction_oracle(self):
        al = make_valence_driven(n=200, seed=0)
        report = run_ablation({"d": al}, "dim2cat", seed=0)
        assert report.source_variables == ("valence", "arousal", "dominance")
        assert report.drops["valence"] > 0.3
        assert abs(report.drops["arousal"]) < 0.02
        assert abs(report.drops["dominance"]) < 0.02

    def test_duplicate_dataset_idempotent(self):
        al = make_valence_driven(n=150, seed=1, noise=0.1)
        single = run_ablation({"a": al}, "dim2cat", seed=0)
        double = run_ablation({"a": al, "b": al}, "dim2cat", seed=0)
        assert single.drops == double.drops

    def test_unknown_direction(self):
        al = make_aligned(n=30)
        with pytest.raises(ConfigurationError):
            run_ablation({"d": al}, "sideways", seed=0)

    def test_no_datasets(self):
        with pytest.raises(ContractError):
            run_ablation({}, "dim2cat", seed=0)

    def test_to_dict_round_trips_through_json(self):
        al = make_valence_driven(n=100, seed=2)
        report = run_ablation({"d": al}, "dim2cat", seed=0, k_folds=5)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["direction"] == "dim2cat"
        assert set(doc["drops"]) == {"valence", "arousal", "dominance"}


class TestRunCrosslingual:
    def _languages(self, shared_seed=10, noise=0.05):
        """Two languages produced by one underlying linear mapping that
        ignores dominance, so excluding it costs nothing."""
        rng = np.random.default_rng(shared_seed)
        M = np.zeros((5, 3))
        M[:, :2] = rng.choice([-1.0, 1.0], size=(5, 2)) * rng.uniform(0.06, 0.12, (5, 2))

        def build(n, lang, seed, prefix):
            r = np.random.default_rng(seed)
            words = [f"{prefix}{i:04d}" for i in range(n)]
            vad = r.uniform(1.0, 9.0, size=(n, 3))
            be5 = np.clip(3.0 + (vad - 5.0) @ M.T + r.normal(0, noise, (n, 5)), 1.0, 5.0)
            return AlignedLexicon(words, VAD, BE5, vad, be5, language=lang)

        return {"en": build(120, "en", 1, "en"), "de": build(130, "de", 2, "de")}

    def test_close_to_monolingual_for_shared_mapping(self):
        data = self._languages()
        spec = ModelSpec("lr", "lr")
        cross = run_crosslingual(data, spec, seed=0)
        en_va = project(data["en"], ["valence", "arousal"], side="source")
        mono = run_monolingual({"en": en_va}, [spec], seed=0, k_folds=10)
        for direction in ("cat2dim", "dim2cat"):
            c = next(r for r in cross if r.dataset_id == "en" and r.direction == direction)
            m = next(r for r in mono if r.direction == direction)
            assert abs(c.format_average_r - m.format_average_r) < 0.05

    def test_dominance_excluded(self):
        data = self._languages()
        reports = run_crosslingual(data, ModelSpec("lr", "lr"), seed=0)
        for r in reports:
            assert "dominance" not in r.variables
        dim2cat = next(r for r in reports if r.direction == "dim2cat")
        assert dim2cat.variables == BE5.variables
        cat2dim = next(r for r in reports if r.direction == "cat2dim")
        assert cat2dim.variables == ("valence", "arousal")

    def test_train_size_is_sum_of_others(self):
        data = self._languages()
        third = make_aligned(n=40, seed=3, language="pl", prefix="pl")
        data["pl"] = third
        reports = run_crosslingual(data, ModelSpec("lr", "lr"), seed=0)
        en = next(r for r in reports if r.dataset_id == "en")
        assert en.n_train == 130 + 40
        pl = next(r for r in reports if r.dataset_id == "pl")
        assert pl.n_train == 120 + 130

    def test_single_language_rejected(self):
        a = make_aligned(n=30, language="en")
        b = make_aligned(n=30, seed=1, language="en", prefix="x")
        with pytest.raises(ConfigurationError):
            run_crosslingual({"a": a, "b": b}, ModelSpec("lr", "lr"), seed=0)

    def test_language_leak_detected(self):
        data = self._languages()
        leaky = data["de"]
        # lies about its language: rows are tagged with the eval language
        data["de"] = AlignedLexicon(
            leaky.words,
            leaky.source_format,
            leaky.target_format,
            leaky.source_matrix,
            leaky.target_matrix,
            language="de",
            row_languages=("en",) * len(leaky),
        )
        with pytest.raises(ContractError, match="leak"):
            run_crosslingual(data, ModelSpec("lr", "lr"), seed=0)

    def test_constant_eval_variable_is_degenerate(self):
        data = self._languages()
        de = data["de"]
        T = de.target_matrix.copy()
        T[:, 0] = 3.0  # joy
        data["de"] = AlignedLexicon(de.words, VAD, BE5, de.source_matrix, T, language="de")
        reports = run_crosslingual(data, ModelSpec("knn", "knn", params={"k": 5}), seed=0)
        r = next(r for r in reports if (r.dataset_id, r.direction) == ("de", "dim2cat"))
        assert r.degenerate_cells == [(0, 0)]
        assert np.isnan(r.per_variable_r[0]) and not np.isnan(r.per_variable_r[1:]).any()
        assert np.array_equal(r.pooled_per_variable_r, r.per_variable_r, equal_nan=True)

    def test_no_folds_single_evaluation(self):
        data = self._languages()
        reports = run_crosslingual(data, ModelSpec("lr", "lr"), seed=0)
        for r in reports:
            assert r.fold_r.shape[0] == 1
            assert r.k_folds == 0


class TestCompareToShr:
    def _report(self, r_values):
        al = make_aligned(n=40, seed=0)
        reports = run_monolingual({"d": al}, [ModelSpec("lr", "lr")], seed=0, k_folds=4)
        report = next(r for r in reports if r.direction == "dim2cat")
        report.per_variable_r = np.asarray(r_values, dtype=np.float64)
        return report

    def test_above_below_unreported(self):
        report = self._report([0.96, 0.5, 0.914, 0.2, 0.9])
        records = [
            normalize_shr(ReliabilityRecord("d", "joy", 0.914, 20, False)),
            normalize_shr(ReliabilityRecord("d", "anger", 0.6, 20, False)),
            normalize_shr(ReliabilityRecord("d", "sadness", 0.914, 20, False)),
        ]
        out = compare_to_shr(report, records)
        assert out.shr_flags["joy"] == "above"  # 0.96 > 0.914
        assert out.shr_flags["anger"] == "below"
        assert out.shr_flags["sadness"] == "below"  # ties are not above
        assert out.shr_flags["fear"] == "unreported"

    def test_other_dataset_records_ignored(self):
        report = self._report([0.9, 0.9, 0.9, 0.9, 0.9])
        records = [normalize_shr(ReliabilityRecord("other", "joy", 0.5, 20, False))]
        out = compare_to_shr(report, records)
        assert all(flag == "unreported" for flag in out.shr_flags.values())

    def test_unnormalized_record_rejected(self):
        report = self._report([0.9, 0.9, 0.9, 0.9, 0.9])
        with pytest.raises(ContractError):
            compare_to_shr(report, [ReliabilityRecord("d", "joy", 0.5, 20, False)])

    def test_original_not_mutated(self):
        report = self._report([0.9, 0.9, 0.9, 0.9, 0.9])
        compare_to_shr(report, [])
        assert report.shr_flags is None


class TestReportOutput:
    def _reports(self):
        al = make_aligned(n=60, seed=11, noise=0.3)
        return run_monolingual(
            {"d": al},
            [ModelSpec("lr", "lr"), ModelSpec("knn", "knn", params={"k": 5})],
            seed=2,
            k_folds=5,
        )

    def test_json_reproducible_bytes(self):
        a = render_report_json(self._reports(), meta={"seed": 2})
        assert a == render_report_json(self._reports(), meta={"seed": 2})

    def test_json_structure(self):
        doc = json.loads(render_report_json(self._reports(), meta={"seed": 2}))
        assert doc["meta"] == {"seed": 2}
        assert len(doc["reports"]) == 4
        first = doc["reports"][0]
        assert set(first["per_variable_r"]) == set(first["variables"])
        assert len(first["fold_r"]) == 5

    def test_json_nan_becomes_null(self):
        al = make_aligned(n=40, seed=12)
        reports = run_monolingual({"d": al}, [_ConstantSpec()], seed=0, k_folds=4)
        doc = json.loads(render_report_json(reports))
        assert doc["reports"][0]["format_average_r"] is None
        assert doc["reports"][0]["fold_r"][0][0] is None

    def test_table_layout(self):
        lines = render_report_table(self._reports()).decode("utf-8").strip().split("\n")
        assert lines[0].split("\t") == ["dataset", "direction", "items", "lr", "knn"]
        assert len(lines) == 3  # header + 2 directions
        for line in lines[1:]:
            cells = line.split("\t")
            assert cells[0] == "d"
            assert cells[2] == "60"
            # exactly one bracketed best per row
            assert sum(c.startswith("[") for c in cells[3:]) == 1

    def test_table_star_and_ns_rendering(self):
        al = make_aligned(n=60, seed=13)
        reports = run_monolingual(
            {"d": al}, [ModelSpec("a", "lr"), ModelSpec("b", "lr")], seed=0, k_folds=5
        )
        text = render_report_table(reports).decode("utf-8")
        assert " n.s." in text

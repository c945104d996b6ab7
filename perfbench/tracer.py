"""Outside-in layer tracing of an in-process affectmap run.

``Tracer.install`` replaces each target in ``TARGETS`` with a timing
wrapper on the object its caller looks the name up on (a module global
such as ``affectmap.experiments.pearson``, or a class attribute such as
``FfnnModel.fit_arrays``); ``Tracer.restore`` puts the originals back.
A target that no longer exists is listed in ``Tracer.absent`` and left
alone, so its time lands in its caller's self time.

Spans stay in memory as (span, start, duration, self time) and are
aggregated once the run ends. Each thread keeps its own stack of open
spans, so self time (duration minus the time of child spans in the same
thread) stays correct when ``--jobs 2`` runs work units on pool threads.

``LAYER_METRICS`` turns the aggregate into the per-layer metrics. Each
entry names the end-to-end metrics it should move and the workload it is
heavy on, which is how a later change states its expected effect.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["TARGETS", "LAYER_METRICS", "LayerMetric", "Tracer", "layer_metrics"]


def _ffnn_fit(args, kwargs, result, dur):
    return {"ffnn.iters": args[0].config.iterations}


def _ffnn_forward(args, kwargs, result, dur):
    # one (n, fan_in) x (fan_in, fan_out) product per layer
    return {"ffnn.gemm_gflop": 2e-9 * len(args[1]) * sum(w.size for w in args[0].weights)}


def _ffnn_backward(args, kwargs, result, dur):
    # a weight-gradient product per layer, a delta product per layer but the first
    sizes = [w.size for w in args[0].weights]
    return {"ffnn.gemm_gflop": 2e-9 * len(args[2]) * (sum(sizes) + sum(sizes[1:]))}


def _boost_fit(args, kwargs, result, dur):
    return {"boost.nets": sum(len(nets) for nets in result.stages)}


def _knn_predict(args, kwargs, result, dur):
    n = len(args[1])
    return {"knn.queries": n, "knn.dist_cells": n * len(args[0].source)}


def _rows(key):
    return lambda args, kwargs, result, dur: {key: len(result)}


def _capacity(args, kwargs, result, dur):
    # worker seconds the protocol could use: jobs x wall; ablation is serial
    return {"experiments.capacity_s": kwargs.get("jobs", 1) * dur}


# (span, module, attribute path, optional counting hook)
TARGETS = (
    ("experiments.monolingual", "affectmap.cli", "run_monolingual", _capacity),
    ("experiments.crosslingual", "affectmap.cli", "run_crosslingual", None),
    ("experiments.ablation", "affectmap.cli", "run_ablation", _capacity),
    ("experiments.unit", "affectmap.experiments", "cross_validate", None),
    ("stats.pearson", "affectmap.experiments", "pearson", None),
    ("lexicon.parse", "affectmap.manifest", "parse_lexicon", _rows("lexicon.rows_parsed")),
    ("lexicon.align", "affectmap.manifest", "align", None),
    ("features.read", "affectmap.manifest", "read_feature_vectors", _rows("features.rows")),
    ("lexgen.build", "affectmap.cli", "build_lexicon",
     lambda args, kwargs, result, dur: {"lexgen.words_out": len(result[0])}),
    ("lexgen.render", "affectmap.lexgen", "render_lexicon", None),
    ("lexgen.write", "affectmap.cli", "write_lexicon", None),
    ("lexgen.write", "affectmap.cli", "write_build_manifest", None),
    ("report.write", "affectmap.cli", "write_report_json", None),
    ("report.write", "affectmap.cli", "write_report_table", None),
    ("report.write", "affectmap.cli", "write_reliability_records", None),
    ("report.write", "affectmap.cli", "_write_run_meta", None),
    ("ffnn.fit", "affectmap.models.ffnn", "FfnnModel.fit_arrays", _ffnn_fit),
    ("ffnn.predict", "affectmap.models.ffnn", "FfnnModel.predict", None),
    ("ffnn.forward", "affectmap.models.ffnn", "ffnn_forward", _ffnn_forward),
    ("ffnn.backward", "affectmap.models.ffnn", "ffnn_backward", _ffnn_backward),
    ("ffnn.dropout_fwd", "affectmap._kernels", "hidden_forward", None),
    ("ffnn.dropout_bwd", "affectmap._kernels", "hidden_backward", None),
    ("ffnn.adam", "affectmap._kernels", "adam_update", None),
    ("boost.fit", "affectmap.models.boosting", "BoostedEnsemble.fit_arrays", _boost_fit),
    ("boost.predict", "affectmap.models.boosting", "BoostedEnsemble.predict", None),
    ("knn.predict", "affectmap.models.knn", "KnnModel.predict", _knn_predict),
    ("knn.dist", "affectmap._kernels", "pairwise_sq_dists", None),
    ("linear.fit", "affectmap.models.linear", "LinearModel.fit_arrays", None),
    ("linear.predict", "affectmap.models.linear", "LinearModel.predict", None),
)

_MISSING = object()


class Tracer:
    """Timing wrappers around ``TARGETS`` plus the spans they record."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for span, module_name, path, hook in targets:
            where = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(where)
                continue
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(where)
                continue
            # restore class attributes from the class's own dict so an
            # inherited method is deleted again rather than copied down
            original = vars(owner).get(attr, _MISSING) if isinstance(owner, type) else fn
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, fn, hook))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: str, fn: Callable, hook) -> Callable:
        record = self.spans.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record((span, start, dur, dur - children[0]))
            if hook is not None:
                self._count(span, hook, args, kwargs, result, dur)
            return result

        return wrapper

    def _count(self, span, hook, args, kwargs, result, dur) -> None:
        try:
            counts = hook(args, kwargs, result, dur)
        except (AttributeError, IndexError, KeyError, TypeError) as e:
            # a changed signature loses the count, not the run
            with self._lock:
                self.hook_errors.append(f"{span}: {type(e).__name__}: {e}")
            return
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def root(self, fn: Callable, *args):
        """Call fn as a root span; returns (result, wall, root self time)."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            stack.pop()
        return result, wall, wall - children[0]

    def aggregate(self) -> dict[str, list[float]]:
        """span -> [calls, inclusive seconds, self seconds]."""
        agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, _start, dur, self_s in self.spans:
            row = agg[span]
            row[0] += 1
            row[1] += dur
            row[2] += self_s
        return dict(agg)


class _View:
    """Read access to one traced run; remembers which spans a metric read."""

    def __init__(self, agg, counts, extra):
        self.agg, self.counts, self.extra = agg, counts, extra
        self.read: set[str] = set()

    def _row(self, span):
        self.read.add(span)
        return self.agg.get(span, (0, 0.0, 0.0))

    def calls(self, span):
        return self._row(span)[0]

    def incl(self, span):
        return self._row(span)[1]

    def self_(self, span):
        return self._row(span)[2]

    def count(self, span, key):
        self.read.add(span)
        return self.counts.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    moves: tuple[str, ...]  # end-to-end metrics it should move
    workload: str  # workload it is heavy on
    value: Callable[[_View], float]


def _m(unit, better, moves, workload, value):
    return LayerMetric(unit, better, tuple(moves.split()), workload, value)


LAYER_METRICS: dict[str, LayerMetric] = {
    # models.ffnn (+ the kernels it calls)
    "ffnn.fit_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.incl("ffnn.fit")),
    "ffnn.fits": _m("count", "lower", "run_s", "cv-ffnn", lambda v: v.calls("ffnn.fit")),
    "ffnn.iters": _m("count", "lower", "run_s", "cv-ffnn",
                     lambda v: v.count("ffnn.fit", "ffnn.iters")),
    "ffnn.iter_ms": _m("ms", "lower", "run_s", "cv-ffnn", lambda v: 1e3 * _ratio(
        v.incl("ffnn.fit"), v.count("ffnn.fit", "ffnn.iters"))),
    "ffnn.fwd_self_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("ffnn.forward")),
    "ffnn.dropout_fwd_s": _m("s", "lower", "run_s", "cv-ffnn",
                             lambda v: v.self_("ffnn.dropout_fwd")),
    "ffnn.bwd_self_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("ffnn.backward")),
    "ffnn.dropout_bwd_s": _m("s", "lower", "run_s", "cv-ffnn",
                             lambda v: v.self_("ffnn.dropout_bwd")),
    "ffnn.adam_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("ffnn.adam")),
    "ffnn.loop_self_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("ffnn.fit")),
    "ffnn.predict_s": _m("s", "lower", "run_s", "boost-emb", lambda v: v.incl("ffnn.predict")),
    "ffnn.gemm_gflop": _m("GFLOP", "lower", "run_s", "boost-emb",
                          lambda v: v.count("ffnn.forward", "ffnn.gemm_gflop")),
    # models.boosting
    "boost.fit_s": _m("s", "lower", "run_s", "boost-emb", lambda v: v.incl("boost.fit")),
    "boost.nets": _m("count", "lower", "run_s", "boost-emb",
                     lambda v: v.count("boost.fit", "boost.nets")),
    "boost.self_s": _m("s", "lower", "run_s", "boost-emb", lambda v: v.self_("boost.fit")),
    "boost.predict_s": _m("s", "lower", "run_s", "boost-emb", lambda v: v.self_("boost.predict")),
    # models.knn
    "knn.predict_s": _m("s", "lower", "run_s peak_rss_mb", "lexgen-knn",
                        lambda v: v.incl("knn.predict")),
    "knn.queries": _m("count", "lower", "run_s", "lexgen-knn",
                      lambda v: v.count("knn.predict", "knn.queries")),
    "knn.dist_cells": _m("count", "lower", "run_s peak_rss_mb", "lexgen-knn",
                         lambda v: v.count("knn.predict", "knn.dist_cells")),
    "knn.dist_s": _m("s", "lower", "run_s", "lexgen-knn", lambda v: v.self_("knn.dist")),
    "knn.select_s": _m("s", "lower", "run_s peak_rss_mb", "lexgen-knn",
                       lambda v: v.self_("knn.predict")),
    # models.linear
    "linear.fit_s": _m("s", "lower", "run_s", "lexgen-knn", lambda v: v.self_("linear.fit")),
    "linear.fits": _m("count", "lower", "run_s", "lexgen-knn", lambda v: v.calls("linear.fit")),
    "linear.predict_s": _m("s", "lower", "run_s", "lexgen-knn",
                           lambda v: v.self_("linear.predict")),
    # lexicon
    "lexicon.parse_s": _m("s", "lower", "setup_s run_s", "lexgen-knn",
                          lambda v: v.self_("lexicon.parse")),
    "lexicon.rows_parsed": _m("count", "lower", "setup_s run_s", "lexgen-knn",
                              lambda v: v.count("lexicon.parse", "lexicon.rows_parsed")),
    "lexicon.align_s": _m("s", "lower", "setup_s run_s", "lexgen-knn",
                          lambda v: v.self_("lexicon.align")),
    # manifest: feature vectors
    "features.read_s": _m("s", "lower", "setup_s", "boost-emb", lambda v: v.self_("features.read")),
    "features.rows": _m("count", "lower", "setup_s", "boost-emb",
                        lambda v: v.count("features.read", "features.rows")),
    # experiments
    "experiments.monolingual_s": _m("s", "lower", "run_s", "boost-emb",
                                    lambda v: v.incl("experiments.monolingual")),
    "experiments.crosslingual_s": _m("s", "lower", "run_s", "boost-emb",
                                     lambda v: v.incl("experiments.crosslingual")),
    "experiments.ablation_s": _m("s", "lower", "run_s", "lexgen-knn",
                                 lambda v: v.incl("experiments.ablation")),
    "experiments.units": _m("count", "higher", "run_s", "boost-emb",
                            lambda v: v.calls("experiments.unit")),
    "experiments.worker_busy_frac": _m("ratio", "higher", "run_s", "boost-emb", lambda v: _ratio(
        v.incl("experiments.unit"), v.count("experiments.unit", "experiments.capacity_s"))),
    # stats
    "stats.pearson_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("stats.pearson")),
    "stats.pearson_calls": _m("count", "lower", "run_s", "cv-ffnn",
                              lambda v: v.calls("stats.pearson")),
    # lexgen
    "lexgen.build_s": _m("s", "lower", "run_s", "lexgen-knn", lambda v: v.incl("lexgen.build")),
    "lexgen.build_self_s": _m("s", "lower", "run_s", "lexgen-knn",
                              lambda v: v.self_("lexgen.build")),
    "lexgen.render_s": _m("s", "lower", "run_s", "lexgen-knn", lambda v: v.self_("lexgen.render")),
    "lexgen.render_calls": _m("count", "lower", "run_s", "lexgen-knn",
                              lambda v: v.calls("lexgen.render")),
    "lexgen.words_out": _m("count", "higher", "run_s", "lexgen-knn",
                           lambda v: v.count("lexgen.build", "lexgen.words_out")),
    "lexgen.write_s": _m("s", "lower", "run_s", "lexgen-knn", lambda v: v.self_("lexgen.write")),
    # cli reports and the process as a whole
    "report.write_s": _m("s", "lower", "run_s", "cv-ffnn", lambda v: v.self_("report.write")),
    "proc.cpu_s": _m("s", "lower", "run_s", "boost-emb", lambda v: v.extra["cpu_s"]),
    "proc.cpu_util": _m("ratio", "higher", "run_s", "boost-emb",
                        lambda v: _ratio(v.extra["cpu_s"], v.extra["traced_wall_s"])),
    "trace.overhead_frac": _m("ratio", "lower", "run_s", "cv-ffnn", lambda v: _ratio(
        v.extra["traced_wall_s"] - v.extra["untraced_wall_s"], v.extra["untraced_wall_s"])),
    "trace.coverage_frac": _m("ratio", "higher", "run_s", "cv-ffnn", lambda v: 1.0 - _ratio(
        v.extra["root_self_s"], v.extra["traced_wall_s"])),
}


def layer_metrics(tracer: Tracer, extra: dict) -> tuple[dict[str, float], list[str]]:
    """Every metric of ``LAYER_METRICS`` plus the names of those that only
    read spans whose targets are absent (they read 0)."""
    present = {span for span, module, path, _ in TARGETS
               if f"{module}:{path}" not in tracer.absent}
    absent_spans = {span for span, _, _, _ in TARGETS} - present
    view = _View(tracer.aggregate(), tracer.counts, extra)
    values, absent = {}, []
    for name, metric in LAYER_METRICS.items():
        view.read = set()
        values[name] = float(metric.value(view))
        if view.read and view.read <= absent_spans:
            absent.append(name)
    return values, absent

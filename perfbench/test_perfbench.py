"""Self-tests of the benchmark harness (generator, metric table, tracer).

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import tracer
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(name, tmp_path):
    first = generate(name, 11, tmp_path / "a")
    generate(name, 11, tmp_path / "b")
    generate(name, 12, tmp_path / "c")
    a, b, c = _tree(tmp_path / "a"), _tree(tmp_path / "b"), _tree(tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c
    rated = {line.split("\t")[0] for f, data in a.items() if f.endswith("be5.tsv")
             for line in data.decode().splitlines()}
    for out, (words, truth) in first.truth.items():
        assert len(words) == truth.shape[0] == 39_000
        # the held-back BE5 truth of generated words reaches no input file
        assert rated.isdisjoint(words)


def test_benchmark_json_names_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb", "quality_r", "ok_frac"}


def test_every_layer_metric_names_what_it_moves_and_where():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == {name: (m.unit, m.better) for name, m in LAYER_METRICS.items()}
    for name, metric in LAYER_METRICS.items():
        assert metric.moves and set(metric.moves) <= end_to_end, name
        assert metric.workload in WORKLOADS, name


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner():
        time.sleep(0.02)

    def outer():
        mod.inner()
        time.sleep(0.01)

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    mod.inner, mod.outer, mod.Base, mod.Child = inner, outer, Base, Child
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_tolerates_absent_targets_and_restores(fake_module):
    originals = (fake_module.outer, fake_module.inner, vars(fake_module.Base)["step"])
    t = Tracer()
    t.install((
        ("x.outer", "perfbench_fake", "outer", None),
        ("x.gone", "perfbench_fake", "gone", None),
        ("x.kernel", "perfbench_no_such_module", "kernel", None),
        ("x.step", "perfbench_fake", "Child.step", None),
    ))
    assert t.absent == ["perfbench_fake:gone", "perfbench_no_such_module:kernel"]
    try:
        fake_module.outer()
        assert fake_module.Child().step() == "base"
    finally:
        t.restore()
    assert (fake_module.outer, fake_module.inner, vars(fake_module.Base)["step"]) == originals
    assert "step" not in vars(fake_module.Child)
    calls, incl, self_s = t.aggregate()["x.outer"]
    # the unwrapped callee's time stays in its caller's self time
    assert calls == 1 and self_s == incl >= 0.03


def test_tracer_self_time_per_thread(fake_module):
    t = Tracer()
    t.install((
        ("x.outer", "perfbench_fake", "outer", None),
        ("x.inner", "perfbench_fake", "inner", None),
    ))
    try:
        worker = threading.Thread(target=fake_module.inner)
        _, wall, root_self = t.root(lambda: (worker.start(), fake_module.outer(), worker.join(5)))
    finally:
        t.restore()
    assert not worker.is_alive()
    agg = t.aggregate()
    assert agg["x.inner"][0] == 2
    outer_calls, outer_incl, outer_self = agg["x.outer"]
    # inner is outer's child in the main thread; in the worker it is nobody's
    assert outer_self < outer_incl - 0.015
    assert root_self == pytest.approx(wall - outer_incl, abs=0.005)


def test_absent_kernels_report_zero_and_are_listed():
    t = Tracer()
    t.absent = ["affectmap._kernels:hidden_forward", "affectmap._kernels:hidden_backward"]
    extra = {"cpu_s": 1.0, "traced_wall_s": 1.0, "untraced_wall_s": 1.0, "root_self_s": 0.0}
    values, absent = tracer.layer_metrics(t, extra)
    assert set(values) == set(LAYER_METRICS)
    assert absent == ["ffnn.dropout_fwd_s", "ffnn.dropout_bwd_s"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-ffnn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == b""

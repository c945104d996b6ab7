"""affectmap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cv-ffnn --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Inputs are generated from the seed into a scratch directory under
``.bench_work/`` in the checkout, which is removed afterwards.

--trace 0 times the CLI as a user runs it, each command in a fresh
process: the workload's ``run`` commands are repeated for ``--seconds``
(at least three times) for ``run_s`` and ``peak_rss_mb``, and
``validate`` runs between the commands, topped up after each one to
``SETUP_SHARE`` of the measured time, for ``setup_s``; medians are
reported. --trace 1 runs the same ``run`` commands in this
process three times (plain, under ``tracer.Tracer``, plain again) and
reports the per-layer metrics.

Every command's outputs are checked (see checks.py) and digested; the
digests must agree across repeats and between the plain and traced runs.
The last line of stdout is the result object; the line before it holds
the environment, digests and per-repeat figures.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy loads here and inherited by every child
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_command, quality_r  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPEATS = 3
# share of the measured time spent on setup samples; interleaved with the
# commands so that both see the same spells of host speed
SETUP_SHARE = 0.2
RUN_LIMIT_S = 170.0  # children still running this long after start are killed
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "quality_r": "r", "ok_frac": "ratio"}


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _argv(workload: Workload, command) -> list[str]:
    return [*command.argv, "--manifest", str(workload.manifest)]


def _run_child(workload: Workload, command, deadline: float) -> tuple[int, float, float]:
    """Run one CLI command in a fresh process: (exit code, wall s, peak RSS MB).
    A child still running at ``deadline`` (perf_counter time) is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "affectmap.cli", *_argv(workload, command)]
    log = workload.manifest.with_name("stderr.log")
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: {command.label} exited {proc.returncode}:\n")
        sys.stderr.write(log.read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Run:
    """Tally of commands attempted and failed, plus their output digests."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}
        self.mismatched = False

    def record(self, command, exit_code: int, tag: str) -> None:
        self.attempted += 1
        digests, problems = check_command(self.workload, command, exit_code)
        key = command.label
        if key in self.digests and self.digests[key] != digests:
            problems.append("outputs differ from the first run of this command")
            self.mismatched = True
        self.digests.setdefault(key, digests)
        if problems:
            self.failed += 1
            self.problems += [f"{tag} {key}: {p}" for p in problems]


def _clear_outputs(workload: Workload) -> None:
    shutil.rmtree(workload.out_dir, ignore_errors=True)


def timed_run(workload: Workload, seconds: float, deadline: float) -> tuple[Run, dict, dict]:
    """Fresh-process timing. The workload's commands are repeated; after
    each command, ``validate`` runs until the setup samples have taken
    ``SETUP_SHARE`` of the measured time, so they spread over the whole
    run like the repeats do."""
    run = Run(workload)
    start = time.perf_counter()
    # the first validate warms the bytecode and file caches; checked, not timed
    code, _, _ = _run_child(workload, workload.setup, deadline)
    run.record(workload.setup, code, "warmup")
    setup, repeats, quality = [], [], []
    run_total = 0.0
    # repeat while another one would end nearer to ``seconds`` than stopping now
    while time.perf_counter() < deadline and (len(repeats) < MIN_REPEATS or (
        time.perf_counter() - start + statistics.median(r["cycle_s"] for r in repeats) / 2
        <= seconds
    )):
        tag = f"repeat{len(repeats)}"
        cycle_start = time.perf_counter()
        _clear_outputs(workload)
        wall, rss = 0.0, 0.0
        for command in workload.commands:
            code, w, r = _run_child(workload, command, deadline)
            run.record(command, code, tag)
            wall += w
            rss = max(rss, r)
            run_total += w
            while (sum(setup) < SETUP_SHARE / (1.0 - SETUP_SHARE) * run_total
                   and time.perf_counter() < deadline):
                code, w, _ = _run_child(workload, workload.setup, deadline)
                run.record(workload.setup, code, tag)
                setup.append(w)
        repeats.append({"wall_s": wall, "peak_rss_mb": rss,
                        "cycle_s": time.perf_counter() - cycle_start})
        quality.append(_quality(workload))
    if not repeats or not setup:
        raise SystemExit(f"perfbench: no repeat finished within {RUN_LIMIT_S:.0f} s")
    if len(set(quality)) != 1:
        run.mismatched = True
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["wall_s"] for r in repeats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "quality_r": quality[0],
    }
    detail = {"setup_s": setup, "repeats": repeats, "quality_r": quality}
    return run, metrics, detail


def _quality(workload: Workload) -> float:
    """quality_r, or 0.0 when the outputs cannot be scored."""
    try:
        q = quality_r(workload)
    except (OSError, ValueError, KeyError, IndexError):
        return 0.0
    return q if np.isfinite(q) else 0.0


def _in_process(workload: Workload, tracer=None) -> tuple[list[int], dict]:
    """Run the workload's commands through affectmap.cli.main in this
    process, each as a root span when traced."""
    from affectmap.cli import main
    from tracer import Tracer

    def call(argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed command, not a lost run
            traceback.print_exc()
            return 70

    root = (tracer or Tracer()).root
    codes, wall, root_self = [], 0.0, 0.0
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    for command in workload.commands:
        code, w, s = root(call, _argv(workload, command))
        codes.append(code)
        wall += w
        root_self += s
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return codes, {"wall_s": wall, "root_self_s": root_self, "cpu_s": cpu}


def traced_run(workload: Workload) -> tuple[Run, dict, dict]:
    """Plain in-process run (warm-up), traced run, plain run again; the
    overhead compares the traced run with the second, equally warm one."""
    from tracer import Tracer, layer_metrics

    sys.path.insert(0, str(SRC))
    run = Run(workload)
    quality = []

    def once(tag, tracer=None):
        _clear_outputs(workload)
        codes, times = _in_process(workload, tracer)
        for command, code in zip(workload.commands, codes):
            run.record(command, code, tag)
        quality.append(_quality(workload))
        return times

    once("warmup")
    tracer = Tracer()
    tracer.install()
    try:
        traced = once("traced", tracer)
    finally:
        tracer.restore()
    untraced = once("untraced")
    if len(set(quality)) != 1:
        run.mismatched = True
    extra = {
        "cpu_s": traced["cpu_s"],
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"],
        "root_self_s": traced["root_self_s"],
    }
    metrics, absent = layer_metrics(tracer, extra)
    detail = {
        "absent_targets": tracer.absent,
        "absent_metrics": absent,
        "hook_errors": tracer.hook_errors,
        "spans": dict(sorted(tracer.aggregate().items())),
        "quality_r": quality,
        **extra,
    }
    return run, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affectmap" / "cli.py").is_file():
        print(f"perfbench: no affectmap sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        t = time.perf_counter()
        workload = generate(args.workload, args.seed, scratch / "inputs")
        generate_s = time.perf_counter() - t
        if args.trace:
            run, metrics, detail = traced_run(workload)
        else:
            run, metrics, detail = timed_run(workload, args.seconds, deadline)
            metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.trace:
        from tracer import LAYER_METRICS

        units = {name: m.unit for name, m in LAYER_METRICS.items()}
    else:
        units = END_TO_END_UNITS
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "generate_s": generate_s,
        "environment": environment(),
        "digests": run.digests,
        "problems": run.problems,
        **detail,
    }
    print(json.dumps({"detail": info}, sort_keys=True))
    result = {
        "correct": run.failed == 0 and not run.mismatched,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

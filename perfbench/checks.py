"""Output checks, digests and the quality score of a workload's outputs.

``check_command`` inspects the files one CLI command left in the output
directory and returns their sha256 digests plus a list of problems; a
command counts as ok only with exit code 0 and no problems. The digests
go into the results, so a change that alters any number is visible.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import BE5_VARS, Command, Workload

__all__ = ["check_command", "quality_r"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_report(path: Path, problems: list[str]) -> None:
    doc = json.loads(path.read_bytes())
    reports = doc.get("reports", [])
    if not reports:
        problems.append(f"{path.name}: no reports")
    for r in reports:
        if not _finite(r.get("format_average_r")):
            problems.append(
                f"{path.name}: {r.get('dataset_id')}/{r.get('direction')}/"
                f"{r.get('model')} has no format_average_r"
            )


def _read_lexicon(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    words = [r[0] for r in rows]
    values = np.array([[float(c) for c in r[1:]] for r in rows]).reshape(len(rows), -1)
    return header, words, values


def _check_lexicon(path: Path, expected_rows: int, problems: list[str]) -> None:
    """BE5 header, sorted unique words, ratings in [1, 5], the expected row
    count, and a build manifest that describes this very file."""
    header, words, values = _read_lexicon(path)
    if header != ["word", *BE5_VARS]:
        problems.append(f"{path.name}: header {header}")
    if len(words) != expected_rows:
        problems.append(f"{path.name}: {len(words)} rows, expected {expected_rows}")
    if any(a >= b for a, b in zip(words, words[1:])):
        problems.append(f"{path.name}: rows are not sorted by word")
    if values.size and not (values.min() >= 1.0 and values.max() <= 5.0):
        problems.append(f"{path.name}: ratings outside [1, 5]")
    build = json.loads(path.with_name(path.name + ".manifest.json").read_bytes())
    if build.get("output_digest") != hashlib.sha256(path.read_bytes()).hexdigest():
        problems.append(f"{path.name}: build manifest digest does not match the file")
    if build.get("new_words") != expected_rows:
        problems.append(f"{path.name}: build manifest counts {build.get('new_words')} words")


def _check_file(path: Path, workload: Workload, problems: list[str]) -> None:
    name = path.name
    if name == "ablation_report.json":
        drops = json.loads(path.read_bytes()).get("drops", {})
        if len(drops) != 3 or not all(_finite(v) for v in drops.values()):
            problems.append(f"{name}: drops {drops}")
    elif name.endswith("_report.json"):
        _check_report(path, problems)
    elif name in workload.truth:
        _check_lexicon(path, len(workload.truth[name][0]), problems)
    elif name == "reliability_normalized.tsv":
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        if not rows or not all(0.0 < float(r.split("\t")[5]) <= 1.0 for r in rows):
            problems.append(f"{name}: normalized_r missing or out of (0, 1]")
    elif name == "validation.txt":
        if any(ln.startswith("error") for ln in path.read_text(encoding="utf-8").splitlines()):
            problems.append(f"{name}: validation reported errors")
    elif name.endswith(".tsv") and not path.read_bytes().strip():
        problems.append(f"{name}: empty")


def check_command(workload: Workload, command: Command, exit_code: int) -> tuple[dict, list[str]]:
    """Digests of the command's outputs and the problems found in them."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    digests = {}
    for name in command.outputs:
        path = workload.out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        try:
            _check_file(path, workload, problems)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as e:
            problems.append(f"{name}: unreadable ({type(e).__name__}: {e})")
    return digests, problems


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xd, yd = x - x.mean(), y - y.mean()
    return float(xd @ yd / math.sqrt((xd @ xd) * (yd @ yd)))


def quality_r(workload: Workload) -> float:
    """Mean r of the workload's outputs against the truth (see README)."""
    if workload.truth:
        rs = []
        for name, (words, true) in workload.truth.items():
            _, got_words, got = _read_lexicon(workload.out_dir / name)
            index = {w: i for i, w in enumerate(words)}
            rows = true[[index[w] for w in got_words]]
            rs += [_pearson(got[:, v], rows[:, v]) for v in range(true.shape[1])]
        return float(np.mean(rs))
    doc = json.loads((workload.out_dir / "monolingual_report.json").read_bytes())
    return float(np.mean([r["format_average_r"] for r in doc["reports"]]))

"""Correlation, reliability, and significance machinery.

Pearson r, the Spearman-Brown adjustment, split-half reliability over
rater matrices, participant-count normalization of published
reliabilities, and the paired two-tailed t-test used to compare models.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ParseError, ValidationError
from .lexicon import _blocks, _byte_stream

__all__ = [
    "pearson",
    "sba_adjust",
    "ReliabilityRecord",
    "normalize_shr",
    "RaterMatrix",
    "split_half_reliability",
    "paired_t_test",
    "format_stars",
    "read_reliability_records",
    "render_reliability_records",
]


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length series.

    Rejects zero-variance inputs instead of returning NaN. The result is
    clamped to [-1, 1] to absorb floating-point overshoot.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ContractError("pearson expects one-dimensional series")
    if x.shape != y.shape:
        raise ContractError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ContractError("pearson needs at least 2 observations")
    # max == min catches constant series exactly; subtracting the mean
    # would leave rounding residue and make them look non-degenerate
    if x.max() == x.min() or y.max() == y.min():
        raise DegenerateInputError("zero variance series has no correlation")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.dot(xd, xd))
    sy = float(np.dot(yd, yd))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance series has no correlation")
    r = float(np.dot(xd, yd)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def sba_adjust(r: float, k: float) -> float:
    """Spearman-Brown reliability adjustment: k*r / (1 + (k-1)*r).

    Predicts the reliability of a measurement k times as long as the one
    that produced r. Only defined for r in (0, 1].
    """
    if not r > 0.0:
        raise ContractError(
            f"reliability must be positive, got {r!r} (the adjustment is "
            "not meaningful for non-positive values)"
        )
    if r > 1.0:
        raise ContractError(f"reliability must not exceed 1, got {r!r}")
    if not k > 0.0:
        raise ContractError(f"length factor must be positive, got {k!r}")
    if r == 1.0:
        # exact fixed point; the formula loses it to cancellation for small k
        return 1.0
    return k * r / (1.0 + (k - 1.0) * r)


@dataclass(frozen=True)
class ReliabilityRecord:
    """A published split-half reliability figure for one dataset variable."""

    dataset_id: str
    variable: str
    reported_r: float
    n_participants: int
    sba_already_applied: bool
    normalized_r: float | None = None

    def __post_init__(self):
        if not 0.0 < self.reported_r <= 1.0:
            raise ValidationError(
                f"reported_r must lie in (0, 1], got {self.reported_r!r}"
            )
        if self.n_participants < 1:
            raise ValidationError(
                f"n_participants must be positive, got {self.n_participants!r}"
            )
        if self.normalized_r is not None and not 0.0 < self.normalized_r <= 1.0:
            raise ValidationError(
                f"normalized_r must lie in (0, 1], got {self.normalized_r!r}"
            )


def normalize_shr(rec: ReliabilityRecord, n_star: int = 20) -> ReliabilityRecord:
    """Project a reported reliability onto a common participant count.

    Ratings averaged over N raters act like a test N times as long as a
    single rater's, so reliabilities from studies with different N are
    not comparable. This rescales to n_star raters: the length factor is
    n_star/N, halved again when the source already applied the
    Spearman-Brown doubling to its split halves.
    """
    if n_star < 1:
        raise ContractError(f"n_star must be positive, got {n_star!r}")
    n = rec.n_participants
    k = n_star / (2.0 * n) if rec.sba_already_applied else n_star / n
    return replace(rec, normalized_r=sba_adjust(rec.reported_r, k))


class RaterMatrix:
    """Per-rater ratings of one variable: items x raters, no missing cells."""

    def __init__(self, items, ratings, scale_low=None, scale_high=None):
        ratings = np.ascontiguousarray(ratings, dtype=np.float64)
        items = tuple(items)
        if ratings.ndim != 2 or ratings.shape[0] != len(items):
            raise ValidationError(
                f"expected ({len(items)}, raters) matrix, got shape {ratings.shape}"
            )
        if ratings.shape[1] < 1:
            raise ValidationError("rater matrix needs at least one rater column")
        if not np.all(np.isfinite(ratings)):
            raise ValidationError("rater matrix has missing or non-finite cells")
        if (scale_low is None) != (scale_high is None):
            raise ValidationError("provide both scale bounds or neither")
        if scale_low is not None:
            if not scale_low < scale_high:
                raise ValidationError("scale_low must be below scale_high")
            if not (np.all(ratings >= scale_low) and np.all(ratings <= scale_high)):
                raise ValidationError(
                    f"ratings fall outside [{scale_low}, {scale_high}]"
                )
        self.items = items
        self.ratings = ratings
        self.ratings.setflags(write=False)
        self.scale_low = scale_low
        self.scale_high = scale_high

    @property
    def n_items(self) -> int:
        return self.ratings.shape[0]

    @property
    def n_raters(self) -> int:
        return self.ratings.shape[1]


def split_half_reliability(m: RaterMatrix, iterations: int = 100, *, seed: int) -> float:
    """Average split-half reliability over random rater partitions.

    Each iteration splits the rater columns into halves of floor(R/2)
    and ceil(R/2), correlates the two half-mean series over items, and
    the results are averaged. Iterations whose halves are degenerate
    (zero variance) are skipped; a warning reports how many were.
    """
    if m.n_raters < 2:
        raise ContractError("split-half reliability needs at least 2 raters")
    if m.n_items < 3:
        raise ContractError("split-half reliability needs at least 3 items")
    if iterations < 1:
        raise ContractError(f"iterations must be positive, got {iterations!r}")
    rng = np.random.default_rng(seed)
    half = m.n_raters // 2
    values = []
    skipped = 0
    for _ in range(iterations):
        perm = rng.permutation(m.n_raters)
        mean_a = m.ratings[:, perm[:half]].mean(axis=1)
        mean_b = m.ratings[:, perm[half:]].mean(axis=1)
        try:
            values.append(pearson(mean_a, mean_b))
        except DegenerateInputError:
            skipped += 1
    if not values:
        raise DegenerateInputError(
            f"all {iterations} split iterations were degenerate"
        )
    if skipped:
        warnings.warn(
            f"{skipped} of {iterations} split iterations degenerate; "
            f"averaged over the remaining {len(values)}",
            stacklevel=2,
        )
    return float(np.mean(values))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b >= 1/2.

    The continued fraction of Numerical Recipes §6.4, by the modified
    Lentz method. It converges fast for x < (a+1)/(a+b+2); above that
    I_x(a, b) = 1 - I_{1-x}(b, a). With b = 1/2, as in the t-test, that
    switch lies at x >= 0.6, where 1 - x is exact.
    """
    if not 0.0 < x < 1.0:
        return 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else math.nan
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, 1.0 - x
    if a + b < 171.0:  # gamma() holds a few ulps; differences of lgamma() would cancel
        front = x**a * math.exp(b * math.log1p(-x)) * math.gamma(a + b)
        front /= a * math.gamma(a) * math.gamma(b)
    else:  # gamma() overflows
        front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                         + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return 1.0 - front * f if flip else front * f


def paired_t_test(a, b) -> tuple[float, float, int]:
    """Paired two-tailed t-test; returns (t, p, stars).

    p comes from the Student-t CDF with n-1 degrees of freedom, evaluated
    through the regularized incomplete beta function. stars encodes the
    significance level: 3/2/1/0 for p < .001/.01/.05 and above.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ContractError("paired_t_test expects one-dimensional series")
    if a.shape != b.shape:
        raise ContractError(f"length mismatch: {a.size} vs {b.size}")
    n = a.size
    if n < 2:
        raise ContractError("paired_t_test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    p = _betainc(df / 2.0, 0.5, df / (df + t * t))
    stars = 3 if p < 0.001 else 2 if p < 0.01 else 1 if p < 0.05 else 0
    return t, p, stars


def format_stars(stars: int) -> str:
    """Render a significance level 0..3 as '', '*', '**' or '***'."""
    if stars not in (0, 1, 2, 3):
        raise ContractError(f"stars must be 0..3, got {stars!r}")
    return "*" * stars


_RELIABILITY_COLUMNS = ("dataset", "variable", "reported_r", "n_participants", "sba_applied")


def read_reliability_records(source: str | Path | IO[bytes]) -> list[ReliabilityRecord]:
    """Read reliability records from TSV.

    Columns: dataset, variable, reported_r, n_participants,
    sba_applied (true|false). A trailing normalized_r column, when
    present, is loaded back as well.
    """
    with _byte_stream(source, "reliability records") as stream:
        lines = [(first + i, ln) for first, block in _blocks(stream)
                 for i, ln in enumerate(block) if ln]  # (file line, text), blank lines skipped
    if not lines:
        raise ParseError("empty reliability file", line=1)
    header = tuple(lines[0][1].split("\t"))
    if header[: len(_RELIABILITY_COLUMNS)] != _RELIABILITY_COLUMNS:
        raise ParseError(
            "header must start with: " + "\t".join(_RELIABILITY_COLUMNS), line=lines[0][0]
        )
    has_normalized = len(header) > 5 and header[5] == "normalized_r"
    records = []
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) < 5:
            raise ParseError(f"expected at least 5 fields, got {len(cells)}", line=lineno)
        flag = cells[4].strip().lower()
        if flag not in ("true", "false"):
            raise ParseError(f"sba_applied must be true or false, got {cells[4]!r}", line=lineno)
        try:
            reported = float(cells[2])
            n = int(cells[3])
            normalized = None
            if has_normalized and len(cells) > 5 and cells[5].strip():
                normalized = float(cells[5])
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None
        try:
            records.append(
                ReliabilityRecord(
                    dataset_id=cells[0].strip(),
                    variable=cells[1].strip(),
                    reported_r=reported,
                    n_participants=n,
                    sba_already_applied=(flag == "true"),
                    normalized_r=normalized,
                )
            )
        except ValidationError as e:
            raise ParseError(str(e), line=lineno) from None
    return records


def render_reliability_records(records: Sequence[ReliabilityRecord]) -> bytes:
    """Records as TSV bytes, with normalized_r appended at 3 decimals."""
    lines = ["\t".join(_RELIABILITY_COLUMNS + ("normalized_r",))]
    for rec in records:
        normalized = "" if rec.normalized_r is None else f"{rec.normalized_r:.3f}"
        sba = "true" if rec.sba_already_applied else "false"
        lines.append("\t".join((rec.dataset_id, rec.variable, repr(rec.reported_r),
                                 str(rec.n_participants), sba, normalized)))
    return ("\n".join(lines) + "\n").encode("utf-8")

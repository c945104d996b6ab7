import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from affectmap.errors import ContractError, DegenerateInputError, ParseError
from affectmap.stats import (
    RaterMatrix,
    ReliabilityRecord,
    format_stars,
    normalize_shr,
    paired_t_test,
    pearson,
    read_reliability_records,
    render_reliability_records,
    sba_adjust,
    split_half_reliability,
)


def pearson_oracle(x, y):
    """Two-pass textbook evaluation in Python floats."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = sum((a - mx) ** 2 for a in x)
    sy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(sx * sy)


def t_two_tailed_oracle(t, df):
    """Two-tailed p by numerical integration of the t density."""

    def density(x):
        c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(density, abs(t), np.inf)
    return 2.0 * tail


finite_series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=3,
    max_size=40,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_hand_example(self):
        # covariance sum 4.0, deviation sums 5.0 each: 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.5 * x
            assert pearson(x, y) == pytest.approx(pearson_oracle(x.tolist(), y.tolist()), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            pearson([1, 2, 3], [4, 4, 4])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ContractError):
            pearson([1], [2])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ContractError):
            pearson([[1, 2], [3, 4]], [[1, 2], [3, 4]])

    def test_never_outside_unit_interval(self):
        # near-collinear data can overshoot 1 in floating point
        x = np.linspace(0, 1, 1000)
        y = 3.0 * x + 1e-16 * np.sin(x)
        assert -1.0 <= pearson(x, y) <= 1.0

    @given(x=finite_series, y=finite_series)
    @settings(max_examples=80, deadline=None)
    def test_invariances(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        xv = np.asarray(x)
        yv = np.asarray(y)
        if xv.var() < 1e-9 or yv.var() < 1e-9:
            return
        r = pearson(xv, yv)
        assert pearson(yv, xv) == pytest.approx(r, abs=1e-12)
        assert pearson(xv + 17.5, yv) == pytest.approx(r, abs=1e-9)
        assert pearson(3.0 * xv, yv) == pytest.approx(r, abs=1e-9)
        assert pearson(-2.0 * xv, yv) == pytest.approx(-r, abs=1e-9)


class TestSbaAdjust:
    def test_fixed_point(self):
        assert sba_adjust(1.0, 3) == 1.0

    def test_doubling(self):
        assert sba_adjust(0.5, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_shrinking(self):
        assert sba_adjust(0.8, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_identity_at_k_one(self):
        for r in (0.1, 0.37, 0.99, 1.0):
            assert sba_adjust(r, 1.0) == pytest.approx(r, abs=1e-15)

    def test_rejects_nonpositive_r(self):
        for bad in (0.0, -0.2):
            with pytest.raises(ContractError):
                sba_adjust(bad, 2.0)

    def test_rejects_r_above_one(self):
        with pytest.raises(ContractError):
            sba_adjust(1.0 + 1e-9, 2.0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ContractError):
            sba_adjust(0.5, 0.0)

    @given(
        r=st.floats(min_value=0.01, max_value=0.99),
        k=st.floats(min_value=0.05, max_value=40.0),
        bump=st.floats(min_value=1e-3, max_value=0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_r_and_k(self, r, k, bump):
        base = sba_adjust(r, k)
        if r + bump * (1.0 - r) <= 1.0:
            assert sba_adjust(r + bump * (1.0 - r), k) > base
        assert sba_adjust(r, k + bump) > base
        assert 0.0 < base <= 1.0


class TestNormalizeShr:
    def test_sba_already_applied(self):
        rec = ReliabilityRecord("ds", "valence", 0.8, 40, True)
        assert normalize_shr(rec, 20).normalized_r == pytest.approx(0.5, abs=1e-15)

    def test_sba_not_applied(self):
        rec = ReliabilityRecord("ds", "valence", 0.7, 10, False)
        assert normalize_shr(rec, 20).normalized_r == pytest.approx(1.4 / 1.7, abs=1e-15)

    def test_perfect_reliability_fixed_point(self):
        for n in (1, 5, 500):
            rec = ReliabilityRecord("ds", "arousal", 1.0, n, False)
            assert normalize_shr(rec).normalized_r == 1.0

    def test_identity_when_n_matches(self):
        rec = ReliabilityRecord("ds", "joy", 0.61, 20, False)
        assert normalize_shr(rec, 20).normalized_r == pytest.approx(0.61, abs=1e-15)

    def test_original_record_untouched(self):
        rec = ReliabilityRecord("ds", "joy", 0.61, 10, False)
        normalize_shr(rec)
        assert rec.normalized_r is None

    def test_record_validation(self):
        with pytest.raises(Exception):
            ReliabilityRecord("ds", "v", 0.0, 10, False)
        with pytest.raises(Exception):
            ReliabilityRecord("ds", "v", 1.2, 10, False)
        with pytest.raises(Exception):
            ReliabilityRecord("ds", "v", 0.5, 0, False)


class TestSplitHalfReliability:
    def test_identical_raters_give_one(self):
        items = [f"w{i}" for i in range(10)]
        col = np.arange(10, dtype=float).reshape(-1, 1)
        m = RaterMatrix(items, np.tile(col, (1, 6)))
        assert split_half_reliability(m, iterations=20, seed=0) == pytest.approx(1.0, abs=1e-12)

    def test_single_rater_rejected(self):
        m = RaterMatrix(["a", "b", "c"], [[1.0], [2.0], [3.0]])
        with pytest.raises(ContractError):
            split_half_reliability(m, seed=0)

    def test_too_few_items_rejected(self):
        m = RaterMatrix(["a", "b"], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ContractError):
            split_half_reliability(m, seed=0)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        m = RaterMatrix([f"w{i}" for i in range(30)], rng.normal(5, 1, size=(30, 9)))
        a = split_half_reliability(m, iterations=50, seed=11)
        b = split_half_reliability(m, iterations=50, seed=11)
        c = split_half_reliability(m, iterations=50, seed=12)
        assert a == b
        assert a != c

    def test_noise_monotonicity(self):
        rng = np.random.default_rng(42)
        truth = rng.uniform(1, 9, size=200)
        values = []
        for sigma in (2.0, 0.5, 0.05):
            noise = rng.normal(0.0, sigma, size=(200, 10))
            m = RaterMatrix([f"w{i}" for i in range(200)], truth[:, None] + noise)
            values.append(split_half_reliability(m, iterations=50, seed=5))
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.99

    def test_matches_analytic_expectation(self):
        # 20 raters split 10/10: both half-mean noise variances sigma^2/10,
        # so E[r] ~= var_item / (var_item + sigma^2/10)
        rng = np.random.default_rng(2024)
        truth = rng.normal(5.0, 1.5, size=200)
        sigma = 2.0
        noise = rng.normal(0.0, sigma, size=(200, 20))
        m = RaterMatrix([f"w{i}" for i in range(200)], truth[:, None] + noise)
        got = split_half_reliability(m, iterations=100, seed=9)
        expected = truth.var() / (truth.var() + sigma * sigma / 10.0)
        assert got == pytest.approx(expected, abs=0.05)

    def test_all_degenerate_rejected(self):
        m = RaterMatrix(["a", "b", "c"], np.full((3, 4), 2.5))
        with pytest.raises(DegenerateInputError):
            split_half_reliability(m, iterations=5, seed=0)

    def test_rater_matrix_validation(self):
        with pytest.raises(Exception):
            RaterMatrix(["a"], [[1.0, np.nan]])
        with pytest.raises(Exception):
            RaterMatrix(["a", "b"], [[1.0, 2.0]])
        with pytest.raises(Exception):
            RaterMatrix(["a"], [[0.5, 2.0]], scale_low=1, scale_high=9)


class TestPairedTTest:
    def test_hand_example(self):
        # d = (1,2,3): mean 2, sd 1, t = 2*sqrt(3)
        t, p, stars = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert p == pytest.approx(t_two_tailed_oracle(t, 2), abs=1e-6)
        assert p == pytest.approx(0.0742, abs=5e-4)
        assert stars == 0

    def test_oracle_cross_check(self):
        a = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.2])
        t, p, _ = paired_t_test(a, np.zeros(6))
        assert p == pytest.approx(t_two_tailed_oracle(t, 5), abs=1e-6)

    def test_oracle_across_sizes(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 12, 40):
            a = rng.normal(0.3, 1.0, size=n)
            b = rng.normal(0.0, 1.0, size=n)
            t, p, _ = paired_t_test(a, b)
            assert p == pytest.approx(t_two_tailed_oracle(t, n - 1), abs=1e-6)

    def test_equal_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_shift_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_antisymmetry(self):
        a = [0.84, 0.80, 0.86, 0.83]
        b = [0.80, 0.79, 0.81, 0.84]
        ta, pa, _ = paired_t_test(a, b)
        tb, pb, _ = paired_t_test(b, a)
        assert ta == -tb
        assert pa == pb

    def test_star_thresholds(self):
        # constant difference plus a tiny wiggle drives p down as n grows
        def p_of(n, delta):
            rng = np.random.default_rng(1)
            d = delta + rng.normal(0, 0.01 * delta, size=n)
            return paired_t_test(d, np.zeros(n))

        _, p, s = p_of(3, 1.0)
        assert s == (3 if p < 0.001 else 2 if p < 0.01 else 1 if p < 0.05 else 0)
        _, p, s = p_of(50, 1.0)
        assert p < 0.001 and s == 3

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_single_pair_rejected(self):
        with pytest.raises(ContractError):
            paired_t_test([1.0], [2.0])


class TestStudentTail:
    """The two-tailed p is I_x(df/2, 1/2) at x = df/(df + t^2); the
    math-only incomplete beta is held to scipy's as a test-only oracle."""

    T_GRID = np.concatenate([[0.0], np.logspace(-8, 4, 161), np.linspace(0.25, 10.0, 40)])

    @staticmethod
    def _stars(p):
        return 3 if p < 0.001 else 2 if p < 0.01 else 1 if p < 0.05 else 0

    @pytest.mark.parametrize("dfs, rtol", [(range(1, 201), 1e-12), (range(341, 1001, 37), 1e-11)],
                             ids=["df-1-200", "df-341-1000"])
    def test_matches_scipy_betainc(self, dfs, rtol):
        from scipy.special import betainc

        from affectmap import stats

        for df in dfs:
            x = df / (df + self.T_GRID * self.T_GRID)
            for xi, ref in zip(x, betainc(df / 2.0, 0.5, x)):
                if ref < 1e-290:
                    continue
                got = stats._betainc(df / 2.0, 0.5, float(xi))
                assert abs(got - ref) <= rtol * ref, (df, xi)
                assert self._stars(got) == self._stars(ref), (df, xi)

    def test_edges(self):
        from affectmap import stats

        assert stats._betainc(2.5, 0.5, 1.0) == 1.0
        assert stats._betainc(2.5, 0.5, 0.0) == 0.0
        assert math.isnan(stats._betainc(2.5, 0.5, math.nan))


class TestFormatStars:
    def test_rendering(self):
        assert format_stars(0) == ""
        assert format_stars(1) == "*"
        assert format_stars(2) == "**"
        assert format_stars(3) == "***"

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            format_stars(4)
        with pytest.raises(ContractError):
            format_stars(-1)


class TestReliabilityIo:
    RECORDS = [
        ReliabilityRecord("en_1", "valence", 0.952, 63, True),
        ReliabilityRecord("es_1", "joy", 0.7, 10, False),
    ]

    def test_round_trip(self):
        recs = [normalize_shr(r) for r in self.RECORDS]
        back = read_reliability_records(io.BytesIO(render_reliability_records(recs)))
        assert len(back) == 2
        assert back[0].dataset_id == "en_1"
        assert back[0].reported_r == 0.952
        assert back[0].sba_already_applied is True
        assert back[1].sba_already_applied is False
        # normalized column re-read at its 3-decimal precision
        assert back[1].normalized_r == pytest.approx(recs[1].normalized_r, abs=5e-4)

    def test_normalized_column_formatting(self):
        text = render_reliability_records([normalize_shr(self.RECORDS[1])]).decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "dataset",
            "variable",
            "reported_r",
            "n_participants",
            "sba_applied",
            "normalized_r",
        ]
        assert lines[1].split("\t")[5] == "0.824"

    def test_read_without_normalized(self):
        data = (
            b"dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
            b"d1\tvalence\t0.9\t40\ttrue\n"
        )
        recs = read_reliability_records(io.BytesIO(data))
        assert recs[0].normalized_r is None

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_reliability_records(io.BytesIO(b"a\tb\tc\td\te\n"))

    def test_bad_flag(self):
        data = (
            b"dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
            b"d1\tvalence\t0.9\t40\tyes\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            read_reliability_records(io.BytesIO(data))

    def test_bad_number(self):
        data = (
            b"dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
            b"d1\tvalence\tx\t40\ttrue\n"
        )
        with pytest.raises(ParseError):
            read_reliability_records(io.BytesIO(data))
        data = (
            b"dataset\tvariable\treported_r\tn_participants\tsba_applied\tnormalized_r\n"
            b"d1\tvalence\t0.9\t40\ttrue\t0.8\n"
            b"d1\tarousal\t0.9\t40\ttrue\tx\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            read_reliability_records(io.BytesIO(data))

    def test_out_of_range_value(self):
        data = (
            b"dataset\tvariable\treported_r\tn_participants\tsba_applied\n"
            b"d1\tvalence\t1.5\t40\ttrue\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            read_reliability_records(io.BytesIO(data))

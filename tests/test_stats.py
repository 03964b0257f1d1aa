import numpy as np
import pytest

from ccspnet import fixtures, stats
from ccspnet.errors import NumericalError

from oracles import anova_f_range, f_sf_quadrature, student_t_sf_quadrature


def paired_at(t, df):
    """Two vectors of df + 1 pairs whose paired t-test gives about t."""
    z = np.resize([1.0, -1.0, 2.0, -2.0], df + 1)
    z = (z - z.mean()) / z.std(ddof=1)
    return t / np.sqrt(df + 1) + z, np.zeros(df + 1)


def unpaired_at(t, df):
    """Group summaries (m1, s1, n1, m2, s2, n2) whose unpaired t-test gives
    about t with df degrees of freedom."""
    n1 = (df + 2) // 2
    n2 = df + 2 - n1
    return t * np.sqrt(1 / n1 + 1 / n2), 1.0, n1, 0.0, 1.0, n2


def anova_at(f, d1, d2):
    """d1 + 1 groups of d1 + d2 + 1 values in all, each with sd 1, so the
    within-group mean square is 1, whose one-way ANOVA gives about F = f."""
    k, total = d1 + 1, d1 + d2 + 1
    sizes = np.array([total // k + (i < total % k) for i in range(k)])
    means = np.arange(k, dtype=np.float64)
    between = sizes @ (means - means @ sizes / total) ** 2
    return [(m, 1.0, n) for m, n in zip(means * np.sqrt(f * d1 / between), sizes)]


class TestTailProbabilities:
    """The p-values of the three tests against the quadrature oracles."""

    @pytest.mark.parametrize("t,df", [(0.5, 5), (1.7679, 106), (2.6621, 106),
                                      (3.2, 20), (0.0, 10)])
    def test_t_sf_matches_quadrature(self, t, df):
        for sign in (1.0, -1.0):
            t_out, p = stats.unpaired_t_from_summary(*unpaired_at(sign * t, df))
            assert t_out == pytest.approx(sign * t)
            assert p == pytest.approx(student_t_sf_quadrature(t_out, df), abs=1e-6)
            _, p = stats.unpaired_t_from_summary(*unpaired_at(sign * t, df), tail="two")
            assert p == pytest.approx(2 * student_t_sf_quadrature(abs(t_out), df), abs=1e-6)
            t_out, p = stats.paired_t(*paired_at(sign * t, df), tail="one")
            assert t_out == pytest.approx(sign * t, abs=1e-9)
            assert p == pytest.approx(student_t_sf_quadrature(t_out, df), abs=1e-6)

    def test_t_sf_negative_argument_symmetry(self):
        _, p_minus = stats.unpaired_t_from_summary(*unpaired_at(-1.3, 8))
        _, p_plus = stats.unpaired_t_from_summary(*unpaired_at(1.3, 8))
        assert p_minus == pytest.approx(1.0 - p_plus, abs=1e-12)

    @pytest.mark.parametrize("f,d1,d2", [(1.6945, 8, 477), (2.97, 5, 318),
                                         (1.0, 3, 10), (4.2, 2, 40)])
    def test_f_sf_matches_quadrature(self, f, d1, d2):
        f_out, p, dfb, dfw = stats.anova_from_summary(anova_at(f, d1, d2))
        assert (dfb, dfw) == (d1, d2)
        assert f_out == pytest.approx(f)
        assert p == pytest.approx(f_sf_quadrature(f_out, d1, d2), abs=1e-6)

    def test_f_sf_at_zero_is_one(self):
        assert stats.anova_from_summary(anova_at(0.0, 4, 30))[:2] == (0.0, 1.0)

    @pytest.mark.parametrize("tail", ["both", "One", ""])
    def test_unknown_tail_rejected(self, tail):
        with pytest.raises(NumericalError, match="tail must be 'one' or 'two'"):
            stats.paired_t([1.0, 2.0, 4.0], [0.0, 1.0, 1.0], tail=tail)
        with pytest.raises(NumericalError, match="tail must be 'one' or 'two'"):
            stats.unpaired_t_from_summary(74, 16, 54, 68, 17, 54, tail=tail)


class TestPairedT:
    def test_identical_vectors_convention(self):
        a = np.array([1.0, 2.0, 3.0])
        assert stats.paired_t(a, a.copy()) == (0.0, 1.0)

    def test_constant_nonzero_difference_rejected(self):
        with pytest.raises(NumericalError):
            stats.paired_t(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))

    def test_hand_computed_example(self):
        a = np.array([3.0, 4.0, 5.0, 7.0])
        b = np.array([1.0, 2.0, 4.0, 4.0])
        d = a - b
        t_expected = d.mean() / (d.std(ddof=1) / 2.0)
        t, p = stats.paired_t(a, b)
        assert t == pytest.approx(t_expected)
        assert p == pytest.approx(2 * student_t_sf_quadrature(abs(t), 3), abs=1e-6)

    def test_subject_fixture_sd_vs_si(self):
        # published two-decimal value is 0.45; the printed integer accuracies
        # give a one-sided p of 0.4702, i.e. 0.47 at report precision
        t, p = stats.paired_t(fixtures.SUBJECT_ACCURACY_SD,
                              fixtures.SUBJECT_ACCURACY_SI, tail="one")
        assert t == pytest.approx(0.0751, abs=1e-4)
        assert round(p, 2) == pytest.approx(0.45, abs=0.02)

    def test_identical_vectors_one_sided(self):
        a = np.array([1.0, 2.0, 3.0])
        assert stats.paired_t(a, a.copy(), tail="one") == (0.0, 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(NumericalError):
            stats.paired_t(np.zeros(3), np.zeros(4))


class TestUnpairedTFromSummary:
    def test_reference_csp_row(self):
        t, p = stats.unpaired_t_from_summary(74.41, 16.75, 54, 68.57, 17.57, 54)
        assert t == pytest.approx(1.7679, abs=0.001)
        assert p == pytest.approx(0.0400, abs=0.002)

    def test_reference_eegnet_row(self):
        t, p = stats.unpaired_t_from_summary(74.41, 16.75, 54, 65.31, 18.72, 54)
        assert t == pytest.approx(2.6621, abs=0.001)
        assert p == pytest.approx(0.0045, abs=0.002)

    def test_identical_groups(self):
        assert stats.unpaired_t_from_summary(70, 10, 54, 70, 10, 54)[0] == 0.0
        assert stats.unpaired_t_from_summary(70, 10, 54, 70, 10, 54)[1] == 0.5

    def test_two_sided_doubles_one_sided(self):
        t1, p1 = stats.unpaired_t_from_summary(74, 16, 54, 68, 17, 54, tail="one")
        t2, p2 = stats.unpaired_t_from_summary(74, 16, 54, 68, 17, 54, tail="two")
        assert t1 == t2
        assert p2 == pytest.approx(2 * p1)

    def test_small_group_rejected(self):
        with pytest.raises(NumericalError):
            stats.unpaired_t_from_summary(1, 1, 1, 2, 1, 5)


class TestAnovaFromSummary:
    def test_reference_sd_table(self):
        # the printed rows give F = 1.7060, p = 0.0945; the published pair
        # (1.6945, 0.0972) cannot come from them (TestSdAnovaInconsistency)
        f, p, dfb, dfw = stats.anova_from_summary(
            fixtures.SD_METHOD_SUMMARIES.values())
        assert (dfb, dfw) == (8, 477)
        assert f == pytest.approx(1.7060, abs=1e-4)
        assert p == pytest.approx(f_sf_quadrature(f, 8, 477), abs=1e-6)

    def test_reference_si_table(self):
        f, p, dfb, dfw = stats.anova_from_summary(
            fixtures.SI_METHOD_SUMMARIES.values())
        assert (dfb, dfw) == (5, 318)
        assert f == pytest.approx(2.9700, abs=0.005)
        assert p == pytest.approx(0.0123, abs=0.02)

    def test_identical_groups_give_zero_f(self):
        f, p, _, _ = stats.anova_from_summary([(70, 10, 54)] * 4)
        assert f == 0.0
        assert p == 1.0

    def test_two_group_anova_equals_t_squared(self):
        # textbook identity with pooled-variance t; use equal n and equal sd
        m1, s, n, m2 = 74.0, 16.0, 54, 68.0
        f, _, dfb, dfw = stats.anova_from_summary([(m1, s, n), (m2, s, n)])
        t, _ = stats.unpaired_t_from_summary(m1, s, n, m2, s, n)
        assert f == pytest.approx(t ** 2, abs=1e-9)
        assert (dfb, dfw) == (1, 2 * n - 2)

    def test_zero_within_variance_rejected(self):
        with pytest.raises(NumericalError):
            stats.anova_from_summary([(1, 0, 5), (2, 0, 5)])


class TestSdAnovaInconsistency:
    """The published SD ANOVA (F=1.6945, p=0.0972) against the printed table."""

    ROWS = list(fixtures.SD_METHOD_SUMMARIES.items())

    def test_f_range_contains_tables_within_rounding(self):
        rows = [row for _, row in self.ROWS]
        f_lo, f_hi = anova_f_range(rows, 0.005)
        rng = np.random.default_rng(0)
        for _ in range(200):
            shifts = rng.uniform(-0.005, 0.005, size=(len(rows), 2))
            f, _, _, _ = stats.anova_from_summary(
                [(m + dm, s + ds, n) for (m, s, n), (dm, ds) in
                 zip(rows, shifts)])
            assert f_lo <= f <= f_hi

    def test_rounding_cannot_reach_published_f(self):
        f_lo, f_hi = anova_f_range(fixtures.SD_METHOD_SUMMARIES.values(),
                                   0.005)
        assert f_lo == pytest.approx(1.7003, abs=1e-4)
        assert f_hi == pytest.approx(1.7118, abs=1e-4)
        assert not f_lo <= 1.6945 <= f_hi

    def test_hypothesis_csp_mean_transposed(self):
        # A hypothesis, not confirmed by the paper's text: of all single-digit
        # substitutions and adjacent-digit swaps of the 18 printed numbers,
        # only the CSP mean 68.57 -> 68.75 gives the published pair at 4
        # decimals. The evidence is weak: with the degrees of freedom fixed, p
        # falls as F grows, so the p figure only narrows the F window
        # (Molla et al. sd 15.85 also gives F=1.6945, with p=0.0973).
        def edits(text):
            for i, ch in enumerate(text):
                if ch.isdigit():
                    for d in "0123456789":
                        if d != ch:
                            yield text[:i] + d + text[i + 1:]
            for i in range(len(text) - 1):
                a, b = text[i], text[i + 1]
                if a.isdigit() and b.isdigit() and a != b:
                    yield text[:i] + b + a + text[i + 2:]

        matches = set()
        for name, row in self.ROWS:
            for column in (0, 1):
                for text in set(edits(f"{row[column]:.2f}")):
                    edited = list(row)
                    edited[column] = float(text)
                    groups = {**fixtures.SD_METHOD_SUMMARIES,
                              name: tuple(edited)}
                    f, p, _, _ = stats.anova_from_summary(groups.values())
                    if (round(f, 4), round(p, 4)) == (1.6945, 0.0972):
                        matches.add((name, column, text))
        assert matches == {("CSP", 0, "68.75")}

    def test_transposed_csp_mean_misses_published_t_test(self):
        # the published CSP t-test (1.7679, 0.0400) needs the printed 68.57
        # (68.75 gives t=1.713), so the hypothesis above would put the typo in
        # the ANOVA, not in the table
        _, sd, n = fixtures.SD_METHOD_SUMMARIES["CSP"]
        t, p = stats.unpaired_t_from_summary(
            *fixtures.SD_METHOD_SUMMARIES["CCSPNet"], 68.75, sd, n)
        assert abs(t - 1.7679) > 0.001


class TestSummarize:
    def test_subject_fixture_sd_column(self):
        mean, sd, median, (width, lo, hi) = stats.summarize(
            fixtures.SUBJECT_ACCURACY_SD)
        assert round(mean, 2) == 74.41
        assert round(sd, 2) == 16.75
        assert median == 68.5
        assert (width, lo, hi) == (53, 47, 100)

    def test_subject_fixture_si_column(self):
        mean, sd, median, (width, lo, hi) = stats.summarize(
            fixtures.SUBJECT_ACCURACY_SI)
        assert round(mean, 2) == 74.28
        assert round(sd, 2) == 16.12
        assert median == 73
        assert (width, lo, hi) == (51, 49, 100)

    def test_single_value_convention(self):
        assert stats.summarize([7.0]) == (7.0, 0.0, 7.0, (0.0, 7.0, 7.0))

    def test_even_n_median_averaging(self):
        assert stats.summarize([1.0, 2.0, 3.0, 10.0])[2] == 2.5


class TestReferenceReport:
    def test_contains_reference_rows(self):
        report = stats.reference_report()
        assert "t=1.7679" in report
        assert "t=2.6621" in report
        assert "F(8,477)=" in report
        assert "F(5,318)=2.9700" in report
        assert "paired t-test SD vs SI" in report
        assert "mean=74.41" in report and "mean=74.28" in report

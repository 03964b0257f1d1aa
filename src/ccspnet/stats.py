"""Statistical tests for accuracy comparisons.

Paired t-test on raw per-subject values, unpaired t-test and one-way ANOVA
from summary statistics (mean, sd, n), and the descriptive summary used for
per-subject accuracy tables. Tail probabilities are scipy's t and F survival
functions.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import f as f_distribution
from scipy.stats import t as t_distribution

from . import fixtures
from .errors import NumericalError


def _t_p_value(t: float, df: int, tail: str) -> float:
    """P(T > t) for a one-sided `tail`, P(|T| > |t|) for a two-sided one."""
    if tail == "one":
        return float(t_distribution.sf(t, df))
    if tail == "two":
        return float(2.0 * t_distribution.sf(abs(t), df))
    raise NumericalError(f"tail must be 'one' or 'two', got {tail!r}")


def paired_t(a, b, tail: str = "two") -> tuple[float, float]:
    """Classic paired t-test; returns (t, p), two-sided by default."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise NumericalError("paired t-test needs two equal-length vectors")
    n = len(a)
    if n < 2:
        raise NumericalError("paired t-test needs at least 2 pairs")
    d = a - b
    if np.array_equal(a, b):
        return 0.0, _t_p_value(0.0, n - 1, tail)
    sd = d.std(ddof=1)
    if sd == 0:
        raise NumericalError("zero variance of paired differences")
    t = float(d.mean() / (sd / np.sqrt(n)))
    return t, _t_p_value(t, n - 1, tail)


def unpaired_t_from_summary(m1, s1, n1, m2, s2, n2,
                            tail: str = "one") -> tuple[float, float]:
    """Two-sample t-test from group summaries with df = n1 + n2 - 2.

    Uses the unpooled standard error t = (m1 - m2) / sqrt(s1^2/n1 + s2^2/n2).
    `tail` selects a one-sided (default) or two-sided p-value.
    """
    if n1 < 2 or n2 < 2:
        raise NumericalError("each group needs n >= 2")
    se = np.sqrt(s1 ** 2 / n1 + s2 ** 2 / n2)
    df = n1 + n2 - 2
    if se == 0:
        if m1 == m2:
            return 0.0, _t_p_value(0.0, df, tail)
        raise NumericalError("zero combined variance with unequal means")
    t = float((m1 - m2) / se)
    return t, _t_p_value(t, df, tail)


def anova_from_summary(groups) -> tuple[float, float, int, int]:
    """One-way ANOVA from (mean, sd, n) triples.

    Returns (F, p, df_between, df_within).
    """
    groups = [(float(m), float(s), int(n)) for m, s, n in groups]
    if len(groups) < 2:
        raise NumericalError("ANOVA needs at least 2 groups")
    for m, s, n in groups:
        if n < 2:
            raise NumericalError("each group needs n >= 2")
        if s < 0:
            raise NumericalError("negative standard deviation")
    total_n = sum(n for _, _, n in groups)
    grand = sum(m * n for m, _, n in groups) / total_n
    ss_between = sum(n * (m - grand) ** 2 for m, _, n in groups)
    ss_within = sum((n - 1) * s ** 2 for _, s, n in groups)
    df_between = len(groups) - 1
    df_within = total_n - len(groups)
    if ss_within == 0:
        if ss_between == 0:
            return 0.0, 1.0, df_between, df_within
        raise NumericalError("zero within-group sum of squares")
    f = float((ss_between / df_between) / (ss_within / df_within))
    return f, float(f_distribution.sf(f, df_between, df_within)), df_between, df_within


def summarize(values) -> tuple[float, float, float, tuple[float, float, float]]:
    """(mean, sample sd, median, (range width, min, max)) of a value vector."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise NumericalError("summarize needs at least one value")
    if values.size == 1:
        v = float(values[0])
        return v, 0.0, v, (0.0, v, v)
    lo, hi = float(values.min()), float(values.max())
    return (float(values.mean()), float(values.std(ddof=1)),
            float(np.median(values)), (hi - lo, lo, hi))


def summary_line(values) -> str:
    """`summarize(values)` as one line: mean, sd, median and range."""
    mean, sd, median, (width, lo, hi) = summarize(values)
    return f"mean={mean:.2f} sd={sd:.2f} median={median:g} range={width:g} ({lo:g}-{hi:g})"


def reference_report() -> str:
    """Reproduce the published comparison table from the embedded fixtures."""
    lines = ["unpaired t-tests vs CCSPNet (one-sided, df = 106)"]
    for protocol, summaries in (("SD", fixtures.SD_METHOD_SUMMARIES),
                                ("SI", fixtures.SI_METHOD_SUMMARIES)):
        ours = summaries["CCSPNet"]
        for name, (m, s, n) in summaries.items():
            if name == "CCSPNet":
                continue
            t, p = unpaired_t_from_summary(ours[0], ours[1], ours[2], m, s, n)
            lines.append(f"  {protocol} CCSPNet vs {name}: t={t:.4f} p={p:.4f}")
    for protocol, summaries in (("SD", fixtures.SD_METHOD_SUMMARIES),
                                ("SI", fixtures.SI_METHOD_SUMMARIES)):
        f, p, dfb, dfw = anova_from_summary(summaries.values())
        lines.append(f"one-way ANOVA {protocol}: F({dfb},{dfw})={f:.4f} p={p:.4f}")
    t, p = paired_t(fixtures.SUBJECT_ACCURACY_SD, fixtures.SUBJECT_ACCURACY_SI,
                    tail="one")
    lines.append(f"paired t-test SD vs SI per subject (one-sided): "
                 f"t={t:.4f} p={p:.2f}")
    for column, values in (("SD", fixtures.SUBJECT_ACCURACY_SD),
                           ("SI", fixtures.SUBJECT_ACCURACY_SI)):
        lines.append(f"per-subject {column}: {summary_line(values)}")
    return "\n".join(lines)

"""Chi-square checks used by the self-test suite and the test harness."""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc  # chdtrc(df, x) is chi2.sf(x, df), without loading scipy.stats


def chi_square_gof(observed: np.ndarray, expected_probs: np.ndarray) -> tuple[float, float]:
    """Goodness-of-fit statistic and p-value against given cell probabilities.

    Cells with zero expected probability must also be unobserved.
    """
    observed = np.asarray(observed, dtype=np.float64)
    expected_probs = np.asarray(expected_probs, dtype=np.float64)
    if observed.shape != expected_probs.shape:
        raise ValueError("observed and expected_probs must align")
    total = observed.sum()
    if total <= 0:
        raise ValueError("no observations")
    if not np.isclose(expected_probs.sum(), 1.0, atol=1e-9):
        raise ValueError("expected_probs must sum to 1")
    zero = expected_probs == 0
    if np.any(observed[zero] > 0):
        raise ValueError("observed counts in zero-probability cells")
    expected = expected_probs[~zero] * total
    stat = float((((observed[~zero] - expected) ** 2) / expected).sum())
    df = expected.size - 1
    return stat, float(chdtrc(df, stat))


def chi_square_two_sample(
    counts_a: np.ndarray, counts_b: np.ndarray
) -> tuple[float, float]:
    """Homogeneity test between two histograms over the same cells.

    Cells empty in both samples are dropped; degrees of freedom are the
    kept cells minus one.
    """
    counts_a = np.asarray(counts_a, dtype=np.float64)
    counts_b = np.asarray(counts_b, dtype=np.float64)
    if counts_a.shape != counts_b.shape:
        raise ValueError("histograms must share their cells")
    if counts_a.sum() == 0 or counts_b.sum() == 0:
        raise ValueError("both samples need observations")
    keep = (counts_a + counts_b) > 0
    counts_a = counts_a[keep]
    counts_b = counts_b[keep]
    if counts_a.size < 2:
        raise ValueError("need at least two occupied cells")
    grand = counts_a.sum() + counts_b.sum()
    stat = 0.0
    for row in (counts_a, counts_b):
        row_total = row.sum()
        expected = row_total * (counts_a + counts_b) / grand
        stat += float((((row - expected) ** 2) / expected).sum())
    df = counts_a.size - 1
    return stat, float(chdtrc(df, stat))


def raw_count_histogram(raw_counts: np.ndarray, max_value: int) -> np.ndarray:
    """Occurrences of each value 0..max_value."""
    raw_counts = np.asarray(raw_counts, dtype=np.int64)
    if raw_counts.min() < 0 or raw_counts.max() > max_value:
        raise ValueError(f"raw counts outside 0..{max_value}")
    return np.bincount(raw_counts, minlength=max_value + 1)

"""Output checks for one ``assess`` call.

Each check returns problem codes; an empty list means the call passed. The
checks use only the sample's tuple results, the report and the replication
estimates, and compute z with the standard library rather than the program.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Sequence

import numpy as np

# Replication means stray from the point estimate by about se_b/sqrt(B); five
# of those is a bound a correct engine breaks with probability below 1e-6.
CENTRING_SIGMAS = 5.0
_REL_TOL = 1e-9


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(scale))


def reachable_range(aggregate: str, values: Sequence[int], f: float) -> tuple[float, float]:
    """Smallest and largest estimate any resample of ``values`` can produce."""
    lo, hi = min(values), max(values)
    if aggregate == "AVG":
        return 0.0, float(hi)
    n = len(values)
    return n * lo / f, n * hi / f


def check_replications(sample, estimates: np.ndarray, B: int) -> list[str]:
    """Checks that hold for any replication set: its size and its range."""
    problems = []
    if len(estimates) != B:
        problems.append("wrong_B")
    lo, hi = reachable_range(sample.aggregate, sample.values, sample.f)
    if len(estimates) and (
        estimates.min() < lo - _REL_TOL * max(1.0, hi)
        or estimates.max() > hi + _REL_TOL * max(1.0, hi)
    ):
        problems.append("out_of_range")
    return problems


def expected_point(sample) -> float:
    """Point estimate the sample implies: sum/f for COUNT and SUM, sum/matches for AVG."""
    total = sum(sample.values)
    if sample.aggregate == "AVG":
        return total / sample.match_count
    return total / sample.f


def check_call(sample, report, estimates: np.ndarray, B: int) -> list[str]:
    """All checks on one call: the replication set, the point estimate, se_b
    and the interval. ``sample`` is the SampleResults the call worked on;
    the point-estimate check ties the other checks to that sample.
    """
    problems = check_replications(sample, estimates, B)
    point = report.point_estimate
    if not _close(point, expected_point(sample), point):
        problems.append("point_mismatch")
    se = report.se_b
    if not (math.isfinite(se) and se >= 0):
        problems.append("se_invalid")
        return problems
    if len(estimates) and abs(float(estimates.mean()) - point) > (
        CENTRING_SIGMAS * se / math.sqrt(len(estimates))
    ):
        problems.append("off_centre")
    z = NormalDist().inv_cdf(1.0 - report.alpha)
    if not (
        _close(report.ci_lower, point - z * se, point)
        and _close(report.ci_upper, point + z * se, point)
    ):
        problems.append("interval_mismatch")
    return problems

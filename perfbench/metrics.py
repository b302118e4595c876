"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

import numpy as np

__all__ = [
    "TAIL_LADDER",
    "METRIC_NAME",
    "UNIT_NAME",
    "beyond_count",
    "tail_percentile",
    "tail_value",
    "median",
]

#: Candidate tail percentiles, highest first.  A timing's tail is reported
#: at the highest of these that still leaves at least ten samples beyond it.
#: The rungs are coarse on purpose: every workload's sample count sits well
#: inside one rung, so a run with a few more or fewer samples reports the
#: same percentile and the metric keeps its meaning from run to run.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

#: Allowed metric names and units (the benchmark contract's charsets).
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def beyond_count(n: int, percentile: float) -> int:
    """Samples strictly above rank ``ceil(n * p / 100)`` of ``n`` sorted ones."""
    return n - math.ceil(n * percentile / 100.0 - 1e-9)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median leaves fewer than ten (n < 20).
    """
    for percentile in TAIL_LADDER:
        if beyond_count(n, percentile) >= MIN_BEYOND:
            return percentile
    return None


def tail_value(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail rule over ``values``.

    Falls back to the maximum (percentile 100) for fewer than 20 samples, so
    a short run still reports a number; the envelope names the percentile.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    percentile = tail_percentile(n)
    if percentile is None:
        return 100.0, float(max(values))
    return percentile, float(np.percentile(np.asarray(values, dtype=np.float64), percentile, method="linear"))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


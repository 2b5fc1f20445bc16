"""The two small pieces of arithmetic every halobench number goes through."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple


def two_point_fit(
    short: float, long: float, t_short: int, t_long: int
) -> Tuple[float, float]:
    """``(per-step slope, per-run intercept)`` of a cost linear in steps.

    A run of *T* steps costs ``intercept + slope * T``; *short* and *long*
    are that cost measured at *t_short* and *t_long* steps.
    """
    slope = (long - short) / (t_long - t_short)
    return slope, short - slope * t_short


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, never extrapolated."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def first_quartile(values: Sequence[float]) -> float:
    """The level a quarter of the samples beat: halobench's run time.

    Interference on a shared host only ever adds time -- measured here as
    whole phases of seconds in which every run is 1.1x to 1.7x slower,
    and allocation spikes on the 64^3 geometry -- so the median of a
    20-40 s run moves with the host, while the lower quartile repeats.
    """
    return quartiles(values)[0]


def summary(
    values: Sequence[float], unit: str, value: Optional[float] = None
) -> Dict[str, object]:
    """A timing's reported value with its median, quartiles and count.

    The value is the first quartile unless *value* gives it (``step_ms``,
    a fit through two first quartiles, whose *values* are per-round fits).
    """
    q1, median, q3 = quartiles(values)
    return {
        "value": q1 if value is None else value,
        "unit": unit,
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
    }

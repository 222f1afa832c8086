"""Sliding-window id assignment (paper Section 7).

WITHIN ``size`` SLIDE ``slide`` partitions the unbounded stream into
overlapping windows; window ``k`` spans ``[k*slide, k*slide + size)``.
An event at time ``t`` falls into ``size/slide`` consecutive windows
[Li et al., SIGMOD'05]. The batch and the streaming runner both cut each
group's time-ordered events into one contiguous slice per window
(``window_slices``) instead of copying an event into every window that
covers it. ``with_window_ids`` still does that copy, one row per (event,
window id *wid*), for the benchmark's fan-out count only.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.query import WindowSpec


def wid_sequence_expr(window: WindowSpec, time_col: str) -> Column:
    """Array column of the window ids covering ``time_col``.

    wid range: max(0, floor((t - size)/slide) + 1) .. floor(t/slide),
    matching :meth:`repro.core.query.WindowSpec.wids_for`; empty when the
    upper end is below the lower one (a negative time), where Spark's
    ``sequence`` would count down.
    """
    t = F.col(time_col)
    lo = F.greatest(
        F.lit(0),
        (F.floor((t - F.lit(window.size)) / F.lit(window.slide)) + F.lit(1)),
    )
    hi = F.floor(t / F.lit(window.slide))
    return F.when(hi >= lo, F.sequence(lo.cast("long"), hi.cast("long"))).otherwise(
        F.array().cast("array<long>")
    )


def with_window_ids(
    df: DataFrame, window: WindowSpec | None, time_col: str
) -> DataFrame:
    """Explode each event into one row per covering window (column ``wid``).

    With no window clause the whole stream is a single window (wid 0).
    """
    if window is None:
        return df.withColumn("wid", F.lit(0).cast("long"))
    return df.withColumn("wid", F.explode(wid_sequence_expr(window, time_col)))


def window_slices(
    times: Sequence[float], window: WindowSpec | None
) -> Iterator[tuple[int, int, int]]:
    """``(wid, s, t)`` for every window that covers one of the ascending
    ``times``: its events are the contiguous slice ``[s, t)``.

    Event ``i`` lies in windows ``lo_i .. hi_i`` (:meth:`WindowSpec.wids_for`);
    both bounds ascend with time, so window ``k`` holds the events with
    ``hi_i >= k`` (a suffix) and ``lo_i <= k`` (a prefix). Windows are
    yielded in wid order, and an empty one jumps ``k`` to the next event's
    first window, so a gap in time costs nothing. With no window clause
    the whole input is window 0.
    """
    if window is None:
        if times:
            yield 0, 0, len(times)
        return
    spans = [window.wids_for(t) for t in times]
    lo = [r.start for r in spans]
    hi = [r.stop - 1 for r in spans]
    k, last = (lo[0], hi[-1]) if spans else (0, -1)
    while k <= last:
        s, t = bisect_left(hi, k), bisect_right(lo, k)
        if s < t:
            yield k, s, t
            k += 1
        else:
            k = lo[s]


def window_bounds(window: WindowSpec, wid: int) -> tuple[int, int]:
    """Half-open time span [start, end) of window ``wid``."""
    return wid * window.slide, wid * window.slide + window.size

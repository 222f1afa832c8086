"""Sliding-window id assignment (paper Section 7).

WITHIN ``size`` SLIDE ``slide`` partitions the unbounded stream into
overlapping windows; window ``k`` spans ``[k*slide, k*slide + size)``.
An event at time ``t`` falls into ``size/slide`` consecutive windows
[Li et al., SIGMOD'05]. ``window_plan`` is the one wid arithmetic of the
runners: each event's window bounds as int64 arrays. From it,
``window_cuts`` gives every covering window of a group's time-ordered
events as one contiguous slice (``executor.window_runs``), instead of
copying an event into every window that covers it. ``with_window_ids``
still does that copy, one row per (event, window id *wid*), for the
benchmark's fan-out count only.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.query import WindowSpec, floor_div


def wid_sequence_expr(window: WindowSpec, time_col: str, integral: bool) -> Column:
    """Array column of the window ids covering ``time_col``.

    wid range: max(0, floor((t - size)/slide) + 1) .. floor(t/slide),
    matching :meth:`repro.core.query.WindowSpec.wids_for`: exact integer
    floor division if the column is ``integral``, double arithmetic
    otherwise. Empty when the upper end is below the lower one (a negative
    time), where Spark's ``sequence`` would count down.
    """
    if integral:
        t, slide = "`" + time_col.replace("`", "``") + "`", window.slide

        def floor_div(x: str) -> Column:
            # x - pmod(x, slide) is a multiple of slide, so ``div`` is exact.
            return F.expr(f"(({x}) - pmod({x}, {slide})) div {slide}")

        lo = floor_div(f"{t} - {window.size}") + F.lit(1)
        hi = floor_div(t)
    else:
        t = F.col(time_col)
        lo = F.floor((t - F.lit(window.size)) / F.lit(window.slide)) + F.lit(1)
        hi = F.floor(t / F.lit(window.slide))
    lo = F.greatest(F.lit(0), lo)
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
    integral = isinstance(df.schema[time_col].dataType, T.IntegralType)
    return df.withColumn("wid", F.explode(wid_sequence_expr(window, time_col, integral)))


_UNBOUNDED = "an event time is not finite or its window id exceeds int64"


def _wid_floor(x: np.ndarray, slide: int) -> np.ndarray:
    """:func:`~repro.core.query.floor_div` of every element of ``x`` as
    int64: integer floor division of an int column, float arithmetic of a
    float one, element by element in an object column."""
    if x.dtype.kind == "i":
        q = x // slide
    elif x.dtype == object:
        try:
            q = np.array([floor_div(v, slide) for v in x.tolist()], dtype=object)
        except (OverflowError, ValueError):  # math.floor of ±inf or NaN
            raise ValueError(_UNBOUNDED) from None
    else:
        q = np.floor(x / slide)
    if not (np.abs(q) < 2**62).all():  # NaN, ±inf, or beyond int64
        raise ValueError(_UNBOUNDED)
    return q.astype(np.int64)


def window_plan(time, window: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` as int64 arrays: event ``i`` at ``time[i]`` lies in
    windows ``lo[i] .. hi[i]``, the bounds of :meth:`WindowSpec.wids_for`
    with the same arithmetic (:func:`_wid_floor`); in none when
    ``hi[i] < lo[i]`` (a negative time)."""
    t = np.asarray(time)
    if t.dtype.kind == "u":  # t - size must not wrap
        t = t.astype(object)
    lo = np.maximum(0, _wid_floor(t - window.size, window.slide) + 1)
    return lo, _wid_floor(t, window.slide)


def window_cuts(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(wids, s, t)`` for the ascending ``window_plan`` of time-ordered
    events: every window that covers an event, in wid order, and its
    events, the contiguous slice ``[s, t)``.

    Both bounds ascend with time, so window ``k`` holds the events with
    ``hi_i >= k`` (a suffix) and ``lo_i <= k`` (a prefix). Event ``i``
    opens the windows ``max(lo_i, hi_{i-1} + 1) .. hi_i``, so a gap in
    time costs nothing.
    """
    first = lo.copy()
    first[1:] = np.maximum(lo[1:], hi[:-1] + 1)
    new = np.maximum(hi - first + 1, 0)
    ends = np.cumsum(new)
    wids = np.repeat(first - ends + new, new) + np.arange(ends[-1] if len(ends) else 0)
    return wids, np.searchsorted(hi, wids, "left"), np.searchsorted(lo, wids, "right")


def window_bounds(window: WindowSpec, wid: int) -> tuple[int, int]:
    """Half-open time span [start, end) of window ``wid``."""
    return wid * window.slide, wid * window.slide + window.size

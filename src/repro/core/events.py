"""Lightweight event representation shared by all per-substream kernels.

Kernels (Cogra aggregators and baselines) consume a time-ordered list of
:class:`Event`. The batch Spark runner materializes one such list per
group from the Arrow batch handed to ``applyInPandas``, and each (group,
window) substream is a contiguous slice of it.
"""
from __future__ import annotations

from typing import NamedTuple

import pandas as pd


class Event(NamedTuple):
    """A primitive stream event inside one substream."""

    eid: int  # stable arrival order / identity (tie-break for equal times)
    time: float
    etype: str
    attrs: dict


def events_from_pandas(
    pdf: pd.DataFrame,
    time_col: str = "time",
    type_col: str = "etype",
    attr_cols: tuple[str, ...] = (),
) -> list[Event]:
    """Convert a substream partition to a time-ordered event list.

    Events are ordered by (time, arrival index) — the paper's stream
    transactions (Section 8) require in-order processing per timestamp; the
    arrival index is the deterministic tie-break within a timestamp.
    """
    pdf = pdf.sort_values(time_col, kind="stable").reset_index(drop=True)
    # ``tolist`` hands the kernels Python scalars: exact arithmetic on an
    # ``np.int64`` attribute would wrap at 2**63 instead of growing.
    times = pdf[time_col].tolist()
    types = pdf[type_col].tolist()
    if attr_cols:
        cols = {c: pdf[c].tolist() for c in attr_cols}
        return [
            Event(i, times[i], types[i], {c: cols[c][i] for c in attr_cols})
            for i in range(len(pdf))
        ]
    empty: dict = {}
    return [Event(i, times[i], types[i], empty) for i in range(len(pdf))]

"""Substreams: the columns every kernel reads, and their ``Event`` view.

A :class:`Substream` is one time-ordered substream as columns: ``time``,
``etype`` and one ndarray per attribute, sorted once (stable) and sliced
as ``sub[s:t]`` views. The batch Spark runner builds one per group from
the Arrow batch handed to ``applyInPandas`` and slices it per window; the
streaming runner builds one per key and micro-batch.

Cogra's CONT aggregator scans the columns (``pattern_grained``). The
other aggregators, the baselines and the oracle read the row view
:meth:`Substream.rows`, a list of :class:`Event` holding Python scalars.
It is built once per substream and sliced, so the rows of a group are
built once, not once per window.

A column is int64, float64 or object. Every other dtype is stored as an
object column of the values ``tolist`` gives, so both views hold the same
values, and a Python int beyond int64 stays exact.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import pandas as pd


class Event(NamedTuple):
    """A primitive stream event inside one substream."""

    eid: int  # stable arrival order / identity (tie-break for equal times)
    time: float
    etype: str
    attrs: dict


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


# Placeholder in an attribute column for an Event that has no such
# attribute; the row view of such an event keeps its dict as it was.
MISSING = _Missing()


def _object_column(values: Sequence) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


def _column(s: pd.Series) -> np.ndarray:
    """``s`` as an int64, float64 or object ndarray with ``s``'s values."""
    a = s.to_numpy()
    kind, size = a.dtype.kind, a.dtype.itemsize
    if kind == "i" or kind == "u" and size < 8:
        return a.astype(np.int64, copy=False)
    if kind == "f" and size <= 8:
        return a.astype(np.float64, copy=False)
    return a if a.dtype == object else _object_column(s.tolist())


def _infer(values: list) -> np.ndarray:
    """Column of Python scalars: int64 if all are ints that fit, float64 if
    all are floats, object otherwise."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return np.array(values, dtype=np.float64)
    return _object_column(values)


class Substream:
    """A time-ordered substream as columns; ``sub[s:t]`` is a view."""

    __slots__ = ("time", "etype", "cols", "_rows", "_base", "_start")

    def __init__(
        self,
        time: np.ndarray,
        etype: np.ndarray,
        cols: dict[str, np.ndarray],
        rows: list[Event] | None = None,
    ) -> None:
        self.time, self.etype, self.cols = time, etype, cols
        self._rows = rows
        self._base: Substream | None = None
        self._start = 0

    @classmethod
    def from_pandas(
        cls,
        pdf: pd.DataFrame,
        time_col: str = "time",
        type_col: str = "etype",
        attr_cols: tuple[str, ...] = (),
    ) -> "Substream":
        """The substream of ``pdf``'s rows in time order: the time, type
        and ``attr_cols`` columns, each gathered once in the order of one
        stable sort of the time column alone. Other columns of ``pdf``
        (the group keys, columns no kernel reads) are not copied.

        The order is ``pdf.sort_values(time_col, kind="stable")``'s:
        events of one timestamp keep their order in ``pdf``, and missing
        times come last. After a Spark shuffle that order is not fixed, so
        a kernel whose result depends on it (one without the paper's
        Section-8 stream transactions) may differ between runs; see
        ROADMAP item 1.
        """
        ts = pdf[time_col].reset_index(drop=True)
        order = ts.sort_values(kind="stable").index.to_numpy()
        return cls(
            _column(ts)[order],
            _column(pdf[type_col])[order],
            {c: _column(pdf[c])[order] for c in attr_cols},
        )

    @classmethod
    def from_events(
        cls, events: Sequence[Event], attr_cols: tuple[str, ...]
    ) -> "Substream":
        """Columns of a time-ordered ``events`` list, which stays the row
        view; an event without one of ``attr_cols`` has ``MISSING`` there."""
        return cls(
            _infer([e.time for e in events]),
            _object_column([e.etype for e in events]),
            {c: _infer([e.attrs.get(c, MISSING) for e in events]) for c in attr_cols},
            rows=list(events),
        )

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, sl: slice) -> "Substream":
        s, t, _ = sl.indices(len(self))
        sub = Substream(
            self.time[s:t], self.etype[s:t], {c: v[s:t] for c, v in self.cols.items()}
        )
        sub._base = self if self._base is None else self._base
        sub._start = self._start + s
        return sub

    def attrs_at(self, i: int) -> dict:
        """Attributes of event ``i`` as Python scalars."""
        out = {}
        for c, v in self.cols.items():
            x = v[i : i + 1].tolist()[0]
            if x is not MISSING:
                out[c] = x
        return out

    def rows(self) -> list[Event]:
        """The ``Event`` view: Python scalars, ``eid`` the position in the
        substream this one was sliced from. Built once and cached."""
        if self._rows is None:
            if self._base is not None:
                self._rows = self._base.rows()[self._start : self._start + len(self)]
            else:
                self._rows = self._build_rows()
        return self._rows

    def _build_rows(self) -> list[Event]:
        # ``tolist`` hands the kernels Python scalars: exact arithmetic on
        # an ``np.int64`` attribute would wrap at 2**63 instead of growing.
        times, types = self.time.tolist(), self.etype.tolist()
        if self.cols:
            cols = {c: v.tolist() for c, v in self.cols.items()}
            return [
                Event(i, times[i], types[i], {c: cols[c][i] for c in cols})
                for i in range(len(times))
            ]
        empty: dict = {}
        return [Event(i, times[i], types[i], empty) for i in range(len(times))]


def events_from_pandas(
    pdf: pd.DataFrame,
    time_col: str = "time",
    type_col: str = "etype",
    attr_cols: tuple[str, ...] = (),
) -> list[Event]:
    """The time-ordered ``Event`` list of a substream partition: the row
    view of :meth:`Substream.from_pandas`."""
    return Substream.from_pandas(pdf, time_col, type_col, attr_cols).rows()

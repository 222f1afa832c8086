"""Predicate model and classifier (paper Sections 3.2 and 7).

The Predicate Classifier distinguishes:

* **Local predicates** on single events (e.g. ``M.activity = passive``) —
  they *filter* the stream before trend aggregation; pushed into Catalyst
  by the Spark runner.
* **Equivalence predicates** (``[patient]``) and **grouping** — they
  *partition* the stream into disjoint sub-streams; modelled as partition
  keys in :class:`repro.core.query.Query`.
* **Predicates on adjacent events** (e.g. ``M.rate < NEXT(M).rate``) —
  they restrict the adjacency relation between consecutive trend events
  and drive the granularity selection (Table 4) and the type split
  :math:`\\mathcal{T}_t \\,\\dot\\cup\\, \\mathcal{T}_e` of the
  mixed-grained aggregator (Theorem 5.1).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.fsa import PatternAnalysis

_OPS: dict[str, Callable] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class LocalPredicate:
    """``E.attr op constant`` — filters single events of type ``etype``
    (or every event carrying ``attr`` when ``etype`` is None)."""

    attr: str
    op: str
    value: object
    etype: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def holds(self, etype: str, attrs: Mapping[str, object]) -> bool:
        """True iff the event passes the filter (non-targeted types pass)."""
        if self.etype is not None and etype != self.etype:
            return True
        return _OPS[self.op](attrs[self.attr], self.value)


@dataclass(frozen=True)
class AdjacentPredicate:
    """``Ep.attr_p op (Es.attr_s + offset)`` between a predecessor event of
    type ``pred_type`` and its immediate successor of type ``succ_type``
    in a trend (paper's ``E.attr Op NEXT(E').attr`` form).

    ``offset`` shifts the successor side; it is the selectivity knob used
    by the Figure-9 experiment (``selectivity_offset`` in synth_data). The
    default is the int 0, so an int attribute stays an exact int.
    """

    pred_type: str
    pred_attr: str
    op: str
    succ_type: str
    succ_attr: str
    offset: int | float = 0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def applies(self, pred_type: str, succ_type: str) -> bool:
        return pred_type == self.pred_type and succ_type == self.succ_type

    def holds(
        self, pred_attrs: Mapping[str, object], succ_attrs: Mapping[str, object]
    ) -> bool:
        return _OPS[self.op](
            pred_attrs[self.pred_attr], succ_attrs[self.succ_attr] + self.offset
        )

    def holds_columns(
        self, left: np.ndarray, right: np.ndarray, where: np.ndarray
    ) -> np.ndarray:
        """:meth:`holds` for every aligned pair of a predecessor's
        ``pred_attr`` column ``left`` and a successor's ``succ_attr`` column
        ``right``: Python's answer at each position in ``where``; the other
        positions are unspecified.

        NumPy compares int64 with float64 in float64, which rounds an int
        beyond 2**53; such positions are compared again in Python.
        Object columns are compared in Python, at ``where`` only.
        """
        op = _OPS[self.op]
        rhs = None
        if left.dtype != object and right.dtype != object:
            rhs = _plus(right, self.offset)
        if rhs is None:
            idx = np.flatnonzero(where)
            out = np.zeros(len(left), dtype=bool)
            off = self.offset
            out[idx] = [
                op(a, b + off)
                for a, b in zip(left[idx].tolist(), right[idx].tolist())
            ]
            return out
        with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
            out = op(left, rhs)
        if left.dtype != rhs.dtype:
            ints = left if left.dtype == np.int64 else rhs
            idx = np.flatnonzero(where & ((ints > _EXACT) | (ints < -_EXACT)))
            out[idx] = [op(a, b) for a, b in zip(left[idx].tolist(), rhs[idx].tolist())]
        return out


# Every int of at most this magnitude converts to float64 exactly.
_EXACT = 2**53
_INT64 = (-(2**63), 2**63 - 1)


def _plus(col: np.ndarray, offset) -> np.ndarray | None:
    """``col + offset`` with Python's result type and value (an int column
    plus an int stays int), or None where NumPy could not give it: an
    int64 sum beyond int64, an int offset beyond 2**53 or another type."""
    if type(offset) is float or type(offset) is int and col.dtype == np.float64:
        if type(offset) is int and abs(offset) > _EXACT:
            return None
        with np.errstate(all="ignore"):
            return col + offset
    if type(offset) is not int:
        return None
    if offset == 0 or not len(col):
        return col
    ends = (offset, int(col.min()) + offset, int(col.max()) + offset)
    return col + offset if all(_INT64[0] <= v <= _INT64[1] for v in ends) else None


def adjacency_holds(
    preds: tuple[AdjacentPredicate, ...],
    pred_type: str,
    pred_attrs: Mapping[str, object],
    succ_type: str,
    succ_attrs: Mapping[str, object],
) -> bool:
    """All adjacent predicates applicable to the (pred, succ) type pair hold.

    Type pairs with no applicable predicate are unrestricted.
    """
    return all(
        p.holds(pred_attrs, succ_attrs)
        for p in preds
        if p.applies(pred_type, succ_type)
    )


def classify_event_grained_types(
    analysis: PatternAnalysis, preds: tuple[AdjacentPredicate, ...]
) -> frozenset[str]:
    """Types that need *event-grained* aggregates under ANY (Theorem 5.1).

    A type ``E`` is event-grained iff some adjacent predicate
    ``(E.attr op Ex.attr_x)`` exists with ``E in P.predTypes(Ex)`` —
    events of such types must be stored to evaluate the predicate against
    future events. All other pattern types stay type-grained.
    """
    out: set[str] = set()
    for p in preds:
        if p.pred_type in analysis.pred_types.get(p.succ_type, frozenset()):
            out.add(p.pred_type)
    return frozenset(out & set(analysis.types))

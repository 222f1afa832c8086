"""Aggregation functions over event trends at every granularity (paper
Sections 2.3 and 8, Table 8).

The paper's Table 8 generalizes the trend-count recurrences to COUNT(E),
MIN/MAX(E.attr) and SUM(E.attr): events of type ``E`` *update* the
aggregate, all other matched events *propagate* it along the trend digraph.
AVG(E.attr) = SUM(E.attr) / COUNT(E).

All three Cogra aggregators, GRETA and A-Seq share this module. An
aggregator node (an event type, a stored event, the last matched event
e_l, a prefix cell, or the final aggregates) is the list

    ``[count, slot_1, ..., slot_k]``

of the number of (partial) trends ending at that node and one *slot
value* per :class:`AggSpec`, in query order. The kernels build, merge and
read nodes only through four helpers:

* ``new_node(specs, count)`` — a node of ``count`` trends and no values,
* ``absorb(specs, dst, src)`` — dst ⊕= src: the counts add, the slots merge,
* ``extend(specs, node, etype, attrs)`` — apply a matched event to its
  merged predecessors, with trend count ``node[0]`` (e.count),
* ``finalize(specs, node)`` — the named result row of an end node.

``new_node(specs, 0)`` is the identity of ``absorb``, ``absorb`` is
commutative and associative, and ``extend`` distributes over ``absorb``,
so merging predecessors in any order before one ``extend`` is exact
(``tests/test_aggregates.py`` checks these laws). Each spec implements
the Table-8 algebra on its own slot:

* ``init_val``  — value for "no trend reaches this node yet",
* ``merge``     — combine slot values of several predecessor nodes,
* ``on_event``  — apply a matched event (given the trend count of the new
  node, i.e. ``e.count`` in the paper's notation),
* ``finalize``  — turn the end-node slot + final count into the result.

This algebra covers exactly the distributive/algebraic functions the paper
supports (Section 2.3, citing Gray et al.'s data-cube classification).

Two more operations serve the column scans (the CONT scan and the
shared window fold of Algorithm 1), which fold whole columns:

* ``fold_segments`` — per segment ``[cuts[k], cuts[k+1])`` of a column,
  the merged slot of its events of type ``E`` with attribute values ``x``
  (None for COUNT), each applied with its integer trend count ``w_j``;
  events with ``w_j = 0`` add nothing. ``fold_column`` is its one-segment
  case,
* ``repeat``    — the merge of ``k`` copies of one slot value.

Arithmetic is exact (DESIGN.md, "Arithmetic mode"): counts are Python
ints, and SUM/AVG numerators are binary fractions (num, k) = num / 2**k,
divided once in ``finalize``. ``check_column`` is ``check_domain`` over a
column.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.core.events import MISSING


@dataclass(frozen=True)
class AggSpec:
    """Base class of aggregation-function specifications."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    def init_val(self):
        return None

    def merge(self, a, b):
        raise NotImplementedError

    def on_event(self, val, etype: str, attrs: Mapping, trend_count):
        raise NotImplementedError

    def finalize(self, val, count):
        raise NotImplementedError

    def fold_segments(self, x: np.ndarray | None, w: np.ndarray, cuts: np.ndarray) -> list:
        raise NotImplementedError

    def fold_column(self, x: np.ndarray | None, w: np.ndarray):
        return self.fold_segments(x, w, np.array([0, len(w)]))[0]

    def repeat(self, val, k: int):
        raise NotImplementedError


@dataclass(frozen=True)
class Count(AggSpec):
    """COUNT(*): the number of finished trends per group (Theorem 4.1)."""

    @property
    def name(self) -> str:
        return "count_star"

    def init_val(self):
        return 0

    def merge(self, a, b):
        return a  # the slot stays 0: COUNT(*) is the node's count, node[0]

    def on_event(self, val, etype, attrs, trend_count):
        return val

    def finalize(self, val, count):
        return count

    def fold_segments(self, x, w, cuts):
        return [0] * (len(cuts) - 1)

    def repeat(self, val, k):
        return val


@dataclass(frozen=True)
class CountType(AggSpec):
    """COUNT(E): sum over finished trends of tr.COUNT(E) (Section 2.3)."""

    etype: str

    @property
    def name(self) -> str:
        return f"count_{self.etype}"

    def init_val(self):
        return 0

    def merge(self, a, b):
        return a + b

    def on_event(self, val, etype, attrs, trend_count):
        # Table 8: e.count_E = e.count + sum of predecessor count_E
        # (val already holds the predecessor sum when this is called).
        return val + trend_count if etype == self.etype else val

    def finalize(self, val, count):
        return val

    def fold_segments(self, x, w, cuts):
        return segment_sums(w, cuts)

    def repeat(self, val, k):
        return val * k


@dataclass(frozen=True)
class _Extremum(AggSpec):
    """MIN/MAX(E.attr): the extremum over finished trends of the trend's
    extremum; ``keep(a, b)`` is the kept one of two values."""

    etype: str
    attr: str

    @property
    def name(self) -> str:
        return f"{type(self).__name__.lower()}_{self.etype}_{self.attr}"

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return self.keep(a, b)

    def on_event(self, val, etype, attrs, trend_count):
        if etype != self.etype:
            return val
        x = ordered_value(self, attrs[self.attr])
        # Only absorb the value if some (partial) trend actually ends at
        # this event — an event with e.count = 0 extends no trend and must
        # not contribute (it has no adjacent predecessor yet).
        return self.merge(val, x) if trend_count else val

    def finalize(self, val, count):
        return val

    def fold_segments(self, x, w, cuts):
        pos = w > 0
        x, cuts = x[pos], select_cuts(pos, cuts)
        if x.dtype == object:
            for v in x.tolist():
                ordered_value(self, v)
        elif x.dtype.kind == "f" and np.isnan(x).any():
            ordered_value(self, float("nan"))  # raises
        out = [None] * (len(cuts) - 1)
        full = np.flatnonzero(cuts[:-1] < cuts[1:])
        if len(full):
            # tolist: Python scalars, or the Python objects themselves
            for k, v in zip(full.tolist(), self.pick.reduceat(x, cuts[full]).tolist()):
                out[k] = v
        return out

    def repeat(self, val, k):
        return val if k else None


class Min(_Extremum):
    """MIN(E.attr): min over finished trends of tr.MIN(E.attr)."""

    def keep(self, a, b):
        return a if a <= b else b

    pick = np.minimum  # a ufunc: its ``reduceat`` folds the segments


class Max(_Extremum):
    """MAX(E.attr): max over finished trends of tr.MAX(E.attr)."""

    def keep(self, a, b):
        return a if a >= b else b

    pick = np.maximum


def ordered_value(spec: AggSpec, x):
    """x itself, if MIN/MAX can compare it: NaN is unordered, so it would
    make the extremum depend on arrival order."""
    if x != x:
        raise ValueError(f"{spec.name}: {x!r} is not an ordered value")
    return x


def binary_fraction(spec: AggSpec, x) -> tuple[int, int]:
    """(m, k) with x = m / 2**k, for a finite int or float x."""
    try:
        m, d = x.as_integer_ratio()
        if d & (d - 1) == 0:
            return m, d.bit_length() - 1
    except (AttributeError, ValueError, OverflowError):  # NaN, ±inf, no ratio
        pass
    raise ValueError(f"{spec.name}: {x!r} is not a finite int or float")


def _add(n1: int, k1: int, n2: int, k2: int) -> tuple[int, int]:
    """n1 / 2**k1 + n2 / 2**k2 as (num, k) over the larger denominator."""
    if k1 < k2:
        n1, k1, n2, k2 = n2, k2, n1, k1
    return n1 + (n2 << (k1 - k2)), k1


def select_cuts(mask: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The segment bounds ``cuts`` of a column, as bounds in ``column[mask]``."""
    return np.concatenate([[0], np.cumsum(mask)])[cuts]


def segment_sums(w: np.ndarray, cuts: np.ndarray) -> list:
    """Sum of ``w`` over each segment ``[cuts[k], cuts[k+1])`` (0 if it is
    empty), as Python ints; ``cuts[-1] == len(w)``, and ``w``'s dtype
    holds every segment's sum."""
    out = np.zeros(len(cuts) - 1, w.dtype)
    full = cuts[:-1] < cuts[1:]
    if full.any():
        # reduceat sums up to the next full segment's start: this one's end.
        out[full] = np.add.reduceat(w, cuts[:-1][full])
    return out.tolist()


# Exponent band of one Python-int dot product in ``exact_dots``: mantissas
# below 2**53 shifted by fewer than 10 bits stay below 2**63.
_BAND = 10


def exact_dots(
    spec: AggSpec, x: np.ndarray, w: np.ndarray, cuts: np.ndarray
) -> list[tuple[int, int]]:
    """Per segment ``[cuts[k], cuts[k+1])``: the sum of x_j * w_j as a
    binary fraction (num, k), for a column ``x`` of finite ints or floats
    and integer weights ``w``.

    A float is m * 2**e with an integer mantissa |m| < 2**53 (``frexp``).
    NumPy gives the mantissas and exponents, and one Python-int dot product
    per segment and band of ``_BAND`` exponents sums them exactly.
    """
    nz = w != 0
    x, w, cuts = x[nz], w[nz], select_cuts(nz, cuts)
    segs = list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))
    if x.dtype == object:
        fr = [binary_fraction(spec, v) for v in x.tolist()]
        k = max((e for _, e in fr), default=0)
        terms = [(m << (k - e)) * c for (m, e), c in zip(fr, w.tolist())]
        return [(sum(terms[a:b]), k) for a, b in segs]
    if x.dtype == np.int64:
        m, e = x, np.zeros(len(x), np.int64)
    else:
        finite = np.isfinite(x)
        if not finite.all():
            binary_fraction(spec, x[~finite][0].item())  # raises
        mant, exp = np.frexp(x)
        m = (mant * 2.0**53).astype(np.int64)
        e = exp.astype(np.int64) - 53
    out = [(0, 0)] * len(segs)
    if not len(x):
        return out
    e0 = int(e.min())
    band = (e - e0) // _BAND
    for b in np.unique(band).tolist():
        sel = band == b
        p = e0 + _BAND * b
        ms, ws = (m[sel] << (e[sel] - p)).tolist(), w[sel].tolist()
        bc = select_cuts(sel, cuts).tolist()
        for j, (lo, hi) in enumerate(zip(bc[:-1], bc[1:])):
            if lo < hi:
                d = sum(map(operator.mul, ms[lo:hi], ws[lo:hi]))
                out[j] = _add(*out[j], *((d << p, 0) if p >= 0 else (d, -p)))
    return out


@dataclass(frozen=True)
class Sum(AggSpec):
    """SUM(E.attr): sum over finished trends of tr.SUM(E.attr).

    Table 8: an event e of type E contributes ``e.attr * e.count`` — its
    attribute once per trend ending at e. The slot is (num, k).
    """

    etype: str
    attr: str

    @property
    def name(self) -> str:
        return f"sum_{self.etype}_{self.attr}"

    def init_val(self):
        return (0, 0)

    def merge(self, a, b):
        return _add(*a, *b)

    def on_event(self, val, etype, attrs, trend_count):
        if etype == self.etype:
            m, k = binary_fraction(self, attrs[self.attr])
            return _add(*val, m * trend_count, k)
        return val

    def finalize(self, val, count):
        s = Fraction(val[0], 1 << val[1])
        return s.numerator if s.denominator == 1 else s

    def fold_segments(self, x, w, cuts):
        return exact_dots(self, x, w, cuts)

    def repeat(self, val, k):
        return (val[0] * k, val[1])


@dataclass(frozen=True)
class Avg(AggSpec):
    """AVG(E.attr) = SUM(E.attr) / COUNT(E) per group (Section 2.3).

    The slot is (num, k, count-of-E-events): SUM's slot plus COUNT(E);
    algebraic, so it composes under merge like its distributive components.
    """

    etype: str
    attr: str

    @property
    def name(self) -> str:
        return f"avg_{self.etype}_{self.attr}"

    def init_val(self):
        return (0, 0, 0)

    def merge(self, a, b):
        return (*_add(a[0], a[1], b[0], b[1]), a[2] + b[2])

    def on_event(self, val, etype, attrs, trend_count):
        if etype == self.etype:
            m, k = binary_fraction(self, attrs[self.attr])
            return (*_add(val[0], val[1], m * trend_count, k), val[2] + trend_count)
        return val

    def finalize(self, val, count):
        num, k, c = val
        # One correctly rounded int / int division.
        return None if c == 0 else num / (c << k)

    def fold_segments(self, x, w, cuts):
        return [(*d, c) for d, c in zip(exact_dots(self, x, w, cuts), segment_sums(w, cuts))]

    def repeat(self, val, k):
        return (val[0] * k, val[1], val[2] * k)


def check_domain(specs: tuple[AggSpec, ...], etype: str, attrs: Mapping) -> None:
    """Raise ``ValueError`` if an attribute aggregated over events of
    ``etype`` is outside its function's domain: SUM/AVG take finite ints
    and floats, MIN/MAX any ordered value (so ±inf, but not NaN). Runs on
    every relevant event, whether or not a trend reaches it, so that every
    approach rejects the same inputs."""
    for s in specs:
        if isinstance(s, (Sum, Avg)) and s.etype == etype:
            x = attrs[s.attr]
            # Fast path: every int and every finite float is accepted.
            if not (type(x) is float and x - x == 0.0 or type(x) is int):
                binary_fraction(s, x)
        elif isinstance(s, _Extremum) and s.etype == etype:
            ordered_value(s, attrs[s.attr])


def check_column(spec: AggSpec, col: np.ndarray, mask: np.ndarray) -> None:
    """:func:`check_domain` of ``spec`` over the values of ``col`` where
    ``mask`` (its type's events) holds. An int64 column is accepted
    unread; a float column is tested whole (``isfinite`` for SUM/AVG, no
    NaN for MIN/MAX) and the mask read only at a failing value; an object
    column (e.g. Python ints beyond int64) is checked value by value at
    the mask."""
    if isinstance(spec, (Sum, Avg)):
        one = binary_fraction
    elif isinstance(spec, _Extremum):
        one = ordered_value
    else:
        return
    if col.dtype == object:
        for v in col[mask].tolist():
            if v is MISSING:
                raise KeyError(spec.attr)
            one(spec, v)
    elif col.dtype.kind == "f":
        bad = np.flatnonzero(np.isnan(col) if one is ordered_value else ~np.isfinite(col))
        bad = bad[mask[bad]]
        if len(bad):
            one(spec, col[bad[0]].item())  # raises


def new_node(specs: tuple[AggSpec, ...], count) -> list:
    """A node of ``count`` trends that no matched event has updated yet:
    ``[count, *init_val]``. ``new_node(specs, 0)`` is the identity of
    :func:`absorb`."""
    return [count] + [s.init_val() for s in specs]


def absorb(specs: tuple[AggSpec, ...], dst: list, src: list) -> None:
    """In place: dst <- dst ⊕ src. The trend counts add and each slot
    merges; the order of absorbed nodes does not matter."""
    dst[0] += src[0]
    for i, s in enumerate(specs, 1):
        dst[i] = s.merge(dst[i], src[i])


def extend(specs: tuple[AggSpec, ...], node: list, etype: str, attrs: Mapping) -> None:
    """In place: Table 8's update of ``node``, the merged predecessors of a
    matched event, by that event; ``node[0]`` is its trend count e.count."""
    count = node[0]
    for i, s in enumerate(specs, 1):
        node[i] = s.on_event(node[i], etype, attrs, count)


def finalize(specs: tuple[AggSpec, ...], node) -> dict:
    """Named result row of an end node (a list or a tuple)."""
    count = node[0]
    return {s.name: s.finalize(node[i], count) for i, s in enumerate(specs, 1)}

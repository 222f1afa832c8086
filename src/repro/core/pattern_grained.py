"""Pattern-Grained Aggregator — Algorithm 3 (paper Section 6).

Under skip-till-next-match (NEXT) and contiguous (CONT) semantics every
event has at most one predecessor event (Theorem 6.1), so only the last
matched event and two aggregates are kept:

    e.count = e_l.count  if (e_l, e) adjacent   (+1 if E = start(P))
    final.count += e.count  when E = end(P)

Under CONT, an arriving event that is *not* matched invalidates all
partial trends (e_l := null); under NEXT it is skipped. Events of types
outside the pattern are irrelevant: skipped under NEXT, invalidating under
CONT (the paper's c5 example). Time O(n), space O(1) (Theorems 6.3-6.4).

Under CONT, e_l is always the previous event, so Algorithm 3 is a
first-order recurrence, and :meth:`PatternGrainedAggregator.fold` folds a
whole chunk of columns as a segmented prefix sum (Blelloch 1990):

* ``c_i``: e_{i-1} may precede e_i — both relevant, a type edge of the
  pattern, every predicate on adjacent events over the shifted columns.
  Segments are the runs cut by ``~c``, i.e. ``cumsum(~c)``.
* ``count_i = [E_i = start] + c_i * count_{i-1}``: a segmented cumsum of
  the start events; e_i is matched iff ``count_i > 0``.
* ``final.count += sum of count_i`` over end-type events.
* COUNT(E), SUM and AVG are dot products with the integer weights
  ``count_j * W_j``, where ``W_j`` is the number of end events at or after
  j in j's segment; MIN/MAX take the extremum over E-events with
  ``count_j * W_j > 0`` (``AggSpec.fold_column``).

The chunk carries e_l's type, attributes and node ``[count, *slots]``
(:mod:`repro.core.aggregates`), plus the final node, in and out, so
streaming micro-batches, window slices and single events compose:
``update`` under CONT is the ``fold`` of one event. ``fold`` itself cuts
its input into chunks of ``CHUNK`` events and folds them through that
carry, so its working set (about 25 arrays and two Python-int lists per
chunk) is O(CHUNK), not O(n).

Under NEXT, e_l is the last *matched* event, which is not a first-order
scan, so ``fold`` is the row loop of ``update`` over the ``Event`` rows.
"""
from __future__ import annotations

import numpy as np

from repro.core.aggregates import absorb, extend, finalize, new_node
from repro.core.events import Event, Substream
from repro.core.granularity import Semantics
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, StateMeter

# Counts and weights of a chunk are int64 while a bound on their sums,
# computed before the scan, stays below this; beyond it, Python ints.
INT64_LIMIT = 2**63

# Under CONT ``fold`` takes its input in positional chunks of this many
# events through the carry, so its working set is O(CHUNK) whatever the
# substream's length.
CHUNK = 4096


def count_dtype(n: int, longest: int, carry: int):
    """Dtype of a chunk's counts and weights: every count is at most
    ``longest + carry`` (the longest segment, plus e_l.count in segment 0),
    every W at most ``longest``, so the n weights count * W, and any sum of
    counts, are at most ``n * longest * (longest + carry)``. int64 below
    ``INT64_LIMIT``, Python ints (object) from there on."""
    return object if n * longest * (longest + carry) >= INT64_LIMIT else np.int64


class PatternGrainedAggregator:
    """Incremental Algorithm 3: O(1) state — the last matched event e_l,
    its node ``el``, and the ``final`` node."""

    def __init__(self, cq: CompiledQuery) -> None:
        if cq.semantics not in (Semantics.NEXT, Semantics.CONT):
            raise ValueError("pattern-grained aggregation requires NEXT or CONT")
        self.specs = cq.specs
        self.preds = cq.adjacent_predicates
        self.cont = cq.semantics is Semantics.CONT
        self.attr_cols = cq.attr_cols
        an = cq.analysis
        self.start, self.end = an.start, an.end
        self.pred_types = {t: tuple(s) for t, s in an.pred_types.items()}
        # Line 1: e_l = null, counts = 0.
        self.el_type: str | None = None
        self.el_attrs: dict = {}
        self.el = new_node(self.specs, 0)
        self.final = new_node(self.specs, 0)
        self.meter = StateMeter()
        self.meter.add(
            BYTES_PER_EVENT + 2 * (1 + len(self.specs)) * BYTES_PER_AGG
        )

    def update(self, etype: str, attrs: dict):
        """Process one event (Lines 2-9); returns its e.count if matched,
        None otherwise (skipped / invalidating)."""
        if self.cont:
            self.fold(Substream.from_events([Event(0, 0, etype, attrs)], self.attr_cols))
            return self.el[0] or None
        specs = self.specs
        if etype not in self.pred_types:
            return None  # irrelevant event type: skipped under NEXT
        adjacent = (
            self.el_type is not None
            and self.el_type in self.pred_types[etype]
            and adjacency_holds(self.preds, self.el_type, self.el_attrs, etype, attrs)
        )
        started = etype == self.start
        if started or adjacent:  # isMatched (Line 3)
            node = list(self.el) if adjacent else new_node(specs, 0)
            if started:
                node[0] += 1
            extend(specs, node, etype, attrs)
            if etype == self.end:  # Line 6
                absorb(specs, self.final, node)
            self.el_type, self.el_attrs, self.el = etype, attrs, node  # Line 7
            return node[0]
        return None  # unmatched: skipped under NEXT

    def fold(self, sub: Substream) -> PatternGrainedAggregator:
        """Lines 2-9 over the time-ordered ``sub``: under CONT one chunk of
        at most ``CHUNK`` events at a time, under NEXT one row at a time
        (module docstring)."""
        if self.cont:
            for s in range(0, len(sub), CHUNK):
                self._scan_chunk(sub[s : s + CHUNK])
            return self
        update = self.update
        for e in sub.rows():
            update(e.etype, e.attrs)
        return self

    def _scan_chunk(self, sub: Substream) -> None:
        """One chunk as one segmented scan of its columns."""
        n = len(sub)
        if not n:
            return
        is_t = {t: sub.etype == t for t in self.pred_types}

        # c[i]: Line 3's adjacency of (e_{i-1}, e_i), short of "e_{i-1} is
        # matched", which count_{i-1} > 0 supplies below.
        c = np.zeros(n, dtype=bool)
        for succ, preds_of in self.pred_types.items():
            for p in preds_of:
                edge = is_t[p][:-1] & is_t[succ][1:]
                for theta in self.preds:
                    if theta.applies(p, succ) and edge.any():
                        edge &= theta.holds_columns(
                            sub.cols[theta.pred_attr][:-1],
                            sub.cols[theta.succ_attr][1:],
                            edge,
                        )
                c[1:] |= edge
        et = sub.etype[0]
        if self.el_type is not None and et in self.pred_types:
            c[0] = self.el_type in self.pred_types[et] and adjacency_holds(
                self.preds, self.el_type, self.el_attrs, et, sub.attrs_at(0)
            )

        # Segment k >= 1 starts at starts[k - 1]; segment 0 continues e_l
        # and is empty unless c[0].
        starts = np.flatnonzero(~c)
        seg = np.cumsum(~c)
        stops = np.append(starts, n)  # stops[k]: end of segment k
        carry = self.el[0] if c[0] else 0
        dtype = count_dtype(n, int(np.diff(stops, prepend=0).max()), carry)

        s = is_t[self.start].astype(np.int64).astype(dtype)
        s[0] += carry
        cs = np.concatenate([np.zeros(1, dtype), np.cumsum(s)])
        count = cs[1:] - cs[np.append(0, starts)][seg]
        ends = is_t[self.end]
        ce = np.concatenate([[0], np.cumsum(ends)])
        w = count * (ce[stops[seg]] - ce[:-1])  # count_j * W_j
        self.final[0] += int(count[ends].sum())

        # Slots: the final ones gain the chunk's end events' trends and, once
        # per end event in segment 0, e_l's slots (Line 6); the new e_l node
        # is the last event's, if it is matched (Line 7).
        first_ends = int(ce[stops[0]])
        matched = count[-1] > 0
        lo = int(starts[-1]) if len(starts) else 0  # the last segment
        nowhere = np.zeros(n, dtype=bool)
        el = [int(count[-1])]
        for i, spec in enumerate(self.specs, 1):
            mask = is_t.get(getattr(spec, "etype", None), nowhere)
            col = sub.cols.get(getattr(spec, "attr", None))  # None: a COUNT
            fin = spec.fold_column(None if col is None else col[mask], w[mask])
            fin = spec.merge(fin, spec.repeat(self.el[i], first_ends))
            self.final[i] = spec.merge(self.final[i], fin)
            if matched:
                m = mask[lo:]
                slot = spec.fold_column(None if col is None else col[lo:][m], count[lo:][m])
                # With no segment start, the whole chunk extends e_l's trends.
                el.append(slot if len(starts) else spec.merge(self.el[i], slot))
        if matched:
            self.el_type, self.el_attrs, self.el = sub.etype[-1], sub.attrs_at(n - 1), el
        else:
            self.el_type, self.el_attrs, self.el = None, {}, new_node(self.specs, 0)

    def result(self) -> dict:
        """Finalized aggregates (Line 10)."""
        return finalize(self.specs, self.final)

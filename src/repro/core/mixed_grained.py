"""Skip-till-any-match aggregator — Algorithms 1 and 2 (paper Sections 4-5).

Under skip-till-any-match the pattern types are split into T_t
(type-grained) and T_e (event-grained, Theorem 5.1): a type is
event-grained iff it is the predicate-restricted predecessor of some
transition, so its events must be stored to evaluate the predicate on
adjacent events against future events; every other type keeps one
aggregate per type.

    e.count = sum of E'.count          for type-grained predecessors E'
            + sum of e_p.count         for stored predecessor events e_p
                                       with (e_p, e) satisfying theta
            (+1 if E = start(P))

and analogously for the other aggregation functions via the Table-8
algebra in :mod:`repro.core.aggregates`: each type in H, each stored
event in V and the final aggregates is one node ``[count, *slots]``, a
new event's node absorbs its predecessors' nodes and is then extended by
the event. Time O(n*(t + n_e)), space Theta(t + n_e) (Theorems 5.2-5.3).

With no predicates on adjacent events T_e is empty and this is exactly
Algorithm 1, the type-grained aggregator: every previously matched event
of a predecessor type is adjacent (Definition 7), events are discarded
immediately, the final count is end(P).count (Theorem 4.1), time is
O(n*l) and space Theta(l) (Theorems 4.2-4.3). The executor therefore runs
this one class for both the TYPE and the MIXED granularity of Table 4.
:meth:`MixedGrainedAggregator.fold` is the row loop of ``update`` over a
substream's ``Event`` rows.

Algorithm 1 over a group's sliding windows is one shared fold
(:meth:`MixedGrainedAggregator.scan_windows`, after Li et al.'s panes):
an event's update is the same in every window that covers it, only the
set of open windows differs, so each event's e.count is one vector over
its windows (at most size/slide of them):

* ``fwd_i`` — e.count, a forward pass: the partial trends ending at i;
* ``bwd_i`` — a backward pass of the mirrored recurrence: the ways to
  finish a trend from i (successor types, +1 if E = end(P));
* i lies in ``fwd_i * bwd_i`` of the window's trends, so COUNT(E), SUM,
  AVG and MIN/MAX are ``AggSpec.fold_segments`` over the (event, window)
  pairs with those weights, one segment per window, and COUNT(*) is the
  window's sum of ``fwd`` over end events.

A window of m relevant events has fewer than 2**m trends, so every count
and weight is below 2**m and a window's sum of weights below m * 2**m.
The passes add Python ints; the (event, window) arrays are int64 while
that bound, computed before the fold, stays below 2**63, and hold Python
ints beyond it.
"""
from __future__ import annotations

import operator
from itertools import chain

import numpy as np

from repro.core.aggregates import (
    absorb,
    extend,
    finalize,
    new_node,
    segment_sums,
    select_cuts,
)
from repro.core.events import Substream
from repro.core.pattern_grained import INT64_LIMIT
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, StateMeter


def _vector_pass(steps, into, plus, n_types: int, n_windows: int) -> list[list]:
    """One pass of ``v = plus[E] + sum of S[E'] for E' in into[E]``, then
    ``S[E] += v``, over the events ``steps`` = (type code E, window
    positions [x, y)), each a vector over its windows. Python ints: a
    vector holds at most size/slide of them, too few for NumPy's per-call
    cost to pay. Returns each event's ``v``."""
    S = [[0] * n_windows for _ in range(n_types)]
    out = []
    for c, x, y in steps:
        v = [plus[c]] * (y - x)
        for e in into[c]:
            v = list(map(operator.add, S[e][x:y], v))
        s = S[c]
        s[x:y] = map(operator.add, s[x:y], v)
        out.append(v)
    return out


class MixedGrainedAggregator:
    """Incremental Algorithm 2: type-grained store H over T_t plus stored
    events V for the predicate-restricted types T_e (Algorithm 1 when T_e
    is empty)."""

    def __init__(self, cq: CompiledQuery) -> None:
        self.specs = cq.specs
        self.preds = cq.adjacent_predicates
        an = cq.analysis
        self.start, self.end = an.start, an.end
        self.pred_types = {t: tuple(s) for t, s in an.pred_types.items()}
        t_event = cq.event_grained_types  # T_e (Lines 3-4: removed from H)
        # H: type-grained store over T_t, one node per type (Lines 1-2).
        self.H: dict[str, list] = {
            t: new_node(self.specs, 0) for t in an.types if t not in t_event
        }
        # V: stored events per event-grained type: list of (attrs, node)
        # in arrival order (Lines 9-10).
        self.V: dict[str, list] = {t: [] for t in t_event}
        # Separate final node, used when end(P) is event-grained (Lines
        # 14, 16). It is metered only when T_e is non-empty, so the state
        # of Algorithm 1 (T_e empty) is the Theta(l) store H alone.
        self.final = new_node(self.specs, 0)
        self.meter = StateMeter()
        nodes = len(self.H) + bool(t_event)
        self.meter.add(nodes * (1 + len(self.specs)) * BYTES_PER_AGG)

    def update(self, etype: str, attrs: dict):
        """Process one event (Lines 5-14); returns its e.count, or None if
        the event's type is irrelevant to the pattern."""
        if etype not in self.pred_types:
            return None
        specs = self.specs
        node = new_node(specs, 1 if etype == self.start else 0)
        for ep in self.pred_types[etype]:
            pred = self.H.get(ep)
            if pred is not None:  # Line 8: type-grained predecessor
                absorb(specs, node, pred)
            else:  # Lines 9-10: stored predecessor events, theta-checked
                for p_attrs, p_node in self.V[ep]:
                    if adjacency_holds(self.preds, ep, p_attrs, etype, attrs):
                        absorb(specs, node, p_node)
        extend(specs, node, etype, attrs)
        own = self.H.get(etype)
        if own is not None:  # Lines 11-13
            absorb(specs, own, node)
        else:
            self.V[etype].append((attrs, node))
            self.meter.add(BYTES_PER_EVENT + (1 + len(specs)) * BYTES_PER_AGG)
            if etype == self.end:  # Line 14
                absorb(specs, self.final, node)
        return node[0]

    def fold(self, sub: Substream) -> MixedGrainedAggregator:
        """``update`` over the time-ordered ``sub``, one row at a time."""
        update = self.update
        for e in sub.rows():
            update(e.etype, e.attrs)
        return self

    def scan_windows(self, sub: Substream, s: list[int], t: list[int]) -> list[dict]:
        """Algorithm 1 over every window of a group in one shared fold
        (module docstring): the aggregates of each window, given as the
        ascending slices ``[s, t)`` of the time-ordered ``sub``
        (``executor.window_runs``). T_e must be empty."""
        if self.V:
            raise ValueError("the shared window fold is Algorithm 1 (T_e empty)")
        types = list(self.pred_types)
        code = {t: c for c, t in enumerate(types)}
        # Both slice bounds ascend, so event i lies in the k_i windows at
        # the positions a_i.. of the slices: those with s <= i < t.
        i = np.arange(len(sub))
        a = np.searchsorted(t, i, "right")
        k = np.searchsorted(s, i, "right") - a
        tcode = np.full(len(sub), -1, np.int64)  # -1: not a pattern type
        for ty, c in code.items():
            tcode[sub.etype == ty] = c
        idx = np.flatnonzero((tcode >= 0) & (k > 0))
        tcode = tcode[idx]
        # Event j's (event, window) pairs, event-major, end before q_j.
        a, k = a[idx], k[idx]
        q = np.cumsum(k)
        pairs = int(q[-1]) if len(q) else 0
        pos = np.repeat(a - q + k, k) + np.arange(pairs)
        per_window = np.bincount(pos, minlength=len(s))
        m = int(per_window.max()) if len(s) else 0
        dtype = object if m << m >= INT64_LIMIT else np.int64

        steps = list(zip(tcode.tolist(), a.tolist(), (a + k).tolist()))
        preds = [[code[p] for p in self.pred_types[t]] for t in types]
        succs = [[code[u] for u in types if t in self.pred_types[u]] for t in types]
        starts = [int(t == self.start) for t in types]
        ends = [int(t == self.end) for t in types]
        fwd = _vector_pass(steps, preds, starts, len(types), len(s))
        bwd = _vector_pass(steps[::-1], succs, ends, len(types), len(s))[::-1]
        fwd, bwd = (np.fromiter(chain.from_iterable(v), dtype, pairs) for v in (fwd, bwd))

        # Window-major: each window's pairs are one segment of ``cuts``.
        order = np.argsort(pos, kind="stable")
        cuts = np.concatenate([[0], np.cumsum(per_window)])
        rel = np.repeat(np.arange(len(idx)), k)[order]
        event, pair_type = idx[rel], tcode[rel]
        fwd = fwd[order]
        weight = fwd * bwd[order]
        end = pair_type == code[self.end]
        final = segment_sums(fwd[end], select_cuts(end, cuts))
        folded = []
        for spec in self.specs:
            mask = pair_type == code.get(getattr(spec, "etype", None), -1)
            col = sub.cols.get(getattr(spec, "attr", None))  # None: a COUNT
            x = None if col is None else col[event[mask]]
            folded.append(spec.fold_segments(x, weight[mask], select_cuts(mask, cuts)))
        return [finalize(self.specs, node) for node in zip(final, *folded)]

    def result(self) -> dict:
        """Finalized aggregates (Lines 15-16)."""
        return finalize(self.specs, self.H.get(self.end, self.final))

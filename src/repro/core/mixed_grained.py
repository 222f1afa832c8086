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
algebra in :mod:`repro.core.aggregates`. Time O(n*(t + n_e)), space
Theta(t + n_e) (Theorems 5.2-5.3).

With no predicates on adjacent events T_e is empty and this is exactly
Algorithm 1, the type-grained aggregator: every previously matched event
of a predecessor type is adjacent (Definition 7), events are discarded
immediately, the final count is end(P).count (Theorem 4.1), time is
O(n*l) and space Theta(l) (Theorems 4.2-4.3). The executor therefore runs
this one class for both the TYPE and the MIXED granularity of Table 4.
"""
from __future__ import annotations

from repro.core.aggregates import (
    apply_event_slots,
    finalize_slots,
    init_slots,
    merge_slots,
)
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, StateMeter


class MixedGrainedAggregator:
    """Incremental Algorithm 2: type-grained store H over T_t plus stored
    events V for the predicate-restricted types T_e (Algorithm 1 when T_e
    is empty)."""

    def __init__(self, cq: CompiledQuery, *, exact: bool = True) -> None:
        self.cq = cq
        self.specs = cq.specs
        self.zero, self.one = (0, 1) if exact else (0.0, 1.0)
        self.preds = cq.adjacent_predicates
        an = cq.analysis
        self.start, self.end = an.start, an.end
        self.pred_types = {t: tuple(s) for t, s in an.pred_types.items()}
        t_event = cq.event_grained_types  # T_e (Lines 3-4: removed from H)
        # H: type-grained store over T_t (Lines 1-2).
        self.H: dict[str, list] = {
            t: [self.zero, *init_slots(self.specs)]
            for t in an.types
            if t not in t_event
        }
        # V: stored events per event-grained type: list of
        # (attrs, count, slots) in arrival order (Lines 9-10).
        self.V: dict[str, list] = {t: [] for t in t_event}
        # Separate final accumulator, used when end(P) is event-grained
        # (Lines 14, 16). It is metered only when T_e is non-empty, so the
        # state of Algorithm 1 (T_e empty) is the Theta(l) store H alone.
        self.final = [self.zero, *init_slots(self.specs)]
        self.events_processed = 0
        self.meter = StateMeter()
        nodes = len(self.H) + bool(t_event)
        self.meter.add(nodes * (1 + len(self.specs)) * BYTES_PER_AGG)

    def update(self, etype: str, attrs: dict):
        """Process one event (Lines 5-14); returns its e.count, or None if
        the event's type is irrelevant to the pattern."""
        if etype not in self.pred_types:
            return None
        self.events_processed += 1
        specs = self.specs
        nslots = len(specs)
        e_count = self.one if etype == self.start else self.zero
        slots = init_slots(specs)
        for ep in self.pred_types[etype]:
            node = self.H.get(ep)
            if node is not None:  # Line 8: type-grained predecessor
                e_count += node[0]
                if nslots:
                    merge_slots(specs, slots, node[1:])
            else:  # Lines 9-10: stored predecessor events, theta-checked
                for p_attrs, p_count, p_slots in self.V[ep]:
                    if adjacency_holds(self.preds, ep, p_attrs, etype, attrs):
                        e_count += p_count
                        if nslots:
                            merge_slots(specs, slots, p_slots)
        apply_event_slots(specs, slots, etype, attrs, e_count)
        node = self.H.get(etype)
        if node is not None:  # Lines 11-13
            node[0] += e_count
            for i in range(nslots):
                node[i + 1] = specs[i].merge(node[i + 1], slots[i])
        else:
            self.V[etype].append((attrs, e_count, slots))
            self.meter.add(BYTES_PER_EVENT + (1 + nslots) * BYTES_PER_AGG)
            if etype == self.end:  # Line 14
                self.final[0] += e_count
                for i in range(nslots):
                    self.final[i + 1] = specs[i].merge(self.final[i + 1], slots[i])
        return e_count

    def trace_row(self, etype: str, e_count):
        """Table-6 columns after a matched event: e.count, the updated
        count of its type (None if event-grained) and the final count."""
        if e_count is None:
            return None
        node = self.H.get(etype)
        return {
            "e_count": e_count,
            "type_count": None if node is None else node[0],
            "final_count": self.H.get(self.end, self.final)[0],
        }

    def result(self) -> dict:
        """Finalized aggregates (Lines 15-16)."""
        end_node = self.H.get(self.end, self.final)
        return finalize_slots(self.specs, end_node[1:], end_node[0])

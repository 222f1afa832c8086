"""Type-Grained Aggregator — Algorithm 1 (paper Section 4).

For queries under skip-till-any-match with no predicates on adjacent
events, one aggregate per event type of the pattern suffices: when an
event ``e`` of type ``E`` arrives, every previously matched event of a
predecessor type of ``E`` is adjacent to ``e`` (Definition 7), so

    e.count = sum of E'.count over E' in predTypes(E)  (+1 if E = start(P))
    E.count += e.count
    final_count = end(P).count                          (Theorem 4.1)

and analogously for the other aggregation functions via the Table-8
algebra in :mod:`repro.core.aggregates`. Events are discarded immediately;
time O(n*l), space Theta(l) (Theorems 4.2-4.3).

:class:`TypeGrainedAggregator` is a picklable object holding Theta(l)
state: the executor's ``fold`` feeds it one substream, and the Structured
Streaming runner keeps one per (group, window) key.
"""
from __future__ import annotations

from repro.core.aggregates import (
    apply_event_slots,
    finalize_slots,
    init_slots,
    merge_slots,
)
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, StateMeter


class TypeGrainedAggregator:
    """Incremental Algorithm 1: one (count, slots) node per pattern type."""

    def __init__(self, cq: CompiledQuery, *, exact: bool = True) -> None:
        self.cq = cq
        self.specs = cq.specs
        self.zero, self.one = (0, 1) if exact else (0.0, 1.0)
        an = cq.analysis
        self.start, self.end = an.start, an.end
        self.pred_types = {t: tuple(s) for t, s in an.pred_types.items()}
        # H: type -> [count, slot_0, ..., slot_{k-1}]  (Lines 1-2 of Alg. 1)
        self.H: dict[str, list] = {
            t: [self.zero, *init_slots(self.specs)] for t in an.types
        }
        self.events_processed = 0
        self.meter = StateMeter()
        self.meter.add(len(self.H) * (1 + len(self.specs)) * BYTES_PER_AGG)

    def update(self, etype: str, attrs: dict):
        """Process one event (Lines 3-8); returns its e.count, or None if
        the event's type is irrelevant to the pattern."""
        if etype not in self.pred_types:
            return None
        self.events_processed += 1
        specs = self.specs
        e_count = self.one if etype == self.start else self.zero
        slots = init_slots(specs)
        for ep in self.pred_types[etype]:
            node = self.H[ep]
            e_count += node[0]
            if specs:
                merge_slots(specs, slots, node[1:])
        apply_event_slots(specs, slots, etype, attrs, e_count)
        node = self.H[etype]
        node[0] += e_count
        for i in range(len(specs)):
            node[i + 1] = specs[i].merge(node[i + 1], slots[i])
        return e_count

    def trace_row(self, etype: str, e_count):
        """Table-5 columns after a matched event: e.count and the updated
        count of its type."""
        if e_count is None:
            return None
        return {"e_count": e_count, "type_count": self.H[etype][0]}

    def result(self) -> dict:
        """Finalized aggregates of the end type (Line 9)."""
        end_node = self.H[self.end]
        return finalize_slots(self.specs, end_node[1:], end_node[0])

"""Pattern-Grained Aggregator — Algorithm 3 (paper Section 6).

Under skip-till-next-match (NEXT) and contiguous (CONT) semantics every
event has at most one predecessor event (Theorem 6.1), so only the last
matched event and two aggregates are kept:

    e.count = e_l.count  if (e_l, e) adjacent   (+1 if E = start(P))
    final_count += e.count  when E = end(P)

Under CONT, an arriving event that is *not* matched invalidates all
partial trends (e_l := null); under NEXT it is skipped. Events of types
outside the pattern are irrelevant: skipped under NEXT, invalidating under
CONT (the paper's c5 example). Time O(n), space O(1) (Theorems 6.3-6.4).
"""
from __future__ import annotations

from repro.core.aggregates import apply_event_slots, finalize_slots, init_slots
from repro.core.granularity import Semantics
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, StateMeter


class PatternGrainedAggregator:
    """Incremental Algorithm 3: O(1) state — the last matched event, its
    aggregates, and the final aggregates."""

    def __init__(self, cq: CompiledQuery) -> None:
        if cq.semantics not in (Semantics.NEXT, Semantics.CONT):
            raise ValueError("pattern-grained aggregation requires NEXT or CONT")
        self.specs = cq.specs
        self.preds = cq.adjacent_predicates
        self.cont = cq.semantics is Semantics.CONT
        an = cq.analysis
        self.start, self.end = an.start, an.end
        self.pred_types = {t: tuple(s) for t, s in an.pred_types.items()}
        # Line 1: e_l = null, counts = 0.
        self.el_type: str | None = None
        self.el_attrs: dict = {}
        self.el_count = 0
        self.el_slots = init_slots(self.specs)
        self.final_count = 0
        self.final_slots = init_slots(self.specs)
        self.events_processed = 0
        self.meter = StateMeter()
        self.meter.add(
            BYTES_PER_EVENT + 2 * (1 + len(self.specs)) * BYTES_PER_AGG
        )

    def _reset_partials(self) -> None:
        self.el_type, self.el_count = None, 0
        self.el_slots = init_slots(self.specs)

    def update(self, etype: str, attrs: dict):
        """Process one event (Lines 2-9); returns its e.count if matched,
        None otherwise (skipped / invalidating)."""
        specs = self.specs
        if etype not in self.pred_types:
            # Irrelevant event type: cannot be part of any trend.
            if self.cont:  # breaks contiguity (Lines 8-9)
                self._reset_partials()
            return None
        self.events_processed += 1
        adjacent = (
            self.el_type is not None
            and self.el_type in self.pred_types[etype]
            and adjacency_holds(self.preds, self.el_type, self.el_attrs, etype, attrs)
        )
        started = etype == self.start
        if started or adjacent:  # isMatched (Line 3)
            count = 1 if started else 0
            if adjacent:
                count += self.el_count
            slots = list(self.el_slots) if adjacent else init_slots(specs)
            apply_event_slots(specs, slots, etype, attrs, count)
            if etype == self.end:  # Line 6
                self.final_count += count
                for i in range(len(specs)):
                    self.final_slots[i] = specs[i].merge(
                        self.final_slots[i], slots[i]
                    )
            self.el_type, self.el_attrs = etype, attrs  # Line 7
            self.el_count, self.el_slots = count, slots
            return count
        if self.cont:  # Lines 8-9: invalidate partial trends
            self._reset_partials()
        return None

    def trace_row(self, etype: str, e_count):
        """Table-7 columns after every arriving event, matched or not: the
        last matched event's count and the final count."""
        return {"e_count": self.el_count, "final_count": self.final_count}

    def result(self) -> dict:
        """Finalized aggregates (Line 10)."""
        return finalize_slots(self.specs, self.final_slots, self.final_count)

"""GRETA baseline — online event-grained trend aggregation (paper §9.1).

GRETA [Poppe et al., VLDB'17] avoids trend construction but maintains an
aggregate *per matched event*: every matched event is inserted into the
GRETA graph with its intermediate count, and a new event sums the counts
of all compatible predecessor events (edges are recomputed, not stored).
Supports skip-till-any-match only (Table 9). Time O(n^2), space O(n) —
the finest granularity, which Cogra's Table-4 selection improves on.
"""
from __future__ import annotations

from repro.core.aggregates import (
    apply_event_slots,
    finalize_slots,
    init_slots,
    merge_slots,
)
from repro.core.events import Event, Substream
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, Budget, KernelResult


def run_greta(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Event-grained online aggregation over one substream."""
    events = sub.rows()
    an = cq.analysis
    specs = cq.specs
    preds = cq.adjacent_predicates
    nslots = len(specs)

    # The GRETA graph: every matched event with its event-grained
    # aggregates, bucketed by type for predecessor lookups.
    graph: dict[str, list[tuple[Event, object, list]]] = {
        t: [] for t in an.pred_types
    }
    final_count = 0
    final_slots = init_slots(specs)
    for e in events:
        et = e.etype
        if et not in an.pred_types:
            continue
        e_count = 1 if et == an.start else 0
        slots = init_slots(specs)
        for ep_type in an.pred_types[et]:
            for p_event, p_count, p_slots in graph[ep_type]:
                budget.charge(1)
                if p_event.time < e.time and adjacency_holds(
                    preds, ep_type, p_event.attrs, et, e.attrs
                ):
                    e_count += p_count
                    if nslots:
                        merge_slots(specs, slots, p_slots)
        apply_event_slots(specs, slots, et, e.attrs, e_count)
        graph[et].append((e, e_count, slots))
        res.meter.add(BYTES_PER_EVENT + (1 + nslots) * BYTES_PER_AGG)
        if et == an.end:
            final_count += e_count
            merge_slots(specs, final_slots, slots)
    return finalize_slots(specs, final_slots, final_count)

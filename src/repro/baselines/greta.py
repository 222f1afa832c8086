"""GRETA baseline — online event-grained trend aggregation (paper §9.1).

GRETA [Poppe et al., VLDB'17] avoids trend construction but maintains an
aggregate *per matched event*: every matched event is inserted into the
GRETA graph with its node ``[count, *slots]`` (:mod:`repro.core.aggregates`),
and a new event's node absorbs the nodes of all compatible predecessor
events (edges are recomputed, not stored) before the event extends it.
Supports skip-till-any-match only (Table 9). Time O(n^2), space O(n) —
the finest granularity, which Cogra's Table-4 selection improves on.
"""
from __future__ import annotations

from repro.core.aggregates import absorb, extend, finalize, new_node
from repro.core.events import Event, Substream
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, BYTES_PER_EVENT, Budget, KernelResult


def run_greta(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Event-grained online aggregation over one substream."""
    an = cq.analysis
    specs = cq.specs
    preds = cq.adjacent_predicates

    # The GRETA graph: every matched event with its node, bucketed by type
    # for predecessor lookups.
    graph: dict[str, list[tuple[Event, list]]] = {t: [] for t in an.pred_types}
    final = new_node(specs, 0)
    for e in sub.rows():
        et = e.etype
        if et not in an.pred_types:
            continue
        node = new_node(specs, 1 if et == an.start else 0)
        for ep_type in an.pred_types[et]:
            for p_event, p_node in graph[ep_type]:
                budget.charge(1)
                if p_event.time < e.time and adjacency_holds(
                    preds, ep_type, p_event.attrs, et, e.attrs
                ):
                    absorb(specs, node, p_node)
        extend(specs, node, et, e.attrs)
        graph[et].append((e, node))
        res.meter.add(BYTES_PER_EVENT + (1 + len(specs)) * BYTES_PER_AGG)
        if et == an.end:
            absorb(specs, final, node)
    return finalize(specs, final)

"""A-Seq baseline — online aggregation of fixed-length sequences (§9.1).

A-Seq [Qi et al., SIGMOD'14] aggregates event *sequences* online by
maintaining a counter per pattern prefix — but it has no Kleene closure,
supports only skip-till-any-match, and no predicates on adjacent events
beyond equivalence predicates (Table 9). Following the paper's
methodology, a Kleene query is flattened into the workload of fixed-length
sequence queries covering every match length up to the longest possible
match. A-Seq runs the whole workload online, with one prefix counter per
*distinct* query prefix — the workload forms a trie over the pattern's
FSA digraph, rooted at the start type.

Consequences reproduced faithfully: the number of prefixes (and hence
memory and per-event work) grows with the number of events per window —
linearly for single-path flattenings such as ``A+`` or ``SEQ(A+, B)``
(the paper's Figure-8 observation: "memory usage of A-Seq grows linearly
with the number of queries, i.e. with the number of events").

The prefix cells carry the full Table-8 slot algebra, so A-Seq supports
the same aggregation functions on its supported query class.
"""
from __future__ import annotations

from repro.core.aggregates import (
    apply_event_slots,
    finalize_slots,
    init_slots,
    merge_slots,
)
from repro.core.events import Event
from repro.core.granularity import Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import (
    BYTES_PER_AGG,
    Budget,
    BudgetExceeded,
    KernelResult,
    StateMeter,
)


def run_aseq(
    events: list[Event],
    cq: CompiledQuery,
    *,
    exact: bool = True,
    budget: Budget | None = None,
    flatten_cap: int | None = None,
) -> KernelResult:
    """Flattened prefix-trie workload over one substream (ANY only,
    no predicates on adjacent events). ``flatten_cap`` bounds the
    flattened query lengths like in the Flink baseline."""
    if cq.semantics is not Semantics.ANY:
        raise ValueError("A-Seq supports skip-till-any-match only")
    if cq.adjacent_predicates:
        raise ValueError("A-Seq does not support predicates on adjacent events")
    budget = budget or Budget()
    meter = StateMeter()
    an = cq.analysis
    specs = cq.specs
    nslots = len(specs)
    zero = 0 if exact else 0.0
    one = 1 if exact else 1.0
    relevant = [e for e in events if e.etype in an.pred_types]
    n = len(relevant)
    max_len = n if flatten_cap is None else min(n, flatten_cap)

    # Trie node: [etype, parent_index, count, slot_0..slot_{k-1}].
    # Node 0 is the virtual root (count 1: "one way to match nothing").
    CELL0 = 3  # offset of slot_0 within a node row
    nodes: list[list] = [[None, -1, one, *init_slots(specs)]]
    by_type: dict[str, list[int]] = {t: [] for t in an.pred_types}
    finals: list[int] = []

    try:
        # Build the flattened workload up to the longest possible match
        # length (= number of relevant events), breadth-first so parents
        # precede children.
        frontier = []
        if max_len >= 1:
            nodes.append([an.start, 0, zero, *init_slots(specs)])
            by_type[an.start].append(1)
            frontier = [1]
            if an.start == an.end:
                finals.append(1)
            meter.add((1 + nslots) * BYTES_PER_AGG)
            budget.charge(1)
        for _depth in range(2, max_len + 1):
            nxt = []
            for pi in frontier:
                ptype = nodes[pi][0]
                for t in an.succ_types[ptype]:
                    ni = len(nodes)
                    nodes.append([t, pi, zero, *init_slots(specs)])
                    by_type[t].append(ni)
                    if t == an.end:
                        finals.append(ni)
                    nxt.append(ni)
                    meter.add((1 + nslots) * BYTES_PER_AGG)
                    budget.charge(1)
            frontier = nxt

        # Online phase: an event of type t advances every prefix cell
        # labelled t from its parent cell. Children were appended after
        # parents, so iterating the per-type list in reverse prevents an
        # event from chaining with itself inside one workload query.
        for e in relevant:
            attrs = e.attrs
            et = e.etype
            for ni in reversed(by_type[et]):
                budget.charge(1)
                node = nodes[ni]
                parent = nodes[node[1]]
                p_count = parent[2]
                if p_count == zero:
                    continue
                slots = init_slots(specs)
                if nslots:
                    merge_slots(specs, slots, parent[CELL0:])
                apply_event_slots(specs, slots, et, attrs, p_count)
                node[2] += p_count
                for i in range(nslots):
                    node[CELL0 + i] = specs[i].merge(node[CELL0 + i], slots[i])
    except BudgetExceeded:
        return KernelResult(
            aggregates={s.name: None for s in specs},
            events_processed=n,
            peak_state_bytes=meter.peak,
            dnf=True,
        )

    final_count = zero
    final_slots = init_slots(specs)
    for ni in finals:
        node = nodes[ni]
        final_count += node[2]
        for i in range(nslots):
            final_slots[i] = specs[i].merge(final_slots[i], node[CELL0 + i])
    return KernelResult(
        aggregates=finalize_slots(specs, final_slots, final_count),
        events_processed=n,
        peak_state_bytes=meter.peak,
    )

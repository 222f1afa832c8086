"""A-Seq baseline — online aggregation of fixed-length sequences (§9.1).

A-Seq [Qi et al., SIGMOD'14] aggregates event *sequences* online by
maintaining a counter per pattern prefix — but it has no Kleene closure,
supports only skip-till-any-match, and no predicates on adjacent events
beyond equivalence predicates (Table 9). Following the paper's
methodology, a Kleene query is flattened into the workload of fixed-length
sequence queries covering every match length up to the longest possible
match. Under skip-till-any-match any subsequence of the relevant events can
be a match, so that length L is the number of relevant events in the
substream. A-Seq runs the whole workload online, with one prefix counter per
*distinct* query prefix — the workload forms a trie over the pattern's
FSA digraph, rooted at the start type.

Consequences reproduced faithfully: the number of prefixes (and hence
memory and per-event work) grows with the number of events per window —
linearly for single-path flattenings such as ``A+`` or ``SEQ(A+, B)``
(the paper's Figure-8 observation: "memory usage of A-Seq grows linearly
with the number of queries, i.e. with the number of events").

Each prefix cell holds one node ``[count, *slots]`` of the Table-8
algebra (:mod:`repro.core.aggregates`), so A-Seq supports the same
aggregation functions on its supported query class.
"""
from __future__ import annotations

from repro.core.aggregates import absorb, extend, finalize, new_node
from repro.core.events import Substream
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_AGG, Budget, KernelResult


def run_aseq(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Flattened prefix-trie workload over one substream."""
    meter = res.meter
    an = cq.analysis
    specs = cq.specs
    relevant = [e for e in sub.rows() if e.etype in an.pred_types]
    n = len(relevant)

    # Trie cell: (etype, parent index, node). Cell 0 is the virtual root
    # (count 1: "one way to match nothing").
    cells: list[tuple] = [(None, -1, new_node(specs, 1))]
    by_type: dict[str, list[int]] = {t: [] for t in an.pred_types}
    finals: list[int] = []

    # Build the flattened workload up to the longest possible match
    # length (= number of relevant events), breadth-first so parents
    # precede children.
    frontier = [0]
    for depth in range(1, n + 1):
        nxt = []
        for pi in frontier:
            for t in [an.start] if depth == 1 else an.succ_types[cells[pi][0]]:
                ci = len(cells)
                cells.append((t, pi, new_node(specs, 0)))
                by_type[t].append(ci)
                if t == an.end:
                    finals.append(ci)
                nxt.append(ci)
                meter.add((1 + len(specs)) * BYTES_PER_AGG)
                budget.charge(1)
        frontier = nxt

    # Online phase: an event of type t advances every prefix cell
    # labelled t from its parent cell: the parent's node, extended by the
    # event, is absorbed into the cell. Children were appended after
    # parents, so iterating the per-type list in reverse prevents an
    # event from chaining with itself inside one workload query.
    for e in relevant:
        for ci in reversed(by_type[e.etype]):
            budget.charge(1)
            _, pi, node = cells[ci]
            parent = cells[pi][2]
            if parent[0] == 0:
                continue
            step = list(parent)
            extend(specs, step, e.etype, e.attrs)
            absorb(specs, node, step)

    final = new_node(specs, 0)
    for ci in finals:
        absorb(specs, final, cells[ci][2])
    return finalize(specs, final)

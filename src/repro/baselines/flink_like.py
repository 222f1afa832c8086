"""Flink-like baseline — fixed-length sequence workload (paper Section 9.1).

Industrial streaming systems (Flink, Esper, Oracle Stream Analytics) have
no Kleene closure. Following the paper's methodology, a Kleene query is
*flattened*: determine the length L of the longest possible match, then
run one fixed-length event sequence query per match length up to L. Each
sequence query is evaluated two-step — all matching sequences are
constructed and stored, then aggregated. Flink supports the
skip-till-any-match and contiguous semantics only (Table 9).

Costs reproduced faithfully: per-length query workload (L separate
evaluations), exponential construction under ANY, and memory linear in
the total size of all stored sequences.
"""
from __future__ import annotations

from repro.baselines.trend_agg import TrendAccumulator
from repro.core.events import Event
from repro.core.granularity import Semantics
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery
from repro.harness.metrics import (
    BYTES_PER_EVENT,
    Budget,
    BudgetExceeded,
    KernelResult,
    StateMeter,
)


def type_paths(cq: CompiledQuery, length: int, budget: Budget) -> list[tuple[str, ...]]:
    """All type sequences of exactly ``length`` accepted by the pattern
    (paths start(P) -> end(P) in the FSA digraph) — the flattened
    fixed-length queries for that length."""
    an = cq.analysis
    out: list[tuple[str, ...]] = []
    path = [an.start]

    def dfs() -> None:
        budget.charge(1)
        if len(path) == length:
            if path[-1] == an.end:
                out.append(tuple(path))
            return
        for nxt in an.succ_types[path[-1]]:
            path.append(nxt)
            dfs()
            path.pop()

    dfs()
    return out


def _matches_any(
    relevant: list[Event],
    by_type: dict[str, list[int]],
    cq: CompiledQuery,
    path: tuple[str, ...],
    budget: Budget,
    emit,
) -> None:
    """All event subsequences matching one fixed type path under ANY."""
    preds = cq.adjacent_predicates
    seq: list[Event] = []

    def dfs(pos: int, min_idx: int) -> None:
        budget.charge(1)
        if pos == len(path):
            emit(tuple(seq))
            return
        for i in by_type[path[pos]]:
            if i < min_idx:
                continue
            e = relevant[i]
            if seq:
                last = seq[-1]
                if not (
                    last.time < e.time
                    and adjacency_holds(preds, last.etype, last.attrs, e.etype, e.attrs)
                ):
                    continue
            seq.append(e)
            dfs(pos + 1, i + 1)
            seq.pop()

    dfs(0, 0)


def _matches_cont(
    events: list[Event],
    cq: CompiledQuery,
    path: tuple[str, ...],
    budget: Budget,
    emit,
) -> None:
    """All contiguous event runs matching one fixed type path (CONT)."""
    preds = cq.adjacent_predicates
    L = len(path)
    for o in range(len(events) - L + 1):
        budget.charge(1)
        ok = True
        for k in range(L):
            e = events[o + k]
            if e.etype != path[k]:
                ok = False
                break
            if k and not (
                events[o + k - 1].time < e.time
                and adjacency_holds(
                    preds, events[o + k - 1].etype, events[o + k - 1].attrs,
                    e.etype, e.attrs,
                )
            ):
                ok = False
                break
        if ok:
            emit(tuple(events[o : o + L]))


def run_flink_like(
    events: list[Event],
    cq: CompiledQuery,
    *,
    exact: bool = True,
    budget: Budget | None = None,
    flatten_cap: int | None = None,
) -> KernelResult:
    """Flattened fixed-length sequence workload over one substream.

    ``flatten_cap`` bounds the flattened query lengths — the paper's
    methodology fixes "the length l of the longest match" a priori; with
    no cap, the worst case (longest possible match = substream size) is
    assumed, which is exact but maximally expensive.
    """
    if cq.semantics is Semantics.NEXT:
        raise ValueError("Flink baseline does not support skip-till-next-match")
    budget = budget or Budget()
    meter = StateMeter()
    an = cq.analysis
    relevant = [e for e in events if e.etype in an.pred_types]
    by_type: dict[str, list[int]] = {t: [] for t in an.pred_types}
    for i, e in enumerate(relevant):
        by_type[e.etype].append(i)
    n = len(relevant)
    # Flink stores every constructed sequence before aggregating.
    stored: list[tuple[Event, ...]] = []

    def emit(seq: tuple[Event, ...]) -> None:
        stored.append(seq)
        meter.add(len(seq) * BYTES_PER_EVENT)
        budget.charge(len(seq))

    try:
        max_len = n if flatten_cap is None else min(n, flatten_cap)
        for length in range(1, max_len + 1):
            for path in type_paths(cq, length, budget):
                if cq.semantics is Semantics.ANY:
                    _matches_any(relevant, by_type, cq, path, budget, emit)
                else:
                    _matches_cont(events, cq, path, budget, emit)
    except BudgetExceeded:
        return KernelResult(
            aggregates={s.name: None for s in cq.specs},
            events_processed=n,
            peak_state_bytes=meter.peak,
            dnf=True,
            trends_constructed=len(stored),
        )
    acc = TrendAccumulator(cq.specs)
    for seq in stored:
        acc.add_trend(seq)
    return KernelResult(
        aggregates=acc.result(),
        events_processed=n,
        peak_state_bytes=meter.peak,
        trends_constructed=len(stored),
    )

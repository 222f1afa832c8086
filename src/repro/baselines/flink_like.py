"""Flink-like baseline — fixed-length sequence workload (paper Section 9.1).

Industrial streaming systems (Flink, Esper, Oracle Stream Analytics) have
no Kleene closure. Following the paper's methodology, a Kleene query is
*flattened*: determine the length L of the longest possible match, then
run one fixed-length event sequence query per match length up to L. Each
sequence query is evaluated two-step — all matching sequences are
constructed and stored, then aggregated. Flink supports the
skip-till-any-match and contiguous semantics only (Table 9).

L is measured on each substream (``flatten_length``). Under ANY it is the
number of relevant events. Under CONT it is the longest stretch of
consecutive events each adjacent (Definition 7) to the one before; an
event of a type outside the pattern breaks the stretch. No match is
longer than L, so the flattened workload is exact.

Costs reproduced faithfully: per-length query workload (L separate
evaluations), exponential construction under ANY, and memory linear in
the total size of all stored sequences.
"""
from __future__ import annotations

from repro.baselines.bruteforce import TrendAccumulator, is_adjacent
from repro.core.events import Event, Substream
from repro.core.granularity import Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import BYTES_PER_EVENT, Budget, KernelResult


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
            if seq and not is_adjacent(cq, seq[-1], e):
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
    L = len(path)
    for o in range(len(events) - L + 1):
        budget.charge(1)
        ok = True
        for k in range(L):
            e = events[o + k]
            if e.etype != path[k] or (k and not is_adjacent(cq, events[o + k - 1], e)):
                ok = False
                break
        if ok:
            emit(tuple(events[o : o + L]))


def flatten_length(events: list[Event], cq: CompiledQuery) -> int:
    """The length L of the longest possible match in one substream: the
    number of relevant events under ANY; under CONT the longest stretch of
    consecutive events in which each is adjacent to the one before (one
    O(n) scan)."""
    an = cq.analysis
    if cq.semantics is Semantics.ANY:
        return sum(1 for e in events if e.etype in an.pred_types)
    longest = run = 0
    last: Event | None = None
    for e in events:
        if e.etype not in an.pred_types:
            run, last = 0, None
            continue
        run = run + 1 if last is not None and is_adjacent(cq, last, e) else 1
        longest = max(longest, run)
        last = e
    return longest


def run_flink_like(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Flattened fixed-length sequence workload over one substream: one
    sequence query per match length 1..``flatten_length``."""
    events = sub.rows()
    an = cq.analysis
    relevant = [e for e in events if e.etype in an.pred_types]
    by_type: dict[str, list[int]] = {t: [] for t in an.pred_types}
    for i, e in enumerate(relevant):
        by_type[e.etype].append(i)
    # Flink stores every constructed sequence before aggregating.
    stored: list[tuple[Event, ...]] = []

    def emit(seq: tuple[Event, ...]) -> None:
        stored.append(seq)
        res.trends_constructed += 1
        res.meter.add(len(seq) * BYTES_PER_EVENT)
        budget.charge(len(seq))

    for length in range(1, flatten_length(events, cq) + 1):
        for path in type_paths(cq, length, budget):
            if cq.semantics is Semantics.ANY:
                _matches_any(relevant, by_type, cq, path, budget, emit)
            else:
                _matches_cont(events, cq, path, budget, emit)
    acc = TrendAccumulator(cq.specs)
    for seq in stored:
        acc.add_trend(seq)
    return acc.result()

"""SASE baseline — two-step Kleene evaluation (paper Section 9.1).

SASE [Zhang, Diao, Immerman, SIGMOD'14] supports Kleene closure and all
three matching semantics but performs no aggregation push-down: it first
*constructs every trend* and then aggregates. Following the paper's
description:

* each matched event is stored in a per-type stack together with
  *pointers* to its possible predecessor events (the SASE+ shared match
  buffer);
* per window, a DFS traverses the pointers to construct all trends, which
  are then aggregated; only the current trend is materialized at a time
  (Section 9.3), so memory = events + pointers + current-trend depth,
  while time is proportional to the total constructed-trend length —
  exponential under ANY, polynomial under NEXT/CONT (Table 3).
"""
from __future__ import annotations

from repro.baselines.bruteforce import TrendAccumulator, is_adjacent
from repro.core.events import Event, Substream
from repro.core.granularity import Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import (
    BYTES_PER_EVENT, BYTES_PER_POINTER, Budget, KernelResult,
)


def _construct_any(
    events: list[Event],
    cq: CompiledQuery,
    acc: TrendAccumulator,
    res: KernelResult,
    budget: Budget,
) -> None:
    """Stack/pointer construction + DFS enumeration under ANY."""
    an = cq.analysis
    meter = res.meter
    relevant = [e for e in events if e.etype in an.pred_types]
    # Step 1: store events and compute predecessor pointers.
    meter.add(len(relevant) * BYTES_PER_EVENT)
    pointers: list[list[int]] = []
    for i, e in enumerate(relevant):
        ptrs = [j for j in range(i) if is_adjacent(cq, relevant[j], e)]
        pointers.append(ptrs)
        meter.add(len(ptrs) * BYTES_PER_POINTER)
        budget.charge(max(1, i))
    # Step 2: DFS backwards from end-type events; a trend begins at any
    # start-type event on the path. Only the current path is stored.
    start, end = an.start, an.end
    path: list[Event] = []

    def dfs(i: int) -> None:
        budget.charge(1)
        path.append(relevant[i])
        meter.add(BYTES_PER_EVENT)
        if relevant[i].etype == start:
            acc.add_trend(tuple(reversed(path)))
            res.trends_constructed += 1
        for j in pointers[i]:
            dfs(j)
        path.pop()
        meter.remove(BYTES_PER_EVENT)

    for i, e in enumerate(relevant):
        if e.etype == end:
            dfs(i)


def _construct_next_cont(
    events: list[Event],
    cq: CompiledQuery,
    acc: TrendAccumulator,
    res: KernelResult,
    budget: Budget,
) -> None:
    """Two-step run construction under NEXT/CONT: partial trends are
    materialized (copy-on-extend), unlike Cogra's O(1) counters."""
    an = cq.analysis
    meter = res.meter
    cont = cq.semantics is Semantics.CONT
    partials: list[list[Event]] = []
    partial_bytes = 0
    last: Event | None = None

    def drop_partials() -> None:
        nonlocal partials, partial_bytes, last
        meter.remove(partial_bytes)
        partials, partial_bytes, last = [], 0, None

    for e in events:
        if e.etype not in an.pred_types:
            if cont:
                drop_partials()
            continue
        adjacent = last is not None and is_adjacent(cq, last, e)
        started = e.etype == an.start
        if started or adjacent:
            if adjacent:
                new_partials = []
                for p in partials:
                    budget.charge(len(p) + 1)
                    new_partials.append(p + [e])
            else:
                new_partials = []
            if started:
                budget.charge(1)
                new_partials.append([e])
            meter.remove(partial_bytes)
            partial_bytes = sum(len(p) for p in new_partials) * BYTES_PER_EVENT
            meter.add(partial_bytes)
            if e.etype == an.end:
                for p in new_partials:
                    acc.add_trend(tuple(p))
                res.trends_constructed += len(new_partials)
            partials, last = new_partials, e
        elif cont:
            drop_partials()


def run_sase(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Two-step SASE over one substream: construct, then aggregate."""
    events = sub.rows()
    acc = TrendAccumulator(cq.specs)
    if cq.semantics is Semantics.ANY:
        _construct_any(events, cq, acc, res, budget)
    else:
        _construct_next_cont(events, cq, acc, res, budget)
    return acc.result()

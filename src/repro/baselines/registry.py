"""Approach registry — the expressive-power matrix of paper Table 9.

Maps each evaluated approach to its kernel and its capability envelope
(Kleene closure, supported semantics, predicates on adjacent events,
online vs two-step), so the harness can skip an approach on queries it
does not support — exactly how the paper's charts omit unsupported
combinations.

``run_approach`` is the one entry point of every kernel run. It takes a
:class:`~repro.core.events.Substream` (or a time-ordered ``Event`` list),
checks the Table-9 envelope and, as column operations, the attribute
domains and the relevant-event count (``executor.check_substream``),
defaults the budget, times the run and turns an exhausted budget into a
DNF row. A kernel only folds: ``run(sub, cq, res, budget)`` returns the
aggregates, accounts its state in ``res.meter`` and, if it constructs
trends, counts them in ``res.trends_constructed``. Cogra under CONT reads
the substream's columns; every other kernel reads its ``Event`` rows,
which are built before the clock starts.

``run_approach_windows`` is its per-group form, the one the Spark runner
calls: one ``KernelResult`` per window of ``executor.window_runs`` (the
group's covering windows as slices, their relevant-event counts, one
domain check per group). Cogra at the TYPE granularity folds every window
in one shared pass (``MixedGrainedAggregator.scan_windows``), and each
window's ``kernel_seconds`` is an even share of that pass; every other
run is ``run_approach``'s timed kernel call on each window's slice.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.aseq import run_aseq
from repro.baselines.flink_like import run_flink_like
from repro.baselines.greta import run_greta
from repro.baselines.sase import run_sase
from repro.core.events import Event, Substream
from repro.core.executor import as_substream, check_substream, fold, make_aggregator, window_runs
from repro.core.granularity import Granularity, Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import Budget, BudgetExceeded, KernelResult


def run_cogra(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Cogra: the coarsest-granularity aggregator; it needs no budget."""
    agg = fold(make_aggregator(cq), sub)
    res.meter = agg.meter
    return agg.result()


@dataclass(frozen=True)
class ApproachInfo:
    """One row of Table 9."""

    name: str
    kleene: bool  # native Kleene closure (False = flattened workload)
    semantics: frozenset[Semantics]
    adjacent_predicates: bool
    online: bool  # online trend aggregation (no construction step)
    run: Callable[[Substream, CompiledQuery, KernelResult, Budget], dict]
    # Not Table 9: the semantics under which ``run`` reads columns only.
    columnar: frozenset[Semantics] = frozenset()


APPROACHES: dict[str, ApproachInfo] = {
    "flink": ApproachInfo(
        name="flink",
        kleene=False,
        semantics=frozenset({Semantics.ANY, Semantics.CONT}),
        adjacent_predicates=True,
        online=False,
        run=run_flink_like,
    ),
    "sase": ApproachInfo(
        name="sase",
        kleene=True,
        semantics=frozenset({Semantics.ANY, Semantics.NEXT, Semantics.CONT}),
        adjacent_predicates=True,
        online=False,
        run=run_sase,
    ),
    "greta": ApproachInfo(
        name="greta",
        kleene=True,
        semantics=frozenset({Semantics.ANY}),
        adjacent_predicates=True,
        online=True,
        run=run_greta,
    ),
    "aseq": ApproachInfo(
        name="aseq",
        kleene=False,
        semantics=frozenset({Semantics.ANY}),
        adjacent_predicates=False,
        online=True,
        run=run_aseq,
    ),
    "cogra": ApproachInfo(
        name="cogra",
        kleene=True,
        semantics=frozenset({Semantics.ANY, Semantics.NEXT, Semantics.CONT}),
        adjacent_predicates=True,
        online=True,
        run=run_cogra,
        columnar=frozenset({Semantics.CONT}),
    ),
}


def supports(name: str, cq: CompiledQuery) -> bool:
    """True iff the approach can evaluate the compiled query (Table 9)."""
    info = APPROACHES[name]
    if cq.semantics not in info.semantics:
        return False
    if cq.adjacent_predicates and not info.adjacent_predicates:
        return False
    return True


def _info(name: str, cq: CompiledQuery) -> ApproachInfo:
    if not supports(name, cq):
        raise ValueError(f"approach {name!r} does not support this query (Table 9)")
    return APPROACHES[name]


def _timed_run(
    info: ApproachInfo, sub: Substream, cq: CompiledQuery, events: int, budget: Budget
) -> KernelResult:
    res = KernelResult(events_processed=events)
    t0 = time.perf_counter()
    try:
        res.aggregates = info.run(sub, cq, res, budget)
    except (BudgetExceeded, RecursionError):
        res.aggregates = {s.name: None for s in cq.specs}
        res.dnf = True
    res.kernel_seconds = time.perf_counter() - t0
    res.peak_state_bytes = res.meter.peak
    return res


def run_approach(
    name: str,
    events: Substream | Sequence[Event],
    cq: CompiledQuery,
    *,
    budget: Budget | None = None,
) -> KernelResult:
    """Run one approach over one substream, timing it end to end; a run
    that exhausts its budget (or the interpreter's stack) is a DNF row."""
    info = _info(name, cq)
    sub = as_substream(events, cq)
    relevant = int(check_substream(cq, sub).sum())
    if cq.semantics not in info.columnar:
        sub.rows()  # built once per group, outside the kernel's time
    return _timed_run(info, sub, cq, relevant, budget or Budget())


def run_approach_windows(
    name: str,
    sub: Substream,
    cq: CompiledQuery,
    *,
    new_budget: Callable[[], Budget] = Budget,
) -> list[tuple[int, KernelResult]]:
    """Run one approach over every window of one group's time-ordered
    ``sub``: ``(wid, result)`` in wid order (module docstring). A window's
    run that exhausts its ``new_budget()`` is a DNF row."""
    info = _info(name, cq)
    wids, s, t, events = window_runs(sub, cq)
    if not wids:
        return []
    if name == "cogra" and cq.granularity is Granularity.TYPE:
        agg = make_aggregator(cq)
        t0 = time.perf_counter()
        aggregates = agg.scan_windows(sub, s, t)
        share = (time.perf_counter() - t0) / len(wids)
        return [
            (w, KernelResult(a, e, agg.meter.peak, share))
            for w, a, e in zip(wids, aggregates, events)
        ]
    if cq.semantics not in info.columnar:
        sub.rows()  # built once per group, outside the kernel's time
    return [
        (w, _timed_run(info, sub[x:y], cq, e, new_budget()))
        for w, x, y, e in zip(wids, s, t, events)
    ]

"""Approach registry — the expressive-power matrix of paper Table 9.

Maps each evaluated approach to its kernel and its capability envelope
(Kleene closure, supported semantics, predicates on adjacent events,
online vs two-step), so the harness can skip an approach on queries it
does not support — exactly how the paper's charts omit unsupported
combinations.

``run_approach_windows`` is the one entry point of every kernel run, the
one the Spark runner calls. It takes one group's time-ordered
:class:`~repro.core.events.Substream`, checks the Table-9 envelope, and
returns one ``KernelResult`` per window of ``executor.window_runs`` (the
group's covering windows as slices, their relevant-event counts, one
domain check per group, as column operations). Cogra at the TYPE
granularity folds every window in one shared pass
(``MixedGrainedAggregator.scan_windows``), and each window's
``kernel_seconds`` is an even share of that pass. Every other run is a
timed kernel call on each window's slice, with a fresh budget; an
exhausted budget is a DNF row. A kernel only folds: ``run(sub, cq, res,
budget)`` returns the aggregates, accounts its state in ``res.meter``
and, if it constructs trends, counts them in ``res.trends_constructed``.
Cogra feeds its aggregator through ``fold(sub)``; under CONT it reads the
substream's columns. Every other kernel reads the ``Event`` rows, which
are built once per group before the clock starts.

``run_approach`` is the one-window case: one substream (or a time-ordered
``Event`` list) is window 0, with its own domain check, so it runs the
same kernels as the batch runner, the shared pass included.
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
from repro.core.executor import check_substream, make_aggregator, window_runs
from repro.core.granularity import Granularity, Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import Budget, BudgetExceeded, KernelResult


def run_cogra(
    sub: Substream, cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Cogra: the coarsest-granularity aggregator; it needs no budget."""
    agg = make_aggregator(cq).fold(sub)
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
    """Run one approach over one substream as window 0 of
    ``run_approach_windows`` (module docstring); a run that exhausts its
    budget (or the interpreter's stack) is a DNF row."""
    info = _info(name, cq)
    if not isinstance(events, Substream):
        events = Substream.from_events(events, cq.attr_cols)
    runs = [0], [0], [len(events)], [int(check_substream(cq, events).sum())]
    return _run_windows(info, events, cq, runs, lambda: budget or Budget())[0][1]


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
    return _run_windows(_info(name, cq), sub, cq, window_runs(sub, cq), new_budget)


def _run_windows(info: ApproachInfo, sub: Substream, cq: CompiledQuery, runs, new_budget):
    """The kernel runs over the windows ``runs`` = ``(wids, s, t, events)``."""
    wids, s, t, events = runs
    if not wids:
        return []
    if info.name == "cogra" and cq.granularity is Granularity.TYPE:
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

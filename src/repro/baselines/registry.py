"""Approach registry — the expressive-power matrix of paper Table 9.

Maps each evaluated approach to its kernel and its capability envelope
(Kleene closure, supported semantics, predicates on adjacent events,
online vs two-step), so the harness can skip an approach on queries it
does not support — exactly how the paper's charts omit unsupported
combinations.

``run_approach`` is the one entry point of every kernel run. It checks the
Table-9 envelope and the attribute domains, counts the relevant events,
defaults the budget, times the run and turns an exhausted budget into a
DNF row. A kernel only folds: ``run(events, cq, res, budget)`` returns the
aggregates, accounts its state in ``res.meter`` and, if it constructs
trends, counts them in ``res.trends_constructed``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.baselines.aseq import run_aseq
from repro.baselines.flink_like import run_flink_like
from repro.baselines.greta import run_greta
from repro.baselines.sase import run_sase
from repro.core.aggregates import check_domain
from repro.core.events import Event
from repro.core.executor import fold, make_aggregator
from repro.core.granularity import Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import Budget, BudgetExceeded, KernelResult


def run_cogra(
    events: list[Event], cq: CompiledQuery, res: KernelResult, budget: Budget
) -> dict:
    """Cogra: the coarsest-granularity aggregator; it needs no budget."""
    agg = fold(make_aggregator(cq), events)
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
    run: Callable[[list[Event], CompiledQuery, KernelResult, Budget], dict]


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


def run_approach(
    name: str,
    events: list[Event],
    cq: CompiledQuery,
    *,
    budget: Budget | None = None,
) -> KernelResult:
    """Run one approach over one substream, timing it end to end; a run
    that exhausts its budget (or the interpreter's stack) is a DNF row."""
    if not supports(name, cq):
        raise ValueError(f"approach {name!r} does not support this query (Table 9)")
    pred_types, specs = cq.analysis.pred_types, cq.specs
    n = 0
    for e in events:
        if e.etype in pred_types:
            n += 1
            check_domain(specs, e.etype, e.attrs)
    res = KernelResult(events_processed=n)
    t0 = time.perf_counter()
    try:
        res.aggregates = APPROACHES[name].run(events, cq, res, budget or Budget())
    except (BudgetExceeded, RecursionError):
        res.aggregates = {s.name: None for s in specs}
        res.dnf = True
    res.kernel_seconds = time.perf_counter() - t0
    res.peak_state_bytes = res.meter.peak
    return res

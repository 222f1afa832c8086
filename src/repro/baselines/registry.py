"""Approach registry — the expressive-power matrix of paper Table 9.

Maps each evaluated approach to its kernel and its capability envelope
(Kleene closure, supported semantics, predicates on adjacent events,
online vs two-step), so the harness can skip an approach on queries it
does not support — exactly how the paper's charts omit unsupported
combinations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.baselines.aseq import run_aseq
from repro.baselines.flink_like import run_flink_like
from repro.baselines.greta import run_greta
from repro.baselines.sase import run_sase
from repro.core.events import Event
from repro.core.executor import aggregate_substream
from repro.core.granularity import Semantics
from repro.core.query import CompiledQuery
from repro.harness.metrics import Budget, KernelResult


def run_cogra(
    events: list[Event],
    cq: CompiledQuery,
    *,
    budget: Budget | None = None,
) -> KernelResult:
    """Cogra entry point (budget accepted for interface uniformity; the
    coarse-grained aggregators never need one)."""
    return aggregate_substream(events, cq)


@dataclass(frozen=True)
class ApproachInfo:
    """One row of Table 9."""

    name: str
    kleene: bool  # native Kleene closure (False = flattened workload)
    semantics: frozenset[Semantics]
    adjacent_predicates: bool
    online: bool  # online trend aggregation (no construction step)
    run: Callable[..., KernelResult]


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
    """Run one approach over one substream, timing it end to end."""
    if not supports(name, cq):
        raise ValueError(f"approach {name!r} does not support this query (Table 9)")
    t0 = time.perf_counter()
    res = APPROACHES[name].run(events, cq, budget=budget)
    res.kernel_seconds = time.perf_counter() - t0
    return res

"""Shared benchmark plumbing.

Benchmarks exercise the per-substream kernels directly (the algorithmic
comparison the paper's figures measure); the full Spark sweeps that
generate EXPERIMENTS.md live in jobs/run_all_experiments.py. Each
benchmark point runs one approach over every (group) substream of a
workload; configurations are chosen so the measured approach finishes
within its budget (DNF behavior is asserted in tests, not timed here).
"""
from __future__ import annotations

import math

import pandas as pd

from repro.baselines.registry import run_approach
from repro.core.events import Event, events_from_pandas
from repro.core.query import Query
from repro.harness.metrics import Budget


def substreams(
    pdf: pd.DataFrame, group_cols: list[str], attr_cols: tuple[str, ...]
) -> list[list[Event]]:
    return [
        events_from_pandas(g, attr_cols=attr_cols)
        for _, g in pdf.groupby(group_cols)
    ]


def run_each_substream(
    streams: list[list[Event]],
    query: Query,
    approach: str,
    *,
    budget_units: int = 500_000_000,
    budget_seconds: float = 120.0,
) -> list[dict]:
    """Run one approach over every substream; returns each substream's
    aggregates and asserts that nothing DNFed (benchmark points must be
    feasible) and that every float aggregate is finite."""
    cq = query.compile()
    out = []
    for ev in streams:
        r = run_approach(
            approach, ev, cq,
            budget=Budget(max_units=budget_units, max_seconds=budget_seconds),
        )
        assert not r.dnf, f"{approach} exceeded budget in a benchmark point"
        for name, v in r.aggregates.items():
            assert not isinstance(v, float) or math.isfinite(v), (name, v)
        out.append(r.aggregates)
    return out


def run_all_substreams(
    streams: list[list[Event]], query: Query, approach: str, **kwargs
) -> int:
    """The exact COUNT(*) total over ``run_each_substream``."""
    results = run_each_substream(streams, query, approach, **kwargs)
    return sum(r["count_star"] for r in results)

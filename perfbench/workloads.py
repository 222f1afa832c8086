"""Workload definitions, input generation and the reference check.

Each workload fixes one query, one input generator from
``repro.synth_data`` and one reference approach. Inputs depend only on the
seed and the scale. The reference is computed in this process, outside
any timing: the input is filtered and split into (group, wid) substreams
with pandas/NumPy, independently of the Catalyst plan the program builds,
and each substream is evaluated with a Table-9 baseline that shares no
kernel code with Cogra.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from repro.baselines.registry import run_approach
from repro.core.aggregates import Avg, Count
from repro.core.events import events_from_pandas
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query, WindowSpec
from repro.harness.metrics import Budget
from repro.synth_data import activity_stream_pdf, stock_stream_pdf

# Relative tolerance for averages: Cogra and the baselines sum in a
# different order, so the last digits of a float average may differ.
AVG_RTOL = 1e-9

# The traced run also streams a fresh input through run_query_streaming:
# an open-loop generator releases one file of EVENTS_PER_FILE events every
# RELEASE_S seconds (200 events/s) for STREAM_SECONDS, after a warm-up file.
EVENTS_PER_FILE = 100
RELEASE_S = 0.5
STREAM_SECONDS = 4.0
STREAM_FILES = 1 + round(STREAM_SECONDS / RELEASE_S)

_SQL_TYPES = {"int64": "BIGINT", "float64": "DOUBLE", "object": "STRING"}

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

Q3_PRIME = Query(
    pattern="SEQ(D+, U)",
    semantics=Semantics.ANY,
    aggregates=(Count(), Avg("U", "price")),
    partition_by=("sector", "company"),
    window=WindowSpec(size=600, slide=30),
)

Q1 = Query(
    pattern="M+",
    semantics=Semantics.CONT,
    aggregates=(Count(), Avg("M", "rate")),
    adjacent_predicates=(AdjacentPredicate("M", "rate", "<", "M", "rate"),),
    local_predicates=(LocalPredicate("activity", "<", 9, etype="M"),),
    partition_by=("person",),
)


@dataclass(frozen=True)
class Workload:
    """One workload; its name and why are declared in BENCHMARK.json."""

    name: str
    query: Query
    reference: str  # Table-9 approach used as the reference
    generate: Callable[..., pd.DataFrame]  # generate(n=..., seed=...)
    events: int  # batch input size at scale 1

    def batch_input(self, seed: int, scale: float) -> pd.DataFrame:
        return self.generate(n=max(200, int(self.events * scale)), seed=seed)

    def stream_input(self, seed: int) -> pd.DataFrame:
        return self.generate(n=EVENTS_PER_FILE * STREAM_FILES, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("any-slide", Q3_PRIME, "greta", stock_stream_pdf, 1_000),
        Workload("cont-long", Q1, "sase", activity_stream_pdf, 600_000),
    )
}


def ddl_schema(pdf: pd.DataFrame) -> str:
    """Spark DDL schema of a generated input, for the streaming reader."""
    return ", ".join(f"`{c}` {_SQL_TYPES[str(t)]}" for c, t in pdf.dtypes.items())


def key_cols(query: Query) -> list[str]:
    return [*query.partition_by, "wid"]


def substreams(pdf: pd.DataFrame, query: Query) -> pd.DataFrame:
    """Filter by the local predicates and tag each event with every window
    id covering it (one row per (event, wid)), using NumPy only."""
    keep = np.ones(len(pdf), dtype=bool)
    for lp in query.local_predicates:
        ok = _OPS[lp.op](pdf[lp.attr].to_numpy(), lp.value)
        if lp.etype is not None:
            ok |= pdf[query.type_col].to_numpy() != lp.etype
        keep &= ok
    pdf = pdf[keep]
    if query.window is None:
        return pdf.assign(wid=np.zeros(len(pdf), dtype=np.int64))
    w = query.window
    t = pdf[query.time_col].to_numpy()
    lo = np.maximum(0, np.floor((t - w.size) / w.slide) + 1).astype(np.int64)
    hi = np.floor(t / w.slide).astype(np.int64)
    n = hi - lo + 1
    starts = np.cumsum(n) - n
    rep = np.repeat(np.arange(len(pdf)), n)
    wid = lo[rep] + (np.arange(n.sum()) - starts[rep])
    return pdf.iloc[rep].assign(wid=wid)


def reference(pdf: pd.DataFrame, workload: Workload) -> dict[tuple, dict]:
    """Expected aggregates per (group..., wid) key."""
    q = workload.query
    cq = q.compile()
    unbounded = Budget(max_units=10**15, max_seconds=math.inf)
    out: dict[tuple, dict] = {}
    for key, sub in substreams(pdf, q).groupby(key_cols(q), sort=False):
        events = events_from_pandas(
            sub, time_col=q.time_col, type_col=q.type_col, attr_cols=cq.attr_cols)
        res = run_approach(workload.reference, events, cq, budget=unbounded)
        if res.dnf:
            raise RuntimeError(f"reference {workload.reference} did not finish on {key}")
        out[tuple(int(k) for k in key)] = res.aggregates
    return out


def _value_ok(got, want, is_count: bool) -> bool:
    if want is None:
        return got is None
    if got is None or not math.isfinite(got):
        return False
    if is_count:
        return got == float(want)
    return math.isclose(got, float(want), rel_tol=AVG_RTOL, abs_tol=0.0)


def check_rows(rows: list[dict], expected: dict[tuple, dict], query: Query) -> tuple[int, int]:
    """Compare result rows with the reference; return (attempted, failed).

    A row fails if its key is unknown, repeated, or any aggregate is wrong
    or not finite. Every expected key with no row counts as one failed
    attempted row.
    """
    keys = key_cols(query)
    specs = [(a.name, isinstance(a, Count)) for a in query.aggregates]
    seen: set[tuple] = set()
    failed = 0
    for r in rows:
        k = tuple(int(r[c]) for c in keys)
        want = expected.get(k)
        if want is None or k in seen:
            failed += 1
        elif not all(_value_ok(r[n], want[n], is_count) for n, is_count in specs):
            failed += 1
        seen.add(k)
    missing = len(expected.keys() - seen)
    return len(rows) + missing, failed + missing

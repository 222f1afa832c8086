"""Runtime Executor (paper Figure 3).

``make_aggregator`` builds the granularity-appropriate Cogra aggregator
chosen by the Static Query Analyzer (Table 4), and ``fold`` feeds it one
time-ordered :class:`~repro.core.events.Substream`. ``fold`` is Cogra's
entry point for one substream: ``registry.run_approach`` runs it, the
batch kernel on each (group, window) slice except at the TYPE
granularity, where ``registry.run_approach_windows`` folds all of a
group's windows at once (``MixedGrainedAggregator.scan_windows``).
``check_substream`` is the one domain check in front of every fold.
``checked_fold`` is the checked, timed step into a given aggregator: a
fresh one for ``aggregate_substream``, and that window's carried one for
the Structured Streaming runner, once per key, micro-batch and window
slice.

Every aggregator implements the same protocol: ``update(etype, attrs)``
returns the event's e.count (None if unmatched), ``result()`` finalizes
the aggregates, ``events_processed`` and ``meter`` (a
:class:`~repro.harness.metrics.StateMeter`) report its work and state, and
``trace_row(etype, e_count)`` gives its paper-trace columns (Tables 5-7).
An aggregator with ``columnar`` set (Algorithm 3 under CONT) also folds a
whole substream's columns with ``scan``; ``fold`` runs the others over the
substream's ``Event`` rows.
"""
from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.aggregates import check_column
from repro.core.events import Event, Substream
from repro.core.granularity import Granularity
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.core.query import CompiledQuery
from repro.harness.metrics import KernelResult

# Algorithm 1 is Algorithm 2 with T_e empty, so TYPE and MIXED share one
# class; the Table-4 granularity stays part of the static plan.
_AGGREGATORS = {
    Granularity.TYPE: MixedGrainedAggregator,
    Granularity.MIXED: MixedGrainedAggregator,
    Granularity.PATTERN: PatternGrainedAggregator,
}


def make_aggregator(cq: CompiledQuery):
    """Fresh incremental aggregator at the query's selected granularity."""
    return _AGGREGATORS[cq.granularity](cq)


def as_substream(events: Substream | Sequence[Event], cq: CompiledQuery) -> Substream:
    """``events`` itself, or the columns of a time-ordered ``Event`` list."""
    if isinstance(events, Substream):
        return events
    return Substream.from_events(events, cq.attr_cols)


def check_substream(cq: CompiledQuery, sub: Substream) -> np.ndarray:
    """The mask of ``sub``'s relevant events, after checking that every
    attribute aggregated over them lies in its function's domain
    (``aggregates.check_domain``, as column operations); raises
    ``ValueError`` otherwise."""
    pred_types = cq.analysis.pred_types
    for spec in cq.specs:
        attr = getattr(spec, "attr", None)
        if attr is not None and spec.etype in pred_types:
            check_column(spec, sub.cols[attr][sub.etype == spec.etype])
    return np.isin(sub.etype, list(pred_types))


def fold(agg, sub: Substream, trace: list | None = None):
    """Feed the time-ordered substream ``sub`` into ``agg`` and return it.

    ``trace`` (optional) receives one dict per event the aggregator
    reports, reproducing the paper's Tables 5-7.
    """
    if trace is None:
        if agg.columnar:
            agg.scan(sub)
            return agg
        update = agg.update
        for e in sub.rows():
            update(e.etype, e.attrs)
        return agg
    for e in sub.rows():
        row = agg.trace_row(e.etype, agg.update(e.etype, e.attrs))
        if row is not None:
            trace.append({"etype": e.etype, "time": e.time, **row})
    return agg


def aggregate_substream(
    events: Substream | Sequence[Event],
    cq: CompiledQuery,
    *,
    trace: list | None = None,
) -> KernelResult:
    """Incrementally aggregate the trends of one substream with the
    coarsest-granularity Cogra aggregator selected for the query."""
    return checked_fold(make_aggregator(cq), as_substream(events, cq), cq, trace=trace)


def checked_fold(agg, sub: Substream, cq: CompiledQuery, *,
                 trace: list | None = None) -> KernelResult:
    """Check ``sub``'s attribute domains (``check_substream``, which
    raises), fold it into ``agg`` (a fresh aggregator, or a window's
    carried one) and return ``agg``'s aggregates, events processed and
    peak state so far; ``kernel_seconds`` times the fold and result."""
    check_substream(cq, sub)
    t0 = time.perf_counter()
    aggregates = fold(agg, sub, trace).result()
    return KernelResult(aggregates, agg.events_processed, agg.meter.peak,
                        time.perf_counter() - t0)

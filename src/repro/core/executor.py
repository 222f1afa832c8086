"""Runtime Executor (paper Figure 3).

``make_aggregator`` builds the granularity-appropriate Cogra aggregator
chosen by the Static Query Analyzer (Table 4), and ``fold`` feeds it one
time-ordered substream. This is the only event loop of Cogra: the batch
kernel (via ``registry.run_approach``, once per (group, window) slice) and
the Structured Streaming runner (once per key and micro-batch) both run it.

Every aggregator implements the same protocol: ``update(etype, attrs)``
returns the event's e.count (None if unmatched), ``result()`` finalizes
the aggregates, ``events_processed`` and ``meter`` (a
:class:`~repro.harness.metrics.StateMeter`) report its work and state, and
``trace_row(etype, e_count)`` gives its paper-trace columns (Tables 5-7).
"""
from __future__ import annotations

from repro.core.events import Event
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


def fold(agg, events: list[Event], trace: list | None = None):
    """Feed time-ordered ``events`` into ``agg`` and return it.

    ``trace`` (optional) receives one dict per event the aggregator
    reports, reproducing the paper's Tables 5-7.
    """
    if trace is None:
        update = agg.update
        for e in events:
            update(e.etype, e.attrs)
        return agg
    for e in events:
        row = agg.trace_row(e.etype, agg.update(e.etype, e.attrs))
        if row is not None:
            trace.append({"etype": e.etype, "time": e.time, **row})
    return agg


def aggregate_substream(
    events: list[Event],
    cq: CompiledQuery,
    *,
    trace: list | None = None,
) -> KernelResult:
    """Incrementally aggregate the trends of one substream with the
    coarsest-granularity Cogra aggregator selected for the query."""
    agg = fold(make_aggregator(cq), events, trace)
    return KernelResult(
        aggregates=agg.result(),
        events_processed=agg.events_processed,
        peak_state_bytes=agg.meter.peak,
    )

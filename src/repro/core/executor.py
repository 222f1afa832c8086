"""Runtime Executor (paper Figure 3).

``make_aggregator`` builds the granularity-appropriate Cogra aggregator
chosen by the Static Query Analyzer (Table 4). ``window_runs`` cuts a
group's events into its (group, window) substreams, the one windowing
step of both runners: each window that covers an event is a contiguous
slice (``windows.window_plan`` and ``window_cuts``), and one domain check
(``check_substream``) over the events that lie in some window counts each
window's relevant events. The batch runner runs a kernel on each slice,
or one shared pass over all of them at the TYPE granularity
(``registry.run_approach_windows``); the Structured Streaming runner
folds each slice into that window's carried aggregator.

Every aggregator implements the same protocol: ``fold(sub)`` folds a
time-ordered :class:`~repro.core.events.Substream` into its state and
returns the aggregator, so folds of consecutive slices compose;
``result()`` finalizes the aggregates, and ``meter`` (a
:class:`~repro.harness.metrics.StateMeter`) reports its state. Each
aggregator folds its own way: the row loop over ``sub.rows()`` (Algorithms
1-2, and Algorithm 3 under NEXT) or a chunked scan of the columns
(Algorithm 3 under CONT). ``update(etype, attrs)`` folds one event and
returns its e.count (None if unmatched), the per-event view of the
paper's Tables 5-7.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregates import check_column
from repro.core.events import Event, Substream
from repro.core.granularity import Granularity
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.core.query import CompiledQuery
from repro.core.windows import window_cuts, window_plan
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


def check_substream(cq: CompiledQuery, sub: Substream) -> np.ndarray:
    """The mask of ``sub``'s relevant events, after checking that every
    attribute aggregated over them lies in its function's domain
    (``aggregates.check_domain``, as column operations); raises
    ``ValueError`` otherwise."""
    masks = {t: sub.etype == t for t in cq.analysis.pred_types}
    for spec in cq.specs:
        attr = getattr(spec, "attr", None)
        if attr is not None and spec.etype in masks:
            check_column(spec, sub.cols[attr], masks[spec.etype])
    relevant = np.zeros(len(sub), bool)
    for mask in masks.values():
        relevant |= mask
    return relevant


def window_runs(
    sub: Substream, cq: CompiledQuery
) -> tuple[list[int], list[int], list[int], list[int]]:
    """``(wids, s, t, events)`` for the group's time-ordered ``sub``: every
    window that covers one of its events, in wid order, its events (the
    slice ``[s, t)``) and its relevant-event count. ``check_substream``
    runs once, from the first event that lies in some window. With no
    window clause the whole group is wid 0, without window arithmetic."""
    if cq.query.window is None:
        if not len(sub):
            return [], [], [], []
        return [0], [0], [len(sub)], [int(check_substream(cq, sub).sum())]
    wids, s, t = window_cuts(*window_plan(sub.time, cq.query.window))
    if not len(wids):
        return [], [], [], []
    first = int(s[0])  # the events from here on lie in some window
    relevant = np.concatenate([[0], np.cumsum(check_substream(cq, sub[first:]))])
    events = relevant[t - first] - relevant[s - first]
    return wids.tolist(), s.tolist(), t.tolist(), events.tolist()


def aggregate_substream(
    events: Substream | Sequence[Event], cq: CompiledQuery
) -> KernelResult:
    """Cogra's run over one substream: ``registry.run_approach("cogra",
    events, cq)``."""
    from repro.baselines.registry import run_approach  # registry imports executor

    return run_approach("cogra", events, cq)

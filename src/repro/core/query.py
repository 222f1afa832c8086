"""Event trend aggregation query model (paper Definition 6).

A :class:`Query` bundles the six clauses — RETURN (aggregates), PATTERN,
SEMANTICS, WHERE (local + adjacent predicates; equivalence predicates are
partition keys), GROUP-BY, WITHIN/SLIDE — plus the column bindings needed
to evaluate it over a DataFrame. ``Query.compile()`` runs the Static Query
Analyzer (Sections 3.1-3.3): pattern analysis, predicate classification,
and granularity selection.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro.core.aggregates import AggSpec, Count
from repro.core.fsa import PatternAnalysis, analyze
from repro.core.granularity import Granularity, Semantics, select_granularity
from repro.core.pattern import Pattern, parse_pattern
from repro.core.predicates import (
    AdjacentPredicate,
    LocalPredicate,
    classify_event_grained_types,
)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window WITHIN ``size`` SLIDE ``slide`` (same time unit as
    the event timestamps; the paper uses seconds)."""

    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.slide <= 0:
            raise ValueError("window size and slide must be positive")
        if self.size % self.slide != 0:
            # Not fundamental, but keeps wid arithmetic integral like the
            # paper's panes; all paper queries satisfy it (600/30, 600/10).
            raise ValueError("window size must be a multiple of slide")

    def wids_for(self, t: float) -> range:
        """Window ids covering time ``t``; window ``k`` spans
        ``[k*slide, k*slide + size)`` with ``k >= 0``. An int ``t`` is
        divided exactly (a nanosecond time is beyond 2**53), a float one in
        float arithmetic."""
        lo, hi = floor_div(t - self.size, self.slide), floor_div(t, self.slide)
        return range(max(0, lo + 1), hi + 1)


def floor_div(t, slide: int) -> int:
    """floor(t / slide), the one rounding rule of window ids: exact integer
    floor division of an int ``t`` (a nanosecond time is beyond 2**53),
    float arithmetic otherwise."""
    if isinstance(t, numbers.Integral):
        return int(t) // slide
    return math.floor(t / slide)


@dataclass(frozen=True)
class Query:
    """An event trend aggregation query (Definition 6)."""

    pattern: str | Pattern
    semantics: Semantics
    aggregates: tuple[AggSpec, ...] = (Count(),)
    adjacent_predicates: tuple[AdjacentPredicate, ...] = ()
    local_predicates: tuple[LocalPredicate, ...] = ()
    partition_by: tuple[str, ...] = ()  # GROUP-BY + equivalence attrs
    window: WindowSpec | None = None
    time_col: str = "time"
    type_col: str = "etype"

    def compile(self) -> "CompiledQuery":
        pat = (
            parse_pattern(self.pattern)
            if isinstance(self.pattern, str)
            else self.pattern
        )
        analysis = analyze(pat)
        gran = select_granularity(self.semantics, analysis, self.adjacent_predicates)
        event_grained = classify_event_grained_types(
            analysis, self.adjacent_predicates
        )
        # Local predicates run before the column select, so only the
        # attributes the kernels read are kept.
        attr_cols: set[str] = set()
        for p in self.adjacent_predicates:
            attr_cols.update((p.pred_attr, p.succ_attr))
        for a in self.aggregates:
            if hasattr(a, "attr"):
                attr_cols.add(a.attr)  # type: ignore[attr-defined]
        return CompiledQuery(
            query=self,
            analysis=analysis,
            granularity=gran,
            event_grained_types=event_grained,
            attr_cols=tuple(sorted(attr_cols)),
        )


@dataclass(frozen=True)
class CompiledQuery:
    """Static Query Analyzer output: the Cogra configuration (Figure 3)."""

    query: Query
    analysis: PatternAnalysis
    granularity: Granularity
    event_grained_types: frozenset[str]  # T_e of Theorem 5.1
    attr_cols: tuple[str, ...] = field(default_factory=tuple)

    @property
    def semantics(self) -> Semantics:
        return self.query.semantics

    @property
    def specs(self) -> tuple[AggSpec, ...]:
        return self.query.aggregates

    @property
    def adjacent_predicates(self) -> tuple[AdjacentPredicate, ...]:
        return self.query.adjacent_predicates

    @property
    def type_grained_types(self) -> frozenset[str]:
        """T_t: pattern types kept at the type granularity (Theorem 5.1)."""
        return frozenset(self.analysis.types) - self.event_grained_types

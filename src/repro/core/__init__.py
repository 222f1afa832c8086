"""Cogra core: pattern model, static query analysis, and the
coarse-grained incremental trend aggregators of Algorithms 1-3 (paper
Sections 3-6)."""

from repro.core.pattern import Pattern, TypeP, Seq, Plus, parse_pattern
from repro.core.fsa import PatternAnalysis, analyze
from repro.core.predicates import (
    AdjacentPredicate,
    LocalPredicate,
    classify_event_grained_types,
)
from repro.core.query import Query, Semantics, WindowSpec
from repro.core.granularity import Granularity, select_granularity
from repro.core.aggregates import AggSpec, Count, CountType, Min, Max, Sum, Avg

__all__ = [
    "Pattern", "TypeP", "Seq", "Plus", "parse_pattern",
    "PatternAnalysis", "analyze",
    "AdjacentPredicate", "LocalPredicate", "classify_event_grained_types",
    "Query", "Semantics", "WindowSpec",
    "Granularity", "select_granularity",
    "AggSpec", "Count", "CountType", "Min", "Max", "Sum", "Avg",
]

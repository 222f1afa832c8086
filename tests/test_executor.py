"""Runtime Executor dispatch and the incremental aggregator factory."""
import pickle

import pytest

from repro.core.events import Event
from repro.core.executor import aggregate_substream, make_aggregator
from repro.core.granularity import Semantics
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query

STREAM = [
    Event(i, t, ty, {"v": t})
    for i, (t, ty) in enumerate(
        [(1, "A"), (2, "B"), (3, "A"), (4, "A"), (5, "C"), (6, "B"), (7, "A"),
         (8, "B")]
    )
]
PREDS = (AdjacentPredicate("B", "v", "<", "A", "v"),)


@pytest.mark.parametrize(
    "semantics, preds, cls",
    [
        (Semantics.ANY, (), MixedGrainedAggregator),
        (Semantics.ANY, PREDS, MixedGrainedAggregator),
        (Semantics.NEXT, (), PatternGrainedAggregator),
        (Semantics.CONT, PREDS, PatternGrainedAggregator),
    ],
)
def test_factory_matches_granularity(semantics, preds, cls):
    cq = Query(
        pattern="(SEQ(A+, B))+", semantics=semantics, adjacent_predicates=preds
    ).compile()
    assert isinstance(make_aggregator(cq), cls)


@pytest.mark.parametrize(
    "semantics, preds",
    [(Semantics.ANY, ()), (Semantics.ANY, PREDS), (Semantics.NEXT, ()),
     (Semantics.CONT, ())],
)
def test_incremental_equals_oneshot(semantics, preds):
    """Feeding events one-by-one into the factory object gives the same
    result as the one-shot kernel — the streaming/batch equivalence at the
    kernel level."""
    cq = Query(
        pattern="(SEQ(A+, B))+", semantics=semantics, adjacent_predicates=preds
    ).compile()
    agg = make_aggregator(cq)
    for e in STREAM:
        agg.update(e.etype, e.attrs)
    assert agg.result() == aggregate_substream(STREAM, cq).aggregates


@pytest.mark.parametrize(
    "semantics, preds",
    [(Semantics.ANY, ()), (Semantics.ANY, PREDS), (Semantics.NEXT, ()),
     (Semantics.CONT, ())],
)
def test_state_survives_pickle_roundtrip_midstream(semantics, preds):
    """The streaming runner pickles the aggregator between micro-batches;
    a roundtrip in the middle of the stream must not change the result."""
    cq = Query(
        pattern="(SEQ(A+, B))+", semantics=semantics, adjacent_predicates=preds
    ).compile()
    agg = make_aggregator(cq)
    for e in STREAM[:4]:
        agg.update(e.etype, e.attrs)
    agg = pickle.loads(pickle.dumps(agg))
    for e in STREAM[4:]:
        agg.update(e.etype, e.attrs)
    assert agg.result() == aggregate_substream(STREAM, cq).aggregates


def test_pattern_grained_rejects_any():
    cq = Query(pattern="A+", semantics=Semantics.ANY).compile()
    with pytest.raises(ValueError):
        PatternGrainedAggregator(cq)

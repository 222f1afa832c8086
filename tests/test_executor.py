"""Runtime Executor dispatch and the incremental aggregator factory."""
import pickle

import pytest

from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import run_approach
from repro.core.events import Event, Substream
from repro.core.executor import aggregate_substream, make_aggregator
from repro.core.granularity import Granularity, Semantics
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query
from tests.test_kernels_vs_bruteforce import AGGS, PATTERNS, PRED_SETS, mkstream

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


@pytest.mark.parametrize("pattern", PATTERNS)
def test_type_runs_the_shared_pass(monkeypatch, pattern):
    """At the TYPE granularity ``run_approach`` and ``aggregate_substream``
    run the batch runner's shared pass (``scan_windows``), never the row
    loop of ``update``, and equal the oracle."""

    def no_rows(self, etype, attrs):
        raise AssertionError("row loop on the TYPE path")

    monkeypatch.setattr(MixedGrainedAggregator, "update", no_rows)
    cq = Query(pattern=pattern, semantics=Semantics.ANY, aggregates=AGGS).compile()
    assert cq.granularity is Granularity.TYPE
    for seed in range(4):
        events = mkstream(11, seed)
        want = aggregate_bruteforce(events, cq)
        assert run_approach("cogra", events, cq).aggregates == want, seed
        assert aggregate_substream(events, cq).aggregates == want, seed


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("semantics, pred_key", [
    (Semantics.ANY, "none"), (Semantics.ANY, "self"), (Semantics.ANY, "cross"),
    (Semantics.NEXT, "none"), (Semantics.NEXT, "both")])
def test_folds_compose_at_every_cut(pattern, semantics, pred_key):
    """``fold(sub[:c])`` then ``fold(sub[c:])`` equals one ``fold`` of
    ``sub`` and the oracle at every cut ``c``: the property the streaming
    runner's carried aggregators rely on."""
    cq = Query(pattern=pattern, semantics=semantics, aggregates=AGGS,
               adjacent_predicates=PRED_SETS[pred_key]).compile()
    for seed in range(2):
        events = mkstream(10, seed)
        sub = Substream.from_events(events, cq.attr_cols)
        want = aggregate_bruteforce(events, cq)
        assert make_aggregator(cq).fold(sub).result() == want, seed
        for c in range(len(sub) + 1):
            assert make_aggregator(cq).fold(sub[:c]).fold(sub[c:]).result() == want, (seed, c)


"""Algorithm 3 under CONT as one segmented scan of a substream's columns.

The scan must equal, with ``==``, a row fold of Algorithm 3 (the
reference below, one event at a time over Python scalars), the per-event
``update`` path (the same scan over one event at a time), the oracle, and
itself over any split of the stream into chunks. The columns come from
pandas, so int64, float64 and object columns are all exercised.
"""
import math
import random
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import run_approach
from repro.core import pattern_grained
from repro.core.aggregates import (
    Avg,
    Count,
    CountType,
    Max,
    Min,
    Sum,
    absorb,
    check_domain,
    extend,
    finalize,
    new_node,
)
from repro.core.events import Event, Substream
from repro.core.executor import check_substream, make_aggregator
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, adjacency_holds
from repro.core.query import Query

PATTERNS = ["A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A+, B+)", "SEQ(A, SEQ(B+, C))"]
PRED_SETS = {
    "none": (),
    "self": (AdjacentPredicate("A", "v", "<", "A", "v"),),
    "cross": (AdjacentPredicate("B", "v", ">=", "A", "v"),),
    "offset": (
        AdjacentPredicate("A", "v", "<=", "A", "v", offset=2.5),
        AdjacentPredicate("A", "v", ">", "B", "v", offset=-3),
    ),
}
AGGS = (Count(), CountType("A"), Min("A", "v"), Max("B", "v"), Sum("B", "v"),
        Avg("A", "v"))
BIG = 2**53


def row_fold(events, cq) -> dict:
    """Algorithm 3 under CONT, one event at a time (Lines 1-10)."""
    specs, preds = cq.specs, cq.adjacent_predicates
    an = cq.analysis
    el_type, el_attrs, el = None, {}, new_node(specs, 0)
    final = new_node(specs, 0)
    for e in events:
        adjacent = (
            e.etype in an.pred_types
            and el_type is not None
            and el_type in an.pred_types[e.etype]
            and adjacency_holds(preds, el_type, el_attrs, e.etype, e.attrs)
        )
        if e.etype == an.start or adjacent:
            node = list(el) if adjacent else new_node(specs, 0)
            node[0] += e.etype == an.start
            extend(specs, node, e.etype, e.attrs)
            if e.etype == an.end:
                absorb(specs, final, node)
            el_type, el_attrs, el = e.etype, e.attrs, node
        else:  # unmatched or irrelevant: invalidate the partial trends
            el_type, el_attrs, el = None, {}, new_node(specs, 0)
    return finalize(specs, final)


def per_event(events, cq) -> dict:
    agg = make_aggregator(cq)
    for e in events:
        agg.update(e.etype, e.attrs)
    return agg.result()


def frame(types, values, dtype=None) -> pd.DataFrame:
    v = pd.Series(values, dtype=dtype) if dtype else pd.Series(values)
    return pd.DataFrame({"time": np.arange(1, len(types) + 1), "etype": list(types), "v": v})


def scan(pdf, cq, chunks=()) -> dict:
    """The scan over the columns of ``pdf``, cut at ``chunks``."""
    sub = Substream.from_pandas(pdf, attr_cols=cq.attr_cols)
    agg = make_aggregator(cq)
    cuts = [0, *chunks, len(sub)]
    for s, t in zip(cuts, cuts[1:]):
        agg.fold(sub[s:t])
    return agg.result()


def cq_of(pattern, preds=(), aggs=AGGS):
    return Query(pattern=pattern, semantics=Semantics.CONT, aggregates=aggs,
                 adjacent_predicates=preds).compile()


VALUE_KINDS = {
    "int": lambda rng: rng.randint(0, 9),
    "quarter": lambda rng: rng.randint(0, 9) / 4,
    "float": lambda rng: rng.uniform(-1e3, 1e3),
    "beyond-2^53": lambda rng: BIG + rng.randint(-3, 3),
    "beyond-int64": lambda rng: 2**64 + rng.randint(0, 3),
}


def mkstream(n, seed, kind, types="ABCZ"):
    rng = random.Random(seed)
    draw = VALUE_KINDS[kind]
    # Runs of equal types make long segments; Z is irrelevant to every
    # pattern and C to most, so both cut them.
    out, t = [], rng.choice(types)
    while len(out) < n:
        if rng.random() < 0.4:
            t = rng.choice(types)
        out.append(t)
    return "".join(out), [draw(rng) for _ in range(n)]


@pytest.mark.parametrize("kind", list(VALUE_KINDS))
@pytest.mark.parametrize("preds", list(PRED_SETS))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_scan_equals_row_fold_and_oracle(pattern, preds, kind):
    cq = cq_of(pattern, PRED_SETS[preds])
    for seed in range(8):
        types, values = mkstream(30, seed, kind)
        pdf = frame(types, values)
        events = Substream.from_pandas(pdf, attr_cols=cq.attr_cols).rows()
        expected = row_fold(events, cq)
        assert scan(pdf, cq) == expected
        assert per_event(events, cq) == expected
        assert aggregate_bruteforce(events, cq) == expected
        assert run_approach("cogra", events, cq).aggregates == expected


def test_columns_have_the_expected_dtypes():
    """The suite above covers every column kind the scan distinguishes."""
    cq = cq_of("A+", PRED_SETS["self"])
    dtypes = {kind: Substream.from_pandas(frame(*mkstream(5, 0, kind)),
                                          attr_cols=cq.attr_cols).cols["v"].dtype
              for kind in VALUE_KINDS}
    assert dtypes == {"int": np.int64, "quarter": np.float64, "float": np.float64,
                      "beyond-2^53": np.int64, "beyond-int64": object}


@pytest.mark.parametrize("pattern", ["A+", "(SEQ(A+, B))+"])
@pytest.mark.parametrize("preds", list(PRED_SETS))
def test_chunks_compose_at_every_cut(pattern, preds):
    """Folding the stream in two chunks, cut anywhere, or in random
    chunks gives the one-chunk result."""
    cq = cq_of(pattern, PRED_SETS[preds])
    rng = random.Random(5)
    for seed in range(4):
        pdf = frame(*mkstream(24, seed, "quarter", types="ABZ"))
        whole = scan(pdf, cq)
        for k in range(len(pdf) + 1):
            assert scan(pdf, cq, [k]) == whole, k
        cuts = sorted(rng.sample(range(1, len(pdf)), 6))
        assert scan(pdf, cq, cuts) == whole


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_scan_chunks_equal_the_one_chunk_scan(monkeypatch, pattern, chunk):
    """``fold`` cuts its input into chunks of ``CHUNK`` events; whatever
    the length, the carry composes them into the one-chunk result."""
    cq = cq_of(pattern, PRED_SETS["offset"])
    for seed in range(4):
        pdf = frame(*mkstream(40, seed, "quarter"))
        monkeypatch.setattr(pattern_grained, "CHUNK", 10**9)
        whole = scan(pdf, cq)
        monkeypatch.setattr(pattern_grained, "CHUNK", chunk)
        assert scan(pdf, cq) == scan(pdf, cq, [5, 11]) == whole


def test_fold_memory_is_bounded_by_the_chunk(monkeypatch):
    """The traced peak of folding a CONT substream does not grow with its
    length: at 100k events it stays within 1.5x the peak at 10k (a
    one-chunk scan holds ~25 n-length arrays, and grows ~10x), and the
    aggregates equal the one-chunk scan's."""
    cq = cq_of("SEQ(A+, B)", PRED_SETS["self"], (Count(), Sum("A", "v"), Avg("A", "v")))
    peaks, results = {}, {}
    for n in (10_000, 100_000):
        rng = np.random.default_rng(n)
        sub = Substream.from_pandas(pd.DataFrame({
            "time": np.arange(n), "etype": rng.choice(["A", "A", "A", "B", "Z"], n),
            "v": rng.uniform(0, 100, n)}), attr_cols=cq.attr_cols)
        tracemalloc.start()
        try:
            results[n] = make_aggregator(cq).fold(sub).result()
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as m:
            m.setattr(pattern_grained, "CHUNK", n)
            assert make_aggregator(cq).fold(sub).result() == results[n]
    assert peaks[100_000] <= 1.5 * peaks[10_000], peaks


def test_ints_beyond_2_53_compare_exactly():
    """The default offset is the int 0, so the ints are compared exactly:
    a float offset would round 2**53 + 1 down to 2**53 (``BIG + 1 <=
    BIG + 1`` False, ``BIG == BIG + 1`` True), and NumPy would compare
    int64 with float64 in float64."""
    for op, values, count in [("<=", [BIG + 1, BIG + 1], 3), ("==", [BIG, BIG + 1], 2)]:
        cq = cq_of("A+", (AdjacentPredicate("A", "v", op, "A", "v"),), (Count(),))
        pdf = frame("AA", values)
        events = Substream.from_pandas(pdf, attr_cols=("v",)).rows()
        assert scan(pdf, cq) == row_fold(events, cq) == {"count_star": count}, op
        assert aggregate_bruteforce(events, cq) == {"count_star": count}, op


def test_inf_is_a_value_of_min_and_max():
    cq = cq_of("SEQ(A+, B)", (), (Count(), Min("A", "v"), Max("A", "v")))
    pdf = frame("AAB", [math.inf, -math.inf, 1.0])
    events = Substream.from_pandas(pdf, attr_cols=("v",)).rows()
    assert scan(pdf, cq) == row_fold(events, cq) == {
        "count_star": 2, "min_A_v": -math.inf, "max_A_v": math.inf}
    assert run_approach("cogra", Substream.from_pandas(pdf, attr_cols=("v",)), cq
                        ).aggregates == row_fold(events, cq)


def rejects(f) -> str | None:
    try:
        f()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec", [Sum("A", "v"), Avg("A", "v"), Min("A", "v"), Max("B", "v")])
def test_column_check_rejects_exactly_what_check_domain_rejects(spec):
    """NaN and ±inf under SUM/AVG, and NaN under MIN/MAX, at any relevant
    event of the spec's type, whether or not a trend reaches it; the
    same values at other types pass."""
    cq = cq_of("SEQ(A+, B)", (), (Count(), spec))
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        types = "".join(rng.choice("ABZ") for _ in range(6))
        values = [rng.choice([1.0, 2.5, math.nan, math.inf, -math.inf]) for _ in types]
        pdf = frame(types, values)
        sub = Substream.from_pandas(pdf, attr_cols=cq.attr_cols)

        def rows():
            for e in sub.rows():
                if e.etype in cq.analysis.pred_types:
                    check_domain(cq.specs, e.etype, e.attrs)

        want, got = rejects(rows), rejects(lambda: check_substream(cq, sub))
        assert (want is None) == (got is None), (types, values)
        assert got is None or got.startswith(spec.name + ":")
        seen.add(got is None)
        if got is not None:
            with pytest.raises(ValueError, match=spec.name):
                run_approach("cogra", sub, cq)
    assert seen == {True, False}


def test_object_columns_fall_back_to_python_values():
    """Ints beyond int64 sit in an object column; SUM, MIN/MAX and the
    predicate use the Python ints exactly."""
    big = 2**70
    # offset=0 keeps the sum an int; the default 0.0 would round it.
    cq = cq_of("SEQ(A+, B)", (AdjacentPredicate("A", "v", "<", "A", "v", offset=0),),
               (Count(), Sum("A", "v"), Avg("A", "v"), Min("A", "v"), Max("A", "v")))
    pdf = frame("AAAB", [big, big + 1, big + 2, 3])
    sub = Substream.from_pandas(pdf, attr_cols=cq.attr_cols)
    assert sub.cols["v"].dtype == object
    got = run_approach("cogra", sub, cq).aggregates
    assert got == row_fold(sub.rows(), cq)
    # Trends (a1, a2, a3, b), (a2, a3, b) and (a3, b).
    assert got == {"count_star": 3, "sum_A_v": 6 * big + 8, "avg_A_v": (6 * big + 8) / 6,
                   "min_A_v": big, "max_A_v": big + 2}
    # big + 1 < big + 1 is False: the chain breaks at a3.
    pdf = frame("AAAB", [big, big + 1, big + 1, 3])
    got = scan(pdf, cq)
    assert got == row_fold(Substream.from_pandas(pdf, attr_cols=("v",)).rows(), cq)
    assert got["count_star"] == 1 and got["sum_A_v"] == big + 1


def test_count_dtype_switches_to_python_ints_at_the_limit(monkeypatch):
    """Counts and weights are int64 while n * L * (L + carry) < limit and
    Python ints from there on; both give the row fold's result."""
    monkeypatch.setattr(pattern_grained, "INT64_LIMIT", 1000)
    assert pattern_grained.count_dtype(10, 9, 1) is np.int64  # 900
    assert pattern_grained.count_dtype(10, 10, 0) is object  # 1000
    chosen = []
    real = pattern_grained.count_dtype

    def spy(*args):
        chosen.append(real(*args))
        return chosen[-1]

    monkeypatch.setattr(pattern_grained, "count_dtype", spy)
    cq = cq_of("A+", (AdjacentPredicate("A", "v", "<", "A", "v"),), AGGS[:3] + (
        Sum("A", "v"), Avg("A", "v")))
    for n, dtype in [(9, np.int64), (10, object)]:  # 9**3 < 1000 <= 10**3
        pdf = frame("A" * n, [float(i) for i in range(n)])  # one rising segment
        chosen.clear()
        assert scan(pdf, cq) == row_fold(Substream.from_pandas(pdf, attr_cols=("v",)).rows(), cq)
        assert chosen == [dtype]


def test_update_is_the_scan_of_one_event():
    """``update`` returns the event's count (None if unmatched), as the
    row fold does, and leaves the state a one-chunk scan leaves."""
    cq = cq_of("(SEQ(A+, B))+", PRED_SETS["self"])
    types, values = mkstream(40, 3, "int")
    events = [Event(i, i + 1, t, {"v": v}) for i, (t, v) in enumerate(zip(types, values))]
    agg = make_aggregator(cq)
    counts = [agg.update(e.etype, e.attrs) for e in events]
    assert all(c is None or c > 0 for c in counts)
    whole = make_aggregator(cq)
    whole.fold(Substream.from_events(events, cq.attr_cols))
    assert (agg.el_type, agg.el_attrs, agg.el, agg.final[0]) == (
        whole.el_type, whole.el_attrs, whole.el, whole.final[0])
    assert agg.result() == whole.result() == row_fold(events, cq)


def test_float_sums_are_exact_across_exponents():
    """Mantissas near 2**53 whose exponents span every band: each band's
    shifted mantissas must stay below 2**63, and the bands add exactly."""
    top = 1 - 2.0**-53
    values = [s * top * 2.0**k for k in range(-60, 61, 3) for s in (1, -1)]
    values += [5e-324, 1.7e308, 0.0, -0.0]
    cq = cq_of("A+", (), (Count(), Sum("A", "v"), Avg("A", "v")))
    pdf = frame("A" * len(values), values)
    events = Substream.from_pandas(pdf, attr_cols=("v",)).rows()
    assert scan(pdf, cq) == row_fold(events, cq) == per_event(events, cq)

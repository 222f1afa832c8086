"""Event materialization from pandas partitions."""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregates import Avg, Sum
from repro.core.events import Event, Substream, events_from_pandas
from repro.core.executor import aggregate_substream
from repro.core.granularity import Semantics
from repro.core.query import Query


def test_sorted_by_time_stable():
    pdf = pd.DataFrame(
        {"time": [3, 1, 2, 1], "etype": ["C", "A", "B", "D"], "v": [0.3, 0.1, 0.2, 0.4]}
    )
    ev = events_from_pandas(pdf, attr_cols=("v",))
    assert [e.etype for e in ev] == ["A", "D", "B", "C"]  # stable tie at t=1
    assert [e.time for e in ev] == [1, 1, 2, 3]
    assert ev[0].attrs == {"v": 0.1}


def test_no_attr_cols_shares_empty_dict():
    pdf = pd.DataFrame({"time": [1, 2], "etype": ["A", "B"]})
    ev = events_from_pandas(pdf)
    assert ev[0].attrs == {} and ev[1].attrs == {}


def test_eid_is_position_after_sort():
    pdf = pd.DataFrame({"time": [2, 1], "etype": ["B", "A"]})
    ev = events_from_pandas(pdf)
    assert [e.eid for e in ev] == [0, 1]
    assert isinstance(ev[0], Event)


def test_custom_column_names():
    pdf = pd.DataFrame({"ts": [1, 2], "kind": ["A", "B"], "p": [1.0, 2.0]})
    ev = events_from_pandas(pdf, time_col="ts", type_col="kind", attr_cols=("p",))
    assert ev[1].etype == "B" and ev[1].attrs == {"p": 2.0}


def test_integer_attributes_do_not_wrap_in_exact_mode():
    """An int64 column times a trend count above 2**63 stays exact."""
    n = 70
    pdf = pd.DataFrame(
        {"time": np.arange(1, n + 1), "etype": ["A"] * n,
         "v": np.ones(n, dtype=np.int64)}
    )
    cq = Query(
        pattern="A+", semantics=Semantics.ANY,
        aggregates=(Sum("A", "v"), Avg("A", "v")),
    ).compile()
    res = aggregate_substream(events_from_pandas(pdf, attr_cols=("v",)), cq)
    assert res.aggregates["sum_A_v"] == n * 2 ** (n - 1)
    assert res.aggregates["avg_A_v"] == 1.0


TIME_KINDS = {
    "int": lambda b: b,
    "float": lambda b: b / 4,
    "float-nan": lambda b: np.where(b % 9 == 0, np.nan, b / 4),
    "beyond-int64": lambda b: np.array([2**64 + int(x) for x in b], dtype=object),
    "object-mixed": lambda b: np.array([int(x) if x % 2 else x / 2 for x in b], dtype=object),
    "object-none": lambda b: np.array([None if x % 9 == 0 else 2**64 + int(x) for x in b],
                                      dtype=object),
}


@pytest.mark.parametrize("kind", list(TIME_KINDS))
def test_from_pandas_is_the_stable_sort(kind):
    """``Substream.from_pandas`` gathers the columns in the order of the
    stable pandas sort it replaces: ties keep their order in the frame,
    missing times come last, and the values and dtypes are unchanged."""
    g = np.random.default_rng(5)
    n = 400
    pdf = pd.DataFrame({
        "key": g.integers(0, 3, n),
        "time": TIME_KINDS[kind](g.integers(0, 40, n)),  # about 10 events a time
        "etype": g.choice(list("ABC"), n),
        "v": g.uniform(0, 1, n),
        "w": np.array([2**70 + i for i in range(n)], dtype=object),
        "skip": g.integers(0, 9, n),
    }).sample(frac=1, random_state=6)
    sub = Substream.from_pandas(pdf, attr_cols=("v", "w"))
    want = pdf.sort_values("time", kind="stable")
    assert list(sub.cols) == ["v", "w"]
    time_dtype = {"int": np.int64, "float": np.float64, "float-nan": np.float64}
    for got, col, dtype in [(sub.time, "time", time_dtype.get(kind, object)),
                            (sub.etype, "etype", object), (sub.cols["v"], "v", np.float64),
                            (sub.cols["w"], "w", object)]:
        assert got.dtype == dtype, col
        assert pd.Series(got.tolist(), dtype=object).equals(
            pd.Series(want[col].tolist(), dtype=object)), col


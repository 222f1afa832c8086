"""Event materialization from pandas partitions."""
import numpy as np
import pandas as pd

from repro.core.aggregates import Avg, Sum
from repro.core.events import Event, events_from_pandas
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

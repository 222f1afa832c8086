"""Pattern Analyzer: FSA digraph over event types (paper Section 3.1)."""
import pytest

from repro.core.fsa import analyze
from repro.core.pattern import parse_pattern


def an(text):
    return analyze(parse_pattern(text))


def test_figure4_running_example():
    """Figure 4: P = (SEQ(A+, B))+ has start A, end B, no mid types,
    predTypes(A) = {A, B}, predTypes(B) = {A}."""
    a = an("(SEQ(A+, B))+")
    assert a.start == "A"
    assert a.end == "B"
    assert a.mid == frozenset()
    assert a.pred_types["A"] == frozenset({"A", "B"})
    assert a.pred_types["B"] == frozenset({"A"})


@pytest.mark.parametrize(
    "text, start, end, mid",
    [
        ("A", "A", "A", set()),
        ("A+", "A", "A", set()),
        ("SEQ(A, B)", "A", "B", set()),
        ("SEQ(A+, B)", "A", "B", set()),
        ("SEQ(A+, B+)", "A", "B", set()),
        ("SEQ(A, SEQ(B+, C))", "A", "C", {"B"}),
        ("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
         "Accept", "Finish", {"Call", "Cancel"}),
        ("(SEQ(A, B))+", "A", "B", set()),
    ],
)
def test_start_end_mid(text, start, end, mid):
    a = an(text)
    assert a.start == start
    assert a.end == end
    assert a.mid == frozenset(mid)


@pytest.mark.parametrize(
    "text, pred_types",
    [
        ("A", {"A": set()}),
        ("A+", {"A": {"A"}}),
        ("SEQ(A, B)", {"A": set(), "B": {"A"}}),
        ("SEQ(A+, B)", {"A": {"A"}, "B": {"A"}}),
        ("SEQ(A+, B+)", {"A": {"A"}, "B": {"A", "B"}}),
        ("(SEQ(A, B))+", {"A": {"B"}, "B": {"A"}}),
        ("SEQ(A, SEQ(B+, C))", {"A": set(), "B": {"A", "B"}, "C": {"B"}}),
        (
            "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
            {
                "Accept": set(),
                "Call": {"Accept", "Cancel"},
                "Cancel": {"Call"},
                "Finish": {"Cancel"},
            },
        ),
    ],
)
def test_pred_types(text, pred_types):
    a = an(text)
    assert {t: set(s) for t, s in a.pred_types.items()} == pred_types


@pytest.mark.parametrize(
    "text",
    ["A", "A+", "SEQ(A+, B+)", "(SEQ(A+, B))+",
     "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)"],
)
def test_succ_types_invert_pred_types(text):
    """succTypes(E) = {E' : E in predTypes(E')}, each listed once."""
    a = an(text)
    for t, succ in a.succ_types.items():
        assert sorted(succ) == sorted(
            u for u, ps in a.pred_types.items() if t in ps
        )
    assert a.succ_types.keys() == a.pred_types.keys()


@pytest.mark.parametrize(
    "text, word, ok",
    [
        ("(SEQ(A+, B))+", list("AB"), True),
        ("(SEQ(A+, B))+", list("AAB"), True),
        ("(SEQ(A+, B))+", list("ABAB"), True),
        ("(SEQ(A+, B))+", list("ABAAB"), True),
        ("(SEQ(A+, B))+", list("A"), False),
        ("(SEQ(A+, B))+", list("B"), False),
        ("(SEQ(A+, B))+", list("ABB"), False),
        ("(SEQ(A+, B))+", list("BA"), False),
        ("(SEQ(A+, B))+", [], False),
        ("A+", list("A"), True),
        ("A+", list("AAAA"), True),
        ("SEQ(A+, B)", list("AB"), True),
        ("SEQ(A+, B)", list("AAAB"), True),
        ("SEQ(A+, B)", list("ABAB"), False),
        ("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
         ["Accept", "Call", "Cancel", "Finish"], True),
        ("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
         ["Accept", "Call", "Cancel", "Call", "Cancel", "Finish"], True),
        ("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
         ["Accept", "Finish"], False),
        ("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
         ["Accept", "Call", "Finish"], False),
    ],
)
def test_accepts(text, word, ok):
    """Local-language acceptance: start/end/bigram check == pattern match."""
    assert an(text).accepts(word) is ok


def test_is_type():
    a = an("SEQ(A+, B)")
    assert a.is_type("A") and a.is_type("B")
    assert not a.is_type("C")


def test_types_property():
    assert an("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)").types == [
        "Accept", "Call", "Cancel", "Finish",
    ]

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import format_sentence
from embedlab import sigma2
from embedlab.diagram import EmbedlabError, ParseError, total_order_diagram
from embedlab.sigma2 import (
    Literal,
    WitnessTracker,
    greatest_element_sentence,
    least_element_sentence,
    literal_holds,
    parse_sentence,
    refuting_witness_values,
    resolve_sentence,
)

LEAST_TEXT = """\
exists 1
disjunct 0
forall 1: not lt y0 x0
"""


def test_parse_least_sentence():
    s = parse_sentence(LEAST_TEXT, "least")
    assert len(s.disjuncts) == 1
    d = s.disjuncts[0]
    assert d.exists_arity == 1
    lit = d.matrices[0].literal
    assert lit.negated and lit.rel == "lt"
    assert lit.args == (("y", 0), ("x", 0))
    assert s.disjuncts == least_element_sentence().disjuncts
    assert format_sentence(s) == LEAST_TEXT


def test_format_roundtrip_builtins():
    for s in (least_element_sentence(), greatest_element_sentence()):
        again = parse_sentence(format_sentence(s), s.name)
        assert again.disjuncts == s.disjuncts


def test_parse_multi_disjunct():
    text = (
        "exists 1\n"
        "disjunct 0\n"
        "forall 1: not lt y0 x0\n"
        "disjunct 1\n"
        "forall 1: lt x0 y0\n"
        "forall 0: not lt x0 x0\n"
    )
    s = parse_sentence(text)
    assert len(s.disjuncts) == 2
    assert len(s.disjuncts[1].matrices) == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_sentence("disjunct 0\nforall 1: lt x0 y0\n")
    with pytest.raises(ParseError):
        parse_sentence("exists 1\ndisjunct 1\nforall 1: lt x0 y0\n")
    with pytest.raises(ParseError):
        parse_sentence("exists 1\ndisjunct 0\nforall 1: lt x0 y9\n")
    with pytest.raises(ParseError):
        parse_sentence("exists 1\ndisjunct 0\nforall 1: gt x0 y0\n")
    with pytest.raises(ParseError):
        parse_sentence("exists 1\ndisjunct 0\n")


def test_literal_holds_on_total_order():
    d = total_order_diagram([3, 5, 7])
    pos = Literal(False, "lt", (("x", 0), ("y", 0)))
    neg = Literal(True, "lt", (("y", 0), ("x", 0)))
    assert literal_holds(d, pos, (3,), (5,))
    assert not literal_holds(d, pos, (5,), (3,))
    assert literal_holds(d, neg, (3,), (5,))   # nothing below 3 via 5
    assert not literal_holds(d, neg, (5,), (3,))


def test_refuting_witness_values():
    neg = Literal(True, "lt", (("y", 0), ("x", 0)))  # least-style
    assert refuting_witness_values(neg, ("lt", 2, 5)) == [5]
    pos = Literal(False, "lt", (("x", 0), ("y", 0)))
    assert refuting_witness_values(pos, ("lt", 2, 5)) == [5]
    sim_pos = Literal(False, "sim", (("x", 0), ("y", 0)))
    assert refuting_witness_values(sim_pos, ("sim", 2, 5)) == []


def test_witness_tracker_least_on_growing_order():
    tracker = WitnessTracker(least_element_sentence())
    d1 = total_order_diagram([4])
    tracker.update(d1, [4])
    assert tracker.witnesses() == [(4,)]
    d2 = total_order_diagram([2, 4])
    tracker.update(d2, [2])
    assert tracker.witnesses() == [(2,)]  # 4 was killed by 2 below it
    d3 = total_order_diagram([2, 4, 9])
    tracker.update(d3, [9])
    assert tracker.least() == (2,)


def test_witness_tracker_sorts_once_per_update(monkeypatch):
    tracker = WitnessTracker(least_element_sentence())
    assert (tracker.least(), tracker.count(), tracker.witnesses()) == (None, 0, [])
    tracker.update(total_order_diagram([4, 9]), [4, 9])

    def refuse(*args, **kwargs):
        raise AssertionError("the witnesses were sorted again")

    monkeypatch.setattr(sigma2, "sorted", refuse, raising=False)
    for _ in range(2):
        assert tracker.least() == (4,)
        assert tracker.count() == 1
        assert tracker.witnesses() == [(4,)]
    tracker.witnesses().clear()
    assert tracker.count() == 1


def test_witness_tracker_greatest_tracks_maximum():
    tracker = WitnessTracker(greatest_element_sentence())
    chain = []
    for stage, x in enumerate([4, 2, 9, 6]):
        chain.append(x)
        ordered = sorted(chain)
        tracker.update(total_order_diagram(ordered), [x])
    assert tracker.witnesses() == [(9,)]


def test_resolve_sentence_builtin_and_file(tmp_path):
    assert resolve_sentence("least").disjuncts == least_element_sentence().disjuncts
    path = tmp_path / "greatest.s2"
    path.write_text(format_sentence(greatest_element_sentence()))
    loaded = resolve_sentence(str(path))
    assert loaded.disjuncts == greatest_element_sentence().disjuncts
    from embedlab.diagram import InvalidSpec

    with pytest.raises(InvalidSpec):
        resolve_sentence("no_such_sentence")


SENTENCE_TOKENS = st.sampled_from([
    "exists", "disjunct", "forall", "forall 1:", "forall 0:", ":", "not",
    "lt", "sim", "gt", "x0", "x1", "y0", "y1", "x", "y", "x\u00b2", "y\u0663",
    "0", "1", "2", "-1", "+1", "\u0663", "\u00b2", "1_0", "q", "#",
])
SENTENCE_LINES = st.lists(SENTENCE_TOKENS, max_size=6).map(" ".join) | st.text(
    max_size=12)


@given(st.lists(SENTENCE_LINES, max_size=8).map("\n".join))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parse_sentence_fuzz(text):
    """Sentence text either parses or raises an EmbedlabError."""
    try:
        sentence = parse_sentence(text)
    except EmbedlabError:
        return
    assert parse_sentence(format_sentence(sentence)).disjuncts == sentence.disjuncts


@pytest.mark.parametrize("text", [
    "exists x\ndisjunct 0\nforall 1: not lt y0 x0\n",
    "exists\ndisjunct 0\nforall 1: not lt y0 x0\n",
    "exists 1\ndisjunct z\nforall 1: not lt y0 x0\n",
    "exists 1\ndisjunct 0\nforall q: not lt y0 x0\n",
    "exists 1\ndisjunct 0\nforall 1: not lt y\u00b2 x0\n",
])
def test_parse_bad_numbers_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_sentence(text)

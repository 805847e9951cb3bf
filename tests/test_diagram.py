import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_ops

from embedlab.diagram import (
    EmbedlabError,
    InconsistentDiagram,
    InvalidInput,
    ParseError,
    Signature,
    _UnionFind,
    diagram_from_facts,
    el,
    format_facts,
    parse_diagram,
    partition_diagram,
    sim,
    total_order_diagram,
)
from embedlab.streams import StructureStream


def test_parse_simple_order():
    d = parse_diagram("el 0\nlt 0 1\n")
    assert d.signature is Signature.LINEAR_ORDER
    assert d.domain == {0, 1}
    assert ("lt", 0, 1) in d.facts


def test_parse_two_cycle_rejected():
    with pytest.raises(InconsistentDiagram):
        parse_diagram("lt 0 1\nlt 1 0")


def test_parse_long_cycle_rejected():
    with pytest.raises(InconsistentDiagram):
        parse_diagram("lt 0 1\nlt 1 2\nlt 2 0")


def test_parse_sim_closure_one_class():
    d = parse_diagram("sim 0 1\nsim 1 2")
    assert d.signature is Signature.EQUIVALENCE
    assert d.sim_classes() == [[0, 1, 2]]


def _stream(text):
    return StructureStream.from_text("-- stage 0\n" + text)


# Each diagram-file and stream-file error, with the message the CLI
# prints after "error: ".
FILE_ERRORS = [
    ("unknown_relation", "foo 1 2", ParseError, "unknown relation token 'foo'"),
    ("lt_arity", "lt 1", ParseError, "lt takes 2 argument(s): 'lt 1'"),
    ("el_arity", "el 1 2", ParseError, "el takes 1 argument(s): 'el 1 2'"),
    ("non_natural", "lt 1 x", ParseError, "non-natural argument in 'lt 1 x'"),
    ("lt_a_a", "lt 3 3", InconsistentDiagram, "lt 3 3"),
]


@pytest.mark.parametrize("read, text, error, message", [
    *(pytest.param(read, text, error, message, id=f"{kind}-{case}")
      for case, text, error, message in FILE_ERRORS
      for kind, read in (("diagram", parse_diagram), ("stream", _stream))),
    pytest.param(parse_diagram, "lt 0 1\nsim 1 2", ParseError,
                 "diagram mixes lt and sim facts", id="diagram-mixed"),
    pytest.param(_stream, "lt 0 1\nsim 1 2", ParseError,
                 "stream mixes lt and sim facts", id="stream-mixed"),
    pytest.param(parse_diagram, "lt 0 1\nlt 1 2\nlt 2 0", InconsistentDiagram,
                 "lt facts contain a cycle", id="diagram-lt_cycle"),
])
def test_parse_errors(read, text, error, message):
    with pytest.raises(EmbedlabError) as exc:
        read(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_comments_and_blank_lines():
    d = parse_diagram("# header\n\nel 4  # trailing\n")
    assert d.domain == {4}


def test_format_roundtrip():
    d = parse_diagram("el 5\nlt 0 1\nlt 1 2\nlt 0 2\n")
    again = parse_diagram("\n".join(format_facts(sorted(d.facts))))
    assert again.facts == d.facts and again.domain == d.domain


def test_sim_stored_unordered():
    a = parse_diagram("sim 2 1")
    b = parse_diagram("sim 1 2")
    assert a.facts == b.facts


def test_chain_and_totality():
    d = total_order_diagram([3, 1, 4])
    assert d.chain() == [3, 1, 4]
    assert d.is_total()
    # Derivably total: closure decides 0 vs 2 through 1.
    sparse = parse_diagram("lt 0 1\nlt 1 2")
    assert sparse.chain() == [0, 1, 2]
    assert sparse.is_total()
    partial = parse_diagram("lt 0 1\nel 2")
    assert not partial.is_total()
    with pytest.raises(InvalidInput):
        partial.chain()


def test_place_ranks_start_middle_end():
    place = reference_ops.place
    chain = []
    assert place(chain, 5, 0) == [("el", 5)]
    assert place(chain, 7, 1) == [("el", 7), ("lt", 5, 7)]
    assert place(chain, 3, 0) == [("el", 3), ("lt", 3, 5), ("lt", 3, 7)]
    assert place(chain, 6, 2) == [("el", 6), ("lt", 3, 6), ("lt", 5, 6), ("lt", 6, 7)]
    assert chain == [3, 5, 6, 7]


def test_partition_diagram_classes():
    d = partition_diagram([[0, 1], [2]])
    assert d.sim_classes() == [[0, 1], [2]]


@given(n=st.integers(0, 7), data=st.data())
def test_sim_classes_are_the_closure_of_sim(n, data):
    """Against the components of the graph of the stored sim facts."""
    ids = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    facts = [el(x) for x in range(n)] + [sim(a, b) for a, b in pairs if a != b]
    adjacent = {x: set() for x in range(n)}
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)

    def component(x):
        seen, todo = {x}, [x]
        while todo:
            for z in adjacent[todo.pop()] - seen:
                seen.add(z)
                todo.append(z)
        return tuple(sorted(seen))

    want = [list(c) for c in sorted({component(x) for x in range(n)})]
    assert diagram_from_facts(Signature.EQUIVALENCE, facts).sim_classes() == want


def test_union_keeps_the_least_root():
    classes = _UnionFind()
    for x in (3, 1, 4, 5, 9):
        classes.add(x)
    assert classes.union(4, 9) == (4, 9)
    assert classes.union(9, 1) == (1, 4)
    assert classes.union(4, 1) == (1, 1)
    assert classes.find(9) == 1
    assert classes.classes() == [[1, 4, 9], [3], [5]]


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 12), st.integers(0, 12)),
                max_size=40))
def test_union_find_matches_reference(steps):
    """Random adds and unions: the (kept, absorbed) returns, find,
    classes() and the root sizes are those of the plain union-find that
    keeps the least root."""
    classes, want = _UnionFind(), reference_ops._UnionFind()
    for is_union, a, b in steps:
        for x in (a, b) if is_union else (a,):
            classes.add(x)
            want.add(x)
        if is_union:
            ra, rb = want.find(a), want.find(b)
            assert classes.union(a, b) == (min(ra, rb), max(ra, rb))
            want.union(a, b)
    assert {x: classes.find(x) for x in want.parent} == {
        x: want.find(x) for x in want.parent}
    groups: dict = {}
    for x in sorted(want.parent):
        groups.setdefault(want.find(x), []).append(x)
    assert classes.classes() == list(groups.values())
    assert classes.size == {root: len(members) for root, members in groups.items()}

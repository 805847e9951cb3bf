"""One stage diagram per run: StructureStream.iter_stages grows one
FiniteDiagram, built empty, by each delta, and it must read at every stage
exactly as the diagram of the cumulative facts (reference_ops.stage, a
plain fact replay that keeps no chain) reads, errors included, whether
the deltas are facts or placement batches."""

from itertools import permutations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference_ops import (
    Mirror,
    covering,
    covering_stream,
    grows,
    restrict,
    stage,
    stream_file,
)
from embedlab import diagram
from embedlab.combinators import replicate, reverse
from embedlab.constructions import formula2eq, ord2eq
from embedlab.diagram import (
    EmbedlabError,
    FiniteDiagram,
    InconsistentDiagram,
    InvalidInput,
    PlacementBatch,
    Signature,
    format_facts,
)
from embedlab.kernel import run
from embedlab.sigma2 import least_element_sentence
from embedlab.streams import (
    EQUIV_FAMILIES,
    ORDER_FAMILIES,
    PARAMETRIC_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)


def _outcome(call):
    """What a call returns, or the class and message of what it raises."""
    try:
        return "ok", call()
    except EmbedlabError as exc:
        return type(exc), str(exc)


def _inserted(d, line: list, x: int):
    return d.insert(line, x), line


def _readings(d) -> dict:
    """Every reading of a stage, each as an outcome.  below is read first,
    so a grown diagram first reads its order for an unstored pair."""
    domain = sorted(d.domain)
    pairs = list(permutations(domain, 2)) + [(x, x) for x in domain[:1]]
    below = [_outcome(lambda: d.below(a, b)) for a, b in pairs]
    line = _outcome(d.chain)
    base = line[1] if line[0] == "ok" else domain
    return {
        "domain": d.domain,
        "facts": d.facts,
        "below": below,
        "chain": line,
        "is_total": d.is_total(),
        "sim_classes": _outcome(d.sim_classes),
        "holds": [_outcome(lambda: d.holds((rel, a, b)))
                  for a, b in pairs for rel in ("lt", "sim")],
        "insert": [_outcome(lambda: _inserted(d, [y for y in base if y != x], x))
                   for x in domain],
    }


@st.composite
def generated_streams(draw):
    family = draw(st.sampled_from(ORDER_FAMILIES + EQUIV_FAMILIES))
    spec = CanonicalSpec(family, draw(st.sampled_from(("fair", "permuted"))),
                         draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))
    stream = generate(spec, draw(st.integers(1, 14)))
    kind = draw(st.sampled_from(("plain", "covering", "restricted")))
    if kind == "covering" and spec.signature is Signature.LINEAR_ORDER:
        stream = covering_stream(stream)
    elif kind == "restricted":
        domain = sorted(stream.final().domain)
        stream = restrict(stream, draw(st.sets(st.sampled_from(domain))))
    return stream


_ELEMENTS = st.integers(0, 3)
_FACTS = (st.builds(lambda x: ("el", x), _ELEMENTS)
          | st.tuples(_ELEMENTS, _ELEMENTS).filter(lambda p: p[0] != p[1]).map(
              lambda p: ("lt", *p)))


@st.composite
def drawn_streams(draw):
    """Order deltas drawn freely: stages that are not total, lt cycles,
    and facts repeated within a delta or from an earlier one."""
    deltas = draw(st.lists(st.lists(_FACTS, max_size=4), min_size=1, max_size=8))
    return StructureStream(Signature.LINEAR_ORDER, deltas, "drawn")


@st.composite
def read_streams(draw):
    """A stream and the stages at which to read it, so that the grown
    diagram also catches up over several deltas at once."""
    stream = draw(generated_streams() | drawn_streams())
    return stream, draw(st.lists(st.booleans(), min_size=len(stream),
                                 max_size=len(stream)))


def _read_all(*deltas):
    return (StructureStream(Signature.LINEAR_ORDER, list(deltas), "x"),
            [True] * len(deltas))


VIEW_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(read_streams())
# A total chain, then a new lt fact between old elements against it.
@example(_read_all([("el", 0), ("el", 1), ("lt", 0, 1)], [("lt", 1, 0)]))
# Two new elements between stored neighbours, with an lt fact between
# them against the order those neighbours give.
@example(_read_all([("el", 0), ("el", 1), ("lt", 0, 1)],
                   [("el", 2), ("lt", 2, 0), ("el", 3), ("lt", 1, 3), ("lt", 3, 2)]))
@VIEW_SETTINGS
def test_view_reads_like_the_cumulative_diagram(presentation):
    """At each stage read, the grown diagram answers every reading as the
    diagram built from the cumulative facts does and equals it, and its
    delta holds the stage's new facts."""
    stream, read = presentation
    seen: set = set()
    for s, view in enumerate(stream.iter_stages()):
        fresh = [f for f in dict.fromkeys(stream.deltas[s]) if f not in seen]
        seen.update(fresh)
        assert view.delta == fresh
        if read[s] or s == len(stream) - 1:
            assert _readings(view) == _readings(stage(stream, s)), f"stage {s}"
            assert view == stage(stream, s), f"stage {s}"


def _stream(*deltas) -> StructureStream:
    return StructureStream(Signature.LINEAR_ORDER, list(deltas), "x")


@st.composite
def text_read_streams(draw):
    """An order stream written as a file and read back, so that its stages
    are placement batches, from a drawn stage on written as covering pairs
    or with each stage's lines reversed, which are read as facts."""
    family = draw(st.sampled_from(ORDER_FAMILIES))
    k = draw(st.integers(1, 3)) if family in PARAMETRIC_FAMILIES else 1
    spec = CanonicalSpec(family, draw(st.sampled_from(("fair", "permuted"))), k,
                         draw(st.integers(0, 2**16)))
    stream = generate(spec, draw(st.integers(1, 14)))
    blocks = [format_facts(sorted(d)) for d in stream.deltas]
    cut = draw(st.integers(0, len(blocks)))
    tail = draw(st.sampled_from(("none", "covering", "reversed")))
    if tail == "covering":
        blocks[cut:] = map(format_facts, covering(stream.deltas)[cut:])
    elif tail == "reversed":
        blocks[cut:] = [lines[::-1] for lines in blocks[cut:]]
    return StructureStream.from_text(stream_file(blocks))


_BATCH_IDS = st.lists(st.integers(0, 5), max_size=6, unique=True)


@st.composite
def drawn_batch_streams(draw):
    """Placement batches, each placing distinct elements of its chain,
    drawn freely: most do not grow the chain before them (an old element
    moved, dropped or placed again)."""
    deltas = []
    for _ in range(draw(st.integers(1, 6))):
        chain = draw(st.permutations(draw(_BATCH_IDS)))
        new = draw(st.lists(st.sampled_from(chain), max_size=3, unique=True)
                   if chain else st.just([]))
        deltas.append(PlacementBatch(new, tuple(chain)))
    if draw(st.booleans()):  # two batches that grow a chain come first
        deltas = [PlacementBatch((0, 1), (1, 0)), PlacementBatch((2,), (1, 2, 0)), *deltas]
    return StructureStream(Signature.LINEAR_ORDER, deltas, "drawn batches")


@given(text_read_streams() | drawn_batch_streams(), st.data())
# A batch that reverses the chain's old elements: its facts make a cycle.
@example(_stream(PlacementBatch((0, 1), (0, 1)), PlacementBatch((2,), (1, 2, 0))), None)
# A batch that places an old element again.
@example(_stream(PlacementBatch((0, 1), (0, 1)), PlacementBatch((0, 2), (0, 2, 1))), None)
@VIEW_SETTINGS
def test_stages_grown_from_placements_read_like_the_cumulative_diagram(stream, data):
    """A stage grown by placement batches, or by facts after them, answers
    every reading as the diagram built from the cumulative facts does and
    equals it, and its delta holds the stage's new facts."""
    read = [True] * len(stream) if data is None else data.draw(
        st.lists(st.booleans(), min_size=len(stream), max_size=len(stream)))
    seen: set = set()
    for s, view in enumerate(stream.iter_stages()):
        fresh = [f for f in dict.fromkeys(stream.deltas[s]) if f not in seen]
        seen.update(fresh)
        assert view.delta == fresh
        if read[s] or s == len(stream) - 1:
            assert _readings(view) == _readings(stage(stream, s)), f"stage {s}"
            assert view == stage(stream, s), f"stage {s}"


_OLD_CHAINS = st.lists(st.integers(0, 7), max_size=5, unique=True)
_FRESH = st.lists(st.integers(8, 11), max_size=3, unique=True)
_FAULTS = ("none", "repeated", "old", "missing", "moved", "free")


@st.composite
def growth_cases(draw):
    """A chain and a batch that grows it, or the batch with one fault: a
    new element listed twice, an old element listed as new, a new element
    whose place another element takes, two elements swapped, or a batch
    drawn freely."""
    old = draw(_OLD_CHAINS)
    new = draw(_FRESH)
    grown = list(old)
    for x in new:
        grown.insert(draw(st.integers(0, len(grown))), x)
    fault = draw(st.sampled_from(_FAULTS))
    listed = {"repeated": new, "old": old}.get(fault)
    if listed:
        x = draw(st.sampled_from(listed))
        new.append(x)
        if draw(st.booleans()):  # placed once more, so the length still fits
            grown.insert(draw(st.integers(0, len(grown))), x)
    elif fault == "missing" and new:
        x = draw(st.sampled_from(new))
        grown[grown.index(x)] = draw(st.sampled_from(new + old))
    elif fault == "moved" and len(grown) > 1:
        i, j = draw(st.lists(st.integers(0, len(grown) - 1), min_size=2,
                             max_size=2, unique=True))
        grown[i], grown[j] = grown[j], grown[i]
    elif fault == "free":
        new = draw(st.lists(st.integers(0, 11), max_size=3))
        grown = draw(st.lists(st.integers(0, 11), max_size=8))
    return tuple(old), PlacementBatch(tuple(new), tuple(grown))


@given(growth_cases())
# Element 5 placed twice where 6 belongs: as long as a growth.
@example(((0,), PlacementBatch((5, 6), (0, 5, 5))))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_growth_check_matches_its_reference(case):
    """The growth rule a diagram keeps its chain by agrees with the rule
    written element by element, on well-formed batches and faulty ones."""
    old, batch = case
    assert diagram._grows(old, batch) == grows(old, batch)


NOT_TOTAL = _stream([("el", 0)], [("el", 1)])
CYCLIC = _stream([("el", 0), ("el", 1), ("lt", 0, 1)], [("el", 2), ("lt", 1, 0)])


def _last_stage(stream: StructureStream):
    for view in stream.iter_stages():
        pass
    return view


NOT_TOTAL_ORDER = (InvalidInput, "diagram is not a total order")
LT_CYCLE = (InconsistentDiagram, "lt facts contain a cycle")
INNER_NOT_TOTAL = (
    InvalidInput, "an order combinator needs its inner output to be a total order")

# Errors of a stage and of an inner fact operator's output that is not a
# total order: (what raises, class, message).
STAGE_ERRORS = {
    "view_not_total": (lambda: _last_stage(NOT_TOTAL).chain(), *NOT_TOTAL_ORDER),
    "view_cycle": (lambda: _last_stage(CYCLIC).chain(), *LT_CYCLE),
    "view_below_not_total": (lambda: _last_stage(NOT_TOTAL).below(0, 1),
                             *NOT_TOTAL_ORDER),
    "run_not_total": (lambda: run(replicate(1), NOT_TOTAL, 2), *NOT_TOTAL_ORDER),
    # Stage 0 stores both pairs replicate asks about; element 2 needs ranks.
    "run_cycle": (lambda: run(replicate(1), _stream(
        [("el", 0), ("el", 1), ("lt", 0, 1), ("lt", 1, 0)], [("el", 2)]), 2),
        *LT_CYCLE),
    "batches_not_total": (lambda: run(reverse(Mirror()), NOT_TOTAL, 2),
                          *INNER_NOT_TOTAL),
    "batches_cycle": (lambda: run(reverse(Mirror()), CYCLIC, 2), *INNER_NOT_TOTAL),
}


@pytest.mark.parametrize("name", sorted(STAGE_ERRORS))
def test_stage_errors(name):
    call, cls, message = STAGE_ERRORS[name]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


@pytest.mark.parametrize("op", [formula2eq(least_element_sentence(), 1), ord2eq()])
def test_repeated_facts_reach_a_step_once(op):
    """A stream built in code may repeat a fact; each step gets only the
    facts new to the run, so nothing is seeded or logged twice."""
    stream = _stream([("el", 0), ("el", 1), ("lt", 0, 1)], [], [("el", 1)], [])
    log = run(op, stream, len(stream))
    facts = [f for rec in log.records for f in rec.new_facts]
    assert facts and len(facts) == len(set(facts))


def test_a_diagram_built_from_facts_grows_like_one_built_empty():
    """diagram_from_facts grows an empty diagram once, so its diagram can
    grow again: the delta holds only the facts new to it, and the facts it
    was built from are left as they were."""
    facts = frozenset({("el", 0), ("el", 1), ("lt", 0, 1)})
    d = diagram.diagram_from_facts(Signature.LINEAR_ORDER, facts)
    d.grow([("el", 1), ("el", 2), ("lt", 1, 2)])
    assert d.delta == [("el", 2), ("lt", 1, 2)]
    assert d.chain() == [0, 1, 2]
    assert facts == {("el", 0), ("el", 1), ("lt", 0, 1)}


def _count_diagram_work(monkeypatch) -> list:
    """Record each FiniteDiagram construction ("init") and each read of
    its order ("topo"), which runs a Kahn pass unless one is cached."""
    calls: list = []
    init = FiniteDiagram.__init__
    topo = FiniteDiagram._topo

    def counted_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def counted_topo(self):
        calls.append("topo")
        return topo(self)

    monkeypatch.setattr(FiniteDiagram, "__init__", counted_init)
    monkeypatch.setattr(FiniteDiagram, "_topo", counted_topo)
    return calls


def test_a_run_builds_no_diagram_per_stage(monkeypatch):
    """Stages are one diagram grown in place: on a stream that stores
    every pair, a run builds that diagram only and never reads its order."""
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 80)
    calls = _count_diagram_work(monkeypatch)
    assert run(replicate(2), stream, 80).records[-1].new_facts.chain
    assert calls == ["init"]


def _count_expansions(monkeypatch) -> list:
    """Record, for each placement batch expanded into its facts, the size
    of its chain."""
    calls: list = []
    expand = diagram._sorted_facts

    def counted(new, chain):
        calls.append(len(chain))
        return expand(new, chain)

    monkeypatch.setattr(diagram, "_sorted_facts", counted)
    return calls


@pytest.mark.parametrize("op", [replicate(2), ord2eq()], ids=["replicate:2", "ord2eq"])
def test_a_run_over_a_placement_file_reads_its_chain(op, monkeypatch):
    """An order file read as placements grows a run's diagram by its
    chain: the run builds that diagram only, runs no Kahn pass and expands
    no batch into facts."""
    text = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 120).to_text()
    stream = StructureStream.from_text(text)
    assert all(isinstance(d, PlacementBatch) for d in stream.deltas)
    calls = _count_diagram_work(monkeypatch)
    expanded = _count_expansions(monkeypatch)
    assert run(op, stream, 120).records[-1].new_facts
    assert calls == ["init"] and expanded == []


@pytest.mark.parametrize("read_back", [False, True], ids=["generated", "file"])
def test_final_grows_the_chain_of_placements(read_back, monkeypatch):
    """final() of an order stream of placements, generated or read back
    from its file, keeps their chain: it builds one diagram, runs no Kahn
    pass and expands no batch, and equals the last stage of the fact
    replay."""
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 60)
    if read_back:
        stream = StructureStream.from_text(stream.to_text())
    calls = _count_diagram_work(monkeypatch)
    expanded = _count_expansions(monkeypatch)
    final = stream.final()
    assert final.chain() and final.is_total()
    assert calls == ["init"] and expanded == []
    assert final == stage(stream, len(stream) - 1)


@given(generated_streams() | drawn_streams() | drawn_batch_streams())
@example(covering_stream(generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 30)))
@example(generate(CanonicalSpec("e_hat_k", "permuted", 2, seed=7), 30))
@VIEW_SETTINGS
def test_final_is_the_last_stage_of_the_fact_replay(stream):
    """final() equals the diagram of all of a stream's facts, on order
    streams of facts, placements or both and on equivalence streams."""
    assert stream.final() == stage(stream, len(stream) - 1)


def test_covering_stages_expand_the_batches_before_them_once(monkeypatch):
    """From the first stage read as facts, a grown diagram stores facts:
    it expands each batch before that stage once, at that stage."""
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 40)
    cut = 20
    blocks = [format_facts(sorted(d)) for d in stream.deltas[:cut]]
    blocks += map(format_facts, covering(stream.deltas)[cut:])
    read = StructureStream.from_text(stream_file(blocks))
    assert [isinstance(d, PlacementBatch) for d in read.deltas] == [True] * cut + [False] * 20
    want = [stage(stream, s).chain() for s in range(len(stream))]
    expanded = _count_expansions(monkeypatch)
    counts = []
    for view in read.iter_stages():
        assert view.chain() == want[len(counts)]
        counts.append(len(expanded))
    assert counts == [0] * cut + [cut] * 20
    assert expanded == list(range(1, cut + 1))

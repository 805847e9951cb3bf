"""One order view: every reader of lt (and of sim in sentence literals) asks
FiniteDiagram, so an order given by its covering pairs reads exactly like
its all-pairs closure, and an order given by fact deltas is replayed one
way (diagram.arrivals)."""

from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_ops
from reference_ops import covering, covering_stream
from test_stage_view import drawn_batch_streams
from embedlab import diagram
from embedlab.classify import consistency_verdict, fingerprint
from embedlab.combinators import replicate
from embedlab.constructions import (
    StagePair,
    formula2eq,
    ord2eq,
    pair_formula2eq,
    phi_pair,
    phi_sigma2,
)
from embedlab.diagram import (
    EmbedlabError,
    InconsistentDiagram,
    InvalidInput,
    PlacementBatch,
    Signature,
    arrivals,
    diagram_from_facts,
    parse_diagram,
    partition_diagram,
    total_order_diagram,
)
from embedlab.forcing import trichotomy_scan
from embedlab.kernel import RunLog, StageRecord, run
from embedlab.pairing import tag
from embedlab.sigma2 import (
    Literal,
    greatest_element_sentence,
    least_element_sentence,
    literal_holds,
    parse_sentence,
)
from embedlab.streams import (
    ORDER_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)

TWO_VARIABLE = parse_sentence(
    "exists 2\ndisjunct 0\nforall 0: lt x0 x1\nforall 1: not lt y0 x0\n",
    name="two_variable",
)


def covering_log(log: RunLog) -> RunLog:
    deltas = covering([rec.new_facts for rec in log.records])
    out = RunLog(log.operator, log.signature, log.provenance, log.schedule)
    out.records = [StageRecord(rec.stage, delta, rec.annotations)
                   for rec, delta in zip(log.records, deltas)]
    return out


@st.composite
def order_streams(draw):
    family = draw(st.sampled_from(ORDER_FAMILIES))
    k = draw(st.integers(1, 3))
    spec = CanonicalSpec(family, draw(st.sampled_from(("fair", "permuted"))),
                         k, draw(st.integers(0, 2**16)))
    return spec, generate(spec, draw(st.integers(1, 30)))


COVERING_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _targets(stages, cover):
    a = generate(CanonicalSpec("omega_k", k=2), stages + 4)
    b = generate(CanonicalSpec("omega_star_k", k=2), stages + 4)
    if cover:
        a, b = covering_stream(a), covering_stream(b)
    return StagePair(a, b)


COVERING_OPERATORS = {
    "replicate:1": lambda n, cover: replicate(1),
    "replicate:2": lambda n, cover: replicate(2),
    "replicate:3": lambda n, cover: replicate(3),
    "ord2eq": lambda n, cover: ord2eq(),
    "formula2eq:least": lambda n, cover: formula2eq(least_element_sentence(), 1),
    "formula2eq:greatest": lambda n, cover: formula2eq(
        greatest_element_sentence(), 2),
    "pair_formula2eq": lambda n, cover: pair_formula2eq(
        least_element_sentence(), greatest_element_sentence()),
    "phi_sigma2": lambda n, cover: phi_sigma2(
        least_element_sentence(), greatest_element_sentence()),
    "phi_sigma2:two_variable": lambda n, cover: phi_sigma2(
        TWO_VARIABLE, greatest_element_sentence()),
    "phi_pair": lambda n, cover: phi_pair(_targets(n, cover)),
}


def _assert_same_reading(all_pairs: RunLog, sparse: RunLog, claim):
    fp = fingerprint(all_pairs, 5)
    assert fp == reference_ops.fingerprint(all_pairs, 5)
    assert fingerprint(sparse, 5) == fp
    assert (consistency_verdict(sparse, claim).evidence
            == consistency_verdict(all_pairs, claim).evidence)


@pytest.mark.parametrize("name", sorted(COVERING_OPERATORS))
@given(order_streams())
@COVERING_SETTINGS
def test_covering_pairs_run_as_all_pairs(name, presentation):
    spec, stream = presentation
    n = len(stream)
    make = COVERING_OPERATORS[name]
    full = run(make(n, False), stream, n)
    sparse = run(make(n, True), covering_stream(stream), n)
    assert [r.new_facts for r in sparse.records] == [
        r.new_facts for r in full.records]
    assert [r.annotations for r in sparse.records] == [
        r.annotations for r in full.records]
    if full.signature is Signature.LINEAR_ORDER:
        claim = CanonicalSpec(spec.family, k=spec.k)
        _assert_same_reading(full, covering_log(full), claim)


@given(order_streams())
@COVERING_SETTINGS
def test_covering_stream_classifies_as_all_pairs(presentation):
    spec, stream = presentation
    _assert_same_reading(RunLog.from_stream(stream),
                         RunLog.from_stream(covering_stream(stream)),
                         CanonicalSpec(spec.family, k=spec.k))


@st.composite
def replayed_streams(draw):
    """A generated order stream, possibly restricted to a drawn set of its
    elements (so some stages add nothing), possibly cut to covering pairs."""
    _, stream = draw(order_streams())
    if draw(st.booleans()):
        stream = reference_ops.restrict(stream, draw(st.sets(st.integers(0, len(stream) - 1))))
    if draw(st.booleans()):
        stream = covering_stream(stream)
    return stream


@given(replayed_streams() | drawn_batch_streams())
# The first batch's facts leave 1 and 2 unordered; the second orders them.
@example(StructureStream(Signature.LINEAR_ORDER, [
    PlacementBatch((0,), (1, 2, 0)), PlacementBatch((1,), (1, 2))], "drawn batches"))
@COVERING_SETTINGS
def test_arrivals_yield_each_prefix_order(stream):
    """At each delta that names new elements, arrivals yields those
    elements and the order that chain() reads from the deltas so far.
    Placement batches drawn freely, most of which do not grow the chain
    before them, are replayed from their facts: where their facts together
    are not a total order, arrivals raises as chain() does, and a prefix
    that leaves a pair unordered is read in the order of all of them."""
    try:
        order = diagram_from_facts(
            Signature.LINEAR_ORDER, chain.from_iterable(stream.deltas)).chain()
    except EmbedlabError as exc:
        with pytest.raises(type(exc)):
            list(arrivals(stream.deltas))
        return
    got = [(i, list(new), list(line)) for i, new, line in arrivals(stream.deltas)]
    want = []
    seen: set = set()
    for i in range(len(stream)):
        prefix = diagram_from_facts(
            Signature.LINEAR_ORDER, chain.from_iterable(stream.deltas[:i + 1]))
        if prefix.domain - seen:
            line = (prefix.chain() if prefix.is_total()
                    else [x for x in order if x in prefix.domain])
            want.append((i, sorted(prefix.domain - seen), line))
            seen |= prefix.domain
    assert got == want


def _fact_log(*deltas) -> RunLog:
    log = RunLog("x", Signature.LINEAR_ORDER, "", "")
    log.records = [StageRecord(s, list(delta)) for s, delta in enumerate(deltas)]
    return log


def _phi_pair_run(target_a, stages: int):
    target_b = generate(CanonicalSpec("omega_star_k", k=2), stages + 4)
    run(phi_pair(StagePair(target_a, target_b)),
        generate(CanonicalSpec("omega"), stages), stages)


def _target(*deltas) -> StructureStream:
    return StructureStream(Signature.LINEAR_ORDER, list(deltas), "target")


# Errors of an order given by its facts: (what raises, class, message).
ORDER_FACT_ERRORS = {
    "log_cycle_with_every_pair": (
        lambda: fingerprint(_fact_log(
            [("el", 0), ("el", 1), ("lt", 0, 1)],
            [("el", 2), ("lt", 1, 2), ("lt", 2, 0)]), 5),
        InconsistentDiagram, "lt facts contain a cycle"),
    "log_not_total": (
        lambda: fingerprint(_fact_log(
            [("el", 0), ("el", 1)], [("el", 2), ("lt", 0, 2)]), 5),
        InvalidInput, "diagram is not a total order"),
    "target_shorter_than_run": (
        lambda: _phi_pair_run(generate(CanonicalSpec("omega_k", k=2), 3), 10),
        InvalidInput, "target stream is shorter than the run"),
    "target_stage_adds_two": (
        lambda: _phi_pair_run(_target(
            [("el", 0), ("el", 1), ("lt", 0, 1)],
            [("el", 2), ("lt", 0, 2), ("lt", 1, 2)]), 2),
        InvalidInput, "target stages must add element s at stage s"),
    "target_stage_adds_none": (
        lambda: _phi_pair_run(_target([("el", 0)], [], [("el", 1), ("lt", 0, 1)]), 3),
        InvalidInput, "target stages must add element s at stage s"),
}


@pytest.mark.parametrize("name", sorted(ORDER_FACT_ERRORS))
def test_order_fact_errors(name):
    call, cls, message = ORDER_FACT_ERRORS[name]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


def test_fair_omega_2_verdict_does_not_depend_on_presentation():
    spec = CanonicalSpec("omega_k", k=2)
    stream = generate(spec, 80)
    for log in (RunLog.from_stream(stream),
                RunLog.from_stream(covering_stream(stream))):
        assert consistency_verdict(log, spec).verdict == "CONSISTENT"


def test_sim_literals_read_the_partition():
    sparse = diagram_from_facts(Signature.EQUIVALENCE, [
        ("el", 0), ("el", 1), ("el", 2), ("el", 3), ("sim", 0, 1), ("sim", 1, 2)])
    closed = partition_diagram([[0, 1, 2], [3]])
    lit = Literal(False, "sim", (("x", 0), ("y", 0)))
    for xs in range(4):
        for ys in range(4):
            assert (literal_holds(sparse, lit, (xs,), (ys,))
                    == literal_holds(closed, lit, (xs,), (ys,))
                    == ((xs == 3) == (ys == 3)))


@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy", ("fair", "permuted"))
def test_fingerprint_matches_reference_on_all_pairs_logs(family, policy):
    stream = generate(CanonicalSpec(family, policy, 2, seed=5), 120)
    for log in (RunLog.from_stream(stream), run(replicate(2), stream, 120),
                run(phi_sigma2(least_element_sentence(),
                               greatest_element_sentence()), stream, 120)):
        for threshold in (1, 5, 20):
            assert (fingerprint(log, threshold)
                    == reference_ops.fingerprint(log, threshold))


# --- long chains ------------------------------------------------------------

def _chain_text(n: int) -> str:
    return "".join(f"lt {i} {i + 1}\n" for i in range(n - 1))


def test_long_covering_chain_is_total():
    d = parse_diagram(_chain_text(2000))
    assert d.is_total()
    assert d.chain() == list(range(2000))
    assert d.below(0, 1999) and not d.below(1999, 0)
    line = [0, 1999]
    assert d.insert(line, 1000) == 1 and line == [0, 1000, 1999]


def test_cycle_and_non_total_errors():
    with pytest.raises(InconsistentDiagram):
        parse_diagram(_chain_text(2000) + "lt 1999 0\n")
    non_total = parse_diagram("lt 0 1\nlt 0 2\n")
    assert not non_total.is_total()
    with pytest.raises(InvalidInput):
        non_total.chain()
    # Both at once: the cycle is reported.
    both = diagram_from_facts(Signature.LINEAR_ORDER, [
        ("lt", 0, 1), ("lt", 1, 0), ("el", 2)])
    assert both.has_lt_cycle() and not both.is_total()
    with pytest.raises(InconsistentDiagram):
        both.chain()


def test_a_total_order_built_in_code_is_its_chain(monkeypatch):
    """A total order built in code keeps its chain: its order readers, an
    operator's evaluation of it and the forcing scan over such orders run
    no Kahn pass and expand no batch into its facts."""
    def refuse(*args):
        raise AssertionError("an order built in code was read from its facts")

    monkeypatch.setattr(diagram.FiniteDiagram, "_topo", refuse)
    monkeypatch.setattr(diagram, "_layout", refuse)
    assert trichotomy_scan(replicate(2), 3, 2, 8).clean
    c = [4, 0, 3, 1]
    d = total_order_diagram(c)
    assert d.chain() == c and d.is_total()
    assert d.below(4, 1) and not d.below(1, 0)
    assert replicate(2).eval(total_order_diagram(c), 4).chain() == [
        tag(0, x) for x in c] + [tag(1, x) for x in c]


def test_a_batch_chain_that_repeats_a_new_element_is_not_a_growth():
    """A placement batch whose chain holds a new element twice does not
    grow the chain, in any reader: its facts relate the element to
    itself."""
    bad = PlacementBatch((1,), (1, 1))
    stream = StructureStream(Signature.LINEAR_ORDER, [bad], "")
    view = next(stream.iter_stages())
    assert not view.is_total()
    with pytest.raises(InconsistentDiagram):
        view.chain()
    with pytest.raises(InconsistentDiagram):
        reference_ops.stage(stream, 0).chain()
    with pytest.raises(InconsistentDiagram):
        list(arrivals([bad]))
    with pytest.raises(InconsistentDiagram):
        total_order_diagram([1, 1]).chain()


def test_a_batch_chain_that_drops_a_new_element_is_not_a_growth():
    """A placement batch whose chain holds one new element twice and the
    other not at all is as long as a growth would be, but does not grow
    the chain, in any reader: its facts relate the element to itself."""
    batches = [PlacementBatch((0,), (0,)), PlacementBatch((5, 6), (0, 5, 5))]
    stream = StructureStream(Signature.LINEAR_ORDER, batches, "")
    *_, view = stream.iter_stages()
    assert not view.is_total()
    with pytest.raises(InconsistentDiagram):
        view.chain()
    with pytest.raises(InconsistentDiagram):
        reference_ops.stage(stream, 1).chain()
    with pytest.raises(InconsistentDiagram):
        list(arrivals(batches))

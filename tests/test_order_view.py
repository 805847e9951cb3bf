"""One order view: every reader of lt (and of sim in sentence literals) asks
FiniteDiagram, so an order given by its covering pairs reads exactly like
its all-pairs closure."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ops
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
    InconsistentDiagram,
    InvalidInput,
    Signature,
    diagram_from_facts,
    parse_diagram,
    partition_diagram,
)
from embedlab.kernel import RunLog, StageRecord, run
from embedlab.sigma2 import (
    Literal,
    greatest_element_sentence,
    least_element_sentence,
    literal_holds,
    parse_sentence,
)
from embedlab.streams import ORDER_FAMILIES, CanonicalSpec, StructureStream, generate

TWO_VARIABLE = parse_sentence(
    "exists 2\ndisjunct 0\nforall 0: lt x0 x1\nforall 1: not lt y0 x0\n",
    name="two_variable",
)


def covering(deltas) -> list:
    """Each delta's el facts plus only the lt facts between each element
    that is new in it and its immediate neighbours in the order so far."""
    out = []
    facts: set = set()
    seen: set = set()
    for delta in deltas:
        facts.update(delta)
        line = diagram_from_facts(Signature.LINEAR_ORDER, facts).chain()
        new = {x for f in delta for x in f[1:]} - seen
        seen |= new
        out.append(sorted(
            [f for f in delta if f[0] == "el"]
            + [("lt", a, b) for a, b in zip(line, line[1:])
               if a in new or b in new]))
    return out


def covering_stream(stream: StructureStream) -> StructureStream:
    # Through the file format, so the parser sees the sparse facts too.
    text = StructureStream(stream.signature, covering(stream.deltas), "").to_text()
    return StructureStream.from_text(text, stream.provenance)


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


def test_fingerprint_rejects_non_total_log():
    log = RunLog("x", Signature.LINEAR_ORDER, "", "")
    log.records = [StageRecord(0, [("el", 0), ("el", 1)]),
                   StageRecord(1, [("el", 2), ("lt", 0, 2)])]
    with pytest.raises(InvalidInput):
        fingerprint(log, 5)


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

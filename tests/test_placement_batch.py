"""Order outputs as placement batches: every built-in order writer returns
the elements it placed plus its output chain, and diagram.py alone turns
that into the all-pairs facts a run log records."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from embedlab import diagram
from embedlab.classify import fingerprint
from embedlab.combinators import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    concatenate,
    interval_fill,
    replicate,
    reverse,
)
from embedlab.constructions import StagePair
from embedlab.diagram import (
    InvalidInput,
    PlacementBatch,
    Signature,
    diagram_from_facts,
    parse_diagram,
)
from embedlab.kernel import (
    EnumerationOperator,
    RunLog,
    StreamEvaluator,
    evaluate,
    parse_schedule,
    run,
)
from embedlab.registry import build_operator
from embedlab.streams import ORDER_FAMILIES, CanonicalSpec, StructureStream, generate


def naive_facts(new, chain) -> list:
    """el for each new element and every ordered pair with a new end."""
    fresh = set(new)
    facts = {("el", x) for x in fresh}
    facts.update(("lt", a, b) for i, a in enumerate(chain) for b in chain[i + 1:]
                 if a in fresh or b in fresh)
    return sorted(facts)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 40))
    chain = tuple(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n,
                                unique=True)))
    m = draw(st.integers(0, min(n, 6)))
    where = draw(st.sampled_from(("start", "middle", "end", "spread")))
    if where == "start":
        positions = range(m)
    elif where == "end":
        positions = range(n - m, n)
    elif where == "middle":
        positions = range((n - m) // 2, (n - m) // 2 + m)
    else:
        positions = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=m)) if n else ()
    new = [chain[i] for i in positions]
    return draw(st.permutations(new)), chain


@given(batches())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batch_expansion_matches_naive_all_pairs(batch):
    new, chain = batch
    b = PlacementBatch(new, chain)
    want = naive_facts(new, chain)
    assert list(b) == want
    assert b == want and want == b
    assert len(b) == len(want)
    d = b.diagram()
    assert d.facts == frozenset(want)
    assert d.domain == (frozenset(chain) if new else frozenset())
    assert list(b.reversed()) == naive_facts(new, chain[::-1])


@pytest.mark.parametrize("n", (0, 1, 2, 8, 40))
def test_all_new_batch_and_total_order_diagram(n):
    chain = tuple(range(3 * n, 0, -3))
    b = PlacementBatch(chain, chain)
    assert list(b) == naive_facts(chain, chain)
    d = diagram.total_order_diagram(chain)
    assert d.facts == frozenset(naive_facts(chain, chain))
    assert d.domain == frozenset(chain)
    assert d.chain() == list(chain)


def test_len_does_not_expand(monkeypatch):
    def refuse(*args):
        raise AssertionError("len() built the facts")

    monkeypatch.setattr(diagram, "_sorted_facts", refuse)
    chain = tuple(range(1000))
    assert len(PlacementBatch(chain[400:403], chain)) == 3 + 3 * 997 + 3
    assert len(PlacementBatch((), chain)) == 0
    assert not PlacementBatch((), chain)


def test_batch_equality_with_other_values():
    b = PlacementBatch((1,), (0, 1))
    assert b == [("el", 1), ("lt", 0, 1)]
    assert b == PlacementBatch([1], [0, 1])
    assert b != PlacementBatch((0,), (0, 1))
    assert b != "el 1"
    with pytest.raises(TypeError):
        hash(b)


def test_place_is_a_one_element_batch():
    chain = [4, 9, 2]
    facts = diagram.place(chain, 7, 1)
    assert chain == [4, 7, 9, 2]
    assert sorted(facts) == list(PlacementBatch((7,), tuple(chain)))


# --- run logs ---------------------------------------------------------------

PIPELINE = "concat(eq2ord_v1|fill:left,eq2ord_v2|fill:right)"
ORDER_EXPRESSIONS = (
    "replicate:1", "replicate:2", "replicate:3", "rev(replicate:2)",
    "replicate:1|fill:right", "concat(replicate:1,rev(replicate:1))",
    "phi_pair", "phi_sigma2",
)
EQUIV_EXPRESSIONS = ("eq2ord_v1", "eq2ord_v2", "eq2ord_v1|fill:left", PIPELINE)


def _targets():
    return StagePair(generate(CanonicalSpec("omega_k", k=2), 34),
                     generate(CanonicalSpec("omega_star_k", k=2), 34))


def _logs():
    order_in = generate(CanonicalSpec("omega_k", "permuted", 2, seed=3), 30)
    equiv_in = generate(CanonicalSpec("e_hat_k", "permuted", 2, seed=3), 24)
    for exprs, stream in ((ORDER_EXPRESSIONS, order_in), (EQUIV_EXPRESSIONS, equiv_in)):
        for expr in exprs:
            op = build_operator(expr, targets=_targets())
            for schedule in ("identity", "const:7"):
                name, fn = parse_schedule(schedule)
                yield f"{expr}:{schedule}", run(op, stream, len(stream), fn, name)


@pytest.mark.parametrize("label,log", list(_logs()), ids=lambda v: v if isinstance(v, str) else "")
def test_batch_logs_round_trip_through_jsonl(label, log):
    assert all(isinstance(r.new_facts, PlacementBatch) for r in log.records)
    decoded = RunLog.from_jsonl(log.to_jsonl())
    assert decoded == log
    assert log == decoded
    assert decoded.to_jsonl() == log.to_jsonl()
    assert decoded.final_facts() == log.final_facts()
    for rec, back in zip(log.records, decoded.records):
        assert len(rec.new_facts) == len(back.new_facts)


FINGERPRINT_OPERATORS = (
    "replicate:1", "replicate:3", "rev(replicate:2)", "replicate:1|fill:left",
    "concat(replicate:1,replicate:2)", "phi_sigma2",
)


@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy", ("fair", "permuted"))
def test_fingerprint_same_on_batches_decoded_and_reference(family, policy):
    stream = generate(CanonicalSpec(family, policy, 2, seed=9), 50)
    for expr in FINGERPRINT_OPERATORS:
        log = run(build_operator(expr), stream, 50)
        decoded = RunLog.from_jsonl(log.to_jsonl())
        for threshold in (1, 5, 20):
            fp = fingerprint(log, threshold)
            assert fp == fingerprint(decoded, threshold), expr
            assert fp == reference_ops.fingerprint(log, threshold), expr


# --- inner operators that return plain facts --------------------------------


class Mirror(EnumerationOperator):
    """The input order reversed, from budget 1 (README's example)."""

    name = "mirror"

    def make_stream_evaluator(self):
        return _MirrorStream()


class _MirrorStream(StreamEvaluator):
    def __init__(self):
        self.pending = []

    def step(self, diagram, delta, budget):
        self.pending += delta
        if budget < 1:
            return [], None
        new = [f if f[0] == "el" else ("lt", f[2], f[1]) for f in self.pending]
        self.pending = []
        return new, None


def _covering(stream: StructureStream) -> StructureStream:
    """The stream with each stage's lt facts cut to the new elements'
    immediate neighbours."""
    deltas = []
    facts: set = set()
    for delta in stream.deltas:
        facts.update(delta)
        line = diagram_from_facts(Signature.LINEAR_ORDER, facts).chain()
        new = {f[1] for f in delta if f[0] == "el"}
        deltas.append([f for f in delta if f[0] == "el"] + [
            ("lt", a, b) for a, b in zip(line, line[1:]) if a in new or b in new])
    return StructureStream(stream.signature, deltas, stream.provenance)


MIRROR_COMBINATORS = {
    "reverse": (lambda: reverse(Mirror()),
                lambda: reference_ops.fact_reverse(Mirror())),
    "fill:left": (lambda: interval_fill(Mirror(), LEFT_CLOSED),
                  lambda: reference_ops.fact_fill(Mirror(), LEFT_CLOSED)),
    "fill:right": (lambda: interval_fill(Mirror(), RIGHT_CLOSED),
                   lambda: reference_ops.fact_fill(Mirror(), RIGHT_CLOSED)),
    "concat": (lambda: concatenate(Mirror(), replicate(1)),
               lambda: reference_ops.fact_concat(Mirror(), replicate(1))),
}


@pytest.mark.parametrize("name", sorted(MIRROR_COMBINATORS))
@pytest.mark.parametrize("cover", (False, True))
@pytest.mark.parametrize("schedule", ("identity", "const:9"))
def test_combinators_over_fact_operators_keep_their_logs_up_to_closure(
        name, cover, schedule):
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=4), 20)
    if cover:
        stream = _covering(stream)
    make, make_reference = MIRROR_COMBINATORS[name]
    sched, fn = parse_schedule(schedule)
    log = run(make(), stream, 20, fn, sched)
    old = run(make_reference(), stream, 20, fn, sched)
    facts: set = set()
    for rec, old_rec in zip(log.records, old.records):
        facts.update(old_rec.new_facts)
        order = diagram_from_facts(Signature.LINEAR_ORDER, facts)
        assert order.chain() == list(rec.new_facts.chain)
        if not cover:
            assert rec.new_facts == old_rec.new_facts


@pytest.mark.parametrize("make", [
    lambda: reverse(Mirror()),
    lambda: interval_fill(Mirror(), LEFT_CLOSED),
    lambda: concatenate(replicate(1), Mirror()),
])
@pytest.mark.parametrize("text", ["el 0\nel 1\n", "lt 0 1\nel 2\n"])
def test_combinators_reject_a_non_total_inner_output(make, text):
    with pytest.raises(InvalidInput, match="total order"):
        evaluate(make(), parse_diagram(text), 4)

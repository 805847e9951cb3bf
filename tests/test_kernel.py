import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from embedlab.combinators import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    concatenate,
    disjoint_union,
    interval_fill,
    replicate,
    reverse,
)
from embedlab.constructions import (
    StagePair,
    class_multiplier,
    eq2ord_v1,
    eq2ord_v2,
    formula2eq,
    ord2eq,
    pair_formula2eq,
)
from embedlab.diagram import (
    InvalidInput,
    InvalidSchedule,
    InvalidSpec,
    Signature,
    SignatureError,
    parse_diagram,
    total_order_diagram,
)
from embedlab.kernel import (
    EnumerationOperator,
    RunLog,
    StreamEvaluator,
    parse_schedule,
    run,
)
from embedlab.registry import build_operator
from embedlab.sigma2 import greatest_element_sentence, least_element_sentence
from embedlab.streams import (
    EQUIV_FAMILIES,
    ORDER_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)
from reference_ops import AxiomTableOperator, reference_facts, restrict, stage


def order_ops():
    return [
        replicate(1),
        replicate(3),
        reverse(replicate(2)),
        interval_fill(replicate(1), LEFT_CLOSED),
        concatenate(replicate(1), replicate(1)),
        ord2eq(),
        formula2eq(least_element_sentence(), 1),
        formula2eq(greatest_element_sentence(), 2),
        pair_formula2eq(least_element_sentence(), greatest_element_sentence()),
    ]


def equiv_ops():
    return [
        eq2ord_v1(),
        eq2ord_v2(),
        class_multiplier(),
        disjoint_union(class_multiplier(), class_multiplier()),
        concatenate(eq2ord_v1(), eq2ord_v2()),
        interval_fill(eq2ord_v1(), RIGHT_CLOSED),
    ]


def test_budget_zero_empty_and_monotone_in_budget():
    alpha = total_order_diagram([0, 1, 2])
    for op in order_ops():
        assert op.eval(alpha, 0).facts == frozenset()
        prev = frozenset()
        for n in range(9):
            facts = op.eval(alpha, n).facts
            assert prev <= facts
            prev = facts


def test_eval_equals_union_of_deltas():
    alpha = total_order_diagram([2, 0, 1])
    for op in order_ops():
        deltas = op.budget_deltas(alpha, 6)
        assert deltas[0] == []
        acc = set()
        for n in range(7):
            acc.update(deltas[n])
            assert op.eval(alpha, n).facts == frozenset(acc)


def test_evaluate_signature_check():
    """eval is the checked batch entry point: signature, then budget."""
    from embedlab.diagram import partition_diagram

    with pytest.raises(SignatureError):
        replicate(1).eval(partition_diagram([[0, 1]]), 4)
    with pytest.raises(SignatureError):
        eq2ord_v1().eval(total_order_diagram([0, 1]), 4)
    with pytest.raises(InvalidSpec):
        replicate(1).eval(total_order_diagram([0]), -1)


@pytest.mark.parametrize("entry", ["budget_deltas"])
def test_budget_chains_are_checked_like_eval(entry):
    """The budget deltas make eval's checks: a negative budget is
    InvalidSpec, and an input of the wrong signature raises the
    operator's message, not one from deep inside the evaluator."""
    from embedlab.diagram import partition_diagram

    chains = getattr(replicate(2), entry)
    with pytest.raises(InvalidSpec):
        chains(total_order_diagram([0, 1]), -1)
    with pytest.raises(SignatureError, match="replicate:2 expects linear_order input"):
        chains(partition_diagram([[0, 1], [2]]), 3)


@pytest.mark.parametrize("expr,family", [
    ("phi_pair", "omega"),
    ("phi_sigma2", "omega_k"),
    ("concat(eq2ord_v1|fill:left,eq2ord_v2|fill:right)", "e_hat_k"),
    ("rev(replicate:2)", "omega_k"),
])
def test_one_op_runs_twice_to_the_same_log(expr, family):
    """Every run steps a fresh evaluator, so an operator or construction
    object carries no state from one run to the next."""
    stream = generate(CanonicalSpec(family, "permuted", 2, seed=5), 24)
    targets = StagePair(generate(CanonicalSpec("omega_k", k=2), 28),
                        generate(CanonicalSpec("omega_star_k", k=2), 28))
    op = build_operator(expr, targets=targets)
    first = run(op, stream, len(stream)).to_jsonl()
    assert run(op, stream, len(stream)).to_jsonl() == first


def test_outputs_are_well_formed():
    alpha = total_order_diagram([2, 0, 3, 1])
    for op in order_ops():
        out = op.eval(alpha, 9)
        rels = {f[0] for f in out.facts}
        if op.output_signature is Signature.LINEAR_ORDER:
            assert rels <= {"el", "lt"}
            assert not out.has_lt_cycle()
        else:
            assert rels <= {"el", "sim"}
    from embedlab.diagram import partition_diagram

    d = partition_diagram([[0, 1, 2], [3, 4], [5]])
    for op in equiv_ops():
        out = op.eval(d, 9)
        rels = {f[0] for f in out.facts}
        if op.output_signature is Signature.LINEAR_ORDER:
            assert rels <= {"el", "lt"}
            assert not out.has_lt_cycle()
        else:
            assert rels <= {"el", "sim"}


def test_axiom_table_eval():
    table = AxiomTableOperator("table", [
        (frozenset({("el", 0)}), ("el", 10)),
        (frozenset({("el", 0)}), ("el", 11)),
        (frozenset({("el", 0)}), ("lt", 10, 11)),
        (frozenset({("lt", 0, 1), ("el", 2)}), ("lt", 11, 10)),
    ])
    alpha = total_order_diagram([0])
    out = table.eval(alpha, 10)
    assert ("lt", 10, 11) in out.facts and ("lt", 11, 10) not in out.facts
    # Budget gates axioms in listed order.
    assert table.eval(alpha, 1).facts == frozenset({("el", 10)})
    bigger = total_order_diagram([0, 1, 2])
    assert ("lt", 11, 10) in table.eval(bigger, 10).facts


def test_axiom_table_rescans_on_new_input_only():
    table = AxiomTableOperator("table", [
        (frozenset({("lt", 0, 1)}), ("el", 10)),
        (frozenset({("el", 0)}), ("el", 11)),
    ])
    # Budget 5 is reached before the premise of the first axiom arrives.
    stream = StructureStream.from_text(
        "-- stage 0\nel 0\n-- stage 1\n-- stage 2\nel 1\nlt 0 1\n")
    log = run(table, stream, 3, lambda s: 5, "const:5")
    assert [r.new_facts for r in log.records] == [[("el", 11)], [], [("el", 10)]]
    assert table.budget_deltas(total_order_diagram([0, 1]), 3) == [
        [], [("el", 10)], [("el", 11)], []]


SPARSE_ORDER_OPERATORS = [
    lambda: replicate(2),
    lambda: reverse(replicate(3)),
    lambda: ord2eq(),
]


@pytest.mark.parametrize("op_factory", SPARSE_ORDER_OPERATORS)
def test_covering_chain_evaluates_as_its_closure(op_factory):
    """lt facts need not be transitively closed: a total order given by its
    covering pairs is the same input as its all-pairs closure."""
    op = op_factory()
    sparse = parse_diagram("lt 3 0\nlt 0 2\nlt 2 1")
    closed = total_order_diagram(sparse.chain())
    assert op.eval(sparse, 4).facts == op.eval(closed, 4).facts
    assert ([set(d) for d in op.budget_deltas(sparse, 4)]
            == [set(d) for d in op.budget_deltas(closed, 4)])
    with pytest.raises(InvalidInput):
        op.eval(parse_diagram("lt 0 1\nel 2"), 4)


@pytest.mark.parametrize("op_factory", SPARSE_ORDER_OPERATORS)
def test_covering_chain_stream_runs_as_its_closure(op_factory):
    def stream(pairs):
        return StructureStream.from_text("".join(
            f"-- stage {s}\nel {x}\n" + "".join(f"lt {a} {b}\n" for a, b in new)
            for s, (x, new) in enumerate(pairs)))

    # Elements arrive as 1, 0, 3, 2, 4 on the chain 0 < 1 < 2 < 3 < 4.
    sparse = stream([(1, []), (0, [(0, 1)]), (3, [(1, 3)]), (2, [(1, 2), (2, 3)]),
                     (4, [(3, 4)])])
    closed = stream([(1, []), (0, [(0, 1)]), (3, [(0, 3), (1, 3)]),
                     (2, [(0, 2), (1, 2), (2, 3)]),
                     (4, [(0, 4), (1, 4), (2, 4), (3, 4)])])
    op = op_factory()
    assert [r.new_facts for r in run(op, sparse, 5).records] == [
        r.new_facts for r in run(op, closed, 5).records]


def test_run_schedules_and_errors():
    stream = generate(CanonicalSpec("omega"), 10)
    name, fn = parse_schedule("const:4")
    log = run(replicate(1), stream, 10, fn, name)
    assert len(log) == 10
    with pytest.raises(InvalidSchedule):
        parse_schedule("bogus")
    with pytest.raises(InvalidSchedule):
        run(replicate(1), stream, 10, lambda s: 5 - s, "decreasing")
    from embedlab.diagram import InvalidInput

    with pytest.raises(InvalidInput):
        run(replicate(1), stream, 11)
    with pytest.raises(SignatureError):
        run(eq2ord_v1(), stream, 5)


def test_runlog_jsonl_roundtrip():
    stream = generate(CanonicalSpec("omega_k", k=2), 8)
    log = run(ord2eq(), stream, 8)
    again = RunLog.from_jsonl(log.to_jsonl())
    assert again.operator == log.operator
    assert again.signature == log.signature
    assert [r.new_facts for r in again.records] == [
        r.new_facts for r in log.records
    ]
    assert [r.annotations for r in again.records] == [
        r.annotations for r in log.records
    ]


@st.composite
def presentations(draw, families):
    """A canonical stream, possibly restricted to a subset of its elements
    (which leaves stages with no new facts), and a budget schedule."""
    spec = CanonicalSpec(
        draw(st.sampled_from(families)),
        draw(st.sampled_from(("fair", "permuted"))),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 2**16)),
    )
    stream = generate(spec, draw(st.integers(1, 12)))
    if draw(st.booleans()):
        domain = sorted(stream.final().domain)
        stream = restrict(stream, draw(st.sets(st.sampled_from(domain))))
    schedule = draw(st.sampled_from(("identity",)) | st.builds(
        "{}:{}".format, st.sampled_from(("const", "capped")), st.integers(0, 12),
    ))
    return stream, schedule


AGREEMENT_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_agreement(op, stream, schedule):
    """Each stage's cumulative stream output equals a fresh evaluation of
    that stage's diagram and, for leaf operators, the closed form."""
    name, fn = parse_schedule(schedule)
    log = run(op, stream, len(stream), fn, name)
    facts: set = set()
    for rec in log.records:
        facts.update(rec.new_facts)
        diagram, budget = stage(stream, rec.stage), fn(rec.stage)
        assert frozenset(facts) == op.eval(diagram, budget).facts, (
            f"stage {rec.stage}")
        want = reference_facts(op, diagram, budget)
        if want is not None:
            assert frozenset(facts) == want, f"stage {rec.stage} (closed form)"


ORDER_AGREEMENT_OPERATORS = [
    lambda: replicate(2),
    lambda: reverse(replicate(2)),
    lambda: interval_fill(replicate(1), LEFT_CLOSED),
    lambda: concatenate(replicate(1), replicate(2)),
    lambda: ord2eq(),
    lambda: formula2eq(least_element_sentence(), 1),
    lambda: pair_formula2eq(least_element_sentence(), greatest_element_sentence()),
    lambda: replicate(3),
]
EQUIV_AGREEMENT_OPERATORS = [
    lambda: eq2ord_v1(),
    lambda: eq2ord_v2(),
    lambda: class_multiplier(),
    lambda: interval_fill(eq2ord_v1(), RIGHT_CLOSED),
    lambda: concatenate(
        interval_fill(eq2ord_v1(), LEFT_CLOSED),
        interval_fill(eq2ord_v2(), RIGHT_CLOSED),
    ),
    lambda: disjoint_union(class_multiplier(), class_multiplier()),
]


@pytest.mark.parametrize("op_factory", ORDER_AGREEMENT_OPERATORS)
@given(presentations(ORDER_FAMILIES))
@example(presentation=(
    generate(CanonicalSpec("omega_k", "permuted", 2, seed=4), 12), "identity"))
@AGREEMENT_SETTINGS
def test_stream_evaluator_matches_full_eval_orders(op_factory, presentation):
    _check_agreement(op_factory(), *presentation)


@pytest.mark.parametrize("op_factory", EQUIV_AGREEMENT_OPERATORS)
@given(presentations(EQUIV_FAMILIES))
@example(presentation=(
    generate(CanonicalSpec("e_hat_k", "permuted", 2, seed=4), 12), "identity"))
@AGREEMENT_SETTINGS
def test_stream_evaluator_matches_full_eval_equivalences(op_factory, presentation):
    _check_agreement(op_factory(), *presentation)


@pytest.mark.parametrize(
    "op_factory", ORDER_AGREEMENT_OPERATORS + EQUIV_AGREEMENT_OPERATORS)
@given(st.data())
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_budget_law_on_fresh_evaluations(op_factory, data):
    """eval(beta, n - 1) <= eval(beta, n), each a fresh one-step evaluation
    (budget_deltas steps one evaluator, so it cannot test this)."""
    op = op_factory()
    families = (ORDER_FAMILIES if op.input_signature is Signature.LINEAR_ORDER
                else EQUIV_FAMILIES)
    stream, _ = data.draw(presentations(families))
    beta = stream.final()
    n = data.draw(st.integers(1, 12))
    assert op.eval(beta, n - 1).facts <= op.eval(beta, n).facts


def _assert_input_law(op, alpha, beta):
    """eval(alpha, n) <= eval(beta, n) at every budget n <= 32, for
    alpha <= beta, each a fresh one-step evaluation."""
    for n in range(33):
        assert op.eval(alpha, n).facts <= op.eval(beta, n).facts, (
            f"budget {n}")


@pytest.mark.parametrize(
    "op_factory", ORDER_AGREEMENT_OPERATORS + EQUIV_AGREEMENT_OPERATORS)
@given(st.data())
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_input_law_on_fresh_evaluations(op_factory, data):
    """Stage i of a drawn presentation is contained in stage j >= i, so the
    input law applies to the pair."""
    op = op_factory()
    families = (ORDER_FAMILIES if op.input_signature is Signature.LINEAR_ORDER
                else EQUIV_FAMILIES)
    stream, _ = data.draw(presentations(families))
    j = data.draw(st.integers(0, len(stream) - 1))
    i = data.draw(st.integers(0, j))
    _assert_input_law(op, stage(stream, i), stage(stream, j))


class _BrokenOperator(EnumerationOperator):
    """Enumerates its input's elements only while there are at most two."""

    name = "broken"

    def make_stream_evaluator(self):
        return _BrokenStream()


class _BrokenStream(StreamEvaluator):
    def step(self, diagram, delta, budget):
        if budget < 1 or len(diagram.domain) > 2:
            return [], None
        return [("el", x) for x in sorted(diagram.domain)], None


def test_input_law_check_catches_broken_operator():
    stream = generate(CanonicalSpec("omega"), 3)
    _assert_input_law(_BrokenOperator(), stage(stream, 0), stage(stream, 1))
    with pytest.raises(AssertionError, match="budget 1"):
        _assert_input_law(_BrokenOperator(), stage(stream, 1), stage(stream, 2))


@pytest.mark.parametrize(
    "op_factory", ORDER_AGREEMENT_OPERATORS + EQUIV_AGREEMENT_OPERATORS)
@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_repeated_stream_facts_are_not_new_input(op_factory, data):
    """A stream file that repeats facts read before (in the same stage or
    an earlier one, sim reversed or not) reads as the file without them."""
    op = op_factory()
    families = (ORDER_FAMILIES if op.input_signature is Signature.LINEAR_ORDER
                else EQUIV_FAMILIES)
    stream, schedule = data.draw(presentations(families))
    read: list = []
    blocks = []
    for s, delta in enumerate(stream.deltas):
        earlier = data.draw(st.lists(st.sampled_from(read), max_size=3)) if read else []
        read.extend(delta)
        again = data.draw(st.lists(st.sampled_from(read), max_size=3)) if read else []
        lines = [f"-- stage {s}\n"]
        for f in earlier + sorted(delta) + again:
            if f[0] == "sim" and data.draw(st.booleans()):
                f = ("sim", f[2], f[1])
            lines.append(" ".join(map(str, f)) + "\n")
        blocks.append("".join(lines))
    # A stream with el facts only reads as an order; keep the drawn signature.
    repeated, clean = (
        StructureStream(stream.signature, StructureStream.from_text(text).deltas, "")
        for text in ("".join(blocks), stream.to_text()))
    assert repeated.deltas == clean.deltas
    name, fn = parse_schedule(schedule)
    logs = [run(op_factory(), s, len(s), fn, name) for s in (repeated, clean)]
    assert [(r.new_facts, r.annotations) for r in logs[0].records] == [
        (r.new_facts, r.annotations) for r in logs[1].records]

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_ops

from embedlab import combinators, constructions, diagram, experiments
from embedlab.classify import census
from embedlab.combinators import disjoint_union
from embedlab.constructions import (
    absolute_tuple,
    class_multiplier,
    eq2ord_v1,
    eq2ord_v2,
    formula2eq,
    ord2eq,
    pair_formula2eq,
    tuple_precedes,
)
from embedlab.diagram import (
    InvalidInput,
    InvalidSpec,
    PlacementBatch,
    Signature,
    diagram_from_facts,
    format_facts,
    partition_diagram,
    total_order_diagram,
)
from embedlab.kernel import StreamEvaluator, run
from embedlab.pairing import decode_tuple, encode_tuple, pair, tag
from embedlab.sigma2 import (
    Disjunct,
    Literal,
    Matrix,
    Sigma2Sentence,
    greatest_element_sentence,
    least_element_sentence,
)
from embedlab.streams import (
    ORDER_FAMILIES,
    PARAMETRIC_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)


# --- ord2eq -----------------------------------------------------------------

def test_ord2eq_three_chain_census():
    out = ord2eq().eval(total_order_diagram([0, 1, 2]), 24)
    sizes = sorted(len(c) for c in out.sim_classes())
    assert sizes[:2] == [1, 2] and sizes[2] > 20
    assert [tag(0, 0)] in out.sim_classes()
    assert sorted([tag(2, 0), tag(2, 1)]) in out.sim_classes()


def test_ord2eq_grows_without_bound_in_budget():
    alpha = total_order_diagram([0, 1, 2])
    sizes = [
        len(ord2eq().eval(alpha, n).domain) for n in (4, 8, 16, 32)
    ]
    assert sizes == sorted(set(sizes))


def test_ord2eq_requires_total_order():
    from embedlab.diagram import parse_diagram

    with pytest.raises(InvalidInput):
        ord2eq().eval(parse_diagram("el 0\nel 1"), 4)


def test_ord2eq_pins_at_most_one_each():
    stream = generate(CanonicalSpec("one_plus_eta", "permuted", seed=3), 60)
    log = run(ord2eq(), stream, 60)
    for rec in log.records:
        notes = rec.annotations
        assert set(notes) == {"pinned_size1", "pinned_size2"}
    c = census(log, 20)
    assert len(c.frozen_of_size(1)) == 1
    assert len(c.frozen_of_size(2)) == 0


def test_ord2eq_dethroned_extremum_inflates():
    # 1 < 2 with min 1; then 0 arrives below: 1 becomes interior.
    small = total_order_diagram([1, 2])
    big = total_order_diagram([0, 1, 2])
    before = ord2eq().eval(small, 10)
    after = ord2eq().eval(big, 10)
    assert before.facts <= after.facts
    cls_of_1 = [c for c in after.sim_classes() if tag(1, 0) in c][0]
    assert len(cls_of_1) > 2


# --- eq2ord -----------------------------------------------------------------

def brute_force_order(diagram, interior_min, last_min):
    """Independent oracle: admissible tuples with the stated comparison."""
    sizes = {}
    for cls in diagram.sim_classes():
        for x in cls:
            sizes[x] = len(cls)
    admissible = []
    elements = sorted(diagram.domain)
    for length in range(1, len(elements) + 1):
        for t in combinations(elements, length):
            if all(sizes[x] >= interior_min for x in t[:-1]) \
                    and sizes[t[-1]] >= last_min:
                admissible.append(t)

    def before(t, u):
        if len(t) > len(u) and t[: len(u)] == u:
            return True
        if len(u) > len(t) and u[: len(t)] == t:
            return False
        for a, b in zip(t, u):
            if a != b:
                return a < b
        return False

    lt = {(encode_tuple(t), encode_tuple(u))
          for t in admissible for u in admissible if t != u and before(t, u)}
    return {encode_tuple(t) for t in admissible}, lt


def full_budget(max_id):
    want = set()
    for length in range(1, max_id + 2):
        want.update(combinations(range(max_id + 1), length))
    budget = 0
    while want:
        want.discard(absolute_tuple(budget))
        budget += 1
    return budget


def test_eq2ord_worked_example_bit_exact():
    d = partition_diagram([[0, 1], [2]])
    out = eq2ord_v1().eval(d, full_budget(2))
    order = [decode_tuple(e) for e in out.chain()]
    assert order == [
        (0, 1, 2), (0, 1), (0, 2), (0,), (1, 2), (1,), (2,),
    ]


def test_eq2ord_minimal_tuple_has_no_extension():
    d = partition_diagram([[0, 1], [2]])
    out = eq2ord_v1().eval(d, full_budget(2) + 50)
    least = decode_tuple(out.chain()[0])
    assert least == (0, 1, 2)
    # No admissible proper extension exists: class of 2 has size one.
    assert all(
        not (len(t) > 3 and t[:3] == (0, 1, 2))
        for t in (decode_tuple(e) for e in out.domain)
    )


@pytest.mark.parametrize("op_factory,thresholds,reverse_expected", [
    (eq2ord_v1, (2, 1), False),
    (eq2ord_v2, (3, 2), True),
])
def test_eq2ord_matches_oracle_up_to_four(op_factory, thresholds, reverse_expected):
    op = op_factory()
    budget = full_budget(3)
    universe = range(4)
    for k in range(0, 5):
        for domain in combinations(universe, k):
            pairs = list(combinations(domain, 2))
            for mask in range(1 << len(pairs)):
                facts = [("el", x) for x in domain]
                facts += [("sim", a, b) for i, (a, b) in enumerate(pairs)
                          if mask >> i & 1]
                d = diagram_from_facts(Signature.EQUIVALENCE, facts)
                els, lt = brute_force_order(d, *thresholds)
                out = op.eval(d, budget)
                got_lt = {f[1:] for f in out.facts if f[0] == "lt"}
                assert out.domain == els
                want = {(b, a) for a, b in lt} if reverse_expected else lt
                assert got_lt == want


class _SwappedEq2Ord(constructions.Eq2Ord):
    """eq2ord with the first two tuples of its output chain swapped."""

    def make_stream_evaluator(self):
        return _SwappedStream(super().make_stream_evaluator())


class _SwappedStream(StreamEvaluator):
    def __init__(self, inner):
        self.inner = inner

    def step(self, diagram, delta, budget):
        batch, notes = self.inner.step(diagram, delta, budget)
        chain = batch.chain[1::-1] + batch.chain[2:]
        return PlacementBatch(batch.new, chain), notes


def _small_oracle(monkeypatch):
    monkeypatch.setitem(experiments.PARAMS, "eq2ord_oracle", {"max_size": 3})


@pytest.mark.parametrize("name,thresholds", [
    ("eq2ord_v1", (2, 1)), ("eq2ord_v2", (3, 2)),
])
def test_eq2ord_oracle_reports_two_swapped_tuples(monkeypatch, name, thresholds):
    _small_oracle(monkeypatch)
    monkeypatch.setattr(experiments, name,
                        lambda: _SwappedEq2Ord(*thresholds, name))
    result = experiments.experiment_eq2ord_oracle(7)
    assert not result.passed
    reported = {m["operator"] for m in result.evidence["mismatches"]}
    assert name in reported
    assert reported <= {name, "worked-example"}


@pytest.mark.parametrize("before", [
    lambda t, u: False,
    lambda t, u: len(t) > len(u),  # leaves tuples of one length unordered
])
def test_eq2ord_oracle_rejects_an_order_that_is_not_strict_total(monkeypatch, before):
    _small_oracle(monkeypatch)
    monkeypatch.setattr(experiments, "_oracle_before", before)
    with pytest.raises(AssertionError, match="unordered"):
        experiments.experiment_eq2ord_oracle(7)


def test_eq2ord_oracle_fails_on_a_wrong_strict_total_order(monkeypatch):
    _small_oracle(monkeypatch)
    monkeypatch.setattr(experiments, "_oracle_before", lambda t, u: t < u)
    assert not experiments.experiment_eq2ord_oracle(7).passed


def test_eq2ord_no_stable_minimum_when_all_classes_grow():
    # Every tuple eventually acquires an admissible proper extension.
    stream = generate(CanonicalSpec("e_hat_k", k=2), 80)
    log = run(eq2ord_v1(), stream, 80)
    mins = []
    chain_facts = set()
    elements = []
    for rec in log.records:
        chain_facts.update(rec.new_facts)
        for f in rec.new_facts:
            if f[0] == "el":
                elements.append(f[1])
        current = [e for e in elements]
        below = {e: 0 for e in current}
        for f in chain_facts:
            if f[0] == "lt":
                below[f[2]] += 1
        if current:
            mins.append(min(current, key=lambda e: below[e]))
    changes = sum(1 for a, b in zip(mins, mins[1:]) if a != b)
    assert changes >= 10
    assert mins[-1] != mins[-25]


# --- class_multiplier -------------------------------------------------------

def test_multiplier_budget_many_copies():
    d = partition_diagram([[4]])
    out = class_multiplier().eval(d, 5)
    assert sorted(len(c) for c in out.sim_classes()) == [1] * 5


# --- formula2eq -------------------------------------------------------------

def test_formula2eq_least_on_omega():
    stream = generate(CanonicalSpec("omega"), 40)
    log = run(formula2eq(least_element_sentence(), 1), stream, 40)
    c = census(log, 12)
    frozen1 = c.frozen_of_size(1)
    assert len(frozen1) >= 2  # copies of the true least's class
    assert not [r for r in c.frozen_classes() if r.size != 1]


def test_formula2eq_inflation_starts_when_refuted():
    # On the ascending presentation of omega, element c's class first
    # inflates at c's own arrival stage (something below it is already
    # present); the true least element's class never inflates.
    from embedlab.constructions import _member_id
    from embedlab.pairing import tag

    stream = generate(CanonicalSpec("omega"), 30)
    log = run(formula2eq(least_element_sentence(), 1), stream, 30)
    first_sim_stage = {}
    for rec in log.records:
        for f in rec.new_facts:
            if f[0] == "sim":
                for e in (f[1], f[2]):
                    first_sim_stage.setdefault(e, rec.stage)
    root5 = tag(0, _member_id(5, 0, 0))
    root0 = tag(0, _member_id(0, 0, 0))
    assert first_sim_stage[root5] == 5
    assert root0 not in first_sim_stage


def test_formula2eq_on_omega_star_everything_inflates():
    stream = generate(CanonicalSpec("omega_star", "descending"), 40)
    log = run(formula2eq(least_element_sentence(), 1), stream, 40)
    c = census(log, 12)
    assert not c.frozen_classes()


def test_formula2eq_seed_two_dual():
    stream = generate(CanonicalSpec("omega_star", "descending"), 40)
    log = run(formula2eq(greatest_element_sentence(), 2), stream, 40)
    c = census(log, 12)
    assert len(c.frozen_of_size(2)) >= 2
    assert not [r for r in c.frozen_classes() if r.size != 2]


def test_formula2eq_rejects_wide_arity():
    lit = Literal(True, "lt", (("x", 0), ("y", 0)))
    wide = Sigma2Sentence("wide", (Disjunct(2, (Matrix(1, lit),)),))
    with pytest.raises(InvalidSpec):
        formula2eq(wide)


def test_pair_formula2eq_sides():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega_k", k=2), 60)
    log = run(pair_formula2eq(phi, psi), stream, 60)
    c = census(log, 20)
    assert len(c.frozen_of_size(1)) >= 2
    assert len(c.frozen_of_size(2)) == 0


_SENTENCES = (least_element_sentence, greatest_element_sentence)
FORMULA2EQ_PAIRS = [
    pytest.param(
        lambda s=sentence, n=seed: formula2eq(s(), n),
        lambda s=sentence, n=seed: reference_ops.rescanning_formula2eq(s(), n),
        id=f"{sentence().name}:{seed}")
    for sentence in _SENTENCES for seed in (1, 2)
] + [
    pytest.param(
        lambda p=phi, q=psi: pair_formula2eq(p(), q()),
        lambda p=phi, q=psi: reference_ops.rescanning_pair_formula2eq(p(), q()),
        id=f"pair:{phi().name}:{psi().name}")
    for phi, psi in (_SENTENCES, _SENTENCES[::-1])
]


@st.composite
def _order_streams_with_late_els(draw):
    """A hand-built order stream and a monotone budget per stage.  Each
    el fact and each lt fact of a drawn total order comes at a drawn
    stage or never, so an lt fact may name an element before its el
    fact, in an earlier stage or earlier in the same delta, or name one
    that never gets an el fact."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    stages = draw(st.integers(1, 8))
    when = st.none() | st.integers(0, stages - 1)
    deltas: list = [[] for _ in range(stages)]
    for x in range(n):
        s = draw(when)
        if s is not None:
            deltas[s].append(("el", x))
    for i, j in combinations(range(n), 2):
        s = draw(when)
        if s is not None:
            deltas[s].append(("lt", order[i], order[j]))
    deltas = [draw(st.permutations(d)) for d in deltas]
    steps = draw(st.lists(st.integers(0, 3), min_size=stages, max_size=stages))
    budgets = [sum(steps[:s + 1]) for s in range(stages)]
    return StructureStream(Signature.LINEAR_ORDER, deltas, "hand-built"), budgets


def _records(log) -> list:
    return [(r.stage, list(r.new_facts), r.annotations) for r in log.records]


@pytest.mark.parametrize("make,make_reference", FORMULA2EQ_PAIRS)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_order_streams_with_late_els())
def test_formula2eq_matches_rescanning_reference(make, make_reference, drawn):
    """Refutations read from each delta, kept for elements still to
    arrive, give the records of rescanning the stage diagram."""
    stream, budgets = drawn
    got = run(make(), stream, len(stream), budgets.__getitem__)
    want = run(make_reference(), stream, len(stream), budgets.__getitem__)
    assert _records(got) == _records(want)


def test_formula2eq_reads_each_fact_once_per_matrix(monkeypatch):
    """Each delta fact is tested once against each matrix's literal;
    rescanning the stage diagram for every new element tests the older
    facts again."""
    calls = []
    counted = constructions.refuting_witness_values

    def counting(lit, fact):
        calls.append(fact)
        return counted(lit, fact)

    monkeypatch.setattr(constructions, "refuting_witness_values", counting)
    # The stages listed as facts: a placement batch's refutations are read
    # from its chain, with no call to count.
    placed = generate(CanonicalSpec("omega_k", "permuted", k=2, seed=7), 64)
    stream = StructureStream(placed.signature, [list(d) for d in placed.deltas],
                             placed.provenance)
    op = formula2eq(least_element_sentence())
    run(op, stream, len(stream))
    matrices = sum(len(d.matrices) for d in op.sentence.disjuncts)
    assert 0 < len(calls) <= sum(map(len, stream.deltas)) * matrices


_VARIABLES = (("x", 0), ("y", 0), ("y", 1))


@st.composite
def _sentences(draw):
    """A sentence of existential arity 1 whose literals are drawn from
    every lt pattern, (x0, yj), (yj, x0), (x0, x0) and (yi, yj), negated
    or positive, and from sim literals, which refute nothing in an order."""
    literal = st.builds(
        Literal, st.booleans(), st.sampled_from(("lt", "lt", "lt", "sim")),
        st.tuples(st.sampled_from(_VARIABLES), st.sampled_from(_VARIABLES)))
    disjuncts = draw(st.lists(
        st.lists(literal, min_size=1, max_size=3), min_size=1, max_size=2))
    sentence = Sigma2Sentence("drawn", tuple(
        Disjunct(1, tuple(Matrix(2, lit) for lit in lits)) for lits in disjuncts))
    assume(sentence.signature is Signature.LINEAR_ORDER)
    return sentence


@st.composite
def _read_order_streams(draw):
    """A generated order stream read from its text: as placements
    throughout, or switched to facts (covering pairs) from a drawn stage."""
    family = draw(st.sampled_from(ORDER_FAMILIES))
    k = draw(st.integers(1, 3)) if family in PARAMETRIC_FAMILIES else 1
    policy = draw(st.sampled_from(("fair", "permuted")))
    stream = generate(CanonicalSpec(family, policy, k, draw(st.integers(0, 9))),
                      draw(st.integers(1, 12)))
    cut = draw(st.integers(0, len(stream)))
    blocks = [format_facts(sorted(d)) for d in stream.deltas[:cut]]
    blocks += map(format_facts, reference_ops.covering(stream.deltas)[cut:])
    return StructureStream.from_text(reference_ops.stream_file(blocks))


@st.composite
def _free_batch_streams(draw):
    """A hand-built order stream whose stages are fact lists or placement
    batches of a drawn total order.  An element arrives at a drawn stage
    or never, in a batch or by an el fact that may never come, and each
    lt fact comes at a drawn fact stage or never, so a fact may name an
    element before the batch that places it, or one that never arrives."""
    n = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(n))).index
    stages = draw(st.integers(1, 6))
    batch = draw(st.lists(st.booleans(), min_size=stages, max_size=stages))
    arrives = [draw(st.none() | st.integers(0, stages - 1)) for _ in range(n)]
    fact_stages = [s for s in range(stages) if not batch[s]]
    when = st.none() | st.sampled_from(fact_stages) if fact_stages else st.none()
    deltas: list = [[] for _ in range(stages)]
    for x in range(n):
        if arrives[x] is not None and not batch[arrives[x]] and draw(st.booleans()):
            deltas[arrives[x]].append(("el", x))
    for a, b in combinations(sorted(range(n), key=rank), 2):
        s = draw(when)
        if s is not None:
            deltas[s].append(("lt", a, b))
    for s in range(stages):
        if batch[s]:
            arrived = sorted((x for x in range(n) if arrives[x] is not None
                              and arrives[x] <= s), key=rank)
            deltas[s] = PlacementBatch(
                [x for x in range(n) if arrives[x] == s], tuple(arrived))
        else:
            deltas[s] = draw(st.permutations(deltas[s]))
    return StructureStream(Signature.LINEAR_ORDER, deltas, "hand-built")


@st.composite
def _formula2eq_cases(draw):
    """A formula2eq or pair_formula2eq operator with its rescanning
    reference, an order stream with placement batches and a monotone
    budget per stage."""
    if draw(st.booleans()):
        sentence, seed = draw(_sentences()), draw(st.sampled_from((1, 2)))
        ops = (formula2eq(sentence, seed),
               reference_ops.rescanning_formula2eq(sentence, seed))
    else:
        phi, psi = draw(_sentences()), draw(_sentences())
        ops = (pair_formula2eq(phi, psi),
               reference_ops.rescanning_pair_formula2eq(phi, psi))
    stream = draw(_read_order_streams() | _free_batch_streams())
    steps = draw(st.lists(st.integers(0, 3), min_size=len(stream),
                          max_size=len(stream)))
    budgets = [sum(steps[:s + 1]) for s in range(len(stream))]
    return ops, stream, budgets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_formula2eq_cases())
def test_formula2eq_over_placements_matches_facts_and_reference(case):
    """Refutations read from a batch's chain positions give the records
    of reading its facts one by one, and those of rescanning the stage
    diagram."""
    (op, reference), stream, budgets = case
    as_facts = StructureStream(stream.signature, [list(d) for d in stream.deltas],
                               stream.provenance)
    got = _records(run(op, stream, len(stream), budgets.__getitem__))
    assert got == _records(run(op, as_facts, len(stream), budgets.__getitem__))
    assert got == _records(run(reference, stream, len(stream), budgets.__getitem__))


def test_pair_formula2eq_over_a_placement_file_builds_no_facts(monkeypatch):
    """On an order file read as placements, formula2eq reads each batch's
    refutations from its chain: it neither expands a batch into facts nor
    tests a fact against a literal."""
    text = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 64).to_text()
    stream = StructureStream.from_text(text)
    assert all(isinstance(d, PlacementBatch) for d in stream.deltas)

    def refuse(*args):
        raise AssertionError("a batch was read as facts")

    monkeypatch.setattr(diagram, "_sorted_facts", refuse)
    monkeypatch.setattr(constructions, "refuting_witness_values", refuse)
    log = run(pair_formula2eq(least_element_sentence(), greatest_element_sentence()),
              stream, 64)
    assert log.records[-1].new_facts


def _tag_calls(monkeypatch) -> list:
    calls = []
    counted = combinators.tag

    def counting(copy, x):
        calls.append((copy, x))
        return counted(copy, x)

    monkeypatch.setattr(combinators, "tag", counting)
    return calls


def test_union_of_multipliers_tags_each_element_once(monkeypatch):
    """Each multiplier tags each input element once per copy and the
    union each side's output element once, so the calls are at most
    twice the output domain; tagging both ends of every fact is more."""
    calls = _tag_calls(monkeypatch)
    stream = generate(CanonicalSpec("e_k", "permuted", k=3, seed=7), 24)
    log = run(disjoint_union(class_multiplier(), class_multiplier()),
              stream, len(stream))
    assert 0 < len(calls) <= 2 * len(log.final_diagram().domain)


def test_pair_formula2eq_tags_each_element_once(monkeypatch):
    """formula2eq's copies tag each element of its output once, and the
    union each side's element once, though a growing class names its root
    again at many stages."""
    calls = _tag_calls(monkeypatch)
    stream = generate(CanonicalSpec("omega_k", "permuted", k=2, seed=7), 64)
    log = run(pair_formula2eq(least_element_sentence(), greatest_element_sentence()),
              stream, len(stream))
    assert 0 < len(calls) <= 2 * len(log.final_diagram().domain)


# --- shared helpers ---------------------------------------------------------

def test_tuple_precedes_is_strict_total_on_samples():
    sample = [absolute_tuple(i) for i in range(40)]
    for t in sample:
        assert not tuple_precedes(t, t)
    for t in sample:
        for u in sample:
            if t != u:
                assert tuple_precedes(t, u) != tuple_precedes(u, t)


_increasing_tuples = st.lists(
    st.integers(0, 6), max_size=5, unique=True).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=300, deadline=None)
@given(_increasing_tuples, _increasing_tuples)
def test_tuple_precedes_matches_reference(t, u):
    assert tuple_precedes(t, u) == reference_ops.tuple_precedes(t, u)


def test_absolute_tuple_enumeration_is_injective():
    seen = [absolute_tuple(i) for i in range(300)]
    assert len(set(seen)) == 300

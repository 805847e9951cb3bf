from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import covering, place, restrict, stage, stream_file
from embedlab import diagram, streams
from embedlab.constructions import StagePair
from embedlab.diagram import (
    EmbedlabError,
    InvalidSpec,
    ParseError,
    PlacementBatch,
    Signature,
    diagram_from_facts,
    format_facts,
)
from embedlab.kernel import run
from embedlab.registry import build_operator
from embedlab.streams import (
    ORDER_FAMILIES,
    PARAMETRIC_FAMILIES,
    POLICIES,
    CanonicalSpec,
    StructureStream,
    generate,
    lcg_shuffle,
)

FAMILY_KS = [
    ("omega", 1), ("omega_star", 1), ("omega_k", 2), ("omega_k", 3),
    ("omega_star_k", 2), ("one_plus_eta", 1), ("eta_plus_one", 1),
    ("eta", 1), ("e", 1), ("e_k", 2), ("e_hat_k", 1),
]


def test_omega_fair_first_stages():
    s = generate(CanonicalSpec("omega"), 3)
    assert stage(s, 0).domain == {0}
    assert stage(s, 1).domain == {0, 1}
    assert stage(s, 2).facts >= {("lt", 0, 1), ("lt", 0, 2), ("lt", 1, 2)}


def test_omega_star_descending_places_below():
    s = generate(CanonicalSpec("omega_star", "descending"), 3)
    final = s.final()
    assert ("lt", 1, 0) in final.facts
    assert ("lt", 2, 1) in final.facts
    assert ("lt", 2, 0) in final.facts


def test_e_k2_hand_census():
    # Exactly one size-2 class stops growing at its second member; every
    # other class (young infinite ones may also pass through size 2)
    # received an element recently.
    s = generate(CanonicalSpec("e_k", k=2), 20)
    arrivals = {}
    for stage, delta in enumerate(s.deltas):
        for f in delta:
            if f[0] == "el":
                arrivals[f[1]] = stage
    classes = s.final().sim_classes()
    stopped = [c for c in classes if max(arrivals[x] for x in c) <= 1]
    assert len(stopped) == 1 and len(stopped[0]) == 2
    assert sorted(arrivals[x] for x in stopped[0]) == [0, 1]
    for cls in classes:
        if cls == stopped[0]:
            continue
        assert max(arrivals[x] for x in cls) >= 11  # within the rr gap


def test_generate_deterministic():
    a = generate(CanonicalSpec("omega_k", "permuted", 2, seed=9), 40)
    b = generate(CanonicalSpec("omega_k", "permuted", 2, seed=9), 40)
    assert a.to_text() == b.to_text()
    c = generate(CanonicalSpec("omega_k", "permuted", 2, seed=10), 40)
    assert a.to_text() != c.to_text()


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        CanonicalSpec("omega_k", k=0)
    with pytest.raises(InvalidSpec):
        CanonicalSpec("nope")
    with pytest.raises(InvalidSpec):
        CanonicalSpec("omega", "descending")
    with pytest.raises(InvalidSpec):
        CanonicalSpec("omega_star_k", "ascending", 2)
    with pytest.raises(InvalidSpec):
        generate(CanonicalSpec("omega"), 0)


@pytest.mark.parametrize("family,k", FAMILY_KS)
def test_stages_monotone_and_growing(family, k):
    s = generate(CanonicalSpec(family, k=k), 25)
    prev = frozenset()
    for stage, d in enumerate(s.iter_stages()):
        assert len(d.domain) >= stage + 1
        assert len(d.domain) <= 2 * (stage + 1)
        # One grown diagram serves every stage, so compare snapshots of its facts.
        facts = frozenset(d.facts)
        assert prev <= facts
        prev = facts


@pytest.mark.parametrize("family,k", [("omega_k", 2), ("omega_k", 3)])
def test_fair_blocks_all_grow(family, k):
    s = generate(CanonicalSpec(family, k=k), 40)
    chain = s.final().chain()
    # Block b holds arrivals congruent to b mod k; each gets 40/k elements.
    for b in range(k):
        members = [x for x in chain if x % k == b]
        assert len(members) >= 40 // k - 1


def test_order_stream_stages_total():
    s = generate(CanonicalSpec("one_plus_eta", "permuted", seed=3), 20)
    for d in s.iter_stages():
        assert d.is_total()


def test_restrict_evens_is_omega_copy():
    s = generate(CanonicalSpec("omega"), 30)
    r = restrict(s, range(0, 30, 2))
    final = r.final()
    assert final.domain == set(range(0, 30, 2))
    assert final.chain() == sorted(final.domain)


def test_restrict_empty():
    s = generate(CanonicalSpec("omega"), 5)
    r = restrict(s, [])
    assert r.final().domain == set()


def test_restrict_block_one_of_omega2():
    s = generate(CanonicalSpec("omega_k", k=2), 40)
    odd = [x for x in range(40) if x % 2 == 1]
    r = restrict(s, odd)
    # Each new kept element lands on top: a copy of omega.
    chain = r.final().chain()
    assert chain == sorted(chain)


def test_stream_text_roundtrip():
    s = generate(CanonicalSpec("e_hat_k", k=2), 12)
    again = StructureStream.from_text(s.to_text())
    assert again.signature is Signature.EQUIVALENCE
    assert [sorted(d) for d in again.deltas] == [sorted(d) for d in s.deltas]


def test_permuted_prefix_only():
    plain = generate(CanonicalSpec("omega"), 40)
    perm = generate(CanonicalSpec("omega", "permuted", seed=5), 40)
    assert plain.deltas[35] != [] and len(perm.deltas) == 40
    # Beyond the shuffle prefix both arrive in the same slot order.
    assert perm.final().chain()[32:] == plain.final().chain()[32:]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_lcg_shuffle_is_permutation(seed):
    items = list(range(20))
    out = lcg_shuffle(items, seed)
    assert sorted(out) == items


def test_stream_file_elements_may_be_implicit():
    s = StructureStream.from_text(
        "-- stage 0\n-- stage 1\nlt 3 1\n-- stage 2\nel 2\nlt 1 2\nlt 3 2\n")
    # Each element gets an el fact, first in the first stage naming it.
    assert s.deltas == [
        [],
        [("el", 3), ("el", 1), ("lt", 3, 1)],
        [("el", 2), ("lt", 1, 2), ("lt", 3, 2)],
    ]
    # el lines after the first stage naming their element are dropped.
    late = StructureStream.from_text(
        "-- stage 0\nlt 0 1\n-- stage 1\nel 0\nel 1\nel 2\nel 2\n")
    assert late.deltas == [[("el", 0), ("el", 1), ("lt", 0, 1)], [("el", 2)]]
    equiv = StructureStream.from_text("-- stage 0\nel 0\nsim 1 0\n")
    assert equiv.signature is Signature.EQUIVALENCE
    assert equiv.deltas == [[("el", 1), ("el", 0), ("sim", 0, 1)]]


# --- order files read as placements -----------------------------------------


def _order_stream(family: str, policy: str, stages: int) -> StructureStream:
    k = 2 if family in PARAMETRIC_FAMILIES else 1
    return generate(CanonicalSpec(family, policy, k, seed=3), stages)


@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy", ("fair", "permuted"))
def test_order_files_read_one_batch_per_stage(family, policy):
    """Each stage to_text writes for a generated order is read back as one
    PlacementBatch, whose facts are the stage's."""
    for stages in range(1, 41):
        stream = _order_stream(family, policy, stages)
        read = StructureStream.from_text(stream.to_text())
        assert read.signature is Signature.LINEAR_ORDER
        assert all(isinstance(d, PlacementBatch) for d in read.deltas)
        assert [list(d) for d in read.deltas] == [sorted(d) for d in stream.deltas]


RUN_EXPRESSIONS = ("replicate:2", "rev(replicate:3)", "ord2eq", "pair_formula2eq",
                   "phi_sigma2", "phi_pair")


@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy", ("fair", "permuted"))
def test_runs_over_a_read_file_write_the_stream_logs(family, policy):
    """A run over an order file read as placements writes, byte for byte,
    the log of the same run over the stream in memory."""
    targets = StagePair(generate(CanonicalSpec("omega_k", k=2), 44),
                        generate(CanonicalSpec("omega_star_k", k=2), 44))
    for stages in (1, 2, 40):
        stream = _order_stream(family, policy, stages)
        read = StructureStream.from_text(stream.to_text(), stream.provenance)
        for expr in RUN_EXPRESSIONS:
            op = build_operator(expr, targets=targets)
            assert run(op, read, stages).to_jsonl() == run(op, stream, stages).to_jsonl(), expr


def _read(text: str):
    """What from_text makes of text: the signature and each delta's facts,
    or the class and message of the error it raises."""
    try:
        stream = StructureStream.from_text(text)
    except EmbedlabError as exc:
        return type(exc), str(exc)
    return stream.signature, [list(d) for d in stream.deltas]


EDITED = 5  # the stage an edit changes: every stage before it places elements


def _double_a_space(blocks: list, k: int) -> None:
    blocks[k][1] = blocks[k][1].replace(" ", "  ", 1)


# name: (an edit of the stages' lines at stage k, whether reading fails)
STAGE_EDITS = {
    "reordered lines": (lambda b, k: b[k].insert(1, b[k].pop(2)), False),
    "duplicated line": (lambda b, k: b[k].append(b[k][-1]), False),
    "doubled space": (_double_a_space, False),
    "implicit el": (lambda b, k: b[k].pop(0), False),
    "repeated earlier fact": (lambda b, k: b[k].append(b[k - 1][-1]), False),
    "stage with no new element": (lambda b, k: b.insert(k, []), False),
    "stage repeating a fact": (lambda b, k: b.insert(k, [b[k - 1][-1]]), False),
    "sim line": (lambda b, k: b[k].append("sim 0 1"), True),
    "non-natural id": (lambda b, k: b[k].append("lt 0 -1"), True),
    "lt a a": (lambda b, k: b[k].append("lt 3 3"), True),
    "unknown relation": (lambda b, k: b[k].append("gt 0 1"), True),
}


def _canonical_blocks(stages: int = 12) -> tuple:
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=5), stages)
    return stream, [format_facts(sorted(d)) for d in stream.deltas]


def _assert_read_as_facts_from(text: str, k: int | None, monkeypatch):
    """from_text reads text as it does with the batch reader patched off,
    and, unless it raises, keeps every stage before k as a batch and reads
    stage k and every later one as facts."""
    got = _read(text)
    with monkeypatch.context() as m:
        m.setattr(streams, "parse_batch", lambda *args: None)
        assert _read(text) == got
    if k is None:
        assert isinstance(got[0], type) and issubclass(got[0], EmbedlabError)
        return
    read = StructureStream.from_text(text)
    kinds = [isinstance(d, PlacementBatch) for d in read.deltas]
    assert kinds == [True] * k + [False] * (len(kinds) - k)


@pytest.mark.parametrize("name", sorted(STAGE_EDITS))
def test_an_edited_stage_and_every_later_one_read_as_facts(name, monkeypatch):
    edit, fails = STAGE_EDITS[name]
    _, blocks = _canonical_blocks()
    edit(blocks, EDITED)
    _assert_read_as_facts_from(stream_file(blocks), None if fails else EDITED, monkeypatch)


def test_stages_switched_to_covering_pairs_read_as_facts(monkeypatch):
    stream, blocks = _canonical_blocks()
    cover = [format_facts(d) for d in covering(stream.deltas)]
    text = stream_file(blocks[:EDITED] + cover[EDITED:])
    _assert_read_as_facts_from(text, EDITED, monkeypatch)
    assert _read(text)[1] == [sorted(d) for d in stream.deltas[:EDITED]] + [
        sorted(d) for d in covering(stream.deltas)[EDITED:]]


def test_lt_facts_of_batches_count_towards_a_mix(monkeypatch):
    """lt facts only batches hold still make a later sim fact a mix."""
    text = "-- stage 0\nel 0\n-- stage 1\nel 1\nlt 0 1\n-- stage 2\nel 2\nsim 0 2\n"
    _assert_read_as_facts_from(text, None, monkeypatch)
    assert _read(text) == (ParseError, "stream mixes lt and sim facts")


def test_equivalence_files_read_as_fact_lists(monkeypatch):
    """A first stage of one el line reads as a placement, but an
    equivalence file's deltas are fact lists."""
    text = generate(CanonicalSpec("e"), 6).to_text()
    assert text.startswith("-- stage 0\nel 0\n-- stage 1\n")
    _assert_read_as_facts_from(text, 0, monkeypatch)
    assert StructureStream.from_text(text).signature is Signature.EQUIVALENCE


def _order_specs():
    """Every order family (k = 1 and 2 where it takes one) under every
    policy that presents it."""
    for family in ORDER_FAMILIES:
        for k in (1, 2) if family in PARAMETRIC_FAMILIES else (1,):
            for policy in POLICIES:
                try:
                    yield CanonicalSpec(family, policy, k, seed=5)
                except InvalidSpec:  # ascending or descending, not presenting it
                    pass


ORDER_SPECS = list(_order_specs())


def _placed_facts(spec: CanonicalSpec, stages: int) -> list:
    """The order stream's stages as place() writes them: each arrival at
    the rank of its slot key among the keys of the arrivals before it."""
    keys = streams._order_slot_keys(spec, stages)
    if spec.policy == "permuted":
        prefix = min(streams.PERMUTED_PREFIX, stages)
        keys = lcg_shuffle(keys[:prefix], spec.seed) + keys[prefix:]
    grown: list = []
    return [place(grown, i, sum(k < key for k in keys[:i])) for i, key in enumerate(keys)]


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=CanonicalSpec.label)
def test_generated_order_stages_are_the_placed_facts(spec):
    """Each stage of a generated order stream is a batch placing its one
    arrival, and yields the facts place() gives it, at every stream
    length from 1 to 60; the final stage, built from its chain, is the
    diagram of all those facts."""
    for stages in range(1, 61):
        stream = generate(spec, stages)
        want = _placed_facts(spec, stages)
        assert all(isinstance(d, PlacementBatch) for d in stream.deltas)
        assert [list(d.new) for d in stream.deltas] == [[i] for i in range(stages)]
        assert [list(d) for d in stream.deltas] == [sorted(f) for f in want]
        assert stream.final() == diagram_from_facts(Signature.LINEAR_ORDER,
                                                    chain.from_iterable(want))


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=CanonicalSpec.label)
def test_generated_order_text_is_written_and_read_without_a_layout(spec, monkeypatch):
    """Writing a generated order stream and reading it back builds no
    batch layout and no batch facts, and gives back batches with the
    generated chains."""
    def refuse(*args):
        raise AssertionError("a batch was laid out or expanded")

    stream = generate(spec, 100)
    monkeypatch.setattr(diagram, "_layout", refuse)
    monkeypatch.setattr(diagram, "_sorted_facts", refuse)
    read = StructureStream.from_text(stream.to_text())
    assert len(read) == len(stream)
    for mine, back in zip(stream.deltas, read.deltas):
        assert isinstance(mine, PlacementBatch) and isinstance(back, PlacementBatch)
        assert back.chain == mine.chain and list(back.new) == list(mine.new)

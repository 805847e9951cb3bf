"""Order outputs as placement batches: every built-in order writer returns
the elements it placed plus its output chain, and diagram.py alone turns
that into the all-pairs facts a run log records and reads such records
back as batches."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from reference_ops import Mirror, covering_stream
from embedlab import diagram, kernel
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
    IdText,
    InvalidInput,
    PlacementBatch,
    Signature,
    diagram_from_facts,
    format_blocks,
    format_facts,
    parse_batch,
    parse_diagram,
)
from embedlab.kernel import RunLog, StageRecord, parse_schedule, run
from embedlab.registry import build_operator
from embedlab.streams import ORDER_FAMILIES, CanonicalSpec, generate


def naive_facts(new, chain) -> list:
    """el for each new element and every ordered pair with a new end."""
    fresh = set(new)
    facts = {("el", x) for x in fresh}
    facts.update(("lt", a, b) for i, a in enumerate(chain) for b in chain[i + 1:]
                 if a in fresh or b in fresh)
    return sorted(facts)


@st.composite
def batches(draw, ids=st.integers(0, 10**6)):
    n = draw(st.integers(0, 40))
    chain = tuple(draw(st.lists(ids, min_size=n, max_size=n, unique=True)))
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


# Ids as long as the criterion-8 pipeline's (tags of tags of tuple codes).
LONG_IDS = st.one_of(st.integers(0, 10**6), st.integers(10**100, 10**110))


@given(batches(LONG_IDS))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batch_lines_match_fact_lines_and_read_back(batch):
    new, chain = batch
    b = PlacementBatch(new, chain)
    lines = format_facts(list(b))
    assert "\n".join(format_blocks(b, IdText(), "\n")) == "\n".join(lines)
    fresh = set(new)
    old = tuple(x for x in chain if x not in fresh)
    text = {x: str(x) for x in old}
    back = parse_batch(lines, old, text)
    assert isinstance(back, PlacementBatch)
    assert back == b
    assert back.chain == chain
    assert format_facts(back) == lines
    assert text == {x: str(x) for x in back.chain}


@st.composite
def whole_chain_batches(draw, ids=LONG_IDS):
    chain = tuple(draw(st.lists(ids, max_size=30, unique=True)))
    return draw(st.permutations(chain)), chain


ANNOTATION_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ANNOTATIONS = st.none() | st.dictionaries(
    st.text(max_size=4) | st.sampled_from(("pinned_size1", "ké", "ω")),
    ANNOTATION_VALUES, max_size=3)


@given(st.lists(st.tuples(batches(LONG_IDS) | whole_chain_batches(), ANNOTATIONS,
                          st.integers(0, 10**12)), max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_batch_record_lines_are_json_dumps_of_the_facts(records):
    """to_jsonl writes a batch record from its blocks, not through
    json.dumps; the line must be the one json.dumps writes for the
    record's fact lines, here built pair by pair."""
    log = RunLog("x", Signature.LINEAR_ORDER, "p", "identity", [
        StageRecord(stage, PlacementBatch(new, chain), notes)
        for (new, chain), notes, stage in records])
    lines = log.to_jsonl().split("\n")
    assert len(lines) == len(records) + 2 and lines[-1] == ""
    for line, ((new, chain), notes, stage) in zip(lines[1:], records):
        assert line == json.dumps({
            "v": 1,
            "stage": stage,
            "new_facts": ["%s %s %s" % f if f[0] == "lt" else "%s %s" % f
                          for f in naive_facts(new, chain)],
            "annotations": notes,
        }, sort_keys=True)


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


@st.composite
def one_placements(draw):
    """A chain of 1-60 distinct ids and the one of them a batch places:
    any rank in the chain, and any place in id order among the others."""
    chain = tuple(draw(st.lists(LONG_IDS, min_size=1, max_size=60, unique=True)))
    return chain[draw(st.integers(0, len(chain) - 1))], chain


@given(one_placements(), st.sampled_from(("\n", '", "')))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_one_element_batch_is_written_with_joins(placement, sep):
    """The blocks of a batch that places one element, written with no
    layout, are its fact lines (and place()'s) joined by either separator
    a writer uses, at most four non-empty blocks; parse_batch reads the
    lines back as the batch."""
    e, chain = placement
    b = PlacementBatch((e,), chain)
    old = [x for x in chain if x != e]
    lines = format_facts(sorted(reference_ops.place(list(old), e, chain.index(e))))
    blocks = list(format_blocks(b, IdText(), sep))
    assert 1 <= len(blocks) <= 4 and all(blocks)
    assert sep.join(blocks) == sep.join(format_facts(list(b))) == sep.join(lines)
    back = parse_batch(lines, tuple(old), {x: str(x) for x in old})
    assert isinstance(back, PlacementBatch)
    assert back == b and back.new == [e] and back.chain == chain


def test_place_is_a_one_element_batch():
    chain = [4, 9, 2]
    facts = reference_ops.place(chain, 7, 1)
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
        assert isinstance(back.new_facts, PlacementBatch)
        assert back.new_facts == rec.new_facts
        assert back.new_facts.chain == rec.new_facts.chain
        assert format_facts(back.new_facts) == format_facts(rec.new_facts)
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
        assert all(isinstance(r.new_facts, PlacementBatch) for r in decoded.records)
        # The same log as fact records, which fingerprint replays.
        facts = _fact_records(decoded)
        for threshold in (1, 5, 20):
            fp = fingerprint(log, threshold)
            assert fp == fingerprint(decoded, threshold), expr
            assert fp == fingerprint(facts, threshold), expr
            assert fp == reference_ops.fingerprint(log, threshold), expr


def _fact_records(log: RunLog) -> RunLog:
    """The log with every record's facts as a plain list."""
    return RunLog(log.operator, log.signature, log.provenance, log.schedule, [
        StageRecord(r.stage, list(r.new_facts), r.annotations) for r in log.records])


# --- reading order records back ---------------------------------------------


def _outcome(text: str):
    """What from_jsonl makes of text: each record's stage, facts and
    annotations, or the class and message of the error it raises."""
    try:
        log = RunLog.from_jsonl(text)
    except Exception as exc:
        return type(exc), str(exc)
    return [(r.stage, list(r.new_facts), r.annotations) for r in log.records]


def _assert_read_as_facts(text: str, monkeypatch) -> RunLog | None:
    """from_jsonl reads text as it does with every record parsed as facts;
    returns the decoded log, or None when reading raises."""
    got = _outcome(text)
    with monkeypatch.context() as m:
        m.setattr(kernel, "parse_batch", lambda *args: None)
        assert got == _outcome(text)
    if isinstance(got, tuple):
        return None
    log = RunLog.from_jsonl(text)
    # Each batch read back grows the chain before it by its new elements.
    chain = ()
    for rec in log.records:
        if isinstance(rec.new_facts, PlacementBatch):
            new, grown = rec.new_facts.new, rec.new_facts.chain
            assert len(set(grown)) == len(grown) == len(chain) + len(new)
            assert set(grown) == set(chain) | set(new)
            assert [x for x in grown if x in set(chain)] == list(chain)
            chain = grown
    return log


def _log_text(records: list) -> str:
    return "\n".join(json.dumps(rec) for rec in [
        {"v": 1, "type": "header", "operator": "x", "signature": "linear_order"},
        *({"v": 1, "stage": s, "new_facts": facts} for s, facts in enumerate(records)),
    ]) + "\n"


def _canonical_records() -> list:
    """new_facts of each record of a replicate:2 run on a permuted omega."""
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=5), 12)
    log = run(build_operator("replicate:2"), stream, 12)
    return [json.loads(ln)["new_facts"] for ln in log.to_jsonl().splitlines()[1:]]


def test_canonical_records_read_as_batches(monkeypatch):
    records = _canonical_records()
    log = _assert_read_as_facts(_log_text(records), monkeypatch)
    assert all(isinstance(r.new_facts, PlacementBatch) for r in log.records)
    assert [format_facts(r.new_facts) for r in log.records] == records


def _swap(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("lt "))
    return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


def _merge_first_lt_lines(lines):
    """The first two lt lines as one string, with a newline between."""
    i = next(i for i, line in enumerate(lines) if line.startswith("lt "))
    return lines[:i] + [lines[i] + "\n" + lines[i + 1]] + lines[i + 2:]


def _reverse_lt(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("lt "))
    _, a, b = lines[i].split()
    return lines[:i] + [f"lt {b} {a}"] + lines[i + 1:]


# name: (index of the record to edit, the edit)
NON_CANONICAL = {
    "leading zero": (3, lambda ls: ["el 0" + ls[0][3:]] + ls[1:]),
    "double space": (3, lambda ls: [ls[0].replace(" ", "  ")] + ls[1:]),
    "tab": (3, lambda ls: ls[:-1] + [ls[-1].replace(" ", "\t")]),
    "underscore": (3, lambda ls: ["el 1_0"] + ls[1:]),
    "plus sign": (3, lambda ls: ["el +" + ls[0][3:]] + ls[1:]),
    "non-ascii digit": (3, lambda ls: ["el \uff15"] + ls[1:]),
    "negative": (3, lambda ls: ["el -1"] + ls[1:]),
    "too many digits": (3, lambda ls: ["el " + "9" * 5000] + ls[1:]),
    "reordered lines": (3, _swap),
    "reordered el lines": (1, lambda ls: [ls[1], ls[0]] + ls[2:]),
    "duplicated line": (3, lambda ls: ls + [ls[-1]]),
    "duplicated el line": (3, lambda ls: [ls[0]] + ls),
    "dropped line": (3, lambda ls: ls[:-1]),
    "two lines in one": (3, lambda ls: ls[:-2] + [ls[-2] + "\n" + ls[-1]]),
    "two lt lines in one": (3, _merge_first_lt_lines),
    "re-declared old element": (3, lambda ls: ["el 0"] + ls),
    "el line after lt lines": (3, lambda ls: ls + ["el 0"]),
    "lt without el": (3, lambda ls: ls[1:]),
    "el without lt": (3, lambda ls: ls[:1]),
    "cycle": (3, _reverse_lt),
    "sim line": (3, lambda ls: ls + ["sim 0 1"]),
    "blank line": (3, lambda ls: ls + [""]),
    "int entry": (3, lambda ls: ls + [5]),
    "list entry": (3, lambda ls: ls + [["lt", 0, 1]]),
    "null entry": (3, lambda ls: [None] + ls),
    "string new_facts": (3, lambda ls: "\n".join(ls)),
    "object new_facts": (3, lambda ls: dict.fromkeys(ls, 1)),
    "null new_facts": (3, lambda ls: None),
    "number new_facts": (3, lambda ls: 7),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_non_canonical_records_read_as_facts(name, monkeypatch):
    k, edit = NON_CANONICAL[name]
    records = _canonical_records()
    records[k] = edit(records[k])
    log = _assert_read_as_facts(_log_text(records), monkeypatch)
    if log is not None:
        kinds = [isinstance(r.new_facts, PlacementBatch) for r in log.records]
        # Records before the first non-canonical one stay batches; it and
        # every later record, canonical or not, are read as facts.
        assert kinds == [True] * k + [False] * (len(records) - k)


# Whole logs whose records name their elements oddly.
ODD_LOGS = {
    "negative ids": [format_facts(PlacementBatch((-1, 3), (3, -1)))],
    "negative id later": [["el 0"], format_facts(PlacementBatch((-2,), (0, -2)))],
    "duplicated el line": [["el 1", "el 1"]],
    "re-declared element": [["el 1"], ["el 1"]],
    "re-declared element with a new one": [["el 1"], ["el 1", "el 2", "lt 1 2"]],
    "empty records": [[], ["el 0"], [], ["el 1", "lt 0 1"]],
}


@pytest.mark.parametrize("name", sorted(ODD_LOGS))
def test_odd_element_ids_read_as_facts(name, monkeypatch):
    _assert_read_as_facts(_log_text(ODD_LOGS[name]), monkeypatch)


def test_every_record_after_a_non_canonical_one_is_read_as_facts(monkeypatch):
    records = _canonical_records()
    records[1] = records[1] + [records[1][-1]]
    log = _assert_read_as_facts(_log_text(records), monkeypatch)
    assert [isinstance(r.new_facts, PlacementBatch) for r in log.records[:2]] == [True, False]
    assert not any(isinstance(r.new_facts, PlacementBatch) for r in log.records[2:])
    assert [format_facts(r.new_facts) for r in log.records][2:] == records[2:]


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_edited_records_read_as_facts(data):
    records = _canonical_records()
    k = data.draw(st.integers(0, len(records) - 1))
    lines = records[k]
    edit = data.draw(st.sampled_from(("delete", "duplicate", "swap", "respace", "renumber")))
    i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
    if lines and edit == "delete":
        del lines[i]
    elif lines and edit == "duplicate":
        lines.insert(i, lines[i])
    elif len(lines) > 1 and edit == "swap":
        lines[i - 1], lines[i] = lines[i], lines[i - 1]
    elif lines and edit == "respace":
        lines[i] = lines[i].replace(" ", data.draw(st.sampled_from(("  ", "\t", " \t"))), 1)
    elif lines and edit == "renumber":
        parts = lines[i].split()
        parts[-1] = str(data.draw(st.integers(0, 30)))
        lines[i] = " ".join(parts)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_read_as_facts(_log_text(records), monkeypatch)


def test_covering_and_mirror_logs_read_as_facts(monkeypatch):
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=4), 16)
    covering = covering_stream(stream)
    for log in (RunLog.from_stream(covering), run(Mirror(), covering, 16)):
        decoded = _assert_read_as_facts(log.to_jsonl(), monkeypatch)
        assert not all(isinstance(r.new_facts, PlacementBatch) for r in decoded.records)
        assert fingerprint(decoded, 3) == fingerprint(log, 3)
    # Over all pairs, each Mirror record is a reversed placement written
    # out in full, so it reads back as a batch.
    decoded = _assert_read_as_facts(run(Mirror(), stream, 16).to_jsonl(), monkeypatch)
    assert all(isinstance(r.new_facts, PlacementBatch) for r in decoded.records)


# --- inner operators that return plain facts --------------------------------


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
        stream = covering_stream(stream)
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
        make().eval(parse_diagram(text), 4)

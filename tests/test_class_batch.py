"""Equivalence records as class batches: ord2eq returns each step as a
ClassBatch, which a run keeps as its record, and the record's text is
byte for byte the lines of its facts.  A run log's equivalence records
are read back as class batches (parse_class_batch) with the facts,
errors and messages of the fact parser."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab import kernel
from embedlab.classify import census
from embedlab.constructions import ord2eq
from embedlab.diagram import (
    ClassBatch,
    EmbedlabError,
    IdText,
    Signature,
    format_blocks,
    format_facts,
)
from embedlab.kernel import RunLog, StageRecord, run
from embedlab.registry import build_operator
from embedlab.streams import CanonicalSpec, generate

from reference_ops import census as reference_census
from test_classify import HAND_RECORDS, equivalence_logs


@st.composite
def class_batches(draw):
    """Ascending el ids and ascending (head, member) pairs, each head
    below its member."""
    els = sorted(draw(st.sets(st.integers(0, 10**12), max_size=8)))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, 10**12), st.integers(1, 10**6)).map(
            lambda p: (p[0], p[0] + p[1])),
        max_size=12)))
    return ClassBatch(els, [h for h, _ in pairs], [m for _, m in pairs])


def _log(records) -> RunLog:
    return RunLog("op", Signature.EQUIVALENCE, "test", "identity", records)


notes = st.none() | st.fixed_dictionaries(
    {}, optional={"pinned_size1": st.none() | st.integers(0, 99)})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(class_batches(), notes), max_size=6))
def test_class_batch_records_are_their_facts(steps):
    for batch, _ in steps:
        assert len(batch) == len(list(batch))
        assert ("\n".join(format_blocks(batch, IdText(), "\n"))
                == "\n".join(format_facts(list(batch))))
    batches = _log([StageRecord(s, b, n) for s, (b, n) in enumerate(steps)])
    lists = _log([StageRecord(s, list(b), n) for s, (b, n) in enumerate(steps)])
    text = batches.to_jsonl()
    assert text == lists.to_jsonl()
    assert RunLog.from_jsonl(text) == batches


def test_ord2eq_records_are_sorted_stars():
    """Every sim fact of an ord2eq run joins a member new to the log to a
    head already named, and each record is sorted as run() sorts a list."""
    stream = generate(CanonicalSpec("eta", "permuted", seed=4), 60)
    log = run(ord2eq(), stream, 60)
    named: set = set()
    for rec in log.records:
        assert isinstance(rec.new_facts, ClassBatch)
        facts = list(rec.new_facts)
        assert facts == sorted(facts)
        named.update(rec.new_facts.els)
        for head, member in zip(rec.new_facts.heads, rec.new_facts.members):
            assert head in named and member not in named and head < member
            named.add(member)
    assert census(log, 30) == census(RunLog.from_jsonl(log.to_jsonl()), 30)


# --- reading records back ---------------------------------------------------

def _log_text(record: list) -> str:
    """An equivalence log of a record ``el 0`` and then the given one."""
    lines = [{"v": 1, "type": "header", "operator": "x", "signature": "equivalence"},
             {"v": 1, "stage": 0, "new_facts": ["el 0"]},
             {"v": 1, "stage": 1, "new_facts": record}]
    return "".join(json.dumps(line) + "\n" for line in lines)


def _read(text: str):
    """from_jsonl's records as (stage, facts in order, annotations), or
    the class and message of what it raised."""
    try:
        log = RunLog.from_jsonl(text)
    except EmbedlabError as exc:
        return type(exc), str(exc)
    return [(r.stage, list(r.new_facts), r.annotations) for r in log.records]


def _assert_read_as_facts(text: str) -> None:
    """from_jsonl reads text as it does with the class batch reader
    patched off, so that every record is parsed as facts."""
    got = _read(text)
    with mock.patch.object(kernel, "parse_class_batch", lambda lines: None):
        assert _read(text) == got


# A record, and whether it is read as a ClassBatch.  Those that are not
# read otherwise, or raise, in the fact parser: tokens that only line up
# across entries, two lines in one entry, a head above its member (the
# parser swaps it), whitespace or numerals the pattern does not spell, a
# relation the signature does not admit, a sim line before an el line, a
# numeral int() takes for too long, and entries that are not fact lines.
RECORDS = {
    "star": (["el 1", "el 2", "sim 0 1", "sim 4 9"], True),
    "tokens across entries": (["el", "5 el 6"], False),
    "two lines in one entry": (["sim 1 2\nsim 3 4"], False),
    "head above member": (["sim 2 1"], False),
    "leading zero": (["el 05", "sim 05 007"], True),
    "trailing space": (["el 5 "], False),
    "tab": (["el\t5"], False),
    "sign": (["el +5"], False),
    "non-ascii digit": (["el \u0665"], False),
    "lt": (["el 1", "el 2", "lt 1 2"], False),
    "sim before el": (["sim 1 2", "el 3"], False),
    "duplicates": (["el 1", "el 1", "sim 1 2", "sim 1 2"], True),
    "sim a a": (["el 4", "sim 4 4"], True),
    "empty record": ([], True),
    "too long for int": (["el " + "9" * 5000], False),
    "empty entry": ([""], False),
    "trailing newline": (["el 1\n"], False),
    "not a string": (["el 1", 5], False),
    "unknown relation": (["eq 1 2"], False),
    "sim with one id": (["sim 1"], False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_read_as_the_fact_parser_reads_them(name):
    record, batch = RECORDS[name]
    text = _log_text(record)
    _assert_read_as_facts(text)
    if not isinstance(_read(text), tuple):
        kinds = [type(r.new_facts) for r in RunLog.from_jsonl(text).records]
        assert kinds == [ClassBatch, ClassBatch if batch else list]


@pytest.mark.parametrize("i", range(len(HAND_RECORDS)))
def test_hand_records_read_as_the_fact_parser_reads_them(i):
    _assert_read_as_facts(_log_text(format_facts(HAND_RECORDS[i])))


@st.composite
def union_logs(draw):
    """Runs of a disjoint union of two equivalence operators."""
    if draw(st.booleans()):
        expr, family = "union(ord2eq, ord2eq)", draw(st.sampled_from(["eta", "omega_k"]))
    else:
        expr, family = ("union(class_multiplier, class_multiplier)",
                        draw(st.sampled_from(["e", "e_k", "e_hat_k"])))
    spec = CanonicalSpec(family, draw(st.sampled_from(["fair", "permuted"])),
                         draw(st.integers(1, 3)), draw(st.integers(0, 9)))
    stages = draw(st.integers(1, 12))
    return run(build_operator(expr), generate(spec, stages), stages)


@settings(max_examples=100, deadline=None)
@given(log=st.one_of(equivalence_logs(), union_logs()), window=st.integers(1, 60))
def test_drawn_logs_read_as_the_fact_parser_reads_them(log, window):
    """Logs of streams, ord2eq, pair_formula2eq, unions and hand-built
    records read back as the fact parser reads them, and their census is
    the reference's on the facts."""
    text = log.to_jsonl()
    _assert_read_as_facts(text)
    assert census(RunLog.from_jsonl(text), window) == reference_census(log, window)


def test_written_equivalence_logs_are_read_as_class_batches(monkeypatch):
    """The records to_jsonl writes for ord2eq, and for pair_formula2eq,
    whose records are lists in memory, are all read as class batches,
    with no fact parsed, and give the census of the log in memory."""
    calls = []
    parse_facts = kernel._parse_facts
    monkeypatch.setattr(kernel, "_parse_facts",
                        lambda *args: calls.append(args) or parse_facts(*args))
    logs = [run(ord2eq(), generate(CanonicalSpec("eta", "permuted", seed=4), 100), 100),
            run(build_operator("pair_formula2eq"),
                generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 64), 64)]
    assert all(type(r.new_facts) is list for r in logs[1].records)
    for log in logs:
        decoded = RunLog.from_jsonl(log.to_jsonl())
        assert all(type(r.new_facts) is ClassBatch for r in decoded.records)
        assert decoded == log
        assert census(decoded, 30) == census(log, 30)
    assert calls == []

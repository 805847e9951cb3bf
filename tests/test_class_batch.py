"""Equivalence records as class batches: ord2eq returns each step as a
ClassBatch, which a run keeps as its record, and the record's text is
byte for byte the lines of its facts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.classify import census
from embedlab.constructions import ord2eq
from embedlab.diagram import ClassBatch, IdText, Signature, format_blocks, format_facts
from embedlab.kernel import RunLog, StageRecord, run
from embedlab.streams import CanonicalSpec, generate


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

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab import diagram
from embedlab.classify import census, consistency_verdict, fingerprint
from embedlab.combinators import replicate
from embedlab.diagram import (
    ClassBatch,
    InconsistentDiagram,
    InvalidSpec,
    PlacementBatch,
    Signature,
    SignatureError,
)
from embedlab.kernel import RunLog, StageRecord, run
from embedlab.registry import build_operator
from embedlab.streams import (
    ORDER_FAMILIES,
    PARAMETRIC_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)

from reference_ops import census as reference_census
from reference_ops import order_witnesses


def stream_log(family, stages, k=1, policy="fair", seed=0):
    return RunLog.from_stream(
        generate(CanonicalSpec(family, policy, k, seed), stages)
    )


# --- fingerprint ------------------------------------------------------------

def test_fingerprint_omega():
    fp = fingerprint(stream_log("omega", 120), 5)
    assert fp.pred_unstable == []
    assert fp.succ_unstable == []
    assert fp.stable_least == 0
    assert fp.stable_greatest is None


def test_fingerprint_omega_2_one_limit_block():
    fp = fingerprint(stream_log("omega_k", 120, k=2), 5)
    assert fp.pred_unstable == [1]  # the second block's minimum
    assert fp.succ_unstable == []
    assert fp.stable_least == 0


def test_fingerprint_omega_star():
    fp = fingerprint(stream_log("omega_star", 120), 5)
    # Each element gains exactly one new predecessor, then settles.
    assert fp.pred_unstable == []
    assert fp.succ_unstable == []
    assert fp.stable_greatest == 0
    assert fp.stable_least is None


def test_fingerprint_counts_monotone_in_stages():
    full = generate(CanonicalSpec("omega_k", k=3), 120)
    counts = []
    for stages in (40, 80, 120):
        log = RunLog.from_stream(full)
        log.records = log.records[:stages]
        fp = fingerprint(log, 5)
        counts.append((len(fp.pred_unstable), len(fp.succ_unstable)))
    assert counts == sorted(counts)


def test_fingerprint_requires_order_log():
    with pytest.raises(SignatureError):
        fingerprint(stream_log("e", 10), 5)


@pytest.mark.parametrize("threshold", [0, -3])
def test_fingerprint_threshold_below_one_rejected(threshold):
    with pytest.raises(InvalidSpec):
        fingerprint(stream_log("omega", 10), threshold)


# --- census -----------------------------------------------------------------

def test_census_window_fallback():
    log = stream_log("e_k", 120, k=2)
    c = census(log, 30)
    assert not c.annotated
    frozen = c.frozen_classes()
    assert len(frozen) == 1 and frozen[0].size == 2


def test_census_prefers_annotations():
    # A synthetic log: one class never grows but is not pinned; the pinned
    # class is reported frozen, the unpinned quiet one is not.
    records = []
    for s in range(40):
        facts = []
        if s == 0:
            facts = [("el", 0), ("el", 1), ("sim", 0, 1), ("el", 5)]
        records.append(StageRecord(
            stage=s, new_facts=facts,
            annotations={"pinned_size1": 5, "pinned_size2": None},
        ))
    log = RunLog("synthetic", Signature.EQUIVALENCE, "test", "identity", records)
    c = census(log, 10)
    assert c.annotated
    frozen = {r.representative for r in c.frozen_classes()}
    assert frozen == {5}


def test_census_unstable_pin_not_frozen():
    # The pin moves between two classes within the window: neither counts.
    records = []
    for s in range(40):
        facts = []
        if s == 0:
            facts = [("el", 0), ("el", 1)]
        records.append(StageRecord(
            stage=s, new_facts=facts,
            annotations={"pinned_size1": s % 2, "pinned_size2": None},
        ))
    log = RunLog("synthetic", Signature.EQUIVALENCE, "test", "identity", records)
    c = census(log, 10)
    assert not c.frozen_classes()


def test_census_requires_equivalence_log():
    with pytest.raises(SignatureError):
        census(stream_log("omega", 10), 5)


@pytest.mark.parametrize("window", [0, -5])
def test_census_window_below_one_rejected(window):
    """A window of 0 would read pins[-0:], the whole run."""
    with pytest.raises(InvalidSpec):
        census(stream_log("e_k", 10, k=2), window)


def test_census_frozen_count_grows_with_stages():
    counts = []
    for stages in (80, 160):
        c = census(stream_log("e_hat_k", stages, k=1), 30)
        counts.append(len(c.frozen_of_size(1)))
    assert counts[0] >= 2 and counts[1] > counts[0]


def test_census_last_growth_tracks_merges():
    records = [
        StageRecord(0, [("el", 0), ("el", 1)]),
        StageRecord(1, [("el", 2)]),
        StageRecord(2, []),
        StageRecord(3, [("sim", 0, 1)]),
        StageRecord(4, []),
    ]
    log = RunLog("synthetic", Signature.EQUIVALENCE, "test", "identity", records)
    c = census(log, 2)
    by_rep = {r.representative: r for r in c.classes}
    assert by_rep[0].last_growth_stage == 3
    assert by_rep[2].last_growth_stage == 1


@lru_cache(maxsize=None)
def _equivalence_log(source, family, policy, k, seed, stages):
    spec = CanonicalSpec(family, policy, k, seed if policy == "permuted" else 0)
    if source == "stream":
        return RunLog.from_stream(generate(spec, stages))
    return run(build_operator(source), generate(spec, stages), stages)


# Records no generator writes, one list of facts per stage: a sim joining
# two old classes (with the smaller end a root, and with neither end a
# root), a sim repeated within one class, sim a a (new and old), a sim
# whose smaller end is new (and one written larger end first), a sim whose
# larger end is new below a non-root, and el facts for known elements.
HAND_RECORDS = (
    [("el", 1), ("el", 5), ("el", 3), ("sim", 3, 5)],
    [("sim", 1, 5)],
    [("el", 0), ("el", 7), ("sim", 0, 7), ("sim", 5, 9)],
    [("sim", 5, 7), ("sim", 1, 3)],
    [("sim", 6, 6), ("el", 3), ("sim", 8, 9)],
    [("sim", 12, 10), ("el", 6), ("sim", 6, 6)],
    [],
    [("sim", 10, 11), ("sim", 9, 20), ("el", 0)],
)


def class_batch(facts) -> ClassBatch:
    """The ClassBatch that iterates as the facts sorted, each sim fact
    written smaller end first."""
    facts = sorted(f if f[0] == "el" or f[1] <= f[2] else ("sim", f[2], f[1])
                   for f in facts)
    sims = [f for f in facts if f[0] == "sim"]
    return ClassBatch([f[1] for f in facts if f[0] == "el"],
                      [f[1] for f in sims], [f[2] for f in sims])


@st.composite
def hand_logs(draw):
    """A prefix of HAND_RECORDS at increasing stages, each record a list or
    the ClassBatch of the same facts."""
    count = draw(st.integers(1, len(HAND_RECORDS)))
    stages = sorted(draw(st.sets(st.integers(0, 60), min_size=count, max_size=count)))
    records = [
        StageRecord(stage, class_batch(facts) if draw(st.booleans()) else list(facts))
        for stage, facts in zip(stages, HAND_RECORDS)
    ]
    return RunLog("hand", Signature.EQUIVALENCE, "test", "identity", records)


@st.composite
def equivalence_logs(draw):
    """Stream logs of fair and permuted e, e_k and e_hat_k presentations,
    optionally with drawn pins (some naming no element of the log), ord2eq
    and pair_formula2eq runs with the annotations they write and the class
    batches they return, and hand-built logs."""
    source = draw(st.sampled_from(["stream", "ord2eq", "pair_formula2eq", "hand"]))
    if source == "hand":
        return draw(hand_logs())
    policy = draw(st.sampled_from(["fair", "permuted"]))
    seed = draw(st.integers(0, 9))
    k = draw(st.integers(1, 3))
    if source == "stream":
        family = draw(st.sampled_from(["e", "e_k", "e_hat_k"]))
        stages = draw(st.integers(1, 120))
    elif source == "ord2eq":
        family = draw(st.sampled_from(
            ["one_plus_eta", "eta_plus_one", "eta", "omega_k", "omega_star_k"]))
        stages = draw(st.integers(1, 100))
    else:
        family = draw(st.sampled_from(["omega_k", "omega_star_k"]))
        stages = draw(st.integers(1, 40))
    log = _equivalence_log(source, family, policy, k, seed, stages)
    if source != "stream" or not draw(st.booleans()):
        return log
    pin = st.none() | st.integers(0, 3 * stages)
    notes = st.none() | st.fixed_dictionaries(
        {}, optional={"pinned_size1": pin, "pinned_size2": pin, "other": pin})
    records = [StageRecord(r.stage, r.new_facts, draw(notes)) for r in log.records]
    return RunLog(log.operator, log.signature, log.provenance, log.schedule, records)


@settings(max_examples=300, deadline=None)
@given(log=equivalence_logs(), window=st.integers(1, 200))
def test_census_matches_reference(log, window):
    assert census(log, window) == reference_census(log, window)


# --- consistency verdicts ---------------------------------------------------

@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy, seed", [("fair", 0), ("permuted", 3), ("permuted", 8)])
def test_order_rules_match_reference(family, policy, seed):
    """The omega rule is stated once and mirrored for omega*, and the
    dense rule once for both endpoints; their witnesses are those of the
    rules written out case by case, byte for byte, for every order claim
    against logs of each order family."""
    log = run(replicate(2), generate(CanonicalSpec(family, policy, 2, seed), 90), 90)
    fp = fingerprint(log, 5)
    for claim_family in ORDER_FAMILIES:
        for k in (1, 2, 4):
            verdict = consistency_verdict(log, CanonicalSpec(claim_family, k=k), 5)
            want = order_witnesses(fp, claim_family, k)
            assert verdict.evidence.get("witness", []) == want
            assert verdict.consistent == (not want)


def test_consistency_canonical_streams():
    specs = [
        CanonicalSpec("omega"), CanonicalSpec("omega_star"),
        CanonicalSpec("omega_k", k=2), CanonicalSpec("omega_star_k", k=3),
        CanonicalSpec("one_plus_eta"), CanonicalSpec("eta_plus_one"),
        CanonicalSpec("eta"), CanonicalSpec("e"),
        CanonicalSpec("e_k", k=1), CanonicalSpec("e_hat_k", k=2),
    ]
    for spec in specs:
        log = RunLog.from_stream(generate(spec, 200))
        verdict = consistency_verdict(log, spec, 5, 30)
        assert verdict.consistent, (spec.label(), verdict.evidence)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("family", ["omega_k", "omega_star_k"])
def test_permuted_raw_stream_is_judged_by_its_own_block_count(family):
    """A permuted presentation of omega.1 (omega*.1) is consistent with one
    block and not with two.  Counting neighbour changes over the whole run
    judges it the other way round, since the shuffled prefix gives settled
    elements their changes early on."""
    log = RunLog.from_stream(generate(CanonicalSpec(family, "permuted", 1, 1), 120))
    verdicts = [consistency_verdict(log, CanonicalSpec(family, k=k)).verdict
                for k in (1, 2)]
    assert verdicts == ["CONSISTENT", "INCONSISTENT"]


def test_consistency_replicate_on_omega_as_omega3():
    from embedlab.combinators import replicate

    stream = generate(CanonicalSpec("omega"), 200)
    log = run(replicate(3), stream, 200)
    v = consistency_verdict(log, CanonicalSpec("omega_k", k=3), 5, 30)
    assert v.consistent
    assert v.evidence["stable_least"] is not None


def test_consistency_inconsistent_has_witness():
    stream = generate(CanonicalSpec("omega_k", k=2), 150)
    log = RunLog.from_stream(stream)
    v = consistency_verdict(log, CanonicalSpec("omega"), 5, 30)
    assert not v.consistent
    assert any("pred-unstable" in w for w in v.evidence["witness"])


def test_consistency_phi_sigma2_run_claims():
    from embedlab.constructions import phi_sigma2
    from embedlab.sigma2 import greatest_element_sentence, least_element_sentence

    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=5), 150)
    log = run(
        phi_sigma2(least_element_sentence(), greatest_element_sentence()),
        stream, 150,
    )
    assert consistency_verdict(log, CanonicalSpec("omega"), 5, 30).consistent
    v = consistency_verdict(log, CanonicalSpec("omega_star"), 5, 30)
    assert not v.consistent
    assert v.evidence["witness"]


@pytest.mark.parametrize("family", ORDER_FAMILIES)
@pytest.mark.parametrize("policy", ("fair", "permuted"))
def test_a_placement_read_stream_is_classified_from_its_chain(family, policy,
                                                               monkeypatch):
    """A stream file read as placements keeps its batches as log records,
    so its fingerprint and verdict read the chain and never replay the
    facts; both equal those of the same stages as sorted fact lists."""
    spec = CanonicalSpec(family, policy, 2 if family in PARAMETRIC_FAMILIES else 1,
                         seed=7)
    stream = generate(spec, 120)
    facts_log = RunLog.from_stream(stream)
    want = fingerprint(facts_log, 5), consistency_verdict(facts_log, spec)
    log = RunLog.from_stream(StructureStream.from_text(stream.to_text()))
    assert all(isinstance(rec.new_facts, PlacementBatch) for rec in log.records)
    assert [list(rec.new_facts) for rec in log.records] == [
        rec.new_facts for rec in facts_log.records]

    def refuse(*args):
        raise AssertionError("a placement-read log's facts were replayed")

    monkeypatch.setattr(diagram.FiniteDiagram, "_topo", refuse)
    monkeypatch.setattr(diagram, "_sorted_facts", refuse)
    assert (fingerprint(log, 5), consistency_verdict(log, spec)) == want


def _batch_log(*batches) -> RunLog:
    log = RunLog("x", Signature.LINEAR_ORDER, "", "")
    log.records = [StageRecord(s, batch) for s, batch in enumerate(batches)]
    return log


def test_batch_records_that_do_not_grow_one_chain_read_as_their_facts():
    """A log in memory whose batch records do not grow one chain is read
    from its facts, as its JSONL round trip, which decodes such a record
    as a fact list, is: the second batch below moves 1 under 0, but its
    facts only place 2 above both."""
    log = _batch_log(PlacementBatch((0, 1), (0, 1)), PlacementBatch((2,), (1, 0, 2)))
    decoded = RunLog.from_jsonl(log.to_jsonl())
    assert fingerprint(log, 1) == fingerprint(decoded, 1)
    assert {x: (t.pred_changes, t.succ_changes)
            for x, t in fingerprint(log, 1).elements.items()} == {
        0: (0, 0), 1: (0, 1), 2: (0, 0)}
    # Here the second batch's facts lt 1 2 and lt 2 0 close a cycle with
    # lt 0 1.
    cyclic = _batch_log(PlacementBatch((0, 1), (0, 1)), PlacementBatch((2,), (1, 2, 0)))
    for each in (cyclic, RunLog.from_jsonl(cyclic.to_jsonl())):
        with pytest.raises(InconsistentDiagram):
            fingerprint(each, 1)


def test_consistency_signature_mismatch():
    log = stream_log("omega", 20)
    with pytest.raises(SignatureError):
        consistency_verdict(log, CanonicalSpec("e"), 5, 10)


def test_census_and_fingerprint_are_pure():
    order_log = stream_log("omega_k", 60, k=2)
    a, b = fingerprint(order_log, 5), fingerprint(order_log, 5)
    assert (a.pred_unstable, a.succ_unstable, a.stable_least,
            a.stable_greatest) == (b.pred_unstable, b.succ_unstable,
                                   b.stable_least, b.stable_greatest)
    eq_log = stream_log("e_k", 60, k=2)
    c, d = census(eq_log, 20), census(eq_log, 20)
    assert [(r.representative, r.size, r.frozen, r.last_growth_stage)
            for r in c.classes] == \
           [(r.representative, r.size, r.frozen, r.last_growth_stage)
            for r in d.classes]

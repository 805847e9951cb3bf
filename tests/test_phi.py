import pytest

from embedlab import constructions, diagram
from embedlab.constructions import StagePair, phi_pair, phi_sigma2
from embedlab.diagram import InvalidSpec, Signature
from embedlab.kernel import run
from embedlab.sigma2 import greatest_element_sentence, least_element_sentence
from embedlab.streams import CanonicalSpec, StructureStream, generate


def make_targets(stages=80):
    return StagePair(
        generate(CanonicalSpec("omega_k", k=2), stages),
        generate(CanonicalSpec("omega_star_k", k=2), stages),
    )


def guesses(log):
    return [
        (r.annotations["building"], r.annotations["t"],
         r.annotations["l"], r.annotations["r"])
        for r in log.records
    ]


def test_phi_pair_hand_trace():
    # Arrivals 5, 3, 7 with true order 3 < 5 < 7: start on A, drop of the
    # running minimum switches to B, rise of the running maximum switches
    # back to A.  Switch stages do not grow the output.
    deltas = [
        [("el", 5)],
        [("el", 3), ("lt", 3, 5)],
        [("el", 7), ("lt", 3, 7), ("lt", 5, 7)],
    ]
    stream = StructureStream(Signature.LINEAR_ORDER, deltas, "hand")
    log = run(phi_pair(make_targets()), stream, 3)
    assert guesses(log) == [
        ("A", 0, 5, 5),
        ("B", 0, 3, 5),
        ("A", 0, 3, 7),
    ]
    assert log.records[1].new_facts == []
    assert log.records[2].new_facts == []


def test_phi_pair_ascending_never_switches():
    stream = generate(CanonicalSpec("omega", "ascending"), 40)
    log = run(phi_pair(make_targets()), stream, 40)
    assert all(not r.annotations["switched"] for r in log.records)
    assert all(r.annotations["building"] == "A" for r in log.records)
    # Output copies the A-target's stages: same insertion ranks.
    target = generate(CanonicalSpec("omega_k", k=2), 40)
    out_chain = log.final_diagram().chain()
    target_chain = target.final().chain()
    assert out_chain == target_chain  # ids align: both count arrivals


def test_phi_pair_descending_one_switch_then_b():
    stream = generate(CanonicalSpec("omega_star", "descending"), 40)
    log = run(phi_pair(make_targets()), stream, 40)
    switches = [r.stage for r in log.records if r.annotations["switched"]]
    assert switches == [1]
    assert log.records[-1].annotations["building"] == "B"


def test_phi_pair_switch_count_small_on_permuted():
    targets = make_targets()
    for seed in range(6):
        stream = generate(CanonicalSpec("omega", "permuted", seed=seed), 48)
        log = run(phi_pair(targets), stream, 48)
        switch_stages = [r.stage for r in log.records if r.annotations["switched"]]
        assert len(switch_stages) <= 40
        assert log.records[-1].annotations["building"] == "A"
        # Stable after the true minimum arrived and one more top appears.
        assert max(switch_stages, default=0) <= 34


def test_stage_pair_reads_its_targets_once(monkeypatch):
    """Runs that share a StagePair index the same entry ranks: each target
    is replayed once, however many runs there are, and every run logs what
    it logs with a pair of its own."""
    replays = []
    entry_ranks = constructions._entry_ranks
    monkeypatch.setattr(constructions, "_entry_ranks",
                        lambda stream: replays.append(stream) or entry_ranks(stream))
    targets = make_targets(44)
    streams = [generate(CanonicalSpec(family, "permuted", seed=seed), 40)
               for family in ("omega", "omega_star") for seed in (1, 2, 3)]
    shared = [run(phi_pair(targets), stream, 40) for stream in streams]
    assert replays == [targets.a, targets.b]
    for stream, log in zip(streams, shared):
        own = run(phi_pair(make_targets(44)), stream, 40)
        assert [(r.new_facts, r.annotations) for r in log.records] == [
            (r.new_facts, r.annotations) for r in own.records]


@pytest.mark.parametrize("family", ["omega_k", "omega_star_k"])
@pytest.mark.parametrize("policy", ["fair", "permuted"])
def test_entry_ranks_of_placed_targets_are_those_of_their_facts(family, policy, monkeypatch):
    """A generated target's entry ranks are read from its batches' chains,
    with no replay of its facts, and equal those replayed from the same
    stages listed as facts."""
    target = generate(CanonicalSpec(family, policy, k=2, seed=4), 60)
    as_facts = StructureStream(target.signature, [list(d) for d in target.deltas], "facts")
    want = constructions._entry_ranks(as_facts)

    def refuse(*args):
        raise AssertionError("the target's facts were replayed")

    monkeypatch.setattr(diagram.FiniteDiagram, "_topo", refuse)
    monkeypatch.setattr(diagram, "_sorted_facts", refuse)
    assert constructions._entry_ranks(target) == want


def test_phi_pair_output_stays_total():
    stream = generate(CanonicalSpec("omega", "permuted", seed=9), 30)
    log = run(phi_pair(make_targets()), stream, 30)
    assert log.final_diagram().is_total()


def test_phi_pair_rejects_equivalence_targets():
    with pytest.raises(InvalidSpec):
        StagePair(
            generate(CanonicalSpec("e"), 10),
            generate(CanonicalSpec("omega"), 10),
        )


def test_phi_pair_rejects_equivalence_input():
    stream = generate(CanonicalSpec("e"), 10)
    from embedlab.diagram import SignatureError

    with pytest.raises(SignatureError):
        run(phi_pair(make_targets()), stream, 10)


def test_phi_sigma2_omega_fair_all_top():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega"), 30)
    log = run(phi_sigma2(phi, psi), stream, 30)
    placements = [r.annotations["placement"] for r in log.records[1:]]
    assert placements == ["top"] * 29
    assert log.final_diagram().chain() == list(range(30))


def test_phi_sigma2_omega_star_descending_all_bottom():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega_star", "descending"), 30)
    log = run(phi_sigma2(phi, psi), stream, 30)
    placements = [r.annotations["placement"] for r in log.records[1:]]
    assert placements == ["bottom"] * 29


def test_phi_sigma2_permuted_omega2_stabilizes_top():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=13), 80)
    log = run(phi_sigma2(phi, psi), stream, 80)
    placements = [r.annotations["placement"] for r in log.records[1:]]
    tail = placements[40:]
    assert all(p == "top" for p in tail)


def test_phi_sigma2_placements_never_interior():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=3), 40)
    log = run(phi_sigma2(phi, psi), stream, 40)
    chain = []
    for rec in log.records:
        new = [f[1] for f in rec.new_facts if f[0] == "el"]
        assert len(new) == 1
        e = new[0]
        count_below = sum(
            1 for f in rec.new_facts if f[0] == "lt" and f[2] == e
        )
        count_above = sum(
            1 for f in rec.new_facts if f[0] == "lt" and f[1] == e
        )
        assert count_below == 0 or count_above == 0
        assert count_below + count_above == len(chain)
        chain.append(e)


def test_phi_sigma2_witness_annotations_present():
    phi, psi = least_element_sentence(), greatest_element_sentence()
    stream = generate(CanonicalSpec("omega"), 10)
    log = run(phi_sigma2(phi, psi), stream, 10)
    last = log.records[-1].annotations
    assert last["phi_least"] == [0]
    assert last["psi_least"] == [9]
    assert last["case"] == 4

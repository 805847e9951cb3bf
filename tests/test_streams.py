import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.diagram import InvalidSpec, Signature
from embedlab.streams import (
    CanonicalSpec,
    StructureStream,
    generate,
    lcg_shuffle,
    restrict,
)

FAMILY_KS = [
    ("omega", 1), ("omega_star", 1), ("omega_k", 2), ("omega_k", 3),
    ("omega_star_k", 2), ("one_plus_eta", 1), ("eta_plus_one", 1),
    ("eta", 1), ("e", 1), ("e_k", 2), ("e_hat_k", 1),
]


def test_omega_fair_first_stages():
    s = generate(CanonicalSpec("omega"), 3)
    assert s.stage(0).domain == {0}
    assert s.stage(1).domain == {0, 1}
    assert s.stage(2).facts >= {("lt", 0, 1), ("lt", 0, 2), ("lt", 1, 2)}


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

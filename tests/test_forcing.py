import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops

from embedlab import forcing
from embedlab.combinators import reverse, replicate
from embedlab.diagram import (
    EmbedlabError,
    InvalidSpec,
    NotInOutput,
    parse_diagram,
    total_order_diagram,
)
from embedlab.forcing import (
    FORCED,
    REFUTED,
    UNKNOWN,
    ForcingQuery,
    bounded_force,
    extensions,
    trichotomy_scan,
)
from embedlab.kernel import EnumerationOperator, StreamEvaluator
from embedlab.pairing import tag
from embedlab.registry import build_operator


def test_extensions_counts_and_containment():
    alpha = total_order_diagram([1, 0])
    exts = list(extensions(alpha, 2))
    # 1 + 3 + 12 arrangements, each extending alpha's order.
    assert len(exts) == 16
    assert len(set(map(tuple, exts))) == 16
    for chain in exts:
        assert chain.index(1) < chain.index(0)
        assert set(chain) <= {0, 1, 2, 3}


def test_forced_example_replicate():
    op = replicate(2)
    alpha = total_order_diagram([0, 1])
    atom = ("lt", tag(0, 1), tag(1, 0))  # copy 0 stays below copy 1
    verdict = bounded_force(ForcingQuery(op, alpha, atom, 3, 16))
    assert verdict.outcome == FORCED


def test_bounded_force_evaluates_once_at_ext_bound_0(monkeypatch):
    """At bound 0 the only extension is alpha's all-pairs closure, and
    the domain check reads that same evaluation: one evaluation, through
    kernel.evaluate_facts, of the 10-element closure (55 facts)."""
    op = replicate(1)
    sizes = []
    real = forcing.evaluate_facts
    monkeypatch.setattr(forcing, "evaluate_facts", lambda op, beta, n: (
        sizes.append(len(beta.facts)) or real(op, beta, n)))
    alpha = parse_diagram("".join(f"lt {i} {i + 1}\n" for i in range(9)))
    atom = ("lt", tag(0, 0), tag(0, 9))
    verdict = bounded_force(ForcingQuery(op, alpha, atom, 0, 1))
    assert verdict.outcome == FORCED
    assert sizes == [10 + 45]


class _Mirror(EnumerationOperator):
    """The stored input facts with every lt reversed, from budget 1."""

    name = "mirror"

    def make_stream_evaluator(self):
        return _MirrorStream()


class _MirrorStream(StreamEvaluator):
    def step(self, diagram, delta, budget):
        if budget < 1:
            return [], None
        return [f if f[0] == "el" else ("lt", f[2], f[1]) for f in delta], None


def test_force_on_covering_alpha_evaluates_the_closure():
    """An operator may read the stored facts: on the covering chain
    0 < 1 < 2 only the closure stores lt 0 2, so only its mirror holds
    lt 2 0, and the closure is the certificate."""
    alpha = parse_diagram("lt 0 1\nlt 1 2\n")
    assert ("lt", 2, 0) not in _Mirror().eval(alpha, 1).facts
    verdict = bounded_force(ForcingQuery(_Mirror(), alpha, ("lt", 0, 2), 0, 1))
    assert verdict.outcome == REFUTED
    assert verdict.certificate == total_order_diagram([0, 1, 2])


class _Covering(EnumerationOperator):
    """The input chain as its covering pairs alone, which present the
    same order as all pairs."""

    name = "covering"
    extension_complete = True

    def make_stream_evaluator(self):
        return _CoveringStream()


class _CoveringStream(StreamEvaluator):
    def step(self, diagram, delta, budget):
        line = diagram.chain()
        facts = [("el", x) for x in line]
        return facts + [("lt", a, b) for a, b in zip(line, line[1:])], None


def test_force_reads_an_output_of_covering_pairs_as_its_order():
    """An output's lt facts need not be closed: 0 < 2 holds in the output
    of 0 < 1 < 2 though no fact stores it, so lt 2 0 is refuted by alpha
    itself and every pair is decided one way."""
    alpha = total_order_diagram([0, 1, 2])
    forced = bounded_force(ForcingQuery(_Covering(), alpha, ("lt", 0, 2), 0, 1))
    assert forced.outcome == FORCED
    verdict = bounded_force(ForcingQuery(_Covering(), alpha, ("lt", 2, 0), 0, 1))
    assert verdict.outcome == REFUTED
    assert verdict.certificate == alpha
    assert trichotomy_scan(_Covering(), 3, 1, 1).clean
    # An output that is not total is read through the closure of its facts.
    partial = parse_diagram("lt 0 1\nlt 1 2\nel 3\n")
    assert forcing._lt_pairs(partial, {0, 2, 3}) == {(0, 2)}


def test_refuted_with_alpha_itself():
    op = replicate(2)
    alpha = total_order_diagram([0, 1])
    atom = ("lt", tag(1, 0), tag(0, 1))
    verdict = bounded_force(ForcingQuery(op, alpha, atom, 3, 16))
    assert verdict.outcome == REFUTED
    assert verdict.certificate.facts == alpha.facts


def test_certificate_reverifies():
    op = replicate(3)
    alpha = total_order_diagram([2, 0])
    out = op.eval(alpha, 8)
    elems = sorted(out.domain)
    found = 0
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            v = bounded_force(ForcingQuery(op, alpha, ("lt", x, y), 2, 8))
            if v.outcome == REFUTED:
                found += 1
                replay = op.eval(v.certificate, 8)
                assert ("lt", y, x) in replay.facts
    assert found > 0


def unknown_fixture():
    # The refuting axiom needs two fresh elements (canonical ids 1, 2).
    return reference_ops.AxiomTableOperator("fixture", [
        (frozenset({("el", 0)}), ("el", 10)),
        (frozenset({("el", 0)}), ("el", 11)),
        (frozenset({("el", 0)}), ("lt", 10, 11)),
        (frozenset({("lt", 1, 2)}), ("lt", 11, 10)),
    ])


def test_unknown_then_refuted_as_bound_grows():
    op = unknown_fixture()
    alpha = total_order_diagram([0])
    atom = ("lt", 10, 11)
    v1 = bounded_force(ForcingQuery(op, alpha, atom, 1, 10))
    assert v1.outcome == UNKNOWN
    v2 = bounded_force(ForcingQuery(op, alpha, atom, 2, 10))
    assert v2.outcome == REFUTED
    assert ("lt", 1, 2) in v2.certificate.facts


def test_honesty_monotone_no_forced_refuted_flip():
    op = replicate(2)
    alpha = total_order_diagram([0, 1, 2])
    out = op.eval(alpha, 8)
    elems = sorted(out.domain)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            outcomes = [
                bounded_force(ForcingQuery(op, alpha, ("lt", x, y), b, 8)).outcome
                for b in (0, 1, 2, 3)
            ]
            assert len(set(outcomes)) == 1  # extension-complete: no flips


def test_ill_posed_atom():
    op = replicate(1)
    alpha = total_order_diagram([0])
    with pytest.raises(NotInOutput):
        bounded_force(ForcingQuery(op, alpha, ("lt", 999, 998), 1, 8))
    with pytest.raises(InvalidSpec):
        bounded_force(ForcingQuery(op, alpha, ("sim", 0, 1), 1, 8))


def test_trichotomy_replicate_identity_permutation():
    report = trichotomy_scan(replicate(1), 3, 2, 8)
    assert report.clean
    # Unique forced permutation mirrors the source order.
    perm = report.details["permutations"]["0 1 2"]
    assert perm == [tag(0, 0), tag(0, 1), tag(0, 2)]


def test_trichotomy_replicate_two_lexicographic():
    report = trichotomy_scan(replicate(2), 3, 2, 8)
    assert report.clean
    perm = report.details["permutations"]["0 1"]
    assert perm == [tag(0, 0), tag(0, 1), tag(1, 0), tag(1, 1)]


def test_trichotomy_matches_bounded_force_verdicts():
    op = replicate(2)
    alpha = total_order_diagram([1, 0])
    out = op.eval(alpha, 8)
    elems = sorted(out.domain)
    report = trichotomy_scan(op, 2, 2, 8)
    perm = report.details["permutations"]["1 0"]
    for i, x in enumerate(perm):
        for y in perm[i + 1:]:
            v = bounded_force(ForcingQuery(op, alpha, ("lt", x, y), 2, 8))
            assert v.outcome == FORCED


def conflicted_fixture():
    # An axiom table that decides a pair both ways across extensions.
    return reference_ops.AxiomTableOperator("conflicted", [
        (frozenset({("el", 0)}), ("el", 10)),
        (frozenset({("el", 0)}), ("el", 11)),
        (frozenset({("lt", 0, 1)}), ("lt", 10, 11)),
        (frozenset({("lt", 1, 0)}), ("lt", 11, 10)),
    ], extension_complete=True)


def test_trichotomy_catches_broken_fixture():
    report = trichotomy_scan(conflicted_fixture(), 1, 2, 10)
    assert not report.clean


def test_verdicts_invariant_under_id_permutation():
    # Canonical fresh ids suffice because the shipped operators are
    # isomorphism-invariant: renaming input elements renames outputs.
    op = replicate(2)
    chain_a = [0, 1, 2]
    chain_b = [7, 3, 9]  # same order pattern, different ids
    rename = dict(zip(chain_a, chain_b))
    alpha_a = total_order_diagram(chain_a)
    alpha_b = total_order_diagram(chain_b)
    for copy_x in range(2):
        for x in chain_a:
            for copy_y in range(2):
                for y in chain_a:
                    if (copy_x, x) == (copy_y, y):
                        continue
                    atom_a = ("lt", tag(copy_x, x), tag(copy_y, y))
                    atom_b = ("lt", tag(copy_x, rename[x]), tag(copy_y, rename[y]))
                    va = bounded_force(ForcingQuery(op, alpha_a, atom_a, 2, 8))
                    vb = bounded_force(ForcingQuery(op, alpha_b, atom_b, 2, 8))
                    assert va.outcome == vb.outcome


# Order operators whose steps return placement batches, and operators
# whose steps return fact lists whose lt facts are closed, so that the
# reference's reading of the stored facts is their order.
FORCING_OPERATORS = {
    "replicate:1": lambda: replicate(1),
    "replicate:2": lambda: replicate(2),
    "replicate:3": lambda: replicate(3),
    "rev(replicate:2)": lambda: build_operator("rev(replicate:2)"),
    "concat(replicate:1,rev(replicate:2))":
        lambda: build_operator("concat(replicate:1,rev(replicate:2))"),
    "replicate:1|fill:left": lambda: build_operator("replicate:1|fill:left"),
    "rev(replicate:2)|fill:right": lambda: build_operator("rev(replicate:2)|fill:right"),
    "mirror": _Mirror,
    "rev(mirror)": lambda: reverse(_Mirror()),
    "axiom:unknown": unknown_fixture,
    "axiom:conflicted": conflicted_fixture,
}


def _verdict(force, query):
    """A verdict's outcome and certificate, or the error it raised."""
    try:
        v = force(query)
    except EmbedlabError as exc:
        return type(exc), str(exc)
    return v.outcome, v.certificate


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(FORCING_OPERATORS)),
    chain=st.lists(st.integers(0, 5), max_size=4, unique=True),
    ext_bound=st.integers(0, 2),
    budget=st.integers(0, 8),
    data=st.data(),
)
def test_forcing_reads_chains_as_the_fact_reference(name, chain, ext_bound, budget, data):
    """Reading order outputs by chain position gives the refuted pairs,
    outcomes, certificates and errors of reading every output's facts."""
    op = FORCING_OPERATORS[name]()
    alpha = total_order_diagram(chain)
    elements = sorted(op.eval(alpha, budget).domain)
    assert forcing._refuted_pairs(op, alpha, elements, ext_bound, budget) == \
        reference_ops.fact_refuted_pairs(op, alpha, elements, ext_bound, budget)
    ids = elements + [999]  # 999 is in no output
    atoms = [(x, y) for x in ids for y in ids if x != y]
    for x, y in data.draw(st.lists(st.sampled_from(atoms or [(0, 999)]),
                                   min_size=1, max_size=3)):
        query = ForcingQuery(op, alpha, ("lt", x, y), ext_bound, budget)
        assert _verdict(bounded_force, query) == \
            _verdict(reference_ops.fact_bounded_force, query)

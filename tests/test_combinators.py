import pytest

from reference_ops import untag
from embedlab.combinators import (
    LEFT_CLOSED,
    concatenate,
    disjoint_union,
    dyadic,
    interval_fill,
    replicate,
    reverse,
)
from embedlab.constructions import class_multiplier, ord2eq
from embedlab.diagram import (
    InvalidSpec,
    SignatureError,
    partition_diagram,
    total_order_diagram,
)
from embedlab.pairing import tag


def test_dyadic_breadth_first():
    from fractions import Fraction

    assert [dyadic(r) for r in range(7)] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8),
    ]


def test_replicate_one_copy_is_isomorphic():
    out = replicate(1).eval(total_order_diagram([0, 1]), 10)
    assert [untag(e) for e in out.chain()] == [(0, 0), (0, 1)]


def test_replicate_two_copies_in_series():
    out = replicate(2).eval(total_order_diagram([5, 7]), 10)
    assert [untag(e) for e in out.chain()] == [
        (0, 5), (0, 7), (1, 5), (1, 7),
    ]
    # All implied pairs are present: a total order on four elements.
    assert sum(1 for f in out.facts if f[0] == "lt") == 6


def test_replicate_rejects_zero():
    with pytest.raises(InvalidSpec):
        replicate(0)


def test_replicate_requires_total_input():
    from embedlab.diagram import InvalidInput, parse_diagram

    with pytest.raises(InvalidInput):
        replicate(2).eval(parse_diagram("el 0\nel 1"), 4)


def test_reverse_swaps_order():
    out = reverse(replicate(1)).eval(total_order_diagram([0, 1]), 10)
    assert ("lt", tag(0, 1), tag(0, 0)) in out.facts
    assert ("lt", tag(0, 0), tag(0, 1)) not in out.facts


def test_fill_left_block_shape():
    fill = interval_fill(replicate(1), LEFT_CLOSED)
    alpha = total_order_diagram([0])
    out = fill.eval(alpha, 36)
    chain = out.chain()
    assert len(chain) == 7  # endpoint + isqrt(36) midpoints
    least = chain[0]
    src, pos = untag(least)
    assert pos == 0  # the closed endpoint is the block minimum
    # Dense above the least: between the least and anything sits another.
    grown = fill.eval(alpha, 144).chain()
    assert grown[0] == least
    assert grown[-1] != chain[-1]  # no greatest persists


def test_fill_then_reverse_differs_from_reverse_then_fill():
    alpha = total_order_diagram([0, 1])
    a = reverse(interval_fill(replicate(1), LEFT_CLOSED)).eval(alpha, 16)
    b = interval_fill(reverse(replicate(1)), LEFT_CLOSED).eval(alpha, 16)
    assert a.facts != b.facts
    # reverse-after-fill ends in a closed endpoint; fill-after-reverse
    # starts with one.
    assert untag(a.chain()[-1])[1] == 0
    assert untag(b.chain()[0])[1] == 0


def test_concatenate_places_first_below_second():
    out = concatenate(replicate(1), replicate(1)).eval(total_order_diagram([0, 1]), 8)
    chain = out.chain()
    assert len(chain) == 4
    sides = [untag(e)[0] for e in chain]
    assert sides == [0, 0, 1, 1]
    assert sum(1 for f in out.facts if f[0] == "lt") == 6


def test_concatenate_signature_checks():
    with pytest.raises(SignatureError):
        concatenate(replicate(1), ord2eq())
    with pytest.raises(SignatureError):
        disjoint_union(replicate(1), replicate(1))


def test_disjoint_union_census_is_multiset_sum():
    d = partition_diagram([[0, 1], [2]])
    mult = class_multiplier()
    left = mult.eval(d, 3)
    union = disjoint_union(class_multiplier(), class_multiplier()).eval(d, 3)
    left_sizes = sorted(len(c) for c in left.sim_classes())
    union_sizes = sorted(len(c) for c in union.sim_classes())
    assert union_sizes == sorted(left_sizes * 2)


def test_fill_grows_without_bound():
    fill = interval_fill(replicate(1), LEFT_CLOSED)
    alpha = total_order_diagram([0, 1])
    sizes = [len(fill.eval(alpha, n).domain) for n in (4, 16, 64, 256)]
    assert sizes == sorted(set(sizes)), sizes

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import unpair, untag
from embedlab.pairing import decode_tuple, encode_tuple, pair, tag

naturals = st.integers(min_value=0, max_value=10**6)


def test_pair_known_values():
    # Diagonal enumeration: (0,0)=0, (1,0)=1, (0,1)=2, (2,0)=3, (1,1)=4
    assert [pair(0, 0), pair(1, 0), pair(0, 1), pair(2, 0), pair(1, 1)] == \
        [0, 1, 2, 3, 4]


@given(naturals, naturals)
@settings(max_examples=80, deadline=None)
def test_pair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(naturals, naturals)
@settings(max_examples=50, deadline=None)
def test_tag_roundtrip(copy, source):
    assert untag(tag(copy, source)) == (copy, source)


@given(naturals, naturals)
@settings(max_examples=80, deadline=None)
def test_tag_is_pair(copy, source):
    assert tag(copy, source) == pair(copy, source)


@pytest.mark.parametrize("copy,source", [(-1, 0), (0, -1), (-2, -3)])
def test_tag_rejects_negatives(copy, source):
    with pytest.raises(ValueError):
        tag(copy, source)


@given(st.lists(st.integers(min_value=0, max_value=4000), max_size=12))
@settings(max_examples=80, deadline=None)
def test_tuple_roundtrip(items):
    t = tuple(items)
    assert decode_tuple(encode_tuple(t)) == t


def test_tuple_encoding_injective_across_lengths():
    seen = {}
    tuples = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (2,), (0, 2)]
    for t in tuples:
        code = encode_tuple(t)
        assert code not in seen, (t, seen[code])
        seen[code] = t


def test_long_tuple_encoding_stays_small():
    chain = tuple(range(1, 41, 2))
    assert encode_tuple(chain).bit_length() < 600

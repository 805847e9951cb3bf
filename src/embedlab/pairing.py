"""Injective encodings of pairs and tuples of naturals into naturals.

Operators that tag, copy or tuple their input elements push the structured
name through these encodings so every diagram stays over plain naturals.
The pairing is the standard diagonal one: pair(x, y) = (x+y)(x+y+1)/2 + y.
"""

from __future__ import annotations


def pair(x: int, y: int) -> int:
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals")
    s = x + y
    return s * (s + 1) // 2 + y


def tag(copy_index: int, source: int) -> int:
    """Encode a (copy, source-element) pair as a single element id:
    pair(copy_index, source), computed here in one call."""
    if copy_index < 0 or source < 0:
        raise ValueError("pairing is defined on naturals")
    s = copy_index + source
    return s * (s + 1) // 2 + source


def encode_tuple(items: tuple[int, ...]) -> int:
    """Injective tuple encoding with bit size linear in the content.

    The tuple is written as a base-4 digit stream: a leading 1, then each
    element's binary digits followed by a separator digit 2.  (An iterated
    diagonal pairing grows doubly exponentially with tuple length, which
    makes long-tuple ids computationally unusable.)
    """
    code = 1
    for x in items:
        if x < 0:
            raise ValueError("tuple encoding is defined on naturals")
        for bit in format(x, "b"):
            code = code * 4 + int(bit)
        code = code * 4 + 2
    return code


def decode_tuple(encoded: int) -> tuple[int, ...]:
    digits = []
    while encoded > 1:
        digits.append(encoded % 4)
        encoded //= 4
    if encoded != 1:
        raise ValueError("not a tuple code")
    out = []
    current: list[int] = []
    for d in reversed(digits):
        if d == 2:
            out.append(int("".join(map(str, current)), 2))
            current = []
        elif d in (0, 1):
            current.append(d)
        else:
            raise ValueError("not a tuple code")
    if current:
        raise ValueError("not a tuple code")
    return tuple(out)

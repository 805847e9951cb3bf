"""Structural combinators over enumeration operators.

replicate(q) lays q tagged copies of a total order in series; reverse swaps
the output order; interval_fill replaces every output element by a growing
dense block with one closed endpoint; concatenate stacks two order outputs;
disjoint_union merges two equivalence outputs without cross links.  Output
elements are tagged through the diagonal pairing so ids remain naturals.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import (
    InvalidSpec,
    Signature,
    SignatureError,
    el,
    place,
)
from .kernel import EnumerationOperator, StreamEvaluator
from .pairing import tag

LEFT_CLOSED = "left_closed"
RIGHT_CLOSED = "right_closed"


def dyadic(r: int) -> Fraction:
    """r-th dyadic of (0,1) in breadth-first order: 1/2, 1/4, 3/4, 1/8, ..."""
    level = (r + 1).bit_length()
    pos = r + 1 - (1 << (level - 1))
    return Fraction(2 * pos + 1, 1 << level)


class Replicate(EnumerationOperator):
    input_signature = Signature.LINEAR_ORDER
    output_signature = Signature.LINEAR_ORDER
    extension_complete = True

    def __init__(self, q: int):
        if q < 1:
            raise InvalidSpec("replicate requires q >= 1")
        self.q = q
        self.name = f"replicate:{q}"

    def make_stream_evaluator(self):
        return _ReplicateStream(self.q)


class _ReplicateStream(StreamEvaluator):
    def __init__(self, q: int):
        self.q = q
        self.chain: list = []   # placed input elements in input order
        self.output: list = []  # the q copies of chain laid in series
        self.pending: list = []

    def step(self, diagram, delta, budget):
        self.pending.extend(f[1] for f in delta if f[0] == "el")
        if budget < 1:
            return [], None
        new = []
        for x in self.pending:
            r = diagram.insert(self.chain, x)
            n = len(self.chain)
            for i in range(self.q):
                new += place(self.output, tag(i, x), i * n + r)
        self.pending = []
        return new, None


def replicate(q: int) -> Replicate:
    return Replicate(q)


def _swap_lt(fact):
    return ("lt", fact[2], fact[1]) if fact[0] == "lt" else fact


class Reverse(EnumerationOperator):
    def __init__(self, op: EnumerationOperator):
        if op.output_signature is not Signature.LINEAR_ORDER:
            raise SignatureError("reverse requires a linear order output")
        self.op = op
        self.name = f"rev({op.name})"
        self.input_signature = op.input_signature
        self.output_signature = Signature.LINEAR_ORDER
        self.extension_complete = op.extension_complete

    def make_stream_evaluator(self):
        return _MappedStream(self.op.make_stream_evaluator(), _swap_lt)


class _MappedStream(StreamEvaluator):
    def __init__(self, inner: StreamEvaluator, fn):
        self.inner = inner
        self.fn = fn

    def step(self, diagram, delta, budget):
        new, notes = self.inner.step(diagram, delta, budget)
        return [self.fn(f) for f in new], notes


def reverse(op: EnumerationOperator) -> Reverse:
    return Reverse(op)


def fill_positions(budget: int) -> int:
    """Positions per block at a budget: the closed endpoint plus isqrt(n)
    midpoints.  Square-root growth keeps compositions with tuple operators
    polynomially small while the limit block is still a dense interval."""
    from math import isqrt

    return isqrt(budget) + 1 if budget >= 1 else 0


class _FillBlocks:
    """Block bookkeeping of interval_fill's stream evaluator.

    Each underlying output element owns a block; position 0 is the closed
    endpoint, position r >= 1 the (r-1)-th dyadic.  Facts are emitted
    exactly once: a position emits its comparisons against previously
    created positions only.
    """

    def __init__(self, style: str):
        self.style = style
        self.count: dict = {}      # source -> created positions
        self.under_lt: set = set()  # (below, above) source pairs

    def value(self, r: int) -> Fraction:
        if r == 0:
            return Fraction(0) if self.style == LEFT_CLOSED else Fraction(1)
        return dyadic(r - 1)

    def advance(self, new_under_facts, budget: int) -> list:
        out = []
        new_pairs = []
        for f in new_under_facts:
            if f[0] == "el":
                self.count.setdefault(f[1], 0)
            elif f[0] == "lt":
                self.count.setdefault(f[1], 0)
                self.count.setdefault(f[2], 0)
                self.under_lt.add((f[1], f[2]))
                new_pairs.append((f[1], f[2]))

        # Cross facts for underlying pairs whose blocks already have members.
        for x, y in new_pairs:
            for rx in range(self.count.get(x, 0)):
                for ry in range(self.count.get(y, 0)):
                    out.append(("lt", tag(x, rx), tag(y, ry)))

        target = fill_positions(budget)
        events = sorted(
            (r, x) for x, c in self.count.items() for r in range(c, target)
        )
        for r, x in events:
            e = tag(x, r)
            out.append(el(e))
            v = self.value(r)
            for ry in range(r):
                if self.value(ry) < v:
                    out.append(("lt", tag(x, ry), e))
                else:
                    out.append(("lt", e, tag(x, ry)))
            for y, cy in self.count.items():
                if y == x or cy == 0:
                    continue
                if (y, x) in self.under_lt:
                    out.extend(("lt", tag(y, ry), e) for ry in range(cy))
                elif (x, y) in self.under_lt:
                    out.extend(("lt", e, tag(y, ry)) for ry in range(cy))
            self.count[x] = r + 1
        return out


class IntervalFill(EnumerationOperator):
    """Replace each output element by a dense block with one closed end.

    LEFT_CLOSED blocks have a least element and no greatest (type [p,q) in
    the limit); RIGHT_CLOSED dually.  Blocks are ordered as their sources
    and grow one position per square budget step (see fill_positions).
    """

    def __init__(self, op: EnumerationOperator, style: str):
        if op.output_signature is not Signature.LINEAR_ORDER:
            raise SignatureError("interval_fill requires a linear order output")
        if style not in (LEFT_CLOSED, RIGHT_CLOSED):
            raise InvalidSpec(f"unknown fill style {style!r}")
        self.op = op
        self.style = style
        suffix = "left" if style == LEFT_CLOSED else "right"
        self.name = f"{op.name}|fill:{suffix}"
        self.input_signature = op.input_signature
        self.output_signature = Signature.LINEAR_ORDER
        self.extension_complete = op.extension_complete

    def make_stream_evaluator(self):
        return _FillStream(self.style, self.op.make_stream_evaluator())


class _FillStream(StreamEvaluator):
    def __init__(self, style: str, inner: StreamEvaluator):
        self.blocks = _FillBlocks(style)
        self.inner = inner

    def step(self, diagram, delta, budget):
        inner_new, _ = self.inner.step(diagram, delta, budget)
        return self.blocks.advance(inner_new, budget), None


def interval_fill(op: EnumerationOperator, style: str) -> IntervalFill:
    return IntervalFill(op, style)


class Concatenate(EnumerationOperator):
    """First operator's output entirely below the second's, on tagged copies."""

    def __init__(self, op1: EnumerationOperator, op2: EnumerationOperator):
        if op1.input_signature is not op2.input_signature:
            raise SignatureError("concatenate requires equal input signatures")
        if (op1.output_signature is not Signature.LINEAR_ORDER
                or op2.output_signature is not Signature.LINEAR_ORDER):
            raise SignatureError("concatenate requires linear order outputs")
        self.op1, self.op2 = op1, op2
        self.name = f"concat({op1.name},{op2.name})"
        self.input_signature = op1.input_signature
        self.output_signature = Signature.LINEAR_ORDER
        self.extension_complete = op1.extension_complete and op2.extension_complete

    def make_stream_evaluator(self):
        return _PairedStream(
            self.op1.make_stream_evaluator(),
            self.op2.make_stream_evaluator(),
            _SideMerger(cross=True),
        )


class DisjointUnion(EnumerationOperator):
    """Tagged union of two equivalence outputs; no class crosses sides."""

    def __init__(self, op1: EnumerationOperator, op2: EnumerationOperator):
        if op1.input_signature is not op2.input_signature:
            raise SignatureError("disjoint_union requires equal input signatures")
        if (op1.output_signature is not Signature.EQUIVALENCE
                or op2.output_signature is not Signature.EQUIVALENCE):
            raise SignatureError("disjoint_union requires equivalence outputs")
        self.op1, self.op2 = op1, op2
        self.name = f"union({op1.name},{op2.name})"
        self.input_signature = op1.input_signature
        self.output_signature = Signature.EQUIVALENCE

    def make_stream_evaluator(self):
        return _PairedStream(
            self.op1.make_stream_evaluator(),
            self.op2.make_stream_evaluator(),
            _SideMerger(cross=False),
        )


def _map_side(fact, side: int):
    if fact[0] == "el":
        return el(tag(side, fact[1]))
    return (fact[0], tag(side, fact[1]), tag(side, fact[2]))


class _SideMerger:
    def __init__(self, cross: bool):
        self.cross = cross
        self.dom = ({}, {})  # side -> dict used as ordered set

    def advance(self, new0, new1) -> list:
        out = []
        new_els = ({}, {})  # dicts used as ordered sets
        for side, new in ((0, new0), (1, new1)):
            for f in new:
                out.append(_map_side(f, side))
                for x in f[1:]:
                    if x not in self.dom[side]:
                        new_els[side][x] = True
        if self.cross:
            for x in new_els[0]:
                for y in self.dom[1]:
                    out.append(("lt", tag(0, x), tag(1, y)))
            old0 = [x for x in self.dom[0]]
            for y in new_els[1]:
                for x in old0:
                    out.append(("lt", tag(0, x), tag(1, y)))
                for x in new_els[0]:
                    out.append(("lt", tag(0, x), tag(1, y)))
        for side in (0, 1):
            for x in new_els[side]:
                self.dom[side][x] = True
        return out


class _PairedStream(StreamEvaluator):
    def __init__(self, inner1, inner2, merger: _SideMerger):
        self.inner1 = inner1
        self.inner2 = inner2
        self.merger = merger

    def step(self, diagram, delta, budget):
        new1, _ = self.inner1.step(diagram, delta, budget)
        new2, _ = self.inner2.step(diagram, delta, budget)
        return self.merger.advance(new1, new2), None


def concatenate(op1, op2) -> Concatenate:
    return Concatenate(op1, op2)


def disjoint_union(op1, op2) -> DisjointUnion:
    return DisjointUnion(op1, op2)

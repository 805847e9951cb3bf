"""Structural combinators over enumeration operators.

replicate(q) lays q tagged copies of a total order in series; reverse swaps
the output order; interval_fill replaces every output element by a growing
dense block with one closed endpoint; concatenate stacks two order outputs;
disjoint_union merges two equivalence outputs without cross links.  Output
elements are tagged through the diagonal pairing so ids remain naturals.

The order combinators work on chains.  Each step of a built-in order
operator returns a PlacementBatch (the elements it placed and its output
chain after the step), and replicate, reverse, interval_fill and
concatenate build their output chain from their inner chains, tagging each
element once; none of them compares or emits a pair, since diagram.py
expands a batch into facts only when something reads them.  An inner
operator that returns plain facts, such as a user-defined one, is read
through one adapter, _OrderBatches, which takes its chain from the order
of its facts and raises InvalidInput unless they present a total order.
Each evaluator node's ``step`` steps its inner evaluators and builds its
own output; none only forwards to another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain as iter_chain

from .diagram import (
    FiniteDiagram,
    InvalidInput,
    InvalidSpec,
    PlacementBatch,
    Signature,
    SignatureError,
    new_elements,
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
        self.pending += new_elements(delta)
        if budget < 1:
            return PlacementBatch((), tuple(self.output)), None
        new = []
        for x in self.pending:
            r = diagram.insert(self.chain, x)
            n = len(self.chain)
            for i in range(self.q):
                e = tag(i, x)
                self.output.insert(i * n + r, e)
                new.append(e)
        self.pending = []
        return PlacementBatch(new, tuple(self.output)), None


def replicate(q: int) -> Replicate:
    return Replicate(q)


class _OrderBatches(StreamEvaluator):
    """An inner order evaluator's output as placement batches.

    Batches pass through.  Plain facts grow one diagram, and after each
    step that adds facts new to it the chain is their order
    (FiniteDiagram.chain); the facts so far must present a total order,
    else InvalidInput.
    """

    def __init__(self, inner: StreamEvaluator):
        self.inner = inner
        self.order = FiniteDiagram(Signature.LINEAR_ORDER)
        self.chain: list = []

    def step(self, diagram, delta, budget):
        new, notes = self.inner.step(diagram, delta, budget)
        if isinstance(new, PlacementBatch):
            return new, notes
        order = self.order
        order.grow(list(new))  # a step may return any iterable of facts
        placed = []
        if order.delta:
            if not order.is_total():
                raise InvalidInput(
                    "an order combinator needs its inner output to be a total order")
            placed = sorted(order.domain.difference(self.chain))
            self.chain = order.chain()
        return PlacementBatch(placed, tuple(self.chain)), notes


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
        return _ReverseStream(self.op.make_stream_evaluator())


class _ReverseStream(_OrderBatches):
    """The inner order's batches with their chains reversed."""

    def step(self, diagram, delta, budget):
        new, notes = super().step(diagram, delta, budget)
        return new.reversed(), notes


def reverse(op: EnumerationOperator) -> Reverse:
    return Reverse(op)


def fill_positions(budget: int) -> int:
    """Positions per block at a budget: the closed endpoint plus isqrt(n)
    midpoints.  Square-root growth keeps compositions with tuple operators
    polynomially small while the limit block is still a dense interval."""
    from math import isqrt

    return isqrt(budget) + 1 if budget >= 1 else 0


class _FillBlocks(StreamEvaluator):
    """interval_fill's stream evaluator.

    Each underlying output element owns a block, and all blocks have the
    same positions: position 0 is the closed endpoint, position r >= 1 the
    (r-1)-th dyadic.  A position is tagged once, as tag(source, r); the
    output chain is the blocks in the inner chain's order, each block in
    value order.
    """

    def __init__(self, style: str, inner: _OrderBatches):
        self.style = style
        self.inner = inner
        self.layout: list = []   # block positions in value order
        self.tags: dict = {}     # source -> its positions' ids, by position
        self.blocks: dict = {}   # source -> its positions' ids, in value order

    def value(self, r: int) -> Fraction:
        if r == 0:
            return Fraction(0) if self.style == LEFT_CLOSED else Fraction(1)
        return dyadic(r - 1)

    def step(self, diagram, delta, budget):
        inner_new, _ = self.inner.step(diagram, delta, budget)
        return self.advance(inner_new, budget), None

    def advance(self, inner: PlacementBatch, budget: int) -> PlacementBatch:
        for x in inner.new:
            self.tags[x] = []
        target = fill_positions(budget)
        if target > len(self.layout):
            self.layout = sorted(range(target), key=self.value)
            sources = self.tags  # every block grows
        else:
            sources = inner.new  # only new blocks fill up
        new = []
        for x in sources:
            ids = self.tags[x]
            added = [tag(x, r) for r in range(len(ids), target)]
            ids += added
            new += added
            self.blocks[x] = [ids[r] for r in self.layout]
        chain = iter_chain.from_iterable(map(self.blocks.__getitem__, inner.chain))
        return PlacementBatch(new, tuple(chain))


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
        return _FillBlocks(self.style, _OrderBatches(self.op.make_stream_evaluator()))


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
        return _SideMerger(
            _OrderBatches(self.op1.make_stream_evaluator()),
            _OrderBatches(self.op2.make_stream_evaluator()),
            cross=True,
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
        return _SideMerger(
            self.op1.make_stream_evaluator(),
            self.op2.make_stream_evaluator(),
            cross=False,
        )


class CopyTags(dict):
    """Element -> tag(copy, element) on one tagged copy, so that each
    element is tagged once however many facts name it."""

    def __init__(self, copy: int):
        self.copy = copy

    def facts(self, facts) -> list:
        """The el and sim facts on this copy."""
        copy, get = self.copy, self.get
        out = []
        for f in facts:
            a = get(f[1])
            if a is None:
                a = self[f[1]] = tag(copy, f[1])
            if f[0] == "el":
                out.append(("el", a))
                continue
            b = get(f[2])
            if b is None:
                b = self[f[2]] = tag(copy, f[2])
            out.append(("sim", a, b) if a <= b else ("sim", b, a))
        return out


class _SideMerger(StreamEvaluator):
    """Steps both sides and puts their outputs on tagged copies: side s's
    element x becomes tag(s, x).  A union maps each side's facts; a
    concatenation (cross) lays side 1's chain after side 0's and tags each
    element once.
    """

    def __init__(self, inner0: StreamEvaluator, inner1: StreamEvaluator, cross: bool):
        self.inners = (inner0, inner1)
        self.cross = cross
        self.tags = (CopyTags(0), CopyTags(1))

    def step(self, diagram, delta, budget):
        new0, _ = self.inners[0].step(diagram, delta, budget)
        new1, _ = self.inners[1].step(diagram, delta, budget)
        return self.advance(new0, new1), None

    def advance(self, new0, new1):
        if not self.cross:
            return self.tags[0].facts(new0) + self.tags[1].facts(new1)
        new: list = []
        chain: list = []
        for side, batch in ((0, new0), (1, new1)):
            tags = self.tags[side]
            for x in batch.new:
                tags[x] = tag(side, x)
                new.append(tags[x])
            chain += map(tags.__getitem__, batch.chain)
        return PlacementBatch(new, tuple(chain))


def concatenate(op1, op2) -> Concatenate:
    return Concatenate(op1, op2)


def disjoint_union(op1, op2) -> DisjointUnion:
    return DisjointUnion(op1, op2)

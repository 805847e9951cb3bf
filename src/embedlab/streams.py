"""Stage-wise presentations of the canonical countable structures.

A stream presents a structure as a monotone sequence of finite diagrams:
stage s is the induced substructure on the elements that have arrived by
stage s.  Element ids are arrival indices, so stage domains are initial
segments of the naturals.

Order families place each arrival at a position given by a per-family slot
key; equivalence families assign each arrival to a class.  The ``permuted``
policy shuffles which structural slot arrives when, over a bounded prefix,
using a seeded 64-bit linear congruential generator (Knuth's MMIX constants
a=6364136223846793005, c=1442695040888963407) so presentations are
reproducible across implementations.

A stream's stages are drawn by iter_stages as one FiniteDiagram, built
empty and grown in place by each delta, so drawing a stage costs one set
update of its delta rather than a copy of every fact so far.  A stage is
valid only until the next one is drawn; stage(s) builds a FiniteDiagram
of stage s that can be kept.

An order stream is a sequence of placements, generated or read: generate
gives each stage as a diagram.PlacementBatch that places the stage's one
arrival in the chain so far, to_text writes each batch through
format_blocks (``el e`` and three joins of lt lines, with no layout),
and from_text reads each stage that is what to_text writes back as such
a batch.  The diagram those batches grow keeps their chain instead of a
set of every pair, and stage(s) builds stage s from its chain.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .diagram import (
    FiniteDiagram,
    IdText,
    InvalidSpec,
    ParseError,
    PlacementBatch,
    RELATIONS,
    Signature,
    content_lines,
    diagram_from_facts,
    el,
    file_signature,
    format_blocks,
    format_facts,
    is_natural,
    parse_batch,
    parse_facts,
    placed_chain,
    total_order_diagram,
)

ORDER_FAMILIES = ("omega", "omega_star", "omega_k", "omega_star_k",
                  "one_plus_eta", "eta_plus_one", "eta")
EQUIV_FAMILIES = ("e", "e_k", "e_hat_k")
PARAMETRIC_FAMILIES = ("omega_k", "omega_star_k", "e_k", "e_hat_k")
POLICIES = ("fair", "permuted", "descending", "ascending")

PERMUTED_PREFIX = 32

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg_stream(seed: int) -> Iterator[int]:
    state = seed & _LCG_MASK
    while True:
        state = (_LCG_A * state + _LCG_C) & _LCG_MASK
        yield state


def lcg_shuffle(items: list, seed: int) -> list:
    """Fisher-Yates over the LCG; deterministic given seed."""
    out = list(items)
    rng = lcg_stream(seed)
    for i in range(len(out) - 1, 0, -1):
        j = next(rng) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def derive_seed(base: int, index: int) -> int:
    """Stable per-experiment seed derivation from a base seed."""
    rng = lcg_stream((base << 8) ^ index)
    next(rng)
    return next(rng) & _LCG_MASK


@dataclass(frozen=True)
class CanonicalSpec:
    family: str
    policy: str = "fair"
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in ORDER_FAMILIES + EQUIV_FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if self.policy not in POLICIES:
            raise InvalidSpec(f"unknown policy {self.policy!r}")
        if self.k < 1:
            raise InvalidSpec("k must be a positive natural")
        if self.policy == "ascending" and not self._is_omega_like():
            raise InvalidSpec("ascending arrivals only present omega")
        if self.policy == "descending" and not self._is_omega_star_like():
            raise InvalidSpec("descending arrivals only present omega_star")

    def _is_omega_like(self) -> bool:
        return self.family == "omega" or (self.family == "omega_k" and self.k == 1)

    def _is_omega_star_like(self) -> bool:
        return self.family == "omega_star" or (
            self.family == "omega_star_k" and self.k == 1
        )

    @property
    def signature(self) -> Signature:
        return (
            Signature.LINEAR_ORDER
            if self.family in ORDER_FAMILIES
            else Signature.EQUIVALENCE
        )

    def check_k(self) -> "CanonicalSpec":
        """This spec; InvalidSpec if it gives a k other than 1 to a family
        that would drop it (one not in PARAMETRIC_FAMILIES)."""
        if self.k != 1 and self.family not in PARAMETRIC_FAMILIES:
            raise InvalidSpec(f"family {self.family!r} takes no k, got {self.k}")
        return self

    def label(self) -> str:
        parts = [self.family]
        if self.family in PARAMETRIC_FAMILIES:
            parts.append(str(self.k))
        parts.append(self.policy)
        if self.policy == "permuted":
            parts.append(f"seed{self.seed}")
        return ":".join(parts)

    @staticmethod
    def parse(text: str, policy: str = "fair", seed: int = 0) -> "CanonicalSpec":
        """Parse ``family`` or ``family:k`` (e.g. ``omega_k:2``)."""
        parts = text.split(":")
        family = parts[0]
        k = 1
        if len(parts) == 2:
            if not is_natural(parts[1]):
                raise InvalidSpec(f"bad k in {text!r}")
            k = int(parts[1])
        elif len(parts) > 2:
            raise InvalidSpec(f"bad spec {text!r}")
        return CanonicalSpec(family, policy, k, seed).check_k()


class StructureStream:
    """Monotone sequence of finite diagrams given by per-stage fact deltas."""

    def __init__(self, signature: Signature, deltas: list, provenance: str):
        self.signature = signature
        self.deltas = deltas
        self.provenance = provenance

    def __len__(self) -> int:
        return len(self.deltas)

    def iter_stages(self) -> Iterator[FiniteDiagram]:
        """The stages as one FiniteDiagram, built empty and grown by each
        delta before it is yielded again, so a stage is valid until the
        next one is drawn; its delta attribute is the stage's facts new to
        the diagram (a stage read as a PlacementBatch is the batch)."""
        stage = FiniteDiagram(self.signature, set())
        for delta in self.deltas:
            stage.grow(delta)
            yield stage

    def stage(self, s: int) -> FiniteDiagram:
        """Stage s as a diagram built from its facts, which can be kept.
        When the deltas up to s are placement batches, each growing the
        chain of the one before (diagram.placed_chain), it is built from
        stage s's chain, and no batch is expanded into its facts."""
        if not 0 <= s < len(self.deltas):
            raise IndexError(f"stage {s} out of range")
        deltas = self.deltas[: s + 1]
        placed = placed_chain(deltas)
        if placed is not None:
            return total_order_diagram(placed)
        return diagram_from_facts(self.signature, chain.from_iterable(deltas))

    def final(self) -> FiniteDiagram:
        return self.stage(len(self.deltas) - 1)

    def to_text(self) -> str:
        """The stream file: each stage's facts, sorted, after its
        separator; a placement batch's lines are written in blocks
        (format_blocks), with one IdText for the stream."""
        text = IdText()
        lines = []
        for s, delta in enumerate(self.deltas):
            lines.append(f"-- stage {s}")
            if isinstance(delta, PlacementBatch):
                lines += format_blocks(delta, text, "\n")
            else:
                lines += format_facts(sorted(delta))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, provenance: str = "file") -> "StructureStream":
        """Parse a stream file.  A stage is kept as a PlacementBatch while
        its lines are what format_facts writes for a batch that places at
        least one element in the chain so far (diagram.parse_batch), as
        each stage to_text writes for a generated order is.  From the first
        stage that is not, stages are read as facts: an element gets an
        ``el`` fact at the start of the first stage that names it unless
        that stage or an earlier one declares it, since evaluators learn
        elements from ``el`` facts, and a fact that repeats one read
        before is dropped, so every delta holds only new facts.  Both
        readings give the same facts and errors, and an equivalence
        stream's deltas are fact lists."""
        deltas: list = []
        grown, ids = (), {}  # the chain so far and its id strings, while batches
        seen = None          # facts read so far, once a stage is read as facts
        rels: set = set()
        for lines in _stage_blocks(text):
            if seen is None:
                batch = parse_batch(lines, grown, ids)
                if batch is not None and batch.new:
                    deltas.append(batch)
                    grown = batch.chain
                    if len(grown) > 1:
                        rels.add("lt")
                    continue
                seen = set(chain.from_iterable(deltas))
            deltas.append(_stage_delta(lines, seen, rels))
        signature = file_signature(rels, "stream")
        if signature is Signature.EQUIVALENCE:
            deltas = [list(d) for d in deltas]
        return StructureStream(signature, deltas, provenance)


def _stage_blocks(text: str) -> Iterator[list]:
    """The fact lines of each stage of a stream file, in order.  A stage is
    yielded before the separator after it is checked, so a bad fact in it
    raises first."""
    block: list | None = None
    stages = 0
    for line in content_lines(text):
        if line.startswith("--"):
            if block is not None:
                yield block
                stages += 1
            parts = line.split()
            if len(parts) != 3 or parts[1] != "stage" or not is_natural(parts[2]):
                raise ParseError(f"bad stage separator {line!r}")
            if int(parts[2]) != stages:
                raise ParseError(f"stage blocks out of order at {line!r}")
            block = []
        elif block is None:
            raise ParseError("facts before first stage separator")
        else:
            block.append(line)
    if block is None:
        raise ParseError("stream file has no stages")
    yield block


def _stage_delta(lines: list, seen: set, rels: set) -> list:
    """One stage's facts without those read before, in this stage or an
    earlier one (``sim b a`` repeats ``sim a b``), led by an el fact for
    each element they name that no el fact read so far declares.  Adds
    the stage's facts, implicit el facts included, to seen and its
    relations to rels."""
    facts = list(dict.fromkeys(parse_facts(lines)))
    if not seen.isdisjoint(facts):
        facts = [f for f in facts if f not in seen]
    seen.update(facts)
    tokens = set(chain.from_iterable(facts))  # relations and element ids
    rels.update(tokens & RELATIONS)
    missing = {x for x in tokens - RELATIONS if ("el", x) not in seen}
    if not missing:
        return facts
    implicit = [el(x) for x in dict.fromkeys(
        x for f in facts for x in f[1:] if x in missing)]
    seen.update(implicit)
    return implicit + facts


def _eta_values(count: int) -> list:
    """Dyadics in (0,1): rotate fill / fresh-maximum / fresh-minimum phases.

    The fill phase walks all dyadics breadth-first so the limit is dense;
    the extremum phases guarantee new minima and maxima every three slots,
    which keeps endpoint churn observable in bounded windows.
    """
    values: list = []
    emitted: set = set()
    fill_level, fill_pos = 1, 0
    lo = hi = None

    def next_fill() -> Fraction:
        nonlocal fill_level, fill_pos
        while True:
            v = Fraction(2 * fill_pos + 1, 1 << fill_level)
            fill_pos += 1
            if fill_pos >= 1 << (fill_level - 1):
                fill_level += 1
                fill_pos = 0
            if v not in emitted:
                return v

    for i in range(count):
        if i == 0:
            v = next_fill()
        elif i % 3 == 1:
            v = (hi + 1) / 2
        elif i % 3 == 2:
            v = lo / 2
        else:
            v = next_fill()
        emitted.add(v)
        lo = v if lo is None else min(lo, v)
        hi = v if hi is None else max(hi, v)
        values.append(v)
    return values


def _order_slot_keys(spec: CanonicalSpec, count: int) -> list:
    f, k = spec.family, spec.k
    if f == "omega":
        return list(range(count))
    if f == "omega_star":
        return [-s for s in range(count)]
    if f == "omega_k":
        return [(s % k, s // k) for s in range(count)]
    if f == "omega_star_k":
        return [(s % k, -(s // k)) for s in range(count)]
    if f == "eta":
        return _eta_values(count)
    if f == "one_plus_eta":
        return [Fraction(-1)] + _eta_values(count - 1)
    if f == "eta_plus_one":
        return [Fraction(2)] + _eta_values(count - 1)
    raise InvalidSpec(f"not an order family: {f}")


def _equiv_slot_classes(spec: CanonicalSpec, stages: int) -> list:
    """Per-stage lists of class keys; one or two new elements per stage.

    Infinite classes spawn at stages 2^j - 2 and otherwise grow round-robin
    (oldest last growth first), so every class grows with bounded gaps at
    desk scale while the class count is unbounded in the limit.
    """
    f, k = spec.family, spec.k
    per_stage: list = []
    growth: dict = {}
    spawned = 0
    for s in range(stages):
        slots = []
        if f == "e_k" and s < k:
            slots.append(("fin", 0))
        if f == "e_hat_k":
            slots.append(("fin", s // k))
        if (s + 2) & (s + 1) == 0:  # s = 2^j - 2: spawn a fresh infinite class
            key = ("inf", spawned)
            spawned += 1
        else:
            key = min(growth, key=lambda c: (growth[c], c[1]))
        growth[key] = s
        slots.append(key)
        per_stage.append(slots)
    return per_stage


def generate(spec: CanonicalSpec, stages: int) -> StructureStream:
    """Deterministic stream for a canonical structure; ≥ 1 new element/stage.
    An order stream's stages are PlacementBatches, each placing one
    arrival; an equivalence stream's are fact lists."""
    if stages < 1:
        raise InvalidSpec("stages must be >= 1")
    if spec.signature is Signature.LINEAR_ORDER:
        keys = _order_slot_keys(spec, stages)
        per_stage_counts = [1] * stages
        slots = keys
    else:
        per_stage = _equiv_slot_classes(spec, stages)
        per_stage_counts = [len(xs) for xs in per_stage]
        slots = [c for xs in per_stage for c in xs]

    if spec.policy == "permuted":
        prefix = min(PERMUTED_PREFIX, len(slots))
        slots = lcg_shuffle(slots[:prefix], spec.seed) + slots[prefix:]

    deltas: list = []
    if spec.signature is Signature.LINEAR_ORDER:
        placed_keys: list = []  # slot keys of the arrivals, sorted
        placed: list = []       # arrival ids in the same order
        for i, key in enumerate(slots):
            rank = bisect_left(placed_keys, key)
            placed_keys.insert(rank, key)
            placed.insert(rank, i)
            deltas.append(PlacementBatch((i,), tuple(placed)))
    else:
        members: dict = {}
        next_id = 0
        for count in per_stage_counts:
            delta = []
            for _ in range(count):
                cls = slots[next_id]
                delta.append(el(next_id))
                for j in members.get(cls, ()):
                    a, b = min(j, next_id), max(j, next_id)
                    delta.append(("sim", a, b))
                members.setdefault(cls, []).append(next_id)
                next_id += 1
            deltas.append(delta)

    return StructureStream(spec.signature, deltas, spec.label())


def restrict(stream: StructureStream, keep: Iterable[int]) -> StructureStream:
    """Stage-wise restriction to the given element ids."""
    kept = frozenset(keep)
    deltas = [
        [f for f in delta if all(x in kept for x in f[1:])]
        for delta in stream.deltas
    ]
    return StructureStream(
        stream.signature, deltas, f"restrict({stream.provenance})"
    )

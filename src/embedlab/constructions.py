"""The concrete operators and stage constructions between order and
equivalence structures.

ord2eq sends a total order to an equivalence structure: the current
minimum's class is held at size one, the current maximum's at size two,
and every strictly interior element's class grows with the budget.

eq2ord sends an equivalence structure to the order of its admissible
increasing tuples under the extension-first comparison: a proper extension
precedes its prefix, otherwise the first differing coordinate decides.
v1 admits tuples whose non-final entries have class size >= 2; v2 requires
>= 3 interior and >= 2 final and ships reversed.

class_multiplier emits budget-many tagged copies of every input class.

formula2eq turns a two-quantifier sentence into an equivalence structure:
one seeded class per (element, disjunct), inflated once a refuting literal
instantiation is enumerated, with a growing number of copies of each class.

phi_pair is the guess-driven stage construction that turns presentations
of omega / omega-star into copies of a target pair; phi_sigma2 places one
element per stage at the top or bottom according to the current witness
comparison between two sentences.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import inf, isqrt

from .diagram import (
    ClassBatch,
    InvalidInput,
    InvalidSpec,
    PlacementBatch,
    Signature,
    arrivals,
    el,
    new_elements,
    sim,
)
from .kernel import EnumerationOperator, StreamEvaluator, TuringConstruction
from .pairing import encode_tuple, pair, tag
from .combinators import CopyTags, DisjointUnion, Reverse
from .sigma2 import (
    Sigma2Sentence,
    WitnessTracker,
    placement_refuting_values,
    refuting_witness_values,
)
from .streams import StructureStream


# ---------------------------------------------------------------------------
# Absolute tuple enumeration shared by the eq2ord operators.

_TUPLE_CACHE: list = []
_TUPLE_SEEN: set = set()


def _weight_ordered():
    """Strictly increasing tuples by (sum+length, lex)."""
    w = 1
    while True:
        def gen(lo, rem):
            if rem == 0:
                yield ()
            for a in range(lo, rem):
                for rest in gen(a + 1, rem - a - 1):
                    yield (a,) + rest

        for t in sorted(t for t in gen(0, w) if t):
            yield t
        w += 1


def _chains_from_step(start: int, step: int):
    i = 1
    while True:
        yield tuple(range(start, start + i * step, step))
        i += 1


_TUPLE_SOURCES = [
    _weight_ordered(),
    _chains_from_step(0, 1),
    _chains_from_step(1, 1),
    _chains_from_step(1, 2),
]
_TUPLE_LOCK = threading.Lock()


def absolute_tuple(index: int) -> tuple:
    """Fixed enumeration of all strictly increasing tuples of naturals.

    Interleaves a weight-ordered enumeration (which covers everything)
    with three chain families -- 0,1,..,i and 1,2,..,i and 1,3,..,2i-1 --
    skipping duplicates, so ever-deeper extension tuples keep appearing
    within a bounded number of slots of each other.
    """
    if index < len(_TUPLE_CACHE):
        return _TUPLE_CACHE[index]
    with _TUPLE_LOCK:
        while len(_TUPLE_CACHE) <= index:
            source = _TUPLE_SOURCES[len(_TUPLE_CACHE) % len(_TUPLE_SOURCES)]
            t = next(source)
            while t in _TUPLE_SEEN:
                t = next(source)
            _TUPLE_SEEN.add(t)
            _TUPLE_CACHE.append(t)
    return _TUPLE_CACHE[index]


def precedence_key(t: tuple) -> tuple:
    """Sort key of tuple_precedes.  A proper extension of u has a natural
    where u + (inf,) has inf, so it sorts before u."""
    return t + (inf,)


def tuple_precedes(t: tuple, u: tuple) -> bool:
    """t before u: proper extensions first, else first difference decides."""
    return precedence_key(t) < precedence_key(u)


# ---------------------------------------------------------------------------
# ord2eq (total orders to equivalence structures)


class Ord2Eq(EnumerationOperator):
    input_signature = Signature.LINEAR_ORDER
    output_signature = Signature.EQUIVALENCE
    name = "ord2eq"

    def make_stream_evaluator(self):
        return _Ord2EqStream()


class _Ord2EqStream(StreamEvaluator):
    """Element a's class is its root tag(a, 0) and its rings tag(a, j),
    j >= 1, each joined to the root.  tag is increasing in a and in j, so
    taking the elements in ascending order gives a sorted ClassBatch."""

    def __init__(self):
        self.chain: list = []
        self.rings: dict = {}  # element -> highest emitted ring
        self.roots: dict = {}  # element -> its class root, tag(element, 0)

    def step(self, diagram, delta, budget):
        for x in new_elements(delta):
            diagram.insert(self.chain, x)
        if budget < 1 or not self.chain:
            return ClassBatch([], [], []), self._notes(budget)
        els, heads, members = [], [], []
        least, greatest = self.chain[0], self.chain[-1]
        for a in sorted(self.chain):
            # Ring 0 is the class root; the minimum keeps size one, the
            # maximum size two, interior classes grow to budget + 2.
            want = 0 if a == least else 1 if a == greatest else budget + 1
            have = self.rings.get(a, -1)
            if have >= want:
                continue
            if have < 0:
                root = self.roots[a] = tag(a, 0)
                els.append(root)
            else:
                root = self.roots[a]
            for j in range(max(have, 0) + 1, want + 1):
                heads.append(root)
                members.append(tag(a, j))
            self.rings[a] = want
        return ClassBatch(els, heads, members), self._notes(budget)

    def _notes(self, budget):
        if budget < 1 or not self.chain:
            return {"pinned_size1": None, "pinned_size2": None}
        return {
            "pinned_size1": self.roots[self.chain[0]],
            "pinned_size2": self.roots[self.chain[-1]] if len(self.chain) >= 2 else None,
        }


def ord2eq() -> Ord2Eq:
    return Ord2Eq()


# ---------------------------------------------------------------------------
# eq2ord (equivalence structures to tuple orders)


class Eq2Ord(EnumerationOperator):
    input_signature = Signature.EQUIVALENCE
    output_signature = Signature.LINEAR_ORDER

    def __init__(self, interior_min: int, last_min: int, name: str):
        self.interior_min = interior_min
        self.last_min = last_min
        self.name = name

    def _admissible(self, t: tuple, sizes: dict) -> bool:
        if any(x not in sizes for x in t):
            return False
        if any(sizes[x] < self.interior_min for x in t[:-1]):
            return False
        return sizes[t[-1]] >= self.last_min

    def make_stream_evaluator(self):
        return _Eq2OrdStream(self)


class _Eq2OrdStream(StreamEvaluator):
    def __init__(self, op: Eq2Ord):
        self.op = op
        self.keys: list = []   # precedence keys of the admitted tuples, sorted
        self.chain: list = []  # their encoded ids in the same order
        self.sizes: dict = {}
        self.scanned = 0  # tuple indices already checked against self.sizes

    def step(self, diagram, delta, budget):
        if delta:
            # A grown class can admit a tuple that was skipped before.
            self.sizes = {x: len(c) for c in diagram.sim_classes() for x in c}
            self.scanned = 0
        sizes = self.sizes
        keys = self.keys
        new = []
        for i in range(self.scanned, budget):
            t = absolute_tuple(i)
            key = precedence_key(t)
            rank = bisect_left(keys, key)
            if rank < len(keys) and keys[rank] == key:
                continue  # admitted before
            if not self.op._admissible(t, sizes):
                continue
            keys.insert(rank, key)
            e = encode_tuple(t)
            self.chain.insert(rank, e)
            new.append(e)
        self.scanned = max(self.scanned, budget)
        return PlacementBatch(new, tuple(self.chain)), None


def eq2ord_v1() -> Eq2Ord:
    return Eq2Ord(2, 1, "eq2ord_v1")


def eq2ord_v2() -> Reverse:
    op = Reverse(Eq2Ord(3, 2, "eq2ord_v2_raw"))
    op.name = "eq2ord_v2"
    return op


# ---------------------------------------------------------------------------
# class_multiplier


class ClassMultiplier(EnumerationOperator):
    """budget-many tagged isomorphic copies of every input class."""

    input_signature = Signature.EQUIVALENCE
    output_signature = Signature.EQUIVALENCE
    name = "class_multiplier"

    def make_stream_evaluator(self):
        return _CopyTracker()


def class_multiplier() -> ClassMultiplier:
    return ClassMultiplier()


# ---------------------------------------------------------------------------
# formula2eq


def _member_id(element: int, disjunct: int, k: int) -> int:
    return pair(element, pair(disjunct, k))


class Formula2Eq(EnumerationOperator):
    """Sentence-driven order-to-equivalence operator with copy growth.

    Every (input element, disjunct) pair seeds a class of `seed_size`
    members; the class grows without bound once the input enumerates a
    refutation of one of the disjunct's literals at that element.
    isqrt(budget)+1 tagged copies of everything are emitted, so surviving
    seeds are replicated without bound in the limit.

    Refutations are read from each step's delta alone, never from the
    stage diagram: a fact refutes the same pairs whenever it is read, so
    the pairs it refutes for an element whose el fact has not arrived yet
    are kept until that element arrives.  A placement batch's refuted
    elements are read from the chain positions of its new elements
    (sigma2.placement_refuting_values), without building its facts.  Each
    copy tags each element once (CopyTags).
    """

    output_signature = Signature.EQUIVALENCE

    def __init__(self, sentence: Sigma2Sentence, seed_size: int = 1):
        if any(d.exists_arity != 1 for d in sentence.disjuncts):
            raise InvalidSpec("formula2eq requires existential arity 1")
        if seed_size not in (1, 2):
            raise InvalidSpec("seed_size must be 1 or 2")
        self.sentence = sentence
        self.seed_size = seed_size
        self.input_signature = sentence.signature
        self.name = f"formula2eq:{sentence.name}:{seed_size}"

    def make_stream_evaluator(self):
        return _Formula2EqStream(self)


class _CopyTracker(StreamEvaluator):
    """Replicates a growing fact list into a growing number of tagged copies.

    As class_multiplier's evaluator it keeps one copy per budget step.
    """

    def __init__(self):
        self.copies: list = []  # one CopyTags per copy
        self.seen: list = []

    def advance(self, new_facts, copies: int) -> list:
        out = []
        if new_facts:
            for tags in self.copies:
                out += tags.facts(new_facts)
        self.seen.extend(new_facts)
        while len(self.copies) < copies:
            tags = CopyTags(len(self.copies))
            out += tags.facts(self.seen)
            self.copies.append(tags)
        return out

    def step(self, diagram, delta, budget):
        return self.advance(delta, budget), None


class _Formula2EqStream(StreamEvaluator):
    def __init__(self, op: Formula2Eq):
        self.op = op
        self.refuted: set = set()  # refuted (c, i) pairs of arrived elements
        self.early: set = set()    # refuted (c, i) pairs still to arrive
        self.members: dict = {}  # (c, i) -> member count emitted
        self.copier = _CopyTracker()
        self.pending: list = []  # nothing is emitted before budget 1

    def _seed(self, c: int) -> None:
        """Element c's seeded classes, one per disjunct; a refutation read
        before c arrived makes its class refuted now."""
        op = self.op
        for i in range(len(op.sentence.disjuncts)):
            root = _member_id(c, i, 0)
            self.pending.append(el(root))
            if op.seed_size == 2:
                self.pending.append(sim(root, _member_id(c, i, 1)))
            self.members[(c, i)] = op.seed_size
            if (c, i) in self.early:
                self.early.remove((c, i))
                self.refuted.add((c, i))

    def step(self, diagram, delta, budget):
        op = self.op
        disjuncts = op.sentence.disjuncts
        base_new = self.pending
        members, refuted, early = self.members, self.refuted, self.early

        if isinstance(delta, PlacementBatch):
            for c in new_elements(delta):
                self._seed(c)
            if delta.new:
                chain, (lo, hi) = delta.chain, delta.span()
                for i, d in enumerate(disjuncts):
                    for m in d.matrices:
                        for c in placement_refuting_values(m.literal, chain, lo, hi):
                            (refuted if (c, i) in members else early).add((c, i))
        else:
            for f in delta:
                if f[0] == "el":
                    self._seed(f[1])
                    continue
                for i, d in enumerate(disjuncts):
                    for m in d.matrices:
                        for c in refuting_witness_values(m.literal, f):
                            (refuted if (c, i) in members else early).add((c, i))

        if budget < 1:
            return [], None
        # Refuted classes grow one member per two budget steps.
        want = max(op.seed_size, budget // 2 + 2)
        for (c, i) in refuted:
            have = members[(c, i)]
            if have < want:
                root = _member_id(c, i, 0)
                base_new += (sim(root, _member_id(c, i, k)) for k in range(have, want))
                members[(c, i)] = want
        self.pending = []
        return self.copier.advance(base_new, isqrt(budget) + 1), None


def formula2eq(sentence: Sigma2Sentence, seed_size: int = 1) -> Formula2Eq:
    return Formula2Eq(sentence, seed_size)


def pair_formula2eq(phi: Sigma2Sentence, psi: Sigma2Sentence) -> DisjointUnion:
    op = DisjointUnion(Formula2Eq(phi, 1), Formula2Eq(psi, 2))
    op.name = f"pair_formula2eq:{phi.name}:{psi.name}"
    return op


# ---------------------------------------------------------------------------
# phi_pair (Turing construction toward a pair of targets)


@dataclass
class StagePair:
    """Stage presentations of the two targets; stage s has domain 0..s.

    Finite stages of equal size embed into each other by the unique
    order isomorphism, so the stage functions are the identity.  The
    targets are read once, in full, when the first run of the pair needs
    them, and every run of the pair indexes what was read (entry_ranks).
    """

    a: StructureStream
    b: StructureStream

    def __post_init__(self):
        if (self.a.signature is not Signature.LINEAR_ORDER
                or self.b.signature is not Signature.LINEAR_ORDER):
            raise InvalidSpec("phi_pair targets must be linear order streams")

    @cached_property
    def entry_ranks(self) -> dict:
        """Each target's entry ranks by the name phi_pair builds it under,
        "A" or "B": for each stage s, the rank at which element s entered
        the target's chain, each target replayed once (_entry_ranks)."""
        return {"A": _entry_ranks(self.a), "B": _entry_ranks(self.b)}


def _entry_ranks(stream: StructureStream) -> list:
    """A target's entry ranks, read through one arrivals call: from its
    chains when its stages are placement batches that grow one another, as
    a generated target's are, else from the order of all its facts.  Every
    stage s must add element s and no other."""
    grown = arrivals(stream.deltas)
    ranks = [chain.index(s) for s, new, chain in grown if new == [s]]
    if len(ranks) < len(stream):
        raise InvalidInput("target stages must add element s at stage s")
    return ranks


class PhiPair(TuringConstruction):
    """Build a copy of target A on omega inputs and of B on omega-star.

    The guess carries which target is being copied, the target stage index,
    and the current input extremes.  While copying A, a drop of the running
    minimum switches to B; while copying B, a rise of the running maximum
    switches back.  A switch reinterprets the output built so far (equal
    sized finite chains are isomorphic) and does not grow it.
    """

    name = "phi_pair"

    def __init__(self, targets: StagePair):
        self.targets = targets
        self.building = "A"
        self.t = self.l = self.r = None
        self.chain: list = []  # output elements in output order, ids from 0 up

    def make_stream_evaluator(self):
        return PhiPair(self.targets)

    def _entry_rank(self) -> int:
        """Rank at which element t entered the target being built."""
        ranks = self.targets.entry_ranks[self.building]
        if self.t >= len(ranks):
            raise InvalidInput("target stream is shorter than the run")
        return ranks[self.t]

    def step(self, diagram, delta, budget):
        new = new_elements(delta)
        if len(new) != 1:
            raise InvalidInput("phi_pair needs one new element per stage")
        d = new[0]
        chain = self.chain
        placed = []
        switched = False
        insert_rank = None

        if self.t is None:
            self.t, self.l, self.r = 0, d, d
            self._entry_rank()  # a bad or empty target raises before any output
            chain.append(0)
            placed.append(0)
        else:
            new_l = d if diagram.below(d, self.l) else self.l
            new_r = d if diagram.below(self.r, d) else self.r
            if self.building == "A" and new_l != self.l:
                self.building = "B"
                switched = True
            elif self.building == "B" and new_r != self.r:
                self.building = "A"
                switched = True
            else:
                self.t += 1
                insert_rank = self._entry_rank()
                placed.append(len(chain))
                chain.insert(insert_rank, len(chain))
            self.l, self.r = new_l, new_r

        notes = {
            "building": self.building,
            "t": self.t,
            "l": self.l,
            "r": self.r,
            "switched": switched,
            "insert_rank": insert_rank,
        }
        return PlacementBatch(placed, tuple(chain)), notes


def phi_pair(targets: StagePair) -> PhiPair:
    return PhiPair(targets)


# ---------------------------------------------------------------------------
# phi_sigma2 (witness-comparison construction)


class PhiSigma2(TuringConstruction):
    """Place one element per stage at the top or bottom of the output.

    Copy upward while the phi witnesses win, downward while the psi
    witnesses win; with both present the Goedel-least witness decides.
    """

    name = "phi_sigma2"

    def __init__(self, phi: Sigma2Sentence, psi: Sigma2Sentence):
        self.phi = phi
        self.psi = psi
        self.input_signature = phi.signature
        self.trackers = (WitnessTracker(phi), WitnessTracker(psi))
        self.chain: list = []

    def make_stream_evaluator(self):
        return PhiSigma2(self.phi, self.psi)

    def step(self, diagram, delta, budget):
        new = new_elements(delta)
        phi, psi = self.trackers
        phi.update(diagram, new)
        psi.update(diagram, new)
        chain = self.chain
        e = len(chain)
        least_phi = phi.least()
        least_psi = psi.least()

        placement = case = None
        if chain:
            if least_phi is None and least_psi is None:
                case, top = 1, True
            elif least_phi is not None and least_psi is None:
                case, top = 2, True
            elif least_phi is None:
                case, top = 3, False
            else:
                case = 4
                top = (len(least_phi), least_phi) < (len(least_psi), least_psi)
            placement = "top" if top else "bottom"
        chain.insert(len(chain) if placement == "top" else 0, e)

        notes = {
            "case": case,
            "placement": placement,
            "phi_least": list(least_phi) if least_phi else None,
            "psi_least": list(least_psi) if least_psi else None,
            "phi_count": phi.count(),
            "psi_count": psi.count(),
        }
        return PlacementBatch((e,), tuple(chain)), notes


def phi_sigma2(phi: Sigma2Sentence, psi: Sigma2Sentence) -> PhiSigma2:
    return PhiSigma2(phi, psi)

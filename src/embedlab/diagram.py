"""Finite atomic diagrams over two signatures: linear orders and equivalences.

A diagram is a finite set of positive facts over natural-number elements.
Facts are plain tuples, one of::

    ("el", a)        element a exists
    ("lt", a, b)     a strictly below b        (LINEAR_ORDER only)
    ("sim", a, b)    a equivalent to b, a < b  (EQUIVALENCE only)

sim facts are stored unordered (normalized to a < b); the class partition
is their reflexive-symmetric-transitive closure.  The order is the
transitive closure of the lt facts, which must be acyclic.  Neither set
needs to be closed: covering pairs present the same order as all pairs.
Code that reads an order or a partition asks for it (chain, below,
insert, holds, sim_classes) rather than reading the stored facts.
FiniteDiagram holds the one copy of those rules.

Every diagram is built empty and grown in place by deltas (grow).  A run
reads its stages from one FiniteDiagram grown by each delta, so drawing a
stage costs what is new at it and a stage is valid for one step only;
diagram_from_facts grows an empty diagram once.  One rule (_grows)
decides what a diagram keeps: an order grown by placement batches alone,
each growing the chain before it, keeps their chain and stores no fact,
and its readers (chain, below, is_total) run no Kahn pass; any other
diagram keeps a fact set.  A total order built in code
(total_order_diagram), an operator's order output and a stream file's
stages read as placements are such chains.  An evaluator gets a chain as
one batch (as_delta), and one that needs only a stage's new elements
takes them from the batch (new_elements), or their ranks in its chain
(PlacementBatch.span), as formula2eq does to read the elements a batch
refutes as a slice of its chain.

A diagram from outside the program arrives only as text, and is checked
once, where parse_diagram reads it: each line's relation, arity and
ASCII-natural ids and ``lt a a`` (parse_facts), a file's mix of lt and
sim (file_signature), and lt cycles.  Diagrams built in code are trusted:
diagram_from_facts grows one by its facts with no check.

Code that writes an order keeps it as a chain, a list of elements in
increasing order, and inserts each new element at its rank.  The facts
that present a grown chain are decided here alone: a PlacementBatch (the
elements new at one step and the chain after it) yields ``el x`` for each
new element and one lt fact for every pair with a new element at either
end, so a run log stores every pair while the operators that write it
never build a pair.  A generated order stream's stages are such batches
too, each placing one element.

An order given by deltas that are all known in advance (a run log's
records, a phi_pair target's stages) is replayed one way, arrivals(),
which the classifier and phi_pair's targets use; insert is left to
evaluators placing a stage's new input elements.  arrivals grows one
diagram by all the deltas, so the rule grow uses decides how it reads
them: deltas that are all placement batches, each growing the chain
before it, are read from their chains, and any others from the order of
all their facts, read once.

One layout (_layout) orders a batch's record for both its facts and its
text, and is computed once each time a record is expanded, written or
checked.  The text is rendered in blocks (format_blocks):
the el lines, then one block per element that opens lt lines, which for
an old element is its suffix's template with the element's id put in.
A batch that places one element e, as each stage of an order stream,
generated or read, and each record of phi_sigma2, phi_pair and
replicate:1 does, is rendered with no layout: ``el e``, then ``lt y e``
for the old elements y below e with ids below e's, then e's own block,
``lt e z`` for the elements z above it, then ``lt y e`` for the rest of
the elements below e, each of the three one join over a sorted slice of
the chain.
The same renderer writes a record (RunLog.to_jsonl) and checks one on
read a few blocks at a time.  parse_batch is the one reader of such
lines, a run log's records and a stream file's stages alike: it places
each new element by the length of its block of lt lines, found by
bisection, and accepts the record only if it renders back to its lines.
So order logs and order stream files cross the file boundary as
placements at about the cost of their bytes.

ord2eq, whose output is a star (each new member joined to an element
already named), returns a ClassBatch: the step's el ids and its sim facts
as parallel head and member lists, in record order, rendered as two
blocks.  parse_class_batch reads an equivalence log's record back as a
ClassBatch when its lines are el lines and then sim lines, each id ASCII
digits one space from the token before it, as one regular expression
over the whole record checks; its ids are then read without a fact
built.  Any other record is left to the fact parser.  A census replays
records through _UnionFind.replay, which reads a ClassBatch's lists as
they are, keeps each class's size at its root and walks one path per
sim fact.

Every number in an input is a natural in ASCII digits (is_natural).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right, insort
from itertools import chain, combinations, compress, count, islice, repeat
from operator import gt
from typing import Iterable, Iterator

Fact = tuple  # ("el", a) | ("lt", a, b) | ("sim", a, b)


class EmbedlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EmbedlabError):
    pass


class InconsistentDiagram(EmbedlabError):
    pass


class InvalidSpec(EmbedlabError):
    pass


class SignatureError(EmbedlabError):
    pass


class InvalidInput(EmbedlabError):
    pass


class InvalidSchedule(EmbedlabError):
    pass


class NotInOutput(EmbedlabError):
    pass


class Signature(enum.Enum):
    LINEAR_ORDER = "linear_order"
    EQUIVALENCE = "equivalence"


def is_natural(token: str) -> bool:
    """True iff token is a natural written in ASCII digits, the one form
    of a number in every input: element ids, stage numbers, and the
    numbers in operator, schedule and sentence texts.  int() alone would
    also take signs, underscores and other scripts' digits."""
    return token.isascii() and token.isdigit()


def el(a: int) -> Fact:
    return ("el", a)


def sim(a: int, b: int) -> Fact:
    return ("sim", a, b) if a <= b else ("sim", b, a)


_REL_OF_SIGNATURE = {
    Signature.LINEAR_ORDER: "lt",
    Signature.EQUIVALENCE: "sim",
}


class FiniteDiagram:
    """A finite set of facts and its element domain, the elements the
    facts name.

    Built empty, FiniteDiagram(signature), and grown in place by each
    delta (grow), so a run's input is valid for one step only; a diagram
    of known facts is one grown once (diagram_from_facts).  Nothing is
    rebuilt at a growth.  A linear order grown by placement batches alone
    keeps their chain, which its order readers read, and stores no fact.
    Any other delta is added to one fact set, the batches so far expanded
    into it first, and the cached order is reset; a frozenset that is the
    first facts, as diagram_from_facts gives, is that set until the
    diagram grows again, so it is not copied.  The frozen facts and the
    domain are computed when read, and the partition is a _UnionFind
    joined by the deltas since it was last read.

    Two diagrams are equal when their signatures, facts and domains are.
    A diagram can grow, so it is not hashable."""

    __slots__ = ("signature", "delta", "_stored", "_deltas", "_facts", "_domain",
                 "_chain", "_order", "_ranks", "_partition", "_joined")

    def __init__(self, signature: Signature):
        self.signature = signature
        self.delta: list = []           # the facts new at the latest growth
        self._stored: set = set()       # every fact so far, unless _chain holds them
        self._deltas: list = []
        self._facts = self._domain = None
        # The chain of an order while every delta so far was a placement
        # batch that grew it; else None.
        self._chain = () if signature is Signature.LINEAR_ORDER else None
        self._order = self._ranks = self._partition = None
        self._joined = 0                # the deltas _partition has joined

    def grow(self, delta) -> None:
        """Add a delta (a sized collection of facts), keeping as self.delta
        its facts new to the diagram: the delta itself unless one of its
        facts was seen before, which a length check finds.

        A PlacementBatch that grows the chain of an order grown by batches
        alone (_grows) replaces that chain, and its facts are not built.
        Any other delta first expands the batches so far into the fact
        set."""
        if self._chain is not None:
            if isinstance(delta, PlacementBatch) and _grows(self._chain, delta):
                self._chain = delta.chain
                self._deltas.append(delta)
                self.delta = delta
                self._facts = self._domain = self._ranks = None
                return
            self._stored.update(chain.from_iterable(self._deltas))
            self._chain = None
        stored = self._stored
        if not stored and type(delta) is frozenset:
            self._stored = delta  # held as it is until the diagram grows again
        else:
            if type(stored) is frozenset:
                stored = self._stored = set(stored)
            size = len(stored)
            stored.update(delta)
            if len(stored) - size != len(delta):
                old = set(chain.from_iterable(self._deltas))
                delta = [f for f in dict.fromkeys(delta) if f not in old]
        self._deltas.append(delta)
        self.delta = delta
        self._facts = self._domain = self._order = self._ranks = None

    @property
    def facts(self) -> frozenset:
        if self._facts is None:
            c = self._chain
            if c is None:
                self._facts = frozenset(self._stored)
            else:  # every pair of the chain, then its el facts
                facts = [("lt", x, y) for j, y in enumerate(c) for x in c[:j]]
                facts += zip(_EL, c)
                self._facts = frozenset(facts)
        return self._facts

    @property
    def domain(self) -> frozenset:
        if self._domain is None:
            if self._chain is not None:
                self._domain = frozenset(self._chain)
            else:
                self._domain = frozenset(chain.from_iterable(self._stored)) - RELATIONS
        return self._domain

    def as_delta(self):
        """All of the diagram as one delta, sorted, with an el fact for
        every element (diagram files may leave them implicit): the batch
        placing the whole chain of an order that keeps one, so its facts
        are built only if read, and else a list."""
        if self._chain is not None:
            return PlacementBatch(self._chain, self._chain)
        return sorted(self._stored.union(zip(_EL, self.domain)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDiagram):
            return NotImplemented
        return (self.signature is other.signature and self.facts == other.facts
                and self.domain == other.domain)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"FiniteDiagram({self.signature}, facts={set(self.facts)!r}, "
                f"domain={set(self.domain)!r})")

    def _topo(self) -> tuple:
        """Kahn's pass over the lt facts, once until the diagram grows: the
        elements in a topological order, and whether every step had a
        single ready element.  The order is shorter than the domain when
        the facts contain a cycle.  Iterative, so chains of any length
        pass."""
        if self._order is not None:
            return self._order
        succ: dict = {x: [] for x in self.domain}
        for f in self._stored:
            if f[0] == "lt":
                succ[f[1]].append(f[2])
        indeg = dict.fromkeys(succ, 0)
        for ys in succ.values():
            for y in ys:
                indeg[y] += 1
        ready = [x for x, d in indeg.items() if d == 0]
        order = []
        unique = True
        while ready:
            unique = unique and len(ready) == 1
            x = ready.pop()
            order.append(x)
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        self._order = order, unique
        return self._order

    def has_lt_cycle(self) -> bool:
        return len(self._topo()[0]) < len(self.domain)

    def chain(self) -> list:
        """Topologically sorted domain of a total linear order diagram."""
        if self.signature is not Signature.LINEAR_ORDER:
            raise SignatureError("chain() requires a linear order diagram")
        if self._chain is not None:
            return list(self._chain)
        order, unique = self._topo()
        if len(order) < len(self.domain):
            raise InconsistentDiagram("lt facts contain a cycle")
        if not unique:
            raise InvalidInput("diagram is not a total order")
        return list(order)

    def is_total(self) -> bool:
        """True iff lt (transitively) decides every distinct pair, that is,
        the topological order is unique: one ready element at every step."""
        if self.signature is not Signature.LINEAR_ORDER:
            return False
        if self._chain is not None:
            return True
        order, unique = self._topo()
        return unique and len(order) == len(self.domain)

    def below(self, a: int, b: int) -> bool:
        """a < b in a total order diagram.  Stored lt facts need not be
        transitively closed, so a pair without one is decided by chain()
        positions, which raise InvalidInput if the diagram is not total."""
        if self._chain is None:
            stored = self._stored
            if ("lt", a, b) in stored:
                return True
            if ("lt", b, a) in stored:
                return False
        if self._ranks is None:
            self._ranks = dict(zip(self.chain(), count()))
        return self._ranks[a] < self._ranks[b]

    def insert(self, chain: list, x: int) -> int:
        """Insert x into chain, a list of elements in increasing order, at
        its place in this diagram's order, found by binary search; returns
        that index."""
        below = self.below
        lo, hi = 0, len(chain)
        while lo < hi:
            mid = (lo + hi) // 2
            if below(chain[mid], x):
                lo = mid + 1
            else:
                hi = mid
        chain.insert(lo, x)
        return lo

    def holds(self, fact: Fact) -> bool:
        """Truth of an lt or sim fact over domain elements in the structure
        the diagram presents: lt is read through below() and sim through the
        class partition, so neither needs to be stored or closed."""
        rel, a, b = fact
        if a == b:
            return rel == "sim"
        if rel == "lt":
            return self.below(a, b)
        if sim(a, b) in self._stored:
            return True
        classes = self._classes()
        return classes.find(a) == classes.find(b)

    def sim_classes(self) -> list:
        """Partition of the domain by the closure of sim (sorted classes)."""
        return self._classes().classes()

    def _classes(self) -> "_UnionFind":
        """The partition, joined by the deltas since it was last read."""
        if self.signature is not Signature.EQUIVALENCE:
            raise SignatureError("sim_classes() requires an equivalence diagram")
        if self._partition is None:
            self._partition = _UnionFind()
        classes = self._partition
        for delta in self._deltas[self._joined:]:
            for x in set(chain.from_iterable(delta)) - RELATIONS:
                classes.add(x)
            for f in delta:
                if f[0] == "sim":
                    classes.union(f[1], f[2])
        self._joined = len(self._deltas)
        return classes


class _UnionFind:
    """Disjoint classes of naturals; each class's root is its least member,
    and size maps each root to its class's size.

    Finds halve the path they walk, and union does its two finds inline.
    """

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}

    def add(self, x: int) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> tuple:
        """Join the classes of a and b; returns (the root kept, the root
        absorbed), one root twice if they were one class already."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a > b:
            a, b = b, a
        if a != b:
            parent[b] = a
            self.size[a] += self.size.pop(b)
        return a, b

    def replay(self, facts, stage: int, grew: dict) -> None:
        """Apply one run-log record's facts (a list or a ClassBatch): add
        the elements they name and join the classes their sim facts relate.
        grew maps each root to the last stage its class grew, by an
        element's entry or a sim fact; stage is the record's, and a merge
        keeps the later of the two classes' stages.

        The elements the other facts name are added first, then the sim
        facts are joined; every change is at one stage, so the order
        within a record changes neither the classes nor grew.  A
        ClassBatch gives both as its own lists, read with no fact built;
        a list is split into the two once.  A sim fact walks its smaller
        end's path once.  When its larger end is new, it joins the class
        under that root with no second find: it is above the smaller end,
        so the root stays the least member.
        """
        parent, size = self.parent, self.size
        if isinstance(facts, ClassBatch):
            els, sims = facts.els, zip(_SIM, facts.heads, facts.members)
        else:
            els = [x for f in facts if f[0] != "sim" for x in f[1:]]
            sims = [f for f in facts if f[0] == "sim"]
        for x in els:
            if x not in parent:
                parent[x] = x
                size[x] = 1
                grew[x] = stage
        for _, a, b in sims:
            if a > b:
                a, b = b, a
            if a not in parent:
                parent[a] = a
                size[a] = 1
                grew[a] = stage
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if b not in parent:
                parent[b] = a
                size[a] += 1
                if grew[a] < stage:
                    grew[a] = stage
                continue
            kept, absorbed = self.union(a, b)
            later = grew.pop(absorbed) if kept != absorbed else stage
            grew[kept] = max(grew[kept], later, stage)

    def classes(self) -> list:
        """The classes, sorted, each sorted: its root comes first."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(groups[r]) for r in sorted(groups)]


def arrivals(deltas: Iterable) -> Iterator[tuple]:
    """Replay a linear order given by deltas all known in advance (a
    stream's stages, a run log's records): each delta that names new
    elements, as (its index, those elements ascending, the chain so far).
    One diagram is grown by all the deltas first.  When it kept their
    chain, each being a placement batch that grew the one before it,
    they are read from their chains.  Else they are read in the order of
    all their facts, its chain() read once before anything is yielded, so
    a cycle or an unordered pair raises first; the chain so far is then
    one list grown in place."""
    deltas = list(deltas)
    order = FiniteDiagram(Signature.LINEAR_ORDER)
    for delta in deltas:
        order.grow(delta)
    if order._chain is not None:
        for i, delta in enumerate(deltas):
            if delta.new:
                yield i, sorted(delta.new), delta.chain
        return
    rank = dict(zip(order.chain(), count())).__getitem__
    seen: set = set()
    grown: list = []
    for i, delta in enumerate(deltas):
        if new := set(chain.from_iterable(delta)) - RELATIONS - seen:
            seen |= new
            new = sorted(new)
            for x in new:
                insort(grown, x, key=rank)
            yield i, new, grown


_EL = repeat("el")
_LT = repeat("lt")


class PlacementBatch:
    """One step of an order writer: the elements it placed and its output
    chain after the step (a tuple in increasing order).

    Iterating yields the facts that present the grown order given the old
    one, sorted: ``el x`` for each new element x, then every lt pair with
    a new element at either end.  That is the step's run-log record; it is
    built each time the batch is iterated and never stored.  len() counts
    the facts without building them.  format_blocks writes the record's
    lines straight from the batch, and parse_batch reads such lines back
    into a batch.
    """

    __slots__ = ("new", "chain")

    def __init__(self, new, chain: tuple):
        self.new = new
        self.chain = chain

    def __len__(self) -> int:
        n, old = len(self.chain), len(self.chain) - len(self.new)
        return len(self.new) + (n * (n - 1) - old * (old - 1)) // 2

    def __iter__(self) -> Iterator[Fact]:
        if not self.new:
            return iter(())
        return iter(_sorted_facts(self.new, self.chain))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PlacementBatch, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"PlacementBatch(new={list(self.new)!r}, chain={list(self.chain)!r})"

    def reversed(self) -> "PlacementBatch":
        """The same elements placed in the reversed chain."""
        return PlacementBatch(self.new, self.chain[::-1])

    def span(self) -> tuple:
        """The lowest and highest ranks of the new elements in the chain,
        found without building the facts; the batch must place one."""
        hit, chain = set(self.new).__contains__, self.chain
        top = next(compress(count(), map(hit, reversed(chain))))
        return next(compress(count(), map(hit, chain))), len(chain) - 1 - top


def _grows(chain, batch: PlacementBatch) -> bool:
    """True iff batch's chain is chain with batch's new elements, none of
    them in chain, inserted once each.  That the new elements are
    distinct, that the chain grew by as many and that each is in it is
    checked by length, so each is in it once."""
    new = set(batch.new)
    return (len(new) == len(batch.new) == len(batch.chain) - len(chain)
            == len(new.intersection(batch.chain))
            and [x for x in batch.chain if x not in new] == list(chain))


def new_elements(delta) -> list:
    """The elements a delta's el facts declare, in the delta's order; a
    PlacementBatch's new elements ascending, read without building its
    facts (span gives their lowest and highest ranks in its chain)."""
    if isinstance(delta, PlacementBatch):
        return sorted(delta.new)
    return [f[1] for f in delta if f[0] == "el"]


def _layout(new, chain) -> tuple:
    """A batch's record order, shared by its facts and its text lines:
    (news, ids, index, suffixes, tops).

    news is the new elements ascending.  ids is the elements that open an
    lt block, ascending: those of the chain up to its last new element
    that have an element above them.  Each x in ids is below every element
    of one ascending list, found by index[x].  An old x pairs with the new
    elements above it, a suffix of the new elements in chain order, so
    the old elements between two new ones share one list, suffixes[k] for
    k = index[x] >= 0.  A new x pairs with everything above it, tops[~k]
    for k < 0.

    The chain is walked once, up to its last new element.  The tops are
    built from the top down, each as the one above it plus a short run,
    which sorted() merges in about linear time."""
    news = sorted(new)
    ranks = list(islice(compress(count(), map(set(news).__contains__, chain)),
                        len(news)))
    index, suffixes, tops = {}, [], []
    above, hi = [], len(chain)
    for j in reversed(range(len(ranks))):
        r = ranks[j]
        above = sorted([*above, *chain[r + 1:hi]])
        hi = r + 1
        if above:
            index[chain[r]] = ~len(tops)
            tops.append(above)
        lo = ranks[j - 1] + 1 if j else 0
        if lo < r:  # old elements between new elements j - 1 and j
            index.update(zip(chain[lo:r], repeat(len(suffixes))))
            suffixes.append(sorted(map(chain.__getitem__, ranks[j:])))
    return news, sorted(index), index, suffixes, tops


def _sorted_facts(new, chain) -> list:
    """A batch's facts, sorted."""
    news, ids, index, suffixes, tops = _layout(new, chain)
    facts = list(zip(_EL, news))
    for x in ids:
        k = index[x]
        facts += zip(_LT, repeat(x), suffixes[k] if k >= 0 else tops[~k])
    return facts


_SIM = repeat("sim")


class ClassBatch:
    """One record of an equivalence log: the elements its ``el`` facts
    name (els), and its ``sim`` facts as two parallel lists, each head
    heads[i] joined to the member members[i], no head above its member.
    Iterating yields the record's facts: ``el x`` for x in els, then
    ``sim h m`` for each pair.  len() counts the facts without building
    them; RunLog.to_jsonl writes the record's lines straight from the
    lists (format_blocks).

    Its writer, ord2eq, emits sorted stars: els ascending, each head below
    its member, the pairs ascending, and each member new to the log,
    joined to an element already named.  A batch read back from a log
    (parse_class_batch) holds the record's facts in file order, which need
    not be sorted, and may repeat a fact or join an element to itself.
    """

    __slots__ = ("els", "heads", "members")

    def __init__(self, els: list, heads: list, members: list):
        self.els = els
        self.heads = heads
        self.members = members

    def __len__(self) -> int:
        return len(self.els) + len(self.members)

    def __iter__(self) -> Iterator[Fact]:
        return chain(zip(_EL, self.els), zip(_SIM, self.heads, self.members))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ClassBatch, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"ClassBatch(els={list(self.els)!r}, heads={list(self.heads)!r}, "
                f"members={list(self.members)!r})")


class IdText(dict):
    """Element id -> its decimal string, converted on first use, so each
    id is converted once however many lines and records name it."""

    def __missing__(self, x: int) -> str:
        s = self[x] = str(x)
        return s


def format_blocks(batch, text: dict, sep: str) -> Iterator[str]:
    """A batch's record lines in blocks, each block its lines joined by
    sep: the el lines, then one block per lt block of a PlacementBatch's
    layout, or the sim lines of a ClassBatch.  Joined by sep, the blocks
    are the record's lines joined by sep.  text maps each chain element
    to its id string (an IdText fills itself in); a ClassBatch's ids are
    converted where they are written.

    An old element's block is its suffix's template with the element's id
    put in, one str call; a new element's block is one join.  Lines hold
    only ASCII letters, digits and spaces, so NUL marks where the id goes.
    A batch that places one element e is written with no layout, as at
    most four blocks: ``el e``; ``lt y e`` for the old elements y below e
    with ids below e's; e's own block, ``lt e z`` for the elements z above
    it; ``lt y e`` for the other old elements below e.  Each is one join
    over a sorted slice of the chain, and an empty one is left out."""
    if isinstance(batch, ClassBatch):
        if batch.els:
            yield "el " + (sep + "el ").join(map(str, batch.els))
        if batch.members:
            yield sep.join(map("sim {} {}".format, batch.heads, batch.members))
        return
    name = text.__getitem__
    if len(batch.new) == 1:
        (e,) = batch.new
        chain = batch.chain
        r = chain.index(e)
        below = sorted(chain[:r])
        k = bisect_left(below, e)  # below[:k] have ids below e's
        tail = " " + name(e)
        yield "el" + tail
        joint = tail + sep + "lt "  # between two lines ``lt y e``
        if k:
            yield "lt " + joint.join(map(name, below[:k])) + tail
        if r + 1 < len(chain):
            head = "lt" + tail + " "
            yield head + (sep + head).join(map(name, sorted(chain[r + 1:])))
        if k < len(below):
            yield "lt " + joint.join(map(name, below[k:])) + tail
        return
    news, ids, index, suffixes, tops = _layout(batch.new, batch.chain)
    if news:
        yield "el " + (sep + "el ").join(map(name, news))
    templates = ["lt \0 " + (sep + "lt \0 ").join(map(name, s)) for s in suffixes]
    for x in ids:
        k = index[x]
        if k >= 0:
            yield templates[k].replace("\0", name(x))
        else:
            head = "lt " + name(x) + " "
            yield head + (sep + head).join(map(name, tops[~k]))


def format_facts(facts: Iterable[Fact]) -> list:
    """Each fact as its text line, ``rel a`` or ``rel a b``."""
    return ["%s %s %s" % f if len(f) == 3 else "%s %s" % f for f in facts]


# Tokens on a fact line (relation and arguments) by relation name: all
# relations, and those a diagram of each signature admits.
_TOKENS_OF = {"el": 2, "lt": 3, "sim": 3}
RELATIONS = frozenset(_TOKENS_OF)
_ADMITTED = {s: {"el": 2, _REL_OF_SIGNATURE[s]: 3} for s in Signature}


def _not_admitted(rel: str, signature: Signature) -> SignatureError:
    return SignatureError(f"relation {rel!r} not admitted by {signature.value}")


def parse_facts(lines: Iterable[str]) -> list:
    """Parse fact lines (no comments); the first bad line raises.

    The one fact decoder behind every file format: diagram and stream
    files, run logs and CLI atoms.
    """
    return _parse_facts(lines, None)


def _parse_facts(lines: Iterable[str], signature: Signature | None) -> list:
    """parse_facts; given a signature, a relation it does not admit raises
    SignatureError, found by the same lookup that finds the line's size.

    int() reads a numeral that is not ASCII digits only through a sign, an
    underscore or a non-ASCII digit.  So when the lines hold none of these
    characters, every id int() reads is one is_natural accepts, and the
    ids are not checked one by one."""
    lines = list(lines)
    try:
        text = "".join(lines)
    except TypeError:  # an entry that is not a string: the loop raises at it
        each = True
    else:
        each = not text.isascii() or "+" in text or "-" in text or "_" in text
    out = []
    append = out.append
    tokens_of = _TOKENS_OF if signature is None else _ADMITTED[signature]
    for line in lines:
        parts = line.split()
        rel = parts[0] if parts else ""
        size = tokens_of.get(rel)
        if size != len(parts):
            if size is not None:
                raise ParseError(f"{rel} takes {size - 1} argument(s): {line!r}")
            if rel in RELATIONS:
                raise _not_admitted(rel, signature)
            raise ParseError(f"unknown relation token {rel!r}")
        a, b = parts[1], parts[-1]  # the same token for el
        if each and not (is_natural(a) and is_natural(b)):
            raise ParseError(f"non-natural argument in {line!r}")
        try:
            a, b = int(a), int(b)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"non-natural argument in {line!r}") from None
        if size == 2:
            append(("el", a))
        elif rel == "lt":
            if a == b:
                raise InconsistentDiagram(f"lt {a} {a}")
            append(("lt", a, b))
        else:
            append(("sim", a, b) if a <= b else ("sim", b, a))
    return out


def parse_batch(lines: list, chain: tuple, text: dict) -> PlacementBatch | None:
    """Read a record, a run-log record's facts or a stream file stage's,
    as the placement batch that grows chain, or None when lines is not
    exactly what format_facts writes for one.

    The leading ``el`` lines name the new elements.  A record's ``lt``
    lines are sorted by their first id, and a new element x opens one
    block of them, ``lt x y`` for each element y above x in the grown
    chain; so x is placed by its block's length, and the block is found by
    bisection over the ``lt`` lines.  The candidate is accepted only if it
    renders back to lines: each run of rendered blocks must equal as many
    lines joined by newlines as it holds, and the blocks must use up every
    line.  So an accepted record is one parse_facts reads as the batch's
    facts, and a line holding a newline is never taken for two.  text maps
    each element of chain to its id string; the new ids are added.
    """
    k = 0
    for line in lines:
        if type(line) is not str or not line.startswith("el "):
            break
        k += 1
    if not k:
        return None if lines else PlacementBatch((), chain)
    n = len(chain) + k
    placed: dict = {}  # rank in the grown chain -> the new element there
    try:
        new = [int(line[3:]) for line in lines[:k]]
        for x in new:
            lo = bisect_left(lines, x, k, key=_first_id)
            rank = n - 1 - (bisect_right(lines, x, lo, key=_first_id) - lo)
            if rank < 0 or rank in placed:
                return None
            placed[rank] = x
    except (ValueError, TypeError, AttributeError):  # a bad id or entry
        return None
    if min(new) < 0 or any(x in text for x in new):
        return None
    grown = list(chain)
    for rank in sorted(placed):
        grown.insert(rank, placed[rank])
    for x in new:
        text[x] = str(x)
    batch = PlacementBatch(new, tuple(grown))
    blocks = format_blocks(batch, text, "\n")
    i = 0
    try:
        # 16 blocks at a time: few enough that the record is never one
        # string, enough that one-line blocks cost little each.
        while chunk := "\n".join(islice(blocks, 16)):
            j = i + chunk.count("\n") + 1
            if "\n".join(lines[i:j]) != chunk:
                return None
            i = j
    except TypeError:  # an entry that is not a string
        return None
    return batch if i == len(lines) else None


def _first_id(line: str) -> int:
    """The first id of an ``lt a b`` line, by which a record sorts them."""
    return int(line[3:line.index(" ", 3)])


# An equivalence record's lines, each ended by a newline, when they are
# el lines and then sim lines, each id ASCII digits and one space apart.
_CLASS_RECORD = re.compile(r"(?:el [0-9]+\n)*(?:sim [0-9]+ [0-9]+\n)*")


def parse_class_batch(lines: list) -> ClassBatch | None:
    """Read a run-log record of an equivalence log, a list of lines, as the
    ClassBatch of its facts in file order, or None when the fact parser
    might read it otherwise.

    The lines, each ended by a newline, must match _CLASS_RECORD, and
    hold no newline of their own, which counting them proves.  Then every
    line is one fact, the el lines come first, and the ids are the record's
    tokens at fixed strides.  None is returned, for the fact parser to
    read or reject the record, when a head is above its member, since the
    parser swaps such a pair, or when a numeral has more digits than int()
    converts.
    """
    if not lines:
        return ClassBatch([], [], [])
    try:
        text = "\n".join(lines) + "\n"
    except TypeError:  # an entry that is not a string
        return None
    if text.count("\n") != len(lines) or _CLASS_RECORD.fullmatch(text) is None:
        return None
    k = 2 * bisect_left(lines, "el!")  # "el " < "el!" < "sim "
    tokens = text.split()
    try:
        els = list(map(int, tokens[1:k:2]))
        heads = list(map(int, tokens[k + 1::3]))
        members = list(map(int, tokens[k + 2::3]))
    except ValueError:  # more digits than int() converts
        return None
    if any(map(gt, heads, members)):
        return None
    return ClassBatch(els, heads, members)


def parse_fact(line: str) -> Fact:
    return parse_facts((line,))[0]


def content_lines(text: str) -> Iterator[str]:
    """The non-empty lines of a text file, with ``#`` comments and
    surrounding whitespace removed."""
    for line in text.splitlines():
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if line:
            yield line


def file_signature(rels: set, kind: str) -> Signature:
    """The signature of a diagram or stream file (kind names which) whose
    facts use the relations rels: EQUIVALENCE if they hold ``sim``, else
    LINEAR_ORDER, so a file of ``el`` facts alone is an order.  A file
    that mixes ``lt`` and ``sim`` raises ParseError."""
    if "lt" in rels and "sim" in rels:
        raise ParseError(f"{kind} mixes lt and sim facts")
    return Signature.EQUIVALENCE if "sim" in rels else Signature.LINEAR_ORDER


def parse_diagram(text: str) -> FiniteDiagram:
    """Parse the line-oriented diagram format (``el``/``lt``/``sim``, # comments).

    The one place a diagram from outside is checked: parse_facts checks
    each line, file_signature the relations, and an lt cycle raises
    InconsistentDiagram.
    """
    facts = parse_facts(content_lines(text))
    d = diagram_from_facts(file_signature({f[0] for f in facts}, "diagram"), facts)
    if d.has_lt_cycle():
        raise InconsistentDiagram("lt facts contain a cycle")
    return d


def diagram_from_facts(signature: Signature, facts: Iterable[Fact]) -> FiniteDiagram:
    """Trusted diagram whose domain is the elements its facts name: an
    empty one grown once by them, as a frozenset.  A PlacementBatch grows
    it as it is, so a batch placing its whole chain keeps that chain."""
    d = FiniteDiagram(signature)
    d.grow(facts if isinstance(facts, PlacementBatch) else frozenset(facts))
    return d


def total_order_diagram(chain: Iterable[int]) -> FiniteDiagram:
    """Total order diagram of the given element sequence, which it keeps
    as its chain; its facts, every pair, are built only if read."""
    xs = tuple(chain)
    return diagram_from_facts(Signature.LINEAR_ORDER, PlacementBatch(xs, xs))


def partition_diagram(classes: Iterable[Iterable[int]]) -> FiniteDiagram:
    """Equivalence diagram whose stored sims are the full within-class closure."""
    facts = []
    for cls in classes:
        members = sorted(cls)
        facts += map(el, members)
        facts += (("sim", a, b) for a, b in combinations(members, 2))
    return diagram_from_facts(Signature.EQUIVALENCE, facts)

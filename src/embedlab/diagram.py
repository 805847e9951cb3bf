"""Finite atomic diagrams over two signatures: linear orders and equivalences.

A diagram is a finite set of positive facts over natural-number elements.
Facts are plain tuples, one of::

    ("el", a)        element a exists
    ("lt", a, b)     a strictly below b        (LINEAR_ORDER only)
    ("sim", a, b)    a equivalent to b, a < b  (EQUIVALENCE only)

sim facts are stored unordered (normalized to a < b) and need not be
transitively closed; their reflexive-symmetric-transitive closure defines
the class partition.  lt facts must be acyclic under transitive closure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
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


class TooLarge(EmbedlabError):
    pass


class InvalidTarget(EmbedlabError):
    pass


class Signature(enum.Enum):
    LINEAR_ORDER = "linear_order"
    EQUIVALENCE = "equivalence"


def el(a: int) -> Fact:
    return ("el", a)


def lt(a: int, b: int) -> Fact:
    if a == b:
        raise InconsistentDiagram(f"lt {a} {a} relates an element to itself")
    return ("lt", a, b)


def sim(a: int, b: int) -> Fact:
    return ("sim", a, b) if a <= b else ("sim", b, a)


_REL_OF_SIGNATURE = {
    Signature.LINEAR_ORDER: "lt",
    Signature.EQUIVALENCE: "sim",
}


def fact_elements(fact: Fact) -> tuple[int, ...]:
    return fact[1:]


@dataclass(frozen=True)
class FiniteDiagram:
    """A consistent finite set of facts plus its element domain."""

    signature: Signature
    facts: frozenset = field(default_factory=frozenset)
    domain: frozenset = field(default_factory=frozenset)

    @staticmethod
    def make(signature: Signature, facts: Iterable[Fact]) -> "FiniteDiagram":
        """Validating constructor; use for any externally supplied facts."""
        fs = set()
        domain = set()
        allowed = _REL_OF_SIGNATURE[signature]
        for f in facts:
            rel = f[0]
            if rel == "el":
                if len(f) != 2:
                    raise ParseError(f"el has arity 1: {f!r}")
                domain.add(f[1])
                fs.add(f)
                continue
            if rel != allowed:
                raise SignatureError(
                    f"relation {rel!r} not admitted by {signature.value}"
                )
            if len(f) != 3:
                raise ParseError(f"{rel} has arity 2: {f!r}")
            a, b = f[1], f[2]
            if rel == "lt" and a == b:
                raise InconsistentDiagram(f"lt {a} {a}")
            if rel == "sim":
                f = sim(a, b)
            fs.add(f)
            domain.add(a)
            domain.add(b)
        for x in domain:
            if not isinstance(x, int) or x < 0:
                raise ParseError(f"element ids must be naturals, got {x!r}")
        d = FiniteDiagram(signature, frozenset(fs), frozenset(domain))
        if signature is Signature.LINEAR_ORDER and d.has_lt_cycle():
            raise InconsistentDiagram("lt facts contain a cycle")
        return d

    @staticmethod
    def raw(signature: Signature, facts: frozenset, domain: frozenset) -> "FiniteDiagram":
        """Trusted constructor for internally generated fact sets (no checks)."""
        return FiniteDiagram(signature, facts, domain)

    @staticmethod
    def empty(signature: Signature) -> "FiniteDiagram":
        return FiniteDiagram(signature, frozenset(), frozenset())

    def __le__(self, other: "FiniteDiagram") -> bool:
        return self.signature is other.signature and self.facts <= other.facts

    def lt_successors(self) -> dict:
        succ: dict = {x: [] for x in self.domain}
        for f in self.facts:
            if f[0] == "lt":
                succ[f[1]].append(f[2])
        return succ

    def has_lt_cycle(self) -> bool:
        succ = self.lt_successors()
        state: dict = {}

        def visit(x) -> bool:
            state[x] = 1
            for y in succ[x]:
                s = state.get(y, 0)
                if s == 1 or (s == 0 and visit(y)):
                    return True
            state[x] = 2
            return False

        return any(state.get(x, 0) == 0 and visit(x) for x in self.domain)

    def chain(self) -> list:
        """Topologically sorted domain of a total linear order diagram."""
        if self.signature is not Signature.LINEAR_ORDER:
            raise SignatureError("chain() requires a linear order diagram")
        indeg = {x: 0 for x in self.domain}
        succ = self.lt_successors()
        for xs in succ.values():
            for y in xs:
                indeg[y] += 1
        ready = sorted(x for x, d in indeg.items() if d == 0)
        out = []
        while ready:
            if len(ready) > 1:
                raise InvalidInput("diagram is not a total order")
            x = ready.pop()
            out.append(x)
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if len(out) != len(self.domain):
            raise InconsistentDiagram("lt facts contain a cycle")
        return out

    def is_total(self) -> bool:
        """True iff lt (transitively) decides every distinct pair.

        A unique topological order exists exactly when consecutive elements
        are comparable, so chain() succeeding settles it.
        """
        if self.signature is not Signature.LINEAR_ORDER:
            return False
        try:
            self.chain()
        except (InvalidInput, InconsistentDiagram):
            return False
        return True

    def below(self, a: int, b: int) -> bool:
        """a < b in a total order diagram.  Stored lt facts need not be
        transitively closed, so a pair without one is decided by chain()
        positions, which raise InvalidInput if the diagram is not total."""
        if ("lt", a, b) in self.facts:
            return True
        if ("lt", b, a) in self.facts:
            return False
        return self._ranks[a] < self._ranks[b]

    @cached_property
    def _ranks(self) -> dict:
        return {x: i for i, x in enumerate(self.chain())}

    def sim_classes(self) -> list:
        """Partition of the domain by the closure of sim (sorted classes)."""
        if self.signature is not Signature.EQUIVALENCE:
            raise SignatureError("sim_classes() requires an equivalence diagram")
        parent = {x: x for x in self.domain}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f in self.facts:
            if f[0] == "sim":
                ra, rb = find(f[1]), find(f[2])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups: dict = {}
        for x in self.domain:
            groups.setdefault(find(x), []).append(x)
        return sorted(sorted(g) for g in groups.values())


def format_facts(facts: Iterable[Fact]) -> list:
    """Each fact as its text line, ``rel a`` or ``rel a b``."""
    return ["%s %s %s" % f if len(f) == 3 else "%s %s" % f for f in facts]


# Tokens on a fact line (relation and arguments) by relation name.
_TOKENS_OF = {"el": 2, "lt": 3, "sim": 3}


def parse_facts(lines: Iterable[str]) -> list:
    """Parse fact lines (no comments); the first bad line raises.

    The one fact decoder behind every file format: diagram, stream and
    axiom-table files, run logs and CLI atoms.
    """
    out = []
    append = out.append
    tokens_of = _TOKENS_OF
    for line in lines:
        parts = line.split()
        rel = parts[0] if parts else ""
        size = tokens_of.get(rel)
        if size != len(parts):
            if size is None:
                raise ParseError(f"unknown relation token {rel!r}")
            raise ParseError(f"{rel} takes {size - 1} argument(s): {line!r}")
        try:
            a = int(parts[1])
            b = int(parts[-1])  # the same token as a for el
        except ValueError:
            raise ParseError(f"non-natural argument in {line!r}") from None
        if a < 0 or b < 0:
            raise ParseError(f"negative argument in {line!r}")
        if size == 2:
            append(("el", a))
        elif rel == "lt":
            if a == b:
                raise InconsistentDiagram(f"lt {a} {a}")
            append(("lt", a, b))
        else:
            append(("sim", a, b) if a <= b else ("sim", b, a))
    return out


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


def parse_diagram(text: str, signature: Signature | None = None) -> FiniteDiagram:
    """Parse the line-oriented diagram format (``el``/``lt``/``sim``, # comments).

    The signature is inferred from the facts when not given; a file with
    only ``el`` facts defaults to LINEAR_ORDER.
    """
    facts = parse_facts(content_lines(text))
    rels = {f[0] for f in facts}
    if "lt" in rels and "sim" in rels:
        raise ParseError("diagram mixes lt and sim facts")
    if signature is None:
        signature = Signature.EQUIVALENCE if "sim" in rels else Signature.LINEAR_ORDER
    return FiniteDiagram.make(signature, facts)


def format_diagram(diagram: FiniteDiagram) -> str:
    lines = format_facts(sorted(diagram.facts))
    # Elements that occur in no fact still need an el declaration.
    covered = set()
    for f in diagram.facts:
        covered.update(fact_elements(f))
    for x in sorted(diagram.domain - covered):
        lines.append(f"el {x}")
    return "\n".join(lines) + ("\n" if lines else "")


def total_order_diagram(chain: Iterable[int]) -> FiniteDiagram:
    """All-pairs total order diagram for the given element sequence."""
    xs = list(chain)
    facts = {el(x) for x in xs}
    for i, a in enumerate(xs):
        for b in xs[i + 1:]:
            facts.add(("lt", a, b))
    return FiniteDiagram.raw(Signature.LINEAR_ORDER, frozenset(facts), frozenset(xs))


def partition_diagram(classes: Iterable[Iterable[int]]) -> FiniteDiagram:
    """Equivalence diagram whose stored sims are the full within-class closure."""
    facts = set()
    domain = set()
    for cls in classes:
        members = sorted(cls)
        domain.update(members)
        for x in members:
            facts.add(el(x))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                facts.add(("sim", a, b))
    return FiniteDiagram.raw(Signature.EQUIVALENCE, frozenset(facts), frozenset(domain))

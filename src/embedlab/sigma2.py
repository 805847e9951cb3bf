"""Two-quantifier sentences (disjunctions of exists-forall literal families).

A sentence is a finite disjunction; each disjunct binds an existential
tuple x0..x(m-1) and conjoins universally quantified literals over
y0..y(n-1).  Literals are atomic or negated atomic facts of the input
signature.  Truth at a finite stage is evaluated over the arrived domain,
so a witness is a tuple all of whose active literal matrices hold against
every arrived universal instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .diagram import (
    FiniteDiagram,
    InvalidSpec,
    ParseError,
    Signature,
    content_lines,
    is_natural,
)


@dataclass(frozen=True)
class Literal:
    negated: bool
    rel: str
    args: tuple  # of ("x", i) | ("y", j)


@dataclass(frozen=True)
class Matrix:
    forall_arity: int
    literal: Literal


@dataclass(frozen=True)
class Disjunct:
    exists_arity: int
    matrices: tuple


@dataclass(frozen=True)
class Sigma2Sentence:
    name: str
    disjuncts: tuple

    @property
    def signature(self) -> Signature:
        rels = {m.literal.rel for d in self.disjuncts for m in d.matrices}
        return Signature.EQUIVALENCE if rels == {"sim"} else Signature.LINEAR_ORDER


def least_element_sentence() -> Sigma2Sentence:
    """There is an element with nothing strictly below it."""
    lit = Literal(True, "lt", (("y", 0), ("x", 0)))
    return Sigma2Sentence("least", (Disjunct(1, (Matrix(1, lit),)),))


def greatest_element_sentence() -> Sigma2Sentence:
    """There is an element with nothing strictly above it."""
    lit = Literal(True, "lt", (("x", 0), ("y", 0)))
    return Sigma2Sentence("greatest", (Disjunct(1, (Matrix(1, lit),)),))


BUILTIN_SENTENCES = {
    "least": least_element_sentence,
    "greatest": greatest_element_sentence,
}


def _instantiate(lit: Literal, xs: tuple, ys: tuple):
    vals = []
    for kind, i in lit.args:
        vals.append(xs[i] if kind == "x" else ys[i])
    return (lit.rel, *vals)


def literal_holds(diagram: FiniteDiagram, lit: Literal, xs: tuple, ys: tuple) -> bool:
    """Classical truth at a finite stage, in the order or partition the
    stage presents (``FiniteDiagram.holds``): lt is irreflexive, sim
    reflexive, and neither needs its facts stored closed."""
    present = diagram.holds(_instantiate(lit, xs, ys))
    return not present if lit.negated else present


def _refuting_pattern(lit: Literal):
    """The arguments of the facts that refute lit, or None: its own if it
    is negated, reversed if it is a positive lt literal."""
    if lit.negated:
        return lit.args
    if lit.rel == "lt":
        return (lit.args[1], lit.args[0])
    return None


def refuting_witness_values(lit: Literal, fact) -> list:
    """Existential values x0 = c such that `fact` refutes lit(c, d) for some d.

    A negated literal is refuted when its positive form is enumerated; a
    positive lt literal is refuted when the reversed fact is enumerated.
    Positive sim literals have no enumerable refutation.
    """
    pattern = _refuting_pattern(lit)
    if pattern is None or fact[0] != lit.rel or len(fact) - 1 != len(pattern):
        return []
    out = []
    orders = [fact[1:]]
    if lit.rel == "sim":
        orders.append(tuple(reversed(fact[1:])))
    for vals in orders:
        assign = {}
        ok = True
        for (kind, i), v in zip(pattern, vals):
            key = (kind, i)
            if key in assign and assign[key] != v:
                ok = False
                break
            assign[key] = v
        if ok and ("x", 0) in assign:
            out.append(assign[("x", 0)])
    return out


def placement_refuting_values(lit: Literal, chain, lo: int, hi: int):
    """refuting_witness_values over every fact of a placement batch, read
    from its chain without building the facts: lo and hi are the lowest
    and highest ranks of its new elements.  The batch's facts are lt
    facts with a new element at either end, and a refuting pattern with x0
    at one end only takes all the lower ends, chain[:hi] and chain[hi]
    when something is above it, or all the upper ends, chain[lo+1:] and
    chain[lo] when something is below it.  x0 at both ends or at neither
    refutes nothing, and neither does a sim literal."""
    pattern = _refuting_pattern(lit)
    if pattern is None or lit.rel != "lt" or pattern[0] == pattern[1]:
        return ()
    if pattern[0] == ("x", 0):
        return chain[:hi + 1] if hi < len(chain) - 1 else chain[:hi]
    if pattern[1] == ("x", 0):
        return chain[lo:] if lo > 0 else chain[lo + 1:]
    return ()


class WitnessTracker:
    """Incrementally maintained witness set for one sentence along a stream.

    A tuple is alive at stage s when every matrix with index <= s of some
    disjunct holds for all universal tuples over the arrived domain.  Once
    a tuple dies it can never revive (the domain only grows), except that
    a matrix activating later re-filters the alive set.
    """

    def __init__(self, sentence: Sigma2Sentence):
        self.sentence = sentence
        self.alive: list = [dict() for _ in sentence.disjuncts]
        self.domain: list = []
        self.stage = -1
        self._sorted: list = []  # the alive tuples after the last update

    def _matrix_holds(self, diagram, matrix: Matrix, xs: tuple, new=None) -> bool:
        """matrix holds for xs at every universal tuple over the domain, or
        at every one that meets the set new when it is given."""
        return all(
            literal_holds(diagram, matrix.literal, xs, ys)
            for ys in product(self.domain, repeat=matrix.forall_arity)
            if new is None or not new.isdisjoint(ys)
        )

    def update(self, diagram: FiniteDiagram, new_elements: list):
        self.stage += 1
        self.domain.extend(new_elements)
        s = self.stage
        new = set(new_elements)
        for di, disjunct in enumerate(self.sentence.disjuncts):
            active = disjunct.matrices[: s + 1]
            alive = self.alive[di]
            # A matrix activating at this stage re-filters every survivor.
            if s < len(disjunct.matrices):
                matrix = disjunct.matrices[s]
                alive = {xs: True for xs in alive
                         if self._matrix_holds(diagram, matrix, xs)}
            # New universal instantiations can kill old witnesses.
            if new:
                alive = {xs: True for xs in alive if all(
                    self._matrix_holds(diagram, m, xs, new) for m in active)}
            # New existential tuples must pass every active matrix in full.
            for xs in product(self.domain, repeat=disjunct.exists_arity):
                if not new.isdisjoint(xs) and all(
                        self._matrix_holds(diagram, m, xs) for m in active):
                    alive[xs] = True
            self.alive[di] = alive
        seen = set()
        for alive in self.alive:
            seen.update(alive)
        self._sorted = sorted(seen, key=lambda t: (len(t), t))

    def witnesses(self) -> list:
        """Alive tuples in the fixed (length, lexicographic) order."""
        return list(self._sorted)

    def least(self):
        return self._sorted[0] if self._sorted else None

    def count(self) -> int:
        return len(self._sorted)


def parse_sentence(text: str, name: str = "sentence") -> Sigma2Sentence:
    """Parse the sentence file format::

        exists <m>
        disjunct 0
        forall <n>: <literal>
        ...

    Literals look like ``lt x0 y0`` or ``not lt y0 x0``.
    """
    exists_arity: int | None = None
    disjuncts: list = []
    matrices: list | None = None

    def close_disjunct():
        if matrices is not None:
            if not matrices:
                raise ParseError("disjunct with no matrices")
            disjuncts.append(Disjunct(exists_arity, tuple(matrices)))

    for line in content_lines(text):
        parts = line.split()
        if parts[0] == "exists":
            if exists_arity is not None:
                raise ParseError("duplicate exists header")
            exists_arity = _header_number(parts, line)
            if exists_arity < 1:
                raise ParseError("exists arity must be >= 1")
        elif parts[0] == "disjunct":
            if exists_arity is None:
                raise ParseError("disjunct before exists header")
            expected = len(disjuncts) + (1 if matrices is not None else 0)
            if _header_number(parts, line) != expected:
                raise ParseError(f"disjunct index out of order: {line!r}")
            close_disjunct()
            matrices = []
        elif parts[0] == "forall":
            if matrices is None:
                raise ParseError("forall line before any disjunct")
            head, _, lit_text = line.partition(":")
            n = _header_number(head.split(), line)
            matrices.append(Matrix(n, _parse_literal(lit_text.strip(),
                                                     exists_arity, n)))
        else:
            raise ParseError(f"unexpected line {line!r}")
    close_disjunct()
    if not disjuncts:
        raise ParseError("sentence has no disjuncts")
    return Sigma2Sentence(name, tuple(disjuncts))


def _header_number(parts: list, line: str) -> int:
    """The natural number of an ``exists``, ``disjunct`` or ``forall`` header."""
    if len(parts) != 2 or not is_natural(parts[1]):
        raise ParseError(f"header needs one natural number: {line!r}")
    return int(parts[1])


def _parse_literal(text: str, exists_arity: int, forall_arity: int) -> Literal:
    parts = text.split()
    negated = False
    if parts and parts[0] == "not":
        negated = True
        parts = parts[1:]
    if not parts or parts[0] not in ("lt", "sim"):
        raise ParseError(f"bad literal {text!r}")
    rel = parts[0]
    if len(parts) != 3:
        raise ParseError(f"{rel} literal takes two variables: {text!r}")
    args = []
    for tok in parts[1:]:
        kind, idx = tok[0], tok[1:]
        if kind not in ("x", "y") or not is_natural(idx):
            raise ParseError(f"bad variable {tok!r}")
        i = int(idx)
        bound = exists_arity if kind == "x" else forall_arity
        if i >= bound:
            raise ParseError(f"variable {tok!r} out of range")
        args.append((kind, i))
    return Literal(negated, rel, tuple(args))


def resolve_sentence(spec: str) -> Sigma2Sentence:
    """Builtin name or path to a sentence file."""
    if spec in BUILTIN_SENTENCES:
        return BUILTIN_SENTENCES[spec]()
    from pathlib import Path

    path = Path(spec)
    if not path.exists():
        raise InvalidSpec(f"unknown sentence {spec!r}")
    return parse_sentence(path.read_text(), name=path.stem)

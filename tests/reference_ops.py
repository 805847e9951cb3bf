"""Reference definitions for tests only: the leaf operators in closed
form, and the plain fact codec that the shipped one must match.

Each operator function returns the operator's full output fact set on a
finite input at one budget, computed from scratch from the operator's
definition rather than incrementally.  The shipped operators are defined
once, by their stream evaluators; the agreement tests compare them against
these.  ``parse_fact`` and ``format_fact`` are the straightforward codec
that ``embedlab.diagram`` replaced with a faster one; the codec tests
require the same results and the same errors.  ``fingerprint`` is the
classifier replay that places each new element by counting the stored
``lt`` facts below it, which is right on all-pairs logs only; the shipped
one must give the same fingerprint on them.  ``tuple_precedes`` is the
extension-first comparison written out case by case; the shipped one is
a comparison of sort keys and must agree with it.  ``fact_reverse``,
``fact_fill`` and ``fact_concat`` are the order combinators written as
transformers of their inner operators' facts, which is how the shipped ones
worked before they built chains; over a total inner output both present the
same order at every stage.  ``census`` is the class census as a replay
followed by a second pass that finds the root of every sim fact again; the
shipped one-pass census must return an equal ClassCensus.
``order_witnesses`` is the order verdict rule with the omega.m and
omega*.m rules written as two hand-mirrored copies; the shipped rule,
stated once with its mirror, must give the same witness strings.
``rescanning_formula2eq`` and ``rescanning_pair_formula2eq`` are
formula2eq and pair_formula2eq with the evaluator that, for each new
element, rescans every fact of the stage diagram for a refutation, and
that tags both ends of every fact; the shipped ones read refutations from
each step's delta and tag each element once, and must give the same run
records.  ``fact_refuted_pairs`` and ``fact_bounded_force`` are the
forcing search that reads every evaluated output through its stored
facts, each order output built as an all-pairs diagram; the shipped one
reads an order operator's output chain by position, and a fact output
through the closure of its lt facts, and must give the same refuted pairs,
outcomes and certificates where the stored facts are closed.  ``AxiomTableOperator`` is an
operator given by an explicit (premise, fact) axiom list, the forcing and
kernel tests' fixture for operators that are not extension complete.
``Mirror`` is README's example of an operator that returns plain facts
(the input order reversed, from budget 1), which the order combinators
read through their fact adapter.
``covering`` and ``covering_stream`` cut an order presentation down to
its covering pairs stage by stage, reading each stage's order from its
prefix's facts with ``chain()`` rather than through ``diagram.arrivals``.
``stream_file`` writes a stream file of given stage lines as they are,
where ``StructureStream.to_text`` sorts them.
``unpair`` and ``untag`` invert the pairing and ``tag``, and
``format_sentence`` writes a sentence in the file form parse_sentence
reads; the program needs neither direction, the tests read both.
``place`` is the one-element placement written as a fact list, as
``streams.generate`` built each order stage before its stages became
placement batches; a one-element PlacementBatch must yield its facts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from embedlab.classify import ClassCensus, ClassRecord, ElementTrace, OrderFingerprint
from embedlab.combinators import (
    LEFT_CLOSED,
    Replicate,
    Reverse,
    dyadic,
    fill_positions,
)
from embedlab.constructions import (
    ClassMultiplier,
    Eq2Ord,
    Formula2Eq,
    Ord2Eq,
    absolute_tuple,
)
from embedlab.diagram import (
    InconsistentDiagram,
    InvalidInput,
    InvalidSpec,
    NotInOutput,
    ParseError,
    Signature,
    diagram_from_facts,
    el,
    sim,
    total_order_diagram,
)
from embedlab.forcing import FORCED, REFUTED, UNKNOWN, ForcingVerdict, extensions
from embedlab.kernel import EnumerationOperator, StreamEvaluator
from embedlab.pairing import encode_tuple, pair, tag
from embedlab.sigma2 import refuting_witness_values
from embedlab.streams import StructureStream


def _sim(a: int, b: int) -> tuple:
    return ("sim", min(a, b), max(a, b))


def replicate_facts(q: int, alpha, budget: int) -> frozenset:
    """q tagged copies of alpha's chain laid in series, from budget 1."""
    if budget < 1:
        return frozenset()
    line = [tag(i, x) for i in range(q) for x in alpha.chain()]
    facts = {el(e) for e in line}
    facts.update(
        ("lt", a, b) for i, a in enumerate(line) for b in line[i + 1:]
    )
    return frozenset(facts)


def ord2eq_facts(alpha, budget: int) -> frozenset:
    """Minimum's class of size one, maximum's of size two, interior
    classes of size budget + 2."""
    if budget < 1:
        return frozenset()
    chain = alpha.chain()
    facts = {el(tag(a, 0)) for a in chain}
    if len(chain) >= 2:
        facts.update(_sim(tag(a, 0), tag(a, 1)) for a in chain[1:])
        facts.update(
            _sim(tag(a, 0), tag(a, j))
            for a in chain[1:-1] for j in range(2, budget + 2)
        )
    return frozenset(facts)


def tuple_precedes(t: tuple, u: tuple) -> bool:
    """t before u: proper extensions first, else first difference decides."""
    if len(t) > len(u) and t[: len(u)] == u:
        return True
    if len(u) > len(t) and u[: len(t)] == t:
        return False
    for a, b in zip(t, u):
        if a != b:
            return a < b
    return False


def eq2ord_facts(interior_min: int, last_min: int, alpha,
                 budget: int) -> frozenset:
    """Admissible tuples among the first `budget` absolute tuples, ordered
    by tuple_precedes."""
    sizes = {x: len(cls) for cls in alpha.sim_classes() for x in cls}
    admitted = [
        t for t in map(absolute_tuple, range(budget))
        if all(x in sizes for x in t)
        and all(sizes[x] >= interior_min for x in t[:-1])
        and sizes[t[-1]] >= last_min
    ]
    facts = {el(encode_tuple(t)) for t in admitted}
    facts.update(
        ("lt", encode_tuple(t), encode_tuple(u))
        for t in admitted for u in admitted
        if t != u and tuple_precedes(t, u)
    )
    return frozenset(facts)


def _copy(fact, copy: int) -> tuple:
    if fact[0] == "el":
        return el(tag(copy, fact[1]))
    return _sim(tag(copy, fact[1]), tag(copy, fact[2]))


def class_multiplier_facts(alpha, budget: int) -> frozenset:
    """budget tagged copies of the input."""
    return frozenset(_copy(f, c) for c in range(budget) for f in alpha.facts)


def formula2eq_facts(sentence, seed_size: int, alpha,
                     budget: int) -> frozenset:
    """One class per (element, disjunct), seed_size members, or
    max(seed_size, budget // 2 + 2) once refuted; isqrt(budget) + 1
    copies of everything."""
    if budget < 1:
        return frozenset()
    base = set()
    for c in alpha.domain:
        for i, d in enumerate(sentence.disjuncts):
            refuted = any(
                c in refuting_witness_values(m.literal, f)
                for m in d.matrices for f in alpha.facts
            )
            members = max(seed_size, budget // 2 + 2) if refuted else seed_size
            root = pair(c, pair(i, 0))
            base.add(el(root))
            base.update(_sim(root, pair(c, pair(i, k))) for k in range(1, members))
    return frozenset(
        _copy(f, c) for c in range(isqrt(budget) + 1) for f in base
    )


def _swap(fact) -> tuple:
    return ("lt", fact[2], fact[1]) if fact[0] == "lt" else fact


def reference_facts(op, alpha, budget: int):
    """Closed-form output of a leaf operator (or its reversal), or None
    when op is not one."""
    if isinstance(op, Reverse):
        inner = reference_facts(op.op, alpha, budget)
        return None if inner is None else frozenset(map(_swap, inner))
    if isinstance(op, Replicate):
        return replicate_facts(op.q, alpha, budget)
    if isinstance(op, Ord2Eq):
        return ord2eq_facts(alpha, budget)
    if isinstance(op, Eq2Ord):
        return eq2ord_facts(op.interior_min, op.last_min, alpha, budget)
    if isinstance(op, ClassMultiplier):
        return class_multiplier_facts(alpha, budget)
    if isinstance(op, Formula2Eq):
        return formula2eq_facts(op.sentence, op.seed_size, alpha, budget)
    return None


def format_fact(fact) -> str:
    return " ".join(str(p) for p in fact)


def parse_fact(line: str) -> tuple:
    parts = line.split()
    rel = parts[0] if parts else ""
    if rel not in ("el", "lt", "sim"):
        raise ParseError(f"unknown relation token {rel!r}")
    want = 1 if rel == "el" else 2
    if len(parts) - 1 != want:
        raise ParseError(f"{rel} takes {want} argument(s): {line!r}")
    # An argument is a natural in ASCII digits, within int()'s digit limit.
    if not all(re.fullmatch("[0-9]+", p, re.ASCII) for p in parts[1:]):
        raise ParseError(f"non-natural argument in {line!r}")
    try:
        args = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(f"non-natural argument in {line!r}") from None
    if rel == "el":
        return el(args[0])
    if rel == "lt":
        if args[0] == args[1]:
            raise InconsistentDiagram(f"lt {args[0]} {args[0]}")
        return ("lt", args[0], args[1])
    return sim(args[0], args[1])


def fingerprint(log, threshold: int) -> OrderFingerprint:
    """Immediate-neighbour changes of an all-pairs order log."""
    chain: list = []
    facts: set = set()
    traces: dict = {}
    least_change_stage = greatest_change_stage = -1
    for rec in log.records:
        new_elements = []
        for f in rec.new_facts:
            facts.add(f)
            for x in f[1:]:
                if x not in traces:
                    traces[x] = ElementTrace(entered_at=rec.stage)
                    new_elements.append(x)
        if not new_elements:
            continue
        pred_before = {}
        succ_before = {}
        for i, x in enumerate(chain):
            pred_before[x] = chain[i - 1] if i > 0 else None
            succ_before[x] = chain[i + 1] if i + 1 < len(chain) else None
        old_least = chain[0] if chain else None
        old_greatest = chain[-1] if chain else None
        for x in new_elements:
            pos = sum(1 for y in chain if ("lt", y, x) in facts)
            chain.insert(pos, x)
        for i, x in enumerate(chain):
            if x not in pred_before:
                continue
            if (chain[i - 1] if i > 0 else None) != pred_before[x]:
                traces[x].pred_changes += 1
            if (chain[i + 1] if i + 1 < len(chain) else None) != succ_before[x]:
                traces[x].succ_changes += 1
        if chain[0] != old_least:
            least_change_stage = rec.stage
        if chain[-1] != old_greatest:
            greatest_change_stage = rec.stage

    final_stage = log.records[-1].stage if log.records else -1
    result = OrderFingerprint(
        stages=len(log.records), threshold=threshold, elements=traces
    )
    result.pred_unstable = sorted(
        x for x, t in traces.items() if t.pred_changes >= threshold
    )
    result.succ_unstable = sorted(
        x for x, t in traces.items() if t.succ_changes >= threshold
    )
    if chain and least_change_stage <= final_stage - threshold:
        result.stable_least = chain[0]
    if chain and greatest_change_stage <= final_stage - threshold:
        result.stable_greatest = chain[-1]
    return result


class FactCombinator(EnumerationOperator):
    """An order combinator over inner operators, as a fact transformer."""

    output_signature = Signature.LINEAR_ORDER

    def __init__(self, name, make, *ops):
        self.name = name
        self.make = make
        self.ops = ops
        self.input_signature = ops[0].input_signature

    def make_stream_evaluator(self):
        return self.make(*(op.make_stream_evaluator() for op in self.ops))


class _FactReverse(StreamEvaluator):
    def __init__(self, inner):
        self.inner = inner

    def step(self, diagram, delta, budget):
        new, notes = self.inner.step(diagram, delta, budget)
        return [_swap(f) for f in new], notes


class _FactFill(StreamEvaluator):
    """Each inner element's block emits its positions' comparisons against
    the positions made before, across blocks by the inner lt facts."""

    def __init__(self, inner, style):
        self.inner = inner
        self.style = style
        self.count: dict = {}
        self.under_lt: set = set()

    def value(self, r):
        if r == 0:
            return Fraction(0) if self.style == LEFT_CLOSED else Fraction(1)
        return dyadic(r - 1)

    def step(self, diagram, delta, budget):
        inner_new, _ = self.inner.step(diagram, delta, budget)
        out = []
        new_pairs = []
        for f in inner_new:
            for x in f[1:]:
                self.count.setdefault(x, 0)
            if f[0] == "lt":
                self.under_lt.add(f[1:])
                new_pairs.append(f[1:])
        for x, y in new_pairs:
            out += [("lt", tag(x, rx), tag(y, ry))
                    for rx in range(self.count[x]) for ry in range(self.count[y])]
        target = fill_positions(budget)
        for r, x in sorted((r, x) for x, c in self.count.items()
                           for r in range(c, target)):
            e = tag(x, r)
            out.append(el(e))
            for ry in range(r):
                below = self.value(ry) < self.value(r)
                out.append(("lt", tag(x, ry), e) if below else ("lt", e, tag(x, ry)))
            for y, cy in self.count.items():
                if (y, x) in self.under_lt:
                    out += [("lt", tag(y, ry), e) for ry in range(cy)]
                elif (x, y) in self.under_lt:
                    out += [("lt", e, tag(y, ry)) for ry in range(cy)]
            self.count[x] = r + 1
        return out, None


class _FactConcat(StreamEvaluator):
    """Tagged facts of both sides plus every side-0 below side-1 pair."""

    def __init__(self, inner0, inner1):
        self.inners = (inner0, inner1)
        self.dom = (set(), set())

    def step(self, diagram, delta, budget):
        out = []
        fresh = (set(), set())
        for side, inner in enumerate(self.inners):
            new, _ = inner.step(diagram, delta, budget)
            for f in new:
                out.append((f[0], *(tag(side, x) for x in f[1:])))
                fresh[side].update(x for x in f[1:] if x not in self.dom[side])
        for x in self.dom[0] | fresh[0]:
            for y in self.dom[1] | fresh[1]:
                if x in fresh[0] or y in fresh[1]:
                    out.append(("lt", tag(0, x), tag(1, y)))
        for side in (0, 1):
            self.dom[side].update(fresh[side])
        return out, None


def fact_reverse(op) -> FactCombinator:
    return FactCombinator(f"rev({op.name})", _FactReverse, op)


def fact_fill(op, style) -> FactCombinator:
    return FactCombinator(f"{op.name}|fill", lambda inner: _FactFill(inner, style), op)


def fact_concat(op1, op2) -> FactCombinator:
    return FactCombinator(f"concat({op1.name},{op2.name})", _FactConcat, op1, op2)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def census(log, stability_window: int) -> ClassCensus:
    """Class census of an equivalence output log at its final stage."""
    uf = _UnionFind()
    entry_stage: dict = {}
    sim_stages: list = []  # (stage, a, b)
    pins: list = []  # per stage: set of pinned element ids, or None
    for rec in log.records:
        pinned = None
        if rec.annotations and (
            "pinned_size1" in rec.annotations or "pinned_size2" in rec.annotations
        ):
            pinned = {
                v for k, v in rec.annotations.items()
                if k in ("pinned_size1", "pinned_size2") and v is not None
            }
        pins.append(pinned)
        for f in rec.new_facts:
            for x in f[1:]:
                if x not in entry_stage:
                    entry_stage[x] = rec.stage
                    uf.add(x)
            if f[0] == "sim":
                sim_stages.append((rec.stage, f[1], f[2]))
                uf.union(f[1], f[2])

    groups: dict = {}
    for x in entry_stage:
        groups.setdefault(uf.find(x), []).append(x)
    last_growth: dict = {
        root: max(entry_stage[x] for x in members)
        for root, members in groups.items()
    }
    for stage, a, b in sim_stages:
        root = uf.find(a)
        if stage > last_growth[root]:
            last_growth[root] = stage

    final_stage = log.records[-1].stage if log.records else -1
    annotated = any(p is not None for p in pins)

    stably_pinned: set = set()
    if annotated:
        window = pins[-stability_window:]
        if window and all(p is not None for p in window):
            candidates = {
                uf.find(x) for x in window[-1] if x in entry_stage
            }
            for root in candidates:
                if all(
                    any(y in entry_stage and uf.find(y) == root for y in p)
                    for p in window
                ):
                    stably_pinned.add(root)

    result = ClassCensus(
        stages=len(log.records), window=stability_window, annotated=annotated
    )
    for root in sorted(groups):
        members = groups[root]
        if annotated:
            frozen = root in stably_pinned
        else:
            frozen = last_growth[root] <= final_stage - stability_window
        result.classes.append(ClassRecord(
            representative=min(members),
            size=len(members),
            frozen=frozen,
            last_growth_stage=last_growth[root],
        ))
    return result


def order_witnesses(fp, family: str, k: int) -> list:
    """The witnesses against an order claim on an order fingerprint; empty
    when the claim holds."""
    problems = []
    m = k if family in ("omega_k", "omega_star_k") else 1
    if family in ("one_plus_eta", "eta", "eta_plus_one"):
        want_least = family == "one_plus_eta"
        want_greatest = family == "eta_plus_one"
        if want_least != (fp.stable_least is not None):
            problems.append(
                f"stable least is {fp.stable_least}, "
                f"expected {'present' if want_least else 'absent'}"
            )
        if want_greatest != (fp.stable_greatest is not None):
            problems.append(
                f"stable greatest is {fp.stable_greatest}, "
                f"expected {'present' if want_greatest else 'absent'}"
            )
        if not fp.pred_unstable or not fp.succ_unstable:
            problems.append(
                "dense order should churn neighbours on both sides: "
                f"pred {fp.pred_unstable}, succ {fp.succ_unstable}"
            )
    elif family in ("omega", "omega_k"):
        if len(fp.pred_unstable) != m - 1:
            problems.append(
                f"expected {m - 1} pred-unstable elements, "
                f"found {fp.pred_unstable}"
            )
        if fp.succ_unstable:
            problems.append(f"succ-unstable elements {fp.succ_unstable}")
        if fp.stable_least is None:
            problems.append("no stable least element")
        if fp.stable_greatest is not None:
            problems.append(f"stable greatest element {fp.stable_greatest}")
    else:
        if len(fp.succ_unstable) != m - 1:
            problems.append(
                f"expected {m - 1} succ-unstable elements, "
                f"found {fp.succ_unstable}"
            )
        if fp.pred_unstable:
            problems.append(f"pred-unstable elements {fp.pred_unstable}")
        if fp.stable_greatest is None:
            problems.append("no stable greatest element")
        if fp.stable_least is not None:
            problems.append(f"stable least element {fp.stable_least}")
    return problems


class _RescanningFormula2EqStream(StreamEvaluator):
    def __init__(self, op):
        self.op = op
        self.refuted: set = set()
        self.members: dict = {}  # (c, i) -> member count emitted
        self.copies = 0
        self.seen: list = []
        self.pending: list = []  # nothing is emitted before budget 1

    def copy_out(self, new_facts, copies: int) -> list:
        out = [_copy(f, i) for f in new_facts for i in range(self.copies)]
        self.seen.extend(new_facts)
        while self.copies < copies:
            out.extend(_copy(f, self.copies) for f in self.seen)
            self.copies += 1
        return out

    def step(self, diagram, delta, budget):
        op = self.op
        disjuncts = op.sentence.disjuncts
        new_elements = [f[1] for f in delta if f[0] == "el"]
        base_new = self.pending
        for c in new_elements:
            for i in range(len(disjuncts)):
                root = pair(c, pair(i, 0))
                base_new.append(el(root))
                if op.seed_size == 2:
                    base_new.append(_sim(root, pair(c, pair(i, 1))))
                self.members[(c, i)] = op.seed_size
        for f in delta:
            for i, d in enumerate(disjuncts):
                for m in d.matrices:
                    for c in refuting_witness_values(m.literal, f):
                        if (c, i) in self.members:
                            self.refuted.add((c, i))
        for c in new_elements:
            for i, d in enumerate(disjuncts):
                if any(c in refuting_witness_values(m.literal, f)
                       for m in d.matrices for f in diagram.facts):
                    self.refuted.add((c, i))
        if budget < 1:
            return [], None
        want = max(op.seed_size, budget // 2 + 2)
        for (c, i) in self.refuted:
            root = pair(c, pair(i, 0))
            have = self.members[(c, i)]
            for k in range(have, want):
                base_new.append(_sim(root, pair(c, pair(i, k))))
            self.members[(c, i)] = max(have, want)
        self.pending = []
        return self.copy_out(base_new, isqrt(budget) + 1), None


class _RescanningFormula2Eq(Formula2Eq):
    def make_stream_evaluator(self):
        return _RescanningFormula2EqStream(self)


class _FactUnion(StreamEvaluator):
    """Both sides' facts, each end of each fact tagged with its side."""

    def __init__(self, inner0, inner1):
        self.inners = (inner0, inner1)

    def step(self, diagram, delta, budget):
        out = []
        for side, inner in enumerate(self.inners):
            new, _ = inner.step(diagram, delta, budget)
            out += (_copy(f, side) for f in new)
        return out, None


def rescanning_formula2eq(sentence, seed_size: int) -> Formula2Eq:
    return _RescanningFormula2Eq(sentence, seed_size)


def rescanning_pair_formula2eq(phi, psi) -> EnumerationOperator:
    op = FactCombinator(
        f"pair_formula2eq:{phi.name}:{psi.name}", _FactUnion,
        _RescanningFormula2Eq(phi, 1), _RescanningFormula2Eq(psi, 2))
    op.output_signature = Signature.EQUIVALENCE
    return op


def fact_refuted_pairs(op, alpha, elements, ext_bound, budget) -> set:
    """Ordered pairs (a, b) of elements with lt(a, b) among the stored
    facts of op's output on some extension of alpha."""
    wanted = set(elements)
    seen = set()
    for chain in extensions(alpha, ext_bound):
        for f in op.eval(total_order_diagram(chain), budget).facts:
            if f[0] == "lt" and f[1] in wanted and f[2] in wanted:
                seen.add((f[1], f[2]))
    return seen


def fact_bounded_force(query) -> ForcingVerdict:
    """bounded_force, testing the complement atom's membership in the
    stored facts of each extension's output."""
    op, alpha, atom = query.op, query.alpha, query.atom
    if op.output_signature is not Signature.LINEAR_ORDER:
        raise InvalidSpec("forcing queries concern order outputs")
    if atom[0] != "lt" or len(atom) != 3 or atom[1] == atom[2]:
        raise InvalidSpec(f"atom must be lt over distinct elements: {atom!r}")
    if not alpha.is_total():
        raise InvalidInput("alpha must be a total linear order")
    base = alpha.chain()
    out = op.eval(total_order_diagram(base), query.budget)
    x, y = atom[1], atom[2]
    if x not in out.domain or y not in out.domain:
        raise NotInOutput(f"atom elements not in the output of alpha: {atom!r}")
    complement = ("lt", y, x)
    for chain in extensions(alpha, query.ext_bound):
        if chain != base:
            out = op.eval(total_order_diagram(chain), query.budget)
        if complement in out.facts:
            return ForcingVerdict(REFUTED, certificate=total_order_diagram(chain))
    if op.extension_complete:
        return ForcingVerdict(FORCED)
    return ForcingVerdict(UNKNOWN)


class AxiomTableOperator(EnumerationOperator):
    """Operator given by an explicit finite (premise, fact) axiom list.

    Budget n enables the first n axioms; an axiom fires when its premise
    facts are all present in the input.
    """

    def __init__(self, name, axioms, input_signature=Signature.LINEAR_ORDER,
                 output_signature=Signature.LINEAR_ORDER,
                 extension_complete=False):
        self.name = name
        self.axioms = list(axioms)
        self.input_signature = input_signature
        self.output_signature = output_signature
        self.extension_complete = extension_complete

    def make_stream_evaluator(self):
        return _AxiomTableStream(self.axioms)


class _AxiomTableStream(StreamEvaluator):
    """Fires each axiom below the budget whose premise facts have arrived."""

    def __init__(self, axioms: list):
        self.axioms = axioms
        self.emitted: set = set()
        self.scanned = 0  # axioms already tested against the current input

    def step(self, diagram, delta, budget):
        if delta:
            # New input can satisfy a premise that failed before.
            self.scanned = 0
        new = []
        for premise, fact in self.axioms[self.scanned:budget]:
            if fact not in self.emitted and premise <= diagram.facts:
                self.emitted.add(fact)
                new.append(fact)
        self.scanned = max(self.scanned, budget)
        return new, None


class Mirror(EnumerationOperator):
    """The input order reversed, from budget 1 (README's example)."""

    name = "mirror"

    def make_stream_evaluator(self):
        return _MirrorStream()


class _MirrorStream(StreamEvaluator):
    def __init__(self):
        self.pending = []

    def step(self, diagram, delta, budget):
        self.pending += delta
        if budget < 1:
            return [], None
        new = [f if f[0] == "el" else ("lt", f[2], f[1]) for f in self.pending]
        self.pending = []
        return new, None


def covering(deltas) -> list:
    """Each delta's el facts plus only the lt facts between each element
    that is new in it and its immediate neighbours in the order so far."""
    out = []
    facts: set = set()
    seen: set = set()
    for delta in deltas:
        facts.update(delta)
        line = diagram_from_facts(Signature.LINEAR_ORDER, facts).chain()
        new = {x for f in delta for x in f[1:]} - seen
        seen |= new
        out.append(sorted(
            [f for f in delta if f[0] == "el"]
            + [("lt", a, b) for a, b in zip(line, line[1:])
               if a in new or b in new]))
    return out


def stream_file(blocks: list) -> str:
    """A stream file whose stages hold the given lines, in order."""
    return "".join(f"-- stage {s}\n" + "".join(line + "\n" for line in lines)
                   for s, lines in enumerate(blocks))


def covering_stream(stream: StructureStream) -> StructureStream:
    """The stream cut to its covering pairs, read back through the file
    format so that the parser sees the sparse facts too."""
    text = StructureStream(stream.signature, covering(stream.deltas), "").to_text()
    return StructureStream.from_text(text, stream.provenance)


def unpair(z: int) -> tuple[int, int]:
    """The inverse of the diagonal pairing: unpair(pair(x, y)) == (x, y)."""
    if z < 0:
        raise ValueError("pairing is defined on naturals")
    # Largest s with s(s+1)/2 <= z.
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


untag = unpair  # tag(copy, source) -> (copy, source)


def format_sentence(sentence) -> str:
    """A Sigma2Sentence in the sentence-file form."""
    lines = [f"exists {sentence.disjuncts[0].exists_arity}"]
    for i, d in enumerate(sentence.disjuncts):
        lines.append(f"disjunct {i}")
        for m in d.matrices:
            lit = m.literal
            variables = " ".join(f"{kind}{j}" for kind, j in lit.args)
            lines.append(f"forall {m.forall_arity}: "
                         f"{'not ' if lit.negated else ''}{lit.rel} {variables}")
    return "\n".join(lines) + "\n"


def place(chain: list, x: int, rank: int) -> list:
    """Insert x into chain, a list of elements in increasing order, at
    index rank; returns the facts that present the grown order given the
    old one: ``el x`` and one lt fact between x and each element of the
    old chain, in chain order."""
    facts = [("el", x)]
    for y in chain[:rank]:
        facts.append(("lt", y, x))
    for y in chain[rank:]:
        facts.append(("lt", x, y))
    chain.insert(rank, x)
    return facts

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
a comparison of sort keys and must agree with it.
"""

from __future__ import annotations

from math import isqrt

from embedlab.classify import ElementTrace, OrderFingerprint
from embedlab.combinators import Replicate, Reverse
from embedlab.constructions import (
    ClassMultiplier,
    Eq2Ord,
    Formula2Eq,
    Ord2Eq,
    absolute_tuple,
)
from embedlab.diagram import InconsistentDiagram, ParseError, el, sim
from embedlab.pairing import encode_tuple, pair, tag
from embedlab.sigma2 import refuting_witness_values


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
    try:
        args = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(f"non-natural argument in {line!r}") from None
    if any(a < 0 for a in args):
        raise ParseError(f"negative argument in {line!r}")
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

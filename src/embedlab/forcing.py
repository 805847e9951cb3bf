"""Bounded evaluator for the extension-forcing relation on order outputs.

An input diagram forces an output atom x < y when both elements are
already enumerated and no finite extension of the input makes the operator
enumerate y < x.  The search here ranges over all total extensions by at
most `ext_bound` fresh elements (canonical ids above the current maximum),
so the verdict is three-valued: REFUTED comes with a certificate
extension, FORCED is only claimed for operators flagged extension-complete
(their output order on old elements is determined by the input alone), and
everything else is UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .diagram import (
    FiniteDiagram,
    InvalidInput,
    InvalidSpec,
    NotInOutput,
    PlacementBatch,
    Signature,
    diagram_from_facts,
    total_order_diagram,
)
from .kernel import (
    EnumerationOperator,
    TuringConstruction,
    _check_input,
    evaluate_facts,
)

FORCED = "FORCED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


@dataclass
class ForcingQuery:
    op: EnumerationOperator
    alpha: FiniteDiagram
    atom: tuple  # ("lt", x, y) over output elements
    ext_bound: int
    budget: int


@dataclass
class ForcingVerdict:
    outcome: str
    certificate: FiniteDiagram | None = None


def extensions(alpha: FiniteDiagram, ext_bound: int):
    """The chains of all total orders extending alpha by at most ext_bound
    fresh elements.

    Fresh ids are canonical (max id + 1 upward); each arrangement is
    produced exactly once, alpha's own chain first.
    """
    base = alpha.chain()
    next_id = (max(alpha.domain) + 1) if alpha.domain else 0
    frontier = [base]
    yield base
    for j in range(ext_bound):
        fresh = next_id + j
        new_frontier = []
        for chain in frontier:
            for pos in range(len(chain) + 1):
                ext = chain[:pos] + [fresh] + chain[pos:]
                new_frontier.append(ext)
                yield ext
        frontier = new_frontier


def _output(op: EnumerationOperator, chain: list, budget: int):
    """op's output on the all-pairs total order of chain (operators may
    read stored facts, so every extension is evaluated as its closure).
    An order operator's PlacementBatch is kept as its chain, a tuple; any
    other output is kept as a diagram of the facts it stores."""
    out = evaluate_facts(op, total_order_diagram(chain), budget)
    if isinstance(out, PlacementBatch):
        return out.chain
    return diagram_from_facts(op.output_signature, out)


def _domain(out) -> frozenset:
    """The elements of an _output."""
    return frozenset(out) if isinstance(out, tuple) else out.domain


def _lt_pairs(out, wanted: set) -> set:
    """The pairs (a, b) of elements of wanted with a below b in the order
    an _output presents: read by position from a chain restricted to
    wanted, a total diagram's included, and else from the transitive
    closure of a diagram's lt facts, which need not be closed."""
    if not isinstance(out, tuple) and out.is_total():
        out = tuple(out.chain())
    if isinstance(out, tuple):
        return set(combinations([e for e in out if e in wanted], 2))
    pairs = {f[1:] for f in out.facts if f[0] == "lt"}
    while grown := {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs:
        pairs |= grown
    return {(a, b) for a, b in pairs if a != b and a in wanted and b in wanted}


def bounded_force(query: ForcingQuery) -> ForcingVerdict:
    """Three-valued bounded decision of alpha forcing the atom.  op must
    be a batch operator, not a stage construction, and alpha gets the
    checks of its evaluation (kernel._check_input) first."""
    op, alpha, atom = query.op, query.alpha, query.atom
    if isinstance(op, TuringConstruction):
        raise InvalidSpec(f"{op.name} is a stage construction, not an operator "
                          "a forcing query can evaluate")
    _check_input(op, alpha, query.budget)
    if op.output_signature is not Signature.LINEAR_ORDER:
        raise InvalidSpec("forcing queries concern order outputs")
    if atom[0] != "lt" or len(atom) != 3 or atom[1] == atom[2]:
        raise InvalidSpec(f"atom must be lt over distinct elements: {atom!r}")
    if not alpha.is_total():
        raise InvalidInput("alpha must be a total linear order")
    if query.ext_bound < 0:
        raise InvalidSpec(f"ext_bound must be a natural, got {query.ext_bound}")
    x, y = atom[1], atom[2]
    wanted = {x, y}
    for n, chain in enumerate(extensions(alpha, query.ext_bound)):
        out = _output(op, chain, query.budget)
        # The first extension is alpha's own chain; its output must hold
        # the atom's elements.
        if n == 0 and not wanted <= _domain(out):
            raise NotInOutput(f"atom elements not in the output of alpha: {atom!r}")
        if (y, x) in _lt_pairs(out, wanted):
            return ForcingVerdict(REFUTED, certificate=total_order_diagram(chain))
    if op.extension_complete:
        return ForcingVerdict(FORCED)
    return ForcingVerdict(UNKNOWN)


def _all_total_orders(universe: list, max_size: int):
    """Every total order on a nonempty subset of the universe, each once."""
    for size in range(1, max_size + 1):
        for subset in combinations(universe, size):
            for order in permutations(subset):
                yield list(order)


@dataclass
class ScanReport:
    operator: str
    params: dict
    checked: int = 0
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations


def _refuted_pairs(op, alpha, elements, ext_bound, budget) -> set:
    """Ordered pairs (a, b) with lt(a, b) enumerated by some extension.

    One pass over the bounded extension set; by the definition of the
    forcing relation, alpha refutes x < y exactly when (y, x) is in this
    set.  Equivalent to querying bounded_force per pair, verified against
    it in the test suite.
    """
    wanted = set(elements)
    seen = set()
    for chain in extensions(alpha, ext_bound):
        seen |= _lt_pairs(_output(op, chain, budget), wanted)
    return seen


def _forced_order(op, alpha, elements, ext_bound, budget) -> tuple:
    """(order or None, violations) for the pairwise forcing verdicts."""
    if not op.extension_complete:
        raise InvalidSpec("scans require an extension-complete operator")
    violations = []
    forced = {}
    items = sorted(elements)
    refuted = _refuted_pairs(op, alpha, items, ext_bound, budget)
    for i, x in enumerate(items):
        for y in items[i + 1:]:
            x_below = (y, x) not in refuted
            y_below = (x, y) not in refuted
            if x_below == y_below:
                violations.append({
                    "alpha": alpha.chain(),
                    "pair": [x, y],
                    "outcomes": "both forced" if x_below else "both refuted",
                })
                continue
            forced[(x, y)] = x_below
    if violations or not items:
        return None, violations
    wins = {x: 0 for x in items}
    for (x, y), x_below in forced.items():
        wins[x if x_below else y] += 1
    order = sorted(items, key=lambda x: -wins[x])
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            below = forced.get((min(x, y), max(x, y)))
            ok = below if x < y else (below is False)
            if not ok:
                violations.append({
                    "alpha": alpha.chain(),
                    "pair": [x, y],
                    "outcomes": "forced facts are not a total order",
                })
    return (order if not violations else None), violations


def trichotomy_scan(
    op: EnumerationOperator,
    max_alpha: int,
    ext_bound: int,
    budget: int,
) -> ScanReport:
    """Check that every pair of output elements is decided exactly one way,
    the forced facts assemble into one total order per input, and that
    order is stable under one-element input extensions.

    Inputs range over all total orders on subsets of 0..max_alpha-1.  The
    stability legs re-derive the forced order of each extended input at
    extension bound 1; for extension-complete operators the verdicts are
    bound-invariant, which the main legs confirm at the full bound.
    """
    report = ScanReport(op.name, {
        "max_alpha": max_alpha, "ext_bound": ext_bound, "budget": budget,
    })
    permutations_by_alpha = {}
    for chain in _all_total_orders(list(range(max_alpha)), max_alpha):
        alpha = total_order_diagram(chain)
        elements = sorted(_domain(_output(op, chain, budget)))
        order, violations = _forced_order(op, alpha, elements, ext_bound, budget)
        report.checked += 1
        report.violations.extend(violations)
        if order is None:
            continue
        permutations_by_alpha[" ".join(map(str, chain))] = order
        fresh = (max(chain) + 1) if chain else 0
        wanted = set(elements)
        for pos in range(len(chain) + 1):
            ext_chain = chain[:pos] + [fresh] + chain[pos:]
            ext_alpha = total_order_diagram(ext_chain)
            ext_order, ext_viol = _forced_order(
                op, ext_alpha, elements, 1, budget
            )
            report.violations.extend(ext_viol)
            restricted = [x for x in (ext_order or []) if x in wanted]
            if ext_order is not None and restricted != order:
                report.violations.append({
                    "alpha": chain,
                    "extension": ext_chain,
                    "outcomes": "forced order changed under extension",
                })
    report.details["permutations"] = permutations_by_alpha
    return report

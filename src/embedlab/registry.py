"""Operator registry and the combinator expression grammar.

Expressions name a registered operator, optionally parameterized
(``replicate:3``), and combine with ``concat(a,b)``, ``union(a,b)``,
``rev(a)`` and the postfix fills ``a|fill:left`` / ``a|fill:right``.
The stage constructions phi_pair and phi_sigma2 are standalone (they
consume streams statefully and cannot be combined).
"""

from __future__ import annotations

from .combinators import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    Concatenate,
    DisjointUnion,
    IntervalFill,
    Reverse,
    replicate,
)
from .constructions import (
    StagePair,
    class_multiplier,
    eq2ord_v1,
    eq2ord_v2,
    formula2eq,
    ord2eq,
    pair_formula2eq,
    phi_pair,
    phi_sigma2,
)
from .diagram import InvalidSpec, is_natural
from .sigma2 import greatest_element_sentence, least_element_sentence

CONSTRUCTION_IDS = ("phi_pair", "phi_sigma2")


def _atom(name: str, params: dict):
    head, _, arg = name.partition(":")
    if head == "replicate":
        if not is_natural(arg):
            raise InvalidSpec(f"replicate needs a positive count: {name!r}")
        return replicate(int(arg))
    if arg:
        raise InvalidSpec(f"operator {head!r} takes no parameter")
    if head == "ord2eq":
        return ord2eq()
    if head == "eq2ord_v1":
        return eq2ord_v1()
    if head == "eq2ord_v2":
        return eq2ord_v2()
    if head == "class_multiplier":
        return class_multiplier()
    if head == "formula2eq":
        return formula2eq(params.get("phi") or least_element_sentence())
    if head == "pair_formula2eq":
        return pair_formula2eq(
            params.get("phi") or least_element_sentence(),
            params.get("psi") or greatest_element_sentence(),
        )
    raise InvalidSpec(f"unknown operator {head!r}")


def _split_args(body: str) -> list:
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse(expr: str, params: dict):
    expr = expr.strip()
    # Postfix fills bind to the whole prefix expression.
    if "|" in expr:
        depth = 0
        for i in range(len(expr) - 1, -1, -1):
            ch = expr[i]
            if ch == ")":
                depth += 1
            elif ch == "(":
                depth -= 1
            elif ch == "|" and depth == 0:
                suffix = expr[i + 1:].strip()
                if suffix not in ("fill:left", "fill:right"):
                    raise InvalidSpec(f"unknown postfix {suffix!r}")
                style = LEFT_CLOSED if suffix.endswith("left") else RIGHT_CLOSED
                return IntervalFill(_parse(expr[:i], params), style)
    for head, cls in (("concat", Concatenate), ("union", DisjointUnion)):
        if expr.startswith(head + "(") and expr.endswith(")"):
            args = _split_args(expr[len(head) + 1:-1])
            if len(args) != 2:
                raise InvalidSpec(f"{head} takes two arguments: {expr!r}")
            return cls(_parse(args[0], params), _parse(args[1], params))
    if expr.startswith("rev(") and expr.endswith(")"):
        return Reverse(_parse(expr[4:-1], params))
    if expr.partition(":")[0] in CONSTRUCTION_IDS:
        raise InvalidSpec(f"{expr!r} is a stage construction, not composable")
    return _atom(expr, params)


def build_operator(expr: str, phi=None, psi=None, targets: StagePair | None = None):
    """Resolve an expression into an operator or a stage construction."""
    expr = expr.strip()
    params = {"phi": phi, "psi": psi}
    if expr == "phi_pair":
        if targets is None:
            raise InvalidSpec("phi_pair needs a pair of target streams")
        return phi_pair(targets)
    if expr == "phi_sigma2":
        return phi_sigma2(
            phi or least_element_sentence(),
            psi or greatest_element_sentence(),
        )
    return _parse(expr, params)

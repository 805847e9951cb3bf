"""Budgeted enumeration operators, stage constructions, and run machinery.

An enumeration operator maps finite diagrams to finite diagrams under two
laws that together realize a c.e. set of (premise, fact) axioms:

* input monotonicity:  alpha <= beta  implies  eval(alpha, n) <= eval(beta, n)
* budget monotonicity: n <= m         implies  eval(alpha, n) <= eval(alpha, m)

Budget 0 yields the empty diagram; the union over all budgets is the
operator's full (possibly infinite) output on that input.  Each operator is
defined once, by its stream evaluator: a ``step(diagram, delta, budget)``
that emits only the facts new since the previous step, whether they are
due to input growth (the delta) or to budget growth.
Batch evaluation is derived from it: ``eval(alpha, n)`` takes one step of
a fresh evaluator over all of alpha at budget n; ``budget_deltas`` and
``eval_chain`` are that step at budget 0 followed by budget-only steps,
so budget monotonicity holds by construction.  All three batch entry
points first make the same checks (_check_input): the signature of alpha
and a natural budget.

A stage construction consumes a stream of growing input diagrams and emits
a cumulative output stage plus bookkeeping annotations at each step, by
the same ``step`` with the budget ignored.

run() draws its stages from StructureStream.iter_stages: one
FiniteDiagram per run, built empty and grown by each delta, which a step
must not keep past its step.  Each step gets only the facts new to the
diagram, so a stream built in code that repeats a fact passes it on
once.

The built-in order operators and constructions return each step's new
facts as a diagram.PlacementBatch, and ord2eq as a diagram.ClassBatch;
run() keeps either as the stage record as it is, and its facts are built
only when the record is read.  RunLog.to_jsonl writes every record
through one template: a batch's from the blocks diagram.format_blocks
renders, byte for byte the lines of its facts, and a fact list's from its
lines (diagram.format_facts).  RunLog.from_jsonl reads order records back
as placement batches, checking each against the same blocks, and
equivalence records as fact lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .diagram import (
    ClassBatch,
    FiniteDiagram,
    IdText,
    InvalidInput,
    InvalidSchedule,
    InvalidSpec,
    ParseError,
    PlacementBatch,
    Signature,
    SignatureError,
    diagram_from_facts,
    format_blocks,
    format_facts,
    is_natural,
    _parse_facts,
    parse_batch,
)
from .streams import StructureStream


class EnumerationOperator:
    """Base class; subclasses override ``make_stream_evaluator``."""

    name = "operator"
    input_signature = Signature.LINEAR_ORDER
    output_signature = Signature.LINEAR_ORDER
    extension_complete = False

    def make_stream_evaluator(self) -> "StreamEvaluator":
        """A fresh evaluator; its ``step`` is the operator's definition."""
        raise NotImplementedError

    def budget_deltas(self, alpha: FiniteDiagram, max_budget: int) -> list:
        """Facts new at each budget 0..max_budget (index 0 is empty), as
        the steps return them.  Checks the signature and the budget first."""
        _check_input(self, alpha, max_budget)
        evaluator = self.make_stream_evaluator()
        deltas = [evaluator.step(alpha, _as_delta(alpha), 0)[0]]
        for n in range(1, max_budget + 1):
            deltas.append(evaluator.step(alpha, [], n)[0])
        return deltas

    def eval_chain(self, alpha: FiniteDiagram, max_budget: int) -> list:
        """Cumulative fact sets at budgets 0..max_budget."""
        chain = []
        acc: frozenset = frozenset()
        for delta in self.budget_deltas(alpha, max_budget):
            if delta:
                acc = acc | frozenset(delta)
            chain.append(acc)
        return chain

    def eval(self, alpha: FiniteDiagram, budget: int) -> FiniteDiagram:
        """Checked batch evaluation: evaluate_facts as a diagram."""
        return diagram_from_facts(self.output_signature, evaluate_facts(self, alpha, budget))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _as_delta(alpha: FiniteDiagram) -> list:
    """All of alpha as one sorted delta, with an el fact for every element
    (diagram files may leave them implicit)."""
    return sorted(alpha.facts.union([("el", x) for x in alpha.domain]))


def _check_input(op: EnumerationOperator, alpha: FiniteDiagram, budget: int) -> None:
    """The checks of every batch entry point: alpha has op's input
    signature, and the budget is a natural."""
    if alpha.signature is not op.input_signature:
        raise SignatureError(
            f"{op.name} expects {op.input_signature.value} input, "
            f"got {alpha.signature.value}"
        )
    if budget < 0:
        raise InvalidSpec("budget must be a natural")


def evaluate_facts(op: EnumerationOperator, alpha: FiniteDiagram, budget: int):
    """op.eval's facts as op's step returns them, unbuilt: a list, the
    PlacementBatch of a built-in order operator or the ClassBatch of a
    built-in equivalence operator.  Checks the signature and the budget
    first.  The step is the first of a fresh evaluator, so a PlacementBatch
    places its whole chain, and the chain orders every pair of the
    output."""
    _check_input(op, alpha, budget)
    return op.make_stream_evaluator().step(alpha, _as_delta(alpha), budget)[0]


class StreamEvaluator:
    """Incremental evaluation along a stream; emits per-stage new facts."""

    def step(self, diagram: FiniteDiagram, delta: list, budget: int):
        """Returns (new output facts, annotations or None).

        diagram is the cumulative input and delta its facts new since the
        previous step (empty for a budget-only step); budgets never
        decrease.  The facts returned over all steps so far must equal the
        operator's output on diagram at budget.
        """
        raise NotImplementedError


class TuringConstruction:
    """Stateful stage-by-stage builder; output stages are cumulative.  It is
    its own stream evaluator: ``make_stream_evaluator`` returns a fresh
    instance, and ``step`` is StreamEvaluator.step with the budget ignored."""

    name = "construction"
    input_signature = Signature.LINEAR_ORDER
    output_signature = Signature.LINEAR_ORDER

    def make_stream_evaluator(self) -> "TuringConstruction":
        raise NotImplementedError

    def step(self, diagram: FiniteDiagram, delta: list, budget: int):
        raise NotImplementedError


@dataclass
class StageRecord:
    """One stage of a run: its new facts, sorted (a list, or a
    PlacementBatch or ClassBatch that yields them), and the operator's
    annotations."""

    stage: int
    new_facts: list | PlacementBatch | ClassBatch
    annotations: dict | None = None


@dataclass
class RunLog:
    """Per-stage record of one operator or construction run."""

    operator: str
    signature: Signature
    provenance: str
    schedule: str
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def final_facts(self) -> frozenset:
        return frozenset().union(*(rec.new_facts for rec in self.records))

    def final_diagram(self) -> FiniteDiagram:
        return diagram_from_facts(self.signature, self.final_facts())

    def to_jsonl(self) -> str:
        lines = [json.dumps({
            "v": 1,
            "type": "header",
            "operator": self.operator,
            "signature": self.signature.value,
            "provenance": self.provenance,
            "schedule": self.schedule,
        }, sort_keys=True)]
        text = IdText()
        for rec in self.records:
            facts = rec.new_facts
            # Fact lines hold only ASCII letters, digits and spaces, so
            # each is its own JSON string, and lines or blocks joined by
            # the separator json.dumps puts between strings are its list.
            if isinstance(facts, (PlacementBatch, ClassBatch)):
                facts = format_blocks(facts, text, '", "')
            else:
                facts = format_facts(facts)
            body = '", "'.join(facts)
            quote = '"' if body else ""
            lines.append('{"annotations": %s, "new_facts": [%s%s%s], "stage": %s, "v": 1}' % (
                json.dumps(rec.annotations, sort_keys=True), quote, body, quote,
                json.dumps(rec.stage)))
        lines.append("")  # the final newline, without copying the text
        return "\n".join(lines)

    @staticmethod
    def from_jsonl(text: str) -> "RunLog":
        """Read and validate a run log.  The records of an order log are
        read as placement batches while each is byte for byte what
        to_jsonl writes for one (diagram.parse_batch); from the first
        record that is not, they are parsed as facts (parse_facts), and a
        fact whose relation the header's signature does not admit raises
        SignatureError.  Both readings give the same facts, errors and
        messages."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty run log")
        header = _json_record(lines[0], 1, ("type", "operator", "signature"))
        if header["type"] != "header":
            raise ParseError("run log must start with a header record")
        try:
            signature = Signature(header["signature"])
        except ValueError:
            raise ParseError(f"unknown signature {header['signature']!r}") from None
        log = RunLog(
            operator=header["operator"],
            signature=signature,
            provenance=header.get("provenance", ""),
            schedule=header.get("schedule", ""),
        )
        batches = signature is Signature.LINEAR_ORDER
        chain, text = (), {}
        for n, ln in enumerate(lines[1:], start=2):
            rec = _json_record(ln, n, ("stage", "new_facts"))
            stage = rec["stage"]
            if type(stage) is not int or stage < 0:
                raise ParseError(f"run log line {n}: stage must be a natural")
            if log.records and stage <= log.records[-1].stage:
                raise ParseError(
                    f"run log line {n}: stage {stage} does not follow "
                    f"stage {log.records[-1].stage}")
            facts = parse_batch(rec["new_facts"], chain, text) if batches else None
            if facts is not None:
                chain = facts.chain
            else:
                batches = False
                try:
                    facts = _parse_facts(rec["new_facts"], signature)
                except (AttributeError, TypeError):
                    raise ParseError(f"run log line {n}: new_facts must list facts") from None
            notes = rec.get("annotations")
            _check_annotations(notes, n)
            log.records.append(StageRecord(stage, facts, notes))
        return log

    @staticmethod
    def from_stream(stream: StructureStream) -> "RunLog":
        """View a stream as a run log (for direct classification).  A
        stage read as a PlacementBatch is kept as its record, so classify
        reads the chains of a stream of such stages (diagram.arrivals);
        any other stage's facts are sorted."""
        log = RunLog(
            operator="stream",
            signature=stream.signature,
            provenance=stream.provenance,
            schedule="n/a",
        )
        for s, delta in enumerate(stream.deltas):
            if not isinstance(delta, PlacementBatch):
                delta = sorted(delta)
            log.records.append(StageRecord(stage=s, new_facts=delta))
        return log


# Annotations that pin a class of an equivalence output; a census reads them.
PIN_KEYS = ("pinned_size1", "pinned_size2")


def _check_annotations(notes, n: int) -> None:
    """Annotations are null or an object, and each pin is null or a natural."""
    if notes is None:
        return
    if not isinstance(notes, dict):
        raise ParseError(f"run log line {n}: annotations must be an object or null")
    for key in PIN_KEYS:
        pin = notes.get(key)
        if pin is not None and (type(pin) is not int or pin < 0):
            raise ParseError(f"run log line {n}: {key} must be a natural or null")


def _json_record(line: str, n: int, keys: tuple) -> dict:
    """One run-log line as a version-1 JSON object holding the given keys."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"run log line {n} is not JSON: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise ParseError(f"run log line {n} is not a JSON object")
    if rec.get("v") != 1:
        raise ParseError(f'run log line {n}: version {rec.get("v")!r}, needs "v": 1')
    if not all(k in rec for k in keys):
        raise ParseError(f"run log line {n} needs the keys {', '.join(keys)}")
    return rec


def schedule_identity(s: int) -> int:
    return s


def parse_schedule(text: str) -> tuple[str, Callable[[int], int]]:
    """``identity`` | ``const:N`` | ``capped:N``; all monotone."""
    if text == "identity":
        return text, schedule_identity
    kind, _, arg = text.partition(":")
    if kind in ("const", "capped") and is_natural(arg):
        n = int(arg)
        if kind == "const":
            return text, lambda s: n
        return text, lambda s: min(s, n)
    raise InvalidSchedule(f"unknown schedule {text!r}")


def run(
    op,
    stream: StructureStream,
    stages: int,
    schedule: Callable[[int], int] = schedule_identity,
    schedule_name: str = "identity",
) -> RunLog:
    """Drive an operator or construction along a stream presentation."""
    if stages < 1 or stages > len(stream):
        raise InvalidInput(f"stages must be in 1..{len(stream)}")
    budgets = [schedule(s) for s in range(stages)]
    if any(b < 0 for b in budgets) or any(
        budgets[i] > budgets[i + 1] for i in range(stages - 1)
    ):
        raise InvalidSchedule("budget schedule must be monotone and natural")
    if stream.signature is not op.input_signature:
        raise SignatureError(
            f"{op.name} expects {op.input_signature.value} input stream"
        )

    log = RunLog(
        operator=op.name,
        signature=op.output_signature,
        provenance=stream.provenance,
        schedule=schedule_name,
    )
    evaluator = op.make_stream_evaluator()
    stage_iter = stream.iter_stages()
    for s in range(stages):
        stage = next(stage_iter)
        new_facts, notes = evaluator.step(stage, stage.delta, budgets[s])
        if not isinstance(new_facts, (PlacementBatch, ClassBatch)):
            new_facts = sorted(new_facts)
        log.records.append(StageRecord(s, new_facts, notes))
    return log

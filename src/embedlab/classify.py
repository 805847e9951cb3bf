"""Desk-scale analysis of run logs: class censuses for equivalence outputs,
predecessor/successor stability fingerprints for order outputs, and the
aggregate consistency verdicts.

All analyses are pure functions of the log.  Freeze detection prefers the
operator's own pin annotations (a class counts as frozen only if the same
class was pinned at every stage of the trailing window); the no-growth
window heuristic applies only to logs without pin annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    InvalidSpec,
    Signature,
    SignatureError,
    _UnionFind,
    arrivals,
)
from .kernel import PIN_KEYS, RunLog
from .streams import CanonicalSpec


@dataclass
class ClassRecord:
    representative: int
    size: int
    frozen: bool
    last_growth_stage: int


@dataclass
class ClassCensus:
    stages: int
    window: int
    annotated: bool
    classes: list = field(default_factory=list)

    def frozen_of_size(self, size: int) -> list:
        return [c for c in self.classes if c.frozen and c.size == size]

    def frozen_classes(self) -> list:
        return [c for c in self.classes if c.frozen]


def census(log: RunLog, stability_window: int) -> ClassCensus:
    """Class census of an equivalence output log at its final stage.

    One replay, each fact once (_UnionFind.replay): each class is held by
    its root (its least member) with its size and the last stage at which
    it grew, by an element's entry or by a sim fact; joining two classes
    keeps the later of their two stages and the fact's.  A pinned class is
    frozen when it holds a pin at every stage of the trailing window, as
    judged by the final partition.
    """
    if stability_window < 1:
        raise InvalidSpec("the stability window must be >= 1")
    if log.signature is not Signature.EQUIVALENCE:
        raise SignatureError("census requires an equivalence log")
    classes = _UnionFind()
    grew: dict = {}  # root -> last stage its class grew
    pins: list = []  # per stage: set of pinned element ids, or None
    for rec in log.records:
        notes = rec.annotations or {}
        keys = [k for k in PIN_KEYS if k in notes]
        pins.append({notes[k] for k in keys if notes[k] is not None}
                    if keys else None)
        classes.replay(rec.new_facts, rec.stage, grew)

    final_stage = log.records[-1].stage if log.records else -1
    annotated = any(p is not None for p in pins)
    stably_pinned: set = set()
    window = pins[-stability_window:]
    if annotated and None not in window:
        stably_pinned = set.intersection(*(
            {classes.find(y) for y in p if y in classes.parent} for p in window
        ))

    result = ClassCensus(
        stages=len(log.records), window=stability_window, annotated=annotated
    )
    for root in sorted(classes.size):
        frozen = (root in stably_pinned if annotated
                  else grew[root] <= final_stage - stability_window)
        result.classes.append(ClassRecord(root, classes.size[root], frozen, grew[root]))
    return result


@dataclass
class ElementTrace:
    entered_at: int
    pred_changes: int = 0
    succ_changes: int = 0


@dataclass
class OrderFingerprint:
    stages: int
    threshold: int
    elements: dict = field(default_factory=dict)
    pred_unstable: list = field(default_factory=list)
    succ_unstable: list = field(default_factory=list)
    stable_least: int | None = None
    stable_greatest: int | None = None


def fingerprint(log: RunLog, threshold: int) -> OrderFingerprint:
    """Replay an order log and count immediate-neighbour changes.  The
    log is read through one arrivals call: from its records' chains when
    they are placement batches that grow one another, as a built-in order
    operator's are in memory and decoded, else from the order of all its
    facts.

    An element is pred-unstable when its immediate predecessor changed at
    `threshold` or more distinct stages after entry; dually for succ.  The
    stable endpoints are the final extremes when their identity held
    through the last `threshold` stages.
    """
    if threshold < 1:
        raise InvalidSpec("the fingerprint threshold must be >= 1")
    if log.signature is not Signature.LINEAR_ORDER:
        raise SignatureError("fingerprint requires a linear order log")
    traces: dict = {}
    chain: list = []
    least_change_stage = greatest_change_stage = -1
    records = log.records
    for n, new_elements, chain in arrivals(rec.new_facts for rec in records):
        stage = records[n].stage
        fresh = set(new_elements)
        for x in sorted(fresh):
            traces[x] = ElementTrace(entered_at=stage)
        # Old elements keep their relative order, so an old element's
        # neighbour changed at this stage iff a new element is next to it.
        preds, succs = set(), set()
        last = len(chain) - 1
        for x in fresh:
            i = chain.index(x)
            if i > 0:
                succs.add(chain[i - 1])
            if i < last:
                preds.add(chain[i + 1])
        for y in preds - fresh:
            traces[y].pred_changes += 1
        for y in succs - fresh:
            traces[y].succ_changes += 1
        if chain[0] in fresh:
            least_change_stage = stage
        if chain[-1] in fresh:
            greatest_change_stage = stage

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


@dataclass
class ConsistencyVerdict:
    claim: str
    verdict: str  # CONSISTENT | INCONSISTENT
    evidence: dict

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"


def consistency_verdict(
    log: RunLog,
    claimed: CanonicalSpec,
    threshold: int = 5,
    window: int = 30,
) -> ConsistencyVerdict:
    """Is the log consistent, at desk scale, with the claimed structure?

    Order claims are judged on the stability fingerprint (block count via
    pred/succ-unstable elements, endpoint stability, density proxies);
    equivalence claims on the frozen-class census.  These are finite-stage
    proxies for limit properties and are labelled as such in the evidence.
    """
    family = claimed.family
    problems: list = []
    if claimed.signature is not log.signature:
        raise SignatureError("claim signature does not match the log")

    if claimed.signature is Signature.LINEAR_ORDER:
        fp = fingerprint(log, threshold)
        evidence = {
            "proxy": "order fingerprint",
            "threshold": threshold,
            "pred_unstable": fp.pred_unstable,
            "succ_unstable": fp.succ_unstable,
            "stable_least": fp.stable_least,
            "stable_greatest": fp.stable_greatest,
        }
        unstable = {"pred": fp.pred_unstable, "succ": fp.succ_unstable}
        ends = {"least": fp.stable_least, "greatest": fp.stable_greatest}
        if family in ("omega", "omega_k", "omega_star", "omega_star_k"):
            # omega.m: the minima of its m - 1 limit blocks are pred-unstable,
            # nothing is succ-unstable, the least element is stable and no
            # greatest one is.  omega*.m is the mirror: pred<->succ and
            # least<->greatest swapped.
            m = claimed.k if family.endswith("_k") else 1
            limit, settled, end, open_end = "pred", "succ", "least", "greatest"
            if family.startswith("omega_star"):
                limit, settled, end, open_end = "succ", "pred", "greatest", "least"
            if len(unstable[limit]) != m - 1:
                problems.append(
                    f"expected {m - 1} {limit}-unstable elements, "
                    f"found {unstable[limit]}"
                )
            if unstable[settled]:
                problems.append(f"{settled}-unstable elements {unstable[settled]}")
            if ends[end] is None:
                problems.append(f"no stable {end} element")
            if ends[open_end] is not None:
                problems.append(f"stable {open_end} element {ends[open_end]}")
        elif family in ("one_plus_eta", "eta", "eta_plus_one"):
            wanted = {"least": family == "one_plus_eta",
                      "greatest": family == "eta_plus_one"}
            for end, want in wanted.items():
                if want != (ends[end] is not None):
                    problems.append(
                        f"stable {end} is {ends[end]}, "
                        f"expected {'present' if want else 'absent'}"
                    )
            if not fp.pred_unstable or not fp.succ_unstable:
                problems.append(
                    "dense order should churn neighbours on both sides: "
                    f"pred {fp.pred_unstable}, succ {fp.succ_unstable}"
                )
        else:
            problems.append(f"no order rule for family {family}")
    else:
        c = census(log, window)
        evidence = {
            "proxy": "frozen-class census",
            "window": window,
            "frozen_sizes": sorted(r.size for r in c.frozen_classes()),
            "class_count": len(c.classes),
        }
        frozen = c.frozen_classes()
        unfrozen = [r for r in c.classes if not r.frozen]
        if family == "e":
            if frozen:
                problems.append(
                    f"frozen classes of sizes {[r.size for r in frozen]}"
                )
            if len(c.classes) < 2:
                problems.append("fewer than two classes")
        elif family == "e_k":
            if len(frozen) != 1 or frozen[0].size != claimed.k:
                problems.append(
                    f"expected exactly one frozen class of size {claimed.k}, "
                    f"found sizes {[r.size for r in frozen]}"
                )
        elif family == "e_hat_k":
            sizes = [r.size for r in frozen]
            if len(frozen) < 2 or any(s != claimed.k for s in sizes):
                problems.append(
                    f"expected two or more frozen classes all of size "
                    f"{claimed.k}, found sizes {sizes}"
                )
        else:
            problems.append(f"no equivalence rule for family {family}")
        if family in ("e_k", "e_hat_k") and len(unfrozen) < 2:
            problems.append("fewer than two growing classes")

    if problems:
        evidence["witness"] = problems
        return ConsistencyVerdict(claimed.label(), "INCONSISTENT", evidence)
    return ConsistencyVerdict(claimed.label(), "CONSISTENT", evidence)

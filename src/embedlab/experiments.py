"""The acceptance experiment suite.

Each experiment checks one headline property at desk scale and returns a
pass/fail verdict with evidence plus deterministic JSONL records.  The
suite is seeded: presentation seeds derive from the base seed, equal seeds
give byte-identical records.  Wall times live only in the summary, never
in the records.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import combinations, permutations

from .classify import census, consistency_verdict, fingerprint
from .combinators import LEFT_CLOSED, RIGHT_CLOSED, concatenate, interval_fill, replicate
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
from .diagram import (
    FiniteDiagram,
    Signature,
    diagram_from_facts,
    partition_diagram,
    total_order_diagram,
)
from .forcing import trichotomy_scan
from .kernel import evaluate_facts, run
from .pairing import decode_tuple, encode_tuple
from .sigma2 import greatest_element_sentence, least_element_sentence
from .streams import CanonicalSpec, _order_slot_keys, derive_seed, generate

PARAMS = {
    "monotonicity": {"max_size": 6, "max_budget": 16},
    "trichotomy": {"qs": [1, 2, 3], "max_alpha": 4, "ext_bound": 3, "budget": 8},
    "eq2ord_oracle": {"max_size": 5},
    "ord2eq_limits": {"runs": 20, "stages": 100, "window": 30},
    "phi_pair": {"runs": 20, "domain": 64, "max_switch_stage": 40},
    "phi_sigma2": {"runs": 20, "stages": 100, "suffix": 50},
    "divisibility": {"cases": [[1, 2], [2, 2], [2, 3], [3, 2]],
                     "stages": 300, "threshold": 5},
    "top_pair": {"ks": [1, 2, 3], "stages": 100, "window": 30,
                 "endpoint_threshold": 20},
}


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    evidence: dict
    records: list = field(default_factory=list)
    wall_seconds: float = 0.0


def _rec(experiment: str, **kv) -> dict:
    rec = {"v": 1, "experiment": experiment}
    rec.update(kv)
    return rec


def shipped_order_operators() -> list:
    return [
        replicate(1),
        replicate(2),
        replicate(3),
        ord2eq(),
        formula2eq(least_element_sentence(), 1),
        formula2eq(greatest_element_sentence(), 2),
        pair_formula2eq(least_element_sentence(), greatest_element_sentence()),
    ]


def shipped_equiv_operators() -> list:
    return [eq2ord_v1(), eq2ord_v2(), class_multiplier()]


def _all_chains(max_size: int):
    for k in range(1, max_size + 1):
        for perm in permutations(range(k)):
            yield list(perm)


def _set_partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def experiment_monotonicity(seed: int) -> ExperimentResult:
    """Criterion 1: exhaustive covering-pair monotonicity for every shipped
    operator at budgets <= 16.

    beta ranges over all diagrams on canonical domains (total orders up to
    size 6, resp. partition diagrams up to size 6); alpha over the covering
    subdiagrams (one element dropped, resp. one stored fact dropped).  For
    each budget n the check is delta(alpha, n) <= eval(beta, n); together
    with cumulative budget chains (eval is the union of its deltas by
    construction, exercised directly in the unit tests) this reconstructs
    evaluate(alpha, n) <= evaluate(beta, m) for every alpha <= beta in the
    lattice and all n <= m, by transitivity along covering chains.
    """
    p = PARAMS["monotonicity"]
    max_budget = p["max_budget"]
    records = []
    violations = []
    pairs_checked = 0
    delta_memo: dict = {}

    def deltas_of(op_idx, op, alpha):
        # Kept as fact lists: each is read once for every beta above alpha.
        key = (op_idx, alpha.facts)
        if key not in delta_memo:
            delta_memo[key] = [list(d) for d in op.budget_deltas(alpha, max_budget)]
        return delta_memo[key]

    def check(op_idx, op, beta, alphas, label):
        nonlocal pairs_checked
        beta_chain = op.eval_chain(beta, max_budget)
        for alpha in alphas:
            pairs_checked += 1
            deltas = deltas_of(op_idx, op, alpha)
            for n in range(max_budget + 1):
                for fact in deltas[n]:
                    if fact not in beta_chain[n]:
                        violations.append({
                            "operator": op.name, "case": label,
                            "budget": n, "fact": list(fact),
                        })
                        return

    order_diagrams = [
        (chain, total_order_diagram(chain)) for chain in _all_chains(p["max_size"])
    ]
    for op_idx, op in enumerate(shipped_order_operators()):
        for chain, beta in order_diagrams:
            alphas = [
                total_order_diagram([x for x in chain if x != dropped])
                for dropped in chain
            ]
            check(op_idx, op, beta, alphas, f"order:{' '.join(map(str, chain))}")
        records.append(_rec("monotonicity", operator=op.name,
                            input="orders", status="scanned"))

    equiv_diagrams = [
        partition_diagram(part)
        for k in range(1, p["max_size"] + 1)
        for part in _set_partitions(list(range(k)))
    ]

    for op_idx, op in enumerate(shipped_equiv_operators(), start=100):
        for beta in equiv_diagrams:
            alphas = [
                diagram_from_facts(Signature.EQUIVALENCE, beta.facts - {f})
                for f in sorted(beta.facts)
            ]
            check(op_idx, op, beta, alphas, "equivalence")
        records.append(_rec("monotonicity", operator=op.name,
                            input="partitions", status="scanned"))

    records.append(_rec("monotonicity", pairs_checked=pairs_checked,
                        violations=violations))
    return ExperimentResult(
        "monotonicity", not violations,
        {"pairs_checked": pairs_checked, "violations": violations}, records,
    )


def experiment_trichotomy(seed: int) -> ExperimentResult:
    """Criterion 2: forcing trichotomy and extension stability for
    replicate(q), q in {1,2,3}, over all inputs of up to four elements."""
    p = PARAMS["trichotomy"]
    records = []
    all_violations = []
    for q in p["qs"]:
        report = trichotomy_scan(
            replicate(q), p["max_alpha"], p["ext_bound"], p["budget"])
        all_violations.extend(report.violations)
        records.append(_rec(
            "trichotomy", q=q, alphas=report.checked,
            violations=report.violations,
            permutations={k: v for k, v in
                          sorted(report.details["permutations"].items())[:8]},
        ))
    return ExperimentResult(
        "trichotomy", not all_violations,
        {"violations": all_violations}, records,
    )


def _oracle_before(t: tuple, u: tuple) -> bool:
    """The oracle's tuple order, written out case by case: a proper
    extension comes before its prefix, else the first difference decides."""
    if len(t) > len(u) and t[: len(u)] == u:
        return True
    if len(u) > len(t) and u[: len(t)] == t:
        return False
    for a, b in zip(t, u):
        if a != b:
            return a < b
    return False


def _oracle_tuple_order(diagram: FiniteDiagram, interior_min: int,
                        last_min: int) -> list:
    """Brute-force admissible tuples, from scratch, encoded in the order
    _oracle_before sorts them.  The sort trusts _oracle_before to be a
    strict total order, so each consecutive pair is checked against it:
    an order that leaves two tuples unordered raises AssertionError."""
    sizes = {}
    for cls in diagram.sim_classes():
        for x in cls:
            sizes[x] = len(cls)
    admissible = []
    elements = sorted(diagram.domain)
    for length in range(1, len(elements) + 1):
        for t in combinations(elements, length):
            if all(sizes[x] >= interior_min for x in t[:-1]) and \
                    sizes[t[-1]] >= last_min:
                admissible.append(t)
    order = sorted(admissible, key=cmp_to_key(
        lambda t, u: -1 if _oracle_before(t, u) else 1))
    for t, u in zip(order, order[1:]):
        if not _oracle_before(t, u):
            raise AssertionError(f"oracle order leaves {t} and {u} unordered")
    return [encode_tuple(t) for t in order]


def _full_budget_for(max_size: int) -> int:
    """Budget large enough to admit every tuple over {0..max_size-1}."""
    from .constructions import absolute_tuple

    want = set()
    for length in range(1, max_size + 1):
        want.update(combinations(range(max_size), length))
    budget = 0
    while want:
        t = absolute_tuple(budget)
        want.discard(t)
        budget += 1
    return budget


def experiment_eq2ord_oracle(seed: int) -> ExperimentResult:
    """Criterion 3: operator tuple order equals the brute-force order on
    every stored-fact equivalence diagram with at most five elements,
    including the worked seven-tuple instance bit-exactly."""
    p = PARAMS["eq2ord_oracle"]
    budget = _full_budget_for(p["max_size"])
    v1 = eq2ord_v1()
    v2 = eq2ord_v2()
    checked = 0
    mismatches = []
    universe = list(range(p["max_size"]))
    for k in range(0, p["max_size"] + 1):
        for domain in combinations(universe, k):
            pairs = list(combinations(domain, 2))
            for mask in range(1 << len(pairs)):
                facts = [("el", x) for x in domain]
                facts += [("sim", a, b) for i, (a, b) in enumerate(pairs)
                          if mask >> i & 1]
                diagram = diagram_from_facts(Signature.EQUIVALENCE, facts)
                checked += 1
                chain1 = _output_chain(v1, diagram, budget)
                if chain1 != _oracle_tuple_order(diagram, 2, 1):
                    mismatches.append({"operator": "eq2ord_v1",
                                       "facts": sorted(map(list, facts))})
                chain2 = _output_chain(v2, diagram, budget)[::-1]
                if chain2 != _oracle_tuple_order(diagram, 3, 2):
                    mismatches.append({"operator": "eq2ord_v2",
                                       "facts": sorted(map(list, facts))})

    # Worked instance: classes {0,1},{2} in the stated order.
    worked = diagram_from_facts(
        Signature.EQUIVALENCE,
        [("el", 0), ("el", 1), ("el", 2), ("sim", 0, 1)],
    )
    order = [decode_tuple(e) for e in _output_chain(v1, worked, budget)]
    expected = [(0, 1, 2), (0, 1), (0, 2), (0,), (1, 2), (1,), (2,)]
    worked_ok = order == expected
    if not worked_ok:
        mismatches.append({"operator": "worked-example", "order": order})

    records = [_rec("eq2ord_oracle", diagrams_checked=checked, budget=budget,
                    worked_example=[list(t) for t in expected],
                    worked_ok=worked_ok, mismatches=mismatches)]
    return ExperimentResult(
        "eq2ord_oracle", not mismatches,
        {"diagrams_checked": checked, "mismatches": mismatches}, records,
    )


def _output_chain(op, diagram: FiniteDiagram, budget: int) -> list:
    """An order operator's output on diagram, as its chain: a list in
    increasing order, read from the step's PlacementBatch."""
    return list(evaluate_facts(op, diagram, budget).chain)


def experiment_ord2eq_limits(seed: int) -> ExperimentResult:
    """Criterion 4: ord2eq on seeded dense-order presentations freezes
    exactly the single endpoint class (size 1 with a least, size 2 with a
    greatest) and nothing else."""
    p = PARAMS["ord2eq_limits"]
    records = []
    failures = []
    for family, want1, want2 in (("one_plus_eta", 1, 0), ("eta_plus_one", 0, 1)):
        for i in range(p["runs"]):
            case_seed = derive_seed(seed, hash_stable(family) + i)
            stream = generate(
                CanonicalSpec(family, "permuted", seed=case_seed), p["stages"]
            )
            log = run(ord2eq(), stream, p["stages"])
            c = census(log, p["window"])
            got1 = len(c.frozen_of_size(1))
            got2 = len(c.frozen_of_size(2))
            ok = (got1, got2) == (want1, want2)
            if not ok:
                failures.append({"family": family, "seed": case_seed,
                                 "frozen1": got1, "frozen2": got2})
            records.append(_rec("ord2eq_limits", family=family,
                                case=i, seed=case_seed,
                                frozen_size1=got1, frozen_size2=got2, ok=ok))
    return ExperimentResult(
        "ord2eq_limits", not failures,
        {"runs": 2 * p["runs"], "failures": failures}, records,
    )


def hash_stable(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _fair_rank(spec: CanonicalSpec, t: int) -> int:
    """Rank of element t in stage t of spec's fair presentation: the
    number of elements before it whose slot key is smaller."""
    keys = _order_slot_keys(spec, t + 1)
    return sum(1 for key in keys if key < keys[t])


def experiment_phi_pair(seed: int) -> ExperimentResult:
    """Criterion 5: the guess construction stabilizes on every seeded
    presentation, the post-stabilization output follows the target's
    insertion ranks exactly, and monotone presentations switch at most
    twice."""
    p = PARAMS["phi_pair"]
    stages = p["domain"]
    target_specs = {"A": CanonicalSpec("omega_k", k=2),
                    "B": CanonicalSpec("omega_star_k", k=2)}
    targets = StagePair(generate(target_specs["A"], stages + 4),
                        generate(target_specs["B"], stages + 4))
    records = []
    failures = []

    def verify(log, want_building, label):
        switch_stages = [r.stage for r in log.records if r.annotations["switched"]]
        last_switch = max(switch_stages, default=-1)
        final = log.records[-1].annotations["building"]
        problems = []
        if final != want_building:
            problems.append(f"settled on {final}")
        if last_switch > p["max_switch_stage"]:
            problems.append(f"late switch at {last_switch}")
        target = target_specs[want_building]
        for r in log.records:
            a = r.annotations
            if r.stage <= last_switch:
                continue
            if a["switched"]:
                problems.append("switch after stabilization")
            elif r.stage > 0:
                if a["insert_rank"] != _fair_rank(target, a["t"]):
                    problems.append(f"rank mismatch at stage {r.stage}")
                    break
        if problems:
            failures.append({"case": label, "problems": problems})
        return {"switches": len(switch_stages), "last_switch": last_switch,
                "building": final, "ok": not problems}

    for family, want in (("omega", "A"), ("omega_star", "B")):
        for i in range(p["runs"]):
            case_seed = derive_seed(seed, hash_stable("pair" + family) + i)
            stream = generate(
                CanonicalSpec(family, "permuted", seed=case_seed), stages
            )
            log = run(phi_pair(targets), stream, stages)
            summary = verify(log, want, f"{family}:{case_seed}")
            records.append(_rec("phi_pair", family=family, case=i,
                                seed=case_seed, **summary))

    for family, policy, want in (("omega", "ascending", "A"),
                                 ("omega_star", "descending", "B")):
        stream = generate(CanonicalSpec(family, policy), stages)
        log = run(phi_pair(targets), stream, stages)
        summary = verify(log, want, f"{family}:{policy}")
        if summary["switches"] > 2:
            failures.append({"case": f"{family}:{policy}",
                             "problems": [f"{summary['switches']} switches"]})
        records.append(_rec("phi_pair", family=family, policy=policy, **summary))

    return ExperimentResult(
        "phi_pair", not failures,
        {"runs": 2 * p["runs"] + 2, "failures": failures}, records,
    )


def experiment_phi_sigma2(seed: int) -> ExperimentResult:
    """Criterion 6: on two-block inputs the placement sequence ends with a
    long one-sided suffix (top for omega-like, bottom for the dual)."""
    p = PARAMS["phi_sigma2"]
    records = []
    failures = []
    phi, psi = least_element_sentence(), greatest_element_sentence()
    for family, want in (("omega_k", "top"), ("omega_star_k", "bottom")):
        for i in range(p["runs"]):
            case_seed = derive_seed(seed, hash_stable("sigma" + family) + i)
            stream = generate(
                CanonicalSpec(family, "permuted", k=2, seed=case_seed),
                p["stages"],
            )
            log = run(phi_sigma2(phi, psi), stream, p["stages"])
            suffix = 0
            for r in reversed(log.records):
                if r.annotations["placement"] == want:
                    suffix += 1
                else:
                    break
            ok = suffix >= p["suffix"]
            if not ok:
                failures.append({"family": family, "seed": case_seed,
                                 "suffix": suffix})
            records.append(_rec("phi_sigma2", family=family, case=i,
                                seed=case_seed, suffix=suffix, ok=ok))
    return ExperimentResult(
        "phi_sigma2", not failures,
        {"runs": 2 * p["runs"], "failures": failures}, records,
    )


def experiment_divisibility(seed: int) -> ExperimentResult:
    """Criterion 7: replicate(q) on omega.k presents omega.(kq), judged by
    consistency_verdict; dually on the reversed family.  A record's
    unstable count is the limit side's."""
    p = PARAMS["divisibility"]
    records = []
    failures = []
    for k, q in p["cases"]:
        for family, limit in (("omega_k", "pred"), ("omega_star_k", "succ")):
            stream = generate(CanonicalSpec(family, k=k), p["stages"])
            log = run(replicate(q), stream, p["stages"])
            verdict = consistency_verdict(
                log, CanonicalSpec(family, k=k * q), p["threshold"])
            got = len(verdict.evidence[f"{limit}_unstable"])
            ok = verdict.consistent
            if not ok:
                failures.append({"k": k, "q": q, "family": family,
                                 "unstable": got})
            records.append(_rec("divisibility", k=k, q=q, family=family,
                                unstable=got, expected=k * q - 1, ok=ok))
    return ExperimentResult(
        "divisibility", not failures,
        {"cases": len(p["cases"]) * 2, "failures": failures}, records,
    )


def experiment_top_pair(seed: int) -> ExperimentResult:
    """Criterion 8: the sentence-pair operator sends omega.k-side inputs to
    a census with replicated frozen size-1 classes and the dual side to
    frozen size-2 classes; and the two-fill concatenation on the hatted
    equivalence streams reports endpoints matching one dense order with a
    least element versus one with a greatest."""
    p = PARAMS["top_pair"]
    records = []
    failures = []
    op = pair_formula2eq(least_element_sentence(), greatest_element_sentence())
    for k in p["ks"]:
        for family, side in (("omega_k", 1), ("omega_star_k", 2)):
            stream = generate(CanonicalSpec(family, k=k), p["stages"])
            log = run(op, stream, p["stages"])
            c = census(log, p["window"])
            f1, f2 = len(c.frozen_of_size(1)), len(c.frozen_of_size(2))
            other = [r.size for r in c.frozen_classes() if r.size > 2]
            growing = sum(1 for r in c.classes if not r.frozen)
            if side == 1:
                ok = f1 >= 2 and f2 == 0 and not other and growing >= 2
            else:
                ok = f2 >= 2 and f1 == 0 and not other and growing >= 2
            if not ok:
                failures.append({"k": k, "family": family,
                                 "frozen1": f1, "frozen2": f2})
            records.append(_rec("top_pair", part="censuses", k=k,
                                family=family, frozen_size1=f1,
                                frozen_size2=f2, growing=growing, ok=ok))

    pipeline = concatenate(
        interval_fill(eq2ord_v1(), LEFT_CLOSED),
        interval_fill(eq2ord_v2(), RIGHT_CLOSED),
    )
    for k, wants in ((1, (True, False)), (2, (False, True))):
        stream = generate(CanonicalSpec("e_hat_k", k=k), p["stages"])
        log = run(pipeline, stream, p["stages"])
        fp = fingerprint(log, p["endpoint_threshold"])
        got = (fp.stable_least is not None, fp.stable_greatest is not None)
        ok = got == wants
        if not ok:
            failures.append({"pipeline_k": k, "endpoints": list(got)})
        records.append(_rec("top_pair", part="concatenation", k=k,
                            stable_least=fp.stable_least is not None,
                            stable_greatest=fp.stable_greatest is not None,
                            ok=ok))
    return ExperimentResult(
        "top_pair", not failures, {"failures": failures}, records,
    )


EXPERIMENTS = {
    "monotonicity": experiment_monotonicity,
    "trichotomy": experiment_trichotomy,
    "eq2ord_oracle": experiment_eq2ord_oracle,
    "ord2eq_limits": experiment_ord2eq_limits,
    "phi_pair": experiment_phi_pair,
    "phi_sigma2": experiment_phi_sigma2,
    "divisibility": experiment_divisibility,
    "top_pair": experiment_top_pair,
}


@dataclass
class SuiteResult:
    seed: int
    results: list
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def config_digest(name: str, seed: int) -> str:
    """Identifies one experiment run by its name, seed and PARAMS entry;
    equal digests give equal artifacts."""
    payload = json.dumps({"experiment": name, "seed": seed, "params": PARAMS[name]},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_suite(seed: int, only: list | None = None) -> SuiteResult:
    names = list(EXPERIMENTS) if not only else [
        n for n in EXPERIMENTS if n in set(only)
    ]
    t0 = time.monotonic()
    results = []
    for name in names:
        start = time.monotonic()
        result = EXPERIMENTS[name](seed)
        result.wall_seconds = time.monotonic() - start
        results.append(result)
    return SuiteResult(seed, results, time.monotonic() - t0)


def write_suite(suite: SuiteResult, out_dir) -> None:
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for result in suite.results:
        lines = [json.dumps(rec, sort_keys=True) for rec in result.records]
        (out / f"{result.name}.jsonl").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    summary = {
        "v": 1,
        "seed": suite.seed,
        "passed": suite.passed,
        "wall_seconds": round(suite.wall_seconds, 3),
        "experiments": [
            {
                "name": r.name,
                "digest": config_digest(r.name, suite.seed),
                "passed": r.passed,
                "wall_seconds": round(r.wall_seconds, 3),
            }
            for r in suite.results
        ],
    }
    (out / "suite_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def summary_table(suite: SuiteResult) -> str:
    lines = [f"{'experiment':<16} {'verdict':<8} {'seconds':>8}"]
    for r in suite.results:
        lines.append(
            f"{r.name:<16} {'pass' if r.passed else 'FAIL':<8} "
            f"{r.wall_seconds:>8.2f}"
        )
    lines.append(
        f"{'total':<16} {'pass' if suite.passed else 'FAIL':<8} "
        f"{suite.wall_seconds:>8.2f}"
    )
    return "\n".join(lines)

"""The benchmark's workloads: their cases, how each case is judged, and the
correctness checks made outside the timed region.

A stream case follows the CLI flow in memory: stream text -> parse -> run
-> JSONL encode -> JSONL decode -> verdict.  A batch case is one suite
experiment.  Inputs derive from the workload seed only; per-case seeds are
``streams.derive_seed(seed, case_index)``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

PIPELINE = "concat(eq2ord_v1|fill:left, eq2ord_v2|fill:right)"

# Sizes.  Passes are kept to a few seconds so that a run repeats every
# case several times (see README, "Noise").  order_stream: the e_hat_k:2
# pipeline's log grows about as the cube of the stage count, so it runs at 40
# stages.  equiv_stream: pair_formula2eq is cubic in stages.  Its census
# window is the suite's 30 stages, and the extreme element that keeps a
# class frozen can arrive as late as stage 31 (the permuted prefix is 32
# long), so it needs at least 62 stages; it runs at 64.  The rest keep
# their criterion sizes.
PIPELINE_STAGES = 40
PIPELINE_THRESHOLD = 20           # criterion 8 endpoint threshold
REPLICATE_STAGES = 80
REPLICATE_CASES = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2))   # (k, q)
FINGERPRINT_THRESHOLD = 5          # criterion 7
ORD2EQ_STAGES, ORD2EQ_RUNS = 100, 4
PAIR_F2E_STAGES, PAIR_F2E_RUNS = 64, 2
CENSUS_WINDOW = 30                 # criteria 4 and 8
SIGMA2_STAGES, SIGMA2_RUNS, SIGMA2_SUFFIX = 100, 4, 50
PHI_PAIR_DOMAIN, PHI_PAIR_RUNS, PHI_PAIR_MAX_SWITCH = 64, 4, 40
# batch_scan runs the three criteria through run_suite with smaller sizes
# set in experiments.PARAMS.  At the suite's sizes they take ~20 s, which
# leaves one sample per run, and the calibration runs around a 20 s unit
# cannot follow the host's speed through it (see README, "Noise").  These
# sizes keep every code path and take about 0.1-0.2 s each.
BATCH_PARAMS = {
    "monotonicity": {"max_size": 4, "max_budget": 16},
    "trichotomy": {"qs": [1, 2, 3], "max_alpha": 3, "ext_bound": 2, "budget": 8},
    "eq2ord_oracle": {"max_size": 4},
}

WORKLOADS = ("order_stream", "equiv_stream", "batch_scan")


@dataclass
class Case:
    index: int
    label: str
    kind: str
    stages: int = 0
    text: str = ""            # input stream file contents
    op: object = None
    gated: bool = True        # does the verdict gate correctness?
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one execution of a case produced (kept until it is checked)."""

    verdict: object
    ok: bool
    text: str                 # run log or suite records, as JSONL
    stream: object = None
    log: object = None
    decoded: object = None

    @property
    def facts(self) -> int:
        if self.decoded is None:
            return 0
        return sum(len(r.new_facts) for r in self.decoded.records)


def build_cases(workload: str, seed: int, em) -> list:
    """Generate inputs and construct operators (timed as set-up)."""
    cases: list = []

    def add(label, kind, **kw):
        cases.append(Case(len(cases), label, kind, **kw))

    def next_seed():
        return em.streams.derive_seed(seed, len(cases))

    def stream_text(spec, stages):
        return em.streams.generate(spec, stages).to_text()

    Spec = em.streams.CanonicalSpec
    build = em.registry.build_operator
    if workload == "order_stream":
        for k, want in ((1, "least"), (2, "greatest")):
            spec = Spec("e_hat_k", "fair", k=k)
            add(f"pipeline {spec.label()}", "pipeline", stages=PIPELINE_STAGES,
                text=stream_text(spec, PIPELINE_STAGES), op=build(PIPELINE),
                params={"want": want})
        for k, q in REPLICATE_CASES:
            for family in ("omega_k", "omega_star_k"):
                for policy in ("fair", "permuted"):
                    case_seed = next_seed() if policy == "permuted" else 0
                    spec = Spec(family, policy, k=k, seed=case_seed)
                    add(f"replicate:{q} {spec.label()}", "replicate",
                        stages=REPLICATE_STAGES,
                        text=stream_text(spec, REPLICATE_STAGES),
                        op=build(f"replicate:{q}"),
                        # Fingerprints of permuted presentations are not
                        # gated: the proxy misjudges some permuted inputs
                        # themselves (see README, "Fingerprint proxy").
                        gated=policy == "fair",
                        params={"claim": Spec(family, k=k * q),
                                "input_claim": Spec(family, k=k)})
    elif workload == "equiv_stream":
        for family, want in (("one_plus_eta", (1, 0)), ("eta_plus_one", (0, 1))):
            for _ in range(ORD2EQ_RUNS):
                spec = Spec(family, "permuted", seed=next_seed())
                add(f"ord2eq {spec.label()}", "ord2eq", stages=ORD2EQ_STAGES,
                    text=stream_text(spec, ORD2EQ_STAGES), op=build("ord2eq"),
                    params={"want": want})
        for family, side in (("omega_k", 1), ("omega_star_k", 2)):
            for _ in range(PAIR_F2E_RUNS):
                spec = Spec(family, "permuted", k=2, seed=next_seed())
                add(f"pair_formula2eq {spec.label()}", "pair_formula2eq",
                    stages=PAIR_F2E_STAGES,
                    text=stream_text(spec, PAIR_F2E_STAGES),
                    op=build("pair_formula2eq"), params={"side": side})
        for family, want in (("omega_k", "top"), ("omega_star_k", "bottom")):
            for _ in range(SIGMA2_RUNS):
                spec = Spec(family, "permuted", k=2, seed=next_seed())
                add(f"phi_sigma2 {spec.label()}", "phi_sigma2",
                    stages=SIGMA2_STAGES, text=stream_text(spec, SIGMA2_STAGES),
                    op=build("phi_sigma2"), params={"want": want})
        targets = {
            "A": em.streams.generate(Spec("omega_k", k=2), PHI_PAIR_DOMAIN + 4),
            "B": em.streams.generate(Spec("omega_star_k", k=2), PHI_PAIR_DOMAIN + 4),
        }
        pair = em.constructions.StagePair(targets["A"], targets["B"])
        # Oracle: the rank at which target element t enters is the number
        # of earlier elements its stage-t delta places below it.
        ranks = {
            side: [sum(1 for f in delta if f[0] == "lt" and f[2] == t)
                   for t, delta in enumerate(stream.deltas)]
            for side, stream in targets.items()
        }
        for family, want in (("omega", "A"), ("omega_star", "B")):
            for _ in range(PHI_PAIR_RUNS):
                spec = Spec(family, "permuted", seed=next_seed())
                add(f"phi_pair {spec.label()}", "phi_pair",
                    stages=PHI_PAIR_DOMAIN,
                    text=stream_text(spec, PHI_PAIR_DOMAIN),
                    op=build("phi_pair", targets=pair),
                    params={"want": want, "ranks": ranks[want]})
    elif workload == "batch_scan":
        for name, params in BATCH_PARAMS.items():
            em.experiments.PARAMS[name] = dict(params)
            add(name, "experiment")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


# ---------------------------------------------------------------------------
# Executing and judging one case (the timed part).


def run_case(case: Case, seed: int, em) -> tuple:
    """Execute a case; returns its Outcome and the seconds it took."""
    start = time.perf_counter()
    if case.kind == "experiment":
        suite = em.experiments.run_suite(seed, only=[case.label])
        result = suite.results[0]
        text = "\n".join(json.dumps(r, sort_keys=True) for r in result.records) + "\n"
        out = Outcome(result.passed, result.passed, text)
    else:
        stream = em.streams.StructureStream.from_text(case.text, case.label)
        log = em.kernel.run(case.op, stream, case.stages)
        text = log.to_jsonl()
        decoded = em.kernel.RunLog.from_jsonl(text)
        verdict, ok = JUDGES[case.kind](case, decoded, em)
        out = Outcome(verdict, ok or not case.gated, text, stream, log, decoded)
    return out, time.perf_counter() - start


def _judge_pipeline(case, log, em):
    fp = em.classify.fingerprint(log, PIPELINE_THRESHOLD)
    verdict = {"stable_least": fp.stable_least is not None,
               "stable_greatest": fp.stable_greatest is not None}
    want = case.params["want"]
    ok = verdict == {"stable_least": want == "least",
                     "stable_greatest": want == "greatest"}
    return verdict, ok


def _judge_replicate(case, log, em):
    v = em.classify.consistency_verdict(
        log, case.params["claim"], threshold=FINGERPRINT_THRESHOLD)
    return v.verdict, v.consistent


def _judge_ord2eq(case, log, em):
    c = em.classify.census(log, CENSUS_WINDOW)
    got = (len(c.frozen_of_size(1)), len(c.frozen_of_size(2)))
    return {"frozen1": got[0], "frozen2": got[1]}, got == case.params["want"]


def _judge_pair_formula2eq(case, log, em):
    c = em.classify.census(log, CENSUS_WINDOW)
    f1, f2 = len(c.frozen_of_size(1)), len(c.frozen_of_size(2))
    other = sorted(r.size for r in c.frozen_classes() if r.size > 2)
    growing = sum(1 for r in c.classes if not r.frozen)
    if case.params["side"] == 1:
        ok = f1 >= 2 and f2 == 0
    else:
        ok = f2 >= 2 and f1 == 0
    ok = ok and not other and growing >= 2
    return {"frozen1": f1, "frozen2": f2, "other": other, "growing": growing}, ok


def _judge_phi_sigma2(case, log, em):
    want = case.params["want"]
    suffix = 0
    for r in reversed(log.records):
        if r.annotations["placement"] != want:
            break
        suffix += 1
    return {"suffix": suffix, "placement": want}, suffix >= SIGMA2_SUFFIX


def _judge_phi_pair(case, log, em):
    switches = [r.stage for r in log.records if r.annotations["switched"]]
    last_switch = max(switches, default=-1)
    building = log.records[-1].annotations["building"]
    ranks = case.params["ranks"]
    ranks_ok = all(
        r.annotations["insert_rank"] == ranks[r.annotations["t"]]
        for r in log.records
        if r.stage > max(last_switch, 0) and not r.annotations["switched"]
    )
    ok = (building == case.params["want"] and ranks_ok
          and last_switch <= PHI_PAIR_MAX_SWITCH)
    return {"building": building, "switches": len(switches),
            "last_switch": last_switch, "ranks_ok": ranks_ok}, ok


JUDGES = {
    "pipeline": _judge_pipeline,
    "replicate": _judge_replicate,
    "ord2eq": _judge_ord2eq,
    "pair_formula2eq": _judge_pair_formula2eq,
    "phi_sigma2": _judge_phi_sigma2,
    "phi_pair": _judge_phi_pair,
}


# ---------------------------------------------------------------------------
# Checks outside the timed region.


def digest(case: Case, out: Outcome, em) -> str:
    """Representation-independent digest of a case's result: the final
    output's chain (order outputs) or classes (equivalence outputs), plus
    the verdict.  Batch cases hash their suite JSONL."""
    if case.kind == "experiment":
        return sha(out.text)
    final = out.decoded.final_diagram()
    if final.signature is em.diagram.Signature.LINEAR_ORDER:
        shape = final.chain()
    else:
        shape = final.sim_classes()
    return sha(json.dumps({"output": shape, "verdict": out.verdict},
                           sort_keys=True))


def full_check(case: Case, out: Outcome, em) -> list:
    """Problems found by the checks made on a case's first execution."""
    problems = []
    if not out.ok:
        problems.append(f"verdict {out.verdict!r} fails the criterion")
    if case.kind == "experiment":
        return problems
    if out.decoded != out.log:
        problems.append("run log does not round-trip through JSONL")
    if isinstance(case.op, em.kernel.EnumerationOperator):
        # Stream-vs-batch agreement at the last stage's budget (identity
        # schedule: budget = stage index).
        batch = case.op.eval(out.stream.final(), case.stages - 1)
        if batch.facts != out.log.final_facts():
            problems.append("stream output differs from op.eval on the final input")
    return problems


def input_verdict(case: Case, out: Outcome, em) -> str:
    """Fingerprint verdict on the input stream itself (informational)."""
    log = em.kernel.RunLog.from_stream(out.stream)
    return em.classify.consistency_verdict(
        log, case.params["input_claim"], threshold=FINGERPRINT_THRESHOLD
    ).verdict


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]

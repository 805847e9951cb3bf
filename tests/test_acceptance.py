"""Acceptance criteria, one test per criterion.

The experiment suite runs once (module scope) with the reference seed and
every criterion asserts its stated bound exactly; the determinism check
runs the suite a second time and compares the JSONL artifacts byte for
byte, and the pinned-digest check compares them with the artifacts of
earlier versions of the code.  Those artifacts hold verdicts, not facts,
so the stream texts and run logs of the order writers are pinned too.
Each test prints its own pass line so a verbose run reads as a checklist.
"""

import hashlib

import pytest

from embedlab.constructions import StagePair
from embedlab.experiments import run_suite, write_suite
from embedlab.kernel import parse_schedule, run
from embedlab.registry import build_operator
from embedlab.streams import ORDER_FAMILIES, PARAMETRIC_FAMILIES, CanonicalSpec, generate

SEED = 7

# sha256 of each seed-7 JSONL artifact, taken before operators were
# reduced to a single stream-evaluator definition; a change to any
# operator's output shows here.
PINNED_SHA256 = {
    "divisibility.jsonl":
        "354f57b7186922d18fce2bfb168e93f24e462f59b5a2e53d481cb791fb35ee92",
    "eq2ord_oracle.jsonl":
        "3266050c390cb75a109da3892f83d7bfd30233518465dd44e2e8c0c33fa7d798",
    "monotonicity.jsonl":
        "9a706fe40db18e3da34471519649fc2054893575c3b5e3907627c1d5ac22fe82",
    "ord2eq_limits.jsonl":
        "54b0598b784878afb5f557490d54aad3e9057e2a3d2d14b7e5825d577b4f2783",
    "phi_pair.jsonl":
        "900c1de2ea8de6bde3a949cca034295104fe1e3cb460c8aeff8ed2cfa2e1af94",
    "phi_sigma2.jsonl":
        "16d616e0c51debb7d73071e0412ab0d0230e9f2433ac705e40cf3125d316651a",
    "top_pair.jsonl":
        "f854c7d1d64bf24ebdd10374efa850029a74b9818f49ad42bfb4f29ab5e04fa0",
    "trichotomy.jsonl":
        "05e36a3d39b0173b8a443d4220a534416d6faa91639f3297fd3ef9950f19452d",
}

# sha256 of generated order streams and of run logs of every operator
# that writes order facts, taken before writers placed elements through
# diagram.place; the suite JSONL above holds verdicts, not facts.
PINNED_WRITER_SHA256 = {
    "gen:omega:fair":
        "4be04862357f5f7415ac316bd91caa399b27cfd45d810fae799c9afecbae3205",
    "gen:omega:permuted:seed11":
        "08e609f3680aae68e0d3c699a2bd666f2dab787b72234be6ca77a922bbfa3728",
    "gen:omega_star:fair":
        "3b65a31032dec465972d2d781404fe9eff6035cc5c60369dac0a763c55c76a41",
    "gen:omega_star:permuted:seed11":
        "b5a5ce0351dfac84778e1ca1248d550319aec2d23d20802ff6b1e1898911b3c8",
    "gen:omega_k:3:fair":
        "a868d3f37e3a12e98d54aa581e06ac4af795626183cf3a0d4b1ecd9bc640bb8e",
    "gen:omega_k:3:permuted:seed11":
        "4f1a45514d32469881de00c6107a594420efa2a156c37be960ae813338f2ba49",
    "gen:omega_star_k:3:fair":
        "121f531925c114438e866b26a75bebd6889415d72d91d5a7fbe19b65cae36d64",
    "gen:omega_star_k:3:permuted:seed11":
        "28d848840fd4f13863a9c8add3606480b4facd641d6516053e8896b48dc2a54c",
    "gen:one_plus_eta:fair":
        "7b2a64b42ccde8951e96feea745471c6c42fb15cdff4023e10633c7dd5fe9bcb",
    "gen:one_plus_eta:permuted:seed11":
        "0507280febd308da929f071e4dbc12c00fe1d95ac3c9b3821ab543b4a1a71259",
    "gen:eta_plus_one:fair":
        "c1dc755cddfee150a26bce62fa15104e6ff5f3c2c2fd3f27aab4b8d3afb06399",
    "gen:eta_plus_one:permuted:seed11":
        "a9b3f205c91a6f577ceeb31a91cf36452cf2bb6c2e00b3f98ee301cebd792714",
    "gen:eta:fair":
        "a4ca01e184b87c80ff8ba979223af996a5e8f61df672d120b621a0059d13e11b",
    "gen:eta:permuted:seed11":
        "309fee6ecb6467cb63054926ce36305c6624936340d3faaa2a94fa2812088a2e",
    "run:replicate:1:identity":
        "08884da1bb8ccfa41efdfcfa2facbb2deec4ecbdfbfac431ac966c736983ac05",
    "run:replicate:1:const:12":
        "5aee509fe28748561f8fd161ac303c95d94ac848706014aba4fc0b1f59ea74ab",
    "run:replicate:2:identity":
        "beaddb7b59e4bcd406f17ba62bbd4eff40a65695fadd30906a7ad3c1845dec57",
    "run:replicate:2:const:12":
        "227ef555b231ed10a3fd5e4851d34766360ac63b5d775d50940aa4e70beda986",
    "run:replicate:3:identity":
        "6c191c3146ae548e1e6a8667165d9500905effdd78cb92bbff9ded4e7bc8e394",
    "run:replicate:3:const:12":
        "571e2d7b9697b22fbad94c4d731eb4216db64516ea6ad3811b21c8d1431ff4d6",
    "run:eq2ord_v1:identity":
        "a01601a2b7a70167c7b7210dedd1fb37e4a5ac13ffa21d6d40783475e04e8c1b",
    "run:eq2ord_v1:const:12":
        "659225726c94731c5ef635857a75141d8d15888e90beaf3c53b40be68cf4a66f",
    "run:eq2ord_v2:identity":
        "43706694c368ea1c720047d2cffd2472fc0525653546dddfa25b09828f594e80",
    "run:eq2ord_v2:const:12":
        "6af8918e051f408ab1faa4b138b94667c944f8922670c1980dcf015a36026813",
    "run:concat(eq2ord_v1|fill:left,eq2ord_v2|fill:right):identity":
        "acf51e4c6b258761245c096742834bcae96900fcfa6b01b5424ae1d8f49ade2e",
    "run:concat(eq2ord_v1|fill:left,eq2ord_v2|fill:right):const:12":
        "7218ba74315162e5c4f2cdeb3e7795feb55064c53eb5c3f30805779913b88a5e",
    "run:phi_pair:identity":
        "082fe09e6af2b69bda298990f18863c5078dba206a5bef23919dafd76dc1226d",
    "run:phi_pair:const:12":
        "2039d894fdcd66d2743e903c588312309239c63a6f980707f2ba520b52a7a621",
    "run:phi_sigma2:identity":
        "3e9aac7911bf773b3bde18badb85381e8f9dc965f4ce24c88fa93c533b447854",
    "run:phi_sigma2:const:12":
        "5b7a9d466f945a3cc81b8b930b8f99b7ee6b1fb3ad46b4277d9688fbc126ac21",
}


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    result = run_suite(SEED)
    out_dir = tmp_path_factory.mktemp("suite_a")
    write_suite(result, out_dir)
    return result, out_dir


def _result(suite, name):
    result, _ = suite
    return next(r for r in result.results if r.name == name)


def _report(number, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {title} {detail}".rstrip())
    assert passed, f"criterion {number} ({title}): {detail}"


def test_criterion_1_monotonicity(suite):
    r = _result(suite, "monotonicity")
    checked = r.evidence["pairs_checked"]
    _report(
        1, "monotonicity suite", r.passed and checked > 4000,
        f"({checked} covering pairs, {len(r.evidence['violations'])} violations)",
    )


def test_criterion_2_forcing_trichotomy(suite):
    r = _result(suite, "trichotomy")
    qs = {rec["q"] for rec in r.records if "q" in rec}
    _report(
        2, "forcing trichotomy + extension stability",
        r.passed and qs == {1, 2, 3},
        f"(q in {sorted(qs)}, {len(r.evidence['violations'])} violations)",
    )


def test_criterion_3_eq2ord_oracle(suite):
    r = _result(suite, "eq2ord_oracle")
    checked = r.evidence["diagrams_checked"]
    worked = r.records[0]["worked_ok"]
    _report(
        3, "tuple-order oracle equivalence",
        r.passed and checked >= 1400 and worked,
        f"({checked} diagrams, worked example bit-exact: {worked})",
    )


def test_criterion_4_ord2eq_limits(suite):
    r = _result(suite, "ord2eq_limits")
    runs = r.evidence["runs"]
    _report(
        4, "order-to-equivalence limit censuses",
        r.passed and runs == 40,
        f"({runs - len(r.evidence['failures'])}/{runs} correct)",
    )


def test_criterion_5_phi_pair(suite):
    r = _result(suite, "phi_pair")
    runs = r.evidence["runs"]
    _report(
        5, "guess construction stabilization",
        r.passed and runs == 42,
        f"({runs - len(r.evidence['failures'])}/{runs} runs conforming)",
    )


def test_criterion_6_phi_sigma2(suite):
    r = _result(suite, "phi_sigma2")
    runs = r.evidence["runs"]
    _report(
        6, "witness-comparison placement suffixes",
        r.passed and runs == 40,
        f"({runs - len(r.evidence['failures'])}/{runs} with suffix >= 50)",
    )


def test_criterion_7_divisibility(suite):
    r = _result(suite, "divisibility")
    _report(
        7, "replication block counts (k,q cases)",
        r.passed and r.evidence["cases"] == 8,
        f"({r.evidence['cases']} fingerprints exact)",
    )


def test_criterion_8_top_pair(suite):
    r = _result(suite, "top_pair")
    parts = {rec["part"] for rec in r.records}
    _report(
        8, "top-pair pipeline censuses and endpoints",
        r.passed and parts == {"censuses", "concatenation"},
        f"({len(r.records)} cases)",
    )


def test_criterion_9_determinism(suite, tmp_path):
    _, dir_a = suite
    second = run_suite(SEED)
    dir_b = tmp_path / "suite_b"
    write_suite(second, dir_b)
    names_a = sorted(p.name for p in dir_a.glob("*.jsonl"))
    names_b = sorted(p.name for p in dir_b.glob("*.jsonl"))
    same_names = names_a == names_b and len(names_a) == 8
    identical = same_names and all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names_a
    )
    _report(
        9, "suite determinism (byte-identical JSONL)",
        identical, f"({len(names_a)} artifact files)",
    )


def test_suite_jsonl_matches_pinned_digests(suite):
    _, out_dir = suite
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out_dir.glob("*.jsonl")
    }
    assert digests == PINNED_SHA256


def _writer_outputs() -> dict:
    """Stream texts of every order family, and run logs of the operators
    and constructions that write order facts, under two schedules."""
    out = {}
    for family in ORDER_FAMILIES:
        k = 3 if family in PARAMETRIC_FAMILIES else 1
        for policy in ("fair", "permuted"):
            spec = CanonicalSpec(family, policy, k, seed=11)
            out[f"gen:{spec.label()}"] = generate(spec, 40).to_text()
    omega2 = generate(CanonicalSpec("omega_k", "permuted", 2, seed=5), 24)
    e_hat2 = generate(CanonicalSpec("e_hat_k", "permuted", 2, seed=5), 24)
    targets = StagePair(generate(CanonicalSpec("omega_k", k=2), 28),
                        generate(CanonicalSpec("omega_star_k", k=2), 28))
    cases = [(f"replicate:{q}", omega2) for q in (1, 2, 3)] + [
        ("eq2ord_v1", e_hat2),
        ("eq2ord_v2", e_hat2),
        ("concat(eq2ord_v1|fill:left,eq2ord_v2|fill:right)", e_hat2),
        ("phi_pair", generate(CanonicalSpec("omega", "permuted", seed=5), 24)),
        ("phi_sigma2", omega2),
    ]
    for expr, stream in cases:
        op = build_operator(expr, targets=targets)
        for schedule in ("identity", "const:12"):
            name, fn = parse_schedule(schedule)
            log = run(op, stream, len(stream), fn, name)
            out[f"run:{expr}:{schedule}"] = log.to_jsonl()
    return out


def test_run_logs_match_pinned_digests():
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in _writer_outputs().items()
    }
    assert digests == PINNED_WRITER_SHA256

"""Acceptance criteria, one test per criterion.

The experiment suite runs once (module scope) with the reference seed and
every criterion asserts its stated bound exactly; the determinism check
runs the suite a second time and compares the JSONL artifacts byte for
byte, and the pinned-digest check compares them with the artifacts of
earlier versions of the code.  Each test prints its own pass line so a
verbose run reads as a checklist.
"""

import hashlib

import pytest

from embedlab.experiments import run_suite, write_suite

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

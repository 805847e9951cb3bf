import json

import pytest
from click.testing import CliRunner

from embedlab.cli import main
from embedlab.streams import CanonicalSpec, StructureStream, generate


def invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def test_gen_writes_stream(tmp_path):
    out = tmp_path / "s.txt"
    result = invoke("gen", "--family", "omega_k", "--k", "2",
                    "--policy", "fair", "--stages", "20", "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("-- stage 0")
    assert "-- stage 19" in text


@pytest.mark.parametrize("family, k", [("omega_k", 2), ("e_hat_k", 2)])
def test_gen_counts_elements_without_the_final_diagram(family, k, tmp_path, monkeypatch):
    """gen's element count is the final stage's domain size, counted from
    the deltas: the final diagram, which holds every pair, is not built."""
    want = len(generate(CanonicalSpec(family, "permuted", k, 3), 50).final().domain)

    def refuse(self):
        raise AssertionError("gen built the final diagram")

    monkeypatch.setattr(StructureStream, "final", refuse)
    out = tmp_path / "s.txt"
    result = invoke("gen", "--family", family, "--k", str(k), "--policy", "permuted",
                    "--seed", "3", "--stages", "50", "--out", str(out))
    assert result.exit_code == 0
    label = f"{family}:{k}:permuted:seed3"
    assert result.output == f"{label}: 50 stages, {want} elements -> {out}\n"


def test_gen_bad_k_exits_2(tmp_path):
    result = invoke("gen", "--family", "omega_k", "--k", "0",
                    "--stages", "5", "--out", str(tmp_path / "x.txt"))
    assert result.exit_code == 2
    assert "positive" in result.output


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        invoke("gen", "--family", "e_hat_k", "--k", "1", "--policy",
               "permuted", "--seed", "5", "--stages", "30", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_gen_env_seed_overrides(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    invoke("gen", "--family", "omega", "--policy", "permuted", "--seed", "1",
           "--stages", "20", "--out", str(a), env={"EMBEDLAB_SEED": "9"})
    invoke("gen", "--family", "omega", "--policy", "permuted", "--seed", "9",
           "--stages", "20", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_and_classify_roundtrip(tmp_path):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega_k", "--k", "2", "--stages", "120",
           "--out", str(stream))
    result = invoke("run", "--op", "replicate:2", "--in", str(stream),
                    "--log", str(log))
    assert result.exit_code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 121  # header + one record per stage
    result = invoke("classify", "--log", str(log), "--claim", "omega_k:4",
                    "--w", "5")
    assert result.exit_code == 0
    record = json.loads(result.output.splitlines()[-1])
    assert record["verdict"] == "CONSISTENT"
    result = invoke("classify", "--log", str(log), "--claim", "omega_k:3")
    assert result.exit_code == 4


def test_run_signature_mismatch_exits_3(tmp_path):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega", "--stages", "10", "--out", str(stream))
    result = invoke("run", "--op", "eq2ord_v1", "--in", str(stream),
                    "--log", str(tmp_path / "x.jsonl"))
    assert result.exit_code == 3
    # force: eq2ord_v1 has order outputs but takes equivalence inputs.
    alpha = tmp_path / "a.txt"
    alpha.write_text("lt 0 1\n")
    result = invoke("force", "--op", "eq2ord_v1", "--alpha", str(alpha),
                    "--atom", "lt 1 2")
    assert result.exit_code == 3
    # classify: an order log against an equivalence claim.
    invoke("run", "--op", "replicate:1", "--in", str(stream), "--log", str(log))
    result = invoke("classify", "--log", str(log), "--claim", "e_k:2")
    assert result.exit_code == 3


def _assert_usage_error(result):
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.startswith("error: ")


def test_classify_header_without_operator_exits_2(tmp_path):
    log = tmp_path / "r.jsonl"
    log.write_text('{"v":1,"type":"header"}\n')
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_classify_non_json_log_exits_2(tmp_path):
    log = tmp_path / "r.jsonl"
    log.write_text("not json\n")
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_classify_unknown_signature_exits_2(tmp_path):
    log = tmp_path / "r.jsonl"
    log.write_text(json.dumps({
        "v": 1, "type": "header", "operator": "x", "signature": "graph",
    }) + "\n")
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_classify_list_valued_signature_exits_2(tmp_path):
    log = tmp_path / "r.jsonl"
    log.write_text(json.dumps({
        "v": 1, "type": "header", "operator": "x", "signature": [],
    }) + "\n")
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_classify_record_without_stage_exits_2(tmp_path):
    log = tmp_path / "r.jsonl"
    log.write_text(json.dumps({
        "v": 1, "type": "header", "operator": "x", "signature": "linear_order",
    }) + "\n" + json.dumps({"v": 1, "new_facts": []}) + "\n")
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_classify_log_with_stored_cycle_exits_2(tmp_path):
    """Every pair of 0, 1, 2 is stored, so replaying the order compares
    stored facts only; the cycle 0 < 1 < 2 < 0 must still be rejected."""
    log = tmp_path / "r.jsonl"
    stages = [["el 0", "el 1"], ["lt 0 1", "el 2"], ["lt 1 2", "lt 2 0"]]
    log.write_text("\n".join(json.dumps(rec) for rec in [
        {"v": 1, "type": "header", "operator": "x", "signature": "linear_order"},
        *({"v": 1, "stage": s, "new_facts": facts}
          for s, facts in enumerate(stages)),
    ]) + "\n")
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def test_run_non_integer_stage_exits_2(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("-- stage x\nel 0\n")
    _assert_usage_error(invoke("run", "--op", "replicate:1", "--in", str(stream),
                               "--log", str(tmp_path / "x.jsonl")))


def test_run_unknown_operator_exits_2(tmp_path):
    stream = tmp_path / "s.txt"
    invoke("gen", "--family", "omega", "--stages", "5", "--out", str(stream))
    result = invoke("run", "--op", "wat", "--in", str(stream),
                    "--log", str(tmp_path / "x.jsonl"))
    assert result.exit_code == 2


def test_run_combinator_expression(tmp_path):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "e_hat_k", "--k", "1", "--stages", "30",
           "--out", str(stream))
    result = invoke(
        "run", "--op", "concat(eq2ord_v1|fill:left, eq2ord_v2|fill:right)",
        "--in", str(stream), "--log", str(log),
    )
    assert result.exit_code == 0
    header = json.loads(log.read_text().splitlines()[0])
    assert header["operator"].startswith("concat(")


def test_run_phi_sigma2_with_sentences(tmp_path):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega_k", "--k", "2", "--stages", "40",
           "--out", str(stream))
    result = invoke("run", "--op", "phi_sigma2", "--phi", "least",
                    "--psi", "greatest", "--in", str(stream), "--log", str(log))
    assert result.exit_code == 0
    last = json.loads(log.read_text().splitlines()[-1])
    assert last["annotations"]["placement"] in ("top", "bottom")


def test_run_phi_pair_targets(tmp_path):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega", "--stages", "30", "--out", str(stream))
    result = invoke("run", "--op", "phi_pair", "--in", str(stream),
                    "--target-a", "omega_k:2", "--target-b", "omega_star_k:2",
                    "--log", str(log))
    assert result.exit_code == 0
    last = json.loads(log.read_text().splitlines()[-1])
    assert last["annotations"]["building"] == "A"


def test_force_command(tmp_path):
    alpha = tmp_path / "a.txt"
    alpha.write_text("lt 0 1\n")
    result = invoke("force", "--op", "replicate:2", "--alpha", str(alpha),
                    "--atom", "lt 2 1", "--ext", "3", "--budget", "16")
    assert result.exit_code == 0
    record = json.loads(result.output.splitlines()[-1])
    assert record["outcome"] == "FORCED"
    result = invoke("force", "--op", "replicate:2", "--alpha", str(alpha),
                    "--atom", "lt 1 2", "--ext", "3", "--budget", "16")
    record = json.loads(result.output.splitlines()[-1])
    assert record["outcome"] == "REFUTED"
    assert record["certificate"] == ["el 0", "el 1", "lt 0 1"]


def test_force_on_covering_chain_matches_closure(tmp_path):
    outputs = []
    for name, text in (("sparse", "lt 0 1\nlt 1 2\n"),
                       ("closed", "lt 0 1\nlt 0 2\nlt 1 2\n")):
        alpha = tmp_path / f"{name}.txt"
        alpha.write_text(text)
        result = invoke("force", "--op", "replicate:2", "--alpha", str(alpha),
                        "--atom", "lt 2 1", "--ext", "2", "--budget", "8")
        assert result.exit_code == 0, result.output
        record = json.loads(result.output.splitlines()[-1])
        assert record.pop("alpha") == text.splitlines()
        outputs.append(record)
    assert outputs[0] == outputs[1]
    assert outputs[0]["outcome"] == "FORCED"


def test_force_bad_atom_exits_2(tmp_path):
    alpha = tmp_path / "a.txt"
    alpha.write_text("lt 0 1\n")
    result = invoke("force", "--op", "replicate:2", "--alpha", str(alpha),
                    "--atom", "lt 99999 99998")
    assert result.exit_code == 2


def test_force_negative_ext_exits_2(tmp_path):
    alpha = tmp_path / "a.txt"
    alpha.write_text("lt 0 1\n")
    result = invoke("force", "--op", "replicate:1", "--alpha", str(alpha),
                    "--atom", "lt 0 2", "--ext", "-3")
    assert result.exit_code == 2
    assert result.output == "error: ext_bound must be a natural, got -3\n"


def test_run_logs_are_byte_identical_for_same_config(tmp_path):
    stream = tmp_path / "s.txt"
    invoke("gen", "--family", "one_plus_eta", "--policy", "permuted",
           "--seed", "3", "--stages", "40", "--out", str(stream))
    logs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        log = tmp_path / name
        invoke("run", "--op", "ord2eq", "--in", str(stream), "--log", str(log))
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_run_on_stream_with_implicit_elements(tmp_path):
    """Elements named only by lt facts are declared at the first stage that
    names them, as if their el lines opened that stage block."""
    implicit = tmp_path / "implicit.txt"
    implicit.write_text("-- stage 0\n-- stage 1\nlt 0 1\n"
                        "-- stage 2\nlt 2 0\nlt 2 1\n")
    explicit = tmp_path / "explicit.txt"
    explicit.write_text("-- stage 0\n-- stage 1\nel 0\nel 1\nlt 0 1\n"
                        "-- stage 2\nel 2\nlt 2 0\nlt 2 1\n")
    for op in ("replicate:1", "ord2eq"):
        records = []
        for stream in (implicit, explicit):
            log = tmp_path / "r.jsonl"
            result = invoke("run", "--op", op, "--in", str(stream), "--log", str(log))
            assert result.exit_code == 0
            # The header names the input file; the stage records must match.
            records.append(log.read_text().splitlines()[1:])
        assert records[0] == records[1]
        assert json.loads(records[0][-1])["new_facts"]


def test_run_on_stream_with_late_el_lines(tmp_path):
    """el lines in a stage after the one that first names their elements
    are ignored: the log equals that of the file declaring them up front."""
    late = tmp_path / "late.txt"
    late.write_text("-- stage 0\nlt 0 1\n-- stage 1\nel 0\nel 1\n")
    upfront = tmp_path / "upfront.txt"
    upfront.write_text("-- stage 0\nel 0\nel 1\nlt 0 1\n-- stage 1\n")
    for op in ("replicate:1", "ord2eq"):
        records = []
        for stream in (late, upfront):
            log = tmp_path / "r.jsonl"
            result = invoke("run", "--op", op, "--in", str(stream), "--log", str(log))
            assert result.exit_code == 0
            records.append(log.read_text().splitlines()[1:])
        assert records[0] == records[1]
        facts = [f for r in records[0] for f in json.loads(r)["new_facts"]]
        assert len(facts) == len(set(facts))
        assert not any(f.split()[0] == "lt" and f.split()[1] == f.split()[2]
                       for f in facts)


def test_suite_single_experiment(tmp_path):
    out_dir = tmp_path / "suite"
    result = invoke("suite", "--only", "phi_pair", "--seed", "7",
                    "--out-dir", str(out_dir))
    assert result.exit_code == 0
    assert (out_dir / "phi_pair.jsonl").exists()
    summary = json.loads((out_dir / "suite_summary.json").read_text())
    assert summary["passed"] is True


def test_suite_requires_selection():
    result = invoke("suite")
    assert result.exit_code == 2


def test_suite_unknown_experiment():
    result = invoke("suite", "--only", "nope")
    assert result.exit_code == 2


def test_force_on_long_covering_chain(tmp_path):
    """Order checks are one iterative pass: a covering chain longer than
    the recursion limit is a valid input.  (1,200 elements: replicate's
    all-pairs output grows as the square, and this is enough to fail a
    recursive search.)"""
    from embedlab.pairing import tag

    alpha = tmp_path / "a.txt"
    alpha.write_text("".join(f"lt {i} {i + 1}\n" for i in range(1199)))
    result = invoke("force", "--op", "replicate:1", "--alpha", str(alpha),
                    "--atom", f"lt {tag(0, 0)} {tag(0, 1199)}",
                    "--ext", "0", "--budget", "1")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.splitlines()[-1])["outcome"] == "FORCED"


@pytest.mark.parametrize("text", [
    "lt 0 1\nlt 1 2\nlt 2 0\n",       # a cycle
    "lt 0 1\nlt 0 2\n",               # 1 and 2 unordered
    "lt 0 1\nlt 1 0\nel 2\n",         # both
])
def test_force_on_bad_order_exits_2(tmp_path, text):
    alpha = tmp_path / "a.txt"
    alpha.write_text(text)
    _assert_usage_error(invoke("force", "--op", "replicate:1", "--alpha",
                               str(alpha), "--atom", "lt 0 2"))


def test_force_equivalence_alpha_for_an_order_operator_exits_3(tmp_path):
    """alpha gets evaluation's own signature check first, so a diagram of
    the wrong signature exits 3, as it does for run."""
    alpha = tmp_path / "a.txt"
    alpha.write_text("sim 0 1\n")
    result = invoke("force", "--op", "replicate:1", "--alpha", str(alpha),
                    "--atom", "lt 0 2")
    assert result.exit_code == 3
    assert result.output == (
        "error: replicate:1 expects linear_order input, got equivalence\n")


def test_force_on_a_stage_construction_exits_2(tmp_path):
    """A forcing query evaluates a batch operator; a stage construction
    is named and rejected rather than evaluated as one."""
    alpha = tmp_path / "a.txt"
    alpha.write_text("lt 0 1\n")
    result = invoke("force", "--op", "phi_sigma2", "--alpha", str(alpha),
                    "--atom", "lt 0 1")
    _assert_usage_error(result)
    assert result.output == ("error: phi_sigma2 is a stage construction, not an "
                             "operator a forcing query can evaluate\n")


def test_run_drops_repeated_stream_facts(tmp_path):
    """A fact repeating one read before (sim 1 0 repeats sim 0 1) is not
    new input, so class_multiplier emits nothing twice."""
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("-- stage 0\nel 0\nel 1\nel 2\nel 3\n-- stage 1\nsim 0 1\n"
                        "-- stage 2\nsim 0 1\nsim 2 3\n-- stage 3\nsim 1 0\n")
    clean = tmp_path / "clean.txt"
    clean.write_text("-- stage 0\nel 0\nel 1\nel 2\nel 3\n-- stage 1\nsim 0 1\n"
                     "-- stage 2\nsim 2 3\n-- stage 3\n")
    records = []
    for stream in (repeated, clean):
        log = tmp_path / "r.jsonl"
        result = invoke("run", "--op", "class_multiplier", "--in", str(stream),
                        "--log", str(log))
        assert result.exit_code == 0
        records.append(log.read_text().splitlines()[1:])
    assert records[0] == records[1]
    facts = [f for r in records[0] for f in json.loads(r)["new_facts"]]
    assert len(facts) == len(set(facts))


@pytest.mark.parametrize("header", [
    "exists x\ndisjunct 0\nforall 1: not lt y0 x0\n",
    "exists\ndisjunct 0\nforall 1: not lt y0 x0\n",
    "exists 1\ndisjunct z\nforall 1: not lt y0 x0\n",
    "exists 1\ndisjunct 0\nforall q: not lt y0 x0\n",
])
def test_run_bad_sentence_header_exits_2(tmp_path, header):
    stream = tmp_path / "s.txt"
    invoke("gen", "--family", "omega", "--stages", "5", "--out", str(stream))
    sentence = tmp_path / "phi.txt"
    sentence.write_text(header)
    _assert_usage_error(invoke("run", "--op", "phi_sigma2", "--phi", str(sentence),
                               "--in", str(stream), "--log", str(tmp_path / "r.jsonl")))


def test_bad_env_seed_exits_2(tmp_path):
    env = {"EMBEDLAB_SEED": "abc"}
    _assert_usage_error(invoke("gen", "--family", "omega", "--stages", "5",
                               "--out", str(tmp_path / "s.txt"), env=env))
    _assert_usage_error(invoke("suite", "--only", "phi_pair", env=env))


@pytest.mark.parametrize("seed", ["\u0663", "1_0", "+3", " 3", "3 ", "--3", "-"])
def test_env_seed_other_than_ascii_digits_exits_2(tmp_path, seed):
    result = invoke("gen", "--family", "omega", "--stages", "5",
                    "--out", str(tmp_path / "s.txt"), env={"EMBEDLAB_SEED": seed})
    _assert_usage_error(result)
    assert result.output.startswith("error: EMBEDLAB_SEED must be an integer")


def test_env_seed_may_be_negative(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    result = invoke("gen", "--family", "omega", "--policy", "permuted", "--seed", "1",
                    "--stages", "20", "--out", str(a), env={"EMBEDLAB_SEED": "-3"})
    assert result.exit_code == 0
    invoke("gen", "--family", "omega", "--policy", "permuted", "--seed", "-3",
           "--stages", "20", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("records", [
    [{"v": 2, "type": "header", "operator": "x", "signature": "linear_order"}],
    [{"v": 1, "type": "header", "operator": "x", "signature": "linear_order"},
     {"stage": 0, "new_facts": ["el 0"]}],
])
def test_classify_log_version_other_than_1_exits_2(tmp_path, records):
    log = tmp_path / "r.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega"))


def _rewrite_records(path, edit):
    """Apply edit(index, record) to every stage record of a JSONL log."""
    lines = path.read_text().splitlines()
    records = [json.loads(ln) for ln in lines[1:]]
    for i, rec in enumerate(records):
        edit(i, rec)
    path.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")


def _logged_run(tmp_path, op, family, k, stages):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", family, "--k", str(k), "--stages", str(stages),
           "--out", str(stream))
    assert invoke("run", "--op", op, "--in", str(stream),
                  "--log", str(log)).exit_code == 0
    return log


@pytest.mark.parametrize("annotations", [
    "pinned_size1", {"pinned_size1": [1, 2]}, {"pinned_size1": "x"}, [1],
    {"pinned_size2": -1}, {"pinned_size2": True},
])
def test_classify_malformed_annotations_exit_2(tmp_path, annotations):
    log = _logged_run(tmp_path, "ord2eq", "omega", 1, 20)
    assert invoke("classify", "--log", str(log), "--claim", "e_k:1").exit_code in (0, 4)

    def edit(i, rec):
        rec["annotations"] = annotations

    _rewrite_records(log, edit)
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "e_k:1"))


@pytest.mark.parametrize("edit", [
    lambda i, rec: rec.update(stage=-7) if i == 39 else None,
    lambda i, rec: rec.update(stage=0),
    lambda i, rec: rec.update(stage=39 - i),
])
def test_classify_bad_stage_numbers_exit_2(tmp_path, edit):
    log = _logged_run(tmp_path, "replicate:1", "omega_k", 2, 40)
    assert invoke("classify", "--log", str(log), "--claim", "omega_k:2").exit_code == 0
    _rewrite_records(log, edit)
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", "omega_k:2"))


@pytest.mark.parametrize("claim", ["omega:7", "eta:2"])
def test_classify_k_on_a_family_that_takes_none_exits_2(tmp_path, claim):
    """omega:7 is not a claim of omega.7 (that is omega_k:7): a k that the
    family would drop is rejected, not read as plain omega."""
    log = _logged_run(tmp_path, "replicate:1", "omega", 1, 5)
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", claim))
    result = invoke("classify", "--log", str(log), "--claim", "omega_k:7")
    assert json.loads(result.output)["claim"] == "omega_k:7:fair"


def test_gen_k_on_a_family_that_takes_none_exits_2(tmp_path):
    out = tmp_path / "s.txt"
    _assert_usage_error(invoke("gen", "--family", "omega", "--k", "4",
                               "--stages", "5", "--out", str(out)))
    assert not out.exists()


def test_classify_accepts_gaps_in_stage_numbers(tmp_path):
    log = _logged_run(tmp_path, "replicate:1", "omega_k", 2, 40)
    _rewrite_records(log, lambda i, rec: rec.update(stage=2 * i))
    assert invoke("classify", "--log", str(log), "--claim", "omega_k:2").exit_code == 0


@pytest.mark.parametrize("args", [
    ("--op", "replicate:1", "--schedule", "const:²"),
    ("--op", "replicate:1", "--schedule", "capped:²"),
    ("--op", "replicate:²"),
])
def test_run_non_decimal_digits_exit_2(tmp_path, args):
    stream = tmp_path / "s.txt"
    invoke("gen", "--family", "omega", "--stages", "5", "--out", str(stream))
    _assert_usage_error(invoke("run", *args, "--in", str(stream),
                               "--log", str(tmp_path / "x.jsonl")))


@pytest.mark.parametrize("command", [
    ["gen", "--family", "omega", "--stages", "5", "--out", "{missing}"],
    ["run", "--op", "replicate:1", "--in", "{stream}", "--log", "{missing}"],
    ["force", "--op", "replicate:2", "--alpha", "{alpha}", "--atom", "lt 2 1",
     "--out", "{missing}"],
    ["classify", "--log", "{log}", "--claim", "omega", "--out", "{missing}"],
    # write_suite makes missing directories, but none under a regular file.
    ["suite", "--only", "phi_pair", "--out-dir", "{under_file}"],
], ids=lambda command: command[0])
def test_unwritable_output_exits_2(tmp_path, command):
    paths = {name: tmp_path / name for name in ("stream", "log", "alpha")}
    invoke("gen", "--family", "omega", "--stages", "5", "--out", str(paths["stream"]))
    invoke("run", "--op", "replicate:1", "--in", str(paths["stream"]),
           "--log", str(paths["log"]))
    paths["alpha"].write_text("lt 0 1\n")
    (tmp_path / "file").write_text("")
    paths["missing"] = tmp_path / "missing" / "out"
    paths["under_file"] = tmp_path / "file" / "out"
    _assert_usage_error(invoke(*(arg.format(**paths) for arg in command)))
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("option", [("--w", "0"), ("--w", "-3"),
                                    ("--window", "0"), ("--window", "-5")],
                         ids=" ".join)
def test_classify_out_of_range_threshold_or_window_exits_2(tmp_path, option):
    """--w is read by the order fingerprint, --window by the class census."""
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega", "--policy", "permuted", "--stages", "40",
           "--out", str(stream))
    op, claim = ("replicate:1", "omega") if option[0] == "--w" else ("ord2eq", "e_k:1")
    invoke("run", "--op", op, "--in", str(stream), "--log", str(log))
    _assert_usage_error(invoke("classify", "--log", str(log), "--claim", claim,
                               *option))


@pytest.mark.parametrize("stages", ["0", "-1"])
def test_run_stages_below_one_exits_2(tmp_path, stages):
    stream = tmp_path / "s.txt"
    log = tmp_path / "r.jsonl"
    invoke("gen", "--family", "omega", "--stages", "5", "--out", str(stream))
    _assert_usage_error(invoke("run", "--op", "replicate:1", "--in", str(stream),
                               "--stages", stages, "--log", str(log)))
    assert not log.exists()


@pytest.mark.parametrize("signature, facts, claim", [
    ("equivalence", ["el 0", "el 1", "lt 0 1"], "e"),
    ("linear_order", ["el 0", "el 1", "sim 0 1"], "omega"),
], ids=["lt_in_equivalence_log", "sim_in_order_log"])
def test_classify_fact_outside_the_log_signature_exits_3(tmp_path, signature,
                                                         facts, claim):
    """A record may only hold el facts and the relation of its header's
    signature; any other is rejected as it is read."""
    log = tmp_path / "r.jsonl"
    header = {"v": 1, "type": "header", "operator": "hand", "signature": signature,
              "provenance": "", "schedule": ""}
    record = {"v": 1, "stage": 0, "new_facts": facts, "annotations": None}
    log.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    result = invoke("classify", "--log", str(log), "--claim", claim)
    assert result.exit_code == 3
    rel = facts[-1].split()[0]
    assert f"relation {rel!r} not admitted by {signature}" in result.output

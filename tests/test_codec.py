"""The fact codec against its plain reference, round trips of the text
formats built on it (stream files and run logs), and fuzzed input files
through their readers and the CLI."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ops as ref
from embedlab.cli import EXIT_SIGNATURE, EXIT_SUITE, EXIT_USAGE, main
from embedlab.diagram import (
    EmbedlabError,
    InvalidSchedule,
    InvalidSpec,
    ParseError,
    Signature,
    SignatureError,
    format_facts,
    parse_diagram,
    parse_fact,
    parse_facts,
)
from embedlab.kernel import RunLog, parse_schedule, run
from embedlab.registry import build_operator
from embedlab.sigma2 import parse_sentence
from embedlab.streams import (
    EQUIV_FAMILIES,
    ORDER_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
)

CODEC_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True)
ROUND_TRIP_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

RELATION_TOKENS = st.sampled_from(["el", "lt", "sim"]) | st.sampled_from(
    ["EL", "Lt", "lt:", "sims", "x", "٣", "--"])
ARGUMENT_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["00", "+4", "-0", "1_0", "_1", "1__0", "٣", "١٢",
                     "0x1", "1.0", "1e3", "lt"]),
    st.integers(0, 10**40).map(str),
    st.text(max_size=3),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "　"])


@st.composite
def fact_lines(draw):
    """Token strings near the fact grammar: a relation token, 0-3
    arguments (so wrong arities too), mixed whitespace, and now and then
    an empty or blank line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", " ", "\t", "\t \t"]))
    tokens = [draw(RELATION_TOKENS)] + draw(st.lists(ARGUMENT_TOKENS, max_size=3))
    line = draw(st.sampled_from(["", " ", "\t"]))
    for i, token in enumerate(tokens):
        line += (draw(SEPARATORS) if i else "") + token
    return line + draw(st.sampled_from(["", " ", "\t "]))


def outcome(fn, arg):
    """What fn(arg) gives: its value, or the class and message it raised."""
    try:
        return "value", fn(arg)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)


def reference_parse_all(lines):
    return [ref.parse_fact(line) for line in lines]


@given(fact_lines() | st.text(max_size=12))
@CODEC_SETTINGS
def test_parse_fact_matches_reference(line):
    assert outcome(parse_fact, line) == outcome(ref.parse_fact, line)


@given(st.lists(fact_lines(), max_size=6))
@CODEC_SETTINGS
def test_parse_facts_matches_reference(lines):
    """Batch parsing gives every fact, or the first bad line's error."""
    assert outcome(parse_facts, lines) == outcome(reference_parse_all, lines)


@pytest.mark.parametrize("line", [
    "lt 1 2", "lt\t1\t2", "  sim   4    3 ", "el +4", "el -0", "lt -0 0",
    "el 1_0", "el ٣", "sim ٣ 1_0", "", "   ", "el", "el 1 2", "lt 1",
    "lt 1 2 3", "sim 1", "le 1 2", "lt 1 x", "lt -1 2", "lt 1 -2", "sim 0 -0",
    "lt 3 3", "el " + "9" * 5000,
])
def test_parse_fact_edge_cases_match_reference(line):
    assert outcome(parse_fact, line) == outcome(ref.parse_fact, line)


@pytest.mark.parametrize("value", [5, None, ["lt", "1", "2"], b"lt 1 2"])
def test_parse_fact_rejects_non_strings_as_before(value):
    assert outcome(parse_fact, value) == outcome(ref.parse_fact, value)


NATURALS = st.integers(0, 10**30)
FACTS = st.one_of(
    st.tuples(st.just("el"), NATURALS),
    st.tuples(st.just("lt"), NATURALS, NATURALS).filter(lambda f: f[1] != f[2]),
    st.tuples(st.just("sim"), NATURALS, NATURALS).map(
        lambda f: ("sim", min(f[1:]), max(f[1:]))),
)


@given(st.lists(FACTS, max_size=8))
@CODEC_SETTINGS
def test_format_matches_reference_and_round_trips(facts):
    lines = format_facts(facts)
    assert lines == [ref.format_fact(f) for f in facts]
    assert parse_facts(lines) == facts


def test_run_log_rejects_non_string_facts():
    log = RunLog.from_jsonl(
        '{"v": 1, "type": "header", "operator": "x", "signature": "linear_order"}\n'
        '{"v": 1, "stage": 0, "new_facts": ["el 0"]}\n')
    assert log.records[0].new_facts == [("el", 0)]
    for bad in ("[5]", "[null]", '[["el", 0]]', "7"):
        with pytest.raises(ParseError, match="new_facts must list facts"):
            RunLog.from_jsonl(
                '{"v": 1, "type": "header", "operator": "x", "signature": "linear_order"}\n'
                f'{{"v": 1, "stage": 0, "new_facts": {bad}}}\n')


@pytest.mark.parametrize("signature", [s.value for s in Signature])
@pytest.mark.parametrize("bad", ['{"el 1": 0, "el 2": 5}', '""', '"el 1"'])
def test_run_log_rejects_new_facts_that_are_not_a_list(signature, bad, tmp_path):
    """An object's keys or a string's characters are not read as facts:
    the record's line is named, and the CLI exits 2."""
    text = (f'{{"v": 1, "type": "header", "operator": "x", "signature": "{signature}"}}\n'
            '{"v": 1, "stage": 0, "new_facts": ["el 0"]}\n'
            f'{{"v": 1, "stage": 1, "new_facts": {bad}}}\n')
    with pytest.raises(ParseError) as info:
        RunLog.from_jsonl(text)
    assert str(info.value) == "run log line 3: new_facts must list facts"
    log = tmp_path / "r.jsonl"
    log.write_text(text)
    result = CliRunner().invoke(main, ["classify", "--log", str(log), "--claim", "omega"])
    assert result.exit_code == EXIT_USAGE
    assert result.output == "error: run log line 3: new_facts must list facts\n"


@st.composite
def streams(draw):
    """A canonical stream, possibly restricted to some of its elements."""
    spec = CanonicalSpec(
        draw(st.sampled_from(ORDER_FAMILIES + EQUIV_FAMILIES)),
        draw(st.sampled_from(("fair", "permuted"))),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 2**16)),
    )
    stream = generate(spec, draw(st.integers(1, 16)))
    if draw(st.booleans()):
        domain = sorted(stream.final().domain)
        stream = ref.restrict(stream, draw(st.sets(st.sampled_from(domain))))
    return stream


def reference_stream_text(stream):
    lines = []
    for s, delta in enumerate(stream.deltas):
        lines.append(f"-- stage {s}")
        lines.extend(ref.format_fact(f) for f in sorted(delta))
    return "\n".join(lines) + "\n"


@given(streams())
@ROUND_TRIP_SETTINGS
def test_stream_text_round_trip(stream):
    text = stream.to_text()
    assert text == reference_stream_text(stream)
    again = StructureStream.from_text(text)
    if any(f[0] != "el" for delta in stream.deltas for f in delta):
        # A file with el facts only reads as a linear order.
        assert again.signature is stream.signature
    assert again.deltas == [sorted(d) for d in stream.deltas]
    assert again.to_text() == text


ORDER_EXPRESSIONS = ("replicate:2", "rev(replicate:1)", "ord2eq",
                     "concat(replicate:1, replicate:2)", "pair_formula2eq")
EQUIV_EXPRESSIONS = ("eq2ord_v1", "class_multiplier",
                     "concat(eq2ord_v1|fill:left, eq2ord_v2|fill:right)")


def reference_jsonl(log):
    """The run-log encoding written with the reference formatter."""
    lines = [json.dumps({
        "v": 1, "type": "header", "operator": log.operator,
        "signature": log.signature.value, "provenance": log.provenance,
        "schedule": log.schedule,
    }, sort_keys=True)]
    for rec in log.records:
        lines.append(json.dumps({
            "v": 1, "stage": rec.stage,
            "new_facts": [ref.format_fact(f) for f in rec.new_facts],
            "annotations": rec.annotations,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


@given(streams(), st.data())
@ROUND_TRIP_SETTINGS
def test_run_log_jsonl_round_trip(stream, data):
    exprs = (ORDER_EXPRESSIONS if stream.signature is Signature.LINEAR_ORDER
             else EQUIV_EXPRESSIONS)
    op = build_operator(data.draw(st.sampled_from(exprs)))
    log = run(op, stream, len(stream))
    text = log.to_jsonl()
    assert text == reference_jsonl(log)
    again = RunLog.from_jsonl(text)
    assert (again.operator, again.signature, again.provenance, again.schedule) == (
        log.operator, log.signature, log.provenance, log.schedule)
    assert [(r.stage, r.new_facts, r.annotations) for r in again.records] == [
        (r.stage, r.new_facts, r.annotations) for r in log.records]
    assert again.to_jsonl() == text


# --- Fuzzed input files ------------------------------------------------------
#
# Every input boundary either reads a file or raises an EmbedlabError, which
# the CLI reports as "error: ..." with its documented exit code (3 for a
# SignatureError, else 2), never as a traceback.

FUZZ_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
CLI_FUZZ_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


WELL_FORMED_LINES = st.builds(
    lambda rel, a, b: f"{rel} {a}" if rel == "el" else f"{rel} {a} {b}",
    st.sampled_from(["el", "lt", "sim"]), st.integers(0, 4), st.integers(0, 4))


@st.composite
def file_lines(draw):
    """Lines of a diagram or stream file: mostly well-formed facts, else
    fact-like lines, comments and arbitrary text."""
    if draw(st.integers(0, 7)):
        return draw(WELL_FORMED_LINES)
    return draw(st.one_of(
        fact_lines(),
        st.sampled_from(["# comment", "el 0 # comment", "#", "  "]),
        st.text(max_size=12),
    ))


SEPARATOR_LINES = st.sampled_from(
    ["--", "-- stage", "-- stage x", "-- step 0", "-- stage -1", "-- stage 9"])


@st.composite
def stream_texts(draw):
    """Stage blocks in order, each led by its separator, or now and then
    by a malformed or misnumbered one."""
    lines = []
    for n in range(draw(st.integers(0, 4))):
        lines.append(f"-- stage {n}" if draw(st.integers(0, 9))
                     else draw(SEPARATOR_LINES))
        lines += draw(st.lists(file_lines(), max_size=4))
    return "\n".join(lines)


def diagram_texts():
    return st.lists(file_lines(), max_size=6).map("\n".join) | st.text(max_size=40)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def run_log_texts(draw):
    """Run-log text near the format: a header, then records whose keys
    are each dropped, kept or replaced by arbitrary JSON, and now and then
    a line that is not a JSON object."""

    def record(fields):
        rec = {}
        for key, value in fields.items():
            choice = draw(st.integers(0, 19))
            if choice == 0:
                continue
            rec[key] = draw(JSON_VALUES) if choice == 1 else value
        return json.dumps(rec)

    signature = draw(st.sampled_from(["linear_order", "equivalence", "order"]))
    lines = [record({"v": 1, "type": "header", "operator": "x",
                     "signature": signature})]
    for stage in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.text(max_size=12)))
            continue
        notes = draw(st.none() | st.fixed_dictionaries(
            {}, optional={"pinned_size1": JSON_VALUES,
                          "pinned_size2": st.integers(-1, 3)}))
        lines.append(record({
            "v": 1, "stage": stage,
            "new_facts": draw(st.lists(file_lines(), max_size=4)),
            "annotations": notes,
        }))
    return "\n".join(lines)


def read_or_reject(parse, text):
    """parse(text), or None when it raises an EmbedlabError; any other
    exception fails the test."""
    try:
        return parse(text)
    except EmbedlabError:
        return None


@given(diagram_texts())
@FUZZ_SETTINGS
def test_fuzzed_diagram_file_reads_or_raises_embedlab_error(text):
    read_or_reject(parse_diagram, text)


@given(stream_texts() | diagram_texts())
@FUZZ_SETTINGS
def test_fuzzed_stream_file_reads_or_raises_embedlab_error(text):
    read_or_reject(StructureStream.from_text, text)


@given(run_log_texts())
@FUZZ_SETTINGS
def test_fuzzed_run_log_reads_or_raises_embedlab_error(text):
    read_or_reject(RunLog.from_jsonl, text)


def cli_outcome(tmp_path_factory, text, args, parse):
    """Run the CLI on text as an input file and check its exit: a file
    that parse rejects exits 2 (3 for a SignatureError) with one error
    line; one it reads exits with a documented code; neither prints a
    traceback."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-input"
    path.write_text(text, encoding="utf-8")
    out = tmp_path_factory.getbasetemp() / "fuzzed-output"
    result = CliRunner().invoke(main, [
        a.format(input=path, output=out) for a in args])
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    try:
        parse(text)
    except EmbedlabError as exc:
        want = EXIT_SIGNATURE if isinstance(exc, SignatureError) else EXIT_USAGE
        assert result.exit_code == want
        assert result.output == f"error: {exc}\n"
    else:
        assert result.exit_code in (0, EXIT_USAGE, EXIT_SIGNATURE, EXIT_SUITE)


@given(diagram_texts())
@CLI_FUZZ_SETTINGS
def test_fuzzed_diagram_file_through_the_cli(tmp_path_factory, text):
    cli_outcome(tmp_path_factory, text, [
        "force", "--op", "replicate:1", "--alpha", "{input}",
        "--atom", "lt 0 1", "--ext", "0", "--budget", "1"], parse_diagram)


@given(stream_texts() | diagram_texts())
@CLI_FUZZ_SETTINGS
def test_fuzzed_stream_file_through_the_cli(tmp_path_factory, text):
    cli_outcome(tmp_path_factory, text, [
        "run", "--op", "replicate:1", "--in", "{input}", "--log", "{output}"],
        StructureStream.from_text)


@given(run_log_texts())
@CLI_FUZZ_SETTINGS
def test_fuzzed_run_log_through_the_cli(tmp_path_factory, text):
    cli_outcome(tmp_path_factory, text, [
        "classify", "--log", "{input}", "--claim", "omega"], RunLog.from_jsonl)


# --- numbers at the input boundary --------------------------------------------

# Digits of other scripts, which int() reads like ASCII ones.
OTHER_DIGITS = ("٠١٢٣٤٥٦٧٨٩",  # Arabic-Indic
                "０１２３４５６７８９",  # fullwidth
                "०१२३४५६७८९")  # Devanagari


@st.composite
def lenient_numerals(draw):
    """A numeral that int() reads but that is not ASCII digits: a sign, an
    underscore between digits, or some digits from another script."""
    digits = str(draw(st.integers(10, 10**9)))
    form = draw(st.sampled_from(("sign", "underscore", "script")))
    if form == "sign":
        return draw(st.sampled_from("+-")) + digits
    if form == "underscore":
        i = draw(st.integers(1, len(digits) - 1))
        return digits[:i] + "_" + digits[i:]
    script = draw(st.sampled_from(OTHER_DIGITS))
    i = draw(st.integers(0, len(digits) - 1))
    return digits[:i] + script[int(digits[i])] + digits[i + 1:]


def numeral_inputs(n: str) -> dict:
    """Each input that holds a number, with the numeral n in it: its
    reader, the text, and the error it raises when it rejects the numeral."""
    sentence = "exists {}\ndisjunct 0\nforall {}: not lt y{} x0\n"
    header = "header needs one natural number"
    return {
        "el id": (parse_facts, [f"el {n}"], ParseError, "non-natural argument"),
        "lt id": (parse_facts, [f"lt 0 {n}"], ParseError, "non-natural argument"),
        "stage separator": (StructureStream.from_text,
                            f"-- stage 0\nel 0\n-- stage {n}\nel 1\n",
                            ParseError, "bad stage separator"),
        "replicate count": (build_operator, f"replicate:{n}", InvalidSpec,
                            "replicate needs a positive count"),
        "const schedule": (parse_schedule, f"const:{n}", InvalidSchedule, "unknown schedule"),
        "capped schedule": (parse_schedule, f"capped:{n}", InvalidSchedule, "unknown schedule"),
        "exists arity": (parse_sentence, sentence.format(n, 1, 0), ParseError, header),
        "forall arity": (parse_sentence, sentence.format(1, n, 0), ParseError, header),
        "variable index": (parse_sentence, sentence.format(1, 2, n), ParseError, "bad variable"),
        "family k": (CanonicalSpec.parse, f"omega_k:{n}", InvalidSpec, "bad k"),
    }


@given(lenient_numerals())
@CODEC_SETTINGS
def test_numerals_are_ascii_digits_at_every_input(n):
    int(n)  # int() alone would read it
    for read, text, error, message in numeral_inputs(n).values():
        with pytest.raises(error, match=message):
            read(text)


def test_every_input_reads_ascii_digits():
    for read, text, _, _ in numeral_inputs("1").values():
        read(text)


@pytest.mark.parametrize("n", ["٣", "+1", "1_0"])
def test_numerals_through_the_cli_exit_2(tmp_path, n):
    good = tmp_path / "s.txt"
    good.write_text("-- stage 0\nel 0\n-- stage 1\nel 1\nlt 0 1\n")
    bad = tmp_path / "bad.txt"
    log = str(tmp_path / "r.jsonl")
    runs = {
        "stage separator": ("--in", bad, f"-- stage {n}\nel 0\n"),
        "stream fact": ("--in", bad, f"-- stage 0\nel {n}\n"),
        "sentence": ("--phi", bad, f"exists {n}\ndisjunct 0\nforall 1: not lt y0 x0\n"),
    }
    for name, (option, path, text) in runs.items():
        path.write_text(text, encoding="utf-8")
        args = {"--op": "phi_sigma2" if option == "--phi" else "replicate:1",
                "--in": str(good), "--log": log, option: str(path)}
        result = CliRunner().invoke(main, ["run", *(a for kv in args.items() for a in kv)])
        assert (name, result.exit_code) == (name, EXIT_USAGE)
        assert result.output.startswith("error: ")
    for args in (["--op", f"replicate:{n}"], ["--schedule", f"const:{n}"]):
        result = CliRunner().invoke(main, [
            "run", "--op", "replicate:1", "--in", str(good), "--log", log, *args])
        assert result.exit_code == EXIT_USAGE and result.output.startswith("error: ")

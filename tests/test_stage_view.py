"""One stage diagram per run: StructureStream.iter_stages grows one
FiniteDiagram, built empty, by each delta, and it must read at every stage
exactly as a FiniteDiagram built from the cumulative facts
(StructureStream.stage) reads, errors included."""

from itertools import permutations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference_ops import Mirror, covering_stream
from embedlab.combinators import replicate, reverse
from embedlab.constructions import formula2eq, ord2eq
from embedlab.diagram import (
    EmbedlabError,
    FiniteDiagram,
    InconsistentDiagram,
    InvalidInput,
    Signature,
)
from embedlab.kernel import run
from embedlab.sigma2 import least_element_sentence
from embedlab.streams import (
    EQUIV_FAMILIES,
    ORDER_FAMILIES,
    CanonicalSpec,
    StructureStream,
    generate,
    restrict,
)


def _outcome(call):
    """What a call returns, or the class and message of what it raises."""
    try:
        return "ok", call()
    except EmbedlabError as exc:
        return type(exc), str(exc)


def _inserted(d, line: list, x: int):
    return d.insert(line, x), line


def _readings(d) -> dict:
    """Every reading of a stage, each as an outcome.  below is read first,
    so a grown diagram first reads its order for an unstored pair."""
    domain = sorted(d.domain)
    pairs = list(permutations(domain, 2)) + [(x, x) for x in domain[:1]]
    below = [_outcome(lambda: d.below(a, b)) for a, b in pairs]
    line = _outcome(d.chain)
    base = line[1] if line[0] == "ok" else domain
    return {
        "domain": d.domain,
        "facts": d.facts,
        "below": below,
        "chain": line,
        "is_total": d.is_total(),
        "sim_classes": _outcome(d.sim_classes),
        "holds": [_outcome(lambda: d.holds((rel, a, b)))
                  for a, b in pairs for rel in ("lt", "sim")],
        "insert": [_outcome(lambda: _inserted(d, [y for y in base if y != x], x))
                   for x in domain],
    }


@st.composite
def generated_streams(draw):
    family = draw(st.sampled_from(ORDER_FAMILIES + EQUIV_FAMILIES))
    spec = CanonicalSpec(family, draw(st.sampled_from(("fair", "permuted"))),
                         draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))
    stream = generate(spec, draw(st.integers(1, 14)))
    kind = draw(st.sampled_from(("plain", "covering", "restricted")))
    if kind == "covering" and spec.signature is Signature.LINEAR_ORDER:
        stream = covering_stream(stream)
    elif kind == "restricted":
        domain = sorted(stream.final().domain)
        stream = restrict(stream, draw(st.sets(st.sampled_from(domain))))
    return stream


_ELEMENTS = st.integers(0, 3)
_FACTS = (st.builds(lambda x: ("el", x), _ELEMENTS)
          | st.tuples(_ELEMENTS, _ELEMENTS).filter(lambda p: p[0] != p[1]).map(
              lambda p: ("lt", *p)))


@st.composite
def drawn_streams(draw):
    """Order deltas drawn freely: stages that are not total, lt cycles,
    and facts repeated within a delta or from an earlier one."""
    deltas = draw(st.lists(st.lists(_FACTS, max_size=4), min_size=1, max_size=8))
    return StructureStream(Signature.LINEAR_ORDER, deltas, "drawn")


@st.composite
def read_streams(draw):
    """A stream and the stages at which to read it, so that the grown
    diagram also catches up over several deltas at once."""
    stream = draw(generated_streams() | drawn_streams())
    return stream, draw(st.lists(st.booleans(), min_size=len(stream),
                                 max_size=len(stream)))


def _read_all(*deltas):
    return (StructureStream(Signature.LINEAR_ORDER, list(deltas), "x"),
            [True] * len(deltas))


VIEW_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(read_streams())
# A total chain, then a new lt fact between old elements against it.
@example(_read_all([("el", 0), ("el", 1), ("lt", 0, 1)], [("lt", 1, 0)]))
# Two new elements between stored neighbours, with an lt fact between
# them against the order those neighbours give.
@example(_read_all([("el", 0), ("el", 1), ("lt", 0, 1)],
                   [("el", 2), ("lt", 2, 0), ("el", 3), ("lt", 1, 3), ("lt", 3, 2)]))
@VIEW_SETTINGS
def test_view_reads_like_the_cumulative_diagram(presentation):
    """At each stage read, the grown diagram answers every reading as the
    diagram built from the cumulative facts does and equals it, and its
    delta holds the stage's new facts."""
    stream, read = presentation
    seen: set = set()
    for s, view in enumerate(stream.iter_stages()):
        fresh = [f for f in dict.fromkeys(stream.deltas[s]) if f not in seen]
        seen.update(fresh)
        assert view.delta == fresh
        if read[s] or s == len(stream) - 1:
            assert _readings(view) == _readings(stream.stage(s)), f"stage {s}"
            assert view == stream.stage(s), f"stage {s}"


def _stream(*deltas) -> StructureStream:
    return StructureStream(Signature.LINEAR_ORDER, list(deltas), "x")


NOT_TOTAL = _stream([("el", 0)], [("el", 1)])
CYCLIC = _stream([("el", 0), ("el", 1), ("lt", 0, 1)], [("el", 2), ("lt", 1, 0)])


def _last_stage(stream: StructureStream):
    for view in stream.iter_stages():
        pass
    return view


NOT_TOTAL_ORDER = (InvalidInput, "diagram is not a total order")
LT_CYCLE = (InconsistentDiagram, "lt facts contain a cycle")
INNER_NOT_TOTAL = (
    InvalidInput, "an order combinator needs its inner output to be a total order")

# Errors of a stage and of an inner fact operator's output that is not a
# total order: (what raises, class, message).
STAGE_ERRORS = {
    "view_not_total": (lambda: _last_stage(NOT_TOTAL).chain(), *NOT_TOTAL_ORDER),
    "view_cycle": (lambda: _last_stage(CYCLIC).chain(), *LT_CYCLE),
    "view_below_not_total": (lambda: _last_stage(NOT_TOTAL).below(0, 1),
                             *NOT_TOTAL_ORDER),
    "run_not_total": (lambda: run(replicate(1), NOT_TOTAL, 2), *NOT_TOTAL_ORDER),
    # Stage 0 stores both pairs replicate asks about; element 2 needs ranks.
    "run_cycle": (lambda: run(replicate(1), _stream(
        [("el", 0), ("el", 1), ("lt", 0, 1), ("lt", 1, 0)], [("el", 2)]), 2),
        *LT_CYCLE),
    "batches_not_total": (lambda: run(reverse(Mirror()), NOT_TOTAL, 2),
                          *INNER_NOT_TOTAL),
    "batches_cycle": (lambda: run(reverse(Mirror()), CYCLIC, 2), *INNER_NOT_TOTAL),
}


@pytest.mark.parametrize("name", sorted(STAGE_ERRORS))
def test_stage_errors(name):
    call, cls, message = STAGE_ERRORS[name]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


@pytest.mark.parametrize("op", [formula2eq(least_element_sentence(), 1), ord2eq()])
def test_repeated_facts_reach_a_step_once(op):
    """A stream built in code may repeat a fact; each step gets only the
    facts new to the run, so nothing is seeded or logged twice."""
    stream = _stream([("el", 0), ("el", 1), ("lt", 0, 1)], [], [("el", 1)], [])
    log = run(op, stream, len(stream))
    facts = [f for rec in log.records for f in rec.new_facts]
    assert facts and len(facts) == len(set(facts))


def _count_diagram_work(monkeypatch) -> list:
    """Record each FiniteDiagram construction ("init") and each read of
    its order ("topo"), which runs a Kahn pass unless one is cached."""
    calls: list = []
    init = FiniteDiagram.__init__
    topo = FiniteDiagram._topo

    def counted_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def counted_topo(self):
        calls.append("topo")
        return topo(self)

    monkeypatch.setattr(FiniteDiagram, "__init__", counted_init)
    monkeypatch.setattr(FiniteDiagram, "_topo", counted_topo)
    return calls


def test_a_run_builds_no_diagram_per_stage(monkeypatch):
    """Stages are one diagram grown in place: on a stream that stores
    every pair, a run builds that diagram only and never reads its order."""
    stream = generate(CanonicalSpec("omega_k", "permuted", 2, seed=7), 80)
    calls = _count_diagram_work(monkeypatch)
    assert run(replicate(2), stream, 80).records[-1].new_facts.chain
    assert calls == ["init"]

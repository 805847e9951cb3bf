"""Run-time tracing of embedlab from outside the program.

The tracer wraps public entry points (and the evaluator node types found by
walking ``StreamEvaluator.__subclasses__()``) while a traced pass runs and
restores the originals afterwards.  Functions that other modules import by
name (``from .pairing import tag``) are rebound in every embedlab module,
and in module-level dicts such as ``experiments.EXPERIMENTS``.

Every wrapped call opens a frame on one stack, so each layer's self time is
its duration minus the time of the wrapped calls inside it.  Calls at a
layer boundary (parse, run, encode, classifiers, scans, experiments) also
leave a span: name, start, end, parent span and case id.  Hot leaves
(``tag``, ``encode_tuple``) are only counted.  Everything is kept in memory
and written once at the end of the run.

Entry points that do not exist in the traced code are reported as absent,
never as zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (frame name, kind, module, qualified name).  Kinds:
#   span   timed frame that also records a span
#   timed  timed frame, aggregated only
#   batch  timed frame counted only when no batch frame is already open,
#          so nested eval/eval_chain/budget_deltas calls fold into the
#          outermost one
#   count  call count only, no frame
#   gen    generator: each next() is a timed frame, yields are counted
ENTRY_POINTS = [
    ("streams.parse", "span", "embedlab.streams", "StructureStream.from_text"),
    ("streams.stage", "gen", "embedlab.streams", "StructureStream.iter_stages"),
    ("kernel.run", "span", "embedlab.kernel", "run"),
    ("kernel.encode", "span", "embedlab.kernel", "RunLog.to_jsonl"),
    ("kernel.decode", "span", "embedlab.kernel", "RunLog.from_jsonl"),
    ("kernel.batch_eval", "batch", "embedlab.kernel", "EnumerationOperator.eval"),
    ("kernel.batch_eval", "batch", "embedlab.kernel", "EnumerationOperator.eval_chain"),
    ("combinators.merge", "timed", "embedlab.combinators", "_SideMerger.advance"),
    ("combinators.fill", "timed", "embedlab.combinators", "_FillBlocks.advance"),
    ("pairing.tag", "count", "embedlab.pairing", "tag"),
    ("pairing.encode_tuple", "count", "embedlab.pairing", "encode_tuple"),
    ("sigma2.update", "timed", "embedlab.sigma2", "WitnessTracker.update"),
    ("classify.fingerprint", "span", "embedlab.classify", "fingerprint"),
    ("classify.census", "span", "embedlab.classify", "census"),
    ("forcing.scan", "span", "embedlab.forcing", "trichotomy_scan"),
    ("forcing.extensions", "gen", "embedlab.forcing", "extensions"),
    ("diagram.chain", "timed", "embedlab.diagram", "FiniteDiagram.chain"),
    ("experiments.monotonicity", "span", "embedlab.experiments", "experiment_monotonicity"),
    ("experiments.trichotomy", "span", "embedlab.experiments", "experiment_trichotomy"),
    ("experiments.eq2ord_oracle", "span", "embedlab.experiments", "experiment_eq2ord_oracle"),
]

# Node types (stream evaluators and stage constructions) present when the
# benchmark was written.  A type missing from the traced code is reported
# as absent; a type not listed here is reported as new.
KNOWN_NODES = (
    "GenericStreamEvaluator", "_ComposedStream", "_ReplicateStream",
    "_MappedStream", "_FillStream", "_PairedStream", "_Ord2EqStream",
    "_Eq2OrdStream", "_MultiplierStream", "_Formula2EqStream",
    "PhiPair", "PhiSigma2",
)

# (metric, unit, source).  Sources: ("self", frame) self seconds,
# ("calls", frame) call or yield count, ("nodes",) step calls of all nodes.
LAYER_METRICS = [
    ("streams.parse_s", "s", ("self", "streams.parse")),
    ("streams.stage_s", "s", ("self", "streams.stage")),
    ("streams.stages", "count", ("calls", "streams.stage")),
    ("kernel.run_self_s", "s", ("self", "kernel.run")),
    ("kernel.step_calls", "count", ("nodes",)),
    ("kernel.encode_s", "s", ("self", "kernel.encode")),
    ("kernel.decode_s", "s", ("self", "kernel.decode")),
    ("kernel.batch_eval_s", "s", ("self", "kernel.batch_eval")),
    ("kernel.batch_eval_calls", "count", ("calls", "kernel.batch_eval")),
    ("combinators.merge_s", "s", ("self", "combinators.merge")),
    ("combinators.merge_calls", "count", ("calls", "combinators.merge")),
    ("combinators.fill_s", "s", ("self", "combinators.fill")),
    ("combinators.replicate_s", "s", ("self", "node._ReplicateStream")),
    ("constructions.eq2ord_s", "s", ("self", "node._Eq2OrdStream")),
    ("constructions.ord2eq_s", "s", ("self", "node._Ord2EqStream")),
    ("constructions.formula2eq_s", "s", ("self", "node._Formula2EqStream")),
    ("constructions.phi_pair_s", "s", ("self", "node.PhiPair")),
    ("constructions.phi_sigma2_s", "s", ("self", "node.PhiSigma2")),
    ("pairing.tag_calls", "count", ("calls", "pairing.tag")),
    ("pairing.encode_tuple_calls", "count", ("calls", "pairing.encode_tuple")),
    ("sigma2.update_s", "s", ("self", "sigma2.update")),
    ("sigma2.update_calls", "count", ("calls", "sigma2.update")),
    ("classify.fingerprint_s", "s", ("self", "classify.fingerprint")),
    ("classify.census_s", "s", ("self", "classify.census")),
    ("forcing.scan_s", "s", ("self", "forcing.scan")),
    ("forcing.extensions", "count", ("calls", "forcing.extensions")),
    ("diagram.chain_s", "s", ("self", "diagram.chain")),
    ("diagram.chain_calls", "count", ("calls", "diagram.chain")),
    ("experiments.monotonicity_s", "s", ("self", "experiments.monotonicity")),
    ("experiments.trichotomy_s", "s", ("self", "experiments.trichotomy")),
    ("experiments.eq2ord_oracle_s", "s", ("self", "experiments.eq2ord_oracle")),
]

# Layer figures that cannot be taken from outside the program; they are
# listed in the traced output instead of dropped.
NOT_MEASURABLE = [
    ("kernel.node_state_size", "retained state per evaluator node is private "
     "to each node; it needs the in-program probe (ROADMAP item 1)"),
    ("*.wait_s", "the program is single-threaded, so no layer waits"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list = []   # open frames: [name, start, child_s, span_id]
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counters: dict = {}  # count-only entry points: name -> [n]
        self.spans: list = []
        self.case = None
        self.batch_depth = 0
        self.present: set = set()
        self.absent: list = []   # (frame name, reason)
        self.nodes: list = []    # node frame names found
        self._restore: list = []

    # -- frames ---------------------------------------------------------
    def push(self, name, span: bool):
        span_id = None
        if span:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def pop(self, frame, count: bool = True):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.self_s[name] += duration - child
        if count:
            self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            parent = next(
                (f[3] for f in reversed(self.stack) if f[3] is not None), None
            )
            self.spans[span_id] = (span_id, name, start, end, parent, self.case)

    def begin_case(self, case_id):
        self.case = case_id
        return self.push("bench.case", True)

    def end_case(self, frame):
        self.pop(frame)
        self.case = None

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name, kind, fn):
        tracer = self
        if kind == "count":
            return _counter(fn, self.counters.setdefault(name, [0]))
        if kind == "gen":
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer.push(name, False) if tracer.active else None
                    try:
                        item = next(it)
                    except StopIteration:
                        if frame is not None:
                            tracer.pop(frame, count=False)
                        return
                    if frame is not None:
                        tracer.pop(frame)
                    yield item
            return generator
        if kind == "batch":
            def batch(*args, **kwargs):
                if not tracer.active or tracer.batch_depth:
                    return fn(*args, **kwargs)
                tracer.batch_depth += 1
                frame = tracer.push(name, False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.pop(frame)
                    tracer.batch_depth -= 1
            return batch
        span = kind == "span"

        def framed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.push(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
        return framed

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr, name, kind):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self._wrap(name, kind, raw.__func__)))
        else:
            self._set(cls, attr, self._wrap(name, kind, raw))

    def _rebind_function(self, fn, wrapper):
        """Replace every module-level reference to fn in embedlab."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "embedlab" or mod_name.startswith("embedlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._restore.append((value, key, fn))
                            value[key] = wrapper

    def install(self):
        for name, kind, mod_name, qualname in ENTRY_POINTS:
            mod = sys.modules.get(mod_name)
            owner, _, attr = qualname.rpartition(".")
            target = getattr(mod, owner, None) if owner else mod
            if target is None or attr not in getattr(target, "__dict__", {}):
                self.absent.append((name, f"{mod_name}.{qualname} not found"))
                continue
            self.present.add(name)
            if owner:
                self._wrap_method(target, attr, name, kind)
            else:
                fn = vars(target)[attr]
                self._rebind_function(fn, self._wrap(name, kind, fn))
        kernel = sys.modules["embedlab.kernel"]
        for cls in _subclasses(kernel.EnumerationOperator):
            if "budget_deltas" in cls.__dict__:
                self._wrap_method(cls, "budget_deltas", "kernel.batch_eval", "batch")
        for base in (kernel.StreamEvaluator, kernel.TuringConstruction):
            for cls in _subclasses(base):
                if "step" in cls.__dict__:
                    name = f"node.{cls.__name__}"
                    self.nodes.append(name)
                    self.present.add(name)
                    self._wrap_method(cls, "step", name, "timed")
        found = {n[len("node."):] for n in self.nodes}
        for node in KNOWN_NODES:
            if node not in found:
                self.absent.append((f"node.{node}", "node type not found"))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------
    def _calls(self, name):
        if name in self.counters:
            return self.counters[name][0]
        return self.calls.get(name, 0)

    def layer_metrics(self, passes: int) -> tuple:
        """Per-pass layer metrics, and the (metric, reason) pairs that are
        absent because their entry point does not exist."""
        metrics, absent = {}, []
        for metric, unit, source in LAYER_METRICS:
            if source[0] == "nodes":
                value = sum(self.calls.get(n, 0) for n in self.nodes)
            elif source[1] not in self.present:
                reason = dict(self.absent).get(source[1], "entry point not found")
                absent.append((metric, reason))
                continue
            elif source[0] == "self":
                value = self.self_s.get(source[1], 0.0)
            else:
                value = self._calls(source[1])
            value = value / passes
            if unit == "count":
                value = round(value, 3)
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, absent

    def node_table(self, passes: int) -> list:
        """(node type, status, step calls per pass, self seconds per pass)."""
        rows = []
        for name in self.nodes:
            node = name[len("node."):]
            status = "present" if node in KNOWN_NODES else "new"
            rows.append((node, status, self.calls.get(name, 0) / passes,
                         self.self_s.get(name, 0.0) / passes))
        rows.extend((name[len("node."):], "absent", None, None)
                    for name, _ in self.absent if name.startswith("node."))
        return rows

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "case": s[5]}
                for s in self.spans if s is not None
            ],
            "self_s": dict(self.self_s),
            "calls": {**self.calls,
                      **{k: v[0] for k, v in self.counters.items()}},
            "absent": [{"name": n, "reason": r} for n, r in self.absent],
        }


def _counter(fn, cell):
    """Call-counting wrapper.  Hot leaves are called millions of times per
    pass, so the wrapper matches a one- or two-argument signature exactly
    (no argument packing) and skips the active check: counting wrappers are
    only installed while traced passes run."""
    code = fn.__code__
    plain = not fn.__defaults__ and not code.co_kwonlyargcount and \
        not code.co_flags & 0x0C  # no *args / **kwargs
    if plain and code.co_argcount == 1:
        def counted(a):
            cell[0] += 1
            return fn(a)
    elif plain and code.co_argcount == 2:
        def counted(a, b):
            cell[0] += 1
            return fn(a, b)
    else:
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
    return counted


def _subclasses(cls):
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out

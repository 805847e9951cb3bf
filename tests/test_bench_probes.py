"""The benchmark's tracer finds the code behind every per-layer metric.

bench/tracing.py wraps entry points and evaluator node types by name, and
a metric whose entry point or node ``step`` is gone is left off a traced
run's result line.  So renaming or moving one of them leaves the
benchmark unable to measure that layer.  This test does what a traced run
does before its passes: a fresh import of the package, then
``Tracer().install()``.  The traced pass below goes on to run small
equivalence cases under the tracer, as a traced run does.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "embedlab"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drop_embedlab() -> dict:
    names = [n for n in sys.modules if n == "embedlab" or n.startswith("embedlab.")]
    return {n: sys.modules.pop(n) for n in names}


def test_every_layer_metric_has_its_probe():
    tracing = _load_tracing()
    kept = _drop_embedlab()
    tracer = tracing.Tracer()
    try:
        for path in sorted(PACKAGE.glob("*.py")):
            name = "embedlab" if path.stem == "__init__" else f"embedlab.{path.stem}"
            module = importlib.import_module(name)
            assert Path(module.__file__).resolve() == path.resolve()
        tracer.install()
        missing = [(metric, source[1]) for metric, _, source in tracing.LAYER_METRICS
                   if source[0] != "nodes" and source[1] not in tracer.present]
        assert missing == []
        assert tracer.nodes
        metrics, absent = tracer.layer_metrics(1)
        assert absent == []
        assert set(metrics) == {metric for metric, _, _ in tracing.LAYER_METRICS}
    finally:
        tracer.uninstall()
        _drop_embedlab()
        sys.modules.update(kept)


def _load_workloads():
    """bench/workloads.py, registered while it loads: its dataclasses look
    their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_equivalence_cases_give_finite_metrics():
    """A traced pass over small ord2eq and pair_formula2eq cases, as a
    traced benchmark run makes one: every case runs and passes its full
    check under the tracer, and every per-layer metric is a finite number."""
    tracing, workloads = _load_tracing(), _load_workloads()
    kept = _drop_embedlab()
    tracer = tracing.Tracer()
    try:
        em = SimpleNamespace(**{m: importlib.import_module(f"embedlab.{m}") for m in (
            "streams", "kernel", "combinators", "constructions", "classify",
            "diagram", "registry", "experiments")})
        tracer.install()
        spec = em.streams.CanonicalSpec
        inputs = [("ord2eq", spec("one_plus_eta", "permuted", seed=3), {"want": (1, 0)}),
                  ("pair_formula2eq", spec("omega_k", "permuted", k=2, seed=3), {"side": 1})]
        for index, (kind, stream_spec, params) in enumerate(inputs):
            case = workloads.Case(
                index, kind, kind, stages=16,
                text=em.streams.generate(stream_spec, 16).to_text(),
                op=em.registry.build_operator(kind), gated=False, params=params)
            tracer.active = True
            frame = tracer.begin_case(index)
            out, _ = workloads.run_case(case, 7, em)
            tracer.end_case(frame)
            tracer.active = False
            assert workloads.full_check(case, out, em) == []
        metrics, absent = tracer.layer_metrics(1)
        assert absent == []
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        assert metrics["classify.census_s"]["value"] > 0
    finally:
        tracer.uninstall()
        _drop_embedlab()
        sys.modules.update(kept)

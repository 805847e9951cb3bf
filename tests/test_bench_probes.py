"""The benchmark's tracer finds the code behind every per-layer metric.

bench/tracing.py wraps entry points and evaluator node types by name, and
a metric whose entry point or node ``step`` is gone is left off a traced
run's result line.  So renaming or moving one of them leaves the
benchmark unable to measure that layer.  This test does what a traced run
does before its passes: a fresh import of the package, then
``Tracer().install()``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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

"""Command-line front end.

Subcommands: gen (write a canonical stream), run (drive an operator along a
stream into a JSONL log), force (one bounded forcing query), classify
(census/fingerprint verdict for a log), suite (the full acceptance suite).

Exit codes: 0 success, 2 usage or specification error (an output file
that cannot be written included), 3 signature mismatch, 4 suite failure.
EMBEDLAB_SEED overrides --seed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .classify import consistency_verdict
from .diagram import (
    EmbedlabError,
    InvalidSpec,
    SignatureError,
    format_facts,
    is_natural,
    new_elements,
    parse_diagram,
    parse_fact,
)
from .forcing import ForcingQuery, bounded_force
from .kernel import RunLog, parse_schedule, run as run_operator
from .registry import build_operator
from .sigma2 import resolve_sentence
from .streams import CanonicalSpec, StructureStream, generate
from .constructions import StagePair
from . import experiments

EXIT_USAGE = 2
EXIT_SIGNATURE = 3
EXIT_SUITE = 4


class _Main(click.Group):
    """Maps every EmbedlabError and OSError a subcommand raises to
    ``error: ...`` on stderr and its exit code, with no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (EmbedlabError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SIGNATURE if isinstance(exc, SignatureError)
                     else EXIT_USAGE)


def _seed_option(seed: int) -> int:
    env = os.environ.get("EMBEDLAB_SEED")
    if not env:
        return seed
    # An optional minus and ASCII digits; int() would also take a plus,
    # spaces, underscores and other scripts' digits.
    if not is_natural(env.removeprefix("-")):
        raise InvalidSpec(f"EMBEDLAB_SEED must be an integer, got {env!r}")
    return int(env)


@click.group(cls=_Main)
def main():
    """Workbench for monotone operators on orders and equivalences."""


@main.command()
@click.option("--family", required=True)
@click.option("--k", default=1, show_default=True)
@click.option("--policy", default="fair", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--stages", default=100, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(family, k, policy, seed, stages, out):
    """Generate a canonical structure stream file."""
    spec = CanonicalSpec(family, policy, k, _seed_option(seed)).check_k()
    stream = generate(spec, stages)
    Path(out).write_text(stream.to_text(), encoding="utf-8")
    elements = sum(len(new_elements(delta)) for delta in stream.deltas)
    click.echo(f"{spec.label()}: {stages} stages, {elements} elements -> {out}")


def _load_stream(path: str) -> StructureStream:
    return StructureStream.from_text(
        Path(path).read_text(encoding="utf-8"), provenance=f"file:{path}"
    )


@main.command(name="run")
@click.option("--op", "expr", required=True, help="operator expression")
@click.option("--in", "stream_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--stages", default=None, type=int)
@click.option("--schedule", default="identity", show_default=True)
@click.option("--phi", default=None, help="sentence name or file")
@click.option("--psi", default=None, help="sentence name or file")
@click.option("--target-a", default="omega_k:2", show_default=True)
@click.option("--target-b", default="omega_star_k:2", show_default=True)
@click.option("--log", "log_path", required=True,
              type=click.Path(dir_okay=False))
def run_cmd(expr, stream_path, stages, schedule, phi, psi,
            target_a, target_b, log_path):
    """Run an operator or construction along a stream, logging stages."""
    stream = _load_stream(stream_path)
    stages = len(stream) if stages is None else stages
    phi_s = resolve_sentence(phi) if phi else None
    psi_s = resolve_sentence(psi) if psi else None
    targets = None
    if expr.strip() == "phi_pair":
        targets = StagePair(
            generate(CanonicalSpec.parse(target_a), stages + 4),
            generate(CanonicalSpec.parse(target_b), stages + 4),
        )
    op = build_operator(expr, phi=phi_s, psi=psi_s, targets=targets)
    name, fn = parse_schedule(schedule)
    log = run_operator(op, stream, stages, fn, name)
    Path(log_path).write_text(log.to_jsonl(), encoding="utf-8")
    total = sum(len(r.new_facts) for r in log.records)
    click.echo(f"{op.name} on {stream.provenance}: {stages} stages, "
               f"{total} facts -> {log_path}")


@main.command()
@click.option("--op", "expr", required=True)
@click.option("--alpha", "alpha_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--atom", required=True, help='e.g. "lt 1 4"')
@click.option("--ext", default=3, show_default=True)
@click.option("--budget", default=16, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def force(expr, alpha_path, atom, ext, budget, out_path):
    """Decide one bounded forcing query."""
    op = build_operator(expr)
    alpha = parse_diagram(Path(alpha_path).read_text(encoding="utf-8"))
    fact = parse_fact(atom)
    verdict = bounded_force(ForcingQuery(op, alpha, fact, ext, budget))
    record = {
        "v": 1,
        "operator": op.name,
        "alpha": sorted(format_facts(alpha.facts)),
        "atom": atom,
        "outcome": verdict.outcome,
    }
    if verdict.certificate is not None:
        record["certificate"] = sorted(format_facts(verdict.certificate.facts))
    line = json.dumps(record, sort_keys=True)
    if out_path:
        Path(out_path).write_text(line + "\n", encoding="utf-8")
    click.echo(line)


@main.command()
@click.option("--log", "log_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--claim", required=True, help="e.g. omega_k:3")
@click.option("--w", "--W", "threshold", default=5, show_default=True)
@click.option("--window", default=30, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def classify(log_path, claim, threshold, window, out_path):
    """Check a run log against a claimed limit structure."""
    log = RunLog.from_jsonl(Path(log_path).read_text(encoding="utf-8"))
    spec = CanonicalSpec.parse(claim)
    verdict = consistency_verdict(log, spec, threshold, window)
    record = {"v": 1, "run": f"{log.operator}@{log.provenance}",
              "claim": verdict.claim, "verdict": verdict.verdict,
              "evidence": verdict.evidence}
    line = json.dumps(record, sort_keys=True)
    if out_path:
        Path(out_path).write_text(line + "\n", encoding="utf-8")
    click.echo(line)
    sys.exit(0 if verdict.consistent else EXIT_SUITE)


@main.command()
@click.option("--all", "run_all", is_flag=True, default=False)
@click.option("--only", default=None, help="comma-separated experiment names")
@click.option("--seed", default=7, show_default=True)
@click.option("--out-dir", default=None, type=click.Path(file_okay=False))
def suite(run_all, only, seed, out_dir):
    """Run the acceptance experiment suite."""
    if not run_all and not only:
        raise click.UsageError("pass --all or --only")
    names = only.split(",") if only else None
    if names:
        unknown = [n for n in names if n not in experiments.EXPERIMENTS]
        if unknown:
            raise click.UsageError(f"unknown experiments: {unknown}")
    result = experiments.run_suite(_seed_option(seed), names)
    if out_dir:
        experiments.write_suite(result, out_dir)
    click.echo(experiments.summary_table(result))
    if not result.passed:
        sys.exit(EXIT_SUITE)


if __name__ == "__main__":
    main()

"""Benchmark of the chanchart pipeline: one workload per run, one JSON result.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload desk-hybrid --seed 1 --seconds 30 --trace 0

A run sets up (median of several fresh interpreter start-ups that import the
package and resolve the workload's config), then runs rounds of the workload
for about ``--seconds``: at least one, and another only while the time left
covers a typical round.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates traced and untraced rounds, traced
first, and reports the per-layer metrics.  Its ``bench.trace_overhead_s``
compares a first round with a later one, so it also holds the first round's
cold-start cost and tends to overstate the tracing cost.  ``--fast`` runs
every workload shape on the ``tiny`` preset, for the benchmark's tests.

The last line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  Lines before it print every metric with its unit,
the environment record and the artifact digests.  The full result, spans of
traced rounds and a digest ledger go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
BASELINE = BENCH_DIR / "BENCH_seed.json"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="root seed; stage seeds derive from it as with --seed-override "
                         "(default: 1 for the desk workloads, 0 for full-cli)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time; the run finishes the round it is in")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="run the workload's shape on the tiny preset")
    ap.add_argument("--probe", action="store_true",
                    help="set up only, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.fast:
        cmd.append("--fast")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return statistics.median(samples)


class DigestLedger:
    """Artifact digests per (workload, seed, code, environment) across runs.

    Criterion 9's rule: every run of one commit and seed writes the same
    bytes.  Rounds of this run are compared with each other and with every
    earlier run recorded in the ledger file.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.book = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.book = {}

    def agrees(self, digests: dict) -> bool:
        known = self.book.setdefault(self.key, digests)
        return known == digests

    def save(self) -> None:
        self.path.write_text(json.dumps(self.book, indent=1, sort_keys=True), encoding="utf-8")


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


class Measurement:
    """Rounds of one run: untraced walls, traced walls and per-layer rows."""

    def __init__(self):
        self.rounds = []
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layer_rows: list[dict] = []
        self.peak_rss_mb = math.nan      # process peak at the end of the first round


def _measure(args, plan, ops, ledger, tracer) -> Measurement:
    """Run rounds for about args.seconds; with tracing, alternate traced and untraced."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        # Traced rounds come first, so the per-layer figures describe a first
        # round, as the untraced runs' wall_s mostly does.
        traced = bool(args.trace) and len(m.rounds) % 2 == 0
        if traced:
            with tracer.round(len(m.rounds)):
                first = len(tracer.spans)
                workloads.resolve(args.workload, args.seed, args.fast)
                r = workloads.run_round(ops, plan)
            index = spans.SpanIndex(tracer.spans[first:])
            row = spans.layer_metrics(index)
            row["bench.uncovered_s"] = r.wall_s - index.top_level(r.start, r.start + r.wall_s)
            m.layer_rows.append(row)
            m.traced_walls.append(r.wall_s)
        else:
            r = workloads.run_round(ops, plan)
            m.untraced_walls.append(r.wall_s)
        ops.check("artifact digests repeat for this code and seed",
                  lambda: ledger.agrees(r.digests))
        m.rounds.append(r)
        if len(m.rounds) == 1:
            # Later rounds reuse freed memory but add some, so the peak is
            # taken where every run has been, whatever its round count.
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(m.rounds) > args.seconds and (m.untraced_walls or not args.trace):
            return m


def _number(value):
    """A metric value for JSON: NaN (nothing measured, after a failure) becomes null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def main(argv=None, out_dir: Path | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chanchart" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package sources at {SRC / 'chanchart'}\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chanchart.cli  # noqa: F401  (registers every chanchart.* module)

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    if args.probe:
        workloads.resolve(args.workload, args.seed, args.fast)
        print("ready", flush=True)
        return 0

    out_dir = out_dir or ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}{'-fast' if args.fast else ''}"
    setup_s = _setup_seconds(args)
    env = envinfo.collect(ROOT, args.seed)
    plan = workloads.plan(args.workload, args.seed, args.fast, out_dir / "work" / tag)
    ledger = DigestLedger(out_dir / "digests.json",
                          f"{tag}|src={env['source_sha256']}"
                          f"|bench={envinfo.source_digest(BENCH_DIR)}|env="
                          + json.dumps([env[k] for k in envinfo.COMPARED]))
    ops = workloads.Ops()
    ops.check("BLAS threads do not exceed nproc",
              lambda: env["blas_threads"] is None or env["blas_threads"] <= env["nproc"])
    tracer = spans.Tracer()
    m = _measure(args, plan, ops, ledger, tracer)
    ledger.save()

    last = m.rounds[-1]
    if args.trace:
        metrics = {k: _median([row[k] for row in m.layer_rows]) for k in m.layer_rows[0]}
        metrics["bench.trace_overhead_s"] = _median(m.traced_walls) - _median(m.untraced_walls)
    else:
        metrics = {
            "wall_s": _median(m.untraced_walls),
            "setup_s": setup_s,
            "peak_rss_mb": m.peak_rss_mb,
            "train_triplets_per_s": _median([r.trained_triplets / r.train_s for r in m.rounds
                                             if r.trained_triplets and r.train_s > 0]),
            "tw_k1": last.tw_k1,
            "ct_k1": last.ct_k1,
            "ok_frac": 1.0 - ops.failed / ops.attempted,
        }
    specs = _metric_specs()
    print(f"{args.workload} seed={args.seed} rounds={len(m.rounds)} "
          f"({len(m.traced_walls)} traced) fast={args.fast}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {specs[name]['unit']:<8} "
              f"{specs[name]['better']} is better")
    print(f"  {'fail_frac':<30} {ops.failed / ops.attempted:>16.6g} "
          f"({ops.failed} of {ops.attempted} operations failed)")
    for note in ops.failures:
        print(f"  FAILED {note}")
    print("# digests " + json.dumps(last.digests, sort_keys=True))
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        diff = envinfo.differences(env, json.loads(BASELINE.read_text(encoding="utf-8"))["env"])
        print("# environment matches the baseline's" if not diff else
              f"# WARNING: environment differs from the baseline's in {diff}; "
              "figures from the two do not compare")
    except (OSError, ValueError, KeyError):
        print("# no baseline environment to compare with")

    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": _number(value), "unit": specs[name]["unit"]}
                          for name, value in metrics.items()}}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, fast=args.fast, env=env,
                  digests=last.digests, failures=ops.failures,
                  rounds=[dataclasses.asdict(r) for r in m.rounds])
    (out_dir / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if args.trace:
        (out_dir / "spans").mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans" / f"{tag}.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

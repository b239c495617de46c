"""End-to-end verification benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Prints a report under the metric names of README.md (value, unit, sample
count, known answers) and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones from a traced run, whose span dump is also
written to ``.perfbench/spans-<workload>-<seed>.json`` for ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import layers
import workloads

WORKLOADS = {
    "paper_cold": lambda ctx: workloads.paper(ctx, warm=False),
    "paper_warm": lambda ctx: workloads.paper(ctx, warm=True),
    "cosim_soak": workloads.cosim_soak,
    "daemon_mixed": workloads.daemon_mixed,
}

UNITS = {metric["name"]: metric["unit"] for metric in layers.CONTRACT["end_to_end"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> workloads.Outcome:
    ctx = workloads.Context(name, seed, seconds, trace)
    try:
        out = WORKLOADS[name](ctx)
    finally:
        ctx.close()
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    if not trace:
        for metric, value, unit, samples in out.report:
            print(f"  {metric:<24} {value:>12.6g} {unit:<8} n={samples}")
    print(f"  false_accepts            {out.false_accepts:>12d} count    "
          f"n={out.probes} known-false controls")
    print(f"  false_rejects            {out.false_rejects:>12d} count    "
          f"n={out.attempted} (binsearch n=16 incompleteness)")
    wrong = out.failed + out.false_rejects
    print(f"  error_ratio              {wrong / max(1, out.attempted):>12.6g} ratio    "
          f"{wrong}/{out.attempted} ops")
    for error in out.errors[:20]:
        print(f"  ERROR: {error}")
    if trace:
        out.layers["extra"].update({
            "false_accepts": (out.false_accepts, f"of {out.probes} known-false controls"),
            "false_rejects": (out.false_rejects, f"of {out.attempted} ops"),
            "error_ratio": (wrong / max(1, out.attempted), f"{wrong}/{out.attempted} ops"),
        })
        dump = Path(".perfbench") / f"spans-{name}-{seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(out.layers))
        table = layers.layer_metrics(out.layers)
        out.metrics = {key: value for key, (value, _) in table.items()}
        print(layers.render(name, table))
        print(f"  span dump: {dump}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = [run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = layers.METRICS if args.trace else UNITS
    prefix = len(outcomes) > 1  # `all`: one metric set per workload
    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            f"{o.workload}.{key}" if prefix else key: {"value": value, "unit": units[key]}
            for o in outcomes for key, value in o.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Steadiness report: repeat every workload, interleaved, and summarise.

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --runs 10 --seconds 20 --sets 2

Run ``i`` of a set uses seed ``seed_base + i`` on every workload of
``BENCHMARK.json`` and visits the workloads in an order rotated by ``i``,
so slow drift of the machine spreads over all of them.  For each
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(n=4)`` gives them, and the quartile spread as a
share of the median next to the metric's bound.  With ``--sets 2`` it
repeats the whole set and prints how far the second median moved from
the first, in the metric's worse direction, against the same bound.  A
run that fails or reports ``"correct": false`` is listed at the end and
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from layers import CONTRACT as BENCHMARK
from measure import quartile_spread


def one_run(workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        print(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} reported wrong answers:\n{proc.stdout}",
              file=sys.stderr)
        return None
    result["wall_s"] = time.monotonic() - started
    return result


def run_set(workloads: list[str], runs: int, seconds: float, seed_base: int,
            failures: list[str]) -> dict:
    values: dict = {w: {"wall_s": []} for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            result = one_run(workload, seed_base + i, seconds)
            if result is None:
                failures.append(f"{workload} seed {seed_base + i}")
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            values[workload]["wall_s"].append(result["wall_s"])
            print(f"  run {i} {workload}: {result['wall_s']:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  file=sys.stderr, flush=True)
    return values


def summarise(values: dict) -> list[str]:
    lines = [f"{'workload':<13} {'metric':<17} {'median':>11} {'q1':>11} {'q3':>11} "
             f"{'spread':>7} {'bound':>6}"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload, metrics in values.items():
        for name, samples in metrics.items():
            q1, q2, q3, spread = quartile_spread(samples)
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <- above bound/3"
            lines.append(
                f"{workload:<13} {name:<17} {q2:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                f"{spread:>7.3f} {bound if bound is not None else '-':>6}{flag}")
    return lines


def compare(first: dict, second: dict) -> list[str]:
    lines = [f"{'workload':<13} {'metric':<17} {'median 1':>11} {'median 2':>11} "
             f"{'worse by':>8} {'bound':>6}"]
    specs = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    for workload, metrics in first.items():
        for name, spec in specs.items():
            m1 = quartile_spread(metrics[name])[1]
            m2 = quartile_spread(second[workload][name])[1]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            flag = "" if worse <= spec["bound"] else "  <- beyond bound"
            lines.append(f"{workload:<13} {name:<17} {m1:>11.5g} {m2:>11.5g} "
                         f"{worse:>8.3f} {spec['bound']:>6}{flag}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    failures: list[str] = []
    sets = [run_set(workloads, args.runs, args.seconds, args.seed_base, failures)
            for _ in range(args.sets)]
    for index, values in enumerate(sets, 1):
        print(f"set {index}: {args.runs} runs x {len(workloads)} workloads, "
              f"{args.seconds:g} s each")
        print("\n".join(summarise(values)))
    if len(sets) == 2:
        print("second set against the first")
        print("\n".join(compare(*sets)))
    for failure in failures:
        print(f"FAILED RUN: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

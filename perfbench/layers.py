"""Turn a traced run's span dump into the per-layer table.

    python3 perfbench/layers.py .perfbench/spans-paper_cold-1.json

A layer's *busy* time is its self time: the span's duration minus the
durations of its child spans (children run on the span's own thread, inside
it, one after another).  ``*_s`` figures that are not ``busy_s`` are whole
span durations.  Times and counts are divided by the workload's unit of
work (one corpus round, 1000 co-sim programs, one daemon job) so that runs of
different lengths compare; ratios and percentiles are not.  Every ratio is
printed with its base.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

#: Span names whose SMT calls are attributed to them (nearest ancestor).
SMT_PARENTS = {"isla": "under_isla", "logic.automation": "under_automation",
               "logic.checker": "under_checker"}

#: The benchmark contract, one directory up.
CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Every per-layer metric, in table order, with its unit.
METRICS = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}


def aggregate(spans) -> dict:
    """Per span name: calls, total and self nanoseconds; SMT split by parent."""
    by_id = {span[0]: span for span in spans}
    child_ns = defaultdict(int)
    has_isla_child = set()
    for span_id, parent, name, start, end, _request in spans:
        if parent is not None:
            child_ns[parent] += end - start
            if name == "isla":
                has_isla_child.add(parent)
    out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for span_id, parent, name, start, end, _request in spans:
        for key in _keys(name, span_id, parent, by_id, has_isla_child):
            row = out[key]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[span_id]
    return dict(out)


def _keys(name, span_id, parent, by_id, has_isla_child):
    yield name
    if name == "smt":
        while parent is not None and by_id[parent][2] not in SMT_PARENTS:
            parent = by_id[parent][1]
        if parent is not None:
            yield f"smt.{SMT_PARENTS[by_id[parent][2]]}"
    if name == "cosim.cached_trace" and span_id in has_isla_child:
        yield "cosim.cached_trace.miss"


def merge(rows: list[dict]) -> dict:
    out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for row in rows:
        for key, values in row.items():
            for field, value in values.items():
                out[key][field] += value
    return dict(out)


def _ratio(hits: float, base: float) -> tuple[float, str]:
    return (hits / base if base else 0.0), f"{hits:g}/{base:g}"


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """``metric -> (value, base)`` for every name in :data:`METRICS`."""
    rows = merge([aggregate(part["spans"]) for part in dump["parts"]])
    counters: dict = defaultdict(float)
    for part in dump["parts"]:
        for key, value in part.get("counters", {}).items():
            counters[key] += value
    units = dump["units"]
    per = f"per {dump['unit']} ({units:g})"

    def calls(name):
        return rows.get(name, {}).get("calls", 0) / units, per

    def busy(name):
        return rows.get(name, {}).get("self_ns", 0) / 1e9 / units, per

    def total(name):
        return rows.get(name, {}).get("total_ns", 0) / 1e9 / units, per

    def count(name):
        return counters[name] / units, per

    family = [counters[f"isla.parametric.{k}"]
              for k in ("family_hits", "family_builds", "family_misses")]
    out = {
        "frontend.build_s": total("frontend.build"),
        "isla.calls": calls("isla"),
        "isla.busy_s": busy("isla"),
        "isla.parametric.family_builds": count("isla.parametric.family_builds"),
        "isla.parametric.family_hits": count("isla.parametric.family_hits"),
        "isla.parametric.guard_failures": count("isla.parametric.guard_failures"),
        "isla.parametric.hit_ratio": _ratio(family[0], sum(family)),
        "smt.checks": calls("smt"),
        "smt.busy_s": busy("smt"),
        "smt.check_cache.hit_ratio": _ratio(
            counters["smt.check_cache.hits"],
            counters["smt.check_cache.hits"] + counters["smt.check_cache.misses"]),
        "logic.automation.busy_s": busy("logic.automation"),
        "logic.automation.proof_steps": count("logic.automation.proof_steps"),
        "logic.automation.side_conditions": count("logic.automation.side_conditions"),
        "logic.checker.busy_s": busy("logic.checker"),
        "logic.checker.side_conditions": count("logic.checker.side_conditions"),
        "logic.checker.smt_checks": calls("smt.under_checker"),
        "cache.load_trace.calls": calls("cache.load_trace"),
        "cache.load_trace.hit_ratio": _ratio(
            counters["cache.load_trace.hits"], counters["cache.load_trace.calls"]),
        "cache.load_trace.busy_s": busy("cache.load_trace"),
        "cache.smt_lookup.hit_ratio": _ratio(
            counters["cache.smt_lookup.hits"], counters["cache.smt_lookup.calls"]),
        "cache.store.busy_s": busy("cache.store"),
        "cosim.run_case.busy_s": busy("cosim.run_case"),
        "cosim.cached_trace.misses": calls("cosim.cached_trace.miss"),
        "cosim.cached_trace.busy_s": busy("cosim.cached_trace"),
        "cosim.interp.busy_s": busy("cosim.interp"),
        "itl.opsem.busy_s": busy("itl.opsem"),
        "arch.decode.calls": calls("arch.decode"),
        "arch.decode.busy_s": busy("arch.decode"),
        "parallel.tasks": count("parallel.tasks"),
        "parallel.map_busy_s": busy("parallel.map"),
    }
    for parent in SMT_PARENTS.values():
        out[f"smt.checks.{parent}"] = calls(f"smt.{parent}")
        out[f"smt.busy_s.{parent}"] = busy(f"smt.{parent}")
    # Figures measured outside the spans (set-up, service timestamps,
    # coverage, overhead, known answers) arrive ready-made with their base.
    for name, (value, base) in dump.get("extra", {}).items():
        out[name] = (value, base)
    return {name: out.get(name, (0.0, "not exercised")) for name in METRICS}


def render(workload: str, metrics: dict[str, tuple[float, str]]) -> str:
    lines = [f"per-layer table: {workload}",
             f"  {'metric':<36} {'value':>12}  {'unit':<6} base"]
    for name, unit in METRICS.items():
        value, base = metrics[name]
        lines.append(f"  {name:<36} {value:>12.6g}  {unit:<6} {base}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    for path in argv:
        with open(path) as handle:
            dump = json.load(handle)
        print(render(dump["workload"], layer_metrics(dump)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

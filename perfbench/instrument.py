"""Which public functions of ``repro`` the traced runs wrap, and as what.

Each span name is a layer of the per-layer table (see ``layers.py``).
Functions are wrapped where callers look them up: a name bound by
``from X import f`` at import time is wrapped in the importing module too.
"""

from __future__ import annotations


def _proof_counts(report) -> dict:
    proof = report.proof
    return {
        "logic.automation.proof_steps": len(proof.steps),
        "logic.automation.side_conditions": proof.num_side_conditions,
    }


def _check_counts(report) -> dict:
    return {"logic.checker.side_conditions": report.side_conditions_checked}


def _hit(layer: str):
    def counts(result) -> dict:
        return {f"{layer}.calls": 1, f"{layer}.hits": int(result is not None)}

    return counts


def _tasks(result) -> dict:
    return {"parallel.tasks": len(result)}


def install(tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro import casestudies
    from repro.arch import registry
    from repro.cache.store import DiskCache
    from repro.cosim import driver as cosim_driver
    from repro.cosim.driver import CoSimDriver
    from repro.frontend import program as frontend_program
    from repro.isla import executor
    from repro.itl.opsem import Runner
    from repro.logic import automation, checker
    from repro.parallel.scheduler import WorkerPool
    from repro.smt.solver import Solver

    for name in casestudies.__all__:
        tracer.wrap(getattr(casestudies, name), "build", "frontend.build")
    for owner in (executor, frontend_program, cosim_driver):
        tracer.wrap(owner, "trace_for_opcode", "isla")
    tracer.wrap(Solver, "check", "smt")
    tracer.wrap(automation, "verify_program", "logic.automation", _proof_counts)
    tracer.wrap(checker, "check_proof", "logic.checker", _check_counts)
    tracer.wrap(DiskCache, "load_trace", "cache.load_trace", _hit("cache.load_trace"))
    tracer.wrap(DiskCache, "smt_lookup", "cache.smt_lookup", _hit("cache.smt_lookup"))
    for method in ("store_trace", "store_family", "smt_record", "flush"):
        tracer.wrap(DiskCache, method, "cache.store")
    tracer.wrap(CoSimDriver, "run_case", "cosim.run_case")
    tracer.wrap(cosim_driver, "cached_trace", "cosim.cached_trace")
    tracer.wrap(Runner, "run_trace", "itl.opsem")
    for arch in registry.infos():
        tracer.wrap(arch.interp_class(), "step", "cosim.interp")
        tracer.wrap(arch.decode(), "decode_arm", "arch.decode")
    for method in ("map_tasks", "map_tasks_graceful"):
        tracer.wrap(WorkerPool, method, "parallel.map", _tasks)


def program_counters() -> dict:
    """The program's own cumulative counters that the table reads as deltas."""
    from repro.isla.parametric import engine
    from repro.smt.solver import check_cache_stats

    stats = engine().stats.snapshot()
    cache = check_cache_stats()
    counters = {f"isla.parametric.{key}": stats.get(key, 0) for key in
                ("family_builds", "family_hits", "guard_failures", "family_misses")}
    counters.update({f"smt.check_cache.{key}": cache[key] for key in ("hits", "misses")})
    return counters


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}

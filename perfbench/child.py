"""One program process of the benchmark: ``python3 perfbench/child.py REQ OUT``.

The parent writes a JSON request to REQ, records the monotonic clock, and
spawns this script with ``src`` on ``PYTHONPATH``.  The script imports what
the request's mode needs, notes when the imports were done (the clock is
system-wide, so the parent can subtract its spawn time), does the work and
writes a JSON result to OUT.  Modes:

``paper``   serial ``run_one`` over the given ``(case, n)`` entries, one
            sample each, certificates written to each entry's ``cert_dir``;
``import``  imports only (a set-up sample);
``probes``  the known-false controls against a round's certificates;
``cosim``   the lockstep co-simulation soak.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_trace(request):
    if not request.get("trace"):
        return None, None
    import instrument
    import spans

    tracer = spans.Tracer()
    instrument.install(tracer)
    return tracer, instrument.program_counters()


def _traced(tracer, request: str, span: str | None = None):
    """Tag the block with ``request`` (and open ``span``) when tracing."""
    import contextlib

    stack = contextlib.ExitStack()
    if tracer is not None:
        stack.enter_context(tracer.request(request))
        if span is not None:
            stack.enter_context(tracer.span(span))
    return stack


def _finish_trace(tracer, before) -> dict:
    if tracer is None:
        return {}
    import instrument

    tracer.close()
    counters = tracer.counters
    counters.update(instrument.counter_delta(before, instrument.program_counters()))
    return {"spans": tracer.spans, "counters": counters}


def paper(request) -> dict:
    import repro.casestudies  # noqa: F401 — what `verify --all` imports first
    import repro.tools.verify as verify

    imported_at = time.monotonic()
    import argparse
    import contextlib
    import io

    cache = None
    if request.get("cache_dir"):
        from repro.cache import DiskCache

        cache = DiskCache(request["cache_dir"])
    tracer, before = _start_trace(request)
    cases = []
    for entry in request["cases"]:
        args = argparse.Namespace(
            jobs=1, deadline=None, conflicts=None, fault_seed=None,
            fault_rate=0.05, verbose=False, cert_dir=entry["cert_dir"],
        )
        name = entry["name"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            with _traced(tracer, name, "case"):
                ok = verify.run_one(name, entry["n"], args, cache=cache)
            seconds = time.perf_counter() - t0
        cases.append({"name": name, "n": entry["n"], "ok": ok, "seconds": seconds})
    if cache is not None:
        cache.flush()
    result = {"imported_at": imported_at, "cases": cases, "rss_mb": _rss_mb()}
    result.update(_finish_trace(tracer, before))
    return result


def imports(request) -> dict:
    import importlib

    for module in request["modules"]:
        importlib.import_module(module)
    return {"imported_at": time.monotonic()}


def probes(request) -> dict:
    import known_answers

    return known_answers.run_probes(request["cert_dir"], request["names"])


def cosim(request) -> dict:
    from repro.cosim import COSIM_ARCHS, CoSimDriver, CoverageMap, ProgramGenerator

    imported_at = time.monotonic()
    tracer, before = _start_trace(request)
    archs = request["archs"]
    drivers = {name: CoSimDriver(COSIM_ARCHS[name]) for name in archs}
    coverage = {name: CoverageMap(name) for name in archs}
    latencies, divergences = [], []
    instructions = programs = rounds = 0
    rss_mb = None
    t0 = time.perf_counter()
    # Each round draws a fresh seed per arch; programs alternate between the
    # arches so that the mix stays even wherever the time limit cuts a round.
    # The first round always runs whole, and the memory figure is the peak
    # at its end: the trace cache grows with every program, so a peak taken
    # when time is up would grow with throughput.
    while rounds == 0 or time.perf_counter() - t0 < request["seconds"]:
        generators = [
            (name, ProgramGenerator(COSIM_ARCHS[name],
                                    request["seed"] * 1000003 + rounds * len(archs) + i))
            for i, name in enumerate(archs)
        ]
        for number in range(request["per_arch"]):
            for name, generator in generators:
                program = generator.program()
                started = time.perf_counter()
                with _traced(tracer, f"{name}/{rounds}/{number}"):
                    divergence, counters = drivers[name].run_case(program.case)
                latencies.append(time.perf_counter() - started)
                programs += 1
                instructions += counters["instructions"]
                for arm in counters["arms"]:
                    coverage[name].record(arm)
                if divergence is not None:
                    divergences.append(divergence.to_json())
            if rounds and time.perf_counter() - t0 >= request["seconds"]:
                break
        if rounds == 0:
            rss_mb = _rss_mb()
        rounds += 1
    wall = time.perf_counter() - t0
    result = {
        "imported_at": imported_at, "wall_s": wall, "rounds": rounds,
        "programs": programs, "instructions": instructions,
        "latencies": latencies, "divergences": divergences,
        "arms_hit": sum(len(c.counts) - len(c.unhit()) for c in coverage.values()),
        "arms_total": sum(len(c.counts) for c in coverage.values()),
        "rss_mb": rss_mb,
    }
    result.update(_finish_trace(tracer, before))
    return result


MODES = {"paper": paper, "import": imports, "probes": probes, "cosim": cosim}


def main(argv: list[str]) -> int:
    request_path, result_path = argv
    with open(request_path) as handle:
        request = json.load(handle)
    result = MODES[request["mode"]](request)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Co-simulation throughput: interpreter vs lockstep, and daemon soak rate.

Two numbers justify the fast interpreter's existence and size the nightly
soak budget:

* how many cases/second the plain-int interpreter retires alone versus
  the full lockstep pair (interpreter + authoritative ITL trace replay),
  with the per-opcode trace cache warm — the interpreter must be the
  cheap side by a wide margin, or "fast oracle cross-check" is a fiction;
* end-to-end generated-case throughput of one daemon with two runners on
  its bulk co-sim path, which is what converts a wall-clock budget
  ("~2 minutes of CI") into a case count for the soak gate.

Both land in ``BENCH_cosim.json`` at the repo root.
"""

from __future__ import annotations

import time

from repro.cosim import COSIM_ARCHS, CoSimDriver
from repro.cosim.generate import ProgramGenerator
from repro.cosim.interp import CosimDomainError, CosimUnsupported, interp_for
from repro.cosim.state import build_machine_state

BENCH_SEED = 1234
MEASURED_CASES = 120
MAX_STEPS = 48


def _interp_only(arch, cases) -> tuple[float, int]:
    """Retire every case on the interpreter alone; returns (wall_s, instrs).

    Mirrors the driver's end-of-case conditions (pin escape, out-of-scope
    opcode) so both sides execute the *same* instructions; with the trace
    cache warm the ``cached_trace`` call is a dict hit, not generation.
    """
    from repro.cosim.driver import cached_trace

    instructions = 0
    t0 = time.perf_counter()
    for case in cases:
        state = build_machine_state(arch, case)
        interp = interp_for(arch, state)
        code_end = case.pc + 4 * len(case.words)
        for _ in range(MAX_STEPS):
            if not arch.pins_hold(state):
                break
            pc = state.read_reg(arch.model.pc_reg)
            if pc is None or not (case.pc <= pc < code_end) or pc % 4:
                break
            if cached_trace(arch, state.read_mem(pc, 4)) is None:
                break
            try:
                interp.step()
            except (CosimUnsupported, CosimDomainError):
                break
            instructions += 1
    return time.perf_counter() - t0, instructions


def _lockstep(driver, cases) -> tuple[float, int]:
    """Retire every case through the full co-sim pair (warm trace cache)."""
    instructions = 0
    t0 = time.perf_counter()
    for case in cases:
        divergence, counters = driver.run_case(case)
        assert divergence is None
        instructions += counters["instructions"]
    return time.perf_counter() - t0, instructions


def test_interp_vs_lockstep_rate(bench_cosim_record):
    record: dict[str, dict] = {}
    for arch_name, arch in sorted(COSIM_ARCHS.items()):
        generator = ProgramGenerator(arch, BENCH_SEED)
        measured = [generator.program().case for _ in range(MEASURED_CASES)]
        driver = CoSimDriver(arch, max_steps=MAX_STEPS)
        # Warm-up pass over the *same* cases populates the per-opcode trace
        # cache, so both measured passes price execution, not trace
        # generation (which would otherwise land on whichever side ran
        # first and drown the comparison).
        _lockstep(driver, measured)

        interp_s, interp_instrs = _interp_only(arch, measured)
        lockstep_s, lockstep_instrs = _lockstep(driver, measured)
        assert lockstep_instrs == interp_instrs  # same programs, same paths

        record[arch_name] = {
            "cases": len(measured),
            "instructions": lockstep_instrs,
            "interp_cases_per_s": round(len(measured) / interp_s, 1),
            "interp_instrs_per_s": round(interp_instrs / max(interp_s, 1e-9), 1),
            "lockstep_cases_per_s": round(len(measured) / lockstep_s, 1),
            "lockstep_instrs_per_s": round(
                lockstep_instrs / max(lockstep_s, 1e-9), 1
            ),
            "interp_speedup": round(lockstep_s / max(interp_s, 1e-9), 1),
        }
        # The interpreter must be substantially cheaper than the pair it
        # cross-checks; 2x is a deliberately loose floor for noisy CI boxes.
        assert interp_s * 2 <= lockstep_s, (arch_name, interp_s, lockstep_s)
    bench_cosim_record("interp_vs_lockstep", seed=BENCH_SEED, **record)


SOAK_RUNNERS = 2
SOAK_JOBS = 4  # per arch
SOAK_CASES_PER_JOB = 40


def test_daemon_soak_throughput(bench_cosim_record):
    """End-to-end generated-case rate of one daemon on the bulk path."""
    from repro.service.protocol import SubmitRequest
    from repro.service.server import VerificationService

    service = VerificationService(pool_jobs=1, runners=SOAK_RUNNERS)
    service.start()
    try:
        t0 = time.perf_counter()
        jobs = [
            service.submit(SubmitRequest(
                case=f"cosim:{arch_name}",
                kwargs={"seed": BENCH_SEED + i, "count": SOAK_CASES_PER_JOB},
                priority="bulk",
            ))
            for arch_name in sorted(COSIM_ARCHS)
            for i in range(SOAK_JOBS)
        ]
        deadline = time.monotonic() + 600
        for job in jobs:
            while not job.terminal:
                assert time.monotonic() < deadline, f"{job.id} never finished"
                time.sleep(0.02)
        wall_s = time.perf_counter() - t0
        assert all(job.state == "done" for job in jobs)
        cases = sum(job.result["cases"] for job in jobs)
        instructions = sum(job.result["instructions"] for job in jobs)
        divergences = sum(len(job.result["divergences"]) for job in jobs)
    finally:
        service.stop()

    assert divergences == 0
    assert cases == len(jobs) * SOAK_CASES_PER_JOB
    bench_cosim_record(
        "daemon_soak_throughput",
        runners=SOAK_RUNNERS,
        jobs=len(jobs),
        cases=cases,
        instructions=instructions,
        wall_s=round(wall_s, 3),
        cases_per_s=round(cases / wall_s, 1),
        instrs_per_s=round(instructions / wall_s, 1),
        caveat="trace caches warm up during the run",
    )

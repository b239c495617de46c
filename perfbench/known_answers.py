"""Known answers, and the known-false controls that measure false accepts.

Truth table: every input the workloads feed the program is correct code
against a correct specification, so the right verdict is always
"verifies".  The eleven case studies at paper sizes (n = 4) verify and
``check_proof`` accepts their certificates.  ``binsearch_arm`` and
``binsearch_riscv`` are also correct at n = 16, but the program ends them
FAILED ("no memory resource for address ..."): that is incompleteness, a
false reject.  ``KNOWN_GAPS`` names those inputs so that a FAILED verdict
there is counted as a false reject instead of breaking the run; any other
wrong verdict is an error.  The daemon workload keeps n = 16 in its draw on
purpose, so the gap stays visible.

Known-false controls (``run_probes``): tampered copies of a run's own
genuine certificates, fed to ``check_proof``, and wrong-spec / buggy-program
inputs fed to ``verify_program``.  The right verdict for every one is
"rejected"; each acceptance is a false accept.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

#: The Fig. 12 corpus (``repro.casestudies.__all__``) at paper sizes.
PAPER_CASES = (
    "binsearch_arm", "binsearch_riscv", "hvc", "memcpy_arm", "memcpy_ppc",
    "memcpy_riscv", "pkvm", "rbit", "sign_ppc", "uart", "unaligned",
)
PAPER_N = 4

#: Cases the daemon workload draws an array length for.
SIZED_CASES = (
    "memcpy_arm", "memcpy_riscv", "memcpy_ppc", "binsearch_arm", "binsearch_riscv",
)
N_RANGE = (2, 16)

#: Correct inputs the program is known not to verify at this baseline.
KNOWN_GAPS = frozenset({("binsearch_arm", 16), ("binsearch_riscv", 16)})


def classify(name: str, n: int, verified: bool) -> str:
    """``ok``, ``false_reject`` (a known gap) or ``error`` for one verdict;
    the true verdict of every benchmark input is "verifies"."""
    if verified:
        return "ok"
    return "false_reject" if (name, n) in KNOWN_GAPS else "error"


# -- tampered certificates ----------------------------------------------------


def _block_starts_only(proof):
    return [s for s in proof.steps if s.rule == "block-start"]


def _drop_writes(proof):
    return [s for s in proof.steps if not s.rule.startswith("hoare-write")]


def _flip_paths(proof):
    return [
        dataclasses.replace(s, path=tuple(i ^ 1 for i in s.path))
        for s in proof.steps
    ]


TAMPERS = {
    "block-start-only": _block_starts_only,
    "drop-writes": _drop_writes,
    "flip-branch-paths": _flip_paths,
}


def tampered_certificates(text: str):
    """``(tamper, proof)`` for each tampering that changes the certificate."""
    from repro.logic.proof import Proof

    for tamper, steps_of in TAMPERS.items():
        proof = Proof.from_json(text)
        steps = steps_of(proof)
        if steps == proof.steps:
            continue  # e.g. no branches to flip: not a false input
        proof.steps = steps
        yield tamper, proof


# -- wrong specs and buggy programs (from tests/logic/test_automation.py) -----


def _arm_program(*opcodes):
    from repro.arch.arm import ArmModel
    from repro.frontend import ProgramImage, generate_instruction_map
    from repro.isla import Assumptions

    image = ProgramImage().place(0x1000, list(opcodes))
    frontend = generate_instruction_map(
        ArmModel(), image, Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
    )
    return frontend.traces


def _ret_post(**regs):
    from repro.logic import PredBuilder

    builder = PredBuilder()
    for name, value in regs.items():
        if value is None:
            builder.reg_any(name)
        else:
            builder.reg(name, value)
    return builder.build()


def wrong_inputs():
    """``(label, traces, specs)`` triples that must not verify."""
    from repro.arch.arm import encode as A
    from repro.logic import PredBuilder
    from repro.smt import builder as B

    x, r = B.bv_var("x", 64), B.bv_var("r", 64)
    add5 = _arm_program(A.add_imm(0, 0, 5), A.ret())
    yield "wrong-postcondition", add5, PredBuilder().exists(x, r).reg("R0", x).reg(
        "R30", r).instr_pre(r, _ret_post(R0=B.bvadd(x, B.bv(6, 64)), R30=None)).build()
    add4 = _arm_program(A.add_imm(0, 0, 4), A.ret())
    yield "buggy-program", add4, PredBuilder().exists(x, r).reg("R0", x).reg(
        "R30", r).instr_pre(r, _ret_post(R0=B.bvadd(x, B.bv(5, 64)), R30=None)).build()
    yield "missing-register-ownership", add5, PredBuilder().exists(r).reg(
        "R30", r).instr_pre(r, _ret_post(R30=None)).build()
    a = B.bv_var("a", 64)
    store = _arm_program(A.strb_imm(0, 1), A.ret())
    yield "store-without-ownership", store, PredBuilder().exists(a, r).reg_any(
        "R0").reg("R1", a).reg("R30", r).instr_pre(r, _ret_post(R30=None)).build()
    yield "fell-off-program", _arm_program(A.nop()), PredBuilder().exists(r).reg(
        "R30", r).build()


def run_probes(cert_dir: str, names: list[str]) -> dict:
    """Feed every known-false control to the program; report acceptances."""
    from repro.arch.arm.regs import PC
    from repro.logic.automation import verify_program
    from repro.logic.checker import CheckFailure, check_proof

    results = []
    for name in names:
        text = (Path(cert_dir) / f"{name}.cert.json").read_text()
        for tamper, proof in tampered_certificates(text):
            try:
                check_proof(proof, expected_blocks=set(proof.blocks_verified))
                accepted = True
            except CheckFailure:
                accepted = False
            results.append({"input": f"{name}:{tamper}", "accepted": accepted})
    for label, traces, spec in wrong_inputs():
        report = verify_program(traces, {0x1000: spec}, PC)
        results.append({"input": f"pipeline:{label}", "accepted": report.ok})
    return {"probes": results}

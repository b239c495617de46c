"""Independent re-checking of proof objects.

The paper's verification results are foundational because Coq's kernel
re-checks the proof term produced by the automation (the "Qed" column of
Fig. 12).  This module is our stand-in, and today it is a weaker one.
Given a :class:`~repro.logic.proof.Proof`, it checks:

- every rule tag is a known rule;
- every side condition the proof *lists* — each an ``assumptions ⊨ goal``
  judgment — holds, re-solved with a fresh solver whose result cache is
  disabled;
- the block bookkeeping: every block with a specification was verified or
  carries a recorded non-verified outcome, every started block completed,
  and the outcome map agrees with the blocks the proof claims.

It does not re-walk the traces.  A :class:`~repro.logic.proof.ProofStep`
is not tied to an ITL event or a spec clause, the branch paths of the
steps are not audited, and side conditions the proof omits are not
derived, so a proof with steps dropped or paths scrambled still passes.

Governed (degraded) proofs carry *residual obligations* — side conditions
the automation could not decide.  The checker re-attempts each residual:
one it can now prove is counted as discharged; one it can *refute* is a
hard failure (the automation mislabelled a ``failed`` block as
``degraded``); one still undecided simply remains residual.  A block with
residual obligations must never be claimed ``verified``, and that
consistency is audited here too.

The checker is deliberately small and independent of the automation: it
imports only the proof data structures and the solver.  (Like the paper,
the SMT solver itself remains in the TCB; §5-style translation validation
addresses the rest of the pipeline.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.outcome import VERIFIED
from ..smt import builder as B
from ..smt.solver import SAT, UNSAT, Solver
from .proof import Proof, ProofStep, SideCondition

#: Every rule the automation may emit.  An unknown tag is a checker failure.
KNOWN_RULES = frozenset(
    {
        "block-start",
        "hoare-declare-const",
        "hoare-define-const",
        "hoare-read-reg",
        "hoare-read-reg-col",
        "hoare-write-reg",
        "hoare-assume-reg",
        "hoare-assert",
        "hoare-assume",
        "hoare-read-mem",
        "hoare-read-mem-array",
        "hoare-read-mem-mmio",
        "hoare-write-mem",
        "hoare-write-mem-array",
        "hoare-write-mem-mmio",
        "hoare-cases",
        "hoare-instr",
        "hoare-instr-pre",
        "entail",
        "entail-eq",
        "entail-pure",
        "residual",
    }
)


class CheckFailure(Exception):
    """The proof object did not re-validate."""


@dataclass
class CheckReport:
    """Outcome of re-checking a proof."""

    steps_checked: int = 0
    side_conditions_checked: int = 0
    residuals_remaining: int = 0
    residuals_discharged: int = 0
    blocks: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        text = (
            f"checked {self.steps_checked} steps, "
            f"{self.side_conditions_checked} side conditions, "
            f"{len(self.blocks)} blocks"
        )
        if self.residuals_remaining or self.residuals_discharged:
            text += (
                f"; residuals: {self.residuals_remaining} remaining, "
                f"{self.residuals_discharged} discharged on re-check"
            )
        return text


def check_proof(proof: Proof, expected_blocks: set[int] | None = None) -> CheckReport:
    """Re-validate a proof object; raises :class:`CheckFailure` on any
    discrepancy."""
    report = CheckReport()
    for step in proof.steps:
        _check_step(step, report)
    for residual in proof.residual_obligations:
        _check_residual(proof, residual, report)
    report.blocks = sorted(proof.blocks_verified)
    # Blocks that completed with a recorded non-verified outcome (degraded /
    # unknown / failed under governance) are accounted for — they are not
    # *missing*, they are *not fully verified*, and the outcome map says so.
    excused = {
        addr for addr, outcome in proof.outcomes.items() if outcome != VERIFIED
    }
    degraded_blocks = {r.block for r in proof.residual_obligations}
    if expected_blocks is not None:
        missing = expected_blocks - set(proof.blocks_verified) - excused
        if missing:
            raise CheckFailure(
                f"blocks with specifications never verified: "
                f"{[hex(a) for a in sorted(missing)]}"
            )
    claimed = set(proof.blocks_verified)
    overclaimed = claimed & degraded_blocks
    if overclaimed:
        raise CheckFailure(
            f"blocks claimed verified despite residual obligations: "
            f"{[hex(a) for a in sorted(overclaimed)]}"
        )
    for addr, outcome in proof.outcomes.items():
        if outcome == VERIFIED and addr not in claimed:
            raise CheckFailure(
                f"outcome map claims 0x{addr:x} verified but the proof does not"
            )
    started = {s.block for s in proof.steps if s.rule == "block-start"}
    unverified = started - claimed - excused
    if unverified:
        raise CheckFailure(
            f"blocks started but not completed: {[hex(a) for a in sorted(unverified)]}"
        )
    return report


def _check_step(step: ProofStep, report: CheckReport) -> None:
    if step.rule not in KNOWN_RULES:
        raise CheckFailure(f"unknown rule {step.rule!r} in proof")
    report.steps_checked += 1
    for condition in step.side_conditions:
        _check_side_condition(step, condition)
        report.side_conditions_checked += 1


def _check_side_condition(step: ProofStep, condition: SideCondition) -> None:
    solver = Solver(use_global_cache=False)
    for assumption in condition.assumptions:
        solver.add(assumption)
    # A side condition holds if the assumptions are inconsistent (vacuous
    # branch) or entail the goal.
    if solver.check() == UNSAT:
        return
    if solver.check(B.not_(condition.goal)) != UNSAT:
        raise CheckFailure(
            f"side condition failed re-checking in rule {step.rule} "
            f"({condition.description}): {condition.goal!r}"
        )


def _check_residual(proof: Proof, residual, report: CheckReport) -> None:
    solver = Solver(use_global_cache=False)
    for assumption in residual.assumptions:
        solver.add(assumption)
    if solver.check() == UNSAT:
        report.residuals_discharged += 1  # vacuous under its own assumptions
        return
    status = solver.check(B.not_(residual.goal))
    if status == UNSAT:
        report.residuals_discharged += 1
        return
    if status == SAT:
        raise CheckFailure(
            f"residual obligation is refutable (block 0x{residual.block:x}, "
            f"{residual.description}): the run should have failed, not degraded"
        )
    report.residuals_remaining += 1

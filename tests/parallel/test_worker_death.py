"""A worker process dying mid-block must never corrupt the run.

Two layers under test.  At the pool layer, ``map_tasks_graceful`` keeps
results that completed before the death, reports the rest as typed
:class:`TaskFailure` entries, and rebuilds the executor so a resident
daemon pool survives.  At the driver layer, ``verify_case_parallel`` turns
a dead worker's blocks into ``unknown`` outcomes — never a silent
``verified`` — and leaves the dead share of the partitioned budget
*unspent* in the parent (consumption is absorbed from worker reports, and
a dead worker reported nothing).
"""

from __future__ import annotations

import os
import signal
import time

from repro.parallel.scheduler import (
    WORKER_DIED,
    TaskFailure,
    WorkerPool,
    _verify_block_worker,
    verify_case_parallel,
)
from repro.resilience import BudgetSpec


def _task(payload):
    if payload.get("sleep"):
        time.sleep(payload["sleep"])
    if payload.get("die"):
        os._exit(1)
    return payload["value"]


def _block_worker_or_die(payload):
    """Picklable dispatcher for the end-to-end kill test: doctored
    payloads kill the worker process, real ones verify their block."""
    if payload.get("die"):
        return _task(payload)
    return _verify_block_worker(payload)


class TestPoolSurvivesWorkerDeath:
    def test_completed_results_kept_dead_marked_rebuilt(self):
        pool = WorkerPool(2)
        try:
            payloads = [
                {"value": "a"},
                {"value": "b"},
                # The killer sleeps so the cheap tasks finish first: their
                # results must survive the pool breaking afterwards.
                {"value": "x", "die": True, "sleep": 1.0},
            ]
            results = pool.map_tasks_graceful(_task, payloads)
            assert results[0] == "a"
            assert results[1] == "b"
            assert isinstance(results[2], TaskFailure)
            assert results[2].reason == WORKER_DIED
            # The poisoned executor was discarded but the pool is NOT
            # demoted to serial: the next batch gets fresh processes.
            assert pool._executor is None
            assert not pool.unavailable
            assert pool.map_tasks_graceful(_task, [{"value": 41}]) == [41]
        finally:
            pool.close()

    def test_on_result_fires_only_for_successes(self):
        pool = WorkerPool(2)
        seen = []
        try:
            payloads = [
                {"value": "ok"},
                {"value": "x", "die": True, "sleep": 0.8},
            ]
            pool.map_tasks_graceful(
                _task, payloads, on_result=lambda i, r: seen.append((i, r))
            )
        finally:
            pool.close()
        assert (0, "ok") in seen
        assert all(index != 1 for index, _ in seen)


    def test_worker_killed_while_idle_does_not_poison_later_batches(self):
        pool = WorkerPool(2)
        try:
            assert pool.map_tasks_graceful(_task, [{"value": 1}]) == [1]
            os.kill(next(iter(pool._executor._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._executor._broken:
                assert time.monotonic() < deadline, "death never noticed"
                time.sleep(0.02)
            # The broken executor is replaced before the batch, so no task
            # of it is lost to a death that happened between batches.
            assert pool.map_tasks_graceful(
                _task, [{"value": 2}, {"value": 3}]
            ) == [2, 3]
        finally:
            pool.close()


class _DeadlyPool:
    """A pool stub: every payload runs in-process except the chosen block
    address, which 'dies' exactly as a killed worker would surface.

    ``charge`` adds that many conflicts to each *surviving* worker's
    reported budget snapshot — block proofs this small consume zero
    conflicts for real, so the known charge makes absorb arithmetic
    observable."""

    def __init__(self, die_addr, charge: int = 0):
        self.die_addr = die_addr
        self.charge = charge
        self.jobs = 2

    def map_tasks(self, fn, payloads):
        # Trace generation runs in-process; only block verification dies.
        return [fn(payload) for payload in payloads]

    def map_tasks_graceful(self, fn, payloads, on_result=None):
        out = []
        for i, payload in enumerate(payloads):
            if payload.get("addr") == self.die_addr:
                out.append(TaskFailure(WORKER_DIED))
                continue
            result = fn(payload)
            if self.charge and result.get("budget") is not None:
                result["budget"]["conflicts_used"] += self.charge
            out.append(result)
            if on_result is not None:
                on_result(i, result)
        return out

    def close(self):
        pass


class TestDriverBudgetRoundTrip:
    CASE = "memcpy_arm"
    KWARGS = {"n": 3}
    ALLOWANCE = 100_000

    def _die_addr(self):
        from repro import casestudies
        from repro.parallel.config import configured

        with configured(jobs=1):
            case = casestudies.memcpy_arm.build(**self.KWARGS)
        return sorted(case.specs)[-1]

    def test_dead_block_lands_unknown_never_verified(self):
        die_addr = self._die_addr()
        case, report = verify_case_parallel(
            self.CASE, dict(self.KWARGS), jobs=2, pool=_DeadlyPool(die_addr)
        )
        assert report.blocks[die_addr].outcome == "unknown"
        assert report.blocks[die_addr].reason == WORKER_DIED
        assert not report.ok
        assert report.outcome == "unknown"
        # The certificate agrees: the block is recorded unknown, not among
        # the verified blocks, and the proof still re-checks.
        assert report.proof.outcomes[die_addr] == "unknown"
        assert die_addr not in report.proof.blocks_verified
        from repro.logic.checker import check_proof

        check_proof(report.proof, expected_blocks=set(case.specs))
        # Surviving blocks are unaffected.
        for addr in case.specs:
            if addr != die_addr:
                assert report.blocks[addr].outcome == "verified"

    def test_dead_share_returns_to_parent_budget(self):
        die_addr = self._die_addr()
        spec = BudgetSpec(conflict_allowance=self.ALLOWANCE)
        charge = 7
        _case, healthy = verify_case_parallel(
            self.CASE, dict(self.KWARGS), jobs=2, budget_spec=spec,
            pool=_DeadlyPool(die_addr=None, charge=charge),
        )
        _case, wounded = verify_case_parallel(
            self.CASE, dict(self.KWARGS), jobs=2, budget_spec=spec,
            pool=_DeadlyPool(die_addr, charge=charge),
        )
        # Every surviving worker reports exactly ``charge`` conflicts.
        n_blocks = len(healthy.blocks)
        assert healthy.budget.conflicts_used == charge * n_blocks
        # The dead worker reported nothing: the parent absorbs one report
        # fewer, and the dead partition share returns to the pool intact.
        assert wounded.budget.conflicts_used == charge * (n_blocks - 1)
        assert wounded.budget.exhausted is None
        assert (
            wounded.budget.remaining_conflicts()
            == self.ALLOWANCE - charge * (n_blocks - 1)
        )

    def test_all_workers_dead_is_total_unknown_not_a_crash(self):
        class _Morgue:
            jobs = 2

            def map_tasks(self, fn, payloads):
                return [fn(payload) for payload in payloads]

            def map_tasks_graceful(self, fn, payloads, on_result=None):
                return [TaskFailure(WORKER_DIED)] * len(payloads)

            def close(self):
                pass

        spec = BudgetSpec(conflict_allowance=self.ALLOWANCE)
        case, report = verify_case_parallel(
            self.CASE, dict(self.KWARGS), jobs=2, budget_spec=spec,
            pool=_Morgue(),
        )
        assert set(report.blocks) == set(case.specs)
        assert all(b.outcome == "unknown" for b in report.blocks.values())
        assert report.budget.conflicts_used == 0
        assert report.budget.remaining_conflicts() == self.ALLOWANCE


def test_real_kill_through_the_driver():
    """End-to-end: a genuine worker process death (not a stub) during a
    parallel run degrades to unknown outcomes without an exception."""
    from repro import casestudies
    from repro.parallel.config import configured

    with configured(jobs=1):
        case = casestudies.memcpy_arm.build(n=3)
    target = sorted(case.specs)[0]

    class _Assassin(WorkerPool):
        def map_tasks_graceful(self, fn, payloads, on_result=None):
            if fn is _verify_block_worker:
                doctored = [
                    {"value": None, "die": True, "sleep": 0.2}
                    if p.get("addr") == target
                    else p
                    for p in payloads
                ]
                return super().map_tasks_graceful(
                    _block_worker_or_die, doctored, on_result=on_result
                )
            return super().map_tasks_graceful(fn, payloads, on_result=on_result)

    pool = _Assassin(2)
    try:
        _case, report = verify_case_parallel(
            "memcpy_arm", {"n": 3}, jobs=2, pool=pool
        )
    finally:
        pool.close()
    assert report.blocks[target].outcome == "unknown"
    assert report.blocks[target].reason == WORKER_DIED
    assert not report.ok

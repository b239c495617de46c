"""The daemon's worker pool never forks while a runner thread is alive.

``fork`` copies only the calling thread.  A lock that another thread holds
at that moment — a module import lock, say — stays held in the child for
good, and the worker hangs on it; a daemon that forked its pool from a
runner thread while another runner was importing hung about one run in
25.  These tests record ``threading.enumerate()`` at every ``os.fork`` of
the daemon's process and fail if a runner thread of the service is among
them: on the first fork, and on the rebuild after a worker died.  A real
``tools/serve`` must also outlive the death of one of its workers.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import SubmitRequest
from repro.service.server import VerificationService

from .test_server import _serial_run


def _die(_payload):
    os._exit(1)


@pytest.fixture
def forks(monkeypatch):
    """Every ``os.fork`` of this process, as the threads alive at the time."""
    seen: list[list[threading.Thread]] = []
    real_fork = os.fork

    def recording_fork():
        seen.append(threading.enumerate())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    return seen


def _run(service, case: str) -> dict:
    job = service.submit(SubmitRequest(case=case))
    deadline = time.monotonic() + 300
    while not job.terminal:
        assert time.monotonic() < deadline, f"{case} never finished"
        time.sleep(0.02)
    assert job.state == "done", job.error
    return job.result


def _forks_with_runners(forks, service) -> list[list[str]]:
    runners = {runner._thread for runner in service._runners}
    return [
        [thread.name for thread in alive]
        for alive in forks
        if runners.intersection(alive)
    ]


def test_first_fork_precedes_the_runner_threads(forks):
    service = VerificationService(pool_jobs=2, block_jobs=2, runners=2)
    service.start()
    try:
        assert _run(service, "rbit")["ok"] is True
    finally:
        service.stop()
    assert forks, "the pool never forked a worker"
    assert _forks_with_runners(forks, service) == []


def test_rebuild_after_worker_death_forks_no_runner_thread(forks):
    service = VerificationService(pool_jobs=2, block_jobs=2, runners=2)
    service.start()
    try:
        died = service.pool.map_tasks_graceful(_die, [{}])
        assert died[0].reason == "worker process died"
        before = len(forks)
        assert _run(service, "uart")["ok"] is True
        # The job ran on a rebuilt pool of real worker processes.
        assert service.pool._executor is not None
        assert service.pool._executor._processes
    finally:
        service.stop()
    assert _forks_with_runners(forks[before:], service) == []


def _children(pid: int) -> list[int]:
    out = subprocess.run(
        ["pgrep", "-P", str(pid)], capture_output=True, text=True
    ).stdout
    return [int(line) for line in out.split()]


def test_serve_survives_a_killed_worker(tmp_path):
    """Kill one pool worker of a real ``tools/serve``: the executor ends
    the other with SIGTERM, and neither signal may reach the daemon's
    event loop.  The next job runs on a rebuilt pool, and the daemon
    still drains and exits on ``/shutdown``."""
    if shutil.which("pgrep") is None:
        pytest.skip("needs pgrep to find the pool workers")
    socket_path = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve", "--socket", socket_path,
         "--jobs", "2", "--runners", "2", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        assert "listening" in proc.stdout.readline()
        client = ServiceClient(socket_path=socket_path, timeout=30)
        assert client.run("rbit", timeout=60)["ok"] is True
        workers = _children(proc.pid)
        assert len(workers) == 2
        os.kill(workers[0], signal.SIGKILL)
        deadline = time.monotonic() + 20
        while _children(proc.pid):
            assert time.monotonic() < deadline, "the survivor never ended"
            time.sleep(0.05)
        report = client.run("uart", timeout=60)
        assert report["ok"] is True
        assert report["certificate"] == _serial_run("uart")[0]
        client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            for child in _children(proc.pid):
                os.kill(child, signal.SIGKILL)
            proc.kill()
            proc.wait()
        proc.stdout.close()

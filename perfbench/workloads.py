"""The four workloads.  Each returns a :class:`Outcome`.

The benchmark process only generates inputs, spawns the program and checks
its answers; all verification work happens in program processes (a fresh
interpreter per paper round, one co-sim process, one daemon) so their
set-up, memory and timing are the program's own.  Inputs come from the
seed alone.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import known_answers
from measure import median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: How often set-up is repeated where it is not repeated by the rounds.
SETUP_REPEATS = 5
#: Daemon spawns per run.  A spawn is cheap, and with five the median
#: moved 0.19 between two sets of ten runs, close to its 0.25 bound.
DAEMON_SETUP_REPEATS = 9
#: Co-sim programs per architecture per round.
COSIM_PER_ARCH = 200
COSIM_ARCHS = ("arm", "riscv", "ppc")
#: Programs per bulk ``cosim:<arch>`` daemon job.
BULK_COUNT = 50
#: A program process, or a daemon job, that takes longer than this has hung.
CHILD_TIMEOUT_S = 150
JOB_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer: those are counted)."""


@dataclass
class Outcome:
    """Everything a run measured.  ``report`` rows are ``(name, value, unit,
    samples)`` under the per-workload metric names; ``metrics`` are the
    ``BENCHMARK.json`` names."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    false_rejects: int = 0
    false_accepts: int = 0
    probes: int = 0
    report: list[tuple] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict | None = None

    def error(self, text: str) -> None:
        self.failed += 1
        self.errors.append(text)

    @property
    def correct(self) -> bool:
        return not self.errors


class Context:
    """Scratch space and process plumbing for one run, inside the checkout."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(f"{workload}/{seed}")
        self.dir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        self.env["TMPDIR"] = str(self.dir / "tmp")
        self._requests = 0

    def child(self, request: dict) -> tuple[dict, float, float]:
        """Run one program process; returns ``(result, spawned, exited)``."""
        self._requests += 1
        req = self.dir / f"req{self._requests}.json"
        out = self.dir / f"out{self._requests}.json"
        req.write_text(json.dumps(request))
        with open(self.dir / "child.err", "w") as err:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(req), str(out)],
                    env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                    timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"program process hung ({request['mode']})") from exc
            exited = time.monotonic()
        if proc.returncode != 0:
            tail = (self.dir / "child.err").read_text()[-2000:]
            raise BenchError(f"program process failed ({request['mode']}):\n{tail}")
        result = json.loads(out.read_text())
        req.unlink()
        out.unlink()
        return result, spawned, exited

    def import_sample(self, modules: list[str]) -> float:
        result, spawned, _ = self.child({"mode": "import", "modules": modules})
        return result["imported_at"] - spawned

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- paper corpus ---------------------------------------------------------------


def _paper_request(ctx: Context, cert_dir: Path, cache_dir: Path | None, first: str,
                   trace: bool = False) -> dict:
    order = [name for name in known_answers.PAPER_CASES if name != first]
    ctx.rng.shuffle(order)
    order.insert(0, first)
    return {
        "mode": "paper", "trace": trace,
        "cache_dir": str(cache_dir) if cache_dir else None,
        "cases": [{"name": name, "n": known_answers.PAPER_N, "cert_dir": str(cert_dir)}
                  for name in order],
    }


def _read_certs(cert_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cert_dir.glob("*.cert.json"))}


def paper(ctx: Context, warm: bool) -> Outcome:
    out = Outcome(ctx.workload)
    ctx.import_sample(["repro.tools.verify", "repro.casestudies"])  # compile .pyc
    cache_dir = None
    reference: dict[str, bytes] | None = None
    setup: list[float] = []
    # The first case of a fresh interpreter pays about 0.1 s of lazy set-up,
    # which lifts a short case into the cluster of long ones.  So the first
    # case cycles through a seeded permutation, each case once in any 11
    # rounds; drawn freely, how often a short case came first would move
    # the case-time median from seed to seed.
    permutation = list(known_answers.PAPER_CASES)
    ctx.rng.shuffle(permutation)
    firsts = itertools.cycle(permutation)
    if warm:
        # Set-up is the run that fills the cache; repeat it into fresh
        # directories and keep the last one for the timed rounds.
        for index in range(SETUP_REPEATS):
            cache_dir = ctx.dir / f"cache{index}"
            certs = ctx.dir / f"setup{index}"
            result, spawned, exited = ctx.child(
                _paper_request(ctx, certs, cache_dir, next(firsts)))
            setup.append(exited - spawned)
            _check_paper_round(out, result, _read_certs(certs), reference)
            reference = reference or _read_certs(certs)
            shutil.rmtree(certs)
    rounds, case_s, rss, walls = 0, [], [], {False: [], True: []}
    dumps = []
    first_spawn = last_exit = None
    while rounds == 0 or last_exit - first_spawn < ctx.seconds:
        traced = ctx.trace and rounds % 2 == 1
        certs = ctx.dir / f"round{rounds}"
        result, spawned, exited = ctx.child(
            _paper_request(ctx, certs, cache_dir, next(firsts), trace=traced))
        first_spawn = first_spawn or spawned
        last_exit = exited
        walls[traced].append(exited - spawned)
        if not warm:
            setup.append(result["imported_at"] - spawned)
        round_certs = _read_certs(certs)
        _check_paper_round(out, result, round_certs, reference)
        reference = reference or round_certs
        if rounds == 0:
            first_certs = certs
        else:
            shutil.rmtree(certs)
        case_s.extend(case["seconds"] for case in result["cases"])
        rss.append(result["rss_mb"])
        if traced:
            dumps.append({"spans": result["spans"], "counters": result["counters"]})
        rounds += 1
    if not warm:
        probes, _, _ = ctx.child({"mode": "probes", "cert_dir": str(first_certs),
                                  "names": list(known_answers.PAPER_CASES)})
        out.probes = len(probes["probes"])
        out.false_accepts = sum(p["accepted"] for p in probes["probes"])
    cases = len(case_s)
    _publish(out, [
        ("setup_s", "setup_s", median(setup), "s", len(setup)),
        ("cases_per_s", "throughput_per_s", cases / (last_exit - first_spawn),
         "cases/s", cases),
        ("case_s_p50", "latency_s_p50", median(case_s), "s", cases),
        ("case_s_p90", "latency_s_p90", percentile(case_s, 0.9), "s", cases),
        ("peak_rss_mb", "peak_rss_mb", median(rss), "MB", len(rss)),
    ], "case_s", case_s)
    if ctx.trace:
        if warm:
            setup = [ctx.import_sample(["repro.tools.verify", "repro.casestudies"])
                     for _ in range(SETUP_REPEATS)]
        out.layers = {
            "workload": ctx.workload, "unit": "corpus round", "units": len(dumps),
            "parts": dumps,
            "extra": {
                "setup.import_s": (median(setup),
                                   f"median of {len(setup)} fresh interpreters"),
                "trace.overhead_ratio": _overhead(walls[True], walls[False]),
            },
        }
    return out


def _check_paper_round(out: Outcome, result: dict, certs: dict[str, bytes],
                       reference: dict[str, bytes] | None) -> None:
    for case in result["cases"]:
        out.attempted += 1
        verdict = known_answers.classify(case["name"], case["n"], case["ok"])
        if verdict == "false_reject":
            out.false_rejects += 1
        elif verdict == "error":
            out.error(f"{case['name']} n={case['n']} did not verify")
    if reference is not None:
        for name in sorted(set(reference) | set(certs)):
            if reference.get(name) != certs.get(name):
                out.error(f"certificate {name} differs between rounds")


def _overhead(traced: list[float], untraced: list[float]):
    if not traced or not untraced:
        return 0.0, "no traced/untraced pair of rounds"
    return median(traced) / median(untraced), (
        f"median round wall: traced {median(traced):.4g} s (n={len(traced)}) / "
        f"untraced {median(untraced):.4g} s (n={len(untraced)})")


def _publish(out: Outcome, rows: list[tuple], tail_name: str, tail: list[float]) -> None:
    """``rows`` are ``(report name, BENCHMARK.json name, value, unit, samples)``;
    the report also gets the highest percentile of ``tail`` that has at
    least ten samples beyond it."""
    out.report = [(name, value, unit, n) for name, _, value, unit, n in rows]
    out.metrics = {key: value for _, key, value, _, _ in rows if key}
    pct, value = tail_percentile(tail)
    out.report.append((f"{tail_name}_p{pct}", value, "s", len(tail)))


# -- co-simulation soak -----------------------------------------------------------


def cosim_soak(ctx: Context) -> Outcome:
    out = Outcome(ctx.workload)
    modules = ["repro.cosim"]
    ctx.import_sample(modules)  # compile .pyc
    setup = [ctx.import_sample(modules) for _ in range(SETUP_REPEATS)]

    def soak(seconds: float, traced: bool) -> dict:
        result, spawned, _ = ctx.child({
            "mode": "cosim", "trace": traced, "seed": ctx.seed,
            "seconds": seconds, "archs": list(COSIM_ARCHS),
            "per_arch": COSIM_PER_ARCH,
        })
        setup.append(result["imported_at"] - spawned)
        out.attempted += result["programs"]
        for divergence in result["divergences"]:
            out.error(f"co-sim divergence: {divergence}")
        return result

    if ctx.trace:
        # Untraced then traced soak of equal length, each in a fresh process.
        plain = soak(ctx.seconds / 2, False)
        result = soak(ctx.seconds / 2, True)
        per_instr = [r["wall_s"] / max(1, r["instructions"]) for r in (result, plain)]
        out.layers = {
            "workload": ctx.workload, "unit": "1000 co-sim programs",
            "units": result["programs"] / 1000,
            "parts": [{"spans": result["spans"], "counters": result["counters"]}],
            "extra": {
                "setup.import_s": (median(setup), f"median of {len(setup)} fresh interpreters"),
                "cosim.arm_coverage": (result["arms_hit"] / result["arms_total"],
                                       f"{result['arms_hit']}/{result['arms_total']} decode arms"),
                "trace.overhead_ratio": (per_instr[0] / per_instr[1],
                                         "wall per lockstepped instruction, traced/untraced"),
            },
        }
    else:
        result = soak(ctx.seconds, False)
    latencies = result["latencies"]
    rate = result["instructions"] / result["wall_s"]
    _publish(out, [
        ("setup_s", "setup_s", median(setup), "s", len(setup)),
        ("instrs_per_s", "throughput_per_s", rate, "instrs/s", result["instructions"]),
        ("program_s_p50", "latency_s_p50", median(latencies), "s", len(latencies)),
        ("program_s_p90", "latency_s_p90", percentile(latencies, 0.9), "s",
         len(latencies)),
        ("peak_rss_mb", "peak_rss_mb", result["rss_mb"], "MB", 1),
        ("arm_coverage", None, result["arms_hit"] / result["arms_total"], "ratio",
         result["arms_total"]),
    ], "program_s", latencies)
    return out


# -- daemon mix -------------------------------------------------------------------


def _client_module():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.service import client

    return client


class Daemon:
    """A ``tools/serve`` daemon subprocess (default runners and pool) in its
    own process group; ``healthy - spawned`` is one set-up sample."""

    def __init__(self, ctx: Context) -> None:
        client = _client_module()
        self.spawned = time.monotonic()
        with open(ctx.dir / "daemon.err", "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.serve", "--port", "0", "--quiet"],
                env=ctx.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                start_new_session=True,
            )
        try:
            host, port = self._address(deadline=self.spawned + 60)
            self.client = client.ServiceClient(host=host, port=port, timeout=120)
            while True:
                try:
                    if self.client.healthz().get("ok"):
                        break
                except client.ServiceError:
                    pass
                if time.monotonic() > self.spawned + 60:
                    raise BenchError("daemon never became healthy")
                time.sleep(0.002)
            self.healthy = time.monotonic()
        except BaseException:
            self.stop()
            raise

    def _address(self, deadline: float) -> tuple[str, int]:
        ready, _, _ = select.select([self.proc.stdout], [], [], deadline - time.monotonic())
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            raise BenchError(f"daemon did not announce its address: {line!r}")
        host, port = line.strip().rsplit("//", 1)[1].rsplit(":", 1)
        return host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
        self.proc.stdout.close()


def _deck(rng: random.Random) -> list[tuple[str, dict, str]]:
    """One seeded deck of 20 daemon jobs: 15 interactive, 5 bulk.

    The interactive jobs use every n of 2..16 once.  Sorted, those 15 sizes
    form three strata of five neighbours, and each stratum is dealt at
    random to the five sized cases, so every case gets a small, a middle
    and a large n whatever the seed.  n = 16 is in every deck, so the
    binsearch incompleteness can show up as false rejects.  The five bulk
    jobs are ``cosim:<arch>`` batches, one per architecture plus two drawn.
    """
    lo, hi = known_answers.N_RANGE
    sizes = list(range(lo, hi + 1))
    width = len(known_answers.SIZED_CASES)
    deck = []
    for start in range(0, len(sizes), width):
        stratum = sizes[start:start + width]
        rng.shuffle(stratum)
        deck += [(case, {"n": n}, "interactive")
                 for case, n in zip(known_answers.SIZED_CASES, stratum)]
    for arch in COSIM_ARCHS + tuple(rng.choice(COSIM_ARCHS) for _ in range(2)):
        deck.append((f"cosim:{arch}", {"seed": rng.randrange(1 << 30),
                                      "count": BULK_COUNT}, "bulk"))
    return deck


def _passes(deck: list, rng: random.Random, seconds: float):
    """The deck, reshuffled on every pass, so a run repeats (case, n) pairs
    and exercises dedup and warm caches.  Passes always run whole: stopped
    mid-pass, a run's share of heavy jobs would depend on where a slow or
    fast machine cut the last pass, and the latency tail would move with
    it.  Another pass starts while it would end, at the last pass's pace,
    no more than half a pass after ``seconds``; so the timed window is
    ``seconds`` give or take half a pass."""
    deck = list(deck)
    deadline = time.monotonic() + seconds
    last_pass = 0.0
    while time.monotonic() + last_pass / 2 < deadline:
        started = time.monotonic()
        rng.shuffle(deck)
        yield from deck
        last_pass = time.monotonic() - started


def _send(service_client, case: str, kwargs: dict, priority: str) -> dict:
    """Submit one job and wait for its report.  A job that fails, is
    rejected or outlives ``JOB_TIMEOUT_S`` yields a record with ``error``
    (and ``hung`` for the last), which counts as a failed op; it does not
    abort the run."""
    client = _client_module()
    record = {"case": case, "kwargs": kwargs, "priority": priority}
    started = time.monotonic()
    try:
        record["result"] = service_client.run(case, kwargs=kwargs, priority=priority,
                                              timeout=JOB_TIMEOUT_S)
    except client.ServiceError as exc:
        record["error"] = str(exc)
    except TimeoutError as exc:
        record["error"] = f"hung: {exc}"
        record["hung"] = True
    record["seconds"] = time.monotonic() - started
    record["received"] = time.time()
    return record


def _closed_loop(service_client, jobs, limit: float):
    """One client: send each job of ``jobs`` with ``ServiceClient.run``
    once the previous reply arrived, until ``jobs`` runs out.  A hung job,
    or ``limit`` seconds, stops the loop early: a hung daemon would hang
    every later job too.  Returns ``(records, wall_s)``, one record per job.

    One client, so that a job never overlaps another: the daemon's pool
    already fans each job out over its two workers.  With two clients on a
    2-core machine the runners, the pool workers and the daemon itself
    outnumbered the cores, and the latency median moved with how jobs
    happened to pair up (BASELINE.md)."""
    records: list[dict] = []
    submitted: list[str] = []
    submit = service_client.submit

    def tracking_submit(*args, **kwargs):
        job = submit(*args, **kwargs)
        submitted.append(job["id"])
        return job

    # The instance attribute shadows the method for ``run``'s own
    # ``self.submit`` call, which is how a record learns its job id.
    service_client.submit = tracking_submit
    started = time.monotonic()
    try:
        for job in jobs:
            if time.monotonic() >= started + limit:
                break
            submitted.clear()
            record = _send(service_client, *job)
            record["job_id"] = submitted[0] if submitted else None
            records.append(record)
            if record.get("hung"):
                break
    finally:
        del service_client.submit
    return records, time.monotonic() - started


def _check_jobs(out: Outcome, records: list[dict], certs: dict) -> None:
    """Known answers and certificate identity across jobs; ``certs`` maps
    ``(case, n)`` to the first ``(certificate, ok)`` the daemon returned."""
    for record in records:
        out.attempted += 1
        if "error" in record:
            out.error(f"job {record['case']} {record['kwargs']} failed: {record['error']}")
            continue
        result = record["result"]
        if record["priority"] == "bulk":
            if result.get("outcome") != "pass":
                out.error(f"{record['case']} diverged: {result.get('divergences')}")
            continue
        name, n = record["case"], record["kwargs"]["n"]
        verdict = known_answers.classify(name, n, result["ok"])
        if verdict == "false_reject":
            out.false_rejects += 1
        elif verdict == "error":
            out.error(f"{name} n={n} did not verify")
        first = certs.setdefault((name, n), (result["certificate"], result["ok"]))
        if first[0] != result["certificate"]:
            out.error(f"daemon certificate for {name} n={n} differs between jobs")


def _compare_serial(ctx: Context, out: Outcome, certs: dict) -> None:
    """Each daemon certificate must equal the serial ``run_one`` one."""
    entries = [
        {"name": name, "n": n, "cert_dir": str(ctx.dir / "serial" / f"{name}-{n}")}
        for name, n in sorted(certs)
    ]
    if not entries:
        return
    result, _, _ = ctx.child({"mode": "paper", "cases": entries})
    for entry, case in zip(entries, result["cases"]):
        key = (entry["name"], entry["n"])
        serial = (Path(entry["cert_dir"]) / f"{entry['name']}.cert.json").read_text()
        if serial != certs[key][0]:
            out.error(f"daemon certificate for {key} differs from the serial one")
        if case["ok"] != certs[key][1]:
            out.error(f"daemon and serial verdicts differ for {key}")


def _daemon_figures(out: Outcome, setup, records, wall, rss) -> None:
    done = [r for r in records if "result" in r]
    interactive = [r["seconds"] for r in done if r["priority"] == "interactive"]
    bulk = [r["seconds"] for r in done if r["priority"] == "bulk"]
    _publish(out, [
        ("setup_s", "setup_s", median(setup), "s", len(setup)),
        ("jobs_per_s", "throughput_per_s", len(done) / wall, "jobs/s", len(done)),
        ("interactive_s_p50", "latency_s_p50", median(interactive), "s",
         len(interactive)),
        ("interactive_s_p90", "latency_s_p90", percentile(interactive, 0.9), "s",
         len(interactive)),
        ("bulk_s_p50", None, median(bulk), "s", len(bulk)),
        ("peak_rss_mb", "peak_rss_mb", rss, "MB", 1),
    ], "interactive_s", interactive)


def daemon_mixed(ctx: Context) -> Outcome:
    out = Outcome(ctx.workload)
    ctx.import_sample(["repro.tools.serve", "repro.service.server"])  # compile .pyc
    if ctx.trace:
        return _daemon_traced(ctx, out)
    setup = []
    for _ in range(DAEMON_SETUP_REPEATS - 1):
        daemon = Daemon(ctx)
        setup.append(daemon.healthy - daemon.spawned)
        daemon.stop()
    daemon = Daemon(ctx)
    setup.append(daemon.healthy - daemon.spawned)
    rng = random.Random(f"{ctx.seed}/load")
    deck = _deck(rng)
    try:
        warmup = _warm_up(daemon.client, deck)
        records, wall = _closed_loop(daemon.client, _passes(deck, rng, ctx.seconds),
                                     ctx.seconds + JOB_TIMEOUT_S)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    certs: dict = {}
    _check_jobs(out, warmup + records, certs)
    _compare_serial(ctx, out, certs)
    _daemon_figures(out, setup, records, wall, rss)
    out.report.insert(1, ("warmup_s", sum(r["seconds"] for r in warmup), "s", len(warmup)))
    return out


def _warm_up(service_client, deck: list) -> list[dict]:
    """One untimed pass over ``deck`` before timing starts.

    A (case, n) pair's first job is the slow one: a bulk job takes about
    twice as long.  Timed, the first pass would weigh more in a slow run
    (fewer passes fit) than in a fast one, and amplify the machine's speed
    swings; so every pair is seen once here and the timed loop measures
    warm caches only.  The pass also runs every kind of job once, alone,
    before the timed loop: the daemon imports lazily in its runner threads
    and its pool forks workers from that threaded process, and a worker
    forked while another thread is importing hangs on the module lock
    (README.md, the fork quirk).
    """
    return _closed_loop(service_client, iter(deck), JOB_TIMEOUT_S)[0]


def _bulk_coverage(records: list[dict]) -> tuple[float, str]:
    """Share of decode arms the traced bulk jobs executed, from their reports."""
    counts: dict = {}
    for record in records:
        if record["priority"] == "bulk" and "result" in record:
            coverage = record["result"].get("coverage") or {}
            for arm, count in coverage.get("counts", {}).items():
                key = (record["case"], arm)
                counts[key] = counts.get(key, 0) + count
    hit = sum(1 for count in counts.values() if count)
    return (hit / len(counts) if counts else 0.0), f"{hit}/{len(counts)} decode arms"


#: ``/metrics.json`` counters the service figures are computed from.
SERVICE_COUNTERS = ("dedup_hits", "trace_requests", "batches", "batched_requests")


def _daemon_traced(ctx: Context, out: Outcome) -> Outcome:
    """Host the daemon in this process so that worker-pool calls can be
    wrapped.  Every segment replays one seeded job sequence: a warm-up,
    then untraced, traced, traced, untraced, so warm caches favour neither."""
    import asyncio
    import tempfile

    import instrument
    import spans

    os.environ["TMPDIR"] = ctx.env["TMPDIR"]
    tempfile.tempdir = None
    client = _client_module()
    from repro.service.runner import JobRunner
    from repro.service.server import VerificationService

    import_s = median([ctx.import_sample(["repro.tools.serve", "repro.service.server"])
                       for _ in range(SETUP_REPEATS)])
    # The pool forks its workers from a process with threads; a module some
    # thread is importing at that moment stays locked in the worker for
    # good.  Importing every module a job touches up front (wrapping the
    # layers once does) keeps this process's own imports out of that race.
    tracer = spans.Tracer()
    instrument.install(tracer)
    tracer.close()
    import repro.analysis.footprint  # noqa: F401 — the runner's shard key
    service = VerificationService()
    bound: list = []
    ready = threading.Event()

    def on_ready(address) -> None:
        bound.append(address)
        ready.set()

    loop_thread = threading.Thread(
        target=asyncio.run,
        args=(service.serve(host="127.0.0.1", port=0, ready=on_ready),))
    loop_thread.start()
    segment = ctx.seconds / 5

    def sequence():
        rng = random.Random(f"{ctx.seed}/sequence")
        return _passes(_deck(rng), rng, segment)

    walls = {False: 0.0, True: 0.0}
    records = {False: [], True: []}
    counters = dict.fromkeys(SERVICE_COUNTERS, 0)
    program = dict.fromkeys(instrument.program_counters(), 0)
    try:
        if not ready.wait(60):
            raise BenchError("in-process daemon did not start")
        service_client = client.ServiceClient(
            host=bound[0][0], port=bound[0][1], timeout=120)
        _closed_loop(service_client, sequence(), segment + JOB_TIMEOUT_S)
        for traced in (False, True, True, False):
            if traced:
                instrument.install(tracer)
                tracer.wrap(JobRunner, "run_job", "service.run",
                            request_of=lambda runner, job: job.id)
                before = service_client.metrics()["counters"]
                program_before = instrument.program_counters()
            batch, wall = _closed_loop(service_client, sequence(),
                                       segment + JOB_TIMEOUT_S)
            if traced:
                tracer.close()
                after = service_client.metrics()["counters"]
                for key in SERVICE_COUNTERS:
                    counters[key] += after.get(key, 0) - before.get(key, 0)
                delta = instrument.counter_delta(program_before,
                                                 instrument.program_counters())
                for key, value in delta.items():
                    program[key] += value
            records[traced].extend(batch)
            walls[traced] += wall
        snapshots = {job["id"]: job for job in service_client.jobs()}
    finally:
        tracer.close()
        service.request_stop("drain")
        loop_thread.join(timeout=60)
    _check_jobs(out, records[False] + records[True], {})
    traced_jobs = [r for r in records[True] if "result" in r]
    waits, runs, polls = [], [], []
    for record in traced_jobs:
        job = snapshots[record["job_id"]]
        waits.append(job["started"] - job["created"])
        runs.append(job["finished"] - job["started"])
        polls.append(record["received"] - job["finished"])
    rate = {k: len(records[k]) / walls[k] for k in walls}
    units = max(1, len(traced_jobs))
    out.layers = {
        "workload": ctx.workload, "unit": "job", "units": units,
        "parts": [{"spans": tracer.spans, "counters": {**tracer.counters, **program}}],
        "extra": {
            "setup.import_s": (import_s, f"median of {SETUP_REPEATS} fresh interpreters"),
            "cosim.arm_coverage": _bulk_coverage(records[True]),
            "service.queue_wait_s_p50": (median(waits), f"{len(waits)} jobs"),
            "service.run_s_p50": (median(runs), f"{len(runs)} jobs"),
            "service.client_poll_s_p50": (median(polls), f"{len(polls)} jobs"),
            "service.dedup_hit_ratio": (
                counters["dedup_hits"] / max(1, counters["trace_requests"]),
                f"{counters['dedup_hits']}/{counters['trace_requests']} trace requests"),
            "service.batch_size_mean": (
                counters["batched_requests"] / max(1, counters["batches"]),
                f"{counters['batched_requests']} requests/{counters['batches']} batches"),
            "trace.overhead_ratio": (
                rate[False] / rate[True] if rate[True] else 0.0,
                f"jobs/s untraced {rate[False]:.4g} / traced {rate[True]:.4g}"),
        },
    }
    return out

"""The batch scheduler: fan jobs out across cores, through the cache.

``run_batch`` executes a list of :class:`~repro.batch.jobs.JobSpec` and
returns every :class:`~repro.batch.jobs.JobResult` *in submission order*
(scheduling is free to reorder work -- longest-expected jobs first -- but the
output never depends on completion order, which is what keeps batch JSONL
files byte-identical across runs and across ``--jobs`` settings).

Execution modes:

* inline -- in this process, one shared
  :class:`~repro.geometry.engine.MeasureEngine` across all jobs (the same
  semantics as the serial CLI commands);
* supervised pool (``jobs > 1``, or any run with a ``--job-timeout``) -- a
  ``ProcessPoolExecutor`` of worker processes, each owning one engine for
  the jobs it runs, watched by a supervisor loop in this process.  Workers
  are seeded with the persistent measure entries at startup, so sibling
  workers skip work the cache already knows.

The supervisor makes the pool fault-tolerant rather than merely parallel:

* submissions are bounded to the worker count, so every running job's
  wall-clock deadline (``job_timeout``) is measured from the moment it
  actually started;
* a job past its deadline gets the whole pool terminated (an executor
  cannot cancel a *running* future), the timed-out job is charged a retry
  attempt, its innocent neighbours are resubmitted as orphans at no attempt
  cost, and a fresh pool -- re-seeded with everything collected so far --
  picks up the queue;
* a worker death (``BrokenProcessPool``) poisons every in-flight future;
  each one is classified ``"worker-died"`` and retried with backoff, since
  the culprit cannot be told apart from its victims;
* *transient* failures (worker death, timeout, OS errors) are retried up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff and seeded
  jitter; *deterministic* job exceptions fail fast -- rerunning the same
  spec on the same code would only fail the same way;
* results completed before a crash -- and the measure/sweep entries already
  shipped back -- are never lost: they live in the supervisor, not in the
  dead worker.

Every recovery is counted (``retries``, ``timeouts``, ``worker_restarts``)
on the :class:`BatchReport` and mirrored into its
:class:`~repro.geometry.stats.PerfStats` for ``--stats`` / ``--stats-json``.

With a persistent store (:class:`~repro.batch.store_sqlite.SqliteStore`),
finished results are persisted as they complete and already-cached jobs are
never re-run, so an unchanged batch re-runs near-instantly.

Invariants (cited by ``docs/architecture.md``; the test suite enforces
them):

* **Bit-identity** -- the deterministic JSONL produced by a batch is
  byte-identical across runs, across ``--jobs`` settings and across cold
  and warm stores: scheduling, caching and fault recovery may change
  *when* a result is computed, never *what* it is.
* **Submission order** -- results are returned in submission order no
  matter the completion order, which is what makes the previous point
  testable at the file level.
* **Crash-safety** -- a killed run loses at most in-flight work: completed
  results live in the supervisor and the store (atomic writes, journalled
  or transactional merges), and the next run resumes from them.
"""

from __future__ import annotations

import heapq
import json
import logging
import multiprocessing
import os
import random
import tempfile
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

import repro.telemetry as telemetry
from repro.batch.faults import active_plan
from repro.batch.jobs import JobResult, JobSpec, run_job
from repro.geometry.engine import MeasureEngine
from repro.geometry.measure import MeasureOptions
from repro.geometry.stats import PerfStats

__all__ = [
    "BatchReport",
    "ResultScan",
    "RetryPolicy",
    "read_result_keys",
    "run_batch",
    "scan_results_jsonl",
    "write_results_jsonl",
]

ProgressCallback = Callable[[JobResult, int, int], None]

_LOGGER = logging.getLogger("repro.batch")

_SUPERVISOR_TICK_SECONDS = 0.05
"""How long one supervisor wait blocks: bounds timeout-detection latency."""

_TRANSIENT_KINDS = frozenset({"worker-died", "timeout", "os-error"})
"""Failure kinds worth retrying; everything else is deterministic."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised pool retries *transient* job failures.

    A failed attempt is retried after an exponentially growing backoff with
    seeded jitter (so two batches retrying into one shared cache directory
    do not stampede in lockstep), up to ``max_retries`` re-submissions per
    job.  Deterministic job exceptions never consult this policy.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before re-submitting attempt ``attempt`` (1-based)."""
        base = min(
            self.backoff_cap_seconds,
            self.backoff_seconds * (2 ** max(0, attempt - 1)),
        )
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class BatchReport:
    """Everything a batch run produced, plus scheduling bookkeeping."""

    results: List[JobResult]
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int
    stats: PerfStats = field(default_factory=PerfStats)
    """Merged measure-engine counters over the jobs that actually ran."""

    cache_enabled: bool = True
    """Whether a persistent cache was consulted at all."""

    retries: int = 0
    """Transient failures re-submitted by the supervisor."""

    timeouts: int = 0
    """Jobs that blew their ``job_timeout`` wall-clock budget."""

    worker_restarts: int = 0
    """Times the worker pool was torn down and rebuilt mid-batch."""

    quarantined_rows: int = 0
    """Damaged store rows quarantined while this batch ran."""

    corrupt_result_lines: int = 0
    """Unparseable lines found in the output file's pre-run scan.

    Filled by the CLI whenever the results file is scanned (not just under
    ``--resume``), so a torn results file is always visible in the footer.
    """

    @property
    def error_count(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    @property
    def ok_count(self) -> int:
        return len(self.results) - self.error_count

    def summary(self) -> str:
        """The human-readable footer printed by ``python -m repro batch``."""
        if self.cache_enabled:
            cache_line = f"job cache        : {self.cache_hits} hits, {self.cache_misses} misses"
        else:
            cache_line = "job cache        : disabled (no cache directory)"
        lines = [
            f"jobs             : {len(self.results)} total, "
            f"{self.ok_count} ok, {self.error_count} errors",
            cache_line,
            f"measure requests : {self.stats.measure_requests} "
            f"({self.stats.cache_hits} memo hits, "
            f"{self.stats.persistent_hits} persistent hits)",
        ]
        if self.retries or self.timeouts or self.worker_restarts:
            lines.append(
                f"fault recovery   : {self.retries} retries, "
                f"{self.timeouts} timeouts, "
                f"{self.worker_restarts} worker restarts"
            )
        if self.quarantined_rows:
            lines.append(f"quarantined rows : {self.quarantined_rows}")
        if self.corrupt_result_lines:
            lines.append(
                f"corrupt results  : {self.corrupt_result_lines} unparseable "
                "line(s) in the existing output file"
            )
        lines.append(f"wall time        : {self.elapsed_seconds:.2f} s")
        return "\n".join(lines)


def _safe_key(spec: JobSpec, warned: Optional[Set[int]] = None) -> Optional[str]:
    """``spec.key()``, or ``None`` -- logged once per spec per batch, so an
    unkeyable job (which can never be cached or resumed) is diagnosable."""
    try:
        return spec.key()
    except Exception as exc:
        if warned is not None and id(spec) not in warned:
            warned.add(id(spec))
            _LOGGER.warning(
                "job spec %r has no stable key (it will not be cached or "
                "resumable): %s: %s",
                spec,
                type(exc).__name__,
                exc,
            )
        return None


def _merge_stats(total: PerfStats, delta: Optional[Dict[str, int]]) -> None:
    if not delta:
        return
    addition = PerfStats()
    for name, value in delta.items():
        if hasattr(addition, name) and isinstance(value, int):
            setattr(addition, name, value)
    total.merge(addition)


# -- worker-process plumbing --------------------------------------------------

_WORKER_ENGINE: Optional[MeasureEngine] = None


def _worker_init(
    measure_entries: Dict[str, list], sweep_entries: Dict[str, list]
) -> None:
    """Build this worker's engine, pre-seeded from the persistent cache."""
    global _WORKER_ENGINE
    telemetry.init_worker_from_env()
    _WORKER_ENGINE = MeasureEngine()
    if measure_entries:
        _WORKER_ENGINE.import_cache_entries(measure_entries)
    if sweep_entries:
        _WORKER_ENGINE.import_sweep_entries(sweep_entries)


def _worker_run(indexed_spec):
    """Run one job in a worker; ship back the new measure and sweep entries
    plus the persistent keys the job was answered from (GC touch stamps)."""
    index, spec = indexed_spec
    telemetry.emit(
        "job-started", job=index, program=spec.program, analysis=spec.analysis
    )
    plan = active_plan()
    if plan is not None:  # fault injection: die or hang before the job runs
        plan.on_job_start(index)
    engine = _WORKER_ENGINE or MeasureEngine()
    result = run_job(spec, engine)
    return (
        index,
        result,
        engine.export_cache_entries(),
        engine.export_sweep_entries(),
        engine.drain_persistent_hit_keys(),
    )


# -- the scheduler -------------------------------------------------------------


def run_batch(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    cache=None,
    engine: Optional[MeasureEngine] = None,
    progress: Optional[ProgressCallback] = None,
    job_timeout: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    config=None,
) -> BatchReport:
    """Execute ``specs`` and return their results in submission order.

    ``cache`` is the persistent store
    (:class:`~repro.batch.store_sqlite.SqliteStore`), or ``None``.

    ``config`` (a :class:`repro.config.ReproConfig`) is the consolidated
    way to parameterize a batch: any of ``jobs``/``cache``/``job_timeout``/
    ``retry_policy`` left at its default is filled from the config, so the
    CLI and the daemon hand the runner one object instead of re-deriving
    each knob.  Explicitly passed arguments always win.

    ``job_timeout`` (seconds of wall clock per job) and ``retry_policy``
    are enforced by the supervised pool; setting a timeout therefore forces
    pool execution even for ``jobs=1``, since an inline job cannot be
    interrupted.  An explicitly configured non-default engine always runs
    inline (see below) and is outside the supervisor's reach.
    """
    if config is not None:
        if jobs == 1:
            jobs = config.effective_jobs(default=1)
        if cache is None:
            cache = config.open_store()
        if job_timeout is None:
            job_timeout = config.job_timeout
        if retry_policy is None:
            retry_policy = config.retry_policy()
    started = time.perf_counter()
    specs = list(specs)
    total = len(specs)
    results: List[Optional[JobResult]] = [None] * total
    completed = 0
    hits = 0
    warned_keys: Set[int] = set()
    base_quarantined = cache.quarantine_count if cache is not None else 0

    def note(result: JobResult) -> None:
        nonlocal completed
        completed += 1
        telemetry.emit(
            "job-completed",
            program=result.spec.program,
            analysis=result.spec.analysis,
            status=result.status,
            cached=result.cached,
            elapsed_ms=round(result.elapsed_ms, 3),
        )
        if progress is not None:
            progress(result, completed, total)

    # Cached job results were computed under the default engine options, so
    # an explicitly configured engine (a sweep budget, ``--contract``, ...)
    # must not replay them -- its own answers can differ -- and must
    # run inline: pool workers build default engines and would silently
    # compute default-option results.  The measure/sweep stores stay shared
    # either way; their persistent keys carry the options.
    job_cache = cache
    forced_inline = engine is not None and engine.options != MeasureOptions()
    if forced_inline:
        job_cache = None
        jobs = 1

    # Answer whatever the job cache already knows, in order.
    pending: List[int] = []
    for index, spec in enumerate(specs):
        cached = None
        if job_cache is not None:
            key = _safe_key(spec, warned_keys)
            cached = job_cache.load_job(key) if key else None
        if cached is not None:
            results[index] = cached
            hits += 1
            note(cached)
        else:
            telemetry.emit(
                "job-scheduled",
                job=index,
                program=spec.program,
                analysis=spec.analysis,
            )
            pending.append(index)

    merged_stats = PerfStats()
    if pending:
        inline = forced_inline or (
            job_timeout is None and (jobs <= 1 or len(pending) == 1)
        )
        if inline:
            _run_inline(specs, pending, cache, job_cache, engine, results, note)
            supervisor = _SupervisorCounters()
        else:
            supervisor = _run_pool(
                specs,
                pending,
                jobs,
                cache,
                job_cache,
                results,
                note,
                warned_keys,
                job_timeout,
                retry_policy,
            )
    else:
        supervisor = _SupervisorCounters()
    for result in results:
        if result is not None and not result.cached:
            _merge_stats(merged_stats, result.stats)

    quarantined = (
        cache.quarantine_count - base_quarantined if cache is not None else 0
    )
    merged_stats.retries += supervisor.retries
    merged_stats.timeouts += supervisor.timeouts
    merged_stats.worker_restarts += supervisor.worker_restarts
    merged_stats.quarantined_rows += quarantined
    if engine is not None and quarantined:
        # Inline runs report the caller's engine stats; keep them in step.
        engine.stats.quarantined_rows += quarantined

    elapsed = time.perf_counter() - started
    return BatchReport(
        results=[result for result in results if result is not None],
        elapsed_seconds=elapsed,
        cache_hits=hits,
        cache_misses=len(pending),
        stats=merged_stats,
        cache_enabled=cache is not None,
        retries=supervisor.retries,
        timeouts=supervisor.timeouts,
        worker_restarts=supervisor.worker_restarts,
        quarantined_rows=quarantined,
    )


def _run_inline(
    specs: Sequence[JobSpec],
    pending: Sequence[int],
    cache,
    job_cache,
    engine: Optional[MeasureEngine],
    results: List[Optional[JobResult]],
    note: Callable[[JobResult], None],
) -> None:
    engine = engine or MeasureEngine()
    if cache is not None:
        engine.import_cache_entries(cache.load_measures(engine))
        engine.import_sweep_entries(cache.load_sweeps(engine))
    for index in pending:
        result = run_job(specs[index], engine)
        results[index] = result
        if job_cache is not None:
            job_cache.store_job(result)
        note(result)
    if cache is not None:
        run = cache.begin_run()
        touched_measures, touched_sweeps = engine.drain_persistent_hit_keys()
        cache.merge_measures(
            engine, engine.export_cache_entries(), run=run, touched_keys=touched_measures
        )
        cache.merge_sweeps(
            engine, engine.export_sweep_entries(), run=run, touched_keys=touched_sweeps
        )


def _schedule_order(specs: Sequence[JobSpec], pending: Sequence[int]) -> List[int]:
    """Longest-expected-first: big jobs must not start last on a full pool."""
    return sorted(pending, key=lambda index: -specs[index].cost_hint)


@dataclass
class _SupervisorCounters:
    """What the supervised pool had to do beyond plain scheduling."""

    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0


def _classify_failure(exc: BaseException) -> str:
    """Map a pool-level future exception onto a structured ``error_kind``.

    Job-code exceptions never reach here -- :func:`run_job` converts them to
    error *results* inside the worker -- so a raising future means the
    machinery failed: the worker died, the OS refused something, or the
    payload could not cross the process boundary (deterministic, fail fast).
    """
    if isinstance(exc, BrokenProcessPool):
        return "worker-died"
    if isinstance(exc, OSError):
        return "os-error"
    return "job-exception"


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung workers included.

    An executor cannot cancel a running future, so a hung job can only be
    reclaimed by killing its process; terminating every worker is the only
    portable way since the executor does not expose which worker runs what.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    specs: Sequence[JobSpec],
    pending: Sequence[int],
    jobs: int,
    cache,
    job_cache,
    results: List[Optional[JobResult]],
    note: Callable[[JobResult], None],
    warned_keys: Set[int],
    job_timeout: Optional[float],
    retry_policy: Optional[RetryPolicy],
) -> _SupervisorCounters:
    policy = retry_policy or RetryPolicy()
    rng = random.Random(policy.seed)
    counters = _SupervisorCounters()
    probe = MeasureEngine()
    measure_entries = cache.load_measures(probe) if cache is not None else {}
    sweep_entries = cache.load_sweeps(probe) if cache is not None else {}
    collected: Dict[str, list] = {}
    collected_sweeps: Dict[str, list] = {}
    touched_measures: set = set()
    touched_sweeps: set = set()
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    max_workers = min(jobs, len(pending)) or 1

    # Arm tracing for the pool: workers find the supervisor's trace path in
    # the environment (survives fork and spawn alike) and write their own
    # ``<path>.worker-<pid>`` side files, folded back in deterministically
    # once the pool is done.
    trace_writer = telemetry.active()
    trace_base = str(trace_writer.path) if trace_writer is not None else None
    previous_trace_env = os.environ.get(telemetry.ENV_VAR)
    if trace_base is not None:
        os.environ[telemetry.ENV_VAR] = trace_base

    def make_pool() -> ProcessPoolExecutor:
        # Rebuilt pools are seeded with everything collected so far, so work
        # finished before a crash is never recomputed by its replacement.
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(
                {**measure_entries, **collected},
                {**sweep_entries, **collected_sweeps},
            ),
        )

    def consume(payload) -> None:
        index, result, new_entries, new_sweeps, hit_keys = payload
        collected.update(new_entries)
        collected_sweeps.update(new_sweeps)
        touched_measures.update(hit_keys[0])
        touched_sweeps.update(hit_keys[1])
        results[index] = result
        if job_cache is not None:
            job_cache.store_job(result)
        note(result)

    def finalize_error(index: int, kind: str, message: str) -> None:
        result = JobResult(
            spec=specs[index],
            key=_safe_key(specs[index], warned_keys) or f"unkeyed-{index}",
            status="error",
            payload=None,
            error=message,
            error_kind=kind,
        )
        results[index] = result
        note(result)

    def fail(index: int, attempts: int, kind: str, message: str) -> int:
        """Handle one failed attempt: schedule a retry or finalize.  Returns
        the attempt count now charged to the job."""
        attempts += 1
        if kind in _TRANSIENT_KINDS and attempts <= policy.max_retries:
            counters.retries += 1
            delay = policy.delay(attempts, rng)
            telemetry.emit(
                "job-retried",
                job=index,
                attempts=attempts,
                kind=kind,
                delay=round(delay, 4),
            )
            ready = time.monotonic() + delay
            heapq.heappush(retry_heap, (ready, index, attempts))
        else:
            finalize_error(index, kind, message)
        return attempts

    # (index, attempts) for jobs ready to submit; the retry heap holds
    # (ready-time, index, attempts) for jobs waiting out their backoff.
    queue = deque((index, 0) for index in _schedule_order(specs, pending))
    retry_heap: List[tuple] = []
    in_flight: Dict[object, tuple] = {}  # future -> (index, attempts, deadline)

    pool = make_pool()
    try:
        while queue or retry_heap or in_flight:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, index, attempts = heapq.heappop(retry_heap)
                queue.append((index, attempts))
            # Submissions are bounded by the worker count so a submitted job
            # starts (near-)immediately -- its deadline measures the job, not
            # its time in the executor's internal queue.
            while queue and len(in_flight) < max_workers:
                index, attempts = queue.popleft()
                deadline = now + job_timeout if job_timeout is not None else None
                future = pool.submit(_worker_run, (index, specs[index]))
                in_flight[future] = (index, attempts, deadline)
            if not in_flight:
                if retry_heap:  # everything alive is waiting out a backoff
                    pause = retry_heap[0][0] - time.monotonic()
                    if pause > 0:
                        time.sleep(min(pause, _SUPERVISOR_TICK_SECONDS))
                continue

            done, _ = wait(
                set(in_flight),
                timeout=_SUPERVISOR_TICK_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            pool_broken = False
            for future in done:
                index, attempts, _deadline = in_flight.pop(future)
                try:
                    consume(future.result())
                except BaseException as exc:
                    kind = _classify_failure(exc)
                    pool_broken = pool_broken or isinstance(exc, BrokenProcessPool)
                    fail(index, attempts, kind, f"{type(exc).__name__}: {exc}")

            if pool_broken:
                # A dead worker poisons the whole executor: every remaining
                # in-flight future fails with the same BrokenProcessPool.
                for future, (index, attempts, _deadline) in list(in_flight.items()):
                    del in_flight[future]
                    try:
                        consume(future.result())
                    except BaseException as exc:
                        fail(
                            index,
                            attempts,
                            _classify_failure(exc),
                            f"{type(exc).__name__}: {exc}",
                        )
                counters.worker_restarts += 1
                telemetry.emit("worker-restart", reason="worker-died")
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                continue

            if job_timeout is None:
                continue
            now = time.monotonic()
            timed_out = {
                future
                for future, (_index, _attempts, deadline) in in_flight.items()
                if deadline is not None and now > deadline and not future.done()
            }
            if not timed_out:
                continue
            # A running future cannot be cancelled: reclaim the hung worker
            # by replacing the pool.  The overdue job is charged an attempt;
            # its innocent neighbours become orphans and are resubmitted
            # without one.
            counters.timeouts += len(timed_out)
            for future in timed_out:
                telemetry.emit(
                    "job-timeout", job=in_flight[future][0], budget=job_timeout
                )
            counters.worker_restarts += 1
            telemetry.emit("worker-restart", reason="hung-job")
            _terminate_pool(pool)
            for future, (index, attempts, _deadline) in list(in_flight.items()):
                del in_flight[future]
                if future in timed_out:
                    fail(
                        index,
                        attempts,
                        "timeout",
                        f"job exceeded its {job_timeout:g}s wall-clock budget",
                    )
                elif future.done():
                    try:
                        consume(future.result())
                    except (BrokenProcessPool, CancelledError):
                        # A casualty of the pool we just killed, not a fault
                        # of its own: orphans are resubmitted at no attempt
                        # cost.
                        queue.append((index, attempts))
                    except BaseException as exc:
                        fail(
                            index,
                            attempts,
                            _classify_failure(exc),
                            f"{type(exc).__name__}: {exc}",
                        )
                else:
                    queue.append((index, attempts))
            pool = make_pool()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        if trace_base is not None:
            if previous_trace_env is None:
                os.environ.pop(telemetry.ENV_VAR, None)
            else:
                os.environ[telemetry.ENV_VAR] = previous_trace_env
            telemetry.merge_worker_traces(trace_base)

    if counters.retries or counters.worker_restarts:
        _LOGGER.warning(
            "batch recovered from faults: %d retries, %d timeouts, "
            "%d worker restarts",
            counters.retries,
            counters.timeouts,
            counters.worker_restarts,
        )
    if cache is not None:
        run = cache.begin_run()
        cache.merge_measures(probe, collected, run=run, touched_keys=touched_measures)
        cache.merge_sweeps(probe, collected_sweeps, run=run, touched_keys=touched_sweeps)
    return counters


# -- JSONL output --------------------------------------------------------------


def write_results_jsonl(
    path: Union[str, Path], results: Iterable[JobResult], append: bool = False
) -> None:
    """Write the deterministic result lines (same batch => same bytes).

    Overwrite mode stages the lines in a temp file and :func:`os.replace`\\ s
    it into place -- the same torn-file policy as the cache -- so a crash
    mid-write can never destroy the previous results file.  Append mode
    (``--resume``) necessarily writes in place.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if append:
        with open(path, "a") as stream:
            for result in results:
                stream.write(result.to_json_line() + "\n")
        return
    handle, temp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            for result in results:
                stream.write(result.to_json_line() + "\n")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


@dataclass
class ResultScan:
    """What one pass over a results JSONL file found."""

    ok_keys: Set[str] = field(default_factory=set)
    error_keys: Set[str] = field(default_factory=set)
    corrupt_lines: int = 0
    total_lines: int = 0


def scan_results_jsonl(path: Union[str, Path]) -> ResultScan:
    """Classify every line of a results file: ok, error, or corrupt.

    ``--resume`` treats only :attr:`ResultScan.ok_keys` as done (failed jobs
    must be retried: their failure may have been environmental -- the same
    policy as :meth:`SqliteStore.store_job`), but corrupt lines are *counted*
    rather than silently dropped, so a torn results file is visible to the
    operator instead of quietly re-running work.
    """
    scan = ResultScan()
    try:
        with open(path, "r") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                scan.total_lines += 1
                try:
                    record = json.loads(line)
                except ValueError:
                    scan.corrupt_lines += 1
                    continue
                if not isinstance(record, dict):
                    scan.corrupt_lines += 1
                    continue
                key = record.get("key")
                if not isinstance(key, str):
                    scan.corrupt_lines += 1
                    continue
                if record.get("status") == "ok":
                    scan.ok_keys.add(key)
                else:
                    scan.error_keys.add(key)
    except OSError:
        return scan
    if scan.corrupt_lines:
        telemetry.emit(
            "warning",
            code="corrupt-results-line",
            count=scan.corrupt_lines,
            path=str(path),
        )
    return scan


def read_result_keys(path: Union[str, Path]) -> Set[str]:
    """The keys of *successful* jobs in a results file (see
    :func:`scan_results_jsonl` for the full accounting)."""
    return scan_results_jsonl(path).ok_keys

"""Parallel analysis batches with a persistent cross-process cache.

The paper's evaluation is a batch of (program x analysis x parameters) runs;
this subsystem makes that batch a first-class object:

* :mod:`repro.batch.jobs`   -- ``JobSpec`` / ``JobResult`` with deterministic
  content-hash keys and JSON-safe payloads,
* :mod:`repro.batch.runner` -- the scheduler (``--jobs N`` worker processes,
  per-job failure tolerance, submission-order JSONL output),
* :mod:`repro.batch.store_sqlite` -- the persistent store: one WAL SQLite
  database per ``--cache-dir`` holding finished job results and
  measure-engine entries shared across processes and sessions, in
  checksummed rows (damaged rows are quarantined, merges are transactions,
  GC is one indexed delete); :func:`~repro.batch.store_sqlite.open_store`
  opens it,
* :mod:`repro.batch.frontiers` -- persisted anytime schedules: one
  program's exploration frontier is saved to the store after every depth,
  so a rerun or a crashed run resumes it with per-depth results
  byte-identical to an uninterrupted run,
* :mod:`repro.batch.faults` -- deterministic fault injection (worker kills,
  hangs, torn writes, bit flips) driving the fault-tolerance test suite,
* :mod:`repro.batch.doctor` -- the read-only store health checks behind
  ``python -m repro doctor``,
* :mod:`repro.batch.suites` -- named suites mirroring Table 1 / Table 2 /
  the classification extension, and job-file loading.

The CLI surface is ``python -m repro batch`` (see :mod:`repro.cli`);
``table1``/``table2``/``report`` delegate to the same runner.
"""

from repro.batch.frontiers import (
    PersistedScheduleReport,
    frontier_key,
    run_persisted_schedule,
)
from repro.batch.doctor import DoctorReport, Finding, diagnose
from repro.batch.faults import Fault, FaultPlan
from repro.batch.jobs import ANALYSES, JobResult, JobSpec, run_job
from repro.batch.store_sqlite import SqliteStore, open_store
from repro.batch.runner import (
    BatchReport,
    ResultScan,
    RetryPolicy,
    read_result_keys,
    run_batch,
    scan_results_jsonl,
    write_results_jsonl,
)
from repro.batch.suites import (
    SUITE_NAMES,
    classify_suite,
    load_job_file,
    suite,
    table1_suite,
    table2_suite,
)

__all__ = [
    "ANALYSES",
    "BatchReport",
    "DoctorReport",
    "Fault",
    "FaultPlan",
    "Finding",
    "JobResult",
    "JobSpec",
    "PersistedScheduleReport",
    "ResultScan",
    "RetryPolicy",
    "SUITE_NAMES",
    "SqliteStore",
    "classify_suite",
    "diagnose",
    "frontier_key",
    "load_job_file",
    "open_store",
    "read_result_keys",
    "run_batch",
    "run_job",
    "run_persisted_schedule",
    "scan_results_jsonl",
    "suite",
    "table1_suite",
    "table2_suite",
    "write_results_jsonl",
]

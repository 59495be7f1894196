"""Perf benchmark for the batch runner and its persistent cross-process cache.

Two gates, both over the table1 + table2 suite:

* **parallel speedup** -- the same cold suite at ``jobs=1`` (inline, one
  shared engine) vs ``jobs=min(4, cores)`` worker processes.  On machines
  with >= 2 cores the parallel run must be at least 1.5x faster; on a single
  core the parallel run is skipped outright and no speedup is recorded
  (``benchmarks/compare_bench.py`` likewise skips the ratio), because a
  1-core "speedup" would only measure scheduling noise.
* **warm cache** -- the suite against an empty cache directory (cold) and
  again over the same directory (warm).  The warm run must replay every job
  from the cache, take at most half the cold wall-clock, and produce
  byte-identical result lines.

Wall-clock numbers and the ratios are written to ``BENCH_batch.json`` at the
repository root (run with ``-s`` to see the table).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.batch import open_store, run_batch, table1_suite, table2_suite

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"
_PARALLEL_SPEEDUP_FLOOR = 1.5
_WARM_RATIO_CEILING = 0.5


def _suite(depth: int):
    return table1_suite(depth=depth) + table2_suite()


def _timed_run(specs, jobs, cache=None, repeats=1):
    """Best-of-``repeats`` wall-clock (noise on shared CI runners is one-sided:
    interference only ever slows a run down, so the minimum is the fairest
    comparison).  Cached runs must use ``repeats=1`` -- a second pass would
    hit the cache the first one populated."""
    best_elapsed, best_report = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_batch(specs, jobs=jobs, cache=cache)
        elapsed = time.perf_counter() - started
        assert all(result.ok for result in report.results)
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_report = elapsed, report
    return best_elapsed, best_report


def _lines(report):
    return [result.to_json_line() for result in report.results]


def test_parallel_speedup_and_warm_cache():
    # Depth 50 is the paper's Table 1 depth and the sweet spot for the
    # speedup gate: deeper, and the `pedestrian` row alone dominates the
    # suite (its path count grows super-linearly), capping the achievable
    # parallel speedup near the floor.
    depth = 50
    specs = _suite(depth)
    cores = os.cpu_count() or 1
    parallel_jobs = min(4, cores)

    # -- cold serial vs cold parallel (both uncached, best of 2) -------------
    serial_seconds, serial_report = _timed_run(specs, jobs=1, repeats=2)
    parallel_seconds = speedup = None
    if cores >= 2:
        parallel_seconds, parallel_report = _timed_run(
            specs, jobs=parallel_jobs, repeats=2
        )
        assert _lines(serial_report) == _lines(parallel_report)
        speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")

    # -- cold vs warm over one persistent cache directory --------------------
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-batch-bench-"))
    try:
        cold_seconds, cold_report = _timed_run(specs, jobs=1, cache=open_store(cache_dir))
        warm_seconds, warm_report = _timed_run(specs, jobs=1, cache=open_store(cache_dir))
        assert _lines(cold_report) == _lines(warm_report)
        assert warm_report.cache_hits == len(specs)
        warm_ratio = warm_seconds / cold_seconds if cold_seconds else 0.0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    payload = {
        "suite": "table1+table2",
        "depth": depth,
        "job_count": len(specs),
        "cpu_count": cores,
        "parallel_jobs": parallel_jobs,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_speedup_floor": _PARALLEL_SPEEDUP_FLOOR,
        "parallel_gate_enforced": cores >= 2,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_ratio": round(warm_ratio, 4),
        "warm_ratio_ceiling": _WARM_RATIO_CEILING,
        "warm_job_cache_hits": warm_report.cache_hits,
    }
    if speedup is not None:
        payload["parallel_seconds"] = round(parallel_seconds, 4)
        payload["parallel_speedup"] = round(speedup, 3)
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"batch suite        : {len(specs)} jobs (depth {depth}, {cores} cores)")
    print(f"serial   (jobs=1)  : {serial_seconds:8.2f} s")
    if speedup is not None:
        print(f"parallel (jobs={parallel_jobs})  : {parallel_seconds:8.2f} s   "
              f"speedup {speedup:4.2f}x")
    else:
        print(f"parallel           : skipped ({cores} core, nothing to fan out over)")
    print(f"cold cache         : {cold_seconds:8.2f} s")
    print(f"warm cache         : {warm_seconds:8.2f} s   ratio {warm_ratio:4.2f}")

    assert warm_ratio <= _WARM_RATIO_CEILING, (
        f"warm cache run took {warm_ratio:.2f}x of the cold run "
        f"(ceiling {_WARM_RATIO_CEILING})"
    )
    if speedup is not None:
        assert speedup >= _PARALLEL_SPEEDUP_FLOOR, (
            f"parallel speedup {speedup:.2f}x below the "
            f"{_PARALLEL_SPEEDUP_FLOOR}x floor on {cores} cores"
        )

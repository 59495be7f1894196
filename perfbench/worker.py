"""Child-process side of the benchmark: one fresh interpreter per round.

``run.py`` starts this script with the repository's ``src`` on the path::

    python3 perfbench/worker.py probe       --store DIR --out FILE
    python3 perfbench/worker.py paper-cold  --store DIR --out FILE --estimate-seed N [--trace]
    python3 perfbench/worker.py sweep-deep  --store DIR --out FILE [--trace]
    python3 perfbench/worker.py prefill     --store DIR --out FILE
    python3 perfbench/worker.py serve       --store DIR --socket PATH --snapshots PREFIX

Every mode first does the set-up a CLI user pays on each run -- interpreter
start, ``import repro.cli``, the program library and job list, the measure
engine(s) and an empty SQLite store -- and records ``time.monotonic()`` when
it is ready (the parent subtracts its own spawn time).  Untraced rounds then
time the host-speed loop (``hostspeed.py``) once after set-up and once after
each job, outside the job times, so the parent can scale every job by the
host's speed around it.  ``scipy.optimize`` /
``scipy.spatial`` are *not* imported here: the program imports them lazily in
the first exact polytope measure, so that cost lands in the measured phase,
as it does for users.  The result goes to ``--out`` as one JSON document.

``serve`` is the traced daemon launcher: it installs the tracer, then runs
``repro.service.daemon.serve``; each ``SIGUSR1`` writes a snapshot of the
span totals to ``PREFIX.<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, document: dict) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w") as stream:
        json.dump(document, stream)
    os.replace(temporary, path)


def _common_setup(store_dir: str):
    import repro.cli  # noqa: F401 -- the CLI entry point every user run imports
    from repro.batch.store_sqlite import open_store

    return open_store(store_dir, backend="sqlite")


class Clock:
    """The time of each job of the measured phase, excluding the calibrations.

    A job's time runs from the end of the previous job (or the start) to the
    progress callback that reports it.  When ``calibrating``, the host-speed
    loop is timed at the start and after each job.
    """

    def __init__(self, calibrating: bool) -> None:
        self.calibrating = calibrating
        self.durations = []
        self.calibrations = [hostspeed.calibrate()] if calibrating else []
        self.mark = time.perf_counter()

    def job_done(self, *_progress) -> None:
        self.durations.append(time.perf_counter() - self.mark)
        if self.calibrating:
            self.calibrations.append(hostspeed.calibrate())
        self.mark = time.perf_counter()

    def finish(self) -> None:
        """Count what the runner does after the last callback into the last job."""
        self.durations[-1] += time.perf_counter() - self.mark

    def document(self) -> dict:
        return {"durations_s": self.durations, "calibrations_s": self.calibrations}


def _start_tracer(enabled: bool):
    if not enabled:
        return None
    import tracer as tracing

    active = tracing.Tracer()
    tracing.install(active)
    return active


def _paper_cold(arguments) -> dict:
    store = _common_setup(arguments.store)
    from repro.batch.jobs import JobSpec
    from repro.batch.runner import run_batch
    from repro.batch.suites import suite
    from repro.geometry.engine import MeasureEngine

    specs = suite("all", depth=50) + [
        JobSpec.from_dict(job)
        for job in workloads.paper_cold_extra_jobs(arguments.estimate_seed)
    ]
    engine = MeasureEngine()
    ready = time.monotonic()
    active = _start_tracer(arguments.trace)
    clock = Clock(calibrating=not arguments.trace)
    report = run_batch(specs, jobs=1, cache=store, engine=engine, progress=clock.job_done)
    clock.finish()
    store.close()
    return {
        "ready": ready,
        **clock.document(),
        "results": [[None, result.deterministic_dict()] for result in report.results],
        "stats": engine.stats.as_dict(),
        "peak_rss_mb": _peak_rss_mb(),
        "trace": active.snapshot() if active else None,
    }


def _sweep_deep(arguments) -> dict:
    store = _common_setup(arguments.store)
    from repro.batch.jobs import JobSpec
    from repro.batch.runner import run_batch
    from repro.config import ReproConfig
    from repro.geometry.stats import PerfStats

    specs = [JobSpec.from_dict(job) for job in workloads.sweep_jobs()]
    engines = {
        budget: ReproConfig(sweep_depth=budget).measure_engine()
        for budget in workloads.SWEEP_BUDGETS
    }
    ready = time.monotonic()
    active = _start_tracer(arguments.trace)
    clock = Clock(calibrating=not arguments.trace)
    results = []
    for budget in workloads.SWEEP_BUDGETS:
        # One `lower-bound --sweep-depth BUDGET --cache-dir` run per program.
        report = run_batch(specs, jobs=1, cache=store, engine=engines[budget], progress=clock.job_done)
        results += [[f"sweep{budget}", result.deterministic_dict()] for result in report.results]
    clock.finish()
    store.close()
    stats = PerfStats()
    for engine in engines.values():
        stats.merge(engine.stats)
    return {
        "ready": ready,
        **clock.document(),
        "results": results,
        "stats": stats.as_dict(),
        "peak_rss_mb": _peak_rss_mb(),
        "trace": active.snapshot() if active else None,
    }


def _prefill(arguments) -> dict:
    store = _common_setup(arguments.store)
    from repro.batch.runner import run_batch
    from repro.batch.suites import suite

    report = run_batch(suite("all", depth=50), jobs=1, cache=store)
    store.close()
    return {"results": [[None, result.deterministic_dict()] for result in report.results]}


def _probe(arguments) -> dict:
    store = _common_setup(arguments.store)
    from repro.batch.suites import suite
    from repro.geometry.engine import MeasureEngine

    suite("all", depth=50)
    MeasureEngine()
    ready = time.monotonic()
    calibration = hostspeed.calibrate()
    store.close()
    return {"ready": ready, "calibrations_s": [calibration]}


def _serve(arguments) -> None:
    import asyncio
    import json as json_module
    import signal
    import types

    import tracer as tracing
    from repro.config import ReproConfig
    from repro.service import daemon as daemon_module

    active = tracing.Tracer()
    tracing.install(active)
    # The daemon's own JSON-lines framing is service work too.
    daemon_module.json = types.SimpleNamespace(
        loads=tracing.traced_function(active, json_module.loads, "service.json"),
        dumps=tracing.traced_function(active, json_module.dumps, "service.json"),
    )
    snapshots = [0]

    def dump() -> None:
        snapshots[0] += 1
        _write(f"{arguments.snapshots}.{snapshots[0]}.json", active.snapshot())

    async def main() -> None:
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, dump)
        await daemon_module.serve(
            arguments.socket,
            config=ReproConfig(cache_dir=arguments.store, store_backend="sqlite"),
        )

    asyncio.run(main())


MODES = {
    "probe": _probe,
    "paper-cold": _paper_cold,
    "sweep-deep": _sweep_deep,
    "prefill": _prefill,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES) + ["serve"])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out")
    parser.add_argument("--estimate-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--socket")
    parser.add_argument("--snapshots")
    arguments = parser.parse_args(argv)
    if arguments.mode == "serve":
        _serve(arguments)
        return 0
    _write(arguments.out, MODES[arguments.mode](arguments))
    return 0


if __name__ == "__main__":
    sys.exit(main())

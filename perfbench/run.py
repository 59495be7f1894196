"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 55 --trace 0

Workloads (see ``BENCHMARK.json`` and ``README.md`` beside this file):

* ``paper-cold`` -- one fresh interpreter with an empty SQLite store runs
  suite ``all`` (Table 1 at depth 50, Table 2, classify), two anytime
  schedules and a seeded Monte Carlo estimate inline; bound by stepping.
* ``sweep-deep`` -- the non-affine retry loops and ``sig-branch(3/5)`` at
  depth 40, deepened over sweep budgets 18, 22, 26, 28 against one store;
  bound by the certified sweep.  Run by hand; ``BENCHMARK.json`` does not
  list it, since its speed follows the shared host too closely to gate on.
* ``serve-warm`` -- ``repro serve`` on a store prefilled with suite ``all``,
  driven by a seeded closed loop on two connections; bound by the service
  and store reads.

Each round runs in a fresh interpreter with fresh state (a new empty store,
or a copy of the pristine prefilled store for each daemon); a run measures as
many whole rounds as fit into ``--seconds`` (at least one, and at least seven
daemons for serve-warm).  ``--trace 0`` prints the end-to-end
metrics, every time scaled to the host speed measured around it
(``hostspeed.py``); ``--trace 1`` runs one untraced and one traced round and
prints the per-layer metrics, in unscaled seconds.  Every output is checked
(``checks.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable detail goes to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

WORKLOADS = ("paper-cold", "sweep-deep", "serve-warm")
TIME_LIMIT_S = 170.0
"""Every child is killed past this point of the run, so the run ends in time."""
SETUP_SAMPLES = 7
"""``setup_s`` is the median of at least this many fresh starts."""


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong analysis result)."""


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


@dataclass
class Run:
    """What one benchmark invocation measured (times scaled to the host speed)."""

    walls: List[float] = field(default_factory=list)
    raw_walls: List[float] = field(default_factory=list)
    """The same walls, unscaled."""
    setups: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    """The latency of every operation of every round."""
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, Tuple[float, str]]] = None

    def op(self, latency_s: float, problems: List[str]) -> None:
        self.attempted += 1
        self.latencies.append(latency_s)
        if problems:
            self.failed += 1
            self.problems += problems

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        return {
            "wall_s": (statistics.median(self.walls), "s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (statistics.median(self.rss_mb), "MB"),
            "success_rate": ((self.attempted - self.failed) / self.attempted, "ratio"),
            "latency_p50_ms": (percentile(self.latencies, 0.50) * 1000, "ms"),
            "latency_p95_ms": (percentile(self.latencies, 0.95) * 1000, "ms"),
        }


class Window:
    """The measuring window: whole rounds that fit into ``--seconds``.

    Another round starts only if one more round as long as the last one
    still ends inside the window, so the number of rounds (and the run's
    length) does not jump when a round takes a little less than the window.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = self.last = time.monotonic()

    def another_round(self) -> bool:
        now = time.monotonic()
        fits = (now - self.started) + (now - self.last) <= self.seconds
        self.last = now
        return fits


class Bench:
    """Child processes and scratch state of one invocation, inside the checkout."""

    def __init__(self, state: Path, started: float) -> None:
        self.state = state
        self.deadline = started + TIME_LIMIT_S
        self.counter = 0
        self.env = dict(os.environ)
        path = [str(ROOT / "src"), str(BENCH)]
        if self.env.get("PYTHONPATH"):
            path.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["TMPDIR"] = self.env["SQLITE_TMPDIR"] = str(state)
        self.digests = checks.load_digests()
        # Everything runs on one CPU, so that the calibrations made in this
        # process or the worker measure the CPU the analysis runs on: this
        # process (the load generator too) and the worker or daemon.
        hostspeed.pin_to_one_cpu()

    def fresh(self, name: str) -> str:
        """A new path under the state directory, relative to the checkout."""
        self.counter += 1
        return os.path.relpath(self.state / f"{name}{self.counter}", ROOT)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, mode: str, store: str, *extra: str) -> Tuple[float, dict]:
        """Run ``worker.py MODE`` to completion; (spawn time, its JSON output)."""
        out = self.fresh(f"{mode}-out") + ".json"
        log = self.fresh(f"{mode}-log") + ".txt"
        command = [sys.executable, str(BENCH / "worker.py"), mode, "--store", store, "--out", out]
        with open(log, "w") as stderr:
            spawned = time.monotonic()
            try:
                completed = subprocess.run(
                    command + list(extra),
                    cwd=ROOT,
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    timeout=self.remaining(),
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {mode} ran out of time")
        if completed.returncode != 0:
            with open(log) as stream:
                tail = stream.read()[-2000:]
            raise BenchError(f"worker {mode} exited with {completed.returncode}:\n{tail}")
        with open(out) as stream:
            return spawned, json.load(stream)


# -- batch workloads -------------------------------------------------------------


def _setup_s(spawned: float, document: dict) -> float:
    """Spawn to ready, scaled by the calibration the worker made right after."""
    setup = document["ready"] - spawned
    calibrations = document["calibrations_s"]
    return setup * hostspeed.factor(calibrations[0], calibrations[0]) if calibrations else setup


def _batch_round(bench: Bench, run: Run, mode: str, traced: bool, *extra: str) -> dict:
    spawned, document = bench.child(mode, bench.fresh("store"), *extra, *(["--trace"] if traced else []))
    durations, calibrations = document["durations_s"], document["calibrations_s"]
    scaled = hostspeed.scale(durations, calibrations) if calibrations else durations
    document["raw_wall_s"] = sum(durations)
    run.setups.append(_setup_s(spawned, document))
    run.walls.append(sum(scaled))
    run.raw_walls.append(document["raw_wall_s"])
    run.rss_mb.append(document["peak_rss_mb"])
    jobs = [job for _prefix, job in document["results"]]
    if len(durations) != len(jobs):
        raise BenchError(f"{mode}: {len(jobs)} results but {len(durations)} timings")
    if mode == "paper-cold":
        round_problems = checks.monte_carlo_problems(jobs)
    else:
        round_problems = checks.budget_problems(jobs)
    # Every job is submitted when the batch starts: an operation's latency is
    # the time from the start of the measured phase to its result.
    latencies = itertools.accumulate(scaled)
    for index, ((prefix, job), latency) in enumerate(zip(document["results"], latencies)):
        run.op(latency, checks.job_problems(job, bench.digests, prefix) + round_problems.get(index, []))
    return document


def batch_workload(bench: Bench, mode: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    extra = ["--estimate-seed", str(workloads.estimate_seed(seed))] if mode == "paper-cold" else []
    if trace:
        plain = _batch_round(bench, run, mode, False, *extra)
        traced = _batch_round(bench, run, mode, True, *extra)
        run.layers = layer_metrics(
            traced["trace"], traced["stats"], traced["raw_wall_s"], plain["raw_wall_s"], service=None
        )
        return run
    window = Window(seconds)
    while True:
        _batch_round(bench, run, mode, False, *extra)
        if not window.another_round():
            break
    while len(run.setups) < SETUP_SAMPLES:
        spawned, document = bench.child("probe", bench.fresh("store"))
        run.setups.append(_setup_s(spawned, document))
    return run


# -- serve-warm ------------------------------------------------------------------


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def _wait_ready(bench: Bench, process: subprocess.Popen, path: str) -> float:
    while True:
        if process.poll() is not None:
            raise BenchError(f"daemon exited with {process.returncode} before answering")
        try:
            client = ServiceClient(path, timeout=bench.remaining())
        except OSError:
            time.sleep(0.005)
            continue
        with client:
            client.call("ping")
        return time.monotonic()


def _wait_snapshot(bench: Bench, process: subprocess.Popen, path: str) -> Dict[str, list]:
    process.send_signal(signal.SIGUSR1)
    while not os.path.exists(path):
        bench.remaining()
        time.sleep(0.002)
    with open(path) as stream:
        return json.load(stream)


def _drive(client: ServiceClient, lane: List[Tuple[str, dict]], records: list, errors: list) -> None:
    """Send ``lane`` in order; record (method, params, result or ServiceError, latency)."""
    try:
        for method, params in lane:
            sent = time.perf_counter()
            try:
                reply = client.call(method, params)
            except ServiceError as error:  # an error reply: a failed operation
                reply = error
            records.append((method, params, reply, time.perf_counter() - sent))
    except Exception as error:  # reported by the caller after join
        errors.append(error)


def _lifecycle(bench: Bench, run: Run, snapshot: str, seed: int, index: int, traced: bool) -> dict:
    """One daemon on a copy of the pristine store, from spawn to shutdown.

    Untraced, the host speed is calibrated right before the spawn and right
    after the shutdown, and the lifecycle's times are scaled by it.
    """
    calibrated = None if traced else hostspeed.calibrate()
    live = bench.fresh("live")
    shutil.copytree(snapshot, live)
    path = bench.fresh("daemon") + ".sock"
    spans = bench.fresh("spans")
    if traced:
        command = [sys.executable, str(BENCH / "worker.py"), "serve", "--store", live,
                   "--socket", path, "--snapshots", spans]
    else:
        command = [sys.executable, "-m", "repro", "serve", "--socket", path, "--cache-dir", live]
    log = open(bench.fresh("daemon-log") + ".txt", "w")
    spawned = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=bench.env, stdout=subprocess.DEVNULL, stderr=log)
    clients: List[ServiceClient] = []
    try:
        setup = _wait_ready(bench, process, path) - spawned
        clients = [ServiceClient(path, timeout=bench.remaining()) for _ in range(workloads.CONNECTIONS)]
        before = clients[0].call("stats")
        first = _wait_snapshot(bench, process, spans + ".1.json") if traced else None
        lanes = workloads.serve_mix(seed, index)
        records: List[list] = [[] for _ in lanes]
        errors: list = []
        threads = [
            threading.Thread(target=_drive, args=(client, lane, lane_records, errors))
            for client, lane, lane_records in zip(clients, lanes, records)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(bench.remaining())
            if thread.is_alive():
                raise BenchError("a load connection did not finish in time")
        wall = time.perf_counter() - started
        if errors:
            raise BenchError(f"load connection failed: {errors[0]!r}")
        second = _wait_snapshot(bench, process, spans + ".2.json") if traced else None
        after = clients[0].call("stats")
        run.rss_mb.append(_peak_rss_mb(process.pid))
        clients[0].call("shutdown")
        process.wait(timeout=bench.remaining())
    finally:
        for client in clients:
            client.close()
        if process.poll() is None:
            process.kill()
            process.wait()
        log.close()
    speed = 1.0 if traced else hostspeed.factor(calibrated, hostspeed.calibrate())
    run.setups.append(setup * speed)
    run.walls.append(wall * speed)
    run.raw_walls.append(wall)
    hits, computes = [], []
    for lane_records in records:
        session = []
        for method, params, reply, raw_latency in lane_records:
            latency = raw_latency * speed
            if isinstance(reply, ServiceError):
                run.op(latency, [f"{method} {params}: {reply}"])
            elif "session" in params:
                session.append((latency, reply))
                computes.append(latency)
            else:
                run.op(latency, checks.job_problems(reply["job"], bench.digests))
                (hits if reply["cached"] else computes).append(latency)
        session_checks = checks.session_problems(
            workloads.SESSION_PROGRAM, [response for _latency, response in session], bench.digests
        )
        for (latency, _response), problems in zip(session, session_checks):
            run.op(latency, problems)
    return {
        "raw_wall_s": wall,
        "spans": _span_difference(second, first) if traced else None,
        "before": before,
        "after": after,
        "hits": hits,
        "computes": computes,
    }


def _span_difference(later: Dict[str, list], earlier: Dict[str, list]) -> Dict[str, list]:
    return {
        name: [value - base for value, base in zip(record, earlier.get(name, (0, 0.0, 0.0, 0.0)))]
        for name, record in later.items()
    }


def _service_summary(lifecycle: dict) -> Dict[str, float]:
    before, after = lifecycle["before"]["counters"], lifecycle["after"]["counters"]
    summary = {name: after[name] - before[name] for name in ("requests", "computations", "job_cache_hits", "coalesced")}
    summary["requests"] -= 1  # the closing stats request counts itself
    summary["hit_latency_p50_ms"] = percentile(lifecycle["hits"], 0.5) * 1000 if lifecycle["hits"] else 0.0
    summary["compute_latency_p50_ms"] = (
        percentile(lifecycle["computes"], 0.5) * 1000 if lifecycle["computes"] else 0.0
    )
    return summary


def _engine_difference(lifecycle: dict) -> Dict[str, float]:
    before, after = lifecycle["before"]["engine"], lifecycle["after"]["engine"]
    difference = {name: after[name] - before.get(name, 0) for name in after}
    difference["frontier_peak"] = after["frontier_peak"]
    return difference


def serve_workload(bench: Bench, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    snapshot = bench.fresh("snapshot")
    _spawned, prefill = bench.child("prefill", snapshot)
    for _prefix, job in prefill["results"]:
        problems = checks.job_problems(job, bench.digests)
        if problems:
            raise BenchError(f"prefill produced wrong results: {problems}")
    if trace:
        plain = _lifecycle(bench, run, snapshot, seed, 0, traced=False)
        traced = _lifecycle(bench, run, snapshot, seed, 0, traced=True)
        run.layers = layer_metrics(
            traced["spans"],
            _engine_difference(traced),
            traced["raw_wall_s"],
            plain["raw_wall_s"],
            service=_service_summary(traced),
        )
        return run
    window = Window(seconds)
    index = 0
    while True:
        _lifecycle(bench, run, snapshot, seed, index, traced=False)
        index += 1
        fits = window.another_round()
        if index >= SETUP_SAMPLES and not fits:
            break
    return run


# -- per-layer metrics -------------------------------------------------------------

HIT_PATH_SPANS = (
    "service.dispatch",
    "service.json",
    "service.protocol",
    "service.engine",
    "batch.key",
    "batch.store_read_job",
)
LAYERS = ("spcf", "symbolic", "semantics", "geometry", "lowerbound", "astcheck", "pastcheck", "batch", "service")


def layer_metrics(
    spans: Dict[str, list],
    stats: Dict[str, float],
    traced_wall: float,
    plain_wall: float,
    service: Optional[Dict[str, float]],
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced round (``spans``: name -> [calls, self, incl, count])."""

    empty = (0, 0.0, 0.0, 0.0)

    def calls(*names: str) -> float:
        return sum(spans.get(name, empty)[0] for name in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(name, empty)[1] for name in names)

    def inclusive(name: str) -> float:
        return spans.get(name, empty)[2]

    def counted(name: str) -> float:
        return spans.get(name, empty)[3]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    layer_self = {
        layer: sum(record[1] for name, record in spans.items() if name.split(".")[0] == layer)
        for layer in LAYERS
    }
    service = service or {}
    steps = stats.get("symbolic_steps", 0)
    concrete_steps = counted("semantics.run")
    sweep_boxes = stats.get("sweep_boxes_examined", 0)
    read_job_calls = calls("batch.store_read_job")
    # What every job request pays whether or not it computes: the daemon's
    # own work on both threads, the job key and the store probe.  Per
    # request, and as a share of the median store-hit latency.
    hit_path_ms = ratio(
        1000 * self_s(*HIT_PATH_SPANS), service.get("requests", 0)
    )
    metrics = {
        "spcf.substitute_calls": (calls("spcf.substitute"), "count"),
        "spcf.substitute_self_s": (self_s("spcf.substitute"), "s"),
        "spcf.free_variables_calls": (calls("spcf.free_variables"), "count"),
        "spcf.free_variables_self_s": (self_s("spcf.free_variables"), "s"),
        "spcf.parse_self_s": (self_s("spcf.parse"), "s"),
        "symbolic.steps": (steps, "count"),
        "symbolic.step_calls": (calls("symbolic.step"), "count"),
        "symbolic.step_self_s": (self_s("symbolic.step"), "s"),
        "symbolic.extend_self_s": (self_s("symbolic.extend"), "s"),
        "symbolic.steps_per_s": (ratio(steps, inclusive("symbolic.extend")), "1/s"),
        "symbolic.frontier_peak": (stats.get("frontier_peak", 0), "count"),
        "symbolic.codec_calls": (calls("symbolic.codec_encode", "symbolic.codec_decode"), "count"),
        "symbolic.codec_self_s": (self_s("symbolic.codec_encode", "symbolic.codec_decode"), "s"),
        "semantics.runs": (calls("semantics.run"), "count"),
        "semantics.steps_per_s": (ratio(concrete_steps, inclusive("semantics.estimate")), "1/s"),
        "geometry.measure_requests": (stats.get("measure_requests", 0), "count"),
        "geometry.cache_hit_ratio": (ratio(stats.get("cache_hits", 0), stats.get("measure_requests", 0)), "ratio"),
        "geometry.measure_self_s": (self_s("geometry.measure", "geometry.measure_exact"), "s"),
        "geometry.polytope_calls": (calls("geometry.polytope"), "count"),
        "geometry.polytope_self_s": (self_s("geometry.polytope"), "s"),
        "geometry.sweep_calls": (calls("geometry.sweep"), "count"),
        "geometry.sweep_self_s": (self_s("geometry.sweep"), "s"),
        "geometry.sweep_boxes": (sweep_boxes, "count"),
        "geometry.kernel_self_s": (self_s("geometry.kernel"), "s"),
        "geometry.kernel_boxes": (stats.get("kernel_boxes", 0), "count"),
        "geometry.kernel_share": (ratio(stats.get("kernel_boxes", 0), sweep_boxes), "ratio"),
        "geometry.sweep_warm_starts": (stats.get("sweep_warm_starts", 0), "count"),
        "lowerbound.bounds": (calls("lowerbound.extend"), "count"),
        "astcheck.verify_calls": (calls("astcheck.verify"), "count"),
        "pastcheck.classify_calls": (calls("pastcheck.classify"), "count"),
        "batch.jobs": (calls("batch.run_job"), "count"),
        "batch.failed_jobs": (counted("batch.run_job"), "count"),
        "batch.run_job_self_s": (self_s("batch.run_job"), "s"),
        "batch.key_self_s": (self_s("batch.key"), "s"),
        "batch.store_reads": (calls("batch.store_read", "batch.store_read_job"), "count"),
        "batch.store_read_s": (self_s("batch.store_read", "batch.store_read_job"), "s"),
        "batch.store_writes": (calls("batch.store_write"), "count"),
        "batch.store_write_s": (self_s("batch.store_write"), "s"),
        "batch.job_cache_hit_ratio": (ratio(counted("batch.store_read_job"), read_job_calls), "ratio"),
        "service.requests": (service.get("requests", 0), "count"),
        "service.computations": (service.get("computations", 0), "count"),
        "service.job_cache_hits": (service.get("job_cache_hits", 0), "count"),
        "service.coalesced": (service.get("coalesced", 0), "count"),
        "service.dispatch_self_s": (self_s("service.dispatch"), "s"),
        "service.hit_latency_p50_ms": (service.get("hit_latency_p50_ms", 0.0), "ms"),
        "service.compute_latency_p50_ms": (service.get("compute_latency_p50_ms", 0.0), "ms"),
        "service.hit_path_self_ms": (hit_path_ms, "ms"),
        "service.hit_path_share": (ratio(hit_path_ms, service.get("hit_latency_p50_ms", 0.0)), "ratio"),
    }
    attributed = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.share"] = (ratio(layer_self[layer], traced_wall), "ratio")
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["unattributed_s"] = (traced_wall - attributed, "s")
    metrics["trace_overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics


# -- entry point -------------------------------------------------------------------


def _report(workload: str, run: Run, trace: bool) -> dict:
    metrics = run.layers if trace else run.end_to_end()
    print(f"{workload}: {len(run.walls)} round(s), {run.attempted} operations, "
          f"{run.failed} failed, {len(run.latencies)} latency samples, "
          f"{len(run.setups)} set-ups", file=sys.stderr)
    for label, values in (("round walls", run.walls), ("unscaled", run.raw_walls), ("set-ups", run.setups)):
        print(f"  {label + ' (s):':17s}{' '.join(f'{value:.3f}' for value in values)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    started = time.monotonic()
    state = ROOT / ".perfbench_state" / f"{arguments.workload}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    os.chdir(ROOT)
    # Turn a termination request into an exception, so that the cleanup
    # below stops every child process and removes the scratch state.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    trace = bool(arguments.trace)
    try:
        bench = Bench(state, started)
        if arguments.workload == "serve-warm":
            run = serve_workload(bench, arguments.seed, arguments.seconds, trace)
        else:
            run = batch_workload(bench, arguments.workload, arguments.seed, arguments.seconds, trace)
        document = _report(arguments.workload, run, trace)
    except (BenchError, ServiceError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        print(f"perfbench: {arguments.workload} did not complete: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            state.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())

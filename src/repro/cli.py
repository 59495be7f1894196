"""Command-line interface for the reproduction.

The CLI exposes the two analyses the paper ships as prototypes, plus the
Monte-Carlo estimator, over programs written in the surface syntax of
:mod:`repro.spcf.parser` or taken from the built-in benchmark library::

    python -m repro lower-bound "(mu phi x. if sample - 1/2 then x else phi (x+1)) 1" --depth 80
    python -m repro lower-bound "geo(1/2)" --schedule 20,40,80 --target-gap 1/1000
    python -m repro verify "mu phi x. if sample - 1/2 then x else phi (phi (x+1))"
    python -m repro estimate --program "ex1.1(1/4)" --runs 5000 --seed 7
    python -m repro table1 --depth 50 --jobs 4 --cache-dir .repro-cache
    python -m repro table1 --schedule 20,35,50
    python -m repro table2
    python -m repro batch --suite all --jobs 4 --cache-dir .repro-cache --output results.jsonl
    python -m repro doctor --cache-dir .repro-cache
    python -m repro list-programs

Anytime mode: ``--schedule d1,d2,...`` runs the lower-bound analyses as one
*incremental* computation per program -- the symbolic frontier suspended at
one depth resumes at the next, every terminated path is measured exactly
once, and an intermediate bound is streamed per scheduled depth (each one
bit-identical to a from-scratch run at that depth).  ``--target-gap`` stops
a schedule early once the certified anytime gap drops to the target, and
``--stats-json PATH`` dumps the engine's performance counters (including
``frontier_peak`` / ``paths_resumed`` / ``sweep_warm_starts``) as JSON.

Program arguments may be either a source string or the name of a benchmark
program (as listed by ``list-programs``).

The measuring commands build one shared
:class:`~repro.geometry.engine.MeasureEngine` per invocation, so every
analysis a command runs draws from a single memoized, block-decomposed
measure cache; pass ``--stats`` to print the engine's
:class:`~repro.geometry.stats.PerfStats` counters after the run.
Non-affine constraint sets are swept block by block through the vectorized
classification kernel where it applies; ``--sweep-depth``, ``--sweep-gap``
and ``--sweep-max-boxes`` tune the adaptive refinement budget and
``--contract`` narrows undecided boxes (all four change emitted bounds).
``python -m repro batch prune --cache-dir ... --keep-runs N`` garbage-
collects persistent measure/sweep entries untouched for N runs.

The evaluation commands (``table1``, ``table2``, ``report``) and the generic
``batch`` command run through :mod:`repro.batch`: ``--jobs N`` fans the
analyses out across worker processes and ``--cache-dir`` persists both
finished job results and measure-engine entries across runs, so re-running
an unchanged batch is near-instant and bit-identical.

Worker pools are supervised: ``--job-timeout`` bounds each job's wall
clock, transient failures (a dead worker, a timeout) are retried with
exponential backoff (``--max-retries`` / ``--retry-backoff``), and the
persistent store checksums every row, quarantining damage instead of
silently missing.  ``python -m repro doctor --cache-dir ...`` reports store
health and exits non-zero on damage.

Telemetry: every measuring command accepts ``--trace PATH``, streaming a
versioned JSONL event log (spans, anytime bounds, job lifecycle, recovery
events) to PATH while the run computes *exactly* the same results --
tracing never perturbs outputs.  ``python -m repro trace summarize PATH``
renders a finished trace (``--check-stats-json`` cross-checks its recovery
events against a ``--stats-json`` dump); ``python -m repro trace watch
PATH`` follows a live one.  ``doctor --trace PATH`` validates the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.astcheck import verify_ast
from repro.astcheck.exectree import render_tree
from repro.batch import (
    JobResult,
    RetryPolicy,
    load_job_file,
    run_batch,
    scan_results_jsonl,
    suite,
    write_results_jsonl,
)
from repro.batch.suites import SUITE_NAMES
from repro.config import ReproConfig
from repro.geometry.engine import MeasureEngine
from repro.geometry.measure import MeasureOptions
from repro.lowerbound import LowerBoundEngine
from repro.pastcheck import classify_termination
from repro.programs import all_programs as _all_programs
from repro.programs import resolve_program as _resolve_program
from repro.report import full_report
from repro.semantics import estimate_termination
from repro.spcf import pretty, typecheck
from repro.spcf.contexts import Strategy


def _config(arguments: argparse.Namespace) -> ReproConfig:
    """The one shared knob object every command reads its flags through."""
    return ReproConfig.from_args(arguments)


def _measure_options(arguments: argparse.Namespace) -> MeasureOptions:
    """The measure options a command selected (defaults when flagless)."""
    return _config(arguments).measure_options()


def _measure_engine(arguments: argparse.Namespace) -> MeasureEngine:
    """The per-command shared measure engine, honouring the sweep flags."""
    return _config(arguments).measure_engine()


def _schedule_argument(text: str) -> Tuple[int, ...]:
    """Parse ``--schedule d1,d2,...`` into a validated depth tuple."""
    try:
        schedule = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"schedule must be comma-separated integers, got {text!r}"
        )
    if not schedule or schedule[0] <= 0 or any(
        second < first for first, second in zip(schedule, schedule[1:])
    ):
        raise argparse.ArgumentTypeError(
            f"schedule must be non-empty, positive and non-decreasing, got {text!r}"
        )
    return schedule


def _bounded_int(text: str, minimum: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """A step, depth or box budget: ``0`` is a (trivial) budget, ``-1`` is not."""
    return _bounded_int(text, 0, "non-negative")


def _positive_int(text: str) -> int:
    """A sample count: an estimate from zero runs is no estimate."""
    return _bounded_int(text, 1, "positive")


def _target_gap_without_schedule(arguments: argparse.Namespace) -> bool:
    """``--target-gap`` only means something for a schedule: reject it loudly
    rather than silently running the fixed-depth analysis without a stop
    rule (job files carry their own per-job ``target_gap`` params)."""
    if getattr(arguments, "target_gap", None) is None:
        return False
    if getattr(arguments, "schedule", None):
        return False
    if getattr(arguments, "job_file", None):
        return False
    print(
        f"{arguments.command}: --target-gap requires --schedule", file=sys.stderr
    )
    return True


def _write_stats_json(arguments: argparse.Namespace, stats) -> None:
    """``--stats-json PATH``: dump the engine counters machine-readably."""
    path = getattr(arguments, "stats_json", None)
    if not path:
        return
    document = {"version": 1, "counters": stats.as_dict()}
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _print_perf_stats(arguments: argparse.Namespace, stats) -> None:
    # Every measuring command ends here, so an armed trace always closes
    # with one final counters snapshot (the summarizer's hit-rate source).
    telemetry.emit_counters(stats)
    if getattr(arguments, "stats", False):
        print("measure engine statistics:")
        for line in stats.summary().splitlines():
            print(f"  {line}")
    _write_stats_json(arguments, stats)


def _print_stats(arguments: argparse.Namespace, engine: MeasureEngine) -> None:
    _print_perf_stats(arguments, engine.stats)


def _warn_explore_jobs_unused(arguments: argparse.Namespace) -> None:
    """``--explore-jobs`` only acts on a store-backed schedule; say so."""
    if not getattr(arguments, "explore_jobs", None):
        return
    if arguments.explore_jobs > 1 and not getattr(arguments, "cache_dir", None):
        print(
            f"{arguments.command}: --explore-jobs needs --cache-dir (the "
            "sharded frontier lives in the store); running single-process",
            file=sys.stderr,
        )
    elif arguments.explore_jobs > 1 and not getattr(arguments, "schedule", None):
        print(
            f"{arguments.command}: --explore-jobs only distributes a "
            "--schedule; running single-process",
            file=sys.stderr,
        )


def _command_lower_bound(arguments: argparse.Namespace) -> int:
    if _target_gap_without_schedule(arguments):
        return 2
    _warn_explore_jobs_unused(arguments)
    program = _resolve_program(arguments.program)
    telemetry.set_context(program=arguments.program)
    strategy = Strategy.CBV if arguments.cbv else program.strategy
    measure_engine = _measure_engine(arguments)
    engine = LowerBoundEngine(strategy=strategy, measure_engine=measure_engine)
    print(f"program      : {pretty(program.applied, unicode_symbols=False)}")
    print(f"type         : {typecheck(program.applied)!r}")
    start = time.perf_counter()
    config = _config(arguments)
    if arguments.schedule and config.cache_dir:
        # Store-backed anytime mode: the exploration frontier is persisted
        # under a budget-independent key after every depth, so a rerun (or a
        # crash) resumes the math -- already-reached depths replay from the
        # recorded trajectory, deeper ones continue stepping where the
        # persisted budget stopped.  ``--explore-jobs N`` additionally
        # shards each deepening across N supervised workers.  Either way
        # every line is bit-identical to a from-scratch run at that depth.
        from repro.batch.distribute import run_distributed_schedule
        from repro.batch.jobs import decode_number

        def on_depth(outcome) -> None:
            row = outcome.row
            elapsed = time.perf_counter() - start
            note = "replayed" if outcome.replayed else f"{elapsed * 1000:.1f} ms"
            print(
                f"depth {row['depth']:>6d} : "
                f"LB = {float(decode_number(row['probability'])):.10f}  "
                f"paths = {row['path_count']:<6d} "
                f"gap <= {float(decode_number(row['anytime_gap'])):.3e}  "
                f"({note})"
            )

        report = run_distributed_schedule(
            arguments.program,
            program,
            arguments.schedule,
            store=config.open_store(),
            engine=measure_engine,
            jobs=config.effective_explore_jobs(),
            strategy=strategy,
            target_gap=arguments.target_gap,
            job_timeout=config.job_timeout,
            retry_policy=config.retry_policy(),
            on_depth=on_depth,
        )
        elapsed = time.perf_counter() - start
        final = report.rows[-1]
        probability = decode_number(final["probability"])
        print(f"lower bound  : {float(probability):.10f}")
        if final["exact_measures"]:
            print(f"  exactly    : {probability}")
        else:
            print(f"measure gap  : {float(decode_number(final['measure_gap'])):.3e}")
        print(f"E[steps] >=  : {float(decode_number(final['expected_steps'])):.4f}")
        print(f"paths        : {final['path_count']} (exhaustive: {final['exhaustive']})")
        print(f"depth        : {final['depth']}")
        print(f"time         : {elapsed * 1000:.1f} ms")
        if report.resumed:
            print(f"resumed      : frontier restored at depth {report.restored_depth}")
        if report.jobs > 1:
            sharded = sum(outcome.shards for outcome in report.outcomes)
            stolen = sum(outcome.stolen for outcome in report.outcomes)
            print(f"workers      : {report.jobs} ({sharded} shards, {stolen} stolen)")
        _print_stats(arguments, measure_engine)
        return 0
    if arguments.schedule:
        # Anytime mode: one resumable session streams a bound per scheduled
        # depth; each line is bit-identical to a from-scratch run there.
        session = engine.session(program.applied)
        result = None
        for result in session.run_schedule(
            arguments.schedule, target_gap=arguments.target_gap
        ):
            elapsed = time.perf_counter() - start
            print(
                f"depth {result.max_steps:>6d} : "
                f"LB = {float(result.probability):.10f}  "
                f"paths = {result.path_count:<6d} "
                f"gap <= {float(result.anytime_gap()):.3e}  "
                f"({elapsed * 1000:.1f} ms)"
            )
        depth = result.max_steps
    else:
        result = engine.lower_bound(program.applied, max_steps=arguments.depth)
        depth = arguments.depth
    elapsed = time.perf_counter() - start
    print(f"lower bound  : {float(result.probability):.10f}")
    if result.exact_measures:
        print(f"  exactly    : {result.probability}")
    else:
        print(f"measure gap  : {float(result.measure_gap):.3e}")
    print(f"E[steps] >=  : {float(result.expected_steps):.4f}")
    print(f"paths        : {result.path_count} (exhaustive: {result.exhaustive})")
    print(f"depth        : {depth}")
    print(f"time         : {elapsed * 1000:.1f} ms")
    _print_stats(arguments, measure_engine)
    return 0


def _command_verify(arguments: argparse.Namespace) -> int:
    program = _resolve_program(arguments.program)
    telemetry.set_context(program=arguments.program)
    engine = _measure_engine(arguments)
    start = time.perf_counter()
    result = verify_ast(program, engine=engine)
    elapsed = time.perf_counter() - start
    print(f"program      : {pretty(program.fix, unicode_symbols=False)}")
    print(f"verdict      : {'AST verified' if result.verified else 'not verified'}")
    print(f"Papprox      : {result.papprox}")
    print(f"rank         : {result.rank}")
    print(f"time         : {elapsed * 1000:.1f} ms")
    if result.reasons:
        for reason in result.reasons:
            print(f"  note       : {reason}")
    if arguments.tree and result.tree is not None:
        print("execution tree:")
        print(render_tree(result.tree))
    _print_stats(arguments, engine)
    return 0 if result.verified else 1


def _command_estimate(arguments: argparse.Namespace) -> int:
    program = _resolve_program(arguments.program)
    estimate = estimate_termination(
        program.applied,
        runs=arguments.runs,
        max_steps=arguments.max_steps,
        seed=arguments.seed,
    )
    low, high = estimate.confidence_interval()
    print(f"program      : {pretty(program.applied, unicode_symbols=False)}")
    print(f"Pterm (MC)   : {estimate.probability:.4f}  (99% CI [{low:.4f}, {high:.4f}])")
    if estimate.mean_steps is not None:
        print(f"mean steps   : {estimate.mean_steps:.1f}")
        print(f"mean samples : {estimate.mean_samples:.1f}")
    if arguments.stats_json:
        # The MC estimator never measures constraint sets, so its dump is
        # the sampler's own statistics rather than PerfStats counters.
        document = {
            "version": 1,
            "analysis": "estimate",
            "probability": estimate.probability,
            "terminated": estimate.terminated,
            "runs": estimate.runs,
            "mean_steps": estimate.mean_steps,
            "mean_samples": estimate.mean_samples,
            "stderr": estimate.stderr,
            "seed": arguments.seed,
        }
        with open(arguments.stats_json, "w") as stream:
            json.dump(document, stream, indent=2, sort_keys=True)
            stream.write("\n")
    return 0


def _batch_cache(arguments: argparse.Namespace):
    """The persistent store at ``--cache-dir`` (or ``None``)."""
    return _config(arguments).open_store()


def _nondefault_engine_flags(arguments: argparse.Namespace) -> bool:
    """Whether any flag selecting a non-default engine configuration is set."""
    return _config(arguments).nondefault_engine()


def _batch_jobs(arguments: argparse.Namespace, default: int = 1) -> int:
    """The worker count; any non-default engine flag forces inline execution
    (worker processes build default engines, which would ignore the flags)."""
    return _config(arguments).effective_jobs(default=default)


def _print_batch_stats(
    arguments: argparse.Namespace, report, engine: Optional[MeasureEngine]
) -> None:
    """``--stats`` for batched commands: the shared engine inline, the merged
    per-job counters when the work ran in worker processes."""
    _print_perf_stats(arguments, engine.stats if engine is not None else report.stats)


def _job_timeout(arguments: argparse.Namespace) -> Optional[float]:
    return getattr(arguments, "job_timeout", None)


def _batch_engine(
    arguments: argparse.Namespace, jobs: int
) -> Optional[MeasureEngine]:
    """The shared inline engine, or ``None`` when a supervised pool will run.

    A ``--job-timeout`` forces pool execution even for ``--jobs 1`` (an
    inline job cannot be interrupted), in which case the CLI must report the
    batch's *merged* counters rather than an engine that never ran anything.
    Non-default engine flags always run inline and need their engine.
    """
    if _nondefault_engine_flags(arguments):
        return _measure_engine(arguments)
    if jobs <= 1 and _job_timeout(arguments) is None:
        return _measure_engine(arguments)
    return None


def _retry_policy(arguments: argparse.Namespace) -> Optional[RetryPolicy]:
    """The retry policy the fault-tolerance flags select (None = defaults)."""
    return _config(arguments).retry_policy()


def _table1_distributed(
    arguments: argparse.Namespace, schedule: Tuple[int, ...]
) -> int:
    """Anytime Table 1 where the *frontier*, not the program list, is the
    unit of parallelism: one program at a time, each deepening sharded
    across ``--explore-jobs`` workers over the store-persisted frontier.
    Rows (and counters) are byte-identical to the single-process suite; a
    rerun replays finished depths from the store instead of re-exploring."""
    from repro.batch.distribute import run_distributed_schedule
    from repro.batch.jobs import decode_number
    from repro.batch.suites import schedule_suite

    config = _config(arguments)
    store = config.open_store()
    engine = _measure_engine(arguments)
    specs = schedule_suite(schedule, target_gap=arguments.target_gap)
    print(f"{'term':16s} {'LB':>14s} {'paths':>7s} {'depth':>6s} {'time':>9s}")
    failures = 0
    for spec in specs:
        try:
            report = run_distributed_schedule(
                spec.program,
                spec.resolve(),
                schedule,
                store=store,
                engine=engine,
                jobs=config.effective_explore_jobs(),
                max_paths=spec.canonical_params()["max_paths"],
                target_gap=arguments.target_gap,
                job_timeout=config.job_timeout,
                retry_policy=config.retry_policy(),
            )
        except Exception as error:
            print(f"{spec.program:16s} ERROR: {type(error).__name__}: {error}")
            failures += 1
            continue
        rows = report.rows
        for position, point in enumerate(rows):
            probability = float(decode_number(point["probability"]))
            elapsed = (
                f"{report.elapsed_seconds * 1000:8.0f}ms"
                if position == len(rows) - 1
                else f"{'':10s}"
            )
            print(
                f"{spec.program:16s} {probability:14.10f} "
                f"{point['path_count']:7d} {point['depth']:6d} "
                f"{elapsed}"
            )
    _print_perf_stats(arguments, engine.stats)
    return 0 if failures == 0 else 1


def _command_table1(arguments: argparse.Namespace) -> int:
    if _target_gap_without_schedule(arguments):
        return 2
    _warn_explore_jobs_unused(arguments)
    from repro.batch.jobs import decode_number
    from repro.batch.suites import schedule_suite, table1_suite

    schedule = getattr(arguments, "schedule", None)
    if schedule and _config(arguments).effective_explore_jobs() > 1:
        return _table1_distributed(arguments, schedule)
    jobs = _batch_jobs(arguments)
    engine = _batch_engine(arguments, jobs)
    if schedule:
        specs = schedule_suite(schedule, target_gap=arguments.target_gap)
    else:
        specs = table1_suite(depth=arguments.depth)
    report = run_batch(
        specs,
        jobs=jobs,
        cache=_batch_cache(arguments),
        engine=engine,
        job_timeout=_job_timeout(arguments),
        retry_policy=_retry_policy(arguments),
    )
    print(f"{'term':16s} {'LB':>14s} {'paths':>7s} {'depth':>6s} {'time':>9s}")
    for result in report.results:
        if not result.ok:
            print(f"{result.spec.program:16s} ERROR: {result.error}")
            continue
        payload = result.payload or {}
        if schedule:
            # One row per scheduled depth, from the job's anytime trajectory
            # (the whole column costs one incremental job per program).  The
            # job's elapsed time covers the whole schedule, so it is printed
            # once, on the deepest row.
            trajectory = payload.get("trajectory", [])
            for position, point in enumerate(trajectory):
                probability = float(decode_number(point["probability"]))
                elapsed = (
                    f"{result.elapsed_ms:8.0f}ms"
                    if position == len(trajectory) - 1
                    else f"{'':10s}"
                )
                print(
                    f"{result.spec.program:16s} {probability:14.10f} "
                    f"{point['path_count']:7d} {point['depth']:6d} "
                    f"{elapsed}"
                )
            continue
        probability = float(decode_number(payload["probability"]))
        print(
            f"{result.spec.program:16s} {probability:14.10f} "
            f"{payload['path_count']:7d} {arguments.depth:6d} "
            f"{result.elapsed_ms:8.0f}ms"
        )
    _print_batch_stats(arguments, report, engine)
    return 0 if report.error_count == 0 else 1


def _command_table2(arguments: argparse.Namespace) -> int:
    from repro.batch.suites import table2_suite

    jobs = _batch_jobs(arguments)
    engine = _batch_engine(arguments, jobs)
    report = run_batch(
        table2_suite(),
        jobs=jobs,
        cache=_batch_cache(arguments),
        engine=engine,
        job_timeout=_job_timeout(arguments),
        retry_policy=_retry_policy(arguments),
    )
    print(f"{'term':18s} {'verified':>9s}  Papprox")
    for result in report.results:
        if not result.ok:
            print(f"{result.spec.program:18s} ERROR: {result.error}")
            continue
        payload = result.payload or {}
        print(
            f"{result.spec.program:18s} "
            f"{'yes' if payload.get('verified') else 'no':>9s}  "
            f"{payload.get('papprox') or '-'}   ({result.elapsed_ms:.0f} ms)"
        )
    _print_batch_stats(arguments, report, engine)
    return 0 if report.error_count == 0 else 1


def _command_list_programs(arguments: argparse.Namespace) -> int:
    for name, program in sorted(_all_programs().items()):
        print(f"{name:18s} {program.description}")
    return 0


def _command_classify(arguments: argparse.Namespace) -> int:
    program = _resolve_program(arguments.program)
    telemetry.set_context(program=arguments.program)
    engine = _measure_engine(arguments)
    start = time.perf_counter()
    classification = classify_termination(program, engine=engine)
    elapsed = time.perf_counter() - start
    print(f"program      : {pretty(program.fix, unicode_symbols=False)}")
    print(f"verdict      : {classification.summary()}")
    if classification.past.papprox is not None:
        print(f"Papprox      : {classification.past.papprox}")
    if classification.past.expected_total_calls is not None:
        print(f"E[calls]     : {classification.past.expected_total_calls}")
    print(f"time         : {elapsed * 1000:.1f} ms")
    _print_stats(arguments, engine)
    return 0


def _command_report(arguments: argparse.Namespace) -> int:
    if _target_gap_without_schedule(arguments):
        return 2
    from repro.geometry.stats import PerfStats

    jobs = _batch_jobs(arguments)
    engine = _batch_engine(arguments, jobs)
    sink = PerfStats() if engine is None else None
    print(
        full_report(
            depth=arguments.depth,
            measure_engine=engine,
            jobs=jobs,
            cache=_batch_cache(arguments),
            stats_sink=sink,
            schedule=getattr(arguments, "schedule", None),
            target_gap=getattr(arguments, "target_gap", None),
        )
    )
    _print_perf_stats(arguments, engine.stats if engine is not None else sink)
    return 0


def _command_batch_prune(arguments: argparse.Namespace) -> int:
    """``python -m repro batch prune --cache-dir ... [--keep-runs N]``."""
    cache = _batch_cache(arguments)
    if cache is None:
        print("batch prune: --cache-dir is required", file=sys.stderr)
        return 2
    if arguments.keep_runs < 1:
        print("batch prune: --keep-runs must be at least 1", file=sys.stderr)
        return 2
    report = cache.prune(min_age_runs=arguments.keep_runs)
    print("pruned the persistent store:")
    for line in report.summary().splitlines():
        print(f"  {line}")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    """``python -m repro serve --socket PATH``: run the analysis daemon."""
    import asyncio

    from repro.service.daemon import serve

    config = _config(arguments)
    print(f"serving on {arguments.socket}", file=sys.stderr)
    if config.cache_dir:
        print(f"store        : {config.cache_dir}", file=sys.stderr)
    try:
        asyncio.run(serve(arguments.socket, config=config))
    except KeyboardInterrupt:
        pass
    return 0


def _command_call(arguments: argparse.Namespace) -> int:
    """``python -m repro call --socket PATH METHOD [--params JSON]``.

    ``--repeat N`` sends N copies of the request as one JSON-RPC batch --
    every copy is in flight before the first completes, so identical
    requests exercise the daemon's coalescing (the CI smoke job's probe).
    """
    from repro.service.client import ServiceClient, ServiceError

    try:
        params = json.loads(arguments.params) if arguments.params else {}
    except ValueError as error:
        print(f"call: --params is not valid JSON: {error}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("call: --params must be a JSON object", file=sys.stderr)
        return 2
    if arguments.repeat < 1:
        print("call: --repeat must be at least 1", file=sys.stderr)
        return 2
    try:
        with ServiceClient(arguments.socket, timeout=arguments.timeout) as client:
            if arguments.repeat == 1:
                output = client.call(arguments.method, params)
            else:
                output = client.call_batch(
                    [
                        {"method": arguments.method, "params": params}
                        for _ in range(arguments.repeat)
                    ]
                )
    except ServiceError as error:
        print(f"call: {error}", file=sys.stderr)
        return 1
    except (OSError, ConnectionError) as error:
        print(f"call: cannot reach {arguments.socket}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(output, indent=2, sort_keys=True))
    return 0


def _command_doctor(arguments: argparse.Namespace) -> int:
    """``python -m repro doctor``: store and/or trace health checks."""
    from repro.batch.doctor import DoctorReport, check_trace, diagnose, write_report_json

    if arguments.stale_runs < 1:
        print("doctor: --stale-runs must be at least 1", file=sys.stderr)
        return 2
    if not arguments.cache_dir and not arguments.trace:
        print("doctor: provide --cache-dir and/or --trace", file=sys.stderr)
        return 2
    if arguments.cache_dir:
        report = diagnose(arguments.cache_dir, stale_runs=arguments.stale_runs)
    else:
        report = DoctorReport(directory="(none)")
    if arguments.trace:
        check_trace(report, arguments.trace)
    print(report.summary())
    if arguments.json:
        write_report_json(report, arguments.json)
    return report.exit_code


def _command_trace_summarize(arguments: argparse.Namespace) -> int:
    """``python -m repro trace summarize PATH [--check-stats-json STATS]``."""
    from repro.telemetry.analyze import read_trace, render_summary

    try:
        accumulator = read_trace(arguments.trace_path)
    except OSError as error:
        print(
            f"trace summarize: cannot read {arguments.trace_path}: {error}",
            file=sys.stderr,
        )
        return 2
    stats_counters = None
    if arguments.check_stats_json:
        try:
            with open(arguments.check_stats_json) as stream:
                stats_counters = json.load(stream).get("counters", {})
        except (OSError, ValueError) as error:
            print(
                f"trace summarize: cannot read --check-stats-json "
                f"{arguments.check_stats_json}: {error}",
                file=sys.stderr,
            )
            return 2
    text, exit_code = render_summary(
        accumulator, arguments.trace_path, stats_counters
    )
    print(text)
    return exit_code


def _command_trace_watch(arguments: argparse.Namespace) -> int:
    """``python -m repro trace watch PATH``: follow a live trace."""
    from repro.telemetry.watch import watch

    if arguments.interval <= 0:
        print("trace watch: --interval must be positive", file=sys.stderr)
        return 2
    return watch(
        arguments.trace_path,
        interval=arguments.interval,
        once=arguments.once,
        max_idle=arguments.max_idle,
        bench=arguments.bench,
    )


def _command_batch(arguments: argparse.Namespace) -> int:
    if arguments.job_file == "prune":
        return _command_batch_prune(arguments)
    if _target_gap_without_schedule(arguments):
        return 2
    if arguments.job_file:
        specs = load_job_file(arguments.job_file)
    elif arguments.suite:
        try:
            specs = suite(
                arguments.suite,
                depth=arguments.depth,
                schedule=getattr(arguments, "schedule", None),
                target_gap=getattr(arguments, "target_gap", None),
            )
        except ValueError as error:  # e.g. --schedule on a suite without depths
            print(f"batch: {error}", file=sys.stderr)
            return 2
    else:
        print("batch: provide a job file or --suite", file=sys.stderr)
        return 2

    append = False
    if arguments.resume and not arguments.output:
        print("batch: --resume requires --output", file=sys.stderr)
        return 2
    # The existing output file is scanned whether or not this is a resume:
    # a torn results file should be loudly visible, not only when the
    # operator happens to pass --resume.
    scan = None
    if arguments.output and os.path.exists(arguments.output):
        scan = scan_results_jsonl(arguments.output)
        if scan.corrupt_lines:
            print(
                f"batch: found {scan.corrupt_lines} corrupt line(s) out of "
                f"{scan.total_lines} in {arguments.output}"
                + ("; their jobs will re-run" if arguments.resume else ""),
                file=sys.stderr,
            )
    if arguments.resume:
        done_keys = scan.ok_keys if scan is not None else set()
        if done_keys:
            append = True

            def not_done(spec) -> bool:
                try:
                    return spec.key() not in done_keys
                except Exception:
                    return True

            specs = [spec for spec in specs if not_done(spec)]

    jobs = _batch_jobs(arguments, default=os.cpu_count() or 1)
    engine = _batch_engine(arguments, jobs)
    emit_jsonl_to_stdout = arguments.output is None
    status_stream = sys.stderr if emit_jsonl_to_stdout else sys.stdout

    def progress(result: JobResult, done: int, total: int) -> None:
        if result.ok:
            outcome = "cached" if result.cached else f"{result.elapsed_ms:.0f} ms"
        else:
            outcome = f"ERROR ({result.error})"
        print(
            f"[{done}/{total}] {result.spec.analysis:12s} "
            f"{result.spec.program:18s} {outcome}",
            file=sys.stderr,
        )

    report = run_batch(
        specs,
        jobs=jobs,
        cache=_batch_cache(arguments),
        engine=engine,
        progress=progress,
        job_timeout=_job_timeout(arguments),
        retry_policy=_retry_policy(arguments),
    )
    if scan is not None:
        report.corrupt_result_lines = scan.corrupt_lines
    if arguments.output:
        write_results_jsonl(arguments.output, report.results, append=append)
        print(f"results          : {arguments.output}", file=status_stream)
    else:
        for result in report.results:
            print(result.to_json_line())
    print(report.summary(), file=status_stream)
    _print_batch_stats(arguments, report, engine)
    return 0 if report.error_count == 0 else 1


def _add_batch_flags(subparser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that delegates to the batch runner."""
    subparser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes to fan the analyses out over (default: 1)",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        help="persist job results and measure entries here, across runs",
    )


def _add_explore_flags(subparser: argparse.ArgumentParser) -> None:
    """``--explore-jobs``: distributed anytime deepening (lower-bound/table1)."""
    subparser.add_argument(
        "--explore-jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard each --schedule deepening of the store-persisted "
        "exploration frontier across N supervised worker processes with "
        "work stealing (requires --cache-dir; per-depth bounds and "
        "counters stay byte-identical to a single-process run)",
    )


def _add_fault_flags(subparser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags of the supervised pool (batch/table1/table2)."""
    subparser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job; an overdue job's worker is killed "
        "and the job retried (forces pool execution even with --jobs 1)",
    )
    subparser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="re-submissions per job after transient failures -- worker "
        "death, timeout, OS error (default: 2; deterministic job "
        "exceptions are never retried)",
    )
    subparser.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base of the exponential retry backoff (default: 0.05)",
    )


def _add_measure_flags(subparser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that measures constraint sets."""
    subparser.add_argument(
        "--sweep-depth",
        type=_non_negative_int,
        default=None,
        help="bisection depth budget of the certified subdivision sweep "
        "(default: 14)",
    )
    subparser.add_argument(
        "--sweep-gap",
        type=Fraction,
        default=None,
        metavar="FRACTION",
        help="stop refining a sweep once its undecided volume is at most "
        "this (e.g. 1/1024; default: refine to the full depth budget)",
    )
    subparser.add_argument(
        "--sweep-max-boxes",
        type=_non_negative_int,
        default=None,
        help="cap on boxes examined per sweep (default: unlimited)",
    )
    subparser.add_argument(
        "--contract",
        action="store_true",
        help="run the interval-Newton / monotonicity contractor on boxes "
        "the sweep classifier leaves undecided (certifiably tighter "
        "bounds at equal budget; changes emitted inexact bounds, so "
        "results persist under distinct store keys)",
    )
    subparser.add_argument(
        "--stats",
        action="store_true",
        help="print the measure engine's performance counters after the run",
    )
    subparser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the measure engine's performance counters to PATH as "
        "JSON (machine-readable companion of --stats)",
    )
    subparser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream a structured telemetry trace (JSONL events: spans, "
        "anytime bounds, job lifecycle, recovery) to PATH; results are "
        "byte-identical with or without it -- see 'repro trace'",
    )
    # Only measuring commands *write* a trace; doctor's --trace reads one.
    subparser.set_defaults(_trace_arms_telemetry=True)


def _add_schedule_flags(subparser: argparse.ArgumentParser) -> None:
    """Flags shared by the commands with an anytime (depth-schedule) mode."""
    subparser.add_argument(
        "--schedule",
        type=_schedule_argument,
        default=None,
        metavar="D1,D2,...",
        help="anytime mode: run one incremental computation over this "
        "non-decreasing depth schedule, streaming a bound per depth "
        "(bit-identical to from-scratch runs at the same depths)",
    )
    subparser.add_argument(
        "--target-gap",
        type=Fraction,
        default=None,
        metavar="FRACTION",
        help="stop a --schedule early once the certified anytime gap "
        "(unexplored mass, or the sweep bracket once exhaustive) drops "
        "to this (e.g. 1/1000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic termination analyses for SPCF programs "
        "(Beutner & Ong, PLDI 2021 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lower = subparsers.add_parser(
        "lower-bound", help="certified lower bound on the probability of termination"
    )
    lower.add_argument("program", help="surface-syntax program or library program name")
    lower.add_argument(
        "--depth", type=_non_negative_int, default=80, help="per-path step budget"
    )
    lower.add_argument("--cbv", action="store_true", help="use call-by-value evaluation")
    lower.add_argument(
        "--cache-dir",
        default=None,
        help="persist the exploration frontier (and its anytime trajectory) "
        "here: a rerun with --schedule resumes the suspended frontier "
        "instead of re-exploring, surviving crashes and process "
        "boundaries",
    )
    _add_fault_flags(lower)
    _add_explore_flags(lower)
    _add_measure_flags(lower)
    _add_schedule_flags(lower)
    lower.set_defaults(handler=_command_lower_bound)

    verify = subparsers.add_parser("verify", help="automatic AST verification")
    verify.add_argument("program", help="a recursive function (mu-term) or library name")
    verify.add_argument("--tree", action="store_true", help="print the execution tree")
    _add_measure_flags(verify)
    verify.set_defaults(handler=_command_verify)

    estimate = subparsers.add_parser("estimate", help="Monte-Carlo estimate of Pterm")
    estimate.add_argument("--program", required=True)
    estimate.add_argument("--runs", type=_positive_int, default=2000)
    estimate.add_argument("--max-steps", type=_non_negative_int, default=20_000)
    estimate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="PRNG seed for the sampler (estimates are reproducible per seed)",
    )
    estimate.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the sampler statistics to PATH as JSON",
    )
    estimate.set_defaults(handler=_command_estimate)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (lower bounds)")
    table1.add_argument("--depth", type=_non_negative_int, default=50)
    _add_measure_flags(table1)
    _add_batch_flags(table1)
    _add_fault_flags(table1)
    _add_schedule_flags(table1)
    _add_explore_flags(table1)
    table1.set_defaults(handler=_command_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2 (AST verification)")
    _add_measure_flags(table2)
    _add_batch_flags(table2)
    _add_fault_flags(table2)
    table2.set_defaults(handler=_command_table2)

    batch = subparsers.add_parser(
        "batch",
        help="run a batch of analysis jobs in parallel with a persistent cache",
    )
    batch.add_argument(
        "job_file",
        nargs="?",
        default=None,
        help="JSON job file (a list of {program, analysis, params} objects); "
        "omit to use --suite, or pass the literal word 'prune' to garbage-"
        "collect stale measure/sweep entries from --cache-dir",
    )
    batch.add_argument(
        "--suite",
        choices=SUITE_NAMES,
        default=None,
        help="run a named evaluation suite instead of a job file",
    )
    batch.add_argument(
        "--depth",
        type=_non_negative_int,
        default=50,
        help="depth for the suite's lower-bound jobs",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: one per CPU core)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="persist job results and measure entries here, across runs",
    )
    batch.add_argument(
        "--output",
        default=None,
        help="write deterministic results JSONL here (default: stdout)",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs recorded as successful in --output; failed and "
        "missing jobs are (re)run and their results appended",
    )
    batch.add_argument(
        "--keep-runs",
        type=int,
        default=20,
        help="for 'batch prune': drop measure/sweep entries untouched for "
        "this many runs (default: 20)",
    )
    _add_measure_flags(batch)
    _add_fault_flags(batch)
    _add_schedule_flags(batch)
    batch.set_defaults(handler=_command_batch)

    serve = subparsers.add_parser(
        "serve",
        help="run the analysis daemon: one hot engine, many clients, "
        "coalesced requests over a Unix socket",
    )
    serve.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix socket path to listen on (a stale file is replaced; "
        "removed on orderly exit)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persist job results and measure entries here (hydrates the "
        "hot engine at startup)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict named analysis sessions idle longer than this "
        "(default: keep sessions until shutdown)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="cap on live named sessions; creating one past the cap "
        "evicts the least recently used (default: unbounded)",
    )
    _add_measure_flags(serve)
    serve.set_defaults(handler=_command_serve)

    call = subparsers.add_parser(
        "call",
        help="send one JSON-RPC request to a running analysis daemon",
    )
    call.add_argument(
        "--socket", required=True, metavar="PATH", help="the daemon's Unix socket"
    )
    call.add_argument(
        "method",
        help="the request method: ping, stats, shutdown, measure, "
        "lower-bound, lower-bound-schedule, verify, classify, estimate, "
        "papprox, table1",
    )
    call.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help="request parameters as a JSON object, e.g. "
        "'{\"program\": \"geo(1/2)\", \"depth\": 60}'",
    )
    call.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="send N copies as one JSON-RPC batch (identical copies "
        "coalesce into a single computation on the daemon)",
    )
    call.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="socket timeout for the response (default: 300)",
    )
    call.set_defaults(handler=_command_call)

    doctor = subparsers.add_parser(
        "doctor",
        help="read-only health checks over a batch cache directory "
        "(exit 1 on damage or a non-empty quarantine)",
    )
    doctor.add_argument(
        "--cache-dir",
        default=None,
        help="the batch cache directory to diagnose",
    )
    doctor.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="additionally validate a telemetry trace file: schema version, "
        "corrupt lines, span balance (a torn final line is reported, "
        "not failed)",
    )
    doctor.add_argument(
        "--stale-runs",
        type=int,
        default=20,
        help="report entries untouched for this many runs as stale "
        "(default: 20, matching 'batch prune')",
    )
    doctor.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="additionally write the machine-readable report to PATH",
    )
    doctor.set_defaults(handler=_command_doctor)

    trace = subparsers.add_parser(
        "trace",
        help="inspect or follow a telemetry trace written by --trace",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize",
        help="render a finished trace: per-phase wall time, hit rates, "
        "hottest programs, anytime bounds, recovery-event totals "
        "(exit 1 on schema damage or a --check-stats-json mismatch)",
    )
    summarize.add_argument("trace_path", help="the trace JSONL file to read")
    summarize.add_argument(
        "--check-stats-json",
        default=None,
        metavar="PATH",
        help="cross-check the trace's recovery events (retries, timeouts, "
        "worker restarts, quarantines) against this --stats-json dump; "
        "any mismatch fails the summary",
    )
    summarize.set_defaults(handler=_command_trace_summarize)
    watch = trace_commands.add_parser(
        "watch",
        help="tail a live trace: anytime bounds converging per program, "
        "job progress, recovery events",
    )
    watch.add_argument("trace_path", help="the trace JSONL file to follow")
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between refreshes (default: 1.0)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot of the current trace state and exit",
    )
    watch.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up after this many seconds without new events "
        "(default: follow until the trace ends)",
    )
    watch.add_argument(
        "--bench",
        nargs="?",
        const="benchmarks/baselines",
        default=None,
        metavar="DIR",
        help="render the committed benchmark baseline history from DIR "
        "(BENCH_*.json files) alongside the live dashboard "
        "(default DIR when the flag is bare: benchmarks/baselines)",
    )
    watch.set_defaults(handler=_command_trace_watch)

    list_programs = subparsers.add_parser("list-programs", help="list the built-in programs")
    list_programs.set_defaults(handler=_command_list_programs)

    classify = subparsers.add_parser(
        "classify", help="combined AST / PAST classification of a recursive program"
    )
    classify.add_argument("program", help="a recursive function (mu-term) or library name")
    _add_measure_flags(classify)
    classify.set_defaults(handler=_command_classify)

    report = subparsers.add_parser(
        "report", help="regenerate all evaluation tables as markdown"
    )
    report.add_argument("--depth", type=_non_negative_int, default=50)
    _add_measure_flags(report)
    _add_batch_flags(report)
    _add_schedule_flags(report)
    report.set_defaults(handler=_command_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    trace_path = (
        getattr(arguments, "trace", None)
        if getattr(arguments, "_trace_arms_telemetry", False)
        else None
    )
    if trace_path:
        command = " ".join(sys.argv[1:] if argv is None else list(argv))
        telemetry.start(trace_path, command=command)
    try:
        return arguments.handler(arguments)
    finally:
        if trace_path:
            telemetry.stop()


if __name__ == "__main__":
    sys.exit(main())

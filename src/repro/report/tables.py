"""Markdown renderings of the paper's evaluation tables.

Each report function runs the corresponding analysis over a program
dictionary (defaulting to the paper's Table 1 / Table 2 sets) and renders a
markdown table whose columns mirror the paper's: the certified lower bound
and exploration depth for Table 1, the computed ``Papprox`` and verdict for
Table 2, and the combined AST/PAST classification for the extension table.
Timings are wall-clock milliseconds on the current machine and are reported
for orientation only.

For the default program sets the analyses run as a batch through
:func:`repro.batch.run_batch`, so reports can fan out across cores
(``jobs``) and reuse a persistent :class:`~repro.batch.SqliteStore`; the
tables themselves are rendered from the deterministic
:class:`~repro.batch.JobResult` payloads by the ``*_rows_from_results``
functions.  Custom program mappings (whose terms may not resolve through the
program library) take the direct in-process path with a shared
:class:`~repro.geometry.engine.MeasureEngine`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.astcheck import verify_ast
from repro.batch.jobs import JobResult, decode_number
from repro.batch.runner import run_batch
from repro.batch.store_sqlite import SqliteStore
from repro.batch.suites import (
    classify_suite,
    schedule_suite,
    table1_suite,
    table2_suite,
)
from repro.geometry.engine import MeasureEngine
from repro.geometry.stats import PerfStats
from repro.lowerbound.engine import LowerBoundEngine
from repro.pastcheck import classify_termination
from repro.programs import table1_programs
from repro.programs.library import Program

__all__ = [
    "classification_report",
    "classification_rows_from_results",
    "markdown_table",
    "table1_report",
    "table1_rows_from_results",
    "table1_schedule_report",
    "table1_schedule_rows_from_results",
    "table2_report",
    "table2_rows_from_results",
]


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render ``headers`` and ``rows`` as a GitHub-flavoured markdown table."""
    if not headers:
        raise ValueError("a table needs at least one column")
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"
    lines = [render_row(headers)]
    lines.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def _known_probability(program: Optional[Program]) -> str:
    if program is not None and program.known_probability is not None:
        return f"{program.known_probability:.4f}"
    return "?"


def table1_rows_from_results(
    results: Sequence[JobResult],
    programs: Optional[Mapping[str, Program]] = None,
) -> List[List[str]]:
    """Table 1 rows from ``lower-bound`` job results (errors become rows too)."""
    programs = dict(programs) if programs is not None else table1_programs()
    rows = []
    for result in results:
        name = result.spec.program
        if not result.ok:
            rows.append([name, "?", f"error: {result.error}", "-", "-", "-"])
            continue
        payload = result.payload or {}
        probability = decode_number(payload.get("probability", 0))
        rows.append(
            [
                name,
                _known_probability(programs.get(name)),
                f"{float(probability):.10f}",
                str(result.spec.canonical_params()["depth"]),
                str(payload.get("path_count", "?")),
                f"{result.elapsed_ms:.0f}",
            ]
        )
    return rows


def table1_report(
    depth: int = 50,
    programs: Optional[Mapping[str, Program]] = None,
    max_paths: int = 100_000,
    measure_engine: Optional[MeasureEngine] = None,
    jobs: int = 1,
    cache: Optional[SqliteStore] = None,
    stats_sink: Optional[PerfStats] = None,
) -> str:
    """Regenerate Table 1 (lower bounds on the probability of termination)."""
    if programs is None:
        report = run_batch(
            table1_suite(depth=depth, max_paths=max_paths),
            jobs=jobs,
            cache=cache,
            engine=measure_engine,
        )
        if stats_sink is not None:
            stats_sink.merge(report.stats)
        rows = table1_rows_from_results(report.results)
    else:
        programs = dict(programs)
        measure_engine = measure_engine or MeasureEngine()
        rows = []
        for name, program in programs.items():
            engine = LowerBoundEngine(
                strategy=program.strategy, measure_engine=measure_engine
            )
            started = time.perf_counter()
            result = engine.lower_bound(
                program.applied, max_steps=depth, max_paths=max_paths
            )
            elapsed_ms = (time.perf_counter() - started) * 1000
            rows.append(
                [
                    name,
                    _known_probability(program),
                    f"{float(result.probability):.10f}",
                    str(depth),
                    str(result.path_count),
                    f"{elapsed_ms:.0f}",
                ]
            )
    table = markdown_table(
        ["term", "Pterm", "lower bound", "depth", "paths", "t (ms)"], rows
    )
    return "## Table 1 — lower bounds on the probability of termination\n\n" + table


def table1_schedule_rows_from_results(
    results: Sequence[JobResult],
    programs: Optional[Mapping[str, Program]] = None,
) -> List[List[str]]:
    """Depth-column rows from ``lower-bound-schedule`` job results.

    One row per (program, scheduled depth), read off the job's recorded
    anytime trajectory -- the whole column is one incremental job, so the
    per-job timing is reported once, on the deepest row.
    """
    programs = dict(programs) if programs is not None else table1_programs()
    rows = []
    for result in results:
        name = result.spec.program
        if not result.ok:
            rows.append([name, "?", f"error: {result.error}", "-", "-", "-", "-"])
            continue
        payload = result.payload or {}
        trajectory = payload.get("trajectory", [])
        for position, point in enumerate(trajectory):
            final = position == len(trajectory) - 1
            probability = decode_number(point.get("probability", 0))
            gap = decode_number(point.get("anytime_gap", 0))
            rows.append(
                [
                    name if position == 0 else "",
                    _known_probability(programs.get(name)) if position == 0 else "",
                    f"{float(probability):.10f}",
                    str(point.get("depth", "?")),
                    str(point.get("path_count", "?")),
                    f"{float(gap):.3e}",
                    f"{result.elapsed_ms:.0f}" if final else "",
                ]
            )
    return rows


def table1_schedule_report(
    schedule: Sequence[int],
    max_paths: int = 100_000,
    target_gap=None,
    measure_engine: Optional[MeasureEngine] = None,
    jobs: int = 1,
    cache: Optional[SqliteStore] = None,
    stats_sink: Optional[PerfStats] = None,
) -> str:
    """Table 1 with a depth column: one *incremental* job per program.

    Each program's schedule runs over a single resumable exploration
    session (suspended paths resume across depths, every terminated path is
    measured once), and the rendered bounds at each depth are bit-identical
    to from-scratch runs there.
    """
    report = run_batch(
        schedule_suite(schedule, max_paths=max_paths, target_gap=target_gap),
        jobs=jobs,
        cache=cache,
        engine=measure_engine,
    )
    if stats_sink is not None:
        stats_sink.merge(report.stats)
    table = markdown_table(
        ["term", "Pterm", "lower bound", "depth", "paths", "gap <=", "t (ms)"],
        table1_schedule_rows_from_results(report.results),
    )
    return (
        "## Table 1 — anytime lower bounds over a depth schedule\n\n" + table
    )


def table2_rows_from_results(results: Sequence[JobResult]) -> List[List[str]]:
    """Table 2 rows from ``verify`` job results."""
    rows = []
    for result in results:
        name = result.spec.program
        if not result.ok:
            rows.append([name, "no", f"error: {result.error}", "-"])
            continue
        payload = result.payload or {}
        rows.append(
            [
                name,
                "yes" if payload.get("verified") else "no",
                payload.get("papprox") or "-",
                f"{result.elapsed_ms:.0f}",
            ]
        )
    return rows


def table2_report(
    programs: Optional[Mapping[str, Program]] = None,
    measure_engine: Optional[MeasureEngine] = None,
    jobs: int = 1,
    cache: Optional[SqliteStore] = None,
    stats_sink: Optional[PerfStats] = None,
) -> str:
    """Regenerate Table 2 (automatic AST verification with ``Papprox``)."""
    if programs is None:
        report = run_batch(
            table2_suite(), jobs=jobs, cache=cache, engine=measure_engine
        )
        if stats_sink is not None:
            stats_sink.merge(report.stats)
        rows = table2_rows_from_results(report.results)
    else:
        programs = dict(programs)
        measure_engine = measure_engine or MeasureEngine()
        rows = []
        for name, program in programs.items():
            started = time.perf_counter()
            result = verify_ast(program, engine=measure_engine)
            elapsed_ms = (time.perf_counter() - started) * 1000
            rows.append(
                [
                    name,
                    "yes" if result.verified else "no",
                    repr(result.papprox) if result.papprox is not None else "-",
                    f"{elapsed_ms:.0f}",
                ]
            )
    table = markdown_table(["term", "AST verified", "Papprox", "t (ms)"], rows)
    return "## Table 2 — automatic AST verification\n\n" + table


def classification_rows_from_results(results: Sequence[JobResult]) -> List[List[str]]:
    """Classification rows from ``classify`` job results."""
    rows = []
    for result in results:
        name = result.spec.program
        if not result.ok:
            rows.append([name, f"error: {result.error}", "-"])
            continue
        payload = result.payload or {}
        expected_calls = decode_number(payload.get("expected_calls_per_body"))
        rows.append(
            [
                name,
                payload.get("summary", "?"),
                "-" if expected_calls is None else f"{float(expected_calls):.4f}",
            ]
        )
    return rows


def classification_report(
    programs: Optional[Mapping[str, Program]] = None,
    measure_engine: Optional[MeasureEngine] = None,
    jobs: int = 1,
    cache: Optional[SqliteStore] = None,
    stats_sink: Optional[PerfStats] = None,
) -> str:
    """The combined AST/PAST classification of the benchmark programs.

    This extends the paper's tables with the PAST analyses of
    :mod:`repro.pastcheck`; nested or higher-order programs on which the
    counting analysis does not apply are reported as not verified.
    """
    if programs is None:
        report = run_batch(
            classify_suite(), jobs=jobs, cache=cache, engine=measure_engine
        )
        if stats_sink is not None:
            stats_sink.merge(report.stats)
        rows = classification_rows_from_results(report.results)
    else:
        programs = dict(programs)
        measure_engine = measure_engine or MeasureEngine()
        rows = []
        for name, program in programs.items():
            classification = classify_termination(program, engine=measure_engine)
            expected_calls = classification.past.expected_calls_per_body
            rows.append(
                [
                    name,
                    classification.verdict.value,
                    "-" if expected_calls is None else f"{float(expected_calls):.4f}",
                ]
            )
    table = markdown_table(
        ["term", "verdict", "worst-case E[calls per body]"], rows
    )
    return "## AST / PAST classification\n\n" + table


def full_report(
    depth: int = 50,
    measure_engine: Optional[MeasureEngine] = None,
    jobs: int = 1,
    cache: Optional[SqliteStore] = None,
    stats_sink: Optional[PerfStats] = None,
    schedule: Optional[Sequence[int]] = None,
    target_gap=None,
) -> str:
    """Every report section, concatenated (used by ``python -m repro report``).

    One shared measure engine backs all sections when the batch runs inline
    (``jobs <= 1``): Table 2 and the classification verify the same programs,
    so the second pass is answered from the cache.  With ``jobs > 1`` the
    sections fan out across worker processes, and with a ``cache`` the reuse
    persists across runs instead.  A ``schedule`` renders Table 1 in its
    anytime form (one incremental job per program, a depth column in the
    table) instead of the single-depth run.
    """
    measure_engine = measure_engine or MeasureEngine()
    sections: Dict[str, str] = {
        "table1": table1_schedule_report(
            schedule,
            target_gap=target_gap,
            measure_engine=measure_engine,
            jobs=jobs,
            cache=cache,
            stats_sink=stats_sink,
        )
        if schedule
        else table1_report(
            depth=depth,
            measure_engine=measure_engine,
            jobs=jobs,
            cache=cache,
            stats_sink=stats_sink,
        ),
        "table2": table2_report(
            measure_engine=measure_engine, jobs=jobs, cache=cache, stats_sink=stats_sink
        ),
        "classification": classification_report(
            measure_engine=measure_engine, jobs=jobs, cache=cache, stats_sink=stats_sink
        ),
    }
    return "\n\n".join(sections.values())

"""Persisted anytime schedules: one program's frontier, deepened in one process.

The paper's certified lower bounds are anytime -- each deeper enumeration of
interval traces can only raise the bound -- so a depth schedule is one
resumable :class:`~repro.lowerbound.engine.LowerBoundSession`.  This module
makes that session outlive its process:

* The :class:`~repro.symbolic.execute.ExplorationSession` is encoded
  (:mod:`repro.symbolic.codec`) and persisted in the batch store under a
  budget-independent :func:`frontier_key` after every scheduled depth,
  together with the trajectory rows recorded so far.
* A rerun (or a run after a crash) restores the frontier, replays the
  recorded rows for depths already reached, and continues stepping exactly
  where the persisted budget stopped.  Restored sessions credit their
  persisted counters, so per-depth rows *and* ``PerfStats`` are
  byte-identical to an uninterrupted run of the same schedule.

The daemon's named sessions persist through the same entries
(:mod:`repro.service.daemon`), so a session evicted there is adopted by a
CLI schedule over the same program, and vice versa.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import repro.telemetry as telemetry
from repro.batch.jobs import (
    decode_number,
    schedule_payload,
    trajectory_row,
    validate_schedule,
)
from repro.geometry.engine import MeasureEngine
from repro.lowerbound.engine import LowerBoundEngine, LowerBoundSession
from repro.programs.library import Program
from repro.spcf.contexts import Strategy
from repro.spcf.printer import pretty
from repro.symbolic.codec import CODEC_VERSION, decode_session, encode_session
from repro.symbolic.execute import SymbolicExplorer

FRONTIER_FORMAT_VERSION = 1
"""Envelope version of persisted frontier entries (distinct from the codec
version inside: the envelope adds the recorded trajectory rows)."""

__all__ = [
    "FRONTIER_FORMAT_VERSION",
    "DepthOutcome",
    "PersistedScheduleReport",
    "frontier_entry",
    "frontier_entry_parts",
    "frontier_key",
    "run_persisted_schedule",
]


def frontier_key(program: Program, max_paths: int) -> str:
    """The store key of a program's persisted exploration frontier.

    Deliberately *budget-independent* (no depth, no schedule): every
    schedule over the same resolved program deepens the same frontier, which
    is exactly what lets a rerun resume the math.  The key pins
    everything that changes the node list: the resolved terms, the
    evaluation strategy, the path cap, and the codec version.
    """
    material = json.dumps(
        {
            "codec": CODEC_VERSION,
            "fix": pretty(program.fix, unicode_symbols=False),
            "applied": pretty(program.applied, unicode_symbols=False),
            "strategy": program.strategy.name,
            "max_paths": max_paths,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def frontier_entry(encoded_session: list, rows: List[dict]) -> list:
    return [FRONTIER_FORMAT_VERSION, encoded_session, rows]


def frontier_entry_parts(entry) -> Optional[tuple]:
    """``(encoded_session, rows)`` from a store entry, or ``None`` if foreign."""
    if (
        not isinstance(entry, list)
        or len(entry) < 2
        or entry[0] != FRONTIER_FORMAT_VERSION
    ):
        return None
    rows = entry[2] if len(entry) > 2 and isinstance(entry[2], list) else []
    rows = [row for row in rows if isinstance(row, dict)]
    return entry[1], rows


@dataclass
class DepthOutcome:
    """How one scheduled depth was produced."""

    depth: int
    row: Dict[str, Any]
    """The trajectory row (:func:`repro.batch.jobs.trajectory_row`)."""

    replayed: bool = False
    """Served from the persisted trajectory without any stepping."""


@dataclass
class PersistedScheduleReport:
    """The outcome of one (possibly resumed) persisted schedule."""

    schedule: List[int]
    outcomes: List[DepthOutcome] = field(default_factory=list)
    resumed: bool = False
    restored_depth: int = 0

    @property
    def rows(self) -> List[Dict[str, Any]]:
        return [outcome.row for outcome in self.outcomes]

    def payload(self) -> Dict[str, Any]:
        """The ``lower-bound-schedule`` job payload these rows amount to.

        Byte-identical to :func:`repro.batch.jobs.run_job` on the same
        schedule, resumed or not -- the CI ``resume-smoke`` job ``cmp``'s
        the two encodings.
        """
        return schedule_payload(self.schedule, self.rows)


def _adoptable_frontier(store, engine, key, schedule, explorer) -> Optional[tuple]:
    """``(encoded, rows_by_depth, depth)`` of a persisted frontier this
    schedule can resume, or ``None``.

    Probe-decodes against a stats-less explorer: only a frontier whose
    recorded trajectory serves every already-reached depth of *this*
    schedule is adopted (budgets cannot shrink, so a frontier past a depth
    with no recorded row cannot produce that depth's result).
    """
    parts = frontier_entry_parts(store.load_frontier_entry(engine, key))
    if parts is None:
        return None
    encoded, persisted_rows = parts
    probe = decode_session(encoded, explorer, credit_stats=False)
    if probe is None:
        return None
    rows_by_depth = {
        int(row["depth"]): row
        for row in persisted_rows
        if isinstance(row.get("depth"), int)
    }
    if any(d not in rows_by_depth for d in schedule if d <= probe.max_steps):
        return None
    if telemetry.enabled():
        telemetry.emit(
            "frontier-resumed", key=key, depth=probe.max_steps, nodes=len(probe._nodes)
        )
    return encoded, rows_by_depth, probe.max_steps


def run_persisted_schedule(
    program: Program,
    schedule: Sequence[int],
    *,
    store,
    engine: MeasureEngine,
    max_paths: int = 200_000,
    strategy: Optional[Strategy] = None,
    target_gap=None,
    on_depth=None,
) -> PersistedScheduleReport:
    """Run a depth schedule over a store-persisted frontier.

    Restores the program's frontier if one fits, replays already-recorded
    depths, extends the rest and persists the frontier after each of them;
    ``target_gap`` stops the schedule once a row's anytime gap reaches it.
    Per-depth rows (and the stats counters) are byte-identical to
    :meth:`LowerBoundEngine.lower_bound_schedule` run from scratch.
    ``on_depth`` is called with each :class:`DepthOutcome` as it is produced.
    """
    schedule = validate_schedule(schedule)
    resolved_strategy = strategy or program.strategy
    if resolved_strategy is not program.strategy:
        program = Program(
            name=program.name,
            description=program.description,
            fix=program.fix,
            applied=program.applied,
            strategy=resolved_strategy,
        )
    key = frontier_key(program, max_paths)
    report = PersistedScheduleReport(schedule=schedule)
    bound_engine = LowerBoundEngine(
        strategy=resolved_strategy, measure_engine=engine
    )
    run = store.begin_run()

    # The adopted frontier is decoded a second time against the real
    # explorer with the stats sink, so the resumed process reports the same
    # counters an uninterrupted run would.
    exploration = None
    rows_by_depth: Dict[int, Dict[str, Any]] = {}
    adopted = _adoptable_frontier(
        store,
        engine,
        key,
        schedule,
        SymbolicExplorer(resolved_strategy, engine.registry, stats=None),
    )
    if adopted is not None:
        encoded, rows_by_depth, report.restored_depth = adopted
        exploration = decode_session(
            encoded, bound_engine._explorer, stats=engine.stats
        )
        report.resumed = True
    session = LowerBoundSession(
        bound_engine, program.applied, max_paths=max_paths, exploration=exploration
    )
    rows = [rows_by_depth[d] for d in sorted(rows_by_depth)]

    for depth in schedule:
        if depth <= report.restored_depth:
            outcome = DepthOutcome(depth=depth, row=rows_by_depth[depth], replayed=True)
        else:
            outcome = DepthOutcome(depth=depth, row=trajectory_row(session.extend(depth)))
            rows.append(outcome.row)
            store.merge_frontiers(
                engine,
                {key: frontier_entry(encode_session(session.exploration), rows)},
                run=run,
            )
            if telemetry.enabled():
                telemetry.emit(
                    "frontier-saved",
                    key=key,
                    depth=depth,
                    nodes=len(session.exploration._nodes),
                )
        report.outcomes.append(outcome)
        if on_depth is not None:
            on_depth(outcome)
        if target_gap is not None:
            gap = decode_number(outcome.row.get("anytime_gap"))
            if gap is not None and gap <= target_gap:
                break
    return report

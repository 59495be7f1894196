"""Distributed anytime deepening: persisted, sharded, work-stolen frontiers.

This module turns one hard program's depth schedule into fleet work while
keeping the paper's anytime semantics *bit-identical* to a single process:

* The master :class:`~repro.symbolic.execute.ExplorationSession` is encoded
  (:mod:`repro.symbolic.codec`) and persisted in the batch store under a
  budget-independent :func:`frontier_key` after every scheduled depth, so a
  run that dies resumes the math -- restored sessions replay their recorded
  trajectory rows for depths already reached and continue stepping exactly
  where the persisted budget stopped.
* To deepen one more depth, the suspended frontier is split into per-subtree
  shards (contiguous ranges of the breadth-first key order), the shard
  inputs are written to the store (``<key>:<depth>:<i>:in``), and one
  ``explore-shard`` job per worker slot is fanned out through the supervised
  :func:`repro.batch.runner.run_batch` pool -- inheriting its job timeouts,
  bounded retries and pool resurrection.
* Each worker claims shards under non-blocking ``fcntl`` locks in
  ``<store>/frontier-claims/`` (a dead claimant's lock releases itself, the
  same liveness probe the merge-intent journal uses), *preferring its
  assigned shard but stealing any unclaimed one* when idle, extends the
  shard to the target depth, and merges the result back to the store
  (``...:out``).  Shard outputs are deterministic, so a double execution
  under a lost lock merges the identical entry -- harmless.
* The supervisor absorbs the shard results back into the master session
  (:meth:`~repro.symbolic.execute.ExplorationSession.absorb`) and replays
  the merged node list through the ordinary
  :meth:`~repro.lowerbound.engine.LowerBoundSession.extend`, so the
  per-depth :class:`~repro.lowerbound.result.LowerBoundResult` -- and the
  stats counters -- are byte-identical to a single-process run of the same
  schedule.  Shards a worker never completed (retries exhausted) are
  extended inline; a ``max_paths`` cap that would have bound in-process
  falls back to an inline extend of the same nodes
  (:class:`~repro.symbolic.execute.FrontierCapError`).

Crash-resume makes no step twice: shard outputs already in the store are
reused verbatim on resume (the split is a pure function of the restored
session, so the input shards match), and a worker killed mid-shard never
merged anything, so its shard simply re-runs from the persisted input.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro.telemetry as telemetry
from repro.geometry.engine import MeasureEngine
from repro.lowerbound.engine import LowerBoundEngine, LowerBoundSession
from repro.programs.library import Program
from repro.spcf.contexts import Strategy
from repro.spcf.printer import pretty
from repro.symbolic.codec import (
    CODEC_VERSION,
    decode_session,
    encode_session,
    session_counters,
    split_session,
)
from repro.symbolic.execute import FrontierCapError, SymbolicExplorer

FRONTIER_FORMAT_VERSION = 1
"""Envelope version of persisted frontier entries (distinct from the codec
version inside: the envelope adds trajectory rows and sharding metadata)."""

__all__ = [
    "FRONTIER_FORMAT_VERSION",
    "DepthOutcome",
    "frontier_entry",
    "frontier_entry_parts",
    "DistributedScheduleReport",
    "execute_shards",
    "frontier_key",
    "run_distributed_schedule",
    "shard_entry_key",
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


def shard_entry_key(master: str, depth: int, index: int, side: str) -> str:
    """Store key of one shard artifact (``side`` is ``"in"`` or ``"out"``)."""
    return f"{master}:{depth}:{index}:{side}"


def _claim_name(master: str, depth: int, index: int) -> str:
    return f"{master[:16]}-{depth}-{index}"


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


class _ShardClaims:
    """Non-blocking advisory claims on shards, one lock file per shard.

    The lock is *held* for the duration of the shard's execution: a claim
    observed busy means a live worker is on it, and a worker that dies
    mid-shard releases its lock with its process -- the next scan (a retried
    job, or an idle worker stealing) claims the shard again.  Where
    :mod:`fcntl` is unavailable claims always succeed; shard outputs are
    deterministic, so duplicate execution merges identical entries.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory) / "frontier-claims"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._held: Dict[str, Any] = {}

    def try_claim(self, name: str) -> bool:
        try:
            import fcntl
        except ImportError:
            self._held[name] = None
            return True
        handle = open(self.directory / f"{name}.lock", "w")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            return False
        self._held[name] = handle
        return True

    def release(self, name: str) -> None:
        handle = self._held.pop(name, None)
        if handle is None:
            return
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except (ImportError, OSError):
            pass
        try:
            handle.close()
        except OSError:
            pass

    def release_all(self) -> None:
        for name in list(self._held):
            self.release(name)


# ---------------------------------------------------------------------------
# Worker side: the ``explore-shard`` analysis.
# ---------------------------------------------------------------------------


def execute_shards(
    program: Program, params: Dict[str, Any], engine: MeasureEngine
) -> Dict[str, Any]:
    """One worker slot's deepening pass (the ``explore-shard`` job body).

    Scans the depth's shards starting at the assigned ``prefer`` index,
    claims and extends every shard it can get, and keeps scanning until
    every shard is either merged back (``:out`` present) or claimed by a
    live worker.  Claiming a shard other than ``prefer`` is a *steal* --
    how idle workers absorb the stragglers of uneven subtree splits or of a
    killed sibling.
    """
    from repro.batch.store_sqlite import open_store

    strategy = program.strategy
    if params["strategy"] is not None:
        strategy = Strategy[params["strategy"]]
    store = open_store(params["store_dir"])
    master = params["frontier"]
    depth = int(params["depth"])
    count = int(params["shards"])
    prefer = int(params["prefer"]) % max(count, 1)
    explorer = SymbolicExplorer(strategy, engine.registry, stats=engine.stats)
    claims = _ShardClaims(store.directory)
    executed: List[int] = []
    stolen: List[int] = []
    steps_total = 0
    order = list(range(prefer, count)) + list(range(0, prefer))
    try:
        made_progress = True
        while made_progress:
            made_progress = False
            for index in order:
                # Targeted single-key reads: the scan polls every shard on
                # every pass, and parsing the whole frontier kind (master
                # encoding included) per poll would swamp the stepping.
                out_key = shard_entry_key(master, depth, index, "out")
                if store.load_frontier_entry(engine, out_key) is not None:
                    continue
                entry = store.load_frontier_entry(
                    engine, shard_entry_key(master, depth, index, "in")
                )
                if entry is None:
                    continue
                name = _claim_name(master, depth, index)
                if not claims.try_claim(name):
                    continue  # a live worker is on it
                try:
                    # Re-check under the claim: the previous holder may have
                    # merged its output after our scan read the store.
                    if store.load_frontier_entry(engine, out_key) is not None:
                        continue
                    parts = frontier_entry_parts(entry)
                    if parts is None:
                        continue  # foreign version; the supervisor runs it inline
                    shard = decode_session(
                        parts[0], explorer, credit_stats=False
                    )
                    if shard is None:
                        continue  # damaged; the supervisor runs it inline
                    is_steal = index != prefer
                    if telemetry.enabled():
                        telemetry.emit(
                            "shard-stolen" if is_steal else "shard-claimed",
                            key=master,
                            shard=index,
                            preferred=prefer,
                        )
                    shard.extend(depth)
                    steps = session_counters(shard)[0]
                    store.merge_frontiers(
                        engine,
                        {out_key: frontier_entry(encode_session(shard), [])},
                    )
                    if telemetry.enabled():
                        telemetry.emit(
                            "shard-completed",
                            key=master,
                            shard=index,
                            depth=depth,
                            steps=steps,
                        )
                    executed.append(index)
                    if is_steal:
                        stolen.append(index)
                    steps_total += steps
                    engine.stats.shards_executed += 1
                    if is_steal:
                        engine.stats.shards_stolen += 1
                    made_progress = True
                finally:
                    claims.release(name)
    finally:
        claims.release_all()
    return {
        "executed": executed,
        "stolen": stolen,
        "steps": steps_total,
        "shards": count,
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# Supervisor side.
# ---------------------------------------------------------------------------


@dataclass
class DepthOutcome:
    """How one scheduled depth was produced."""

    depth: int
    row: Dict[str, Any]
    """The trajectory row (the exact dict shape of a ``lower-bound-schedule``
    job payload row), byte-identical to a single-process run's."""

    replayed: bool = False
    """Served from the persisted trajectory without any stepping."""

    shards: int = 0
    """Shards the depth was split into (0 = extended inline)."""

    stolen: int = 0
    inline_shards: int = 0
    """Shards the supervisor had to extend itself (worker retries exhausted,
    or a damaged/cap-bound shard result)."""


@dataclass
class DistributedScheduleReport:
    """The outcome of one (possibly resumed, possibly distributed) schedule."""

    program: str
    key: str
    schedule: List[int]
    outcomes: List[DepthOutcome] = field(default_factory=list)
    resumed: bool = False
    restored_depth: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0

    @property
    def rows(self) -> List[Dict[str, Any]]:
        return [outcome.row for outcome in self.outcomes]

    def payload(self) -> Dict[str, Any]:
        """The ``lower-bound-schedule`` job payload these rows amount to.

        Byte-identical to :func:`repro.batch.jobs.run_job` on the same
        schedule in one process -- the CI ``dist-smoke`` job ``cmp``'s the
        two encodings.
        """
        trajectory = self.rows
        final = trajectory[-1]
        return {
            "schedule": list(self.schedule),
            "depths_run": len(trajectory),
            "trajectory": trajectory,
            "probability": final["probability"],
            "expected_steps": final["expected_steps"],
            "measure_gap": final["measure_gap"],
            "path_count": final["path_count"],
            "exhaustive": final["exhaustive"],
            "exact_measures": final["exact_measures"],
        }

    def summary(self) -> str:
        replayed = sum(1 for outcome in self.outcomes if outcome.replayed)
        sharded = sum(outcome.shards for outcome in self.outcomes)
        stolen = sum(outcome.stolen for outcome in self.outcomes)
        inline = sum(outcome.inline_shards for outcome in self.outcomes)
        lines = [
            f"frontier key     : {self.key[:16]}...",
            f"depths           : {len(self.outcomes)} run, {replayed} replayed "
            "from the persisted trajectory",
            f"workers          : {self.jobs}",
            f"frontier shards  : {sharded} ({stolen} stolen, {inline} inline)",
            f"elapsed          : {self.elapsed_seconds:.3f}s",
        ]
        if self.resumed:
            lines.insert(
                1, f"resumed          : frontier restored at depth {self.restored_depth}"
            )
        return "\n".join(lines)


def _result_row(result) -> Dict[str, Any]:
    """One trajectory row, exactly as ``jobs._execute`` builds them."""
    from repro.batch.jobs import encode_number

    return {
        "depth": result.max_steps,
        "probability": encode_number(result.probability),
        "expected_steps": encode_number(result.expected_steps),
        "measure_gap": encode_number(result.measure_gap),
        "anytime_gap": encode_number(result.anytime_gap()),
        "path_count": result.path_count,
        "exhaustive": result.exhaustive,
        "exact_measures": result.exact_measures,
    }


def run_distributed_schedule(
    program_source: str,
    program: Program,
    schedule: Sequence[int],
    *,
    store,
    engine: MeasureEngine,
    jobs: int = 1,
    max_paths: int = 200_000,
    strategy: Optional[Strategy] = None,
    target_gap=None,
    job_timeout: Optional[float] = None,
    retry_policy=None,
    progress=None,
    on_depth=None,
) -> DistributedScheduleReport:
    """Run a depth schedule over a store-persisted, worker-sharded frontier.

    Per-depth results (and the final stats counters) are byte-identical to
    :meth:`LowerBoundEngine.lower_bound_schedule` in one process; the store
    makes them crash-resumable and ``jobs > 1`` spreads the stepping over
    the supervised batch pool.  See the module docstring for the protocol.
    """
    from repro.batch.jobs import decode_number

    started = time.perf_counter()
    schedule = [int(depth) for depth in schedule]
    if (
        not schedule
        or schedule[0] <= 0
        or any(second < first for first, second in zip(schedule, schedule[1:]))
    ):
        raise ValueError(
            "schedule must be a non-empty, non-decreasing list of "
            f"positive depths, got {schedule!r}"
        )
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
    report = DistributedScheduleReport(
        program=program_source, key=key, schedule=list(schedule), jobs=jobs
    )
    bound_engine = LowerBoundEngine(
        strategy=resolved_strategy, measure_engine=engine
    )
    run = store.begin_run()
    detached = SymbolicExplorer(resolved_strategy, engine.registry, stats=None)

    # -- restore ------------------------------------------------------------
    # Probe-decode against a stats-less explorer first: only a frontier
    # whose recorded trajectory can serve every already-reached depth of
    # *this* schedule is adopted (budgets cannot shrink, so a frontier past
    # a depth with no recorded row cannot produce that depth's result).
    # The adopted frontier is decoded a second time against the real
    # explorer with ``credit_stats`` on, so the resumed process reports the
    # same counters an uninterrupted run would.
    exploration = None
    rows_by_depth: Dict[int, Dict[str, Any]] = {}
    entry = store.load_frontier_entry(engine, key)
    if entry is not None:
        parts = frontier_entry_parts(entry)
        if parts is not None:
            encoded, persisted_rows = parts
            probe = decode_session(encoded, detached, credit_stats=False)
            if probe is not None:
                candidate = {
                    int(row["depth"]): row
                    for row in persisted_rows
                    if isinstance(row.get("depth"), int)
                }
                replayable = [d for d in schedule if d <= probe.max_steps]
                if all(d in candidate for d in replayable):
                    exploration = decode_session(
                        encoded, bound_engine._explorer, stats=engine.stats
                    )
                    rows_by_depth = candidate
                    report.resumed = True
                    report.restored_depth = probe.max_steps
                    if telemetry.enabled():
                        telemetry.emit(
                            "frontier-resumed",
                            key=key,
                            depth=probe.max_steps,
                            nodes=len(probe._nodes),
                        )
    session = LowerBoundSession(
        bound_engine, program.applied, max_paths=max_paths, exploration=exploration
    )

    rows: List[Dict[str, Any]] = [rows_by_depth[d] for d in sorted(rows_by_depth)]

    def persist(depth: int) -> None:
        encoded = encode_session(session.exploration)
        store.merge_frontiers(
            engine, {key: frontier_entry(encoded, rows)}, run=run
        )
        if telemetry.enabled():
            telemetry.emit(
                "frontier-saved",
                key=key,
                depth=depth,
                nodes=len(session.exploration._nodes),
            )

    stopped = False
    for depth in schedule:
        if stopped:
            break
        if depth <= report.restored_depth:
            row = rows_by_depth[depth]
            outcome = DepthOutcome(depth=depth, row=row, replayed=True)
            report.outcomes.append(outcome)
            if on_depth is not None:
                on_depth(outcome)
        else:
            outcome = _deepen(
                session,
                depth,
                program_source=program_source,
                program=program,
                strategy=resolved_strategy,
                key=key,
                store=store,
                engine=engine,
                detached=detached,
                jobs=jobs,
                max_paths=max_paths,
                job_timeout=job_timeout,
                retry_policy=retry_policy,
                progress=progress,
                report=report,
            )
            rows.append(outcome.row)
            report.outcomes.append(outcome)
            persist(depth)
            row = outcome.row
            if on_depth is not None:
                on_depth(outcome)
        if target_gap is not None:
            gap = decode_number(row.get("anytime_gap"))
            if gap is not None and gap <= target_gap:
                stopped = True
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _deepen(
    session: LowerBoundSession,
    depth: int,
    *,
    program_source: str,
    program: Program,
    strategy: Strategy,
    key: str,
    store,
    engine: MeasureEngine,
    detached: SymbolicExplorer,
    jobs: int,
    max_paths: int,
    job_timeout,
    retry_policy,
    progress,
    report: DistributedScheduleReport,
) -> DepthOutcome:
    """Extend one depth, distributing the frontier when it pays."""
    from repro.batch.jobs import JobSpec
    from repro.batch.runner import run_batch

    exploration = session.exploration
    frontier_size = exploration.frontier_size
    if jobs <= 1 or frontier_size < 2:
        result = session.extend(depth)
        return DepthOutcome(depth=depth, row=_result_row(result))

    shard_count = min(frontier_size, jobs * 2)
    shards = split_session(exploration, shard_count)
    shard_count = len(shards)
    in_entries = {
        shard_entry_key(key, depth, index, "in"): frontier_entry(shard, [])
        for index, shard in enumerate(shards)
    }
    store.merge_frontiers(engine, in_entries, touched_keys=[key])

    specs = [
        JobSpec(
            program=program_source,
            analysis="explore-shard",
            params={
                "frontier": key,
                "depth": depth,
                "shards": shard_count,
                "prefer": slot,
                "max_paths": max_paths,
                "strategy": strategy.name,
                "store_dir": str(store.directory),
            },
            # Long shards first: slot i starts at shard i, and shards are
            # ordered by frontier position, so the hint just spreads slots.
            cost_hint=float(shard_count - slot),
        )
        for slot in range(min(jobs, shard_count))
    ]
    batch = run_batch(
        specs,
        jobs=jobs,
        cache=None,
        job_timeout=job_timeout,
        retry_policy=retry_policy,
        progress=progress,
    )
    report.retries += batch.stats.retries
    report.timeouts += batch.stats.timeouts
    report.worker_restarts += batch.stats.worker_restarts
    # Only the supervisor-side recovery counters flow into the engine stats:
    # the workers' stepping counters are reconciled exactly by ``absorb``
    # below (summing the worker deltas too would double-count).
    engine.stats.retries += batch.stats.retries
    engine.stats.timeouts += batch.stats.timeouts
    engine.stats.worker_restarts += batch.stats.worker_restarts

    stolen = 0
    for job_result in batch.results:
        if job_result.ok and isinstance(job_result.payload, dict):
            stolen += len(job_result.payload.get("stolen", ()))

    decoded = []
    inline_shards = 0
    for index, shard_encoded in enumerate(shards):
        out_entry = store.load_frontier_entry(
            engine, shard_entry_key(key, depth, index, "out")
        )
        shard_session = None
        if out_entry is not None:
            parts = frontier_entry_parts(out_entry)
            if parts is not None:
                shard_session = decode_session(
                    parts[0], detached, credit_stats=False
                )
                if shard_session is not None and shard_session.max_steps != depth:
                    shard_session = None
        if shard_session is None:
            # The fleet never delivered this shard (retries exhausted, or a
            # damaged entry): the supervisor extends it inline from the same
            # input, preserving exactness at the cost of parallelism.
            shard_session = decode_session(shard_encoded, detached, credit_stats=False)
            if shard_session is None:  # cannot happen: we just encoded it
                raise RuntimeError(f"frontier shard {index} round-trip failed")
            shard_session.extend(depth)
            store.merge_frontiers(
                engine,
                {
                    shard_entry_key(key, depth, index, "out"): frontier_entry(
                        encode_session(shard_session), []
                    )
                },
            )
            inline_shards += 1
            engine.stats.shards_executed += 1
        decoded.append(shard_session)

    executed_by_workers = shard_count - inline_shards
    engine.stats.shards_executed += executed_by_workers
    engine.stats.shards_stolen += stolen

    try:
        exploration.absorb(decoded, depth)
    except FrontierCapError:
        # The path cap would have bound in-process; the capped single-process
        # result is the contract, so produce exactly that.
        result = session.extend(depth)
        return DepthOutcome(
            depth=depth,
            row=_result_row(result),
            shards=shard_count,
            stolen=stolen,
            inline_shards=inline_shards,
        )
    result = session.extend(depth)
    return DepthOutcome(
        depth=depth,
        row=_result_row(result),
        shards=shard_count,
        stolen=stolen,
        inline_shards=inline_shards,
    )

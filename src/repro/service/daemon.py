"""``AnalysisDaemon``: the long-lived analysis service behind ``repro serve``.

One daemon process owns

* a single hot :class:`~repro.geometry.engine.MeasureEngine`, seeded from
  the persistent store at startup, so every client draws from one memo
  table and nobody pays store hydration per request;
* a dedicated **engine thread** (a one-worker executor): the engine and its
  session objects are single-threaded by construction, so every
  computation -- and every store write -- runs there, while the asyncio
  event loop multiplexes any number of client connections around it;
* an **in-flight coalescing map** keyed by the same content hashes the
  persistent stores use (:meth:`~repro.batch.jobs.JobSpec.key`, built on
  the engine's ``persistent_key`` canonicalization): a request identical to
  one already computing does not queue a second computation -- it awaits
  the same future and receives the same result object *before* the first
  client has even been answered.  Each join is counted and emitted as a
  ``coalesce-hit`` telemetry event;
* named :class:`~repro.lowerbound.engine.LowerBoundSession` objects: a
  client passing ``session: NAME`` to ``lower-bound`` deepens a resumable
  anytime computation across requests (budgets non-decreasing per session),
  sharing it with every other client that names the same session.

Results are **byte-identical to one-shot CLI runs**: requests execute as
the exact :class:`~repro.batch.jobs.JobSpec` -> :func:`~repro.batch.jobs.run_job`
pipeline the batch runner uses, the payload dictionary included.  With a
``--cache-dir``, finished jobs and fresh measure/sweep entries are persisted
after every computation (the same envelopes, same GC touch stamps), so the
daemon and the batch CLI interoperate on one store.

The daemon is a full telemetry emitter: armed with ``--trace`` it wraps
every request in a ``request`` span and emits ``coalesce-hit`` events, so
``repro trace summarize`` / ``trace watch`` work unchanged against a live
service.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.batch.jobs import ANALYSES, JobResult, JobSpec, run_job
from repro.config import ReproConfig
from repro.geometry.engine import MeasureEngine
from repro.service import protocol
from repro.service.protocol import ProtocolError

__all__ = ["AnalysisDaemon", "DaemonCounters", "serve"]

_MAX_REQUEST_BYTES = 4 * 1024 * 1024
"""Per-line read limit: an analysis request is small; a 4 MiB line is not
a request."""


@dataclass
class DaemonCounters:
    """The daemon's own bookkeeping, served verbatim by the ``stats`` method.

    The coalescing acceptance check reads as
    ``computations + job_cache_hits + coalesced == requests`` for the
    analysis methods: every request was either computed, answered from the
    persistent job store, or joined an in-flight twin.
    """

    requests: int = 0
    coalesced: int = 0
    computations: int = 0
    job_cache_hits: int = 0
    errors: int = 0
    connections: int = 0
    sessions_evicted: int = 0
    by_method: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "computations": self.computations,
            "job_cache_hits": self.job_cache_hits,
            "errors": self.errors,
            "connections": self.connections,
            "sessions_evicted": self.sessions_evicted,
            "by_method": dict(sorted(self.by_method.items())),
        }


class AnalysisDaemon:
    """The service core: methods, coalescing, sessions, persistence.

    Separable from the socket server so tests can drive it in-process; the
    public entry point is :func:`serve` / ``python -m repro serve``.
    """

    def __init__(
        self,
        config: Optional[ReproConfig] = None,
        engine: Optional[MeasureEngine] = None,
    ) -> None:
        self.config = config or ReproConfig()
        self.engine = engine if engine is not None else self.config.measure_engine()
        self.store = self.config.open_store()
        self.counters = DaemonCounters()
        self.started_monotonic = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        # name -> (program, LowerBoundSession, {depth: trajectory row}).
        # With a store, each session's frontier is persisted after every
        # extend (and on eviction/close) and restored on creation, so the
        # exploration survives daemon restarts and is shared with CLI
        # schedule runs over the same program.
        self._sessions: Dict[str, Tuple[str, Any, Dict[int, dict]]] = {}
        # Last-touch stamp per named session (monotonic seconds), the basis
        # of the --session-ttl / --max-sessions eviction policy.
        self._session_touched: Dict[str, float] = {}
        self._stopping = asyncio.Event()
        self._run: Optional[int] = None
        self._seed_from_store()

    # -- lifecycle -------------------------------------------------------------

    def _seed_from_store(self) -> None:
        """Hydrate the hot engine once, at startup -- the cost every CLI
        invocation used to pay per run."""
        if self.store is None:
            return
        self.engine.import_cache_entries(self.store.load_measures(self.engine))
        self.engine.import_sweep_entries(self.store.load_sweeps(self.engine))
        self._run = self.store.begin_run()

    def close(self) -> None:
        """Flush GC touch stamps and release the engine thread."""
        for program, session, rows in self._sessions.values():
            # Live sessions survive an orderly shutdown the same way evicted
            # ones do: frontier + trajectory to the store.
            self._persist_frontier(program, session, rows)
        if self.store is not None:
            touched_measures, touched_sweeps = self.engine.drain_persistent_hit_keys()
            self.store.merge_measures(
                self.engine,
                self.engine.export_cache_entries(),
                run=self._run,
                touched_keys=touched_measures,
            )
            self.store.merge_sweeps(
                self.engine,
                self.engine.export_sweep_entries(),
                run=self._run,
                touched_keys=touched_sweeps,
            )
        telemetry.emit_counters(self.engine.stats)
        self._executor.shutdown(wait=True)

    @property
    def stopping(self) -> asyncio.Event:
        return self._stopping

    # -- request dispatch ------------------------------------------------------

    async def dispatch(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request; raises :class:`ProtocolError` on bad input."""
        self.counters.requests += 1
        self.counters.by_method[method] = self.counters.by_method.get(method, 0) + 1
        with telemetry.span("request", method=method):
            try:
                return await self._dispatch_inner(method, params)
            except ProtocolError:
                self.counters.errors += 1
                raise
            except Exception as exc:
                self.counters.errors += 1
                raise ProtocolError(
                    protocol.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
                )

    async def _dispatch_inner(
        self, method: str, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        if method == "ping":
            return {
                "pid": os.getpid(),
                "protocol": protocol.PROTOCOL_VERSION,
                "uptime_seconds": round(time.monotonic() - self.started_monotonic, 3),
            }
        if method == "stats":
            return self.stats()
        if method == "shutdown":
            self._stopping.set()
            return {"stopping": True}
        if method == "measure":
            return await self._measure(params)
        if method == "table1":
            return await self._table1(params)
        if method in ANALYSES:
            if method == "lower-bound" and "session" in params:
                return await self._session_extend(params)
            spec = self._job_spec(method, params)
            result, cached, coalesced = await self._job_result(spec)
            return self._job_response(result, cached, coalesced)
        raise ProtocolError(protocol.METHOD_NOT_FOUND, f"unknown method {method!r}")

    def stats(self) -> Dict[str, Any]:
        return {
            "counters": self.counters.as_dict(),
            "engine": self.engine.stats.as_dict(),
            # Read-only: the collector as the process entry point left it
            # (``python -m repro`` freezes the start-up heap).
            "gc": {
                "frozen": gc.get_freeze_count(),
                "generations": gc.get_stats(),
                "threshold": list(gc.get_threshold()),
            },
            "inflight": len(self._inflight),
            "sessions": {
                name: {"program": program, "max_steps": session.max_steps}
                for name, (program, session, _rows) in sorted(self._sessions.items())
            },
            "sessions_live": len(self._sessions),
            "sessions_evicted": self.counters.sessions_evicted,
            "store": {
                "backend": type(self.store).__name__ if self.store else None,
                "directory": self.config.cache_dir,
            },
            "uptime_seconds": round(time.monotonic() - self.started_monotonic, 3),
        }

    # -- the coalesced job pipeline --------------------------------------------

    def _job_spec(self, analysis: str, params: Dict[str, Any]) -> JobSpec:
        program = params.get("program")
        if not isinstance(program, str) or not program:
            raise ProtocolError(
                protocol.INVALID_PARAMS, f"{analysis} requires a 'program' string"
            )
        job_params = {
            key: value
            for key, value in params.items()
            if key not in ("program", "session")
        }
        if "schedule" in job_params and isinstance(job_params["schedule"], list):
            job_params["schedule"] = tuple(job_params["schedule"])
        try:
            return JobSpec(program=program, analysis=analysis, params=job_params)
        except ValueError as error:
            raise ProtocolError(protocol.INVALID_PARAMS, str(error))

    async def _job_result(self, spec: JobSpec) -> Tuple[JobResult, bool, bool]:
        """Run ``spec`` through cache + coalescing -> (result, cached, joined).

        The coalesce key is the job's content hash -- the same
        ``persistent_key``-derived identity the stores use -- so "identical
        request" means identical resolved program, analysis and canonical
        parameters, not identical request text.
        """
        try:
            key = spec.key()
        except Exception:
            # An unkeyable spec (unparseable program) cannot coalesce or
            # cache; run_job turns it into a structured error result.
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._executor, lambda: run_job(spec, self.engine)
            )
            return result, False, False

        existing = self._inflight.get(key)
        if existing is not None:
            self.counters.coalesced += 1
            telemetry.emit("coalesce-hit", method=spec.analysis, key=key)
            result, cached = await asyncio.shield(existing)
            return result, cached, True

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # A coalesced awaiter may be cancelled before retrieving an error;
        # mark the exception retrieved so the loop never logs a leak.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future
        try:
            result, cached = await loop.run_in_executor(
                self._executor, lambda: self._compute_job(spec, key)
            )
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result((result, cached))
            return result, cached, False
        finally:
            self._inflight.pop(key, None)

    def _compute_job(self, spec: JobSpec, key: str) -> Tuple[JobResult, bool]:
        """Engine-thread half of a job request: cache probe, compute, persist."""
        if self.store is not None:
            cached = self.store.load_job(key)
            if cached is not None:
                self.counters.job_cache_hits += 1
                return cached, True
        self.counters.computations += 1
        result = run_job(spec, self.engine)
        if self.store is not None:
            self.store.store_job(result)
            touched_measures, touched_sweeps = self.engine.drain_persistent_hit_keys()
            self.store.merge_measures(
                self.engine,
                self.engine.export_cache_entries(),
                run=self._run,
                touched_keys=touched_measures,
            )
            self.store.merge_sweeps(
                self.engine,
                self.engine.export_sweep_entries(),
                run=self._run,
                touched_keys=touched_sweeps,
            )
        return result, False

    @staticmethod
    def _job_response(
        result: JobResult, cached: bool, coalesced: bool
    ) -> Dict[str, Any]:
        # "job" is byte-identical (as canonical JSON) to the batch CLI's
        # JSONL line for the same spec; the flags are daemon bookkeeping.
        return {
            "job": result.deterministic_dict(),
            "cached": cached,
            "coalesced": coalesced,
            "elapsed_ms": round(result.elapsed_ms, 3),
        }

    # -- methods beyond plain jobs ---------------------------------------------

    async def _measure(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The minimal engine query: program + depth -> certified bound.

        Sugar over ``lower-bound`` sharing its coalesce key, so a ``measure``
        and a ``lower-bound`` for the same program join the same in-flight
        computation.
        """
        allowed = {"program", "depth", "max_paths"}
        unknown = set(params) - allowed
        if unknown:
            raise ProtocolError(
                protocol.INVALID_PARAMS, f"unknown parameter(s) {sorted(unknown)}"
            )
        spec = self._job_spec("lower-bound", params)
        result, cached, coalesced = await self._job_result(spec)
        if not result.ok:
            raise ProtocolError(
                protocol.ANALYSIS_ERROR, result.error or "analysis failed"
            )
        payload = result.payload or {}
        return {
            "program": spec.program,
            "probability": payload.get("probability"),
            "measure_gap": payload.get("measure_gap"),
            "path_count": payload.get("path_count"),
            "exhaustive": payload.get("exhaustive"),
            "cached": cached,
            "coalesced": coalesced,
        }

    async def _table1(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The paper's Table 1, one coalesced job per program, concurrently.

        Concurrent ``table1`` requests -- or a ``table1`` racing individual
        ``lower-bound`` requests for member programs -- share per-program
        computations through the same in-flight map.
        """
        from repro.batch.suites import table1_suite

        allowed = {"depth"}
        unknown = set(params) - allowed
        if unknown:
            raise ProtocolError(
                protocol.INVALID_PARAMS, f"unknown parameter(s) {sorted(unknown)}"
            )
        depth = params.get("depth", 50)
        if not isinstance(depth, int) or depth <= 0:
            raise ProtocolError(protocol.INVALID_PARAMS, "'depth' must be a positive int")
        specs = table1_suite(depth=depth)
        outcomes = await asyncio.gather(
            *(self._job_result(spec) for spec in specs)
        )
        return {
            "depth": depth,
            "rows": [
                self._job_response(result, cached, coalesced)
                for result, cached, coalesced in outcomes
            ],
        }

    async def _session_extend(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``lower-bound`` with ``session: NAME``: deepen a shared anytime
        session.  Session requests serialize on the engine thread and are
        inherently stateful, so they bypass the coalescing map."""
        name = params.get("session")
        if not isinstance(name, str) or not name:
            raise ProtocolError(protocol.INVALID_PARAMS, "'session' must be a name")
        program = params.get("program")
        if not isinstance(program, str) or not program:
            raise ProtocolError(protocol.INVALID_PARAMS, "'program' is required")
        depth = params.get("depth", 50)
        if not isinstance(depth, int) or depth <= 0:
            raise ProtocolError(protocol.INVALID_PARAMS, "'depth' must be a positive int")
        max_paths = params.get("max_paths", 200_000)
        loop = asyncio.get_running_loop()
        try:
            result, session_depth = await loop.run_in_executor(
                self._executor,
                lambda: self._extend_session(name, program, depth, max_paths),
            )
        except ValueError as error:
            raise ProtocolError(protocol.INVALID_PARAMS, str(error))
        from repro.batch.jobs import encode_number

        return {
            "session": name,
            "program": program,
            "depth": result.max_steps,
            "session_max_steps": session_depth,
            "probability": encode_number(result.probability),
            "expected_steps": encode_number(result.expected_steps),
            "measure_gap": encode_number(result.measure_gap),
            "anytime_gap": encode_number(result.anytime_gap()),
            "path_count": result.path_count,
            "exhaustive": result.exhaustive,
            "exact_measures": result.exact_measures,
        }

    def _evict_sessions(self, keep: Optional[str] = None) -> None:
        """Apply the session GC policy (engine thread only).

        ``--session-ttl`` evicts sessions idle longer than the TTL;
        ``--max-sessions`` then evicts least-recently-used sessions past
        the cap.  ``keep`` -- the session the current request touches -- is
        never evicted: it is in use by definition, and the cap is floored
        at one so the active session always fits.
        """
        ttl = self.config.session_ttl
        cap = self.config.max_sessions
        if ttl is None and cap is None:
            return
        now = time.monotonic()
        if ttl is not None:
            for name in [
                name
                for name, touched in self._session_touched.items()
                if name != keep and now - touched > ttl
            ]:
                self._evict_session(name, "idle", now)
        if cap is not None:
            cap = max(1, cap)
            while len(self._sessions) > cap:
                victims = [name for name in self._sessions if name != keep]
                if not victims:
                    break
                victim = min(
                    victims, key=lambda name: self._session_touched.get(name, 0.0)
                )
                self._evict_session(victim, "capacity", now)

    def _evict_session(self, name: str, reason: str, now: float) -> None:
        program, session, rows = self._sessions.pop(name)
        # An evicted session's exploration is not lost: its frontier (and
        # recorded trajectory) goes to the store, so the next client naming
        # it -- or a CLI schedule over the same program -- resumes the math.
        self._persist_frontier(program, session, rows)
        idle = now - self._session_touched.pop(name, now)
        self.counters.sessions_evicted += 1
        telemetry.emit(
            "session-evicted",
            session=name,
            program=program,
            reason=reason,
            idle_seconds=round(idle, 3),
            max_steps=session.max_steps,
        )

    def _persist_frontier(self, program: str, session, rows: Dict[int, dict]) -> None:
        """Write a session's encoded frontier + trajectory to the store."""
        if self.store is None:
            return
        from repro.batch.distribute import frontier_entry, frontier_key
        from repro.programs import resolve_program
        from repro.symbolic.codec import encode_session

        exploration = session.exploration
        key = frontier_key(resolve_program(program), exploration.max_paths)
        ordered = [rows[depth] for depth in sorted(rows)]
        self.store.merge_frontiers(
            self.engine,
            {key: frontier_entry(encode_session(exploration), ordered)},
            run=self._run,
        )
        telemetry.emit(
            "frontier-saved",
            key=key,
            depth=exploration.max_steps,
            nodes=len(exploration._nodes),
        )

    def _restore_frontier(self, bound_engine, resolved, depth: int, max_paths: int):
        """A persisted exploration for this program, if one fits the request.

        Restores with ``credit_stats=False``: the daemon's counters describe
        work *this process* did, and a restored frontier's steps were done
        elsewhere (or already counted here before an eviction).  Only a
        frontier at most as deep as the requested budget is adopted --
        session budgets are non-decreasing.
        """
        if self.store is None:
            return None, {}
        from repro.batch.distribute import frontier_entry_parts, frontier_key
        from repro.symbolic.codec import decode_session

        key = frontier_key(resolved, max_paths)
        parts = frontier_entry_parts(self.store.load_frontier_entry(self.engine, key))
        if parts is None:
            return None, {}
        exploration = decode_session(
            parts[0], bound_engine._explorer, credit_stats=False
        )
        if exploration is None or exploration.max_steps > depth:
            return None, {}
        rows = {
            row["depth"]: row
            for row in parts[1]
            if isinstance(row.get("depth"), int) and row["depth"] <= depth
        }
        telemetry.emit(
            "frontier-resumed",
            key=key,
            depth=exploration.max_steps,
            nodes=len(exploration._nodes),
        )
        return exploration, rows

    def _extend_session(self, name: str, program: str, depth: int, max_paths: int):
        from repro.lowerbound.engine import LowerBoundEngine
        from repro.programs import resolve_program

        # Idle sessions are reaped before the lookup so a TTL-expired
        # session cannot be deepened by accident -- except the requested one,
        # which is being used right now and therefore stops being idle.
        self._evict_sessions(keep=name)
        entry = self._sessions.get(name)
        if entry is not None and entry[0] != program:
            raise ValueError(
                f"session {name!r} belongs to program {entry[0]!r}, not {program!r}"
            )
        if entry is None:
            resolved = resolve_program(program)
            bound_engine = LowerBoundEngine(
                strategy=resolved.strategy, measure_engine=self.engine
            )
            exploration, rows = self._restore_frontier(
                bound_engine, resolved, depth, max_paths
            )
            session = bound_engine.session(
                resolved.applied, max_paths=max_paths, exploration=exploration
            )
            self._sessions[name] = (program, session, rows)
        else:
            session, rows = entry[1], entry[2]
        if depth < session.max_steps:
            raise ValueError(
                f"session {name!r} is already at depth {session.max_steps}; "
                "budgets are non-decreasing"
            )
        self.counters.computations += 1
        result = session.extend(depth)
        from repro.batch.jobs import encode_number

        rows[depth] = {
            "depth": result.max_steps,
            "probability": encode_number(result.probability),
            "expected_steps": encode_number(result.expected_steps),
            "measure_gap": encode_number(result.measure_gap),
            "anytime_gap": encode_number(result.anytime_gap()),
            "path_count": result.path_count,
            "exhaustive": result.exhaustive,
            "exact_measures": result.exact_measures,
        }
        self._persist_frontier(program, session, rows)
        self._session_touched[name] = time.monotonic()
        # A newly created session can push the population past the cap.
        self._evict_sessions(keep=name)
        return result, session.max_steps


# ---------------------------------------------------------------------------
# The socket server.
# ---------------------------------------------------------------------------


async def _handle_connection(
    daemon: AnalysisDaemon,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    daemon.counters.connections += 1
    write_lock = asyncio.Lock()
    tasks: set = set()

    async def answer(response: Dict[str, Any]) -> None:
        line = json.dumps(response, sort_keys=True, separators=(",", ":")) + "\n"
        async with write_lock:
            writer.write(line.encode("utf-8"))
            await writer.drain()

    async def serve_one(record: Any) -> Dict[str, Any]:
        try:
            request_id, method, params = protocol.parse_request(record)
        except ProtocolError as error:
            daemon.counters.errors += 1
            return protocol.error_response(None, error.code, str(error))
        try:
            result = await daemon.dispatch(method, params)
        except ProtocolError as error:
            return protocol.error_response(request_id, error.code, str(error))
        return protocol.result_response(request_id, result)

    async def serve_line(record: Any) -> None:
        if isinstance(record, list):
            # JSON-RPC batch: *create* every request task before awaiting
            # any, so identical requests of one batch always coalesce.
            if not record:
                await answer(
                    protocol.error_response(
                        None, protocol.INVALID_REQUEST, "empty batch"
                    )
                )
                return
            batch = [asyncio.ensure_future(serve_one(item)) for item in record]
            responses = await asyncio.gather(*batch)
            line = json.dumps(
                list(responses), sort_keys=True, separators=(",", ":")
            ) + "\n"
            async with write_lock:
                writer.write(line.encode("utf-8"))
                await writer.drain()
            return
        await answer(await serve_one(record))

    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await answer(
                    protocol.error_response(
                        None, protocol.PARSE_ERROR, "request line too long"
                    )
                )
                break
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except ValueError:
                await answer(
                    protocol.error_response(
                        None, protocol.PARSE_ERROR, "request is not valid JSON"
                    )
                )
                continue
            # Each request line runs in its own task so one slow analysis
            # never blocks this connection's next request from *entering*
            # the coalescing map.
            task = asyncio.ensure_future(serve_line(record))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except ConnectionResetError:
        pass
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def serve(
    socket_path: Union[str, Path],
    config: Optional[ReproConfig] = None,
    daemon: Optional[AnalysisDaemon] = None,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Run the daemon on a Unix socket until ``shutdown`` or a signal.

    The socket file is created fresh (a stale one from a dead daemon is
    replaced) and removed on orderly exit.  ``ready`` is set once the
    socket accepts connections -- the in-process hook the tests use.
    """
    socket_path = Path(socket_path)
    daemon = daemon or AnalysisDaemon(config=config)
    if socket_path.exists():
        socket_path.unlink()
    socket_path.parent.mkdir(parents=True, exist_ok=True)
    connections: set = set()

    def _on_connect(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.ensure_future(_handle_connection(daemon, reader, writer))
        connections.add(task)
        task.add_done_callback(connections.discard)

    server = await asyncio.start_unix_server(
        _on_connect, path=str(socket_path), limit=_MAX_REQUEST_BYTES
    )
    loop = asyncio.get_running_loop()
    for signal_name in ("SIGINT", "SIGTERM"):
        import signal as _signal

        # RuntimeError/ValueError: handlers can only be installed from the
        # main thread (the in-process test servers run the loop elsewhere).
        with contextlib.suppress(
            NotImplementedError, AttributeError, ValueError, RuntimeError
        ):
            loop.add_signal_handler(
                getattr(_signal, signal_name), daemon.stopping.set
            )
    if ready is not None:
        ready.set()
    try:
        async with server:
            await daemon.stopping.wait()
    finally:
        for connection in list(connections):
            connection.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        daemon.close()
        with contextlib.suppress(OSError):
            socket_path.unlink()

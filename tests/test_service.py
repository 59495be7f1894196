"""Tests for the analysis daemon: request coalescing, sessions, the socket
protocol, byte-identity with the one-shot CLI pipeline, and warm restarts."""

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.batch import JobSpec, run_job
from repro.config import ReproConfig
from repro.geometry.engine import MeasureEngine
from repro.service import (
    AnalysisDaemon,
    ProtocolError,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.service import protocol

PROGRAM = "geo(1/2)"
DEPTH = 40


def dispatch(daemon, method, params=None):
    return asyncio.run(daemon.dispatch(method, params or {}))


def expected_job_line(program=PROGRAM, depth=DEPTH, analysis="lower-bound"):
    """What the one-shot pipeline answers for the same request."""
    spec = JobSpec(program=program, analysis=analysis, params={"depth": depth})
    return run_job(spec, MeasureEngine()).to_json_line()


def job_line(response):
    """The daemon response's job record, re-encoded canonically."""
    return json.dumps(response["job"], sort_keys=True, separators=(",", ":"))


@contextmanager
def in_process_daemon(config=None):
    daemon = AnalysisDaemon(config=config)
    try:
        yield daemon
    finally:
        daemon.close()


@contextmanager
def running_daemon(tmp_path, config=None, name="daemon.sock"):
    """serve() on a real Unix socket, its loop on a background thread."""
    socket_path = tmp_path / name
    daemon = AnalysisDaemon(config=config)
    ready = asyncio.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(serve(socket_path, daemon=daemon, ready=ready)),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 15
    while not ready.is_set():
        assert thread.is_alive(), "daemon thread died during startup"
        assert time.monotonic() < deadline, "daemon did not come up"
        time.sleep(0.01)
    try:
        yield socket_path, daemon
    finally:
        if thread.is_alive():
            try:
                with ServiceClient(socket_path) as client:
                    client.call("shutdown")
            except (OSError, ServiceError):
                daemon.stopping.set()
        thread.join(timeout=15)
        assert not thread.is_alive(), "daemon did not shut down"


class TestDispatch:
    def test_ping_reports_the_protocol(self):
        with in_process_daemon() as daemon:
            response = dispatch(daemon, "ping")
            assert response["protocol"] == protocol.PROTOCOL_VERSION
            assert response["pid"]

    def test_unknown_method(self):
        with in_process_daemon() as daemon:
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(daemon, "no-such-method")
            assert excinfo.value.code == protocol.METHOD_NOT_FOUND

    def test_analysis_requires_a_program(self):
        with in_process_daemon() as daemon:
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(daemon, "lower-bound", {"depth": 10})
            assert excinfo.value.code == protocol.INVALID_PARAMS

    def test_measure_rejects_unknown_params(self):
        with in_process_daemon() as daemon:
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(daemon, "measure", {"program": PROGRAM, "bogus": 1})
            assert excinfo.value.code == protocol.INVALID_PARAMS

    def test_measure_surfaces_analysis_failures(self):
        with in_process_daemon() as daemon:
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(daemon, "measure", {"program": "mu phi x. ("})
            assert excinfo.value.code == protocol.ANALYSIS_ERROR

    def test_estimate_without_runs_reports_an_error_not_a_verdict(self):
        with in_process_daemon() as daemon:
            response = dispatch(
                daemon, "estimate", {"program": "gr", "runs": 0, "max_steps": 100}
            )
        job = response["job"]
        assert job["status"] == "error"
        assert job["error_kind"] == "job-exception"
        assert "runs must be positive" in job["error"]
        assert job["result"] is None

    def test_job_is_byte_identical_to_the_cli_pipeline(self):
        with in_process_daemon() as daemon:
            response = dispatch(
                daemon, "lower-bound", {"program": PROGRAM, "depth": DEPTH}
            )
            assert job_line(response) == expected_job_line()
            assert not response["cached"]
            assert not response["coalesced"]


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_computation(self):
        with in_process_daemon() as daemon:

            async def burst():
                params = {"program": PROGRAM, "depth": DEPTH}
                return await asyncio.gather(
                    *(daemon.dispatch("lower-bound", dict(params)) for _ in range(8))
                )

            responses = asyncio.run(burst())
            assert daemon.counters.computations == 1
            assert daemon.counters.coalesced == 7
            assert sorted(r["coalesced"] for r in responses) == [False] + [True] * 7
            lines = {job_line(r) for r in responses}
            assert lines == {expected_job_line()}

    def test_distinct_requests_do_not_coalesce(self):
        with in_process_daemon() as daemon:

            async def burst():
                return await asyncio.gather(
                    daemon.dispatch(
                        "lower-bound", {"program": PROGRAM, "depth": DEPTH}
                    ),
                    daemon.dispatch(
                        "lower-bound", {"program": PROGRAM, "depth": DEPTH + 1}
                    ),
                )

            responses = asyncio.run(burst())
            assert daemon.counters.computations == 2
            assert daemon.counters.coalesced == 0
            assert not any(r["coalesced"] for r in responses)

    def test_measure_joins_an_inflight_lower_bound(self):
        with in_process_daemon() as daemon:

            async def burst():
                return await asyncio.gather(
                    daemon.dispatch(
                        "lower-bound", {"program": PROGRAM, "depth": DEPTH}
                    ),
                    daemon.dispatch("measure", {"program": PROGRAM, "depth": DEPTH}),
                )

            bound, measured = asyncio.run(burst())
            assert daemon.counters.computations == 1
            assert daemon.counters.coalesced == 1
            assert (
                measured["probability"]
                == bound["job"]["result"]["probability"]
            )

    def test_stats_contract(self):
        """computations + job_cache_hits + coalesced == analysis requests."""
        with in_process_daemon() as daemon:

            async def burst():
                params = {"program": PROGRAM, "depth": DEPTH}
                await asyncio.gather(
                    *(daemon.dispatch("lower-bound", dict(params)) for _ in range(5))
                )
                # a sequential repeat after the burst: no store, so recomputed
                await daemon.dispatch("lower-bound", dict(params))

            asyncio.run(burst())
            counters = daemon.counters
            assert (
                counters.computations + counters.job_cache_hits + counters.coalesced
                == 6
            )


    def test_stats_report_the_collector_untouched_by_library_code(self):
        """The ``gc`` object reads the collector; only ``python -m repro`` sets it."""
        import gc

        with in_process_daemon() as daemon:
            stats = dispatch(daemon, "stats")["gc"]
        assert stats["frozen"] == 0 == gc.get_freeze_count()
        assert stats["threshold"] == list(gc.get_threshold())
        assert [sorted(generation) for generation in stats["generations"]] == [
            ["collected", "collections", "uncollectable"]
        ] * len(gc.get_stats())


class TestSessions:
    def test_named_session_deepens_across_requests(self):
        with in_process_daemon() as daemon:
            first = dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 15},
            )
            assert first["depth"] == 15
            second = dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 25},
            )
            assert second["depth"] == 25
            assert second["session_max_steps"] == 25
            assert daemon.counters.computations == 2

    def test_session_budgets_are_non_decreasing(self):
        with in_process_daemon() as daemon:
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 25},
            )
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(
                    daemon,
                    "lower-bound",
                    {"program": PROGRAM, "session": "s1", "depth": 10},
                )
            assert excinfo.value.code == protocol.INVALID_PARAMS
            assert "non-decreasing" in str(excinfo.value)

    def test_session_names_bind_to_one_program(self):
        with in_process_daemon() as daemon:
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 15},
            )
            with pytest.raises(ProtocolError) as excinfo:
                dispatch(
                    daemon,
                    "lower-bound",
                    {"program": "geo(1/3)", "session": "s1", "depth": 20},
                )
            assert excinfo.value.code == protocol.INVALID_PARAMS

    def test_sessions_appear_in_stats(self):
        with in_process_daemon() as daemon:
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 15},
            )
            stats = dispatch(daemon, "stats")
            assert stats["sessions"] == {
                "s1": {"program": PROGRAM, "max_steps": 15}
            }


class TestSessionEviction:
    def test_ttl_evicts_idle_sessions(self):
        """--session-ttl 0 reaps every idle session on the next request;
        the session the request touches is in use and survives."""
        with in_process_daemon(ReproConfig(session_ttl=0.0)) as daemon:
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 15},
            )
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s2", "depth": 15},
            )
            stats = dispatch(daemon, "stats")
            assert sorted(stats["sessions"]) == ["s2"]
            assert stats["sessions_live"] == 1
            assert stats["sessions_evicted"] == 1
            assert daemon.counters.sessions_evicted == 1

    def test_capacity_evicts_least_recently_used(self):
        with in_process_daemon(ReproConfig(max_sessions=2)) as daemon:
            for name in ("s1", "s2", "s3"):
                dispatch(
                    daemon,
                    "lower-bound",
                    {"program": PROGRAM, "session": name, "depth": 15},
                )
            # s1 is the least recently touched; s2/s3 fill the cap of two.
            stats = dispatch(daemon, "stats")
            assert sorted(stats["sessions"]) == ["s2", "s3"]
            assert stats["sessions_evicted"] == 1

    def test_active_session_is_never_evicted(self):
        """A zero TTL must not reap the session being deepened right now --
        deepening keeps working across requests."""
        with in_process_daemon(ReproConfig(session_ttl=0.0)) as daemon:
            dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 15},
            )
            deeper = dispatch(
                daemon,
                "lower-bound",
                {"program": PROGRAM, "session": "s1", "depth": 25},
            )
            assert deeper["session_max_steps"] == 25
            assert daemon.counters.sessions_evicted == 0

    def test_eviction_emits_telemetry(self, tmp_path):
        from repro import telemetry

        trace = tmp_path / "trace.jsonl"
        telemetry.start(trace, command="test")
        try:
            with in_process_daemon(ReproConfig(max_sessions=1)) as daemon:
                for name in ("s1", "s2"):
                    dispatch(
                        daemon,
                        "lower-bound",
                        {"program": PROGRAM, "session": name, "depth": 15},
                    )
        finally:
            telemetry.stop()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        evicted = [event for event in events if event.get("ev") == "session-evicted"]
        assert len(evicted) == 1
        assert evicted[0]["session"] == "s1"
        assert evicted[0]["reason"] == "capacity"
        assert evicted[0]["max_steps"] == 15


class TestSocketServer:
    def test_batch_of_identical_requests_coalesces(self, tmp_path):
        with running_daemon(tmp_path) as (socket_path, daemon):
            with ServiceClient(socket_path) as client:
                params = {"program": PROGRAM, "depth": DEPTH}
                responses = client.call_batch(
                    [{"method": "lower-bound", "params": dict(params)} for _ in range(8)]
                )
                stats = client.call("stats")
            assert len(responses) == 8
            assert {job_line(r) for r in responses} == {expected_job_line()}
            counters = stats["counters"]
            assert counters["computations"] == 1
            assert counters["coalesced"] == 7

    def test_eight_concurrent_clients_share_one_computation(self, tmp_path):
        config = ReproConfig(cache_dir=str(tmp_path / "cache"))
        with running_daemon(tmp_path, config=config) as (socket_path, daemon):
            results, errors = [], []

            def one_client():
                try:
                    with ServiceClient(socket_path) as client:
                        results.append(
                            client.call(
                                "lower-bound",
                                {"program": PROGRAM, "depth": DEPTH},
                            )
                        )
                except Exception as exc:  # surfaced below, with context
                    errors.append(exc)

            threads = [threading.Thread(target=one_client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(results) == 8
            assert {job_line(r) for r in results} == {expected_job_line()}
            counters = daemon.counters
            # every request was computed once, served from the job store,
            # or joined the in-flight computation -- never computed twice
            assert counters.computations == 1
            assert counters.computations < counters.requests
            assert (
                counters.computations
                + counters.job_cache_hits
                + counters.coalesced
                == 8
            )

    def test_malformed_line_is_a_parse_error(self, tmp_path):
        with running_daemon(tmp_path) as (socket_path, _daemon):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(str(socket_path))
                raw.sendall(b"this is not json\n")
                reader = raw.makefile("rb")
                response = json.loads(reader.readline())
            assert response["error"]["code"] == protocol.PARSE_ERROR

    def test_unknown_method_over_the_wire(self, tmp_path):
        with running_daemon(tmp_path) as (socket_path, _daemon):
            with ServiceClient(socket_path) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.call("frobnicate")
            assert excinfo.value.code == protocol.METHOD_NOT_FOUND

    def test_socket_is_removed_on_shutdown(self, tmp_path):
        with running_daemon(tmp_path) as (socket_path, _daemon):
            assert socket_path.exists()
        assert not socket_path.exists()

    def test_warm_restart_serves_from_the_store(self, tmp_path):
        config = ReproConfig(cache_dir=str(tmp_path / "cache"))
        with running_daemon(tmp_path, config=config, name="first.sock") as (
            socket_path,
            _daemon,
        ):
            with ServiceClient(socket_path) as client:
                cold = client.call(
                    "lower-bound", {"program": PROGRAM, "depth": DEPTH}
                )
            assert not cold["cached"]
        with running_daemon(tmp_path, config=config, name="second.sock") as (
            socket_path,
            daemon,
        ):
            with ServiceClient(socket_path) as client:
                warm = client.call(
                    "lower-bound", {"program": PROGRAM, "depth": DEPTH}
                )
            assert warm["cached"]
            assert daemon.counters.computations == 0
            assert daemon.counters.job_cache_hits == 1
        assert job_line(warm) == job_line(cold) == expected_job_line()

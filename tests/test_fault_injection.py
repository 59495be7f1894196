"""Fault-injection coverage for the supervised batch execution layer.

Every test arms a seeded :class:`repro.batch.faults.FaultPlan` through the
``REPRO_FAULTS`` environment variable (inherited by worker processes) and
asserts the recovery the runner and the store promise: injected crashes,
hangs and corruptions must converge to the same bytes as an undisturbed
run -- or be loudly quarantined, never silently misread.
"""

import json
import logging
import sqlite3
import threading

import pytest

from repro.batch import (
    Fault,
    FaultPlan,
    JobSpec,
    RetryPolicy,
    diagnose,
    open_store,
    run_batch,
    run_job,
    scan_results_jsonl,
    write_results_jsonl,
)
from repro.batch.faults import ENV_VAR
from repro.cli import main
from repro.geometry.engine import MeasureEngine


def _specs():
    return [
        JobSpec(program="geo(1/2)", analysis="verify"),
        JobSpec(program="geo(1/3)", analysis="verify"),
        JobSpec(program="geo(1/5)", analysis="verify"),
    ]


def _jsonl(results) -> str:
    return "".join(result.to_json_line() + "\n" for result in results)


def _arm(monkeypatch, tmp_path, faults, seed=7):
    """Write a fault plan to disk and point ``REPRO_FAULTS`` at it."""
    plan = FaultPlan(faults, state_dir=tmp_path / "fault-state", seed=seed)
    path = plan.dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(ENV_VAR, str(path))
    return plan


_FAST_RETRIES = RetryPolicy(max_retries=2, backoff_seconds=0.01)


class TestWorkerFaults:
    """Injected process deaths and hangs against the supervised pool."""

    def test_worker_kill_is_retried_to_identical_output(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = run_batch(_specs(), jobs=2)
        _arm(monkeypatch, tmp_path, [Fault(kind="worker-kill", job_index=0)])
        report = run_batch(_specs(), jobs=2, retry_policy=_FAST_RETRIES)
        assert all(result.ok for result in report.results)
        assert report.worker_restarts >= 1
        assert report.retries >= 1
        assert report.stats.worker_restarts == report.worker_restarts
        assert _jsonl(report.results) == _jsonl(reference.results)

    def test_worker_kill_preserves_completed_results_and_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cache_dir = tmp_path / "cache"
        # Kill the worker running the *last* job (single-worker pool, so the
        # first two jobs are complete when the pool dies).
        _arm(monkeypatch, tmp_path, [Fault(kind="worker-kill", job_index=2)])
        report = run_batch(
            _specs(),
            jobs=1,
            cache=open_store(cache_dir),
            job_timeout=30.0,
            retry_policy=_FAST_RETRIES,
        )
        assert all(result.ok for result in report.results)
        assert report.worker_restarts >= 1
        monkeypatch.delenv(ENV_VAR)
        # The crash lost neither the finished job results nor the measure
        # entries they exported: a warm rerun is all cache hits, no recompute.
        warm = run_batch(_specs(), jobs=1, cache=open_store(cache_dir))
        assert warm.cache_hits == len(_specs())
        assert _jsonl(warm.results) == _jsonl(report.results)
        store = open_store(cache_dir)
        assert store.measure_entry_count(MeasureEngine()) > 0

    def test_hang_trips_job_timeout_and_recovers(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = run_batch(_specs(), jobs=1)
        _arm(
            monkeypatch,
            tmp_path,
            [Fault(kind="hang", job_index=1, seconds=30.0)],
        )
        report = run_batch(
            _specs(),
            jobs=1,
            job_timeout=1.0,
            retry_policy=_FAST_RETRIES,
        )
        assert all(result.ok for result in report.results)
        assert report.timeouts >= 1
        assert report.worker_restarts >= 1
        assert report.stats.timeouts == report.timeouts
        assert _jsonl(report.results) == _jsonl(reference.results)

    def test_persistent_hang_exhausts_retries_into_timeout_error(
        self, tmp_path, monkeypatch
    ):
        # The hang re-fires on every retry, so the job can never finish:
        # after max_retries the runner must surface a structured timeout.
        _arm(
            monkeypatch,
            tmp_path,
            [Fault(kind="hang", job_index=0, seconds=30.0, times=10)],
        )
        report = run_batch(
            [_specs()[0]],
            jobs=1,
            job_timeout=0.5,
            retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01),
        )
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "timeout"
        assert "wall-clock" in result.error
        assert report.timeouts == 2  # the first attempt and its one retry
        assert report.retries == 1

    def test_deterministic_job_exception_is_not_retried(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        specs = [_specs()[0], JobSpec(program="((( broken", analysis="verify")]
        report = run_batch(specs, jobs=2, retry_policy=_FAST_RETRIES)
        broken = report.results[1]
        assert not broken.ok
        assert broken.error_kind == "job-exception"
        assert report.retries == 0
        assert report.worker_restarts == 0


def _entry_rows(cache_dir, kind="measures"):
    """``{key: document}`` of every ``kind`` entry row, read directly."""
    connection = sqlite3.connect(cache_dir / "store.sqlite3")
    try:
        return dict(
            connection.execute(
                "SELECT key, document FROM entries WHERE kind = ?", (kind,)
            )
        )
    finally:
        connection.close()


def _database_snapshot(cache_dir):
    """The database file's bytes and every row of every table."""
    path = cache_dir / "store.sqlite3"
    connection = sqlite3.connect(path)
    try:
        rows = list(connection.iterdump())
    finally:
        connection.close()
    return path.read_bytes(), rows


class TestStoreFaults:
    """Torn writes and bit flips against the checksummed store rows."""

    def _populate(self, cache_dir):
        store = open_store(cache_dir)
        report = run_batch([_specs()[0]], jobs=1, cache=store)
        store.close()
        return report

    def test_torn_shard_write_is_quarantined_not_silently_missed(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        rows = _entry_rows(cache_dir)
        torn = [key for key, text in rows.items() if not text.endswith("}")]
        assert len(torn) == 1  # the fault fires once, on one committed row
        store = open_store(cache_dir)
        # The torn row reads as a miss, but never a *silent* one: it is set
        # aside in the quarantine table, and every other row still loads.
        entries = store.load_measures(MeasureEngine())
        assert set(entries) == set(rows) - set(torn)
        assert store.quarantined == [(f"measures/{torn[0]}", "corrupt-json")]
        assert store.quarantine_rows() == [("measures", torn[0], "corrupt-json")]
        assert torn[0] not in _entry_rows(cache_dir)

    def test_quarantine_count_reaches_batch_report_and_stats(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        report = run_batch(
            [_specs()[1]], jobs=1, cache=open_store(cache_dir)
        )
        assert report.quarantined_rows == 1
        assert report.stats.quarantined_rows == report.quarantined_rows
        assert "quarantined rows" in report.summary()

    def test_bit_flipped_shard_fails_its_checksum_and_doctor_names_it(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="bit-flip", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        report = diagnose(cache_dir)
        assert not report.healthy
        assert report.exit_code == 1
        # Exactly one row was flipped, and the doctor names it.
        [damaged] = report.errors
        assert damaged.code in ("corrupt-json", "checksum-mismatch", "missing-checksum")
        flipped = [
            key
            for key in _entry_rows(cache_dir)
            if f"measures/{key} " in damaged.message
        ]
        assert len(flipped) == 1
        assert damaged.message in report.summary()

    def test_doctor_is_read_only_and_flags_quarantine_after_a_read(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="bit-flip", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        before = _database_snapshot(cache_dir)
        diagnose(cache_dir)
        assert _database_snapshot(cache_dir) == before  # never mutates the store
        # A store read quarantines the damage; the doctor then reports it.
        open_store(cache_dir).load_measures(MeasureEngine())
        report = diagnose(cache_dir)
        assert report.counts["quarantined"] == 1
        assert any(finding.code == "quarantined" for finding in report.errors)
        assert report.exit_code == 1


_ROW_KINDS = ("jobs", "measures", "sweeps", "frontiers")


def _write_row(store, kind, engine, key="row-key"):
    """Commit one ``kind`` row through the store's own write path; returns
    the row's key."""
    if kind == "jobs":
        result = run_job(_specs()[0], engine)
        store.store_job(result)
        return result.key
    merge = getattr(store, f"merge_{kind}")
    merge(engine, {key: [["F", "1/2"], True, False, "interval"]})
    return key


def _read_row(store, kind, engine, key):
    """The row read back through the store (``None`` on a miss)."""
    if kind == "jobs":
        return store.load_job(key)
    return getattr(store, f"load_{kind}")(engine).get(key)


class TestStoreFaultsPerKind:
    """Both store faults fire on every row kind the store writes."""

    @pytest.mark.parametrize("kind", _ROW_KINDS)
    def test_torn_write_is_quarantined(self, tmp_path, monkeypatch, kind):
        plan = _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match=f"{kind}/")])
        engine = MeasureEngine()
        store = open_store(tmp_path / "cache")
        key = _write_row(store, kind, engine)
        monkeypatch.delenv(ENV_VAR)
        assert plan.fired_count(0) == 1
        assert _read_row(store, kind, engine, key) is None
        assert store.quarantined == [(f"{kind}/{key}", "corrupt-json")]
        # Quarantined, not lost: the next read is an ordinary miss.
        assert _read_row(store, kind, engine, key) is None
        assert store.quarantine_count == 1

    @pytest.mark.parametrize("kind", _ROW_KINDS)
    def test_bit_flip_is_named_by_the_doctor(self, tmp_path, monkeypatch, kind):
        _arm(monkeypatch, tmp_path, [Fault(kind="bit-flip", match=f"{kind}/")])
        engine = MeasureEngine()
        cache_dir = tmp_path / "cache"
        key = _write_row(open_store(cache_dir), kind, engine)
        monkeypatch.delenv(ENV_VAR)
        report = diagnose(cache_dir, engine=engine)
        [damaged] = report.errors
        assert damaged.code in ("corrupt-json", "checksum-mismatch", "missing-checksum")
        assert f"{kind}/{key} " in damaged.message
        assert report.exit_code == 1
        assert _read_row(open_store(cache_dir), kind, engine, key) is None

    def test_match_is_tested_against_kind_slash_key(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match="measures/k2")])
        engine = MeasureEngine()
        store = open_store(tmp_path / "cache")
        for key in ("k1", "k2", "k3"):
            _write_row(store, "sweeps", engine, key)  # same keys, other kind
            _write_row(store, "measures", engine, key)
        monkeypatch.delenv(ENV_VAR)
        assert set(store.load_sweeps(engine)) == {"k1", "k2", "k3"}
        assert set(store.load_measures(engine)) == {"k1", "k3"}
        assert store.quarantined == [("measures/k2", "corrupt-json")]


class TestMergeDurability:
    """Concurrent writers on the shared store."""

    @staticmethod
    def _entry(value="1/2"):
        return [["F", value], True, False, "interval"]

    def test_concurrent_merges_into_the_same_shard_lose_nothing(self, tmp_path):
        engine = MeasureEngine()
        # Four store instances merging overlapping key sets into one
        # database, one transaction per key: every key must land.
        keys = [f"contended-key-{index}" for index in range(64)]
        chunks = [keys[start::2] + keys[: len(keys) // 2] for start in range(2)] * 2
        errors = []

        def merge(chunk):
            try:
                cache = open_store(tmp_path)
                for key in chunk:
                    cache.merge_measures(engine, {key: self._entry()})
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=merge, args=(chunk,)) for chunk in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entries = open_store(tmp_path).load_measures(engine)
        assert set(entries) == set(keys)
        assert diagnose(tmp_path).healthy


class TestResultsFileRobustness:
    """Crash-safe JSONL output and corrupt-line accounting."""

    def test_overwrite_failure_preserves_the_previous_results_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = run_batch([_specs()[0]], jobs=1)
        write_results_jsonl(path, report.results)
        before = path.read_bytes()

        def exploding():
            yield report.results[0]
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            write_results_jsonl(path, exploding())
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_scan_counts_corrupt_lines_instead_of_dropping_them(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = run_batch(
            [_specs()[0], JobSpec(program="((( broken", analysis="verify")], jobs=1
        )
        write_results_jsonl(path, report.results)
        with open(path, "a") as stream:
            stream.write("{ torn line\n")
            stream.write('"not an object"\n')
        scan = scan_results_jsonl(path)
        assert scan.ok_keys == {report.results[0].key}
        assert scan.error_keys == {report.results[1].key}
        assert scan.corrupt_lines == 2
        assert scan.total_lines == 4

    def test_unkeyable_spec_is_logged_once_per_batch(self, tmp_path, caplog):
        spec = JobSpec(program="((( broken", analysis="verify")
        with caplog.at_level(logging.WARNING, logger="repro.batch"):
            run_batch([spec], jobs=1, cache=open_store(tmp_path / "cache"))
        warnings = [
            record
            for record in caplog.records
            if "no stable key" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert "((( broken" in warnings[0].getMessage()


class TestCliAcceptance:
    """End-to-end: the CLI flags, ``--stats-json`` counters and doctor exits."""

    def _job_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"program": "geo(1/2)", "analysis": "verify"},
                    {"program": "geo(1/3)", "analysis": "verify"},
                    {"program": "geo(1/5)", "analysis": "verify"},
                ]
            )
        )
        return str(path)

    def test_injected_kill_and_hang_converge_to_identical_jsonl(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        jobs = self._job_file(tmp_path)
        reference = tmp_path / "reference.jsonl"
        assert main(["batch", jobs, "--jobs", "1", "--output", str(reference)]) == 0
        # One single-worker pool: the kill hits job 0, the hang job 2, so the
        # two faults cannot shadow each other inside one doomed worker.
        _arm(
            monkeypatch,
            tmp_path,
            [
                Fault(kind="worker-kill", job_index=0),
                Fault(kind="hang", job_index=2, seconds=30.0),
            ],
        )
        injected = tmp_path / "injected.jsonl"
        stats_json = tmp_path / "stats.json"
        code = main(
            [
                "batch",
                jobs,
                "--jobs",
                "1",
                "--job-timeout",
                "1.5",
                "--retry-backoff",
                "0.01",
                "--output",
                str(injected),
                "--stats-json",
                str(stats_json),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert injected.read_bytes() == reference.read_bytes()
        counters = json.loads(stats_json.read_text())["counters"]
        assert counters["worker_restarts"] >= 1
        assert counters["timeouts"] >= 1
        assert counters["retries"] >= 2

    def test_doctor_cli_exit_codes_and_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "batch",
                    self._job_file(tmp_path),
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(cache_dir),
                    "--output",
                    str(tmp_path / "out.jsonl"),
                ]
            )
            == 0
        )
        report_json = tmp_path / "doctor.json"
        assert (
            main(
                ["doctor", "--cache-dir", str(cache_dir), "--json", str(report_json)]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "healthy" in output
        document = json.loads(report_json.read_text())
        assert document["healthy"] is True
        # Flip one character of one entry row: doctor must now fail and
        # name the row.
        key, text = sorted(_entry_rows(cache_dir).items())[0]
        middle = len(text) // 2
        damaged = text[:middle] + chr(ord(text[middle]) ^ 0x04) + text[middle + 1 :]
        connection = sqlite3.connect(cache_dir / "store.sqlite3")
        with connection:
            connection.execute(
                "UPDATE entries SET document = ? WHERE key = ?", (damaged, key)
            )
        connection.close()
        assert main(["doctor", "--cache-dir", str(cache_dir)]) == 1
        output = capsys.readouterr().out
        assert f"measures/{key} " in output
        assert "PROBLEMS FOUND" in output

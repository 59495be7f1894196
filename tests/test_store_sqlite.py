"""Tests for the SQLite store: round-trips, quarantine semantics, GC,
doctor checks, and directories left behind by the old JSON-shard layout."""

import json
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import JobSpec, open_store, run_batch, run_job
from repro.batch.doctor import diagnose
from repro.batch.store_sqlite import (
    SqliteStore,
    _canonical,
    _sealed_text,
    seal_document,
    sqlite_store_path,
    verify_payload,
)
from repro.geometry.engine import MeasureEngine


def warm_engine(depth=12):
    engine = MeasureEngine()
    spec = JobSpec(program="geo(1/2)", analysis="lower-bound", params={"depth": depth})
    result = run_job(spec, engine)
    assert result.ok
    return engine, spec, result


def populated_store(tmp_path, depth=12):
    store = open_store(tmp_path)
    engine, spec, result = warm_engine(depth)
    run = store.begin_run()
    store.store_job(result)
    store.merge_measures(engine, engine.export_cache_entries(), run=run)
    store.merge_sweeps(engine, engine.export_sweep_entries(), run=run)
    return store, spec, result


def execute_sql(store, statement, parameters=()):
    """Rewrite store rows behind the store's back (simulated damage)."""
    with store._connection:
        store._connection.execute(statement, parameters)


class _Registry:
    """An engine stand-in under a chosen primitive-registry fingerprint."""

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint

    def registry_fingerprint(self):
        return self.fingerprint


_ENTRY = [["F", "1/2"], True, False, "interval"]


class TestOpenStore:
    def test_explicit_backends(self, tmp_path):
        assert isinstance(open_store(tmp_path), SqliteStore)
        assert isinstance(open_store(tmp_path, backend="sqlite"), SqliteStore)
        for backend in ("json", "auto", "postgres"):
            with pytest.raises(ValueError):
                open_store(tmp_path, backend=backend)

    def test_config_accepts_only_the_sqlite_backend(self, tmp_path):
        from repro.config import ReproConfig

        config = ReproConfig(cache_dir=str(tmp_path))
        assert isinstance(config.open_store(), SqliteStore)
        assert ReproConfig(store_backend="sqlite") == ReproConfig()
        with pytest.raises(ValueError):
            ReproConfig(cache_dir=str(tmp_path), store_backend="json")


class TestSqliteStoreParity:
    """The store's read, write, quarantine and GC behaviours."""

    def test_job_round_trip(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        loaded = store.load_job(spec.key())
        assert loaded is not None
        assert loaded.to_json_line() == result.to_json_line()
        assert loaded.cached

    def test_error_results_are_not_cached(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine = MeasureEngine()
        bad = run_job(JobSpec(program="mu phi x. (", analysis="verify"), engine)
        assert not bad.ok
        store.store_job(bad)
        assert store.job_count() == 0

    def test_measure_merge_and_load_round_trip(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        assert entries
        written = store.merge_measures(engine, entries, run=store.begin_run())
        assert written == len(entries)
        fresh = MeasureEngine()
        assert store.load_measures(fresh) == entries

    def test_fingerprint_isolation(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        store.merge_measures(_Registry("other-fingerprint"), {"bogus-key": ["bogus"]})
        fresh = MeasureEngine()
        assert len(store.load_measures(fresh)) == len(entries)

    def test_quarantine_is_scoped_to_the_fingerprint(self, tmp_path):
        store = SqliteStore(tmp_path)
        first, second = _Registry("fingerprint-a"), _Registry("fingerprint-b")
        store.merge_measures(first, {"k1": _ENTRY})
        store.merge_measures(second, {"k1": _ENTRY})
        execute_sql(
            store,
            "UPDATE entries SET document = 'torn' WHERE fingerprint = 'fingerprint-a'",
        )
        assert store.load_measures(first) == {}
        assert store.quarantine_count == 1
        # The healthy row of the same key under the other fingerprint stays.
        assert store.load_measures(second) == {"k1": _ENTRY}

    def test_quarantine_works_on_a_database_from_before_the_fingerprint_column(
        self, tmp_path
    ):
        store = SqliteStore(tmp_path)
        execute_sql(store, "ALTER TABLE quarantine DROP COLUMN fingerprint")
        store.close()
        store = SqliteStore(tmp_path)  # adds the column back
        store.merge_measures(_Registry("fingerprint-a"), {"k1": _ENTRY})
        execute_sql(store, "UPDATE entries SET document = 'torn'")
        assert store.load_measures(_Registry("fingerprint-a")) == {}
        assert store.quarantine_rows() == [("measures", "k1", "corrupt-json")]

    def test_damaged_row_reads_as_miss_and_is_quarantined(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        execute_sql(
            store,
            "UPDATE jobs SET document = ? WHERE key = ?",
            ('{"version": 2, "torn', spec.key()),
        )
        assert store.load_job(spec.key()) is None
        rows = store.quarantine_rows()
        assert [(origin, reason) for origin, _key, reason in rows] == [
            ("jobs", "corrupt-json")
        ]

    def test_job_row_under_a_foreign_key_is_quarantined(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        # A checksum-valid envelope filed under the wrong key.
        execute_sql(
            store,
            "INSERT INTO jobs (key, document)"
            " SELECT 'not-its-key', document FROM jobs WHERE key = ?",
            (spec.key(),),
        )
        assert store.load_job("not-its-key") is None
        assert store.quarantine_rows() == [("jobs", "not-its-key", "key-mismatch")]
        assert store.job_count() == 1
        assert store.load_job(spec.key()) is not None

    def test_undecodable_job_result_is_quarantined(self, tmp_path):
        store = SqliteStore(tmp_path)
        document = json.dumps(seal_document({"result": {"status": "ok"}}))
        execute_sql(
            store, "INSERT INTO jobs (key, document) VALUES ('k', ?)", (document,)
        )
        assert store.load_job("k") is None
        assert store.quarantine_rows() == [("jobs", "k", "undecodable-result")]
        assert store.job_count() == 0

    def test_one_damaged_entry_does_not_hide_the_others(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        assert len(entries) >= 2
        store.merge_measures(engine, entries, run=1)
        victim = store._connection.execute(
            "SELECT key FROM entries WHERE kind = 'measures' LIMIT 1"
        ).fetchone()[0]
        execute_sql(
            store, "UPDATE entries SET document = 'not json' WHERE key = ?", (victim,)
        )
        fresh = MeasureEngine()
        assert len(store.load_measures(fresh)) == len(entries) - 1
        assert store.quarantine_count == 1

    def test_checksum_mismatch_is_caught(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        row = store._connection.execute(
            "SELECT document FROM jobs WHERE key = ?", (spec.key(),)
        ).fetchone()[0]
        document = json.loads(row)
        document["result"]["status"] = "tampered"
        execute_sql(
            store,
            "UPDATE jobs SET document = ? WHERE key = ?",
            (json.dumps(document), spec.key()),
        )
        assert store.load_job(spec.key()) is None
        assert any(
            reason == "checksum-mismatch"
            for _o, _k, reason in store.quarantine_rows()
        )

    def test_prune_drops_only_stale_entries(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        for _ in range(10):
            store.begin_run()
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures") == len(entries)
        # freshly touched entries survive the same cutoff
        store.merge_measures(engine, entries, run=store.run_counter())
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures", 0) == 0
        assert report.kept.get("measures") == len(entries)

    def test_touch_refresh_protects_persistent_hits(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        touched = set(entries)
        for _ in range(9):
            store.begin_run()
        store.merge_measures(engine, {}, run=9, touched_keys=touched)
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures", 0) == 0

    def test_integrity_check_is_clean(self, tmp_path):
        store = SqliteStore(tmp_path)
        assert store.integrity_check() is None

    def test_concurrent_connections_share_the_database(self, tmp_path):
        first = SqliteStore(tmp_path)
        second = SqliteStore(tmp_path)
        _engine, _spec, result = warm_engine()
        first.store_job(result)
        assert second.load_job(result.key) is not None


class TestWarmReruns:
    def test_reopened_store_serves_a_batch_with_zero_recomputation(self, tmp_path):
        from repro.batch import table1_suite

        specs = table1_suite(depth=12)
        cold = run_batch(specs, cache=open_store(tmp_path))
        warm_engine_ = MeasureEngine()
        warm = run_batch(specs, cache=open_store(tmp_path), engine=warm_engine_)
        assert [r.to_json_line() for r in warm.results] == [
            r.to_json_line() for r in cold.results
        ]
        assert all(result.cached for result in warm.results)
        assert warm_engine_.stats.measure_requests == 0


class TestDoctorAndPruneDiscovery:
    def test_doctor_reports_cleanly_on_a_populated_store(self, tmp_path):
        populated_store(tmp_path)
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        assert report.findings == []
        assert report.counts["job_rows"] == 1
        assert report.counts["measures_entries"] > 0

    def test_doctor_flags_database_damage(self, tmp_path):
        store, _spec, _result = populated_store(tmp_path)
        execute_sql(store, "UPDATE jobs SET document = 'garbage'")
        store.close()
        report = diagnose(tmp_path)
        assert report.exit_code == 1
        assert any(f.code == "corrupt-json" for f in report.errors)

    def test_doctor_flags_quarantined_rows(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        execute_sql(store, "UPDATE jobs SET document = 'garbage'")
        assert store.load_job(spec.key()) is None  # quarantines
        report = diagnose(tmp_path)
        assert report.exit_code == 1
        assert any(f.code == "quarantined" for f in report.errors)

    def test_doctor_flags_a_job_row_under_a_foreign_key(self, tmp_path):
        store, spec, _result = populated_store(tmp_path)
        execute_sql(
            store,
            "INSERT INTO jobs (key, document)"
            " SELECT 'not-its-key', document FROM jobs WHERE key = ?",
            (spec.key(),),
        )
        report = diagnose(tmp_path)
        assert report.exit_code == 1
        assert [f.code for f in report.errors] == ["key-mismatch"]
        assert "jobs/not-its-key" in report.summary()

    def test_doctor_warns_about_foreign_fingerprints(self, tmp_path):
        store, _spec, _result = populated_store(tmp_path)
        store.merge_sweeps(_Registry("other-fingerprint"), {"k": [1], "j": [2]})
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        foreign = [f for f in report.warnings if f.code == "foreign-fingerprint"]
        assert len(foreign) == 1
        assert foreign[0].message.startswith("2 sweeps row(s)")

    def test_doctor_counts_sweep_frontiers_at_the_cap(self, tmp_path):
        from repro.batch.doctor import _FRONTIER_CAP

        def sweep_entry(boxes):
            return ["lower", "undecided", 11, 2, False, 3, [0, 0, 0, 0, 0, [[0]] * boxes]]

        store = SqliteStore(tmp_path)
        store.merge_sweeps(
            MeasureEngine(),
            {"small": sweep_entry(3), "capped": sweep_entry(_FRONTIER_CAP), "bare": [0]},
        )
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        assert report.counts["frontiers"] == 2
        assert report.counts["frontier_boxes"] == 3 + _FRONTIER_CAP
        assert report.counts["frontiers_at_cap"] == 1
        assert any(f.code == "frontier-cap" for f in report.findings)

    def test_cli_prune_works_on_a_populated_store(self, tmp_path, capsys):
        from repro.cli import main

        populated_store(tmp_path)
        exit_code = main(
            ["batch", "prune", "--cache-dir", str(tmp_path), "--keep-runs", "5"]
        )
        assert exit_code == 0
        assert "pruned the persistent store" in capsys.readouterr().out


def write_legacy_json_store(directory, results):
    """The layout of the old sharded-JSON store, with *tampered* job results:
    were the store to read any of it, a batch's output would change."""
    jobs = directory / "jobs"
    jobs.mkdir(parents=True)
    for result in results:
        record = result.to_cache_dict()
        record["result"] = {"tampered": True}
        (jobs / f"{result.key}.json").write_text(
            json.dumps(seal_document({"result": record}))
        )
    fingerprint = MeasureEngine().registry_fingerprint()
    for name in ("measures-00.json", "sweeps-3f.json", "frontiers-a1.json", "measures.json"):
        (directory / name).write_text(
            json.dumps(seal_document({"fingerprint": fingerprint, "entries": {}}))
        )
    (directory / "meta.json").write_text(json.dumps(seal_document({"run_counter": 7})))
    (directory / "intent-measures-1-1.json").write_text("{}")


class TestLegacyJsonDirectories:
    """An old JSON-shard directory is reported by the doctor, never read."""

    def test_doctor_names_the_leftover_files_without_creating_a_database(
        self, tmp_path
    ):
        write_legacy_json_store(tmp_path, [warm_engine()[2]])
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        [finding] = report.warnings
        assert finding.code == "legacy-json-store"
        for name in (
            "1 x measures-*.json",
            "1 x sweeps-*.json",
            "1 x frontiers-*.json",
            "1 x intent-*.json",
            "measures.json",
            "meta.json",
            "jobs/",
        ):
            assert name in finding.message
        assert "ignored" in finding.message
        assert not sqlite_store_path(tmp_path).exists()

    @pytest.mark.parametrize(
        "leftover, named",
        [
            ("measures-00.json", "1 x measures-*.json"),
            ("sweeps-3f.json", "1 x sweeps-*.json"),
            ("frontiers-a1.json", "1 x frontiers-*.json"),
            ("intent-measures-1-1.json", "1 x intent-*.json"),
            ("measures.json", "measures.json"),
            ("meta.json", "meta.json"),
            ("jobs/", "jobs/"),
            ("quarantine/", "quarantine/"),
        ],
    )
    def test_each_leftover_is_named_on_its_own(self, tmp_path, leftover, named):
        path = tmp_path / leftover.rstrip("/")
        if leftover.endswith("/"):
            path.mkdir()
        else:
            path.write_text("{}")
        [finding] = diagnose(tmp_path).warnings
        assert finding.code == "legacy-json-store"
        assert f"ignored: {named};" in finding.message

    def test_unrelated_files_are_not_named(self, tmp_path):
        for name in ("results.jsonl", "notes.json", "measures-00.txt"):
            (tmp_path / name).write_text("{}")
        report = diagnose(tmp_path)
        assert report.warnings == []
        assert [finding.code for finding in report.findings] == ["no-database"]

    def test_batch_over_a_legacy_directory_recomputes_byte_identically(
        self, tmp_path, capsys
    ):
        from repro.batch import table2_suite
        from repro.cli import main

        legacy = tmp_path / "legacy"
        write_legacy_json_store(legacy, run_batch(table2_suite(), jobs=1).results)
        outputs = {}
        for name, directory in (("legacy", legacy), ("empty", tmp_path / "empty")):
            outputs[name] = tmp_path / f"{name}.jsonl"
            code = main(
                ["batch", "--suite", "table2", "--jobs", "1", "--cache-dir",
                 str(directory), "--output", str(outputs[name])]
            )
            assert code == 0
            assert "job cache        : 0 hits, 5 misses" in capsys.readouterr().out
        assert outputs["legacy"].read_bytes() == outputs["empty"].read_bytes()
        # The doctor keeps pointing at the leftovers next to the new database.
        report = diagnose(legacy)
        assert report.exit_code == 0
        assert [f.code for f in report.warnings] == ["legacy-json-store"]


class TestReadOnlyTolerance:
    def test_quarantine_tolerates_read_only_database(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        execute_sql(store, "UPDATE jobs SET document = 'garbage'")
        store.close()
        readonly = SqliteStore(tmp_path, readonly=True)
        try:
            assert readonly.load_job(spec.key()) is None
            assert readonly.quarantine_count == 0
        finally:
            readonly.close()
        connection = sqlite3.connect(sqlite_store_path(tmp_path))
        try:
            assert connection.execute("SELECT COUNT(*) FROM jobs").fetchone() == (1,)
        finally:
            connection.close()


# Payload strings that look like the envelope's own members.
_TRICKY_TEXT = st.one_of(
    st.sampled_from(['"sha256"', ',"version":', ',"version":2}', '"sha256":"x"', "}"]),
    st.text(max_size=12),
)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        _TRICKY_TEXT,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


class TestSealedText:
    """The single-dump sealed row text equals sealing then dumping."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.one_of(st.sampled_from(["entry", "result", "sha256", "version", "zz"]),
                      st.text(max_size=8)),
            _JSON_VALUES,
            max_size=3,
        )
    )
    def test_matches_two_dump_sealing(self, document):
        text = _sealed_text(document)
        assert text == _canonical(seal_document(document))
        assert verify_payload(json.loads(text))[0] == "ok"

    @settings(max_examples=100, deadline=None)
    @given(_JSON_VALUES, st.sampled_from(["entry", "result"]))
    def test_store_rows_match_two_dump_sealing(self, payload, key):
        document = {key: payload}
        assert _sealed_text(document) == _canonical(seal_document(document))


class TestEnvelopeVersion:
    """A mangled version member is damage, not another version's row."""

    def test_flipped_version_key_is_a_checksum_mismatch(self):
        sealed = seal_document({"entry": [1, 2]})
        mangled = {
            ("vgrsion" if name == "version" else name): value
            for name, value in sealed.items()
        }
        assert verify_payload(mangled)[0] == "checksum-mismatch"

"""Property and integration tests for persisted, sharded exploration frontiers.

The distributed-deepening invariants (see :mod:`repro.batch.distribute`):

* the session codec is an exact inverse: ``decode(encode(s)).extend(d)`` is
  bit-identical -- result, order, counts, ``PerfStats`` -- to ``s.extend(d)``,
  for any program, suspension depth and deeper budget,
* splitting a frontier into shards, extending the shards in *any* order
  (the steal order) and absorbing them back reproduces the inline extend
  bit for bit, for any shard count,
* a crash between depths resumes from the store without re-executing any
  completed symbolic step, and a worker never re-executes a shard whose
  output is already merged,
* frontier entries age and survive ``prune`` exactly like measure and
  sweep entries, and ``doctor`` audits their rows.
"""

import asyncio
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.distribute import (
    _ShardClaims,
    _claim_name,
    execute_shards,
    frontier_entry,
    frontier_entry_parts,
    frontier_key,
    run_distributed_schedule,
    shard_entry_key,
)
from repro.batch.doctor import diagnose
from repro.batch.store_sqlite import open_store
from repro.geometry.engine import MeasureEngine
from repro.geometry.stats import PerfStats
from repro.programs import (
    golden_ratio,
    resolve_program,
    sigmoid_branching,
    sigmoid_tri_branching,
)
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Sample, Score, Var
from repro.symbolic import SymbolicExplorer
from repro.symbolic.codec import (
    CODEC_VERSION,
    _encode_nodes,
    _encode_number,
    _node_branches,
    decode_session,
    encode_session,
    session_counters,
    split_session,
)
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.execute import (
    RecMarker,
    _BRANCHED,
    _Configuration,
    _SessionNode,
    _STUCK,
    _SUSPENDED,
    _TERMINATED,
    _node_key,
)
from repro.symbolic.values import (
    ArgVal,
    ConstVal,
    PrimVal,
    SampleVar,
    StarVal,
    SymNumeral,
)

_PROGRAMS = {
    "gr": golden_ratio().applied,
    "sig-branch": sigmoid_branching(Fraction(3, 5)).applied,
    "sig-branch3": sigmoid_tri_branching(Fraction(3, 5)).applied,
}


def _roundtrip(encoded):
    """A real JSON dump/load cycle: what the store actually persists."""
    return json.loads(json.dumps(encoded))


# ---------------------------------------------------------------------------
# The codec: encode/decode is an exact inverse, counters included.
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_PROGRAMS)),
    st.integers(min_value=5, max_value=35),
    st.integers(min_value=0, max_value=20),
)
def test_decode_encode_extend_matches_uninterrupted(name, depth, extra):
    term = _PROGRAMS[name]
    uninterrupted_stats = PerfStats()
    uninterrupted = SymbolicExplorer(stats=uninterrupted_stats).session(term)
    uninterrupted.extend(depth)

    suspended = SymbolicExplorer(stats=PerfStats()).session(term)
    suspended.extend(depth)
    encoded = _roundtrip(encode_session(suspended))

    restored_stats = PerfStats()
    restored = decode_session(
        encoded, SymbolicExplorer(stats=restored_stats), stats=restored_stats
    )
    assert restored is not None
    deeper = depth + extra
    assert restored.extend(deeper) == uninterrupted.extend(deeper)
    # The crash/restore cycle reports the same PerfStats as never crashing.
    assert restored_stats.symbolic_steps == uninterrupted_stats.symbolic_steps
    assert restored_stats.paths_resumed == uninterrupted_stats.paths_resumed
    assert restored_stats.frontier_peak == uninterrupted_stats.frontier_peak
    assert restored_stats.frontier_restores == 1


# SHA-256 of ``json.dumps(encode_session(s), sort_keys=True)`` after
# ``s.extend(60)``.  Round trips above only compare encodings made by one
# version of the code; these pin the bytes a store written by an earlier
# version holds, so a change to substitution, fresh naming or node identity
# that would orphan persisted frontiers fails here.
_FRONTIER_DIGESTS = {
    "gr": "7396773cd56c668664a6e5505c7a85b3ea5484ffcefd8245701ce483e9427b0d",
    "1dRW(1/2,1)": "6e4140903abaddcf196d7f631d1e15552f3a996e13226de6302b04a3b6b482f3",
    "sig-branch3(3/5)": "50344e639563d2372483b293cffcf50025dfaca8335c94b771d8c5c1d9d44e82",
}


@pytest.mark.parametrize("name", sorted(_FRONTIER_DIGESTS))
def test_frontier_encoding_bytes_are_pinned_across_versions(name):
    session = SymbolicExplorer().session(resolve_program(name).applied)
    session.extend(60)
    encoded = json.dumps(encode_session(session), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == _FRONTIER_DIGESTS[name]


# ---------------------------------------------------------------------------
# The one-pass encoder writes the bytes of the earlier two-pass encoder.
# ---------------------------------------------------------------------------


class _ReferenceTable:
    """The earlier encoder's table: ``id -> (object, index)``, double lookups."""

    def __init__(self):
        self.nodes = []
        self._memo = {}

    def index_of(self, obj):
        record = self._memo.get(id(obj))
        return record[1] if record is not None else None

    def add(self, obj, node):
        self._memo[id(obj)] = (obj, len(self.nodes))
        self.nodes.append(node)


def _reference_children(obj):
    if isinstance(obj, (Lam, Fix)):
        return (obj.body,)
    if isinstance(obj, App):
        return (obj.fn, obj.arg)
    if isinstance(obj, If):
        return (obj.cond, obj.then, obj.orelse)
    if isinstance(obj, (Prim, PrimVal)):
        return obj.args
    if isinstance(obj, Score):
        return (obj.arg,)
    if isinstance(obj, SymNumeral):
        return (obj.value,)
    return ()


def _reference_assemble(table, obj):
    if table.index_of(obj) is not None:
        return
    ref = table.index_of
    if isinstance(obj, Var):
        node = ["v", obj.name]
    elif isinstance(obj, Numeral):
        node = ["n", _encode_number(obj.value)]
    elif isinstance(obj, SymNumeral):
        node = ["sn", ref(obj.value)]
    elif isinstance(obj, Lam):
        node = ["l", obj.var, ref(obj.body)]
    elif isinstance(obj, Fix):
        node = ["fx", obj.fvar, obj.var, ref(obj.body)]
    elif isinstance(obj, App):
        node = ["@", ref(obj.fn), ref(obj.arg)]
    elif isinstance(obj, If):
        node = ["if", ref(obj.cond), ref(obj.then), ref(obj.orelse)]
    elif isinstance(obj, Prim):
        node = ["pr", obj.op, [ref(arg) for arg in obj.args]]
    elif isinstance(obj, Sample):
        node = ["smp"]
    elif isinstance(obj, Score):
        node = ["sc", ref(obj.arg)]
    elif isinstance(obj, RecMarker):
        node = ["mu"]
    elif isinstance(obj, ConstVal):
        node = ["c", _encode_number(obj.value)]
    elif isinstance(obj, SampleVar):
        node = ["s", obj.index]
    elif isinstance(obj, ArgVal):
        node = ["arg"]
    elif isinstance(obj, StarVal):
        node = ["*"]
    elif isinstance(obj, PrimVal):
        node = ["p", obj.op, [ref(arg) for arg in obj.args]]
    else:
        raise AssertionError(f"unencodable object {obj!r}")
    table.add(obj, node)


def _reference_encode_into(table, root):
    work = [("visit", root)]
    while work:
        tag, obj = work.pop()
        if tag == "assemble":
            _reference_assemble(table, obj)
            continue
        if table.index_of(obj) is not None:
            continue
        children = _reference_children(obj)
        if not children:
            _reference_assemble(table, obj)
            continue
        work.append(("assemble", obj))
        for child in reversed(children):
            work.append(("visit", child))
    return table.index_of(root)


def _reference_encode_nodes(session_nodes):
    table = _ReferenceTable()

    def constraints(constraint_set):
        return [
            [constraint.relation.name, _reference_encode_into(table, constraint.value)]
            for constraint in constraint_set
        ]

    records = []
    for node in session_nodes:
        bits = [1 if branch else 0 for branch in _node_branches(node)]
        if node.state == _SUSPENDED:
            configuration = node.configuration
            payload = [
                _reference_encode_into(table, configuration.term),
                constraints(configuration.constraints),
                configuration.next_variable,
                configuration.steps,
            ]
        elif node.state == _TERMINATED:
            path = node.path
            payload = [
                constraints(path.constraints),
                path.num_variables,
                path.steps,
                _reference_encode_into(table, path.result),
            ]
        elif node.state == _STUCK:
            payload = node.reason
        else:
            assert node.state == _BRANCHED
            payload = None
        records.append([bits, node.state, bool(node.started), payload])
    return table.nodes, records


def _reference_encode_session(session):
    table, nodes = _reference_encode_nodes(node for _key, node in session._nodes)
    return [
        CODEC_VERSION,
        session.max_paths,
        session.max_steps,
        list(session_counters(session)),
        table,
        nodes,
    ]


def _assert_same_bytes(encoded, expected):
    """Equal ``json.dumps(..., sort_keys=True)``; a mismatch names its offset.

    (The texts run to megabytes, too long for pytest's string diff.)
    """
    mine = json.dumps(encoded, sort_keys=True)
    theirs = json.dumps(expected, sort_keys=True)
    if mine != theirs:
        at = next(
            (i for i, pair in enumerate(zip(mine, theirs)) if pair[0] != pair[1]),
            min(len(mine), len(theirs)),
        )
        pytest.fail(
            f"encodings differ at offset {at} of {len(mine)}/{len(theirs)}: "
            f"{mine[at - 30 : at + 30]!r} != {theirs[at - 30 : at + 30]!r}"
        )


@pytest.mark.parametrize("depth", [0, 10, 40, 60])
@pytest.mark.parametrize("name", ["gr", "1dRW(1/2,1)", "sig-branch3(3/5)", "pedestrian"])
def test_encoder_bytes_match_the_two_pass_reference(name, depth):
    session = SymbolicExplorer().session(resolve_program(name).applied)
    session.extend(depth)
    _assert_same_bytes(encode_session(session), _reference_encode_session(session))
    # Shards: contiguous frontier slices, each with its own table.
    frontier = [node for _key, node in session._nodes if node.state == _SUSPENDED]
    for shard_count in (1, 3):
        shards = split_session(session, shard_count)
        count = min(shard_count, len(frontier))
        base, remainder = divmod(len(frontier), count) if count else (0, 0)
        start = 0
        assert len(shards) == count
        for index, shard in enumerate(shards):
            size = base + (1 if index < remainder else 0)
            table, nodes = _reference_encode_nodes(frontier[start : start + size])
            start += size
            expected = [
                CODEC_VERSION,
                session.max_paths,
                session.max_steps,
                [0, 0, 0],
                table,
                nodes,
            ]
            _assert_same_bytes(shard, expected)


def test_daemon_persisted_frontier_matches_the_two_pass_reference(tmp_path):
    from repro.config import ReproConfig
    from repro.service import AnalysisDaemon

    daemon = AnalysisDaemon(config=ReproConfig(cache_dir=str(tmp_path)))
    try:
        for depth in (10, 20, 30, 40, 50):
            asyncio.run(
                daemon.dispatch(
                    "lower-bound", {"program": "gr", "session": "s", "depth": depth}
                )
            )
        exploration = daemon._sessions["s"][1].exploration
        key = frontier_key(resolve_program("gr"), exploration.max_paths)
        stored, _rows = frontier_entry_parts(
            daemon.store.load_frontier_entry(daemon.engine, key)
        )
        assert exploration.max_steps == 50
        _assert_same_bytes(stored, _reference_encode_session(exploration))
    finally:
        daemon.close()


_NAMES = st.sampled_from(["x", "y", "phi", "f"])
_NUMBERS = st.one_of(
    st.fractions(max_denominator=50),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _shared_values(draw):
    """Symbolic values built from a shared pool (so subvalues repeat by identity)."""
    pool = [SampleVar(draw(st.integers(0, 3))), ArgVal(), StarVal()]
    pool.append(ConstVal(draw(_NUMBERS)))
    for _ in range(draw(st.integers(0, 12))):
        arity = draw(st.integers(1, 3))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        pool.append(PrimVal(draw(st.sampled_from(["add", "mul", "neg"])), args))
    return pool


@st.composite
def _shared_terms(draw):
    """Terms over a shared pool, plus one chain hundreds of nodes deep."""
    values = draw(_shared_values())
    pool = [Var(draw(_NAMES)), Numeral(draw(_NUMBERS)), Sample(), RecMarker()]
    pool.append(SymNumeral(draw(st.sampled_from(values))))

    def pick():
        return draw(st.sampled_from(pool))

    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["app", "lam", "fix", "if", "prim", "score"]))
        if kind == "app":
            term = App(pick(), pick())
        elif kind == "lam":
            term = Lam(draw(_NAMES), pick())
        elif kind == "fix":
            term = Fix(draw(_NAMES), draw(_NAMES), pick())
        elif kind == "if":
            term = If(pick(), pick(), pick())
        elif kind == "prim":
            term = Prim("add", (pick(), pick()))
        else:
            term = Score(pick())
        pool.append(term)
    deep = pick()
    for _ in range(draw(st.integers(0, 600))):
        deep = App(deep, pick()) if draw(st.booleans()) else Lam("x", deep)
    pool.append(deep)
    return pool, values


@settings(max_examples=60, deadline=None)
@given(_shared_terms(), st.data())
def test_encoder_bytes_match_the_reference_on_generated_terms(terms_values, data):
    terms, values = terms_values
    nodes = []
    for position in range(data.draw(st.integers(1, 6))):
        branches = tuple(data.draw(st.lists(st.booleans(), max_size=4)))
        branches = branches + (position % 2 == 0,) * (position + 1)
        constraints = ConstraintSet(
            Constraint(data.draw(st.sampled_from(values)), relation)
            for relation in data.draw(st.lists(st.sampled_from(list(Relation)), max_size=3))
        )
        configuration = _Configuration(
            data.draw(st.sampled_from(terms)), constraints, 0, position, branches
        )
        nodes.append(_SessionNode(_node_key(branches), configuration))
    _assert_same_bytes(_encode_nodes(nodes), _reference_encode_nodes(nodes))


def test_malformed_encodings_read_as_misses():
    session = SymbolicExplorer().session(_PROGRAMS["gr"])
    session.extend(20)
    encoded = encode_session(session)
    explorer = SymbolicExplorer()
    assert decode_session(None, explorer) is None
    assert decode_session([], explorer) is None
    assert decode_session(encoded[:5], explorer) is None
    assert decode_session([CODEC_VERSION + 1] + encoded[1:], explorer) is None
    bad_counters = list(encoded)
    bad_counters[3] = [1, -2]
    assert decode_session(bad_counters, explorer) is None
    if len(encoded[5]) >= 2:  # out-of-order node keys are rejected
        shuffled = list(encoded)
        shuffled[5] = [encoded[5][-1]] + list(encoded[5][:-1])
        assert decode_session(shuffled, explorer) is None


def test_frontier_key_is_budget_independent_but_pins_program_and_cap():
    rank3 = resolve_program("sig-branch3(3/5)")
    rank2 = resolve_program("sig-branch(3/5)")
    key = frontier_key(rank3, 100)
    assert key == frontier_key(rank3, 100)  # no depth, no schedule in the key
    assert key != frontier_key(rank3, 200)
    assert key != frontier_key(rank2, 100)


# ---------------------------------------------------------------------------
# Sharding: split + extend-in-any-order + absorb == inline extend.
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["gr", "sig-branch3"]),
    st.integers(min_value=1, max_value=9),
    st.randoms(use_true_random=False),
)
def test_shard_split_and_absorb_are_bit_identical(name, shard_count, rng):
    term = _PROGRAMS[name]
    suspend_at, target = 20, 32
    inline_stats = PerfStats()
    inline = SymbolicExplorer(stats=inline_stats).session(term)
    inline.extend(suspend_at)
    reference = inline.extend(target)

    master_stats = PerfStats()
    master = SymbolicExplorer(stats=master_stats).session(term)
    master.extend(suspend_at)
    shards = split_session(master, shard_count)
    assert 1 <= len(shards) <= min(shard_count, master.frontier_size)
    order = list(range(len(shards)))
    rng.shuffle(order)  # the steal order must not matter
    decoded = [None] * len(shards)
    for index in order:
        shard = decode_session(
            _roundtrip(shards[index]), SymbolicExplorer(), credit_stats=False
        )
        assert shard is not None
        assert session_counters(shard) == (0, 0, 0)  # pure work units
        assert shard.max_steps == suspend_at
        shard.extend(target)
        decoded[index] = shard
    master.absorb(decoded, target)
    assert master.extend(target) == reference
    assert master_stats.symbolic_steps == inline_stats.symbolic_steps
    assert master_stats.paths_resumed == inline_stats.paths_resumed
    assert master_stats.frontier_peak == inline_stats.frontier_peak


# ---------------------------------------------------------------------------
# The worker loop: claims, stealing, and completed-output reuse.
# ---------------------------------------------------------------------------


def _seed_shards(store, engine, program, depth, target, shard_count):
    """Persist a depth-``depth`` frontier and its ``:in`` shards for ``target``."""
    key = frontier_key(program, 100_000)
    run_distributed_schedule(
        program.name,
        program,
        [depth],
        store=store,
        engine=engine,
        jobs=1,
        max_paths=100_000,
    )
    encoded, _rows = frontier_entry_parts(store.load_frontiers(engine)[key])
    detached = SymbolicExplorer(program.strategy, engine.registry, stats=None)
    master = decode_session(encoded, detached, credit_stats=False)
    shards = split_session(master, shard_count)
    store.merge_frontiers(
        engine,
        {
            shard_entry_key(key, target, index, "in"): frontier_entry(shard, [])
            for index, shard in enumerate(shards)
        },
    )
    return key, shards


def _shard_params(key, target, count, prefer, store):
    return {
        "frontier": key,
        "depth": target,
        "shards": count,
        "prefer": prefer,
        "max_paths": 100_000,
        "strategy": None,
        "store_dir": str(store.directory),
    }


def test_workers_skip_shards_whose_output_is_already_merged(tmp_path):
    program = resolve_program("sig-branch(3/5)")
    engine = MeasureEngine()
    store = open_store(tmp_path)
    key, shards = _seed_shards(store, engine, program, 10, 25, 2)
    assert len(shards) == 2
    # A previous fleet completed shard 0 before dying: its output is merged.
    detached = SymbolicExplorer(program.strategy, engine.registry, stats=None)
    done = decode_session(shards[0], detached, credit_stats=False)
    done.extend(25)
    store.merge_frontiers(
        engine,
        {shard_entry_key(key, 25, 0, "out"): frontier_entry(encode_session(done), [])},
    )
    worker = MeasureEngine()
    payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
    # The completed shard is never re-executed; the surviving one is picked
    # up as a steal (this worker's preferred shard was the finished one).
    assert payload["executed"] == [1]
    assert payload["stolen"] == [1]
    assert worker.stats.shards_executed == 1
    assert worker.stats.shards_stolen == 1
    assert shard_entry_key(key, 25, 1, "out") in store.load_frontiers(worker)


def test_workers_respect_a_live_claim_and_steal_once_it_releases(tmp_path):
    pytest.importorskip("fcntl")
    program = resolve_program("sig-branch(3/5)")
    engine = MeasureEngine()
    store = open_store(tmp_path)
    key, shards = _seed_shards(store, engine, program, 10, 25, 2)
    holder = _ShardClaims(store.directory)
    assert holder.try_claim(_claim_name(key, 25, 1))
    try:
        worker = MeasureEngine()
        payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
        # Shard 1 is busy under a live claim: only shard 0 runs.
        assert payload["executed"] == [0]
    finally:
        holder.release_all()
    worker = MeasureEngine()
    payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
    assert payload["executed"] == [1]
    assert payload["stolen"] == [1]


# ---------------------------------------------------------------------------
# End to end: byte-identity and crash-resume through the store.
# ---------------------------------------------------------------------------


def test_distributed_schedule_is_bit_identical_and_crash_resumable(tmp_path):
    program = resolve_program("sig-branch(3/5)")
    schedule = [10, 25, 40]
    reference_engine = MeasureEngine()
    reference = run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule,
        store=open_store(tmp_path / "reference"),
        engine=reference_engine,
        jobs=1,
        max_paths=100_000,
    )
    reference_payload = json.dumps(reference.payload(), sort_keys=True)

    # A fleet run that "crashes" after the second depth...
    fleet_dir = tmp_path / "fleet"
    run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule[:2],
        store=open_store(fleet_dir),
        engine=MeasureEngine(),
        jobs=2,
        max_paths=100_000,
    )
    # ... and a fresh process that resumes the full schedule.
    resumed_engine = MeasureEngine()
    resumed = run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule,
        store=open_store(fleet_dir),
        engine=resumed_engine,
        jobs=2,
        max_paths=100_000,
    )
    assert resumed.resumed
    assert resumed.restored_depth == 25
    assert [outcome.replayed for outcome in resumed.outcomes] == [True, True, False]
    assert json.dumps(resumed.payload(), sort_keys=True) == reference_payload
    # No completed step re-executes, and the resumed process reports the
    # same PerfStats as the uninterrupted single-process run.
    assert resumed_engine.stats.symbolic_steps == reference_engine.stats.symbolic_steps
    assert resumed_engine.stats.paths_resumed == reference_engine.stats.paths_resumed
    assert resumed_engine.stats.frontier_peak == reference_engine.stats.frontier_peak
    assert resumed_engine.stats.paths_resumed > 0
    assert resumed_engine.stats.frontier_restores == 1


# ---------------------------------------------------------------------------
# Store plumbing: round-trips, GC aging, doctor coverage.
# ---------------------------------------------------------------------------


def test_store_round_trips_frontier_entries(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    session = SymbolicExplorer().session(_PROGRAMS["sig-branch3"])
    session.extend(15)
    rows = [{"depth": 15, "probability": "1/3"}]
    store.merge_frontiers(
        engine, {"the-key": frontier_entry(encode_session(session), rows)}
    )
    assert store.frontier_entry_count(engine) == 1
    loaded = open_store(tmp_path).load_frontiers(engine)
    encoded, loaded_rows = frontier_entry_parts(loaded["the-key"])
    assert loaded_rows == rows
    restored = decode_session(encoded, SymbolicExplorer(), credit_stats=False)
    assert restored.extend(30) == session.extend(30)
    # Entries from a different format version read as a miss, not an error.
    assert frontier_entry_parts([99, [], []]) is None
    assert frontier_entry_parts("garbage") is None


def test_prune_ages_frontier_entries_like_other_kinds(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    run = store.begin_run()
    store.merge_frontiers(engine, {"stale": frontier_entry([], [])}, run=run)
    store.merge_frontiers(engine, {"touched": frontier_entry([], [])}, run=run)
    for _ in range(3):
        run = store.begin_run()
    store.merge_frontiers(engine, {"fresh": frontier_entry([], [])}, run=run)
    # A merge that only *touches* a key refreshes its GC stamp.
    store.merge_frontiers(engine, {}, run=run, touched_keys=["touched"])
    report = store.prune(min_age_runs=2)
    assert report.pruned["frontiers"] == 1
    assert report.kept["frontiers"] == 2
    remaining = store.load_frontiers(engine)
    assert set(remaining) == {"touched", "fresh"}


def test_doctor_audits_frontier_shards(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    store.begin_run()
    session = SymbolicExplorer().session(_PROGRAMS["gr"])
    session.extend(10)
    store.merge_frontiers(
        engine, {"k": frontier_entry(encode_session(session), [])}
    )
    report = diagnose(tmp_path, engine=engine)
    assert report.healthy
    assert report.counts["frontiers_entries"] == 1
    # Damage to a frontier row is a finding, like any other store row.
    with store._connection:
        store._connection.execute(
            "UPDATE entries SET document = substr(document, 1, length(document) - 25)"
            " WHERE kind = 'frontiers'"
        )
    report = diagnose(tmp_path, engine=engine)
    assert not report.healthy
    assert [finding.code for finding in report.errors] == ["corrupt-json"]
    assert "frontiers/k " in report.errors[0].message

"""Perf benchmark for the resumable anytime exploration core (PR 5).

The completeness result (Thm. 3.8) is anytime: the lower bound converges to
``Pterm`` as the step budget grows.  Before this PR, evaluating a depth
schedule meant ``len(schedule)`` independent jobs, each re-deriving every
shallow path from the root and re-measuring (and re-sweeping) every path
constraint set.  The workload here is a 10-point depth schedule on the
rank >= 2 library programs -- ``gr`` (the golden-ratio branching recursion)
and ``sig-branch(3/5)`` (the same rank-2 shape with a non-affine sigmoid
guard, so every path needs the subdivision sweep) -- computed two ways:

* **from scratch** -- one fresh ``LowerBoundEngine`` + ``MeasureEngine`` per
  scheduled depth (the pre-PR pipeline: independent jobs),
* **incremental** -- one ``LowerBoundSession`` extended through the whole
  schedule: suspended symbolic paths resume instead of restarting, each
  distinct terminated path is measured once, and swept blocks are shared
  across depths.

Asserted (deterministically, so it can run in CI):

* every intermediate bound of the incremental session is *bit-identical* --
  full ``LowerBoundResult`` equality, path order included -- to the
  from-scratch run at the same depth,
* the incremental run executes >= 3x fewer symbolic reduction steps in
  aggregate, and >= 2x fewer sweep boxes on the sweeping programs,
* a deeper sweep budget warm-started from a shallower budget's persisted
  undecided-box frontier reproduces the from-scratch bounds bit-for-bit
  while examining strictly fewer boxes (``sweep_warm_starts`` > 0).

Counters and within-run timings go to ``BENCH_anytime.json`` at the
repository root; ``benchmarks/compare_bench.py`` diffs that file against the
committed baseline in CI's ``perf-trajectory`` job.  The committed
``BENCH_papprox`` / ``BENCH_batch`` / ``BENCH_sweep`` baselines are not
touched: the anytime workload lives in its own program registry
(``repro.programs.extra.anytime_programs``).
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.astcheck import build_execution_tree
from repro.batch import open_store
from repro.geometry import MeasureEngine, MeasureOptions
from repro.lowerbound import LowerBoundEngine
from repro.programs import anytime_programs, golden_ratio

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_anytime.json"
_DIST_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dist.json"
_STEP_REDUCTION_FLOOR = 3.0
_BOX_REDUCTION_FLOOR = 2.0
_SCHEDULE = tuple(range(34, 44))


def _parallel_deepening_speedup():
    """The fleet-vs-single ratio from a fresh distributed-bench run, if any.

    ``test_perf_dist`` writes ``BENCH_dist.json`` next to this file's output;
    the ``perf-trajectory`` job runs it first so the ratio lands here too.
    On < 2-core machines (or when the dist bench did not run) the field is
    absent there and recorded as ``null`` here -- ``compare_bench`` only
    gates the ratio when both sides actually fanned out.
    """
    try:
        doc = json.loads(_DIST_RESULT_PATH.read_text())
    except (OSError, ValueError):
        return None
    value = doc.get("parallel_deepening_speedup")
    return value if isinstance(value, (int, float)) else None


def _workload():
    """The rank >= 2 schedule workload: gr plus the anytime registry."""
    programs = {"gr": golden_ratio()}
    programs.update(anytime_programs())
    return programs


def test_incremental_schedule_is_bit_identical_and_cuts_steps_and_boxes():
    rows = {}
    for name, program in sorted(_workload().items()):
        rank = build_execution_tree(program.fix).max_recursive_calls
        assert rank >= 2, f"{name} is not a rank >= 2 workload program"

        # From scratch: one fresh engine per scheduled depth (independent
        # jobs, the pre-PR shape of a Table 1 depth column).
        references = []
        scratch_steps = 0
        scratch_boxes = 0
        scratch_started = time.perf_counter()
        for depth in _SCHEDULE:
            engine = MeasureEngine()
            bound_engine = LowerBoundEngine(
                strategy=program.strategy, measure_engine=engine
            )
            references.append(bound_engine.lower_bound(program.applied, max_steps=depth))
            scratch_steps += engine.stats.symbolic_steps
            scratch_boxes += engine.stats.sweep_boxes_examined
        scratch_elapsed = time.perf_counter() - scratch_started

        # Incremental: one resumable session through the whole schedule.
        engine = MeasureEngine()
        session = LowerBoundEngine(
            strategy=program.strategy, measure_engine=engine
        ).session(program.applied)
        incremental_started = time.perf_counter()
        for depth, reference in zip(_SCHEDULE, references):
            result = session.extend(depth)
            # Full dataclass equality: probability, expected steps, measure
            # gap, flags, and the measured path tuple in exploration order.
            assert result == reference, f"{name} diverged at depth {depth}"
        incremental_elapsed = time.perf_counter() - incremental_started

        incremental_steps = engine.stats.symbolic_steps
        incremental_boxes = engine.stats.sweep_boxes_examined
        assert incremental_steps > 0
        assert engine.stats.paths_resumed > 0, name
        assert engine.stats.frontier_peak > 0, name
        step_reduction = scratch_steps / incremental_steps
        rows[name] = {
            "rank": rank,
            "scratch_steps": scratch_steps,
            "incremental_steps": incremental_steps,
            "step_reduction": round(step_reduction, 2),
            "scratch_sweep_boxes": scratch_boxes,
            "incremental_sweep_boxes": incremental_boxes,
            "paths_resumed": engine.stats.paths_resumed,
            "frontier_peak": engine.stats.frontier_peak,
            "final_paths": references[-1].path_count,
            "final_bound": float(references[-1].probability),
            "scratch_ms": round(scratch_elapsed * 1000, 3),
            "incremental_ms": round(incremental_elapsed * 1000, 3),
        }
        print(
            f"{name:18s} rank={rank} steps {scratch_steps:6d} -> "
            f"{incremental_steps:5d} ({step_reduction:5.2f}x)  boxes "
            f"{scratch_boxes:5d} -> {incremental_boxes:5d}  "
            f"{scratch_elapsed * 1000:7.1f}ms -> {incremental_elapsed * 1000:6.1f}ms"
        )

    scratch_total = sum(row["scratch_steps"] for row in rows.values())
    incremental_total = sum(row["incremental_steps"] for row in rows.values())
    aggregate_step_reduction = scratch_total / incremental_total
    assert aggregate_step_reduction >= _STEP_REDUCTION_FLOOR, (
        f"symbolic steps only dropped {aggregate_step_reduction:.2f}x "
        f"({scratch_total} -> {incremental_total}), "
        f"expected >= {_STEP_REDUCTION_FLOOR}x across the schedule"
    )

    sweeping = {
        name: row for name, row in rows.items() if row["scratch_sweep_boxes"]
    }
    assert sweeping, "the workload should contain sweeping (non-affine) programs"
    scratch_box_total = sum(row["scratch_sweep_boxes"] for row in sweeping.values())
    incremental_box_total = sum(
        row["incremental_sweep_boxes"] for row in sweeping.values()
    )
    box_reduction = (
        scratch_box_total / incremental_box_total
        if incremental_box_total
        else float("inf")
    )
    assert box_reduction >= _BOX_REDUCTION_FLOOR, (
        f"sweep boxes only dropped {box_reduction:.2f}x "
        f"({scratch_box_total} -> {incremental_box_total}), "
        f"expected >= {_BOX_REDUCTION_FLOOR}x across the schedule"
    )

    # -- sweep warm-start across budgets --------------------------------------
    # A shallow-budget run persists its undecided-box frontiers; a deeper
    # budget seeded from the store resumes them: bit-identical bounds, fewer
    # boxes, and the warm-start counter records the resumes.
    program = anytime_programs()["sig-branch(3/5)"]
    depth = _SCHEDULE[-1]
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-anytime-bench-"))
    try:
        cache = open_store(cache_dir)
        shallow_engine = MeasureEngine(MeasureOptions(sweep_depth=11))
        LowerBoundEngine(
            strategy=program.strategy, measure_engine=shallow_engine
        ).lower_bound(program.applied, max_steps=depth)
        cache.merge_sweeps(shallow_engine, shallow_engine.export_sweep_entries())

        warm_engine = MeasureEngine()  # default budget, deeper than 11
        warm_engine.import_sweep_entries(cache.load_sweeps(warm_engine))
        warm = LowerBoundEngine(
            strategy=program.strategy, measure_engine=warm_engine
        ).lower_bound(program.applied, max_steps=depth)

        fresh_engine = MeasureEngine()
        fresh = LowerBoundEngine(
            strategy=program.strategy, measure_engine=fresh_engine
        ).lower_bound(program.applied, max_steps=depth)

        assert warm == fresh, "warm-started sweep bounds must be bit-identical"
        warm_starts = warm_engine.stats.sweep_warm_starts
        warm_boxes = warm_engine.stats.sweep_boxes_examined
        fresh_boxes = fresh_engine.stats.sweep_boxes_examined
        assert warm_starts > 0
        assert warm_boxes < fresh_boxes, (warm_boxes, fresh_boxes)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(
        f"warm-started sweeps   : {warm_starts}  boxes {fresh_boxes} -> "
        f"{warm_boxes} at depth budget 11 -> {MeasureOptions().sweep_depth}"
    )

    scratch_seconds = sum(row["scratch_ms"] for row in rows.values()) / 1000
    incremental_seconds = (
        sum(row["incremental_ms"] for row in rows.values()) / 1000
    )
    payload = {
        "benchmark": "resumable anytime exploration + sweep warm starts",
        "workload": "lower-bound depth schedule over rank >= 2 programs",
        "schedule": list(_SCHEDULE),
        "step_reduction_floor": _STEP_REDUCTION_FLOOR,
        "box_reduction_floor": _BOX_REDUCTION_FLOOR,
        "scratch_steps_total": scratch_total,
        "incremental_steps_total": incremental_total,
        "aggregate_step_reduction": round(aggregate_step_reduction, 2),
        "steps_per_second_scratch": round(scratch_total / scratch_seconds, 1)
        if scratch_seconds
        else None,
        "steps_per_second_incremental": round(
            incremental_total / incremental_seconds, 1
        )
        if incremental_seconds
        else None,
        "parallel_deepening_speedup": _parallel_deepening_speedup(),
        "scratch_sweep_boxes_total": scratch_box_total,
        "incremental_sweep_boxes_total": incremental_box_total,
        "aggregate_box_reduction": round(box_reduction, 2),
        "warm_start": {
            "shallow_depth": 11,
            "deep_depth": MeasureOptions().sweep_depth,
            "warm_starts": warm_starts,
            "warm_boxes": warm_boxes,
            "fresh_boxes": fresh_boxes,
        },
        "programs": rows,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"schedule {list(_SCHEDULE)}: steps {scratch_total} -> {incremental_total} "
        f"({aggregate_step_reduction:.1f}x), sweep boxes {scratch_box_total} -> "
        f"{incremental_box_total} ({box_reduction:.1f}x)"
    )

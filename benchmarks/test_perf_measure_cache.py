"""Perf benchmark for the block-decomposed, memoizing measure engine.

The seed implementation evaluated ``min_sigma P(sigma, n)`` with one full
tree walk per budget ``n``, re-measuring every leaf's path constraint set up
to ``rank + 1`` times, and every analysis (the AST verifier, the PAST
verifier, the refutation) re-measured the same sets from scratch.  PR 1
replaced that with a single-pass traversal over one shared memoizing
:class:`MeasureEngine`; this benchmark additionally gates the block
decomposition added on top: constraint sets are split into independent
variable blocks, each memoized under its own position-independent key, so
two sets sharing a block measure it once.

Asserted (deterministically, so it can run in CI):

* cumulative vectors and ``Papprox`` distributions are bit-identical with the
  cache enabled, with it disabled, and per-budget (``exact`` flag included),
* on every program of recursive rank >= 3 the ``measure_constraints``
  invocation counter drops by at least 5x against the uncached baseline,
* block decomposition never performs *more* base (innermost) block
  computations than the PR 1 engine, and across the programs whose
  constraint sets contain >= 2 independent blocks it performs at least 2x
  fewer of them in aggregate.  The whole-set-only engine no longer exists;
  its per-program counts (``pr1_block_computations``) are read from the
  committed baseline ``benchmarks/baselines/BENCH_papprox.json``.

Wall-clock timings are recorded alongside the counters in
``BENCH_papprox.json`` at the repository root (run with ``-s`` to see the
table).  ``benchmarks/compare_bench.py`` diffs that file against the
committed baseline in CI's ``perf-trajectory`` job.
"""

import json
import time
from pathlib import Path

from repro.astcheck import (
    build_execution_tree,
    min_probability_at_most,
    papprox_distribution,
    verify_ast,
)
from repro.geometry import MeasureEngine
from repro.pastcheck import verify_past
from repro.programs import extra_programs, table2_programs

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_papprox.json"
_BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "BENCH_papprox.json"
_SPEEDUP_FLOOR = 5.0
_BLOCK_SPEEDUP_FLOOR = 2.0


def _library():
    programs = dict(table2_programs())
    for name, program in extra_programs().items():
        programs.setdefault(name, program)
    return programs


def _analysable(programs):
    """The library programs whose bodies admit a finite execution tree."""
    usable = {}
    for name, program in programs.items():
        try:
            tree = build_execution_tree(program.fix)
        except Exception:
            continue
        if tree.has_star_guards:
            continue
        usable[name] = (program, tree)
    return usable


def _verify_both(program, engine):
    """The benchmark workload: AST + PAST verification over one engine."""
    ast_result = verify_ast(program, engine=engine)
    past_result = verify_past(program, engine=engine)
    return ast_result, past_result


def _pr1_block_computations():
    """Committed base block computations of the whole-set-only engine."""
    programs = json.loads(_BASELINE_PATH.read_text())["programs"]
    return {name: row["pr1_block_computations"] for name, row in programs.items()}


def test_shared_cache_is_bit_identical_and_cuts_measure_calls():
    pr1_block_computations = _pr1_block_computations()
    rows = {}
    for name, (program, tree) in _analysable(_library()).items():
        rank = tree.max_recursive_calls

        # Baseline: the seed's per-budget evaluation, uncached, once for the
        # AST verification and once for the PAST verification.
        baseline_engine = MeasureEngine(cache_enabled=False)
        start = time.perf_counter()
        baseline_vector = None
        for _ in range(2):
            baseline_vector = [
                min_probability_at_most(tree, budget, engine=baseline_engine)
                for budget in range(rank + 1)
            ]
        baseline_elapsed = time.perf_counter() - start

        # Cache off, single pass: bit-identity of the new traversal alone.
        uncached = papprox_distribution(tree, engine=MeasureEngine(cache_enabled=False))

        # The block-decomposed engine, shared across both verifiers.
        shared = MeasureEngine()
        start = time.perf_counter()
        ast_result, past_result = _verify_both(program, shared)
        cached_elapsed = time.perf_counter() - start
        cached = papprox_distribution(tree, engine=shared)

        assert list(cached.cumulative) == list(uncached.cumulative) == baseline_vector, name
        assert cached.exact == uncached.exact, name
        assert cached.distribution.as_dict() == uncached.distribution.as_dict(), name
        if ast_result.papprox is not None and past_result.ast_result.papprox is not None:
            assert (
                ast_result.papprox.as_dict()
                == past_result.ast_result.papprox.as_dict()
                == cached.distribution.as_dict()
            ), name

        baseline_calls = baseline_engine.stats.measure_calls
        cached_calls = shared.stats.measure_calls
        # Programs resolved without any measure_constraints invocation (the
        # non-affine library goes through per-block sweeps instead) have no
        # meaningful call ratio: record None, which the comparator skips.
        speedup = baseline_calls / cached_calls if cached_calls else None
        if rank >= 3 and speedup is not None:
            assert speedup >= _SPEEDUP_FLOOR, (
                f"{name}: measure calls only dropped {speedup:.2f}x "
                f"({baseline_calls} -> {cached_calls}), expected >= {_SPEEDUP_FLOOR}x"
            )

        pr1_blocks = pr1_block_computations[name]
        new_blocks = shared.stats.block_computations
        # The decomposition must never do *more* base work than PR 1.
        assert new_blocks <= pr1_blocks, (
            f"{name}: block decomposition did {new_blocks} base computations, "
            f"PR 1 did {pr1_blocks}"
        )
        block_speedup = pr1_blocks / new_blocks if new_blocks else float("inf")

        rows[name] = {
            "rank": rank,
            "leaves": tree.leaf_count,
            "baseline_measure_calls": baseline_calls,
            "cached_measure_calls": cached_calls,
            "measure_call_speedup": None if speedup is None else round(speedup, 2),
            "cache_hits": shared.stats.cache_hits,
            "complement_derivations": shared.stats.complement_derivations,
            "pr1_block_computations": pr1_blocks,
            "block_computations": new_blocks,
            "block_speedup": round(block_speedup, 2) if new_blocks else None,
            "multi_block_sets": shared.stats.multi_block_sets,
            "block_cache_hits": shared.stats.block_cache_hits,
            "baseline_ms": round(baseline_elapsed * 1000, 3),
            "cached_ms": round(cached_elapsed * 1000, 3),
            "exact": cached.exact,
            "papprox": {
                str(calls): str(mass)
                for calls, mass in sorted(cached.distribution.as_dict().items())
            },
        }
        speedup_label = "    -" if speedup is None else f"{speedup:5.1f}"
        print(
            f"{name:22s} rank={rank} calls {baseline_calls:4d} -> {cached_calls:2d} "
            f"({speedup_label}x)  blocks {pr1_blocks:3d} -> {new_blocks:3d}  "
            f"{baseline_elapsed * 1000:7.1f}ms -> {cached_elapsed * 1000:6.1f}ms"
        )

    high_rank = {name: row for name, row in rows.items() if row["rank"] >= 3}
    assert high_rank, "the library should contain rank >= 3 programs"

    # The block gate: over the programs whose sets decompose into >= 2
    # independent blocks, the base computations must drop >= 2x in aggregate.
    multi_block = {name: row for name, row in rows.items() if row["multi_block_sets"]}
    assert multi_block, "the library should contain multi-block programs"
    pr1_total = sum(row["pr1_block_computations"] for row in multi_block.values())
    new_total = sum(row["block_computations"] for row in multi_block.values())
    aggregate_block_speedup = pr1_total / new_total if new_total else float("inf")
    assert aggregate_block_speedup >= _BLOCK_SPEEDUP_FLOOR, (
        f"block computations on multi-block programs only dropped "
        f"{aggregate_block_speedup:.2f}x ({pr1_total} -> {new_total}), "
        f"expected >= {_BLOCK_SPEEDUP_FLOOR}x"
    )
    print(
        f"multi-block programs   : {len(multi_block)}  base computations "
        f"{pr1_total} -> {new_total} ({aggregate_block_speedup:.1f}x)"
    )

    payload = {
        "benchmark": "papprox single-pass + block-decomposed measure cache",
        "workload": "verify_ast + verify_past per program, one shared MeasureEngine",
        "baseline": "per-budget min_probability_at_most, cache disabled, per analysis",
        "speedup_floor_rank_ge_3": _SPEEDUP_FLOOR,
        "block_speedup_floor": _BLOCK_SPEEDUP_FLOOR,
        "multi_block_programs": len(multi_block),
        "pr1_block_computations_total": pr1_total,
        "block_computations_total": new_total,
        "aggregate_block_speedup": round(aggregate_block_speedup, 2),
        "programs": rows,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

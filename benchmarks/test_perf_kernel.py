"""Perf benchmark for the vectorized sweep kernel (PR 9).

The workload is the non-affine retry library at a deepened sweep budget
(``sweep_depth=18``): deep enough that classification dominates the
refinement loop, which is exactly the regime the chunked kernel targets.
Every program's lower bound is computed twice per round -- once on the
scalar loop (the kernel module's numpy handle set to ``None``, the
supported numpy-less fallback) and once with the default kernel pipeline
-- and the faster of three rounds counts, so scheduler noise cannot
manufacture a regression.

Asserted:

* the kernel run is **bit-identical** to the scalar run on every
  observable: probability, measure gap, path count, and the exact number
  of sweep boxes examined (the kernel only classifies; the scalar
  ``Fraction`` path still does all accumulation),
* the kernel actually engages on the suite (``kernel_batches > 0``; the
  warmup threshold deliberately keeps sweeps smaller than
  ``_KERNEL_WARMUP`` boxes on the scalar path, so only programs whose
  block sweeps outgrow it are *expected* to batch),
* aggregate throughput (sweep boxes per second) over the kernel-engaged
  programs improves by at least ``3x`` over the scalar loop.

Both sides of the speedup run in the same process on the same machine, so
the ratio transfers across runners the same way the warm/cold batch ratio
does.  Counters and timings go to ``BENCH_kernel.json`` at the repository
root; ``benchmarks/compare_bench.py`` diffs that file against the
committed baseline in CI's ``perf-trajectory`` job.
"""

import json
import time
from pathlib import Path

from repro.geometry import MeasureEngine, MeasureOptions
from repro.geometry import kernel as kernel_module
from repro.geometry.kernel import kernel_available
from repro.lowerbound import LowerBoundEngine
from repro.programs.extra import nonaffine_programs

import pytest

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
_SPEEDUP_FLOOR = 3.0
_SWEEP_DEPTH = 18
_TERM_DEPTH = 35
_ROUNDS = 3


def _run(program, monkeypatch, use_kernel):
    """One cold lower-bound run; returns (result, stats, elapsed_seconds).

    The scalar side unsets the kernel module's numpy handle for the run.
    """
    options = MeasureOptions(sweep_depth=_SWEEP_DEPTH)
    engine = MeasureEngine(options, cache_enabled=False)
    lower = LowerBoundEngine(strategy=program.strategy, measure_engine=engine)
    with monkeypatch.context() as patch:
        if not use_kernel:
            patch.setattr(kernel_module, "_np", None)
        started = time.perf_counter()
        result = lower.lower_bound(program.applied, max_steps=_TERM_DEPTH)
        return result, engine.stats, time.perf_counter() - started


@pytest.mark.skipif(not kernel_available(), reason="numpy is unavailable")
def test_kernel_triples_sweep_throughput(monkeypatch):
    rows = {}
    for name, program in sorted(nonaffine_programs().items()):
        best = {}
        for label, use_kernel in (("scalar", False), ("kernel", True)):
            for _ in range(_ROUNDS):
                result, stats, elapsed = _run(program, monkeypatch, use_kernel)
                record = best.get(label)
                if record is None or elapsed < record["elapsed"]:
                    best[label] = {
                        "elapsed": elapsed,
                        "result": result,
                        "boxes": stats.sweep_boxes_examined,
                        "kernel_batches": stats.kernel_batches,
                        "kernel_boxes": stats.kernel_boxes,
                    }
        scalar, kernel = best["scalar"], best["kernel"]

        # Bit-identity on every observable: the kernel is a classifier.
        assert kernel["result"].probability == scalar["result"].probability, name
        assert kernel["result"].measure_gap == scalar["result"].measure_gap, name
        assert kernel["result"].path_count == scalar["result"].path_count, name
        assert kernel["boxes"] == scalar["boxes"], name
        assert scalar["kernel_batches"] == 0, name

        speedup = scalar["elapsed"] / kernel["elapsed"]
        rows[name] = {
            "boxes": scalar["boxes"],
            "bound": float(scalar["result"].probability),
            "kernel_batches": kernel["kernel_batches"],
            "kernel_boxes": kernel["kernel_boxes"],
            "scalar_ms": round(scalar["elapsed"] * 1000, 3),
            "kernel_ms": round(kernel["elapsed"] * 1000, 3),
            "boxes_per_sec_scalar": round(scalar["boxes"] / scalar["elapsed"], 1),
            "boxes_per_sec_kernel": round(kernel["boxes"] / kernel["elapsed"], 1),
            "kernel_speedup": round(speedup, 2),
            "kernel_engaged": kernel["kernel_batches"] > 0,
        }
        print(
            f"{name:20s} boxes {scalar['boxes']:7d}  "
            f"scalar {scalar['elapsed'] * 1000:8.1f}ms  "
            f"kernel {kernel['elapsed'] * 1000:8.1f}ms  "
            f"({speedup:5.2f}x, {kernel['kernel_batches']} batches)"
        )

    # The suite must exercise the kernel: at this depth the multi-block
    # programs' sweeps outgrow the warmup threshold and batch.
    engaged = {name: row for name, row in rows.items() if row["kernel_engaged"]}
    assert engaged, "no program engaged the kernel; the workload is too shallow"

    # Throughput gate over the kernel-engaged programs.  Programs whose
    # sweeps stay inside the warmup window are (by design) unchanged, so
    # including their identical wall-clock would measure the warmup policy,
    # not the kernel.
    scalar_seconds = sum(row["scalar_ms"] for row in engaged.values()) / 1000
    kernel_seconds = sum(row["kernel_ms"] for row in engaged.values()) / 1000
    engaged_boxes = sum(row["boxes"] for row in engaged.values())
    speedup = scalar_seconds / kernel_seconds
    assert speedup >= _SPEEDUP_FLOOR, (
        f"kernel throughput on engaged programs only improved {speedup:.2f}x "
        f"({scalar_seconds * 1000:.0f}ms -> {kernel_seconds * 1000:.0f}ms), "
        f"expected >= {_SPEEDUP_FLOOR}x"
    )

    payload = {
        "benchmark": "vectorized sweep kernel",
        "workload": "lower bounds over the non-affine retry library",
        "sweep_depth": _SWEEP_DEPTH,
        "term_depth": _TERM_DEPTH,
        "speedup_floor": _SPEEDUP_FLOOR,
        "engaged_programs": len(engaged),
        "kernel_batches_total": sum(row["kernel_batches"] for row in rows.values()),
        "kernel_boxes_total": sum(row["kernel_boxes"] for row in rows.values()),
        "engaged_boxes_per_sec_scalar": round(engaged_boxes / scalar_seconds, 1),
        "engaged_boxes_per_sec_kernel": round(engaged_boxes / kernel_seconds, 1),
        "engaged_kernel_speedup": round(speedup, 2),
        "programs": rows,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"engaged programs      : {len(engaged)}  boxes/s "
        f"{payload['engaged_boxes_per_sec_scalar']:,.0f} -> "
        f"{payload['engaged_boxes_per_sec_kernel']:,.0f} ({speedup:.1f}x)"
    )

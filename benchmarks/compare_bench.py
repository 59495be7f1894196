"""Diff freshly emitted ``BENCH_*.json`` files against committed baselines.

The perf benchmarks (``benchmarks/test_perf_measure_cache.py`` and
``benchmarks/test_perf_batch.py``) write ``BENCH_papprox.json`` and
``BENCH_batch.json`` at the repository root.  This script compares them with
the baselines committed under ``benchmarks/baselines/`` and fails (exit 1)
on a perf-trajectory regression, so CI tracks the trajectory instead of
merely uploading artifacts.

Gated metrics come in two kinds:

* **counter** -- deterministic work counters (measure calls, base block
  computations, cache hits) and the speedup ratios derived from them.  Any
  worsening at all fails: these are machine-independent, so there is no
  noise to tolerate.
* **ratio** -- *within-run* timing ratios (e.g. warm/cold wall-clock of the
  batch suite, cached/baseline milliseconds of the papprox workload).  Both
  sides of such a ratio come from the same process on the same machine, so
  they transfer across runners; a slowdown beyond the tolerance
  (default 25%) fails.

Absolute wall-clock seconds are reported as **info** rows by default --
comparing them across different runner hardware would gate on noise.  Pass
``--gate-wallclock`` (useful when baseline and current run on the same
machine) to gate them at the same tolerance.

Usage::

    python benchmarks/compare_bench.py              # compare, exit 1 on fail
    python benchmarks/compare_bench.py --update     # bless current numbers
    python benchmarks/compare_bench.py --gate-wallclock --tolerance 0.25
    python benchmarks/compare_bench.py --history    # trajectory across commits

``--history`` walks the git history of the committed baselines and renders
one row per blessing commit with the headline metric of every bench file,
so the *trajectory* (did the speedups keep improving release over release?)
is visible at a glance, not just the latest two points.

The markdown trajectory table goes to stdout and, when the
``GITHUB_STEP_SUMMARY`` environment variable is set (as it is in GitHub
Actions), is appended to the job summary as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

BENCH_FILES = (
    "BENCH_papprox.json",
    "BENCH_batch.json",
    "BENCH_sweep.json",
    "BENCH_anytime.json",
    "BENCH_kernel.json",
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

LOWER = "lower-is-better"
HIGHER = "higher-is-better"

COUNTER = "counter"
RATIO = "ratio"
WALLCLOCK = "wallclock"
INFO = "info"


@dataclass
class Metric:
    """One gated (or informational) scalar extracted from a bench file."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    direction: str
    kind: str

    def verdict(self, tolerance: float, gate_wallclock: bool) -> str:
        """``ok`` / ``FAIL`` / ``info`` / ``missing`` for this metric."""
        if self.baseline is None or self.current is None:
            return "missing"
        kind = self.kind
        if kind == WALLCLOCK:
            kind = RATIO if gate_wallclock else INFO
        if kind == INFO:
            return "info"
        allowance = 0.0 if kind == COUNTER else tolerance
        if self.direction == LOWER:
            limit = self.baseline * (1.0 + allowance)
            return "ok" if self.current <= limit + 1e-12 else "FAIL"
        limit = self.baseline * (1.0 - allowance)
        return "ok" if self.current >= limit - 1e-12 else "FAIL"

    def delta(self) -> str:
        if self.baseline is None or self.current is None:
            return "-"
        if self.baseline == 0:
            return "n/a" if self.current else "+0%"
        change = (self.current - self.baseline) / abs(self.baseline) * 100.0
        return f"{change:+.1f}%"


def _number(value) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _load(path: Path) -> Optional[dict]:
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _papprox_metrics(baseline: dict, current: dict) -> List[Metric]:
    metrics = [
        Metric(
            "papprox: aggregate block speedup",
            _number(baseline.get("aggregate_block_speedup")),
            _number(current.get("aggregate_block_speedup")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "papprox: base block computations (total)",
            _number(baseline.get("block_computations_total")),
            _number(current.get("block_computations_total")),
            LOWER,
            COUNTER,
        ),
    ]
    baseline_programs = baseline.get("programs") or {}
    current_programs = current.get("programs") or {}
    for name in sorted(baseline_programs):
        old_row = baseline_programs.get(name) or {}
        new_row = current_programs.get(name)
        if new_row is None:
            # A program dropping out of the benchmark is a coverage
            # regression, surfaced through a missing-counter failure.
            metrics.append(
                Metric(f"papprox[{name}]: cached measure calls",
                       _number(old_row.get("cached_measure_calls")), None,
                       LOWER, COUNTER)
            )
            continue
        for field, direction in (
            ("cached_measure_calls", LOWER),
            ("block_computations", LOWER),
            ("measure_call_speedup", HIGHER),
        ):
            old_value = _number(old_row.get(field))
            new_value = _number(new_row.get(field))
            if old_value is None and new_value is None:
                # Deliberately absent on both sides (e.g. the call-speedup of
                # programs that never invoke measure_constraints): no gate.
                continue
            metrics.append(
                Metric(
                    f"papprox[{name}]: {field.replace('_', ' ')}",
                    old_value,
                    new_value,
                    direction,
                    COUNTER,
                )
            )
    # Within-run timing ratio: cached vs baseline milliseconds, totalled over
    # the common programs (per-program timings are sub-millisecond noise).
    common = [name for name in baseline_programs if name in current_programs]

    def _totals(programs, names):
        baseline_ms = sum(_number(programs[n].get("baseline_ms")) or 0.0 for n in names)
        cached_ms = sum(_number(programs[n].get("cached_ms")) or 0.0 for n in names)
        return (cached_ms / baseline_ms) if baseline_ms else None

    metrics.append(
        Metric(
            "papprox: cached/baseline wall-clock ratio",
            _totals(baseline_programs, common),
            _totals(current_programs, common),
            LOWER,
            RATIO,
        )
    )
    return metrics


def _multicore(document: dict) -> bool:
    """Whether a bench document was produced on a machine that can fan out."""
    cores = document.get("cpu_count")
    return isinstance(cores, (int, float)) and cores >= 2


def _batch_metrics(baseline: dict, current: dict) -> List[Metric]:
    metrics = [
        Metric("batch: jobs in suite", _number(baseline.get("job_count")),
               _number(current.get("job_count")), HIGHER, COUNTER),
        Metric("batch: warm job-cache hits", _number(baseline.get("warm_job_cache_hits")),
               _number(current.get("warm_job_cache_hits")), HIGHER, COUNTER),
        Metric("batch: warm/cold wall-clock ratio", _number(baseline.get("warm_ratio")),
               _number(current.get("warm_ratio")), LOWER, RATIO),
        Metric("batch: cold seconds", _number(baseline.get("cold_seconds")),
               _number(current.get("cold_seconds")), LOWER, WALLCLOCK),
        Metric("batch: serial seconds", _number(baseline.get("serial_seconds")),
               _number(current.get("serial_seconds")), LOWER, WALLCLOCK),
    ]
    # The parallel-speedup ratio only means something when both sides had
    # >= 2 cores to fan out over *and* both recorded the field (a 1-core
    # emitter skips the parallel run entirely): comparing a single-core
    # "speedup" would gate on pure scheduling noise, so it is skipped, not
    # reported as missing.
    baseline_speedup = _number(baseline.get("parallel_speedup"))
    current_speedup = _number(current.get("parallel_speedup"))
    if (
        _multicore(baseline)
        and _multicore(current)
        and baseline_speedup is not None
        and current_speedup is not None
    ):
        metrics.append(
            Metric("batch: parallel speedup", baseline_speedup, current_speedup,
                   HIGHER, RATIO)
        )
    return metrics


def _sweep_metrics(baseline: dict, current: dict) -> List[Metric]:
    metrics = [
        Metric(
            "sweep: aggregate box reduction (multi-block)",
            _number(baseline.get("aggregate_box_reduction")),
            _number(current.get("aggregate_box_reduction")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "sweep: block boxes examined (multi-block total)",
            _number(baseline.get("multi_block_block_boxes")),
            _number(current.get("multi_block_block_boxes")),
            LOWER,
            COUNTER,
        ),
        Metric(
            "sweep: warm base sweep computations",
            _number(baseline.get("warm_sweep_blocks")),
            _number(current.get("warm_sweep_blocks")),
            LOWER,
            COUNTER,
        ),
    ]
    baseline_programs = baseline.get("programs") or {}
    current_programs = current.get("programs") or {}
    for name in sorted(baseline_programs):
        old_row = baseline_programs.get(name) or {}
        new_row = current_programs.get(name)
        if new_row is None:
            metrics.append(
                Metric(f"sweep[{name}]: block boxes",
                       _number(old_row.get("block_boxes")), None, LOWER, COUNTER)
            )
            continue
        for field, direction in (
            ("block_boxes", LOWER),
            ("block_bound", HIGHER),
        ):
            metrics.append(
                Metric(
                    f"sweep[{name}]: {field.replace('_', ' ')}",
                    _number(old_row.get(field)),
                    _number(new_row.get(field)),
                    direction,
                    COUNTER,
                )
            )
    # Within-run timing ratio: block vs joint wall-clock, totalled over the
    # common programs (both sides run in the same process).
    common = [name for name in baseline_programs if name in current_programs]

    def _totals(programs, names):
        joint_ms = sum(_number(programs[n].get("joint_ms")) or 0.0 for n in names)
        block_ms = sum(_number(programs[n].get("block_ms")) or 0.0 for n in names)
        return (block_ms / joint_ms) if joint_ms else None

    metrics.append(
        Metric(
            "sweep: block/joint wall-clock ratio",
            _totals(baseline_programs, common),
            _totals(current_programs, common),
            LOWER,
            RATIO,
        )
    )
    return metrics


def _anytime_metrics(baseline: dict, current: dict) -> List[Metric]:
    metrics = [
        Metric(
            "anytime: aggregate step reduction",
            _number(baseline.get("aggregate_step_reduction")),
            _number(current.get("aggregate_step_reduction")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "anytime: incremental symbolic steps (total)",
            _number(baseline.get("incremental_steps_total")),
            _number(current.get("incremental_steps_total")),
            LOWER,
            COUNTER,
        ),
        Metric(
            "anytime: aggregate sweep-box reduction",
            _number(baseline.get("aggregate_box_reduction")),
            _number(current.get("aggregate_box_reduction")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "anytime: incremental sweep boxes (total)",
            _number(baseline.get("incremental_sweep_boxes_total")),
            _number(current.get("incremental_sweep_boxes_total")),
            LOWER,
            COUNTER,
        ),
    ]
    baseline_warm = baseline.get("warm_start") or {}
    current_warm = current.get("warm_start") or {}
    metrics.append(
        Metric(
            "anytime: warm-started sweeps",
            _number(baseline_warm.get("warm_starts")),
            _number(current_warm.get("warm_starts")),
            HIGHER,
            COUNTER,
        )
    )
    metrics.append(
        Metric(
            "anytime: warm-resumed sweep boxes",
            _number(baseline_warm.get("warm_boxes")),
            _number(current_warm.get("warm_boxes")),
            LOWER,
            COUNTER,
        )
    )
    baseline_programs = baseline.get("programs") or {}
    current_programs = current.get("programs") or {}
    for name in sorted(baseline_programs):
        old_row = baseline_programs.get(name) or {}
        new_row = current_programs.get(name)
        if new_row is None:
            metrics.append(
                Metric(f"anytime[{name}]: incremental steps",
                       _number(old_row.get("incremental_steps")), None,
                       LOWER, COUNTER)
            )
            continue
        for field, direction in (
            ("incremental_steps", LOWER),
            ("step_reduction", HIGHER),
            ("incremental_sweep_boxes", LOWER),
            ("final_bound", HIGHER),
        ):
            metrics.append(
                Metric(
                    f"anytime[{name}]: {field.replace('_', ' ')}",
                    _number(old_row.get(field)),
                    _number(new_row.get(field)),
                    direction,
                    COUNTER,
                )
            )
    # Within-run timing ratio: incremental vs from-scratch wall-clock,
    # totalled over the common programs (both run in the same process).
    common = [name for name in baseline_programs if name in current_programs]

    def _totals(programs, names):
        scratch_ms = sum(_number(programs[n].get("scratch_ms")) or 0.0 for n in names)
        incremental_ms = sum(
            _number(programs[n].get("incremental_ms")) or 0.0 for n in names
        )
        return (incremental_ms / scratch_ms) if scratch_ms else None

    metrics.append(
        Metric(
            "anytime: incremental/scratch wall-clock ratio",
            _totals(baseline_programs, common),
            _totals(current_programs, common),
            LOWER,
            RATIO,
        )
    )
    metrics.append(
        Metric(
            "anytime: incremental steps/sec",
            _number(baseline.get("steps_per_second_incremental")),
            _number(current.get("steps_per_second_incremental")),
            HIGHER,
            WALLCLOCK,
        )
    )
    return metrics


def _kernel_metrics(baseline: dict, current: dict) -> List[Metric]:
    metrics = [
        # Both sides of the speedup come from the same process on the same
        # machine (scalar vs kernel interleaved in one run), so the ratio
        # transfers across runners like the other within-run ratios.
        Metric(
            "kernel: engaged boxes/sec speedup",
            _number(baseline.get("engaged_kernel_speedup")),
            _number(current.get("engaged_kernel_speedup")),
            HIGHER,
            RATIO,
        ),
        Metric(
            "kernel: engaged programs",
            _number(baseline.get("engaged_programs")),
            _number(current.get("engaged_programs")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "kernel: boxes classified in batches (total)",
            _number(baseline.get("kernel_boxes_total")),
            _number(current.get("kernel_boxes_total")),
            HIGHER,
            COUNTER,
        ),
        Metric(
            "kernel: engaged boxes/sec (kernel)",
            _number(baseline.get("engaged_boxes_per_sec_kernel")),
            _number(current.get("engaged_boxes_per_sec_kernel")),
            HIGHER,
            WALLCLOCK,
        ),
    ]
    baseline_programs = baseline.get("programs") or {}
    current_programs = current.get("programs") or {}
    for name in sorted(baseline_programs):
        old_row = baseline_programs.get(name) or {}
        new_row = current_programs.get(name)
        if new_row is None:
            metrics.append(
                Metric(f"kernel[{name}]: boxes",
                       _number(old_row.get("boxes")), None, LOWER, COUNTER)
            )
            continue
        # The bound and the box count are bit-identity witnesses (zero
        # tolerance); per-program speedups are informational -- programs
        # inside the warmup window hover at 1x by design.
        for field, direction, kind in (
            ("boxes", LOWER, COUNTER),
            ("bound", HIGHER, COUNTER),
            ("kernel_speedup", HIGHER, WALLCLOCK),
        ):
            metrics.append(
                Metric(
                    f"kernel[{name}]: {field.replace('_', ' ')}",
                    _number(old_row.get(field)),
                    _number(new_row.get(field)),
                    direction,
                    kind,
                )
            )
    return metrics


METRIC_BUILDERS = {
    "BENCH_papprox.json": _papprox_metrics,
    "BENCH_batch.json": _batch_metrics,
    "BENCH_sweep.json": _sweep_metrics,
    "BENCH_anytime.json": _anytime_metrics,
    "BENCH_kernel.json": _kernel_metrics,
}


def collect_metrics(baseline_dir: Path, current_dir: Path) -> List[Metric]:
    metrics: List[Metric] = []
    for filename in BENCH_FILES:
        baseline = _load(baseline_dir / filename)
        current = _load(current_dir / filename)
        if baseline is None or current is None:
            side = "baseline" if baseline is None else "current"
            metrics.append(Metric(f"{filename} ({side} file)", None, None, LOWER, COUNTER))
            continue
        metrics.extend(METRIC_BUILDERS[filename](baseline, current))
    return metrics


def _format(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if not math.isfinite(value):
        return str(value)
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}"


def render_table(metrics: List[Metric], tolerance: float, gate_wallclock: bool) -> str:
    lines = [
        "## Perf trajectory",
        "",
        "| metric | baseline | current | delta | status |",
        "| --- | ---: | ---: | ---: | :---: |",
    ]
    for metric in metrics:
        status = metric.verdict(tolerance, gate_wallclock)
        marker = {"ok": "✅ ok", "FAIL": "❌ FAIL", "info": "ℹ️ info",
                  "missing": "❌ missing"}[status]
        lines.append(
            f"| {metric.name} | {_format(metric.baseline)} | "
            f"{_format(metric.current)} | {metric.delta()} | {marker} |"
        )
    return "\n".join(lines)


def update_baselines(baseline_dir: Path, current_dir: Path) -> int:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    missing = []
    for filename in BENCH_FILES:
        source = current_dir / filename
        if not source.is_file():
            missing.append(filename)
            continue
        shutil.copyfile(source, baseline_dir / filename)
        print(f"blessed {source} -> {baseline_dir / filename}")
    if missing:
        print(
            "missing current bench files (run the perf benchmarks first): "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    return 0


# One headline scalar per bench file for the --history trajectory table.
HISTORY_METRICS = (
    ("BENCH_papprox.json", "aggregate_block_speedup", "papprox block speedup"),
    ("BENCH_batch.json", "warm_ratio", "batch warm/cold ratio"),
    ("BENCH_sweep.json", "aggregate_box_reduction", "sweep box reduction"),
    ("BENCH_anytime.json", "aggregate_step_reduction", "anytime step reduction"),
    ("BENCH_kernel.json", "engaged_kernel_speedup", "kernel speedup"),
)


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout if completed.returncode == 0 else None


def baseline_history(baseline_dir: Path, limit: int) -> List[dict]:
    """One row per commit that touched the baselines, oldest first.

    Each row is ``{"commit", "date", "subject", <metric label>: value...}``;
    a metric a revision did not record simply stays absent from its row.
    """
    try:
        relative = baseline_dir.resolve().relative_to(REPO_ROOT)
    except ValueError:
        return []
    listing = _git(
        "log", f"-{limit}", "--format=%h%x09%cs%x09%s", "--", str(relative)
    )
    if not listing:
        return []
    rows = []
    for line in listing.splitlines():
        commit, _, rest = line.partition("\t")
        date, _, subject = rest.partition("\t")
        row = {"commit": commit, "date": date, "subject": subject}
        for filename, key, label in HISTORY_METRICS:
            blob = _git("show", f"{commit}:{relative}/{filename}")
            if blob is None:
                continue
            try:
                document = json.loads(blob)
            except ValueError:
                continue
            value = _number(document.get(key)) if isinstance(document, dict) else None
            if value is not None:
                row[label] = value
        rows.append(row)
    rows.reverse()  # git log is newest-first; a trajectory reads oldest-first
    return rows


def render_history(rows: List[dict]) -> str:
    labels = [label for _, _, label in HISTORY_METRICS]
    lines = [
        "## Perf trajectory history",
        "",
        "| commit | date | " + " | ".join(labels) + " |",
        "| --- | --- | " + " | ".join("---:" for _ in labels) + " |",
    ]
    for row in rows:
        cells = [_format(row.get(label)) for label in labels]
        lines.append(f"| {row['commit']} | {row['date']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def history_main(baseline_dir: Path, limit: int) -> int:
    rows = baseline_history(baseline_dir, limit)
    if not rows:
        print(
            "no baseline history found (not a git checkout, or the baselines "
            "are outside the repository)",
            file=sys.stderr,
        )
        return 1
    table = render_history(rows)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a") as stream:
                stream.write(table + "\n")
        except OSError as error:
            print(f"could not append to GITHUB_STEP_SUMMARY: {error}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, default=DEFAULT_BASELINE_DIR,
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current-dir", type=Path, default=REPO_ROOT,
        help="directory of freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional worsening of ratio metrics (default 0.25)",
    )
    parser.add_argument(
        "--gate-wallclock", action="store_true",
        help="also gate absolute wall-clock seconds (same-machine baselines only)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="copy the current BENCH_*.json files over the baselines and exit",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="render the committed baselines' trajectory across git history "
        "instead of comparing fresh results",
    )
    parser.add_argument(
        "--history-limit", type=int, default=20,
        help="how many baseline-touching commits --history walks (default 20)",
    )
    arguments = parser.parse_args(argv)

    if arguments.update:
        return update_baselines(arguments.baseline_dir, arguments.current_dir)
    if arguments.history:
        return history_main(arguments.baseline_dir, arguments.history_limit)

    metrics = collect_metrics(arguments.baseline_dir, arguments.current_dir)
    table = render_table(metrics, arguments.tolerance, arguments.gate_wallclock)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a") as stream:
                stream.write(table + "\n")
        except OSError as error:
            print(f"could not append to GITHUB_STEP_SUMMARY: {error}", file=sys.stderr)

    failures = [
        metric.name
        for metric in metrics
        if metric.verdict(arguments.tolerance, arguments.gate_wallclock)
        in ("FAIL", "missing")
    ]
    if failures:
        print(
            f"\nperf trajectory REGRESSED on {len(failures)} metric(s): "
            + "; ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("\nperf trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

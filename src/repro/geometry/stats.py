"""Performance counters for the measuring subsystem.

Every probability in the reproduction bottoms out in a call to
:func:`repro.geometry.measure.measure_constraints`, so a handful of counters
around that entry point gives a faithful, machine-independent picture of how
much geometric work an analysis performed.  The counters are deliberately
deterministic (no wall-clock): the perf benchmark in
``benchmarks/test_perf_measure_cache.py`` asserts on them instead of timings,
so it can run in CI without flakiness.

A single :class:`PerfStats` instance is owned by a
:class:`repro.geometry.engine.MeasureEngine` and threaded through the sweep
and polytope oracles; the CLI's ``--stats`` flag prints :meth:`PerfStats.summary`.

Each field carries its presentation and merge semantics as dataclass field
metadata:

* ``label``   -- the human name used by :meth:`summary` and by the telemetry
  counter reports (``repro trace summarize``), so the printed table and the
  event stream can never drift from the field list;
* ``merge``   -- ``"sum"`` for running totals (the default), ``"max"`` for
  high-water marks, which :meth:`merge` combines by maximum across workers;
* ``rate_of`` -- optional: render this counter with a percentage of the
  named sibling field (the cache hit rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple


def _counter(label: str, merge: str = "sum", rate_of: str = None) -> int:
    metadata = {"label": label, "merge": merge}
    if rate_of is not None:
        metadata["rate_of"] = rate_of
    return field(default=0, metadata=metadata)


@dataclass
class PerfStats:
    """Counters describing the geometric work done by a measure engine."""

    measure_requests: int = _counter("measure requests")
    """Requests made to :meth:`MeasureEngine.measure` (hits included)."""

    measure_calls: int = _counter("measure calls")
    """Actual invocations of :func:`measure_constraints` (cache misses)."""

    cache_hits: int = _counter("cache hits", rate_of="measure_requests")
    """Requests answered from the memo table."""

    persistent_hits: int = _counter("persistent cache hits")
    """Requests answered from an imported (cross-process) persistent cache."""

    complement_derivations: int = _counter("complement derivations")
    """Requests answered exactly via the complement rule (no measuring)."""

    block_requests: int = _counter("block requests")
    """Per-block measure lookups made by the decomposed path (hits included)."""

    block_cache_hits: int = _counter("block cache hits")
    """Block lookups answered from the block-level memo table."""

    block_computations: int = _counter("block computations")
    """Base (innermost) block measure computations actually performed.

    Incremented by :func:`repro.geometry.measure.measure_constraints` once per
    independent block that carries constraints (and once per whole-set sweep
    fallback), in the monolithic and the decomposed regime alike -- so the
    counter compares like for like across engine configurations.
    """

    multi_block_sets: int = _counter("multi-block sets")
    """Decomposed full-set computations that split into >= 2 blocks."""

    sweep_boxes_examined: int = _counter("sweep boxes examined")
    """Boxes popped by the certified subdivision sweep."""

    sweep_evaluations_saved: int = _counter("sweep evals saved")
    """Per-constraint ``box_status`` evaluations skipped by sweep pruning."""

    sweep_blocks: int = _counter("sweep blocks")
    """Base per-block subdivision sweeps actually performed.

    The block-sweep path of the measure engine sweeps each renumbered
    non-affine block at most once per distinct (block, budget); memo, sweep
    and persistent hits answer the rest without touching this counter -- so
    a warm rerun of a sweep-heavy suite reports 0 here.
    """

    sweep_early_exits: int = _counter("sweep early exits")
    """Sweeps stopped early by the ``target_gap`` / ``max_boxes`` budget."""

    sweep_heap_peak: int = _counter("sweep heap peak", merge="max")
    """Largest refinement frontier held by any single adaptive sweep.

    Unlike every other counter this is a high-water mark, not a total:
    :meth:`merge` takes the maximum instead of the sum.
    """

    kernel_batches: int = _counter("kernel batches")
    """Chunks classified by the vectorized sweep kernel.

    Chunking is deterministic (a pure function of the refinement order), so
    this is a zero-tolerance counter like the other work counts.
    """

    kernel_boxes: int = _counter("kernel boxes")
    """Boxes classified through the vectorized kernel (subset of
    :attr:`sweep_boxes_examined`; the remainder went through the scalar
    path or a scalar re-check)."""

    contractions: int = _counter("contractions")
    """Boxes the interval-Newton contractor shrank, decided, or rejected."""

    contracted_volume: float = _counter("contracted volume")
    """Total volume the contractor certifiably removed from the undecided
    gap (a float diagnostic, not a gated counter: it sums rounded
    ``Fraction`` differences)."""

    sweep_warm_starts: int = _counter("sweep warm starts")
    """Base block sweeps resumed from a shallower budget's persisted frontier.

    A warm-started sweep refines only the undecided boxes the shallower
    budget left behind instead of re-bisecting the whole unit box; its
    bounds are bit-identical to a from-scratch sweep at the deeper budget.
    """

    symbolic_steps: int = _counter("symbolic steps")
    """Symbolic reduction steps executed by path exploration.

    Each redex contracted by the symbolic rule set
    (:class:`repro.symbolic.execute.SymbolicStepper`) while enumerating
    paths counts once -- including the step into each branch of a
    conditional fork.  A resumable exploration session never
    re-executes a step across budgets, which is what the anytime benchmark
    gates against from-scratch re-exploration.
    """

    paths_resumed: int = _counter("paths resumed")
    """Suspended exploration configurations resumed by a deeper budget.

    Counts the configurations an :class:`~repro.symbolic.execute.ExplorationSession`
    picked up mid-path on ``extend`` instead of re-deriving them from the
    root (each one represents a whole re-execution avoided).
    """

    frontier_peak: int = _counter("frontier peak", merge="max")
    """Largest exploration frontier held by any session (high-water mark).

    The number of *live* configurations -- suspended paths a deeper budget
    could still advance, the set ``ExplorationSession.frontier_size``
    reports between extends -- at its peak; like :attr:`sweep_heap_peak` it
    merges by maximum, not by sum.
    """

    frontier_restores: int = _counter("frontier restores")
    """Exploration sessions rebuilt from a persisted frontier.

    Each restore stands for a whole exploration prefix *not* re-executed:
    the decoded session replays its recorded history and resumes stepping
    exactly where the persisted budget stopped (its persisted counters are
    credited to :attr:`symbolic_steps` / :attr:`paths_resumed` /
    :attr:`frontier_peak`, so resumed runs report the same totals as
    uninterrupted ones).
    """

    shards_executed: int = _counter("frontier shards executed")
    """Frontier shards a distributed deepening extended to a deeper budget
    (on workers or inline by the supervisor after exhausted retries)."""

    shards_stolen: int = _counter("frontier shards stolen")
    """Frontier shards claimed by a worker other than the one they were
    assigned to -- the work-stealing half of the distributed scheduler."""

    polytope_calls: int = _counter("polytope invocations")
    """Invocations of the floating-point polytope volume oracle."""

    retries: int = _counter("job retries")
    """Transient job failures (worker death, timeout, OSError) the supervised
    batch runner re-submitted instead of surfacing as final errors."""

    timeouts: int = _counter("job timeouts")
    """Jobs that exceeded the per-job wall-clock budget (``--job-timeout``)."""

    worker_restarts: int = _counter("worker restarts")
    """Worker-pool resurrections after a worker death or a hung job."""

    quarantined_shards: int = _counter("quarantined files")
    """Damaged store rows moved into the store's ``quarantine`` table.

    Counts every row the persistent store refused to read -- torn JSON,
    checksum mismatches -- and set aside for inspection instead of silently
    treating as a cache miss.
    """

    @classmethod
    def field_labels(cls) -> Dict[str, str]:
        """Field name -> human label, straight from the field metadata."""
        return {f.name: f.metadata["label"] for f in fields(cls)}

    @classmethod
    def high_water_marks(cls) -> Tuple[str, ...]:
        """The fields that merge by maximum instead of summing."""
        return tuple(f.name for f in fields(cls) if f.metadata["merge"] == "max")

    # Kept as a property for backward compatibility with callers that read
    # the old class attribute; the field metadata is the source of truth.
    @property
    def _HIGH_WATER_MARKS(self) -> Tuple[str, ...]:  # noqa: N802
        return self.high_water_marks()

    def merge(self, other: "PerfStats") -> None:
        """Add another instance's counters into this one.

        Fields whose metadata says ``merge: "max"`` (the high-water marks
        ``sweep_heap_peak`` and ``frontier_peak``) combine by maximum; every
        other field is a running total and merges by addition.
        """
        for spec in fields(self):
            ours, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if spec.metadata["merge"] == "max":
                setattr(self, spec.name, max(ours, theirs))
            else:
                setattr(self, spec.name, ours + theirs)

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def summary(self) -> str:
        """A short human-readable report (printed by the CLI's ``--stats``).

        Rendered entirely from the field metadata, so a new counter shows up
        here (and in ``repro trace summarize``) the moment it is declared.
        """
        specs = fields(self)
        pad = max(len(spec.metadata["label"]) for spec in specs)
        lines = []
        for spec in specs:
            value = getattr(self, spec.name)
            rendered = f"{spec.metadata['label']:<{pad}}: {value}"
            rate_of = spec.metadata.get("rate_of")
            if rate_of is not None:
                denominator = getattr(self, rate_of)
                rate = (value / denominator * 100) if denominator else 0.0
                rendered += f" ({rate:.1f}%)"
            lines.append(rendered)
        return "\n".join(lines)

"""The batch job model: specifications, content-hash keys, and results.

A :class:`JobSpec` names one analysis run -- a program (library name or
surface syntax), an analysis kind, and its parameters.  Its :meth:`JobSpec.key`
is a content hash over the *resolved* program (the pretty-printed terms and
evaluation strategy, not just the reference) plus the analysis and its
canonical parameters, so

* the same job always hashes the same, across processes and sessions,
* editing a library program invalidates every cached result about it,
* parameters that change the answer (depth, seed, ...) are part of the key.

A :class:`JobResult` carries the analysis verdict as a *deterministic,
JSON-safe payload* (fractions as ``"p/q"`` strings, floats as plain JSON
numbers) next to non-deterministic bookkeeping (wall-clock, measure-engine
counters, whether the result came from cache).  :meth:`JobResult.to_json_line`
serializes only the deterministic part, which is what makes re-runs of an
unchanged batch byte-identical JSONL.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.geometry.engine import MeasureEngine
from repro.programs import resolve_program
from repro.programs.library import Program
from repro.spcf.printer import pretty

# Version 2: the block-decomposed sweep (PR 4) tightened emitted non-affine
# lower bounds and added ``measure_gap`` to lower-bound payloads, so results
# cached under version 1 must not be replayed.
JOB_FORMAT_VERSION = 2

ANALYSES: Tuple[str, ...] = (
    "lower-bound",
    "lower-bound-schedule",
    "verify",
    "classify",
    "estimate",
    "papprox",
)

_DEFAULT_PARAMS: Dict[str, Dict[str, Any]] = {
    "lower-bound": {"depth": 50, "max_paths": 100_000, "strategy": None},
    # One *incremental* job per program: the whole depth schedule runs over a
    # single resumable session, recording the full anytime trajectory.  The
    # optional ``target_gap`` ("p/q" string) stops the schedule early once
    # the certified anytime gap drops below it.
    "lower-bound-schedule": {
        "schedule": (10, 25, 50),
        "max_paths": 100_000,
        "strategy": None,
        "target_gap": None,
    },
    "verify": {"max_steps": 5_000},
    "classify": {"max_steps": 2_000},
    "estimate": {"runs": 2_000, "max_steps": 20_000, "seed": 0},
    "papprox": {"max_steps": 5_000},
}


def encode_number(value: Union[Fraction, float, int, None]):
    """JSON-safe encoding of an analysis number: exact values stay exact.

    This is the human-readable *payload* codec (``"p/q"`` strings, plain JSON
    floats) used in result JSONL.  The measure cache uses the stricter tagged
    codec in :mod:`repro.geometry.engine` (``float.hex()`` for floats) --
    payloads favour readability, cache entries favour exact round-trips.
    """
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not analysis numbers")
    if isinstance(value, int):
        return str(Fraction(value))
    return float(value)


def decode_number(encoded) -> Union[Fraction, float, None]:
    """Invert :func:`encode_number` (``"p/q"`` strings back to fractions)."""
    if encoded is None:
        return None
    if isinstance(encoded, str):
        return Fraction(encoded)
    return float(encoded)


def validate_schedule(schedule) -> List[int]:
    """``schedule`` as a list of ints, if it is a valid anytime schedule:
    non-empty, positive and non-decreasing (``ValueError`` otherwise)."""
    depths = [int(depth) for depth in schedule]
    if (
        not depths
        or depths[0] <= 0
        or any(second < first for first, second in zip(depths, depths[1:]))
    ):
        raise ValueError(
            "schedule must be a non-empty, non-decreasing list of "
            f"positive depths, got {depths!r}"
        )
    return depths


def trajectory_row(result) -> Dict[str, Any]:
    """One anytime trajectory row: a lower-bound result at its depth.

    The one encoding of a per-depth bound, shared by schedule jobs, persisted
    frontiers and daemon sessions (rows of all three mix in the store).
    """
    return {
        "depth": result.max_steps,
        "probability": encode_number(result.probability),
        "expected_steps": encode_number(result.expected_steps),
        "measure_gap": encode_number(result.measure_gap),
        "anytime_gap": encode_number(result.anytime_gap()),
        "path_count": result.path_count,
        "exhaustive": result.exhaustive,
        "exact_measures": result.exact_measures,
    }


def schedule_payload(
    schedule: List[int], trajectory: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ``lower-bound-schedule`` payload of a trajectory.

    The final depth's fields are duplicated at the top level so the payload
    is a drop-in superset of a plain lower-bound payload.
    """
    final = trajectory[-1]
    return {
        "schedule": list(schedule),
        "depths_run": len(trajectory),
        "trajectory": trajectory,
        "probability": final["probability"],
        "expected_steps": final["expected_steps"],
        "measure_gap": final["measure_gap"],
        "path_count": final["path_count"],
        "exhaustive": final["exhaustive"],
        "exact_measures": final["exact_measures"],
    }


@dataclass(frozen=True)
class JobSpec:
    """One (program x analysis x parameters) cell of an evaluation batch."""

    program: str
    """A library program name or a surface-syntax source string."""

    analysis: str
    """One of :data:`ANALYSES`."""

    params: Mapping[str, Any] = field(default_factory=dict)
    """Analysis parameters; unset ones take the canonical defaults."""

    cost_hint: float = 1.0
    """Relative expected cost, used only to schedule long jobs first.

    Not part of the content hash: it never changes the result.
    """

    def __post_init__(self) -> None:
        if self.analysis not in ANALYSES:
            raise ValueError(
                f"unknown analysis {self.analysis!r}; expected one of {ANALYSES}"
            )
        unknown = set(self.params) - set(_DEFAULT_PARAMS[self.analysis])
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for analysis "
                f"{self.analysis!r}"
            )

    def canonical_params(self) -> Dict[str, Any]:
        """The full parameter dictionary, defaults applied, keys sorted."""
        merged = dict(_DEFAULT_PARAMS[self.analysis])
        merged.update(self.params)
        return {name: merged[name] for name in sorted(merged)}

    def resolve(self) -> Program:
        return resolve_program(self.program)

    def key(self) -> str:
        """The deterministic content-hash identity of this job.

        Hashes the resolved program's pretty-printed terms and strategy, so
        two references to the same program (by name or by identical source)
        share cached results, and any library change invalidates them.
        Memoized on the (frozen) instance: the resume filter, the cache
        pre-scan and the job execution all ask for it.
        """
        try:
            return self._key
        except AttributeError:
            pass
        program = self.resolve()
        material = json.dumps(
            {
                "version": JOB_FORMAT_VERSION,
                "analysis": self.analysis,
                "fix": pretty(program.fix, unicode_symbols=False),
                "applied": pretty(program.applied, unicode_symbols=False),
                "strategy": program.strategy.name,
                "params": self.canonical_params(),
            },
            sort_keys=True,
        )
        key = hashlib.sha256(material.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

    def as_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "analysis": self.analysis,
            "params": self.canonical_params(),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "JobSpec":
        return JobSpec(
            program=data["program"],
            analysis=data["analysis"],
            params=dict(data.get("params", {})),
            cost_hint=float(data.get("cost_hint", 1.0)),
        )


@dataclass
class JobResult:
    """The outcome of one job: deterministic verdict plus bookkeeping."""

    spec: JobSpec
    key: str
    status: str
    """``"ok"`` or ``"error"``."""

    payload: Optional[Dict[str, Any]]
    """The analysis verdict (JSON-safe, deterministic); ``None`` on error."""

    error: Optional[str]
    """``"ExceptionType: message"`` for failed jobs."""

    error_kind: Optional[str] = None
    """How a failed job failed -- the retry policy's decision input.

    ``"job-exception"`` means the job itself raised deterministically (the
    same inputs will raise again, so retrying is pointless); ``"worker-died"``,
    ``"timeout"`` and ``"os-error"`` are environmental failures the
    supervised runner treats as transient and retries with backoff.
    ``None`` for successful jobs.
    """

    elapsed_ms: float = 0.0
    cached: bool = False
    stats: Optional[Dict[str, int]] = None
    """The measure-engine counter deltas attributable to this job."""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def deterministic_dict(self) -> Dict[str, Any]:
        """Everything about the result that must reproduce byte-identically."""
        return {
            "key": self.key,
            "spec": self.spec.as_dict(),
            "status": self.status,
            "result": self.payload,
            "error": self.error,
            "error_kind": self.error_kind,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.deterministic_dict(), sort_keys=True, separators=(",", ":"))

    def to_cache_dict(self) -> Dict[str, Any]:
        """The full record persisted by :class:`repro.batch.store_sqlite.SqliteStore`."""
        record = self.deterministic_dict()
        record["elapsed_ms"] = self.elapsed_ms
        record["stats"] = self.stats
        return record

    @staticmethod
    def from_cache_dict(data: Mapping[str, Any]) -> "JobResult":
        return JobResult(
            spec=JobSpec.from_dict(data["spec"]),
            key=data["key"],
            status=data["status"],
            payload=data["result"],
            error=data["error"],
            error_kind=data.get("error_kind"),
            elapsed_ms=float(data.get("elapsed_ms", 0.0)),
            cached=True,
            stats=data.get("stats"),
        )


# ---------------------------------------------------------------------------
# Execution: one job, one shared measure engine.
# ---------------------------------------------------------------------------


def run_job(spec: JobSpec, engine: Optional[MeasureEngine] = None) -> JobResult:
    """Execute ``spec`` against ``engine`` and package the verdict.

    Failures of any kind become a structured ``"error"`` result -- a crashing
    job must never take a batch down.  The measure-engine counters accumulated
    by this job (the delta over the shared engine) are recorded in
    :attr:`JobResult.stats`.
    """
    engine = engine or MeasureEngine()
    try:
        key = spec.key()
    except Exception as exc:  # unparseable program, bad params, ...
        return JobResult(
            spec=spec,
            key="invalid-" + hashlib.sha256(repr(spec).encode()).hexdigest()[:16],
            status="error",
            payload=None,
            error=f"{type(exc).__name__}: {exc}",
            error_kind="job-exception",
        )
    before = engine.stats.as_dict()
    started = time.perf_counter()
    error_kind = None
    writer = telemetry.active()
    if writer is not None:
        # Sticky context: every span/event the analysis emits while this job
        # runs carries the program it belongs to.
        writer.set_context(program=spec.program, analysis=spec.analysis)
    try:
        try:
            payload = _execute(spec, engine)
            status, error = "ok", None
        except Exception as exc:
            payload, status, error = None, "error", f"{type(exc).__name__}: {exc}"
            error_kind = "job-exception"
    finally:
        if writer is not None:
            writer.set_context(program=None, analysis=None)
    elapsed_ms = (time.perf_counter() - started) * 1000
    after = engine.stats.as_dict()
    # High-water marks report the engine's absolute peak, not a per-job
    # difference: a worker engine shared across jobs telescopes differences
    # into nonsense, whereas absolute peaks merge exactly (by max) no matter
    # how the scheduler spread the jobs over workers.
    high_water = engine.stats.high_water_marks()
    delta = {
        name: after[name]
        if name in high_water
        else after[name] - before.get(name, 0)
        for name in after
    }
    return JobResult(
        spec=spec,
        key=key,
        status=status,
        payload=payload,
        error=error,
        error_kind=error_kind,
        elapsed_ms=elapsed_ms,
        cached=False,
        stats=delta,
    )


def _execute(spec: JobSpec, engine: MeasureEngine) -> Dict[str, Any]:
    program = spec.resolve()
    params = spec.canonical_params()
    if spec.analysis == "lower-bound":
        from repro.lowerbound.engine import LowerBoundEngine
        from repro.spcf.contexts import Strategy

        strategy = program.strategy
        if params["strategy"] is not None:
            strategy = Strategy[params["strategy"]]
        bound_engine = LowerBoundEngine(strategy=strategy, measure_engine=engine)
        result = bound_engine.lower_bound(
            program.applied, max_steps=params["depth"], max_paths=params["max_paths"]
        )
        return {
            "probability": encode_number(result.probability),
            "expected_steps": encode_number(result.expected_steps),
            "measure_gap": encode_number(result.measure_gap),
            "path_count": result.path_count,
            "exhaustive": result.exhaustive,
            "exact_measures": result.exact_measures,
        }
    if spec.analysis == "lower-bound-schedule":
        from repro.lowerbound.engine import LowerBoundEngine
        from repro.spcf.contexts import Strategy

        strategy = program.strategy
        if params["strategy"] is not None:
            strategy = Strategy[params["strategy"]]
        schedule = validate_schedule(params["schedule"])
        bound_engine = LowerBoundEngine(strategy=strategy, measure_engine=engine)
        trajectory = [
            trajectory_row(result)
            for result in bound_engine.lower_bound_schedule(
                program.applied,
                schedule,
                max_paths=params["max_paths"],
                target_gap=decode_number(params["target_gap"]),
            )
        ]
        return schedule_payload(schedule, trajectory)
    if spec.analysis == "verify":
        from repro.astcheck import verify_ast

        result = verify_ast(program, max_steps=params["max_steps"], engine=engine)
        return {
            "verified": result.verified,
            "papprox": repr(result.papprox) if result.papprox is not None else None,
            "rank": result.rank,
            "exact": result.exact,
            "reasons": list(result.reasons),
        }
    if spec.analysis == "classify":
        from repro.pastcheck import classify_termination

        classification = classify_termination(
            program, max_steps=params["max_steps"], engine=engine
        )
        past = classification.past
        return {
            "verdict": classification.verdict.name,
            "summary": classification.summary(),
            "ast_verified": classification.ast.verified,
            "past_verified": past.verified,
            "papprox": repr(past.papprox) if past.papprox is not None else None,
            "expected_calls_per_body": encode_number(past.expected_calls_per_body),
            "expected_total_calls": encode_number(past.expected_total_calls),
        }
    if spec.analysis == "estimate":
        from repro.semantics import estimate_termination

        estimate = estimate_termination(
            program.applied,
            runs=params["runs"],
            max_steps=params["max_steps"],
            seed=params["seed"],
        )
        return {
            "probability": estimate.probability,
            "terminated": estimate.terminated,
            "runs": estimate.runs,
            "mean_steps": estimate.mean_steps,
            "mean_samples": estimate.mean_samples,
            "stderr": estimate.stderr,
        }
    if spec.analysis == "papprox":
        from repro.astcheck.exectree import build_execution_tree
        from repro.astcheck.papprox import papprox_distribution

        tree = build_execution_tree(program.fix, max_steps=params["max_steps"])
        result = papprox_distribution(tree, engine=engine)
        return {
            "rank": result.rank,
            "exact": result.exact,
            "cumulative": [encode_number(value) for value in result.cumulative],
            "distribution": repr(result.distribution),
        }
    raise ValueError(f"unknown analysis {spec.analysis!r}")

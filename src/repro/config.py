"""``ReproConfig``: one object for every knob the CLI, batch and daemon share.

Flags accreted in layers -- sweep budgets, anytime schedules, batch
fan-out, store location, fault tolerance, tracing -- each parsed ad hoc
off an ``argparse.Namespace`` by a scattering of ``_measure_options`` / ``_batch_cache`` / ``_retry_policy``
helpers.  This module consolidates that surface into a single frozen
dataclass with one precedence rule:

    explicit constructor/flag value  >  ``ReproConfig`` field default

where every field default equals the library default (``MeasureOptions()``,
``RetryPolicy()``, ...), so a flagless CLI run, a defaulted daemon and a
bare ``run_batch`` call all mean the same computation.  The same object is

* built from parsed CLI flags (:meth:`ReproConfig.from_args`) by every
  ``repro`` subcommand,
* accepted by :func:`repro.batch.runner.run_batch` as the source of its
  scheduling/cache/fault parameters, and
* the sole constructor argument of the analysis daemon
  (:class:`repro.service.daemon.AnalysisDaemon`), whose `serve` flags are
  exactly these fields.

Derived objects are built on demand -- :meth:`measure_options`,
:meth:`measure_engine`, :meth:`retry_policy`, :meth:`open_store` -- so the
config stays a plain value: hashable, comparable, loggable.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from repro.geometry.measure import MeasureOptions

__all__ = ["ReproConfig"]


@dataclass(frozen=True)
class ReproConfig:
    """Every shared knob of a measuring command, with library defaults."""

    # -- measure engine --------------------------------------------------------
    # Every field here changes computed values; the engine's speed features
    # (memo, block decomposition, block sweep, kernel) are always on.
    sweep_depth: Optional[int] = None
    """``--sweep-depth``: bisection budget (None = library default)."""

    sweep_gap: Optional[Fraction] = None
    """``--sweep-gap``: stop refining at this undecided volume."""

    sweep_max_boxes: Optional[int] = None
    """``--sweep-max-boxes``: cap on boxes per sweep."""

    contract: bool = False
    """``--contract`` runs the interval-Newton contractor on undecided boxes
    (tighter bounds at equal budget; result-changing, so off by default)."""

    # -- anytime schedules -----------------------------------------------------
    schedule: Optional[Tuple[int, ...]] = None
    """``--schedule d1,d2,...``: non-decreasing anytime depth schedule."""

    target_gap: Optional[Fraction] = None
    """``--target-gap``: stop a schedule early at this certified gap."""

    # -- batch / store ---------------------------------------------------------
    jobs: Optional[int] = None
    """``--jobs``: worker processes (None = the command's own default)."""

    cache_dir: Optional[str] = None
    """``--cache-dir``: the persistent store directory (None = no store)."""

    store_backend: str = "sqlite"
    """The store backend; only 'sqlite' exists (any other value raises)."""

    # -- fault tolerance -------------------------------------------------------
    job_timeout: Optional[float] = None
    """``--job-timeout``: per-job wall-clock budget (forces pool execution)."""

    max_retries: Optional[int] = None
    """``--max-retries``: transient-failure re-submissions per job."""

    retry_backoff: Optional[float] = None
    """``--retry-backoff``: base of the exponential retry backoff."""

    # -- telemetry -------------------------------------------------------------
    trace: Optional[str] = None
    """``--trace PATH``: arm the structured telemetry stream."""

    # -- daemon ----------------------------------------------------------------
    session_ttl: Optional[float] = None
    """``--session-ttl``: evict daemon sessions idle longer than this
    (seconds; ``None`` = never evict on idleness)."""

    max_sessions: Optional[int] = None
    """``--max-sessions``: cap on live named daemon sessions; the least
    recently used ones are evicted past it (``None`` = unbounded)."""

    def __post_init__(self) -> None:
        if self.store_backend != "sqlite":
            raise ValueError(
                f"unknown store backend {self.store_backend!r}; expected 'sqlite'"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_args(cls, arguments: argparse.Namespace) -> "ReproConfig":
        """Lift parsed CLI flags into a config (absent flags keep defaults)."""

        def flag(name, default=None):
            return getattr(arguments, name, default)

        schedule = flag("schedule")
        return cls(
            sweep_depth=flag("sweep_depth"),
            sweep_gap=flag("sweep_gap"),
            sweep_max_boxes=flag("sweep_max_boxes"),
            contract=flag("contract", False) or False,
            schedule=tuple(schedule) if schedule else None,
            target_gap=flag("target_gap"),
            jobs=flag("jobs"),
            cache_dir=flag("cache_dir"),
            job_timeout=flag("job_timeout"),
            max_retries=flag("max_retries"),
            retry_backoff=flag("retry_backoff"),
            trace=flag("trace"),
            session_ttl=flag("session_ttl"),
            max_sessions=flag("max_sessions"),
        )

    def with_overrides(self, **changes) -> "ReproConfig":
        return replace(self, **changes)

    # -- derived objects -------------------------------------------------------

    def measure_options(self) -> MeasureOptions:
        """The engine options these knobs select (defaults when unset)."""
        defaults = MeasureOptions()
        return MeasureOptions(
            sweep_depth=(
                defaults.sweep_depth if self.sweep_depth is None else self.sweep_depth
            ),
            sweep_target_gap=(
                defaults.sweep_target_gap if self.sweep_gap is None else self.sweep_gap
            ),
            sweep_max_boxes=self.sweep_max_boxes,
            contract=self.contract,
        )

    def measure_engine(self):
        """A fresh shared engine honouring the sweep knobs."""
        from repro.geometry.engine import MeasureEngine

        return MeasureEngine(options=self.measure_options())

    def nondefault_engine(self) -> bool:
        """Whether any knob selects a non-default engine configuration.

        Such runs must execute inline: pool workers build default engines
        and cached job results were computed under default options.
        """
        return (
            self.sweep_depth is not None
            or self.sweep_gap is not None
            or self.sweep_max_boxes is not None
            or self.contract
        )

    def effective_jobs(self, default: int = 1) -> int:
        """The worker count, forced to 1 by any non-default engine knob."""
        jobs = default if self.jobs is None else self.jobs
        if self.nondefault_engine():
            return 1
        return max(1, jobs)

    def retry_policy(self):
        """The retry policy the fault flags select (``None`` = defaults)."""
        from repro.batch.runner import RetryPolicy

        if self.max_retries is None and self.retry_backoff is None:
            return None
        defaults = RetryPolicy()
        return RetryPolicy(
            max_retries=(
                defaults.max_retries if self.max_retries is None else self.max_retries
            ),
            backoff_seconds=(
                defaults.backoff_seconds
                if self.retry_backoff is None
                else self.retry_backoff
            ),
        )

    def open_store(self):
        """The persistent store at ``cache_dir``, or ``None`` without one."""
        if not self.cache_dir:
            return None
        from repro.batch.store_sqlite import open_store

        return open_store(self.cache_dir)

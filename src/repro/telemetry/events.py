"""The telemetry event schema: one JSON object per line, versioned.

Every line of a trace file is a self-contained JSON object with four
reserved fields::

    {"v": 1, "ev": "span-end", "t": 0.0123, "seq": 17, "pid": 4242, ...}

* ``v``   -- the schema version of this line (:data:`SCHEMA_VERSION`);
* ``ev``  -- the event kind, one of :data:`EVENT_KINDS`;
* ``t``   -- seconds since the writing process opened its trace file,
  measured on the monotonic clock (never wall clock, never comparable
  across processes);
* ``seq`` -- the writing process's own line counter (gapless per ``pid``);
* ``pid`` -- the writing process.

Everything else is event-specific payload, flat in the same object.  Spans
come as ``span-start`` / ``span-end`` pairs correlated by ``sid`` (unique
per writer); the ``span-end`` carries the monotonic duration ``dur`` plus
whatever attributes the instrumented code attached.  ``counters`` events
snapshot a :class:`~repro.geometry.stats.PerfStats` dictionary -- the
counter names are the dataclass field names, whose human labels live in the
same field metadata that renders ``PerfStats.summary()``, so the stream and
the summary can never drift apart.

The stream is append-only and line-buffered: a crashed process leaves at
worst one torn final line, which every reader (the summarizer, the watcher,
``repro doctor --trace``) tolerates and counts rather than chokes on.
"""

from __future__ import annotations

from typing import Optional

SCHEMA_VERSION = 1

ENV_VAR = "REPRO_TRACE"
"""Workers inherit this variable; it names the supervisor's trace path."""

WORKER_SUFFIX = ".worker-"
"""Worker processes write ``<trace-path>.worker-<pid>`` side files."""

EVENT_KINDS = (
    "trace-start",  # first line of every file: schema + command
    "trace-end",    # written by an orderly close (a live trace lacks it)
    "span-start",   # {span, sid}
    "span-end",     # {span, sid, dur, ...attrs}
    "counters",     # {counters: {PerfStats field: value}}
    "anytime-bound",       # {depth, lower, gap, paths, exhaustive}
    "sweep-warm-start",    # {resumed_depth}
    "job-scheduled",       # {job, program, analysis}
    "job-started",         # {job, program, analysis} (worker side)
    "job-completed",       # {program, analysis, status, cached, elapsed_ms}
    "job-retried",         # {job, attempts, kind, delay}
    "job-timeout",         # {job, budget}
    "worker-restart",      # {reason}
    "store-merge",         # {kind, written, touched}
    "quarantine",          # {path, reason}
    "trace-merged",        # {source, events, torn} (worker-file merges)
    "warning",             # {code, message?, count?, path?}
    "coalesce-hit",        # {method, key} (daemon: request joined an
                           # identical in-flight computation)
    "session-evicted",     # {session, program, reason, idle_seconds,
                           # max_steps} (daemon: named session evicted by
                           # --session-ttl / --max-sessions)
    "frontier-saved",      # {key, depth, nodes} (exploration frontier
                           # persisted to the store)
    "frontier-resumed",    # {key, depth, nodes} (persisted frontier
                           # restored instead of re-exploring)
)

_RESERVED = ("v", "ev", "t", "seq", "pid")

RECOVERY_EVENTS = {
    # trace event kind -> the PerfStats counter it must reconcile with
    "job-retried": "retries",
    "job-timeout": "timeouts",
    "worker-restart": "worker_restarts",
    "quarantine": "quarantined_rows",
}


def validate_event(record) -> Optional[str]:
    """``None`` if ``record`` is a schema-valid event, else what is wrong.

    Unknown *extra* fields are fine (the schema is open); unknown event
    kinds and missing or mistyped reserved fields are not.
    """
    if not isinstance(record, dict):
        return "event is not a JSON object"
    version = record.get("v")
    if not isinstance(version, int):
        return "missing or non-integer schema version 'v'"
    if version != SCHEMA_VERSION:
        return f"unknown schema version {version} (this reader knows {SCHEMA_VERSION})"
    kind = record.get("ev")
    if not isinstance(kind, str):
        return "missing event kind 'ev'"
    if kind not in EVENT_KINDS:
        return f"unknown event kind {kind!r}"
    if not isinstance(record.get("t"), (int, float)):
        return "missing or non-numeric timestamp 't'"
    if not isinstance(record.get("seq"), int):
        return "missing or non-integer sequence number 'seq'"
    if not isinstance(record.get("pid"), int):
        return "missing or non-integer 'pid'"
    if kind in ("span-start", "span-end"):
        if not isinstance(record.get("span"), str):
            return f"{kind} without a 'span' name"
        if not isinstance(record.get("sid"), int):
            return f"{kind} without a span id 'sid'"
    if kind == "span-end" and not isinstance(record.get("dur"), (int, float)):
        return "span-end without a numeric duration 'dur'"
    return None

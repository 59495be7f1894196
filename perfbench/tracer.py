"""Self-time tracing of the analysis layers, installed from outside the program.

The benchmark does not touch ``src/``: it wraps each layer's public functions
and methods in place and records, per span name, the number of calls, the
*self* time (inclusive time minus the time of traced children) and the
inclusive time.  One span stack is kept per thread, so the daemon's event-loop
thread and its engine thread attribute their own work.

Functions bound into other modules with ``from ... import`` are re-bound in
every loaded ``repro`` module that holds them; lazy imports inside function
bodies read the patched attribute at call time.  Methods are patched on their
class.  Coroutine functions are traced step by step, so a coroutine's self
time counts only the time it runs, not the time it waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute or Class.method, span name, result counter or None).
# The span name's prefix before the first "." is the layer.
Target = Tuple[str, str, str, Optional[Callable[[object], float]]]


def _run_steps(result) -> float:
    return float(result.steps)


def _job_failed(result) -> float:
    return 0.0 if result.status == "ok" else 1.0


def _found(result) -> float:
    return 0.0 if result is None else 1.0


TARGETS: Sequence[Target] = (
    ("repro.spcf.syntax", "substitute", "spcf.substitute", None),
    ("repro.spcf.syntax", "free_variables", "spcf.free_variables", None),
    ("repro.spcf.parser", "parse", "spcf.parse", None),
    ("repro.symbolic.execute", "ExplorationSession.extend", "symbolic.extend", None),
    ("repro.symbolic.execute", "SymbolicStepper.step", "symbolic.step", None),
    ("repro.symbolic.codec", "encode_session", "symbolic.codec_encode", None),
    ("repro.symbolic.codec", "decode_session", "symbolic.codec_decode", None),
    ("repro.semantics.sampler", "estimate_termination", "semantics.estimate", None),
    ("repro.semantics.sampler", "run_lazily", "semantics.run", _run_steps),
    ("repro.geometry.engine", "MeasureEngine.measure", "geometry.measure", None),
    ("repro.geometry.measure", "measure_constraints", "geometry.measure_exact", None),
    ("repro.geometry.engine", "MeasureEngine.export_cache_entries", "geometry.export", None),
    ("repro.geometry.engine", "MeasureEngine.export_sweep_entries", "geometry.export", None),
    ("repro.geometry.engine", "MeasureEngine.import_cache_entries", "geometry.import", None),
    ("repro.geometry.engine", "MeasureEngine.import_sweep_entries", "geometry.import", None),
    ("repro.geometry.polytope", "polytope_volume", "geometry.polytope", None),
    ("repro.geometry.polytope", "polygon_area_exact", "geometry.polytope", None),
    ("repro.geometry.sweep", "sweep_measure", "geometry.sweep", None),
    ("repro.geometry.sweep", "sweep_accepted_boxes", "geometry.sweep", None),
    ("repro.geometry.kernel", "compile_constraint_set", "geometry.kernel", None),
    ("repro.geometry.kernel", "CompiledSet.classify", "geometry.kernel", None),
    ("repro.geometry.kernel", "boxes_to_arrays", "geometry.kernel", None),
    ("repro.geometry.kernel", "rows_to_arrays", "geometry.kernel", None),
    ("repro.lowerbound.engine", "LowerBoundSession.extend", "lowerbound.extend", None),
    ("repro.astcheck.verifier", "verify_ast", "astcheck.verify", None),
    ("repro.astcheck.exectree", "build_execution_tree", "astcheck.tree", None),
    ("repro.astcheck.papprox", "papprox_distribution", "astcheck.papprox", None),
    ("repro.pastcheck.analysis", "classify_termination", "pastcheck.classify", None),
    ("repro.batch.runner", "run_batch", "batch.run_batch", None),
    ("repro.batch.jobs", "run_job", "batch.run_job", _job_failed),
    ("repro.batch.jobs", "JobSpec.key", "batch.key", None),
    ("repro.batch.store_sqlite", "SqliteStore.load_job", "batch.store_read_job", _found),
    ("repro.batch.store_sqlite", "SqliteStore.load_measures", "batch.store_read", None),
    ("repro.batch.store_sqlite", "SqliteStore.load_sweeps", "batch.store_read", None),
    ("repro.batch.store_sqlite", "SqliteStore.load_frontiers", "batch.store_read", None),
    ("repro.batch.store_sqlite", "SqliteStore.load_frontier_entry", "batch.store_read", None),
    ("repro.batch.store_sqlite", "SqliteStore.store_job", "batch.store_write", None),
    ("repro.batch.store_sqlite", "SqliteStore.merge_measures", "batch.store_write", None),
    ("repro.batch.store_sqlite", "SqliteStore.merge_sweeps", "batch.store_write", None),
    ("repro.batch.store_sqlite", "SqliteStore.merge_frontiers", "batch.store_write", None),
    ("repro.batch.store_sqlite", "SqliteStore.begin_run", "batch.store_write", None),
    ("repro.service.daemon", "AnalysisDaemon.dispatch", "service.dispatch", None),
    ("repro.service.daemon", "AnalysisDaemon._compute_job", "service.engine", None),
    ("repro.service.daemon", "AnalysisDaemon._extend_session", "service.session", None),
    ("repro.service.protocol", "parse_request", "service.protocol", None),
    ("repro.service.protocol", "result_response", "service.protocol", None),
)


class Tracer:
    """Per-thread span stacks feeding per-thread tables of span totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, list]] = []
        self._lock = threading.Lock()

    def _state(self) -> Tuple[list, Dict[str, list], Dict[str, int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def enter(self, name: str) -> list:
        stack, _table, depth = self._state()
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        depth[name] = depth.get(name, 0) + 1
        return frame

    def exit(self, frame: list, count: float = 0.0) -> None:
        end = time.perf_counter()
        stack, table, depth = self._state()
        stack.pop()
        name = frame[0]
        inclusive = end - frame[1]
        if stack:
            stack[-1][2] += inclusive
        depth[name] -= 1
        record = table.get(name)
        if record is None:
            # calls, self seconds, inclusive seconds (outermost only), count.
            record = table[name] = [0, 0.0, 0.0, 0.0]
        record[0] += 1
        record[1] += inclusive - frame[2]
        if depth[name] == 0:
            record[2] += inclusive
        record[3] += count

    def snapshot(self) -> Dict[str, list]:
        """Totals over all threads: ``{span: [calls, self_s, incl_s, count]}``."""
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, record in list(table.items()):
                total = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                for index, value in enumerate(record):
                    total[index] += value
        return merged


def traced_function(tracer: Tracer, function, name: str, counter=None):
    """A wrapper of ``function`` recording the span ``name`` on ``tracer``."""
    if inspect.isgeneratorfunction(function):
        raise TypeError(f"cannot trace generator function {function!r}")
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_coroutine(*args, **kwargs):
            return await _Stepped(tracer, name, function(*args, **kwargs))

        return traced_coroutine

    @functools.wraps(function)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            tracer.exit(frame, counter(result) if counter and result is not None else 0.0)

    return traced


class _Stepped:
    """Await a coroutine, timing each step it runs as one span entry."""

    def __init__(self, tracer: Tracer, name: str, coroutine) -> None:
        self._tracer = tracer
        self._name = name
        self._coroutine = coroutine

    def __await__(self):
        value, error = None, None
        while True:
            frame = self._tracer.enter(self._name)
            try:
                if error is not None:
                    yielded = self._coroutine.throw(error)
                else:
                    yielded = self._coroutine.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._tracer.exit(frame)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def install(tracer: Tracer, targets: Sequence[Target] = TARGETS) -> None:
    """Wrap every target, re-binding each module-level reference to it."""
    for module_name, attribute, name, counter in targets:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method_name = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method_name]
            setattr(owner, method_name, traced_function(tracer, original, name, counter))
            continue
        original = getattr(module, attribute)
        wrapper = traced_function(tracer, original, name, counter)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, wrapper)

"""JSON codec for exploration sessions (the frontier persistence layer).

An :class:`~repro.symbolic.execute.ExplorationSession` is a pure function of
its node list -- every node's breadth-first key is budget-independent, so a
suspended session can be serialized at one budget and resumed at any deeper
one, exactly as :class:`~repro.geometry.sweep.SweepFrontier` frontiers
persist across sweep budgets.  This module provides that serialization:

* :func:`encode_session` renders a session as a JSON-safe list;
* :func:`decode_session` rebuilds an equivalent session, such that
  ``decode(encode(s)).extend(d)`` is bit-identical -- path list, order,
  counts, statistics -- to ``s.extend(d)``.

Design notes (cited by ``docs/stores.md``):

* **Flat node table.**  Terms and symbolic values are encoded into one
  shared table of tagged nodes referencing children *by index*, with every
  child preceding its parent.  Symbolic execution builds terms and
  primitive-value chains thousands of nodes deep (one per reduction step),
  so both the encoder and the resulting JSON must not nest with term depth:
  the table keeps ``json.dumps`` recursion flat and deduplicates the
  rampant structure sharing substitution creates.
* **Exact numbers.**  Numerals use the store's tagged codec -- ``["F",
  "p/q"]`` for fractions, ``["f", float.hex()]`` for floats -- the same
  convention as the measure-cache entries, so decoding is an exact inverse
  and resumed bounds cannot drift by a ULP.
* **Counters travel with the frontier.**  The session-local counters
  (``symbolic_steps``, ``paths_resumed``, ``frontier_peak``) are part of
  the encoding: a restored session credits them to its stats sink, so a
  crash/restore cycle reports the *same* ``PerfStats`` as an uninterrupted
  run.
* **Malformed data reads as a miss.**  Like the sweep-frontier codec,
  :func:`decode_session` returns ``None`` on anything it does not
  understand (truncated lists, unknown tags, a future version): a damaged
  or foreign frontier entry costs a fresh exploration, never an error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Term,
    Var,
)
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.execute import (
    ExplorationSession,
    RecMarker,
    SymbolicExplorer,
    SymbolicPath,
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
    SymVal,
)

CODEC_VERSION = 1
"""Bumped whenever the encoding changes incompatibly; decoders reject
anything else (a newer tool may own the entry)."""

__all__ = [
    "CODEC_VERSION",
    "decode_session",
    "encode_session",
    "session_counters",
]


class _Malformed(Exception):
    """Internal: the encoded data cannot be decoded.  Never escapes."""


# ---------------------------------------------------------------------------
# Numbers: the exact tagged codec shared with the measure cache.
# ---------------------------------------------------------------------------


def _encode_number(value) -> list:
    if isinstance(value, Fraction):
        return ["F", str(value)]
    if isinstance(value, float):
        return ["f", value.hex()]
    raise _Malformed(f"not an SPCF number: {value!r}")


def _decode_number(encoded):
    if not isinstance(encoded, list) or len(encoded) != 2:
        raise _Malformed("bad number encoding")
    tag, text = encoded
    try:
        if tag == "F":
            return Fraction(text)
        if tag == "f":
            return float.fromhex(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise _Malformed("unparseable number") from None
    raise _Malformed(f"unknown number tag {tag!r}")


# ---------------------------------------------------------------------------
# The shared node table: terms and symbolic values, children by index.
# ---------------------------------------------------------------------------


def _encode_nodes(session_nodes) -> Tuple[List[list], List[list]]:
    """Encode session nodes in one pass: ``(node table, node records)``.

    Terms and symbolic values go into one table shared by every record,
    deduplicated by identity: ``memo`` maps ``id(obj)`` to the object's table
    index, and ``keep`` holds each encoded object so an id cannot be recycled
    mid-encode.  Terms are immutable and (thanks to substitution) massively
    shared, so most lookups hit.

    Each object is encoded post-order with an explicit stack: children, left
    to right, are emitted before their parent, so every child reference is a
    smaller index -- exactly the property the one-pass decoder relies on.  A
    node stays on the stack until its children are in the table; the type
    dispatch is on the exact class.
    """
    table: List[list] = []
    memo: Dict[int, int] = {}
    keep: List[object] = []
    get = memo.get

    def encode(root) -> int:
        found = get(id(root))
        if found is not None:
            return found
        stack = [root]
        push = stack.append
        while stack:
            obj = stack[-1]
            key = id(obj)
            if key in memo:
                stack.pop()
                continue
            cls = type(obj)
            if cls is App:
                fn = get(id(obj.fn))
                arg = get(id(obj.arg))
                if fn is None or arg is None:
                    if arg is None:
                        push(obj.arg)
                    if fn is None:
                        push(obj.fn)
                    continue
                node = ["@", fn, arg]
            elif cls is Var:
                node = ["v", obj.name]
            elif cls is PrimVal:
                args = [get(id(arg)) for arg in obj.args]
                if None in args:
                    stack.extend(reversed(obj.args))
                    continue
                node = ["p", obj.op, args]
            elif cls is SampleVar:
                node = ["s", obj.index]
            elif cls is Lam:
                body = get(id(obj.body))
                if body is None:
                    push(obj.body)
                    continue
                node = ["l", obj.var, body]
            elif cls is If:
                cond = get(id(obj.cond))
                then = get(id(obj.then))
                orelse = get(id(obj.orelse))
                if cond is None or then is None or orelse is None:
                    if orelse is None:
                        push(obj.orelse)
                    if then is None:
                        push(obj.then)
                    if cond is None:
                        push(obj.cond)
                    continue
                node = ["if", cond, then, orelse]
            elif cls is ConstVal:
                node = ["c", _encode_number(obj.value)]
            elif cls is Numeral:
                node = ["n", _encode_number(obj.value)]
            elif cls is Prim:
                args = [get(id(arg)) for arg in obj.args]
                if None in args:
                    stack.extend(reversed(obj.args))
                    continue
                node = ["pr", obj.op, args]
            elif cls is Fix:
                body = get(id(obj.body))
                if body is None:
                    push(obj.body)
                    continue
                node = ["fx", obj.fvar, obj.var, body]
            elif cls is SymNumeral:
                value = get(id(obj.value))
                if value is None:
                    push(obj.value)
                    continue
                node = ["sn", value]
            elif cls is Score:
                arg = get(id(obj.arg))
                if arg is None:
                    push(obj.arg)
                    continue
                node = ["sc", arg]
            elif cls is Sample:
                node = ["smp"]
            elif cls is RecMarker:
                node = ["mu"]
            elif cls is ArgVal:
                node = ["arg"]
            elif cls is StarVal:
                node = ["*"]
            else:
                raise _Malformed(f"unencodable object {obj!r}")
            stack.pop()
            memo[key] = len(table)
            table.append(node)
            keep.append(obj)
        return memo[id(root)]

    def constraints(constraint_set: ConstraintSet) -> list:
        return [
            [constraint.relation.name, encode(constraint.value)]
            for constraint in constraint_set
        ]

    records = []
    for node in session_nodes:
        bits = [1 if branch else 0 for branch in _node_branches(node)]
        state = node.state
        if state == _SUSPENDED:
            configuration = node.configuration
            payload: Any = [
                encode(configuration.term),
                constraints(configuration.constraints),
                configuration.next_variable,
                configuration.steps,
            ]
        elif state == _TERMINATED:
            path = node.path
            payload = [
                constraints(path.constraints),
                path.num_variables,
                path.steps,
                encode(path.result),
            ]
        elif state == _STUCK:
            payload = node.reason
        else:  # _BRANCHED
            payload = None
        records.append([bits, state, bool(node.started), payload])
    return table, records


def _decode_table(nodes) -> List[object]:
    """Decode the node table in one left-to-right pass."""
    if not isinstance(nodes, list):
        raise _Malformed("node table is not a list")
    decoded: List[object] = []

    def child(index, kind=None):
        if not isinstance(index, int) or not 0 <= index < len(decoded):
            raise _Malformed("bad child reference")
        obj = decoded[index]
        if kind is not None and not isinstance(obj, kind):
            raise _Malformed("child of the wrong kind")
        return obj

    for node in nodes:
        if not isinstance(node, list) or not node:
            raise _Malformed("bad table node")
        tag = node[0]
        try:
            if tag == "v":
                obj = Var(str(node[1]))
            elif tag == "n":
                obj = Numeral(_decode_number(node[1]))
            elif tag == "sn":
                obj = SymNumeral(child(node[1], SymVal))
            elif tag == "l":
                obj = Lam(str(node[1]), child(node[2], Term))
            elif tag == "fx":
                obj = Fix(str(node[1]), str(node[2]), child(node[3], Term))
            elif tag == "@":
                obj = App(child(node[1], Term), child(node[2], Term))
            elif tag == "if":
                obj = If(
                    child(node[1], Term),
                    child(node[2], Term),
                    child(node[3], Term),
                )
            elif tag == "pr":
                obj = Prim(
                    str(node[1]), tuple(child(arg, Term) for arg in node[2])
                )
            elif tag == "smp":
                obj = Sample()
            elif tag == "sc":
                obj = Score(child(node[1], Term))
            elif tag == "mu":
                obj = RecMarker()
            elif tag == "c":
                obj = ConstVal(_decode_number(node[1]))
            elif tag == "s":
                obj = SampleVar(int(node[1]))
            elif tag == "arg":
                obj = ArgVal()
            elif tag == "*":
                obj = StarVal()
            elif tag == "p":
                obj = PrimVal(
                    str(node[1]), tuple(child(arg, SymVal) for arg in node[2])
                )
            else:
                raise _Malformed(f"unknown table tag {tag!r}")
        except (IndexError, TypeError, ValueError):
            raise _Malformed("bad table node") from None
        decoded.append(obj)
    return decoded


# ---------------------------------------------------------------------------
# Constraints and constraint sets.
# ---------------------------------------------------------------------------


def _decode_constraints(encoded, decoded_table) -> ConstraintSet:
    if not isinstance(encoded, list):
        raise _Malformed("bad constraint list")
    constraints = []
    for pair in encoded:
        if not isinstance(pair, list) or len(pair) != 2:
            raise _Malformed("bad constraint")
        name, index = pair
        try:
            relation = Relation[name]
        except (KeyError, TypeError):
            raise _Malformed(f"unknown relation {name!r}") from None
        if not isinstance(index, int) or not 0 <= index < len(decoded_table):
            raise _Malformed("bad constraint value reference")
        value = decoded_table[index]
        if not isinstance(value, SymVal):
            raise _Malformed("constraint value is not symbolic")
        constraints.append(Constraint(value, relation))
    return ConstraintSet(constraints)


# ---------------------------------------------------------------------------
# Sessions.
# ---------------------------------------------------------------------------


def _node_branches(node: _SessionNode) -> Tuple[bool, ...]:
    if node.configuration is not None:
        return node.configuration.branches
    if node.path is not None:
        return node.path.branches
    # Resolved nodes drop their configuration; recover branches from the key
    # (0 encodes the then-branch in the breadth-first ordering).
    return tuple(bit == 0 for bit in node.key[1])


def _decode_node(encoded, decoded_table) -> _SessionNode:
    if not isinstance(encoded, list) or len(encoded) != 4:
        raise _Malformed("bad session node")
    bits, state, started, payload = encoded
    if not isinstance(bits, list) or not all(bit in (0, 1) for bit in bits):
        raise _Malformed("bad branch bits")
    branches = tuple(bit == 1 for bit in bits)
    if state not in (_SUSPENDED, _TERMINATED, _STUCK, _BRANCHED):
        raise _Malformed(f"unknown node state {state!r}")

    def term_at(index) -> Term:
        if not isinstance(index, int) or not 0 <= index < len(decoded_table):
            raise _Malformed("bad term reference")
        term = decoded_table[index]
        if not isinstance(term, Term):
            raise _Malformed("node reference is not a term")
        return term

    node = _SessionNode.__new__(_SessionNode)
    node.key = _node_key(branches)
    node.state = state
    node.configuration = None
    node.path = None
    node.reason = None
    node.started = bool(started)
    if state == _SUSPENDED:
        if not isinstance(payload, list) or len(payload) != 4:
            raise _Malformed("bad suspended payload")
        term_index, constraints, next_variable, steps = payload
        if not isinstance(next_variable, int) or not isinstance(steps, int):
            raise _Malformed("bad suspended counters")
        node.configuration = _Configuration(
            term_at(term_index),
            _decode_constraints(constraints, decoded_table),
            next_variable,
            steps,
            branches,
        )
    elif state == _TERMINATED:
        if not isinstance(payload, list) or len(payload) != 4:
            raise _Malformed("bad terminated payload")
        constraints, num_variables, steps, result_index = payload
        if not isinstance(num_variables, int) or not isinstance(steps, int):
            raise _Malformed("bad path counters")
        node.path = SymbolicPath(
            _decode_constraints(constraints, decoded_table),
            num_variables,
            steps,
            term_at(result_index),
            branches,
        )
    elif state == _STUCK:
        if not isinstance(payload, str):
            raise _Malformed("bad stuck payload")
        node.reason = payload
    return node


def encode_session(session: ExplorationSession) -> list:
    """Serialize ``session`` as a JSON-safe list (see the module docstring).

    The encoding captures the full node list (resolved history and suspended
    frontier), the budget high-water mark, the path cap and the session's
    own statistics contribution -- everything :func:`decode_session` needs to
    continue the exploration bit-identically.
    """
    table, nodes = _encode_nodes(node for _key, node in session._nodes)
    steps, resumed, peak = session_counters(session)
    return [
        CODEC_VERSION,
        session.max_paths,
        session.max_steps,
        [steps, resumed, peak],
        table,
        nodes,
    ]


def session_counters(session: ExplorationSession) -> Tuple[int, int, int]:
    """The session's own ``(symbolic_steps, paths_resumed, frontier_peak)``.

    These count only work *this* session performed -- the codec persists
    them so a restored session can credit them forward, keeping resumed
    ``PerfStats`` equal to an uninterrupted run's.
    """
    return (
        session._step_counter.symbolic_steps,
        session._counter_resumed,
        session._counter_peak,
    )


def decode_session(
    encoded,
    explorer: SymbolicExplorer,
    stats=None,
    credit_stats: bool = True,
) -> Optional[ExplorationSession]:
    """Rebuild a session from :func:`encode_session` output.

    ``stats`` (typically the restoring engine's :class:`PerfStats`) is
    credited with the persisted counters, so the restored process reports
    the same totals an uninterrupted run would; pass ``credit_stats=False``
    when the sink already counted that work (a same-process restore) or
    must not count it (a probe decode).  Returns ``None`` for anything
    malformed or written by a different codec version.
    """
    try:
        if not isinstance(encoded, list) or len(encoded) != 6:
            raise _Malformed("bad session encoding")
        version, max_paths, max_steps, counters, table, nodes = encoded
        if version != CODEC_VERSION:
            raise _Malformed(f"unknown codec version {version!r}")
        if not isinstance(max_paths, int) or max_paths < 1:
            raise _Malformed("bad max_paths")
        if not isinstance(max_steps, int) or max_steps < 0:
            raise _Malformed("bad max_steps")
        if (
            not isinstance(counters, list)
            or len(counters) != 3
            or not all(isinstance(c, int) and c >= 0 for c in counters)
        ):
            raise _Malformed("bad counters")
        decoded_table = _decode_table(table)
        if not isinstance(nodes, list) or not nodes:
            raise _Malformed("empty node list")
        session_nodes = []
        previous = None
        for record in nodes:
            node = _decode_node(record, decoded_table)
            if previous is not None and node.key <= previous:
                raise _Malformed("node keys out of order")
            previous = node.key
            session_nodes.append((node.key, node))
    except _Malformed:
        return None
    return ExplorationSession._restore(
        explorer,
        max_paths=max_paths,
        max_steps=max_steps,
        nodes=session_nodes,
        counters=tuple(counters),
        stats=stats,
        credit_stats=credit_stats,
    )

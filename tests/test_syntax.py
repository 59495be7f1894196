"""Tests for the SPCF abstract syntax: terms, free variables, substitution."""

import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.spcf import syntax
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Var,
    alpha_equivalent,
    free_variables,
    fresh_variable,
    is_closed,
    is_extension_leaf,
    is_value,
    subterms,
    substitute,
    term_size,
)


def test_numeral_normalises_ints_to_fractions():
    assert Numeral(3).value == Fraction(3)
    assert isinstance(Numeral(3).value, Fraction)
    assert Numeral(0.5).value == 0.5


def test_numeral_rejects_booleans_and_non_numbers():
    with pytest.raises(TypeError):
        Numeral(True)
    with pytest.raises(TypeError):
        Numeral("1")


def test_values_are_recognised():
    assert is_value(Var("x"))
    assert is_value(Numeral(1))
    assert is_value(Lam("x", Var("x")))
    assert is_value(Fix("phi", "x", Var("x")))
    assert not is_value(Sample())
    assert not is_value(App(Lam("x", Var("x")), Numeral(1)))


def test_call_builds_left_associated_applications():
    term = Lam("x", Var("x"))(Numeral(1), Numeral(2))
    assert isinstance(term, App)
    assert isinstance(term.fn, App)
    assert term.fn.arg == Numeral(1)
    assert term.arg == Numeral(2)


def test_free_variables_of_abstractions():
    term = Lam("x", App(Var("x"), Var("y")))
    assert free_variables(term) == frozenset({"y"})
    fix = Fix("phi", "x", App(Var("phi"), Var("x")))
    assert free_variables(fix) == frozenset()
    assert is_closed(fix)


def test_free_variables_of_compound_terms():
    term = If(Prim("add", (Var("a"), Numeral(1))), Score(Var("b")), Sample())
    assert free_variables(term) == frozenset({"a", "b"})


def test_subterms_and_term_size():
    term = If(Sample(), Numeral(0), Prim("add", (Numeral(1), Numeral(2))))
    assert term_size(term) == 6
    assert Sample() in list(subterms(term))


def test_substitution_replaces_free_occurrences_only():
    term = Lam("x", App(Var("x"), Var("y")))
    result = substitute(term, {"y": Numeral(1), "x": Numeral(2)})
    assert result == Lam("x", App(Var("x"), Numeral(1)))


def test_substitution_is_capture_avoiding():
    # (lam x. y) with y := x must not capture the bound x.
    term = Lam("x", Var("y"))
    result = substitute(term, {"y": Var("x")})
    assert isinstance(result, Lam)
    assert result.var != "x"
    assert result.body == Var("x")
    assert free_variables(result) == frozenset({"x"})


def test_substitution_under_fix_renames_both_binders():
    term = Fix("phi", "x", App(Var("phi"), App(Var("x"), Var("y"))))
    result = substitute(term, {"y": App(Var("phi"), Var("x"))})
    assert free_variables(result) == frozenset({"phi", "x"})
    # The bound variables must have been renamed apart from the substituted ones.
    assert isinstance(result, Fix)
    assert result.fvar not in ("phi",) or result.var not in ("x",)


def test_substitution_empty_mapping_is_identity():
    term = If(Sample(), Var("x"), Numeral(1))
    assert substitute(term, {}) is term


def test_alpha_equivalence_basic():
    assert alpha_equivalent(Lam("x", Var("x")), Lam("y", Var("y")))
    assert alpha_equivalent(
        Fix("phi", "x", App(Var("phi"), Var("x"))),
        Fix("f", "z", App(Var("f"), Var("z"))),
    )
    assert not alpha_equivalent(Lam("x", Var("x")), Lam("x", Numeral(1)))
    assert not alpha_equivalent(Var("x"), Var("y"))
    assert alpha_equivalent(Var("x"), Var("x"))


def test_alpha_equivalence_distinguishes_binder_structure():
    left = Lam("x", Lam("y", Var("x")))
    right = Lam("x", Lam("y", Var("y")))
    assert not alpha_equivalent(left, right)


# -- property-based tests -----------------------------------------------------

_leaf = st.one_of(
    st.builds(Numeral, st.integers(min_value=-5, max_value=5)),
    st.builds(Var, st.sampled_from(["x", "y", "z"])),
    st.just(Sample()),
)


def _terms(depth):
    if depth == 0:
        return _leaf
    smaller = _terms(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Lam, st.sampled_from(["x", "y"]), smaller),
        st.builds(App, smaller, smaller),
        st.builds(If, smaller, smaller, smaller),
        st.builds(lambda a, b: Prim("add", (a, b)), smaller, smaller),
        st.builds(Score, smaller),
        st.builds(Fix, st.just("phi"), st.sampled_from(["x", "y"]), smaller),
    )


@given(_terms(3))
def test_alpha_equivalence_is_reflexive(term):
    assert alpha_equivalent(term, term)


@given(_terms(3))
def test_substituting_all_free_variables_closes_the_term(term):
    closed = substitute(term, {name: Numeral(0) for name in free_variables(term)})
    assert is_closed(closed)


@given(_terms(3), _terms(2))
def test_substitution_never_introduces_new_free_variables(term, replacement):
    target = sorted(free_variables(term))
    if not target:
        return
    result = substitute(term, {target[0]: replacement})
    allowed = (free_variables(term) - {target[0]}) | free_variables(replacement)
    assert free_variables(result) <= allowed


# -- the free-variable cache against the uncached definitions ----------------
#
# The reference below is the uncached substitution that ``substitute`` had
# before free-variable sets were cached on the nodes: it re-walks every
# replacement and collects the names a fresh binder must avoid at every
# binder it enters.  Renaming decisions and ``_FRESH_COUNTER`` draws must not
# depend on the cache, since fresh names reach printed terms and frontier
# encodings.


def _reference_free_variables(term):
    collected = set()
    stack = [(term, frozenset())]
    while stack:
        term, bound = stack.pop()
        if isinstance(term, Var):
            if term.name not in bound:
                collected.add(term.name)
        elif isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
            pass
        elif isinstance(term, Lam):
            stack.append((term.body, bound | {term.var}))
        elif isinstance(term, Fix):
            stack.append((term.body, bound | {term.fvar, term.var}))
        elif isinstance(term, App):
            stack.append((term.fn, bound))
            stack.append((term.arg, bound))
        elif isinstance(term, If):
            stack.append((term.cond, bound))
            stack.append((term.then, bound))
            stack.append((term.orelse, bound))
        elif isinstance(term, Prim):
            for arg in term.args:
                stack.append((arg, bound))
        elif isinstance(term, Score):
            stack.append((term.arg, bound))
        else:
            raise TypeError(f"unknown term: {term!r}")
    return frozenset(collected)


def _reference_enter_binders(body, binders, replacements, avoid):
    narrowed = {name: value for name, value in replacements.items() if name not in binders}
    if not narrowed:
        return None
    new_binders = []
    renaming = {}
    taken = avoid | _reference_free_variables(body) | set(binders)
    for binder in binders:
        if binder in avoid:
            new_name = fresh_variable(binder, taken)
            taken = taken | {new_name}
            renaming[binder] = Var(new_name)
            new_binders.append(new_name)
        else:
            new_binders.append(binder)
    combined = dict(narrowed)
    combined.update(renaming)
    combined_avoid = avoid | frozenset(variable.name for variable in renaming.values())
    return tuple(new_binders), combined, combined_avoid


def _reference_substitute(term, replacements):
    if not replacements:
        return term
    avoid = frozenset()
    for replacement in replacements.values():
        avoid = avoid | _reference_free_variables(replacement)
    return _reference_iterative_substitute(term, dict(replacements), avoid)


def _reference_iterative_substitute(term, replacements, avoid):
    """The reference visit order, which fresh-name draws follow: an ``App``
    visits its argument before its function, an ``If`` its branches last to
    first, a ``Prim`` its arguments first to last."""
    results = []
    work = [("visit", term, replacements, avoid)]
    while work:
        item = work.pop()
        if item[0] == "assemble":
            results.append(item[1](results))
            continue
        _, term, replacements, avoid = item
        if isinstance(term, Var):
            results.append(replacements.get(term.name, term))
        elif isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
            results.append(term)
        elif isinstance(term, Lam):
            entered = _reference_enter_binders(term.body, (term.var,), replacements, avoid)
            if entered is None:
                results.append(term)
                continue
            (var,), combined, deeper_avoid = entered
            work.append(("assemble", lambda done, var=var: Lam(var, done.pop())))
            work.append(("visit", term.body, combined, deeper_avoid))
        elif isinstance(term, Fix):
            entered = _reference_enter_binders(
                term.body, (term.fvar, term.var), replacements, avoid
            )
            if entered is None:
                results.append(term)
                continue
            (fvar, var), combined, deeper_avoid = entered
            work.append(
                ("assemble", lambda done, fvar=fvar, var=var: Fix(fvar, var, done.pop()))
            )
            work.append(("visit", term.body, combined, deeper_avoid))
        elif isinstance(term, App):
            def assemble_app(done):
                fn = done.pop()
                arg = done.pop()
                return App(fn, arg)

            work.append(("assemble", assemble_app))
            work.append(("visit", term.fn, replacements, avoid))
            work.append(("visit", term.arg, replacements, avoid))
        elif isinstance(term, If):
            def assemble_if(done):
                cond = done.pop()
                then = done.pop()
                orelse = done.pop()
                return If(cond, then, orelse)

            work.append(("assemble", assemble_if))
            work.append(("visit", term.cond, replacements, avoid))
            work.append(("visit", term.then, replacements, avoid))
            work.append(("visit", term.orelse, replacements, avoid))
        elif isinstance(term, Prim):
            def assemble_prim(done, op=term.op, count=len(term.args)):
                args = [done.pop() for _ in range(count)]  # newest-first
                args.reverse()
                return Prim(op, tuple(args))

            work.append(("assemble", assemble_prim))
            for arg in reversed(term.args):
                work.append(("visit", arg, replacements, avoid))
        elif isinstance(term, Score):
            work.append(("assemble", lambda done: Score(done.pop())))
            work.append(("visit", term.arg, replacements, avoid))
        else:
            raise TypeError(f"unknown term: {term!r}")
    (substituted,) = results
    return substituted


def _with_fresh_counter(run):
    """``run()`` from a reset fresh-name counter: its result and counter draws."""
    syntax._FRESH_COUNTER = itertools.count()
    result = run()
    return result, next(syntax._FRESH_COUNTER)


_replacements = st.dictionaries(
    st.sampled_from(["x", "y", "z", "phi"]), _terms(2), max_size=3
)


@settings(max_examples=300, deadline=None)
@given(_terms(3), _replacements)
def test_cached_substitution_matches_the_uncached_reference(term, replacements):
    saved = syntax._FRESH_COUNTER
    try:
        expected, expected_draws = _with_fresh_counter(
            lambda: _reference_substitute(term, replacements)
        )
        # First call fills the caches of term and replacements; second hits them.
        for _ in range(2):
            actual, draws = _with_fresh_counter(lambda: substitute(term, replacements))
            assert actual == expected
            assert repr(actual) == repr(expected)
            assert draws == expected_draws
            assert free_variables(actual) == _reference_free_variables(expected)
            for sub in subterms(term):
                assert free_variables(sub) == _reference_free_variables(sub)
    finally:
        syntax._FRESH_COUNTER = saved


def test_open_replacements_exercise_renaming():
    # The differential test is only as strong as its renaming cases: the
    # generated binders x, y and phi collide with open replacement values.
    term = Fix("phi", "x", App(Var("phi"), Lam("y", Var("z"))))
    replacements = {"z": App(Var("x"), Var("y"))}
    expected, draws = _with_fresh_counter(lambda: _reference_substitute(term, replacements))
    assert draws > 0
    assert _with_fresh_counter(lambda: substitute(term, replacements)) == (expected, draws)


def test_the_free_variable_cache_is_invisible():
    def build():
        body = If(Var("x"), App(Var("phi"), Var("y")), Prim("add", (Sample(), Var("z"))))
        return Lam("z", App(Fix("phi", "x", Score(body)), Numeral(Fraction(1, 3))))

    term = build()
    before = (pickle.dumps(term), repr(term), hash(term), dataclasses.fields(term))
    assert free_variables(term) == frozenset({"y"})
    assert getattr(term.body.fn, "_free_variables") == frozenset({"y", "z"})  # cached
    after = (pickle.dumps(term), repr(term), hash(term), dataclasses.fields(term))
    assert after == before
    assert term == build() and build() == term
    restored = pickle.loads(pickle.dumps(term))
    assert restored == term
    assert not hasattr(restored, "_free_variables")
    # A node without fields still pickles to the same bytes as before.
    assert pickle.loads(pickle.dumps(Sample())) == Sample()

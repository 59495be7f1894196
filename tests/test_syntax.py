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
    unfold_fix,
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


# The compound terms compare, hash and print iteratively; the dataclass-
# generated methods they replace are the reference.  Each mirror class is a
# plain frozen dataclass with the same name and fields.
_MIRRORS = {
    cls: dataclasses.make_dataclass(
        cls.__name__, [field.name for field in dataclasses.fields(cls)], frozen=True
    )
    for cls in (Lam, Fix, App, If, Prim, Score)
}


def _mirror(term):
    mirror = _MIRRORS.get(type(term))
    if mirror is None:
        return term
    values = []
    for field in dataclasses.fields(term):
        value = getattr(term, field.name)
        if field.name == "args":
            value = tuple(_mirror(arg) for arg in value)
        elif not isinstance(value, str):
            value = _mirror(value)
        values.append(value)
    return mirror(*values)


@given(_terms(3), _terms(3))
def test_equality_hash_and_repr_are_the_dataclass_methods(left, right):
    for term in (left, right):
        assert repr(term) == repr(_mirror(term))
        assert hash(term) == hash(_mirror(term))
        assert hash(term) == hash(term)  # cached
    assert (left == right) == (_mirror(left) == _mirror(right))
    assert (left != right) == (_mirror(left) != _mirror(right))
    assert left == pickle.loads(pickle.dumps(left))
    single = Prim("neg", (left,))
    assert repr(single) == repr(_mirror(single))


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


def test_the_unfolding_builder_is_invisible():
    def build():
        body = If(Var("x"), App(Var("phi"), Var("x")), Prim("add", (Sample(), Var("x"))))
        return App(Fix("phi", "x", Score(body)), Numeral(Fraction(1, 3)))

    term = build()
    fix = term.fn
    before = (pickle.dumps(term), repr(term), hash(term), dataclasses.fields(fix))
    for _ in range(syntax.COMPILE_AT_UNFOLDING):
        unfold_fix(fix, term.arg)
    assert callable(getattr(fix, "_unfold_builder"))  # attached
    assert getattr(fix, "_unfoldings") == syntax.COMPILE_AT_UNFOLDING
    after = (pickle.dumps(term), repr(term), hash(term), dataclasses.fields(fix))
    assert after == before
    assert term == build() and build() == term
    restored = pickle.loads(pickle.dumps(term))
    assert restored == term
    for key in ("_unfold_builder", "_unfoldings", "_hash", "_free_variables"):
        assert not hasattr(restored.fn, key)


def test_a_fix_unfolded_fewer_times_than_the_threshold_never_compiles():
    fix = Fix("phi", "x", If(Sample(), Var("x"), App(Var("phi"), Var("x"))))
    argument = Numeral(Fraction(1, 2))
    expected = substitute(fix.body, {"x": argument, "phi": fix})
    for count in range(1, syntax.COMPILE_AT_UNFOLDING):
        assert unfold_fix(fix, argument) == expected
        assert getattr(fix, "_unfoldings") == count
        assert not hasattr(fix, "_unfold_builder")
    assert unfold_fix(fix, argument) == expected
    assert hasattr(fix, "_unfold_builder")


def test_open_fixes_and_open_arguments_unfold_generically():
    # An open fix never compiles; a compiled fix on an open argument falls
    # back to the capture-avoiding substitution, which renames the binder.
    open_fix = Fix("phi", "x", App(Var("phi"), Var("z")))
    for _ in range(2 * syntax.COMPILE_AT_UNFOLDING):
        unfold_fix(open_fix, Numeral(0))
    assert not hasattr(open_fix, "_unfold_builder")
    fix = Fix("phi", "x", Lam("y", App(Var("phi"), Var("x"))))
    for _ in range(syntax.COMPILE_AT_UNFOLDING):
        unfold_fix(fix, Numeral(0))
    assert hasattr(fix, "_unfold_builder")
    saved = syntax._FRESH_COUNTER
    try:
        expected = _with_fresh_counter(
            lambda: substitute(fix.body, {"x": Var("y"), "phi": fix})
        )
        actual = _with_fresh_counter(lambda: unfold_fix(fix, Var("y")))
    finally:
        syntax._FRESH_COUNTER = saved
    assert actual == expected and actual[1] > 0
    assert actual[0].var != "y" and free_variables(actual[0]) == frozenset({"y"})


# -- the compiled unfolding against the generic substitution -----------------

_BINDERS = ["x", "phi", "y"]


def _bodies(depth):
    """Fix bodies over x, phi and y whose inner binders shadow x or phi."""
    leaf = st.one_of(
        st.builds(Numeral, st.integers(min_value=-3, max_value=3)),
        st.builds(Var, st.sampled_from(_BINDERS)),
        st.just(Sample()),
    )
    if depth == 0:
        return leaf
    smaller = _bodies(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Lam, st.sampled_from(_BINDERS), smaller),
        st.builds(Fix, st.sampled_from(_BINDERS), st.sampled_from(_BINDERS), smaller),
        st.builds(App, smaller, smaller),
        st.builds(If, smaller, smaller, smaller),
        st.builds(lambda args: Prim("add", tuple(args)), st.lists(smaller, max_size=3)),
        st.builds(Score, smaller),
    )


def _closed_fix(body):
    fix = Fix("phi", "x", body)
    return Fix("phi", "x", Lam("y", body)) if free_variables(fix) else fix


_closed_arguments = st.sampled_from(
    [Numeral(Fraction(1, 3)), Sample(), App(Lam("y", Var("y")), Numeral(2))]
)


def _assert_same_sharing(actual, expected, originals, inserted):
    """Position by position: the same inserted object, the same shared node
    of the body, or a fresh node in both."""
    fresh = []
    stack = [(actual, expected)]
    while stack:
        left, right = stack.pop()
        if any(right is value for value in inserted) or id(right) in originals:
            assert left is right
            continue
        assert id(left) not in originals and not any(left is value for value in inserted)
        assert type(left) is type(right)
        fresh.append(left)
        stack.extend(zip(syntax._children(left), syntax._children(right)))
    return fresh


@settings(max_examples=300, deadline=None)
@given(_bodies(4), _closed_arguments)
def test_the_compiled_unfolding_is_the_substitution_node_for_node(body, argument):
    fix = _closed_fix(body)
    replacements = {"x": argument, "phi": fix}
    saved = syntax._FRESH_COUNTER
    try:
        expected, expected_draws = _with_fresh_counter(
            lambda: syntax._substitute(fix.body, replacements, frozenset())
        )
        build = syntax._compile_unfolding(fix)
        actual, draws = _with_fresh_counter(lambda: build(argument, fix))
    finally:
        syntax._FRESH_COUNTER = saved
    assert draws == expected_draws
    assert actual == expected
    assert repr(actual) == repr(expected)
    originals = {id(node) for node in subterms(fix.body)}
    fresh = _assert_same_sharing(actual, expected, originals, (argument, fix))
    for node in fresh:
        stamp = getattr(node, "_free_variables")
        assert stamp == free_variables(pickle.loads(pickle.dumps(node)))

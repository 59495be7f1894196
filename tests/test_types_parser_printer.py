"""Tests for the simple type system, the surface parser and the pretty printer."""

from fractions import Fraction

import pytest

from repro.spcf import (
    ArrowType,
    ParseError,
    RealType,
    TypeError_,
    parse,
    pretty,
    typecheck,
)
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Sample, Score, Var
from repro.spcf.types import type_of
from repro.programs import table1_programs, table2_programs


REAL = RealType()


class TestSimpleTypes:
    def test_numerals_samples_and_scores_have_type_real(self):
        assert type_of(Numeral(1)) == REAL
        assert type_of(Sample()) == REAL
        assert type_of(Score(Sample())) == REAL

    def test_lambda_identity_at_base_type(self):
        assert type_of(Lam("x", Var("x"))) == ArrowType(REAL, REAL)

    def test_fixpoint_first_order(self):
        term = Fix("phi", "x", If(Sample(), Var("x"), App(Var("phi"), Var("x"))))
        assert type_of(term) == ArrowType(REAL, REAL)

    def test_application_type(self):
        term = App(Lam("x", Prim("add", (Var("x"), Numeral(1)))), Numeral(2))
        assert type_of(term) == REAL

    def test_branch_mismatch_is_rejected(self):
        term = If(Sample(), Numeral(1), Lam("x", Var("x")))
        with pytest.raises(TypeError_):
            typecheck(term)

    def test_unbound_variable_is_rejected(self):
        with pytest.raises(TypeError_):
            typecheck(Var("x"))

    def test_applying_a_numeral_is_rejected(self):
        with pytest.raises(TypeError_):
            typecheck(App(Numeral(1), Numeral(2)))

    def test_score_of_a_function_is_rejected(self):
        with pytest.raises(TypeError_):
            typecheck(Score(Lam("x", Var("x"))))

    def test_expected_type_mismatch_is_reported(self):
        with pytest.raises(TypeError_):
            typecheck(Numeral(1), expected=ArrowType(REAL, REAL))

    def test_fixpoint_with_one_name_for_both_binders_is_rejected(self):
        # The argument must not shadow the function in the typing environment:
        # every machine's unfolding lets the function win, so typing
        # (mu f f. f + 1) 3 at R would type a program that gets stuck.
        term = App(Fix("f", "f", Prim("add", (Var("f"), Numeral(1)))), Numeral(3))
        with pytest.raises(TypeError_, match="both function and argument"):
            typecheck(term)

    def test_every_benchmark_program_is_simply_typable(self):
        for program in {**table1_programs(), **table2_programs()}.values():
            assert typecheck(program.applied) == REAL
            assert typecheck(program.fix) == ArrowType(REAL, REAL)


class TestParser:
    def test_parse_numbers_and_fractions(self):
        assert parse("1/2") == Numeral(Fraction(1, 2))
        assert parse("0.25") == Numeral(Fraction(1, 4))
        assert parse("3") == Numeral(3)

    def test_parse_arithmetic_precedence(self):
        term = parse("1 + 2 * 3")
        assert term == Prim("add", (Numeral(1), Prim("mul", (Numeral(2), Numeral(3)))))

    def test_parse_subtraction_is_left_associative(self):
        term = parse("1 - 2 - 3")
        assert term == Prim("sub", (Prim("sub", (Numeral(1), Numeral(2))), Numeral(3)))

    def test_parse_lambda_mu_if_let(self):
        term = parse("mu phi x. if sample - 1/2 then x else phi (x + 1)")
        assert isinstance(term, Fix)
        assert isinstance(term.body, If)
        term = parse("let e = sample in e + 1")
        assert isinstance(term, App)
        assert isinstance(term.fn, Lam)

    def test_parse_primitive_calls(self):
        term = parse("sig(x + 1)")
        assert term == Prim("sig", (Prim("add", (Var("x"), Numeral(1))),))
        term = parse("max(1, 2)")
        assert term == Prim("max", (Numeral(1), Numeral(2)))

    def test_parse_application_is_left_associative(self):
        term = parse("f a b")
        assert term == App(App(Var("f"), Var("a")), Var("b"))

    def test_parse_score(self):
        assert parse("score(sample)") == Score(Sample())

    def test_parse_rejects_a_mu_binding_one_name_twice(self):
        with pytest.raises(ParseError, match="binds 'f' twice at offset 6"):
            parse("(mu f f. f + 1) 3")
        assert parse("mu f g. f g") == Fix("f", "g", App(Var("f"), Var("g")))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("if sample then 1")  # missing else
        with pytest.raises(ParseError):
            parse("1 +")
        with pytest.raises(ParseError):
            parse("(1")
        with pytest.raises(ParseError):
            parse("1 2 ~")
        with pytest.raises(ParseError):
            parse("sig(1, 2)")  # wrong arity

    def test_parse_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("1) 2")


class TestPrinter:
    def test_round_trip_through_parser(self):
        source = "(mu phi x. if sample - 1/2 then x else phi (x + 1)) 1"
        term = parse(source)
        printed = pretty(term, unicode_symbols=False)
        # The printed form is not re-parsed (it uses `<= 0`), but it must
        # mention the key constituents.
        assert "mu phi x." in printed
        assert "sample" in printed
        assert "x + 1" in printed.replace("(", "").replace(")", "")

    def test_pretty_prints_fractions_exactly(self):
        assert pretty(Numeral(Fraction(1, 3))) == "1/3"
        assert pretty(Numeral(2)) == "2"

    def test_pretty_prints_infix_primitives(self):
        assert pretty(Prim("add", (Numeral(1), Numeral(2)))) == "(1 + 2)"
        assert pretty(Prim("sig", (Numeral(1),))) == "sig(1)"

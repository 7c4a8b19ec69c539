import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_dispersion.errors import DomainError, PolynomialSyntaxError
from padic_dispersion.polynomials import (
    SparsePolynomial,
    compose_affine,
    parse_polynomial,
    poly_residues,
)


class TestParser:
    def test_two_squares(self):
        f = parse_polynomial("x1^2 + x2^2")
        assert f.terms == (((0, 2), 1), ((2, 0), 1))

    def test_bare_variable(self):
        f = parse_polynomial("x^3")
        assert f.terms == (((3,), 1),)

    def test_mixed_term(self):
        f = parse_polynomial("2*x1*x2^3 - x1^4")
        assert f.terms == (((1, 3), 2), ((4, 0), -1))

    def test_constant_term_allowed(self):
        f = parse_polynomial("x^2+x+1")
        assert f.constant_term == 1 and f.coefficient((2,)) == 1

    def test_whitespace_and_signs(self):
        assert parse_polynomial(" - x +  3*x^2 ") == parse_polynomial("3*x^2 - x")

    def test_repeated_factor_merges(self):
        assert parse_polynomial("x1*x1").terms == (((2,), 1),)

    def test_like_terms_merge_and_cancel(self):
        assert parse_polynomial("x + x").terms == (((1,), 2),)
        assert parse_polynomial("x - x").terms == ()

    def test_forced_width(self):
        f = parse_polynomial("x1^2", nvars=3)
        assert f.nvars == 3 and f.terms == (((2, 0, 0), 1),)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("x^", "integer"),
            ("x^0", "positive"),
            ("x0", "indices start at 1"),
            ("2x", "missing '*'"),
            ("1.5*x", "non-integer"),
            ("x + * x", "variable"),
            ("x1 x2", "expected '+'"),
        ],
    )
    def test_syntax_errors_carry_position(self, text, fragment):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text)
        assert fragment in str(exc.value)
        assert exc.value.position >= 0

    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(min_value=0, max_value=4),
                    st.integers(min_value=0, max_value=4),
                ),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_print_parse_round_trip(self, raw):
        f = SparsePolynomial.from_terms(2, raw)
        if not f.terms:
            return
        assert parse_polynomial(str(f), nvars=2) == f


class TestEvaluation:
    def test_eval_mod_examples(self):
        assert poly_residues(parse_polynomial("x^2").terms, (2,), 3**2) == 4
        assert poly_residues(parse_polynomial("x1^2+x2^2").terms, (2, 2), 3) == 2
        assert poly_residues(parse_polynomial("x^3").terms, (5,), 7**2) == 27

    def test_eval_mod_agrees_with_exact(self):
        rng = random.Random(9)
        f = parse_polynomial("3*x1^4 - 2*x1*x2^2 + x2 - 7*x1")
        points = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(100)]
        for p, m in ((2, 4), (3, 3), (5, 2)):
            for x in points:
                assert poly_residues(f.terms, x, p**m) == int(f.evaluate(x)) % p**m
            columns = [np.array(c, dtype=np.int64) for c in zip(*points)]
            assert poly_residues(f.terms, columns, p**m).tolist() == [
                int(f.evaluate(x)) % p**m for x in points
            ]

    def test_partial_derivatives(self):
        f = parse_polynomial("x1^2*x2 + 3*x2^4")
        assert f.partial(0) == parse_polynomial("2*x1*x2", nvars=2)
        assert f.partial(1) == parse_polynomial("x1^2 + 12*x2^3")

    def test_compose_affine_matches_direct(self):
        rng = random.Random(31)
        f = parse_polynomial("x1^3 - 2*x1*x2 + 5*x2^2")
        center = (Fraction(1, 3), Fraction(4))
        step = Fraction(9)
        g = compose_affine(f.scale(1), center, step)
        for _ in range(25):
            y = (rng.randint(-4, 4), rng.randint(-4, 4))
            direct = f.evaluate(tuple(c + step * yi for c, yi in zip(center, y)))
            composed = sum(
                c * y[0] ** e[0] * y[1] ** e[1] for e, c in g.items()
            )
            assert composed == direct

    def test_from_terms_validation(self):
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(2, {(0, -1): 1})
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(1, {(1,): Fraction(1, 2)})
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(0, {})

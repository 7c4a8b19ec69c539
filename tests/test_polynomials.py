import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import padic_dispersion
from helpers import oracle_compose_affine
from padic_dispersion import expsums, polynomials, wave
from padic_dispersion.errors import DomainError, PolynomialSyntaxError, ResourceCapError
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import (
    MODULUS_LIMIT,
    SparsePolynomial,
    checked_modulus,
    compose_affine,
    lattice_form,
    parse_polynomial,
    poly_residues,
)
from padic_dispersion.schwartz import SchwartzBruhatFn


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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_compose_affine_matches_the_fraction_expansion(self, p):
        # equal dicts, key order included: the integer expansion inserts each
        # key where the one-Fraction-per-factor expansion first meets it
        rng = random.Random(f"compose:{p}")
        for _ in range(150):
            n = rng.randint(1, 3)
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 4) for _ in range(n))
                num = rng.choice([-1, 1]) * rng.randint(1, 30)
                coeffs[exps] = Fraction(num, p ** rng.randint(0, 3))
            center = [
                Fraction(rng.randint(-40, 40), p ** rng.randint(0, 3)) if rng.random() < 0.7 else 0
                for _ in range(n)
            ]
            step = Fraction(p) ** rng.randint(-2, 2)
            got = compose_affine(coeffs, center, step)
            want = oracle_compose_affine(coeffs, center, step)
            assert list(got.items()) == list(want.items()), (coeffs, center, step)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_integer_inputs_give_integer_coefficients(self, p):
        # the seeded cases above with integer coefficients, centre and step
        rng = random.Random(f"compose:{p}")
        for _ in range(150):
            n = rng.randint(1, 3)
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 4) for _ in range(n))
                coeffs[exps] = rng.choice([-1, 1]) * rng.randint(1, 30) * p ** rng.randint(0, 3)
            center = [rng.randint(-40, 40) if rng.random() < 0.7 else 0 for _ in range(n)]
            step = p ** rng.randint(0, 2)
            got = compose_affine(coeffs, center, step)
            want = oracle_compose_affine(coeffs, center, step)
            assert all(type(c) is int for c in got.values()), (coeffs, center, step)
            assert list(got.items()) == list(want.items()), (coeffs, center, step)

    def test_from_terms_validation(self):
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(2, {(0, -1): 1})
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(1, {(1,): Fraction(1, 2)})
        with pytest.raises(DomainError):
            SparsePolynomial.from_terms(0, {})


class TestLatticeForm:
    def test_terms_over_p_to_the_k_match_the_composition(self):
        f = parse_polynomial("x1^3 - 2*x1*x2 + 5*x2^2")
        for center, step in [((Fraction(1, 3), Fraction(4)), Fraction(9)),
                             ((Fraction(2), Fraction(-7, 9)), Fraction(1, 3)),
                             ((0, 0), 1)]:
            phase = f.scale(Fraction(1, 27))
            terms, K = lattice_form(phase, center, step, 3)
            g = compose_affine(phase, center, step)
            assert terms == {e: c * 3**K for e, c in g.items()}
            assert all(isinstance(c, int) for c in terms.values())
            # K is least: p^(K-1) * g leaves Z for some coefficient
            assert K == 0 or any((c * 3 ** (K - 1)).denominator != 1 for c in g.values())

    def test_integral_phase_has_k_zero(self):
        terms, K = lattice_form(parse_polynomial("x^2 + 3*x").scale(1), (1,), 3, 3)
        assert K == 0 and terms == {(0,): 4, (1,): 15, (2,): 9}

    def test_denominator_off_p_is_refused(self):
        with pytest.raises(DomainError):
            lattice_form({(1,): Fraction(1, 5)}, (0,), 1, 3)

    def test_integer_and_fraction_maps_expand_once_in_integers(self, monkeypatch):
        # one expansion, in integers, whichever numbers the phase is written in
        seen, compose = [], polynomials.compose_affine

        def expanding(coeffs, center, step):
            seen.append((*coeffs.values(), *center, step))
            return compose(coeffs, center, step)

        monkeypatch.setattr(polynomials, "compose_affine", expanding)
        f = parse_polynomial("x1^3 - 2*x1*x2 + 5*x2^2 + 7*x1")
        for center, step in [((Fraction(1, 3), Fraction(4)), Fraction(9)),
                             ((Fraction(2), Fraction(-7, 9)), Fraction(1, 3)),
                             ((0, 0), 1), ((5, -2), 3)]:
            seen.clear()
            terms = lattice_form(dict(f.terms), center, step, 3)
            assert terms == lattice_form(f.scale(1), center, step, 3)
            assert len(seen) == 2 and all(type(v) is int for args in seen for v in args)


class TestModulusLimit:
    def test_checked_modulus_accepts_the_limit_and_refuses_past_it(self):
        assert MODULUS_LIMIT == 2**31 - 1
        assert checked_modulus(2**31 - 1, "residue classes") == 2**31 - 1
        with pytest.raises(ResourceCapError) as err:
            checked_modulus(2**31, "residue classes")
        assert err.value.required == 2**31 and err.value.cap == MODULUS_LIMIT

    def test_exp_sum_refuses_a_modulus_of_2_to_the_31_before_enumerating(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("the block was enumerated")

        monkeypatch.setattr(expsums, "_block_counts", enumerated)
        res = expsums.exp_sum(parse_polynomial("x"), Fraction(1, 2**31), Ball.of(2, [0], 0),
                              cap=2**31)
        assert res.value == 0j  # a value reads no residue mod 2^31: the limit bounds counts only
        with pytest.raises(ResourceCapError) as err:
            res.counts
        assert err.value.required == 2**31 and err.value.cap == MODULUS_LIMIT

    def test_wave_refuses_a_phase_denominator_of_2_to_the_31(self):
        spec = wave.SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(2, [0], 0)), parse_polynomial("x^2")
        )
        # one cell at level 0; the denominator comes from x, or from t phi
        for t, x in ((Fraction(0), Fraction(1, 2**30)), (Fraction(1, 2**30), Fraction(0))):
            assert wave._cell_residues(spec, 0, 1, t, (x,))[1] == 2**30
            with pytest.raises(ResourceCapError) as err:
                wave._cell_residues(spec, 0, 1, t / 2, (x / 2,))
            assert err.value.cap == MODULUS_LIMIT

    def test_only_padic_writes_the_limit(self):
        package = Path(padic_dispersion.__file__).parent
        pattern = re.compile(r"1\s*<<\s*31|2\s*\*\*\s*31")
        writers = sorted(
            path.name for path in package.glob("*.py") if pattern.search(path.read_text())
        )
        assert writers == ["padic.py"]

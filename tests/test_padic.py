import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import complex_value
from padic_dispersion.errors import DomainError
from padic_dispersion.expsums import exp_sum
from padic_dispersion.padic import Ball, PadicRational, RootOfUnity, character, split_p_part
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import SchwartzBruhatFn
from padic_dispersion.surface import (
    GraphHypersurface,
    ray_values,
    surface_ft,
    zeta_kernel,
    zeta_kernel_numeric,
)
from padic_dispersion.wave import SolutionSpec, solve_u, windowed_spectrum


def meta_oracle(x: Fraction, p: int) -> tuple[int, int]:
    """(unit, val) with x = unit * p^val by repeated division by p, written
    independently of the library."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    assert den == 1
    return num, v


def meta(x, p: int) -> tuple[int, int | float]:
    """(unit, val) as PadicRational reads them, checked against split_p_part."""
    y = PadicRational(p, x)
    assert split_p_part(x, p) == (y.unit, 0 if y.is_zero else y.val)
    return y.unit, y.val


class TestPadicMeta:
    def test_zero(self):
        assert meta(0, 3) == (0, math.inf)
        assert PadicRational(3, 0).is_zero

    def test_positive_valuation(self):
        assert meta(18, 3) == meta_oracle(Fraction(18), 3) == (2, 2)

    def test_negative_valuation(self):
        assert meta(Fraction(7, 25), 5) == meta_oracle(Fraction(7, 25), 5) == (7, -2)

    def test_rejects_bad_denominator(self):
        with pytest.raises(DomainError):
            PadicRational(3, Fraction(1, 6))
        with pytest.raises(DomainError):
            split_p_part(Fraction(1, 6), 3)
        with pytest.raises(DomainError):
            split_p_part(Fraction(1, 2 * 3**1000), 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_multiplicativity(self, p):
        rng = random.Random(71 + p)
        for _ in range(200):
            x = Fraction(rng.randint(1, 400), p ** rng.randint(0, 3))
            y = Fraction(rng.randint(1, 400), p ** rng.randint(0, 3))
            (ax, vx), (ay, vy), (axy, vxy) = meta(x, p), meta(y, p), meta(x * y, p)
            assert (ax, vx) == meta_oracle(x, p)
            assert vxy == vx + vy
            assert axy % p**8 == ax * ay % p**8

    @pytest.mark.parametrize("p", [2, 3, 7, 65521])
    def test_deep_valuations_match_the_oracle(self, p):
        rng = random.Random(p)
        for _ in range(100):
            unit = rng.choice([-1, 1]) * rng.randrange(1, 10**30)
            x = Fraction(unit * p ** rng.randrange(300), p ** rng.randrange(300))
            assert meta(x, p) == meta_oracle(x, p)

    def test_a_deep_denominator_takes_logarithmically_many_divisions(self):
        # one division per power of 3 took 4.4 s; dividing by 3, 3^2, 3^4, ...
        # takes 0.02 s (2-core x86 host)
        x = Fraction(2, 3**100000)
        start = time.perf_counter()
        assert split_p_part(x, 3) == (2, -100000)
        assert time.perf_counter() - start < 0.5


class TestPadicRational:
    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([2, 3, 5]),
    )
    def test_fraction_round_trip(self, num, k, p):
        q = Fraction(num, p**k)
        assert PadicRational(p, q).as_fraction() == q

    @pytest.mark.parametrize("x", [0, 5, 18, Fraction(7, 9), Fraction(-2, 3)], ids=str)
    def test_equal_values_hash_equal_and_differ_from_plain_numbers(self, x):
        a, b = PadicRational(3, x), PadicRational(3, PadicRational(3, x))
        assert a == b and hash(a) == hash(b)
        assert a != x and a != Fraction(x)
        assert {x: "plain"}.get(a) is None and {a: "padic"}[b] == "padic"
        assert PadicRational(3, 5) != PadicRational(5, 5)


class TestCharacter:
    def test_trivial_on_integers(self):
        assert character(PadicRational(3, 5)) == RootOfUnity(3, 0, 0)

    def test_nontrivial_on_inverse_p(self):
        assert character(PadicRational(3, Fraction(1, 3))) == RootOfUnity(3, 1, 1)

    def test_digit_expansion_case(self):
        # independent digit oracle: 7/9 has fractional digits 7 = 1 + 2*3 mod 9
        x = Fraction(7, 9)
        digits = []
        a = 7
        for _ in range(2):
            digits.append(a % 3)
            a //= 3
        expect_num = digits[0] + 3 * digits[1]
        c = character(PadicRational(3, x))
        assert (c.numerator, c.level) == (expect_num, 2) == (7, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_additivity_exact(self, p):
        rng = random.Random(13 * p)
        for _ in range(1000):
            x = Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4))
            y = Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4))
            assert character(x + y, p) == character(x, p) * character(y, p)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)])
    def test_full_residue_sum_vanishes(self, p, m):
        counts = {r: 1 for r in range(p**m)}
        total = sum(
            n * complex_value(RootOfUnity(p, r, m)) for r, n in sorted(counts.items())
        )
        assert set(counts.values()) == {1} and len(counts) == p**m
        assert abs(total) < 1e-9


class TestRootOfUnity:
    def test_canonicalisation(self):
        assert RootOfUnity(3, 3, 2) == RootOfUnity(3, 1, 1)
        assert RootOfUnity(3, 9, 2) == RootOfUnity(3, 0, 0)
        assert RootOfUnity(5, -1, 1) == RootOfUnity(5, 4, 1)

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=0, max_value=4),
    )
    def test_group_law_matches_complex(self, p, r1, m1, r2, m2):
        a, b = RootOfUnity(p, r1, m1), RootOfUnity(p, r2, m2)
        assert abs(complex_value(a * b) - complex_value(a) * complex_value(b)) < 1e-12


class TestBallsAndResidues:
    def test_ultrametric_ball_relations(self):
        big = Ball.of(3, [0], 0)
        small = Ball.of(3, [6], 1)
        other = Ball.of(3, [Fraction(1, 3)], 1)
        assert not big.is_disjoint(small)
        assert big.is_disjoint(other)
        assert small.volume == Fraction(1, 3)


SPEC3 = SolutionSpec.build(SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2"))
PARABOLA3 = GraphHypersurface(parse_polynomial("x^2"), Ball.of(3, [0, 0], 0))


# 5 lies in Z, so only the prime check tells 5-adic from 3-adic; 1/5 does not lie in Z[1/3]
@pytest.mark.parametrize("a", [PadicRational(5, 5), PadicRational(5, Fraction(1, 5))],
                         ids=["5", "1/5"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: character(a, 3),
        lambda a: exp_sum(parse_polynomial("x^2"), a, Ball.of(3, [0], 0)),
        lambda a: surface_ft(PARABOLA3, (0, a)),
        lambda a: ray_values(PARABOLA3, (0, a), [1]),
        lambda a: solve_u(SPEC3, (a,), 0),
        lambda a: solve_u(SPEC3, (0,), a),
        lambda a: windowed_spectrum(SPEC3, (a,), 0, 1),
        lambda a: windowed_spectrum(SPEC3, (0,), a, 1),
        lambda a: zeta_kernel(0.5, a, 1, 3),
        lambda a: zeta_kernel_numeric(0.5, a, 1, 3),
    ],
    ids=["character", "exp_sum-z", "surface_ft-xi", "ray_values-direction", "solve_u-x", "solve_u-t",
         "windowed_spectrum-xi", "windowed_spectrum-tau", "zeta_kernel", "zeta_kernel_numeric"],
)
def test_scalar_of_another_prime_is_refused_at_p_3(call, a):
    with pytest.raises(DomainError):
        call(a)

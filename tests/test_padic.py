import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_dispersion.errors import DomainError
from padic_dispersion.expsums import exp_sum
from padic_dispersion.padic import (
    Ball,
    PadicRational,
    RootOfUnity,
    character,
    padic_meta,
)
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import SchwartzBruhatFn
from padic_dispersion.surface import GraphHypersurface, surface_ft, zeta_kernel, zeta_kernel_numeric
from padic_dispersion.wave import SolutionSpec, solve_u, windowed_spectrum


def meta_oracle(x: Fraction, p: int, precision: int) -> tuple[int, Fraction, int]:
    """Repeated division by p, written independently of the library."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    assert den == 1
    inv = pow(den, -1, p**precision) if den != 1 else 1
    ac = num * inv % p**precision
    absval = Fraction(1, p**v) if v >= 0 else Fraction(p**-v)
    return v, absval, ac


class TestPadicMeta:
    def test_zero(self):
        val, absval, ac = padic_meta(0, 3)
        assert val == math.inf and absval == 0 and ac == 0

    def test_positive_valuation(self):
        assert padic_meta(18, 3) == meta_oracle(Fraction(18), 3, 8) == (2, Fraction(1, 9), 2)

    def test_negative_valuation(self):
        val, absval, ac = padic_meta(Fraction(7, 25), 5)
        assert (val, absval) == (-2, Fraction(25))
        assert ac % 5**8 == 7

    def test_rejects_bad_denominator(self):
        with pytest.raises(DomainError):
            padic_meta(Fraction(1, 6), 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_multiplicativity(self, p):
        rng = random.Random(71 + p)
        for _ in range(200):
            x = Fraction(rng.randint(1, 400), p ** rng.randint(0, 3))
            y = Fraction(rng.randint(1, 400), p ** rng.randint(0, 3))
            vx, _, ax = padic_meta(x, p)
            vy, _, ay = padic_meta(y, p)
            vxy, _, axy = padic_meta(x * y, p)
            assert vxy == vx + vy
            assert axy % p**8 == ax * ay % p**8


class TestPadicRational:
    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([2, 3, 5]),
    )
    def test_fraction_round_trip(self, num, k, p):
        q = Fraction(num, p**k)
        assert PadicRational(p, q).as_fraction() == q

    def test_arithmetic(self):
        x = PadicRational(3, Fraction(2, 3))
        y = PadicRational(3, 9)
        assert (x + y).as_fraction() == Fraction(29, 3)
        assert (x * y).val == 1
        assert (x - x).is_zero
        assert (x / PadicRational(3, 2)).as_fraction() == Fraction(1, 3)

    def test_division_leaving_domain_rejected(self):
        # 9 / (2/3) = 27/2 is in Q_3 but not of the form a * 3^v
        with pytest.raises(DomainError):
            PadicRational(3, 9) / PadicRational(3, Fraction(2, 3))

    def test_ultrametric_valuation(self):
        rng = random.Random(5)
        for _ in range(200):
            x = PadicRational(3, Fraction(rng.randint(-50, 50), 3 ** rng.randint(0, 3)))
            y = PadicRational(3, Fraction(rng.randint(-50, 50), 3 ** rng.randint(0, 3)))
            if x.is_zero or y.is_zero or (x + y).is_zero:
                continue
            assert (x + y).val >= min(x.val, y.val)
            assert (x * y).val == x.val + y.val


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
            x = PadicRational(p, Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4)))
            y = PadicRational(p, Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4)))
            assert character(x + y) == character(x) * character(y)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)])
    def test_full_residue_sum_vanishes(self, p, m):
        counts = {r: 1 for r in range(p**m)}
        total = sum(
            n * RootOfUnity(p, r, m).complex_value for r, n in sorted(counts.items())
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
        assert abs((a * b).complex_value - a.complex_value * b.complex_value) < 1e-12


class TestBallsAndResidues:
    def test_ultrametric_ball_relations(self):
        big = Ball.of(3, [0], 0)
        small = Ball.of(3, [6], 1)
        other = Ball.of(3, [Fraction(1, 3)], 1)
        assert big.contains_ball(small)
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
        lambda a: solve_u(SPEC3, (a,), 0),
        lambda a: solve_u(SPEC3, (0,), a),
        lambda a: windowed_spectrum(SPEC3, (a,), 0, 1),
        lambda a: windowed_spectrum(SPEC3, (0,), a, 1),
        lambda a: zeta_kernel(0.5, a, 1, 3),
        lambda a: zeta_kernel_numeric(0.5, a, 1, 3),
    ],
    ids=["character", "exp_sum-z", "surface_ft-xi", "solve_u-x", "solve_u-t",
         "windowed_spectrum-xi", "windowed_spectrum-tau", "zeta_kernel", "zeta_kernel_numeric"],
)
def test_scalar_of_another_prime_is_refused_at_p_3(call, a):
    with pytest.raises(DomainError):
        call(a)

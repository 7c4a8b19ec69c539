import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import complex_value
from padic_dispersion.errors import DomainError
from padic_dispersion.expsums import exp_sum
from padic_dispersion.padic import (
    Ball,
    character,
    int_valuation,
    padic_fraction,
    split_p_part,
)
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import ModulatedSBFn, SchwartzBruhatFn
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


def meta(x, p: int) -> tuple[int, int]:
    """(unit, val) from split_p_part, of a scalar that padic_fraction returns unchanged."""
    assert padic_fraction(p, x) == x
    return split_p_part(x, p)


class TestPadicMeta:
    def test_zero(self):
        assert meta(0, 3) == (0, 0)
        assert type(padic_fraction(3, 0)) is Fraction

    def test_positive_valuation(self):
        assert meta(18, 3) == meta_oracle(Fraction(18), 3) == (2, 2)

    def test_negative_valuation(self):
        assert meta(Fraction(7, 25), 5) == meta_oracle(Fraction(7, 25), 5) == (7, -2)

    def test_rejects_bad_denominator(self):
        with pytest.raises(DomainError):
            padic_fraction(3, Fraction(1, 6))
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

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_a_prime_below_2_is_refused(self, p):
        # p = 1 and p = -1 divided by 1 forever; p = 0 raised ZeroDivisionError
        with pytest.raises(DomainError):
            split_p_part(Fraction(5, 3), p)
        with pytest.raises(DomainError):
            int_valuation(6, p)

    def test_a_deep_denominator_takes_logarithmically_many_divisions(self):
        # one division per power of 3 took 4.4 s; dividing by 3, 3^2, 3^4, ...
        # takes 0.02 s (2-core x86 host)
        x = Fraction(2, 3**100000)
        start = time.perf_counter()
        assert split_p_part(x, 3) == (2, -100000)
        assert time.perf_counter() - start < 0.5


# p-adic rationals: the elements of Z[1/p], held as plain Fractions
class TestPadicRational:
    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([2, 3, 5]),
    )
    def test_fraction_round_trip(self, num, k, p):
        q = Fraction(num, p**k)
        assert padic_fraction(p, q) == q and type(padic_fraction(p, q)) is Fraction
        unit, val = split_p_part(q, p)
        assert q == unit * Fraction(p) ** val


class TestCharacter:
    """character(x, p) is the angle {x}_p in [0, 1), Psi(x) = e({x}_p)."""

    def test_trivial_on_integers(self):
        assert character(5, 3) == character(-7, 3) == 0
        assert type(character(5, 3)) is Fraction

    def test_nontrivial_on_inverse_p(self):
        assert character(Fraction(1, 3), 3) == Fraction(1, 3)
        assert character(Fraction(-1, 3), 3) == Fraction(2, 3)

    def test_digit_expansion_case(self):
        # independent digit oracle: 7/9 has fractional digits 7 = 1 + 2*3 mod 9
        x = Fraction(7, 9)
        digits = []
        a = 7
        for _ in range(2):
            digits.append(a % 3)
            a //= 3
        expect_num = digits[0] + 3 * digits[1]
        assert character(x, 3) == Fraction(expect_num, 9) == Fraction(7, 9)
        assert character(x + 5, 3) == Fraction(7, 9)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_additivity_exact(self, p):
        rng = random.Random(13 * p)
        for _ in range(1000):
            x = Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4))
            y = Fraction(rng.randint(-200, 200), p ** rng.randint(0, 4))
            angle = character(x + y, p)
            assert 0 <= angle < 1
            assert (angle - character(x, p) - character(y, p)).denominator == 1

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2)])
    def test_full_residue_sum_vanishes(self, p, m):
        counts = {r: 1 for r in range(p**m)}
        total = sum(
            n * complex_value(character(Fraction(r, p**m), p)) for r, n in sorted(counts.items())
        )
        assert set(counts.values()) == {1} and len(counts) == p**m
        assert abs(total) < 1e-9


class TestBallsAndResidues:
    def test_ultrametric_ball_relations(self):
        big = Ball.of(3, [0], 0)
        small = Ball.of(3, [6], 1)
        other = Ball.of(3, [Fraction(1, 3)], 1)
        assert not big.is_disjoint(small)
        assert big.is_disjoint(other)
        assert small.volume == Fraction(1, 3)

    def test_a_ball_built_directly_is_checked_like_ball_of(self):
        assert Ball(3, (Fraction(1, 3),), 0) == Ball.of(3, [Fraction(1, 3)], 0)
        assert Ball(3, (2, 0), 1).center == (Fraction(2), Fraction(0))
        with pytest.raises(DomainError):
            Ball(3, (Fraction(1, 5),), 0)


SPEC3 = SolutionSpec.build(SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2"))
PARABOLA3 = GraphHypersurface(parse_polynomial("x^2"), Ball.of(3, [0, 0], 0))


# 1/5 does not lie in Z[1/3]: every entry point that takes a scalar refuses it
@pytest.mark.parametrize("a", [Fraction(1, 5)], ids=["1/5"])
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
        lambda a: Ball.of(3, [0, a], 0),
        lambda a: ModulatedSBFn(1, 3, ((Ball.of(3, [0], 0), (a,), 1 + 0j),)),
        # at p = 1 only the prime check refuses: no power of 1 clears a denominator
        lambda a: zeta_kernel(0.5, a, 1, 1),
        lambda a: zeta_kernel_numeric(0.5, a, 1, 1),
        lambda a: ModulatedSBFn(1, 1, ((Ball.of(3, [0], 0), (a,), 1 + 0j),)),
        # composite p: Z[1/p] is no ring of p-adic scalars
        lambda a: zeta_kernel(0.5, a, 1, 4),
        lambda a: zeta_kernel(0.5, a, 1, 9),
        lambda a: zeta_kernel_numeric(0.5, a, 1, 4),
        lambda a: zeta_kernel_numeric(0.5, a, 1, 9),
        lambda a: ModulatedSBFn(1, 4, ((Ball.of(3, [0], 0), (a,), 1 + 0j),)),
        lambda a: ModulatedSBFn(1, 9, ((Ball.of(3, [0], 0), (a,), 1 + 0j),)),
    ],
    ids=["character", "exp_sum-z", "surface_ft-xi", "ray_values-direction", "solve_u-x", "solve_u-t",
         "windowed_spectrum-xi", "windowed_spectrum-tau", "zeta_kernel", "zeta_kernel_numeric",
         "Ball.of-center", "ModulatedSBFn-modulation", "zeta_kernel-p1", "zeta_kernel_numeric-p1",
         "ModulatedSBFn-p1", "zeta_kernel-p4", "zeta_kernel-p9", "zeta_kernel_numeric-p4",
         "zeta_kernel_numeric-p9", "ModulatedSBFn-p4", "ModulatedSBFn-p9"],
)
def test_scalar_of_another_prime_is_refused_at_p_3(call, a):
    with pytest.raises(DomainError):
        call(a)

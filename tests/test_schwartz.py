import cmath
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import closed_form_transform, frac_part, random_sb
from padic_dispersion.errors import DomainError, ResourceCapError
from padic_dispersion.padic import Ball, PadicRational
from padic_dispersion.polynomials import MODULUS_LIMIT
from padic_dispersion.schwartz import (
    ModulatedSBFn,
    SchwartzBruhatFn,
    _group_rows,
    embed,
    fourier_modulated,
    fourier_sb,
    inverse_fourier_sb,
    l2_norm,
    l2_norm_modulated,
    lp_norm,
    sb_allclose,
    squares_at,
    to_schwartz,
)


def oracle_transform(g: SchwartzBruhatFn, xi: tuple[Fraction, ...], level: int) -> complex:
    """Direct Riemann sum of int g(x) Psi(-[x, xi]) dx, independent of the
    term-by-term closed form."""
    p = g.prime
    total = 0j
    for ball, coeff in g.terms:
        e = ball.radius_exp
        width = p ** max(0, level - e)
        step = Fraction(p) ** e
        center = ball.center_fractions()
        cell = float(ball.volume) / width**g.n
        for t in product(range(width), repeat=g.n):
            x = tuple(c + step * ti for c, ti in zip(center, t))
            phase = -sum((a * b for a, b in zip(x, xi)), Fraction(0))
            total += coeff * cmath.exp(2j * math.pi * float(frac_part(phase))) * cell
    return total


class TestTransformExamples:
    def test_unit_ball_self_dual(self):
        G = fourier_sb(SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)))
        assert len(G.terms) == 1
        ball, mod, coeff = G.terms[0]
        assert ball == Ball.of(3, [0], 0)
        assert all(m.is_zero for m in mod)
        assert coeff == 1

    def test_small_ball_spreads(self):
        G = fourier_sb(SchwartzBruhatFn.indicator(Ball.of(3, [0], 1)))
        ball, mod, coeff = G.terms[0]
        assert ball.radius_exp == -1  # support ||xi|| <= 3
        assert abs(coeff - 1 / 3) < 1e-15

    def test_translation_becomes_modulation(self):
        G = fourier_sb(SchwartzBruhatFn.indicator(Ball.of(3, [1], 1)))
        ball, mod, coeff = G.terms[0]
        assert ball.radius_exp == -1
        assert [m.as_fraction() for m in mod] == [Fraction(1)]

    def test_values_match_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            p = rng.choice([2, 3])
            g = random_sb(rng, p, 1)
            G = fourier_sb(g)
            for _ in range(6):
                xi = (Fraction(rng.randint(-p**2, p**2), p ** rng.randint(0, 2)),)
                got = G.value_at(xi)
                want = oracle_transform(g, xi, level=4)
                assert abs(got - want) < 1e-9

    def test_disjointness_of_image(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_sb(rng, 3, 1, max_balls=4)
            G = fourier_sb(g)
            balls = [b for b, _, _ in G.terms]
            for i in range(len(balls)):
                for j in range(i + 1, len(balls)):
                    assert balls[i].is_disjoint(balls[j])


class TestRoundTripAndParseval:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_round_trip(self, p):
        rng = random.Random(100 + p)
        for _ in range(8):
            g = random_sb(rng, p, rng.choice([1, 2]))
            back = inverse_fourier_sb(fourier_sb(g))
            assert sb_allclose(g, back, 1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_parseval(self, p):
        rng = random.Random(200 + p)
        for _ in range(8):
            g = random_sb(rng, p, rng.choice([1, 2]))
            assert abs(l2_norm(g) - l2_norm_modulated(fourier_sb(g))) < 1e-12

    def test_modulated_closure_both_signs(self):
        g = random_sb(random.Random(5), 3, 1, max_balls=3)
        G = fourier_sb(g, -1)
        GG = fourier_modulated(G, -1)  # second forward transform
        # double transform is the reflection: (FFg)(x) = g(-x)
        for x in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 9)):
            assert abs(GG.value_at((x,)) - g.value_at((-x,))) < 1e-12

    def test_modulus_invariant_under_translation(self):
        g = random_sb(random.Random(8), 3, 1)
        shifted = g.translated((Fraction(2, 3),))
        F1, F2 = fourier_sb(g), fourier_sb(shifted)
        for x in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(4, 9)):
            assert abs(abs(F1.value_at((x,))) - abs(F2.value_at((x,)))) < 1e-12


class TestNorms:
    def test_unit_indicator_all_rho(self):
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        for rho in (1, 2, 3.5, math.inf):
            assert abs(lp_norm(g, rho) - 1.0) < 1e-15

    def test_scaled_small_ball(self):
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0], 1), 2.0)
        for rho in (1, 2, 4):
            assert abs(lp_norm(g, rho) - 2 * 3 ** (-1 / rho)) < 1e-12
        assert lp_norm(g, math.inf) == 2.0

    def test_two_disjoint_balls(self):
        g = SchwartzBruhatFn.of(
            3,
            [
                (Ball.of(3, [0], 0), 1.0),
                (Ball.of(3, [Fraction(1, 3)], 1), 1.0),
            ],
        )
        assert abs(lp_norm(g, 2) - (1 + Fraction(1, 3)) ** 0.5) < 1e-12

    @given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=-3, max_value=3))
    def test_homogeneity(self, re, im):
        c = complex(re, im)
        g = SchwartzBruhatFn.of(
            3, [(Ball.of(3, [0], 0), 1.5), (Ball.of(3, [Fraction(1, 3)], 0), -2.0)]
        )
        for rho in (1, 2, math.inf):
            assert abs(lp_norm(g.scaled(c), rho) - abs(c) * lp_norm(g, rho)) < 1e-9

    def test_rho_validation(self):
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        with pytest.raises(DomainError):
            lp_norm(g, 0.5)

    def test_nan_rho_is_refused(self):
        with pytest.raises(DomainError):
            lp_norm(SchwartzBruhatFn.indicator(Ball.of(3, [0], 0), 2.0), math.nan)

    def test_large_rho_neither_underflows_nor_overflows(self):
        unit = Ball.of(3, [0], 0)
        assert abs(lp_norm(SchwartzBruhatFn.indicator(unit, 0.1), 400) - 0.1) < 1e-15
        assert abs(lp_norm(SchwartzBruhatFn.indicator(unit, 3.0), 1000) - 3.0) < 1e-15
        g = SchwartzBruhatFn.of(3, [(unit, 1e-3), (Ball.of(3, [Fraction(1, 3)], 1), 2e-3)])
        assert abs(lp_norm(g, 500) - 2e-3 * (2.0**-500 + 1 / 3) ** (1 / 500)) < 1e-18


class TestValidation:
    def test_overlapping_balls_rejected(self):
        with pytest.raises(DomainError):
            SchwartzBruhatFn.of(
                3, [(Ball.of(3, [0], 0), 1.0), (Ball.of(3, [3], 1), 1.0)]
            )

    def test_modulated_disjointness_enforced(self):
        zero = (PadicRational(3, 0),)
        with pytest.raises(DomainError):
            ModulatedSBFn(
                1,
                3,
                (
                    (Ball.of(3, [0], 0), zero, 1 + 0j),
                    (Ball.of(3, [0], 1), zero, 1 + 0j),
                ),
            )

    def test_value_at(self):
        g = SchwartzBruhatFn.of(
            3, [(Ball.of(3, [0], 1), 2.0), (Ball.of(3, [1], 1), -1.0)]
        )
        assert g.value_at((Fraction(3),)) == 2.0
        assert g.value_at((Fraction(4),)) == -1.0
        assert g.value_at((Fraction(2),)) == 0.0

    def test_value_at_far_and_fine_points(self):
        # 3^50 is past int64: the point is reduced before it becomes an array row
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        for f in (g, fourier_sb(g)):
            assert [f.value_at((x,)) for x in (3**50, -7, Fraction(1, 3**40))] == [1, 1, 0]
        terms = [((Fraction(1, 3),), 0, 1 + 0j)]  # F 1_{1/3 + Z_3}: modulated by 1/3
        G = fourier_sb(SchwartzBruhatFn.of(3, [(Ball.of(3, [Fraction(1, 3)], 0), 1 + 0j)]))
        for x in (3**50, -7, 3**50 + 1, Fraction(1, 3**40)):
            assert abs(G.value_at((x,)) - closed_form_transform(terms, (x,), 3)) < 1e-12


# -- the exact integer form ------------------------------------------------------


def _val(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _in_ball(x, a, r: int, p: int) -> bool:
    return all(_val(Fraction(xi) - ai, p) >= r for xi, ai in zip(x, a))


def _disjoint_terms(rng, p: int, n: int, radii: tuple[int, int], den: int):
    terms = []
    for _ in range(3):
        a = tuple(Fraction(rng.randint(-p**2, p**2), p ** rng.randint(0, den)) for _ in range(n))
        r = rng.randint(*radii)
        if all(not _in_ball(a, b, min(r, s), p) for b, s, _ in terms):
            terms.append((a, r, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    return terms


# (p, n, radius range, centre denominator exponent); tilings stay small
VALUE_CASES = [
    (2, 1, (-2, 2), 2), (3, 1, (-1, 2), 1), (5, 1, (-1, 1), 1), (7, 1, (-1, 1), 1),
    (2, 2, (-1, 1), 1), (3, 2, (-1, 1), 1), (5, 2, (-1, 0), 1), (7, 2, (-1, 0), 1),
    (2, 3, (-1, 1), 1), (3, 3, (-1, 0), 1), (5, 3, (-1, 0), 1), (7, 3, (-1, 0), 0),
]


class TestIntegerForm:
    @pytest.mark.parametrize("p,n,radii,den", VALUE_CASES)
    def test_values_match_the_ball_indicator_closed_form(self, p, n, radii, den):
        rng = random.Random(31 * p + n)
        for _ in range(3):
            terms = _disjoint_terms(rng, p, n, radii, den)
            g = SchwartzBruhatFn.of(p, [(Ball.of(p, a, r), c) for a, r, c in terms])
            G = fourier_sb(g)
            back = inverse_fourier_sb(G)
            points = [(Fraction(0),) * n]
            for a, r, _ in terms:
                points += [a, tuple(x + Fraction(p) ** (r - 1) for x in a),
                           tuple(x + Fraction(p) ** (r + 1) for x in a)]
            points += [tuple(Fraction(rng.randint(-p**3, p**3), p ** rng.randint(0, den + 1))
                             for _ in range(n)) for _ in range(4)]
            for x in points:
                want = sum((c for a, r, c in terms if _in_ball(x, a, r, p)), 0j)
                assert abs(back.value_at(x) - want) < 1e-9
                xi = tuple(-y for y in x)
                assert abs(G.value_at(xi) - closed_form_transform(terms, xi, p)) < 1e-9

    def test_equality_is_exact_and_boolean(self):
        g = random_sb(random.Random(3), 3, 2)
        G, back = fourier_sb(g), inverse_fourier_sb(fourier_sb(g))
        assert (fourier_sb(g) == G) is True
        assert (inverse_fourier_sb(fourier_sb(g)) == back) is True
        assert (ModulatedSBFn(G.n, G.prime, G.terms) == G) is True
        assert (SchwartzBruhatFn(back.n, back.prime, back.terms) == back) is True
        ball, mod, c = G.terms[0]
        changed = ModulatedSBFn(G.n, G.prime, ((ball, mod, c + 1e-12),) + G.terms[1:])
        assert (changed == G) is False
        ball, c = back.terms[-1]
        changed = SchwartzBruhatFn(back.n, back.prime, back.terms[:-1] + ((ball, c * 1j),))
        assert (changed == back) is False

    def test_outputs_retain_few_bytes_per_term(self):
        terms = [(Ball.of(3, (Fraction(1, 9), 0), -1), 1 + 1j), (Ball.of(3, (0, 1), 2), -2.0)]
        g = SchwartzBruhatFn.of(3, terms)
        inverse_fourier_sb(fourier_sb(g))  # first-call allocations are not retained output
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            G = fourier_sb(g)
            back = inverse_fourier_sb(G)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        count = len(G.terms) + len(back.terms)
        assert count >= 1000
        # n = 2: 36 B per modulated term and 28 B per plain term (int32 indices,
        # complex128 coefficients), plus the fixed cost of two objects and
        # their arrays
        assert retained <= 40 * count + 4096, (retained, count)

    def test_moduli_past_the_int32_guard_are_refused(self):
        # Psi(-[b, a]) for b = a = 2^-16 has denominator 2^32
        half = Fraction(1, 2**16)
        G = ModulatedSBFn(1, 2, ((Ball.of(2, [half], 0), (PadicRational(2, half),), 1 + 0j),))
        with pytest.raises(ResourceCapError):
            fourier_modulated(G, -1)
        # index moduli: 2^31 Z_2 itself, and the transform of 2^-40 Z_2 (radius 40)
        with pytest.raises(ResourceCapError) as err:
            SchwartzBruhatFn.indicator(Ball.of(2, [0], 31))
        assert err.value.cap == MODULUS_LIMIT
        with pytest.raises(ResourceCapError):
            fourier_sb(SchwartzBruhatFn.indicator(Ball.of(2, [0], -40)))
        assert abs(l2_norm(SchwartzBruhatFn.indicator(Ball.of(2, [0], 30))) - 2**-15) < 1e-18


class TestGroupRows:
    def test_matches_numpy_unique(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            dtype = np.int32 if trial % 2 else np.int64
            rows = rng.integers(-4, 5, size=(rng.integers(0, 40), rng.integers(1, 5))).astype(dtype)
            want, want_inv = np.unique(rows, axis=0, return_inverse=True)
            got, inv = _group_rows(rows)
            assert got.dtype == rows.dtype and np.array_equal(got, want)
            assert np.array_equal(inv, want_inv.ravel())


class TestSquaresAt:
    def test_matches_the_pointwise_values(self):
        p, rng = 3, random.Random(17)
        for _ in range(20):
            G = fourier_sb(random_sb(rng, p, 2, max_balls=3, radius_range=(-1, 1)))
            r, D = int(G.radii.max()), G.denom + rng.randint(0, 2)
            points = np.array([[rng.randrange(p ** (r + D)) for _ in range(2)] for _ in range(30)])
            want = sum(abs(G.value_at([Fraction(int(v), p**D) for v in row])) ** 2 for row in points)
            assert abs(squares_at(G, points, D) - want) <= 1e-12 * max(want, 1)


class TestCaps:
    def test_to_schwartz_counts_every_tiled_coset(self):
        # two balls of 3^12 cosets each: under the cap one by one, over it together
        mod = (PadicRational(3, Fraction(1, 3**13)),)
        G = ModulatedSBFn(1, 3, tuple((Ball.of(3, [k], 1), mod, 1 + 0j) for k in (0, 1)))
        start = time.perf_counter()
        with pytest.raises(ResourceCapError) as info:
            to_schwartz(G)
        assert info.value.required == 2 * 3**12
        assert time.perf_counter() - start < 1.0

    def test_canonicalisation_counts_every_tiled_coset(self):
        # the transform puts two terms on Z_3 and two on 1/3 + Z_3, with
        # modulations of denominator 3^12: two regions of 3^12 cosets each
        zero, third = PadicRational(3, 0), PadicRational(3, Fraction(1, 3))
        terms = tuple(
            (Ball.of(3, [Fraction(k, 3**12)], 0), (b,), 1 + 0j)
            for k, b in ((1, zero), (2, zero), (4, third), (5, third))
        )
        with pytest.raises(ResourceCapError) as info:
            fourier_modulated(ModulatedSBFn(1, 3, terms), -1)
        assert info.value.required == 2 * 3**12

    def test_allclose_splits_balls_only_down_to_nested_balls(self):
        unit = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        tiny = SchwartzBruhatFn.indicator(Ball.of(3, [0], 13))
        start = time.perf_counter()
        assert sb_allclose(unit, tiny) is False
        assert sb_allclose(tiny, tiny.scaled(1 + 1e-15)) is True
        # Z_3 as the disjoint union of its shells down to 3^13 Z_3
        shells = [(Ball.of(3, [d * 3 ** (k - 1)], k), 1.0) for k in range(1, 14) for d in (1, 2)]
        split = SchwartzBruhatFn.of(3, shells + [(Ball.of(3, [0], 13), 1.0)])
        assert sb_allclose(unit, split) is True
        assert sb_allclose(split, unit) is True
        assert sb_allclose(unit, SchwartzBruhatFn.of(3, shells)) is False
        assert time.perf_counter() - start < 1.0

import cmath
import math
import random
from fractions import Fraction

import pytest

from helpers import oracle_exp_sum, oracle_residue_counts
from padic_dispersion import expsums
from padic_dispersion.errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DomainError,
    ResourceCapError,
)
from padic_dispersion.expsums import (
    decay_fit,
    exp_sum,
    expsum_from_histogram,
    residue_histogram,
    stationary_certificate,
)
from padic_dispersion.padic import Ball, PadicRational
from padic_dispersion.polynomials import parse_polynomial

Z3 = Ball.of(3, [0], 0)
SQUARE = parse_polynomial("x^2")


class TestExpSum:
    def test_gauss_sum_level_one(self):
        res = exp_sum(SQUARE, Fraction(1, 3), Z3)
        expect = (1 + 2 * cmath.exp(2j * math.pi / 3)) / 3
        assert res.counts == {0: 1, 1: 2}
        assert abs(res.value - expect) < 1e-15
        assert abs(abs(res.value) - 3 ** -0.5) < 1e-12

    def test_trivial_character_gives_volume(self):
        assert exp_sum(SQUARE, 2, Z3).value == 1.0

    def test_full_linear_sum_vanishes(self):
        for m in (1, 2, 3):
            res = exp_sum(parse_polynomial("x"), Fraction(1, 3**m), Z3)
            assert set(res.counts.values()) == {1}
            assert abs(res.value) < 1e-9

    def test_zero_z_rejected(self):
        with pytest.raises(DomainError):
            exp_sum(SQUARE, 0, Z3)

    def test_matches_direct_oracle_randomised(self):
        rng = random.Random(42)
        polys = [
            parse_polynomial("x^2"),
            parse_polynomial("x^3 - x"),
            parse_polynomial("x1^2 + x1*x2", nvars=2),
            parse_polynomial("x1*x2^2 - 3*x2", nvars=2),
        ]
        for _ in range(40):
            f = rng.choice(polys)
            p = rng.choice([2, 3])
            unit = rng.choice([1, 2, -1])
            mexp = rng.randint(-1, 2)
            z = Fraction(unit) * Fraction(p) ** -mexp
            e = rng.randint(-1, 1) if f.nvars == 1 else rng.randint(0, 1)
            center = tuple(
                Fraction(rng.randint(0, p**2), p ** rng.randint(0, 1))
                for _ in range(f.nvars)
            )
            ball = Ball.of(p, center, e)
            got = exp_sum(f, z, ball).value
            # a provably sufficient constancy level, plus one step of margin
            level = max(0, mexp + max(0, -e) * f.total_degree()) + 1
            want = oracle_exp_sum(f, z, ball, level)
            assert abs(got - want) < 1e-9, (f, z, ball)

    def test_volume_bound_exact(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 3)
            f = parse_polynomial(rng.choice(["x^2", "x^3+x", "x^4-2*x"]))
            ball = Ball.of(p, [rng.randint(0, p)], rng.randint(0, 1))
            res = exp_sum(f, Fraction(1, p**m), ball)
            assert res.scale * res.total_count == ball.volume
            assert abs(res.value) <= float(ball.volume) + 1e-12

    def test_level_refinement_stable(self):
        for extra in (1, 2):
            a = exp_sum(SQUARE, Fraction(2, 9), Z3)
            b = exp_sum(SQUARE, Fraction(2, 9), Z3, extra_level=extra)
            assert abs(a.value - b.value) < 1e-12
            assert b.total_count == a.total_count * 3**extra

    def test_separated_variables_multiplicative(self):
        f = parse_polynomial("x1^2 + x2^3")
        ball2 = Ball.of(3, [0, 0], 0)
        for m in (1, 2, 3, 4):
            z = Fraction(1, 3**m)
            joint = exp_sum(f, z, ball2).value
            split = (
                exp_sum(parse_polynomial("x^2"), z, Z3).value
                * exp_sum(parse_polynomial("x^3"), z, Z3).value
            )
            assert abs(joint - split) < 1e-9

    def test_coupled_block_matches_oracle(self):
        f = parse_polynomial("x1^2*x2 + x2^2")
        ball2 = Ball.of(3, [0, 0], 0)
        z = Fraction(1, 27)
        got = exp_sum(f, z, ball2).value
        want = oracle_exp_sum(f, z, ball2, 3)
        assert abs(got - want) < 1e-9

    def test_large_coupled_block_matches_sub_balls(self):
        # 3^14 points: the coupled block spans more than one slab
        f = parse_polynomial("x1^2 + x1*x2 + x2^3")
        z = Fraction(1, 3**7)
        whole = exp_sum(f, z, Ball.of(3, [0, 0], 0)).value
        parts = sum(
            exp_sum(f, z, Ball.of(3, [a, b], 1)).value
            for a in range(3)
            for b in range(3)
        )
        assert abs(whole - parts) < 1e-12

    def test_worker_count_does_not_change_anything(self, monkeypatch):
        monkeypatch.setattr(expsums, "_CHUNK", 100)  # many slabs per block
        cases = [
            (parse_polynomial("x^3 - 2*x"), Ball.of(7, [0], 0), 4),
            (parse_polynomial("x1^2*x2 + x2^2"), Ball.of(3, [0, 0], 0), 4),
            # width 8 over four coupled variables: 8^3 exceeds the chunk, so
            # the first variable is a scalar and the second is walked
            (parse_polynomial("x1*x2 + x2*x3^2 + x3*x4 + x4^3"), Ball.of(2, [0] * 4, 0), 3),
        ]
        for f, ball, m in cases:
            z = Fraction(1, ball.prime**m)
            first = exp_sum(f, z, ball, threads=1)
            assert abs(first.value - oracle_exp_sum(f, z, ball, m)) < 1e-9
            want = oracle_residue_counts(f, m, ball)
            for threads in (1, 2, 5):
                b = exp_sum(f, z, ball, threads=threads)
                assert first.counts == b.counts
                assert first.value == b.value
                assert residue_histogram(f, m, ball, threads=threads) == want


class TestResidueHistogram:
    def test_squares_mod_3(self):
        assert residue_histogram(SQUARE, 1, Z3) == {0: 1, 1: 2}

    def test_squares_mod_9(self):
        assert residue_histogram(SQUARE, 2, Z3) == {0: 3, 1: 2, 4: 2, 7: 2}

    def test_linear_bijection(self):
        assert residue_histogram(parse_polynomial("x"), 1, Z3) == {0: 1, 1: 1, 2: 1}

    def test_matches_brute_force(self):
        rng = random.Random(3)
        polys = [
            parse_polynomial("x^3 - x"),
            parse_polynomial("x1^2 + x2^2"),
            parse_polynomial("x1*x2 + x1", nvars=2),
        ]
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 2)
            f = rng.choice(polys)
            ball = Ball.of(p, (0,) * f.nvars, rng.randint(0, 1))
            assert residue_histogram(f, m, ball) == oracle_residue_counts(f, m, ball)
        # small balls off the origin: the modulus p^m exceeds the grid side
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            f = rng.choice(polys)
            center = tuple(rng.randint(1, p**4) for _ in range(f.nvars))
            ball = Ball.of(p, center, rng.randint(2, 3))
            m = rng.randint(1, 5)
            assert residue_histogram(f, m, ball) == oracle_residue_counts(f, m, ball)

    def test_unused_variables_scale_exactly(self):
        # 3^60 points per residue: the counts leave int64 and must stay exact
        one = residue_histogram(SQUARE, 12, Z3)
        six = residue_histogram(parse_polynomial("x1^2+0*x6"), 12, Ball.of(3, [0] * 6, 0))
        assert six == {r: c * 3**60 for r, c in one.items()}

    def test_total_mass(self):
        h = residue_histogram(parse_polynomial("x1^2+x2^2"), 2, Ball.of(3, [0, 0], 0))
        assert sum(h.values()) == 3 ** (2 * 2)

    def test_requires_integral_ball(self):
        with pytest.raises(DomainError):
            residue_histogram(SQUARE, 1, Ball.of(3, [Fraction(1, 3)], 1))

    def test_exp_sum_recoverable_exactly(self):
        # same counts and bit-identical value when the unit is 1
        h = residue_histogram(SQUARE, 2, Z3)
        via_hist = expsum_from_histogram(h, 2, 3, Fraction(1, 9))
        direct = exp_sum(SQUARE, Fraction(1, 9), Z3)
        assert via_hist.counts == direct.counts
        assert via_hist.value == direct.value
        # nontrivial angular component: counts remap by c -> u c mod p^m
        via_hist2 = expsum_from_histogram(h, 2, 3, Fraction(1, 9), unit=2)
        direct2 = exp_sum(SQUARE, Fraction(2, 9), Z3)
        assert via_hist2.counts == direct2.counts
        assert via_hist2.value == direct2.value

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            residue_histogram(SQUARE, 9, Z3, cap=100)


class TestStationaryCertificate:
    def test_unit_derivative_on_small_ball(self):
        cert = stationary_certificate(
            parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1)
        )
        assert cert.bound_exponent == 0
        assert cert.threshold == 3
        assert cert.verified_levels == (2, 3, 4, 5, 6)
        assert cert.max_abs < 1e-9

    def test_unit_ball_shifted(self):
        cert = stationary_certificate(SQUARE, Ball.of(3, [1], 1))
        assert cert.bound_exponent == 0 and cert.threshold == 3

    def test_critical_point_detected(self):
        with pytest.raises(CertificateUnavailableError) as exc:
            stationary_certificate(SQUARE, Z3)
        center, level = exc.value.residue_class
        assert center == (Fraction(0),)

    def test_irrational_critical_point_indeterminate(self):
        # f' = 2x + 1 vanishes at -1/2, a 3-adic integer no center ever hits
        with pytest.raises(CertificateIndeterminate):
            stationary_certificate(parse_polynomial("x^2+x"), Z3, depth_cap=5)

    def test_positive_bound_exponent(self):
        # f' = 3(x^2 + 1) and x^2 + 1 is a unit on all of Z_3, so
        # min v(f') = 1 everywhere and no critical point exists.
        f = parse_polynomial("x^3 + 3*x")
        cert = stationary_certificate(f, Z3, m_max=8)
        assert cert.bound_exponent == 1
        assert cert.threshold == 27
        assert cert.verified_levels == (4, 5, 6, 7, 8)
        assert cert.max_abs < 1e-9

    def test_small_ball_rejected(self):
        with pytest.raises(DomainError):
            stationary_certificate(SQUARE, Ball.of(3, [1], 2))


class TestDecayFit:
    def test_gauss_exact_half(self):
        fit = decay_fit(SQUARE, Z3, range(1, 7))
        assert fit.status == "ok"
        assert abs(fit.slope - 0.5) < 1e-9
        assert fit.beta == Fraction(1, 2)
        assert fit.quasi_homogeneous and fit.consistent

    def test_two_squares_slope_one(self):
        fit = decay_fit(parse_polynomial("x1^2+x2^2"), Ball.of(3, [0, 0], 0), range(1, 6))
        assert abs(fit.slope - 1.0) < 1e-9
        assert fit.beta == 1

    def test_cubic_p7(self):
        fit = decay_fit(parse_polynomial("x^3"), Ball.of(7, [0], 0), range(1, 7))
        assert abs(fit.slope - 1 / 3) < 0.05
        assert fit.beta == Fraction(1, 3)

    def test_superpolynomial_when_no_critical_point(self):
        fit = decay_fit(parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1), range(2, 7))
        assert fit.status == "superpolynomial"
        assert fit.slope is None
        # constant term only shifts the phase: beta comes from x^2 + x
        assert fit.beta == 1

    def test_residual_reported(self):
        fit = decay_fit(parse_polynomial("x^3"), Ball.of(7, [0], 0), range(2, 7))
        assert fit.residual is not None and fit.residual >= 0

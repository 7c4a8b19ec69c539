import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    oracle_graph_constancy_level,
    oracle_restriction_ratio,
    oracle_surface_ft,
    random_sb,
    translated,
)
from padic_dispersion import schwartz
from padic_dispersion.cli import _random_sb, _zeta_check
from padic_dispersion.errors import DomainError, ResourceCapError
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import SparsePolynomial, parse_polynomial
from padic_dispersion.schwartz import SchwartzBruhatFn, fourier_sb
from padic_dispersion.surface import (
    GraphHypersurface,
    decay_table,
    ray_values,
    remark_family_exponent,
    restriction_ratio,
    restriction_rho_bound,
    surface_ft,
    zeta_kernel,
    zeta_kernel_numeric,
)

PARABOLA = GraphHypersurface(parse_polynomial("x^2"), Ball.of(3, [0, 0], 0))


class TestSurfaceFT:
    def test_zero_frequency_gives_measure(self):
        assert surface_ft(PARABOLA, (0, 0)) == 1.0
        small = GraphHypersurface(parse_polynomial("x^2"), Ball.of(3, [0, 0], 1))
        assert abs(surface_ft(small, (0, 0)) - 1 / 3) < 1e-15

    def test_conjugate_gauss_decay(self):
        for m in range(1, 5):
            v = surface_ft(PARABOLA, (0, Fraction(1, 3**m)))
            assert abs(abs(v) - 3 ** (-m / 2)) < 1e-12

    def test_trivial_character(self):
        assert surface_ft(PARABOLA, (0, 2)) == 1.0

    def test_pure_linear_vanishes(self):
        assert abs(surface_ft(PARABOLA, (Fraction(1, 3), 0))) < 1e-12

    def test_matches_direct_oracle(self):
        rng = random.Random(17)
        for _ in range(15):
            phi = rng.choice(
                [parse_polynomial("x^2"), parse_polynomial("x^3 + x")]
            )
            Y = GraphHypersurface(phi, Ball.of(3, [0, 0], rng.randint(0, 1)))
            xi = tuple(
                Fraction(rng.randint(-8, 8), 3 ** rng.randint(0, 2))
                for _ in range(2)
            )
            got = surface_ft(Y, xi)
            want = oracle_surface_ft(phi, Y.window, xi, level=4)
            assert abs(got - want) < 1e-9

    def test_volume_bound(self):
        rng = random.Random(29)
        vol = float(PARABOLA.base_window.volume)
        for _ in range(20):
            xi = tuple(
                Fraction(rng.randint(-9, 9), 3 ** rng.randint(0, 3)) for _ in range(2)
            )
            assert abs(surface_ft(PARABOLA, xi)) <= vol + 1e-12


class TestDecayTables:
    def test_parabola_slope_half(self):
        dt = decay_table(PARABOLA, ray_values(PARABOLA, (0, 1), range(1, 7)))
        assert abs(dt.slope - 0.5) < 1e-9
        assert dt.expected == Fraction(1, 2)
        assert dt.consistent

    def test_cubic_p7(self):
        Y = GraphHypersurface(parse_polynomial("x^3"), Ball.of(7, [0, 0], 0))
        dt = decay_table(Y, ray_values(Y, (0, 1), range(1, 7)))
        assert abs(dt.slope - 1 / 3) < 0.05
        assert dt.expected == Fraction(1, 3)
        assert dt.consistent

    def test_two_squares_slope_one(self):
        Y = GraphHypersurface(parse_polynomial("x1^2+x2^2"), Ball.of(3, [0, 0, 0], 0))
        dt = decay_table(Y, ray_values(Y, (0, 0, 1), range(1, 7)))
        assert abs(dt.slope - 1.0) < 0.05
        assert dt.expected == Fraction(1)
        assert dt.consistent

    def test_family_detection(self):
        assert remark_family_exponent(parse_polynomial("x1^2+x2^2")) == 1
        assert remark_family_exponent(parse_polynomial("3*x^2")) == Fraction(1, 2)
        assert remark_family_exponent(parse_polynomial("x^4")) == Fraction(1, 4)
        assert remark_family_exponent(parse_polynomial("x1^2+x2^3")) is None
        # quadratic not covering every variable is not in the family
        assert remark_family_exponent(parse_polynomial("x1^2", nvars=2)) is None

    def test_candidate_exponents_reported(self):
        Y = GraphHypersurface(parse_polynomial("x1^2+x2^3"), Ball.of(5, [0, 0, 0], 0))
        dt = decay_table(Y, ray_values(Y, (0, 0, 1), range(1, 5)))
        assert dt.degree_bound == 3
        assert dt.reciprocal_bound == Fraction(1, 3)
        assert dt.expected is None and dt.consistent is None


class TestRayValues:
    CASES = [
        ("x^2", Ball.of(3, [0, 0], 0), (0, 1)),
        ("x^3", Ball.of(7, [0, 0], 0), (0, 1)),
        ("x^3", Ball.of(2, [0, 0], 0), (1, 3)),
        ("x1^2+2*x2^3", Ball.of(5, [0, 0, 0], 0), (0, 0, 1)),
        ("x1*x2+x2^2", Ball.of(3, [1, Fraction(1, 3), 0], 1), (Fraction(1, 3), 0, 2)),
        ("x^4", Ball.of(3, [Fraction(1, 3), 0], -1), (0, 1)),
    ]

    @pytest.mark.parametrize("phi, window, direction", CASES)
    def test_a_table_gives_each_level_the_bits_of_its_own_transform(self, phi, window, direction):
        Y = GraphHypersurface(parse_polynomial(phi), window)
        p = Y.prime
        table = ray_values(Y, direction, range(0, 10))
        assert list(table) == list(range(0, 10))
        for k, value in table.items():
            assert repr(value) == repr(surface_ft(Y, [Fraction(c) / p**k for c in direction]))

    def test_the_direction_is_checked(self):
        with pytest.raises(DomainError):
            ray_values(PARABOLA, (0, 0, 1), range(1, 3))


class TestRestriction:
    def test_unit_indicator_ratio_one(self):
        from padic_dispersion.schwartz import SchwartzBruhatFn

        g = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        assert abs(restriction_ratio(g, PARABOLA, Fraction(6, 5)) - 1.0) < 1e-12

    def test_scaling_invariance_exact(self):
        rng = random.Random(31)
        for _ in range(5):
            g = random_sb(rng, 3, 2, max_balls=3, radius_range=(0, 1))
            base = restriction_ratio(g, PARABOLA, 1.2)
            for c in (2.0, -0.5 + 1.25j):
                assert abs(restriction_ratio(g.scaled(c), PARABOLA, 1.2) - base) < 1e-12

    def test_seeded_family_finite(self):
        rng = random.Random(404)
        worst = 0.0
        for _ in range(10):
            g = random_sb(rng, 3, 2, max_balls=4, radius_range=(-2, 2))
            r = restriction_ratio(g, PARABOLA, Fraction(6, 5))
            assert math.isfinite(r)
            worst = max(worst, r)
        assert worst > 0

    def test_numerator_matches_direct_oracle(self):
        # recompute (int_Y |Fg|^2 dmu)^(1/2) with the Riemann-sum transform
        # oracle from the schwartz tests, on a fine fixed grid
        import cmath
        import math as _m

        from helpers import frac_part
        from padic_dispersion.schwartz import lp_norm as _lp

        p = 3
        g = random_sb(random.Random(77), p, 2, max_balls=2, radius_range=(0, 1))

        def oracle_fg(xi):
            level = 3
            total = 0j
            for ball, coeff in g.terms:
                e = ball.radius_exp
                width = p ** max(0, level - e)
                step = Fraction(p) ** e
                center = ball.center_fractions()
                cell = float(ball.volume) / width**2
                from itertools import product as iproduct

                for t in iproduct(range(width), repeat=2):
                    x = tuple(c + step * ti for c, ti in zip(center, t))
                    ph = -sum((a * b for a, b in zip(x, xi)), Fraction(0))
                    total += coeff * cmath.exp(2j * _m.pi * float(frac_part(ph))) * cell
            return total

        level = 2
        width = p**level
        direct = 0.0
        for a in range(width):
            xp = Fraction(a)
            point = (xp, Fraction(PARABOLA.phi.evaluate((xp,))))
            direct += abs(oracle_fg(point)) ** 2 / width
        want = _m.sqrt(direct) / _lp(g, 1.2)
        got = restriction_ratio(g, PARABOLA, 1.2)
        assert abs(got - want) < 1e-9

    def test_admissible_range(self):
        from padic_dispersion.schwartz import SchwartzBruhatFn

        g = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        assert restriction_rho_bound(Fraction(1, 2)) == Fraction(6, 5)
        # the endpoint itself is allowed
        restriction_ratio(g, PARABOLA, 1.2, beta_phi=Fraction(1, 2))
        with pytest.raises(DomainError):
            restriction_ratio(g, PARABOLA, 1.3, beta_phi=Fraction(1, 2))
        with pytest.raises(DomainError):
            restriction_ratio(g, PARABOLA, 0.9)

    def test_nan_rho_is_refused(self):
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        with pytest.raises(DomainError):
            restriction_ratio(g, PARABOLA, math.nan)

    def test_ratio_matches_the_pointwise_oracle(self):
        # the oracle evaluates Fg point by point at a scale that also resolves
        # every modulation; integer phases with p-divisible coefficients move
        # w_phi away from e0, so both bounds of the cell scale (against e0 and
        # against w_phi) decide it on some draws
        rng = random.Random(29)
        compared = nonzero = 0
        while compared < 300:
            p, m = rng.choice([2, 3, 5, 7]), rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 3) for _ in range(m))
                if sum(exps):
                    terms[exps] = rng.randint(1, p - 1 if p > 2 else 1) * p ** rng.randint(0, 2)
            center = [Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 1)) for _ in range(m + 1)]
            if not terms or not any(center):
                continue
            Y = GraphHypersurface(SparsePolynomial.from_terms(m, terms), Ball.of(p, center, rng.randint(-1, 2)))
            try:
                g = _random_sb(rng, p, m + 1)
                Fg = fourier_sb(g)
            except ResourceCapError:
                continue
            if len(Fg.radii) > 500:  # the oracle builds ~30 us of PadicRationals per term
                continue
            compared += 1
            # the oracle evaluates Fg once per cell; 258 of the 300 draws have at most 1000
            if p ** (m * (oracle_graph_constancy_level(Y, Fg) - Y.window.radius_exp)) > 1000:
                continue
            want = oracle_restriction_ratio(g, Y, 1.2)
            assert abs(restriction_ratio(g, Y, 1.2) - want) <= 1e-12 * want
            nonzero += want > 0
        assert nonzero > 100

    def test_translation_leaves_the_ratio_unchanged(self):
        # g(x - s) has the transform Psi(-[s, xi]) Fg(xi), of the same modulus
        rng = random.Random(5)
        Y = GraphHypersurface(parse_polynomial("x1^2+3*x1*x2"), Ball.of(3, [1, 0, Fraction(1, 3)], 0))
        for _ in range(10):
            g = random_sb(rng, 3, 3, max_balls=3, radius_range=(-1, 1))
            base = restriction_ratio(g, Y, 1.5)
            shift = [Fraction(rng.randint(-9, 9), 3 ** rng.randint(0, 2)) for _ in range(3)]
            assert abs(restriction_ratio(translated(g, shift), Y, 1.5) - base) <= 1e-12 * base

    def test_no_point_of_fg_is_evaluated(self, monkeypatch):
        def refuse(self, point):
            raise AssertionError("value_at called")

        monkeypatch.setattr(schwartz.ModulatedSBFn, "value_at", refuse)
        g = random_sb(random.Random(3), 3, 2, max_balls=3, radius_range=(-1, 1))
        assert restriction_ratio(g, PARABOLA, 1.2) > 0

    def test_cells_are_counted_against_the_cap_first(self):
        g = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], -2))  # Fg lives on balls of radius 2
        with pytest.raises(ResourceCapError) as info:
            restriction_ratio(g, PARABOLA, 1.2, cap=8)
        assert info.value.required == 3**2 and info.value.cap == 8


class TestZetaKernel:
    def test_zeta_zero_is_one(self):
        for xn in (0, 1, Fraction(1, 3), 9, Fraction(1, 27)):
            assert abs(zeta_kernel(0j, Fraction(xn), 1, 3) - 1) < 1e-15

    def test_small_argument_branch(self):
        assert abs(zeta_kernel(1, 1, 1, 3) - Fraction(1, 3)) < 1e-15
        assert abs(zeta_kernel(2, Fraction(1, 3), 2, 3) - 3 ** (-4)) < 1e-15

    def test_vanishing_at_one(self):
        assert abs(zeta_kernel(1, Fraction(1, 9), 1, 3)) < 1e-15

    @pytest.mark.parametrize("p", [3, 5])
    def test_closed_form_vs_shell_sum(self, p):
        worst = 0.0
        for i in range(1, 21):
            z = complex(0.1 * i, 0.4 * math.cos(i))
            for xn in (Fraction(1, p), Fraction(1), Fraction(p), Fraction(p**2)):
                a = zeta_kernel(z, xn, 1, p)
                b = zeta_kernel_numeric(z, xn, 1, p)
                worst = max(worst, abs(a - b))
        assert worst < 1e-9

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("z", [0.01, 0.03])
    def test_small_real_part(self, p, z):
        # thousands of shells: p^(-j(z-1)) alone passes the float range
        for xn in (Fraction(1, p**2), Fraction(1), Fraction(p)):
            assert abs(zeta_kernel_numeric(z, xn, 1, p) - zeta_kernel(z, xn, 1, p)) < 1e-12

    @pytest.mark.parametrize("p", [2, 7])
    def test_an_array_of_points_gives_each_value(self, p):
        z = np.array([complex(0.1 * i, 0.3 * math.sin(i)) for i in range(1, 21)])
        for xn in (Fraction(1, p**2), Fraction(1, p), Fraction(1), Fraction(p)):
            closed, shells = zeta_kernel(z, xn, 1, p), zeta_kernel_numeric(z, xn, 1, p)
            assert closed.shape == shells.shape == z.shape
            for zi, a, b in zip(z, closed, shells):
                assert abs(a - zeta_kernel(complex(zi), xn, 1, p)) < 1e-15
                assert abs(b - zeta_kernel_numeric(complex(zi), xn, 1, p)) < 1e-15
                assert abs(a - b) < 1e-13
        with pytest.raises(DomainError):  # one point with Re(z) <= 0 refuses all
            zeta_kernel_numeric(np.append(z, -1), 1, 1, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_sequence_of_x_n_gives_each_one_point_row(self, p):
        z = np.array([complex(0.1 * i, 0.3 * math.sin(i)) for i in range(1, 21)])
        xs = [Fraction(1, p), Fraction(1), Fraction(p), Fraction(p * p)]
        rows = zeta_kernel_numeric(z, xs, 1, p)
        assert rows.shape == (len(xs), len(z))
        for row, xn in zip(rows, xs):
            assert row.tobytes() == zeta_kernel_numeric(z, xn, 1, p).tobytes()
        # the CLI self-check reads the maximum of one call per x_n
        worst = max(
            float(np.abs(zeta_kernel(z, xn, 1, p) - zeta_kernel_numeric(z, xn, 1, p)).max())
            for xn in xs
        )
        assert repr(_zeta_check(p)["max_diff"]) == repr(worst)

    def test_validation(self):
        with pytest.raises(DomainError):
            zeta_kernel(1, 1, 0, 3)
        with pytest.raises(DomainError):
            zeta_kernel_numeric(-1 + 0j, 1, 1, 3)


class TestGraphHypersurface:
    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            GraphHypersurface(parse_polynomial("x1^2+x2^2"), Ball.of(3, [0, 0], 0))

    def test_constant_term_rejected(self):
        with pytest.raises(DomainError):
            GraphHypersurface(parse_polynomial("x^2+1"), Ball.of(3, [0, 0], 0))

    def test_base_window_projection(self):
        Y = GraphHypersurface(
            parse_polynomial("x1^2+x2^2"), Ball.of(5, [1, 2, 3], 1)
        )
        assert Y.base_window.center_fractions() == (1, 2)
        assert Y.base_window.radius_exp == 1

    def test_critical_status_recorded(self):
        assert PARABOLA.critical_status == "certified"
        collapsed = GraphHypersurface(parse_polynomial("x^2"), Ball.of(2, [0, 0], 0))
        assert collapsed.critical_status == "indeterminate"
        degenerate = GraphHypersurface(
            parse_polynomial("x1^2 + 2*x1*x2 + x2^2"), Ball.of(3, [0, 0, 0], 0)
        )
        assert degenerate.critical_status == "degenerate-mod-p"

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    oracle_freq_cells,
    oracle_masked_norm,
    oracle_solution,
    oracle_windowed_spectrum,
    random_sb,
)
from padic_dispersion import wave
from padic_dispersion.errors import DomainError, ResourceCapError
from padic_dispersion.padic import DEFAULT_ENUMERATION_CAP, Ball, split_p_part
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import SchwartzBruhatFn, l2_norm, l2_norm_modulated
from padic_dispersion.wave import (
    SolutionSpec,
    solution_grid,
    solve_u,
    strichartz_report,
    strichartz_truncated,
    windowed_spectrum,
)

GAUSS = SolutionSpec.build(
    SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2")
)


def seeded_strichartz_data(rng: random.Random, p: int):
    """Radius-exponent-0 balls with p^-1-grid centers: disjoint but cheap."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        center = (Fraction(rng.randint(0, p - 1), p),)
        ball = Ball.of(p, center, 0)
        if any(not ball.is_disjoint(b) for b, _ in terms):
            continue
        terms.append((ball, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    return SchwartzBruhatFn.of(p, terms)


BOX_PHIS = {
    1: ("x^2", "x^3", "x^3-x", "3*x^2+x", "x^4"),
    2: ("x1^2+x2^2", "x1*x2", "x1^2+x1*x2+x2^3"),
}


def seeded_box_spec(rng: random.Random) -> tuple[SolutionSpec, int]:
    """A spec with p in {2, 3, 5}, n in {1, 2}, up to two random balls and a
    symbol of degree 2 to 4, and a box exponent R in 0..2."""
    p, n = rng.choice((2, 3, 5)), rng.choice((1, 2))
    f0 = random_sb(rng, p, n, max_balls=2)
    phi = parse_polynomial(rng.choice(BOX_PHIS[n]))
    return SolutionSpec.build(f0, phi), rng.randint(0, 2)


class TestSolutionSpec:
    def test_bounds_for_unit_data(self):
        assert GAUSS.freq_bound == 0 and GAUSS.phase_bound == 0

    def test_bounds_for_small_ball(self):
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 1)), parse_polynomial("x^3")
        )
        assert spec.freq_bound == 1 and spec.phase_bound == 3

    def test_plancherel(self):
        rng = random.Random(77)
        for p in (2, 3, 5):
            g = random_sb(rng, p, 1)
            spec = SolutionSpec.build(g, parse_polynomial("x^2"))
            assert abs(l2_norm(g) - l2_norm_modulated(spec.spectrum)) < 1e-12

    def test_arity_validation(self):
        with pytest.raises(DomainError):
            SolutionSpec.build(
                SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)),
                parse_polynomial("x1^2+x2^2"),
            )


def seeded_cell_specs(seed: int, radii: tuple[int, int], count: int = 12):
    """Specs with p in {2, 3, 5}, n in {1, 2}, up to three random balls with
    radius exponents in `radii` and centers in p^-3 Z^n, and their cell level
    at t = 0 plus 0 or 1; draws whose tiling exceeds 5^4 cells are skipped to
    keep the oracle cheap."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        p, n = rng.choice((2, 3, 5)), rng.choice((1, 2))
        spec = SolutionSpec.build(random_sb(rng, p, n, radius_range=radii, den_exp=3),
                                  parse_polynomial(BOX_PHIS[n][0]))
        level = max(0, spec.freq_bound, spec.spectrum.resolution_level) + rng.randint(0, 1)
        if p ** (n * (spec.freq_bound + level)) <= 5**4:
            out.append((spec, level))
    return out


class TestFreqCells:
    """The tiling of the spectrum against one closed-form evaluation per cell."""

    @staticmethod
    def check(spec, level):
        idx, vals = spec.cells(level, DEFAULT_ENUMERATION_CAP)
        want_idx, want_vals = oracle_freq_cells(spec, level)
        assert idx.dtype == np.int64 and np.array_equal(idx, want_idx)
        assert np.all(np.abs(vals - want_vals) <= 1e-12 * np.abs(want_vals))
        step = Fraction(spec.prime) ** -spec.freq_bound
        for k, v in zip(idx.tolist(), vals.tolist()):
            assert spec.spectrum.value_at(tuple(step * kd for kd in k)) == v  # bit for bit

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_equal_the_closed_form(self, seed):
        for spec, level in seeded_cell_specs(seed, (-2, 2)):
            self.check(spec, level)

    @pytest.mark.parametrize("seed", range(2))
    def test_spectra_inside_a_small_ball(self, seed):
        # balls of radius p^2 and p^1 have spectra inside p Z_p^n: freq_bound < 0
        specs = seeded_cell_specs(10 + seed, (-2, -1))
        assert all(spec.freq_bound < 0 for spec, _ in specs)
        for spec, level in specs:
            self.check(spec, level)


class TestSolveU:
    def test_initial_condition_exact(self):
        rng = random.Random(15)
        for p in (2, 3):
            for _ in range(4):
                f0 = random_sb(rng, p, 1)
                spec = SolutionSpec.build(f0, parse_polynomial("x^2"))
                for _ in range(8):
                    x = Fraction(rng.randint(-p**2, p**2), p ** rng.randint(0, 2))
                    got = solve_u(spec, (x,), 0)
                    assert abs(got - f0.value_at((x,))) < 1e-12

    def test_constant_region(self):
        assert abs(solve_u(GAUSS, (2,), 1) - 1.0) < 1e-12

    def test_gauss_decay_in_time(self):
        for m in range(1, 6):
            u = solve_u(GAUSS, (0,), Fraction(1, 3**m))
            assert abs(abs(u) - 3 ** (-m / 2)) < 1e-9

    def test_vanishes_outside_light_cone(self):
        assert abs(solve_u(GAUSS, (Fraction(1, 3),), 1)) < 1e-12

    def test_local_constancy(self):
        # f0 = 1_{3Z_3}: spectrum fills ||xi|| <= 3, so e = 1 and, for
        # phi = x^2, e' = 2.  u must be invariant under x-shifts with
        # ||h|| <= 3^-1 and t-shifts with |s| <= 3^-2, exhaustively at
        # one scale below those thresholds.
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 1)), parse_polynomial("x^2")
        )
        assert (spec.freq_bound, spec.phase_bound) == (1, 2)
        t = Fraction(1, 9)
        for x in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 9)):
            base = solve_u(spec, (x,), t)
            for h in (Fraction(3), Fraction(6), Fraction(9)):
                assert abs(solve_u(spec, (x + h,), t) - base) < 1e-12
            for s in (Fraction(9), Fraction(18)):
                assert abs(solve_u(spec, (x,), t + s) - base) < 1e-12

    def test_refinement_stability(self):
        rng = random.Random(21)
        for _ in range(5):
            f0 = random_sb(rng, 3, 1)
            spec = SolutionSpec.build(f0, parse_polynomial("x^3 - x"))
            x = (Fraction(rng.randint(-9, 9), 3 ** rng.randint(0, 1)),)
            t = Fraction(rng.randint(-9, 9), 3 ** rng.randint(0, 2))
            a = solve_u(spec, x, t)
            b = solve_u(spec, x, t, extra_level=1)
            assert abs(a - b) < 1e-12

    def test_two_dimensional(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        spec = SolutionSpec.build(f0, parse_polynomial("x1^2+x2^2"))
        assert abs(solve_u(spec, (0, 0), 0) - 1.0) < 1e-12
        u = solve_u(spec, (0, 0), Fraction(1, 3))
        assert abs(abs(u) - 1 / 3) < 1e-9  # product of two Gauss factors


class TestWindowedSpectrum:
    def test_off_surface_vanishes(self):
        assert windowed_spectrum(GAUSS, (0,), Fraction(1, 3), 1) == 0j

    def test_on_surface_nonzero(self):
        assert abs(windowed_spectrum(GAUSS, (0,), 0, 0)) > 0.1

    def test_far_frequency_vanishes(self):
        # ||xi|| = 9 lies outside the spectrum ball ||xi|| <= 1
        assert windowed_spectrum(GAUSS, (Fraction(1, 9),), 0, 1) == 0j

    def test_off_surface_grid(self):
        for j in (1, 2, 4, 5, 7):
            for xi in (0, 1, 2, Fraction(1, 3), Fraction(2, 3)):
                W = windowed_spectrum(GAUSS, (Fraction(xi),), Fraction(j, 3), 1)
                assert abs(W) < 1e-12

    def test_window_growth_keeps_support(self):
        # tau = phi(xi) on the parabola: stays nonzero as R grows
        for R in (0, 1, 2):
            W = windowed_spectrum(GAUSS, (1,), 1, R)
            assert abs(W) > 1e-6

    @pytest.mark.parametrize(
        "xi,tau", [(1, 1), (0, 0), (2, 1), (Fraction(1, 3), Fraction(1, 9))]
    )
    def test_closed_form_matches_direct_integration(self, xi, tau):
        # oracle: Riemann sum of u(x,t) Psi(-t tau - x xi) over the box,
        # sampled where both u (scale p^0 here) and the kernel are constant
        import cmath

        R, p = 1, 3
        xi, tau = Fraction(xi), Fraction(tau)
        s = 0
        for c in (xi, tau):
            if c != 0:
                s = max(s, -split_p_part(c, p)[1])
        reps = [Fraction(a, p**R) for a in range(p ** (R + s))]
        cell = (float(p) ** -s) ** 2
        total = 0j
        for x in reps:
            for t in reps:
                phase = -(t * tau) - (x * xi)
                phase -= math.floor(phase)
                total += (
                    solve_u(GAUSS, (x,), t)
                    * cmath.exp(2j * math.pi * float(phase))
                    * cell
                )
        want = windowed_spectrum(GAUSS, (xi,), tau, R)
        assert abs(total - want) < 1e-9


class TestBox:
    """`windowed_spectrum` and the sub-box norms against a window decided one
    condition at a time and a norm over boolean masks."""

    CAP = 3000

    def test_window_equals_the_per_condition_oracle(self):
        rng = random.Random(2026)
        outcomes = {"refused": 0, "zero": 0, "nonzero": 0}
        for _ in range(150):
            spec, R = seeded_box_spec(rng)
            p, n = spec.prime, spec.n
            for _ in range(4):
                xi = tuple(
                    Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 2))
                    for _ in range(n)
                )
                tau = Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 3))
                if rng.random() < 0.5:  # on the graph tau = phi(xi)
                    tau = Fraction(spec.phi.evaluate(xi))
                try:
                    want = oracle_windowed_spectrum(spec, xi, tau, R, self.CAP)
                except ResourceCapError:
                    with pytest.raises(ResourceCapError):
                        windowed_spectrum(spec, xi, tau, R, cap=self.CAP)
                    outcomes["refused"] += 1
                    continue
                got = windowed_spectrum(spec, xi, tau, R, cap=self.CAP)
                assert got == want, (spec, xi, tau, R)
                outcomes["nonzero" if got else "zero"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("sigma", [2.0, 6.0, math.inf])
    def test_sub_box_norms_equal_the_mask_oracle(self, sigma):
        rng = random.Random(91)
        grids = 0
        for _ in range(40):
            spec, _ = seeded_box_spec(rng)
            try:
                grid = solution_grid(spec, rng.randint(1, 3), cap=20000)
            except ResourceCapError:
                continue
            grids += 1
            for R in range(grid.R + 1):
                want = oracle_masked_norm(grid, sigma, R)
                assert abs(wave._masked_norm(grid, sigma, R) - want) <= 1e-12 * want
        assert grids >= 20

    def test_sub_box_beyond_the_grid_is_refused(self):
        with pytest.raises(DomainError):
            wave._masked_norm(solution_grid(GAUSS, 1), 2.0, 2)


class TestSolutionGrid:
    def test_grid_column_equals_exponential_sum(self):
        # for f0 = 1_{Z_p}, u(0, t) = int_{Z_p} Psi(t phi(xi)) dxi = E(t, phi):
        # the wave grid and the histogram engine must agree exactly
        from padic_dispersion.expsums import exp_sum

        phi = parse_polynomial("x^3")
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(5, [0], 0)), phi
        )
        grid = solution_grid(spec, 2)
        ball = Ball.of(5, [0], 0)
        for j, t in enumerate(grid.t_reps):
            if t == 0:
                continue
            want = exp_sum(phi, t, ball).value
            assert abs(grid.values[j, 0] - want) < 1e-12

    def test_grid_matches_pointwise(self):
        rng = random.Random(33)
        for p, phi in ((3, "x^2"), (5, "x^3")):
            f0 = seeded_strichartz_data(rng, p)
            spec = SolutionSpec.build(f0, parse_polynomial(phi))
            grid = solution_grid(spec, 2)
            for _ in range(10):
                i = rng.randrange(len(grid.x_axis))
                j = rng.randrange(len(grid.t_reps))
                want = solve_u(spec, (grid.x_axis[i],), grid.t_reps[j])
                assert abs(grid.values[j, i] - want) < 1e-12

    def test_grid_matches_pointwise_2d(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        spec = SolutionSpec.build(f0, parse_polynomial("x1^2+x2^2"))
        grid = solution_grid(spec, 1)
        from itertools import product as iproduct

        points = list(iproduct(grid.x_axis, repeat=2))
        for idx in (0, 3, 7, len(points) - 1):
            want = solve_u(spec, points[idx], grid.t_reps[1])
            assert abs(grid.values[1, idx] - want) < 1e-12

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("R", [1, 2])
    @pytest.mark.parametrize("phi", ["x1^2+x2^2", "x1*x2", "x1^2+x1*x2+x2^3"])
    def test_grid_matches_oracle_2d(self, p, R, phi):
        # seeded radius-0 balls on the p^-1 grid, against the ball-by-ball
        # Riemann sum that never touches the spectrum or the frequency cells
        rng = random.Random(1000 * p + 10 * R + len(phi))
        terms = []
        for _ in range(3):
            center = tuple(Fraction(rng.randrange(p), p) for _ in range(2))
            ball = Ball.of(p, center, 0)
            if all(ball.is_disjoint(b) for b, _ in terms):
                terms.append((ball, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        f0 = SchwartzBruhatFn.of(p, terms)
        phi = parse_polynomial(phi)
        grid = solution_grid(SolutionSpec.build(f0, phi), R)
        n_x = len(grid.x_axis)
        for _ in range(20):
            j = rng.randrange(len(grid.t_reps))
            i1, i2 = rng.randrange(n_x), rng.randrange(n_x)
            x = (grid.x_axis[i1], grid.x_axis[i2])
            want = oracle_solution(f0, phi, x, grid.t_reps[j])
            assert abs(grid.values[j, i1 * n_x + i2] - want) < 1e-12


class TestStrichartz:
    def test_unit_window_norm_one(self):
        assert abs(strichartz_truncated(GAUSS, 6.0, 0) - 1.0) < 1e-12

    def test_scaling_homogeneity(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        for c in (2.0, 0.5 - 1.0j):
            spec_c = SolutionSpec.build(f0.scaled(c), parse_polynomial("x^2"))
            a = strichartz_truncated(spec_c, 6.0, 2)
            b = strichartz_truncated(GAUSS, 6.0, 2)
            assert abs(a - abs(c) * b) < 1e-12

    def test_monotone_in_R(self):
        norms = [strichartz_truncated(GAUSS, 6.0, R) for R in range(4)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_gauss_sigma_6_converges(self):
        rep = strichartz_report(GAUSS, 6.0, 4)
        assert rep.converged and not rep.diverged
        assert all(b <= a + 1e-12 for a, b in zip(rep.increments, rep.increments[1:]))
        assert rep.constant == rep.rows[-1][2]

    def test_airy_sigma_8_converges(self):
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(5, [0], 0)), parse_polynomial("x^3")
        )
        rep = strichartz_report(spec, 8.0, 4)
        assert rep.converged and not rep.diverged

    def test_sigma_2_diverges(self):
        rep = strichartz_report(GAUSS, 2.0, 4)
        assert rep.diverged

    def test_ratio_invariant_under_scaling(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0))
        base = strichartz_report(GAUSS, 6.0, 3).constant
        for c in (3.0, -0.7 + 0.7j):
            spec_c = SolutionSpec.build(f0.scaled(c), parse_polynomial("x^2"))
            assert abs(strichartz_report(spec_c, 6.0, 3).constant - base) < 1e-12

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_sigma_not_positive_is_refused(self, sigma):
        with pytest.raises(DomainError):
            strichartz_report(GAUSS, sigma, 2)
        with pytest.raises(DomainError):
            strichartz_truncated(GAUSS, sigma, 2)

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    @pytest.mark.parametrize("sigma", [2.0, 6.0])
    def test_extreme_scales_keep_ratios_and_increments(self, c, sigma):
        # the powers are taken of |u| / max |u| and of norm / ||f0||_2
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0), c)
        rep = strichartz_report(SolutionSpec.build(f0, parse_polynomial("x^2")), sigma, 3)
        unit = strichartz_report(GAUSS, sigma, 3)
        for (_, norm, ratio), (_, _, want) in zip(rep.rows, unit.rows):
            assert abs(ratio - want) <= 1e-12 * want
            assert abs(norm - c * want) <= 1e-12 * c * want
        for got, want in zip(rep.increments, unit.increments):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert (rep.converged, rep.diverged) == (unit.converged, unit.diverged)

    @pytest.mark.parametrize("radius", [-2, -1, 0, 1])
    def test_report_rows_equal_boxes_computed_alone(self, radius):
        # for radius < 0 the cells are wider than the boxes R < -e, -e'
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], radius)), parse_polynomial("x^2")
        )
        rep = strichartz_report(spec, 6.0, 3)
        for R, norm, _ in rep.rows:
            want = strichartz_truncated(spec, 6.0, R)
            assert abs(norm - want) <= 1e-12 * want

    def test_sup_norm_increments_are_ratio_differences(self):
        # ratio^inf would be inf - inf here: sup |u| = 1 against ||f0||_2 = 3^-1/2
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 1)), parse_polynomial("x^2")
        )
        rep = strichartz_report(spec, math.inf, 2)
        ratios = [ratio for _, _, ratio in rep.rows]
        assert abs(ratios[0] - 3**0.5) < 1e-12
        assert rep.increments == tuple(b - a for a, b in zip(ratios, ratios[1:]))

    def test_power_beyond_the_float_range_is_refused(self):
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 1)), parse_polynomial("x^2")
        )
        with pytest.raises(DomainError):
            strichartz_report(spec, 2000.0, 2)  # 3^1000 > 1.8e308

    def test_infinite_sigma(self):
        assert strichartz_truncated(GAUSS, math.inf, 1) <= 1.0 + 1e-12

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            solution_grid(GAUSS, 9, cap=1000)

    def test_cap_2d(self):
        # R = 3 on the unit box: 27 t samples times 27^2 x samples
        spec = SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0)),
            parse_polynomial("x1^2+x2^2"),
        )
        assert solution_grid(spec, 3, cap=3**9).values.shape == (27, 27**2)
        with pytest.raises(ResourceCapError):
            solution_grid(spec, 3, cap=3**9 - 1)


class TestCellMemo:
    """A spec tiles each (level, cap) once, for itself, into read-only arrays."""

    @staticmethod
    def record(monkeypatch):
        calls, original = [], wave._freq_cells

        def recording(spec, level, cap):
            calls.append((spec, level, cap))
            return original(spec, level, cap)

        monkeypatch.setattr(wave, "_freq_cells", recording)
        return calls

    @staticmethod
    def gauss():
        return SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2")
        )

    def test_repeated_level_tiles_once(self, monkeypatch):
        calls, spec = self.record(monkeypatch), self.gauss()
        first = solve_u(spec, (Fraction(1, 3),), Fraction(1, 9))
        again = solve_u(spec, (Fraction(2, 3),), Fraction(1, 9))
        assert len(calls) == 1
        assert first == solve_u(self.gauss(), (Fraction(1, 3),), Fraction(1, 9))
        assert again == solve_u(self.gauss(), (Fraction(2, 3),), Fraction(1, 9))

    def test_smaller_cap_still_refuses(self):
        spec = self.gauss()
        solve_u(spec, (0,), Fraction(1, 9))  # 9 cells at level 2, default cap
        with pytest.raises(ResourceCapError):
            solve_u(spec, (0,), Fraction(1, 9), cap=8)
        with pytest.raises(ResourceCapError):
            windowed_spectrum(spec, (0,), Fraction(1, 3), 2, cap=8)

    def test_specs_built_from_the_same_input_tile_separately(self, monkeypatch):
        calls = self.record(monkeypatch)
        one, two = self.gauss(), self.gauss()
        assert one == two
        solve_u(one, (0,), Fraction(1, 9))
        solve_u(two, (0,), Fraction(1, 9))
        assert [c[0] for c in calls] == [one, two] and calls[0][0] is not calls[1][0]

    def test_cached_arrays_are_read_only(self):
        spec = self.gauss()
        solve_u(spec, (0,), Fraction(1, 9))
        idx, vals = spec.cells(2, DEFAULT_ENUMERATION_CAP)
        assert not idx.flags.writeable and not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0

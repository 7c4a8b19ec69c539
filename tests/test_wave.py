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
    out_of_place_masked_norm,
    random_sb,
)
from padic_dispersion import wave
from padic_dispersion.errors import DomainError, ResourceCapError
from padic_dispersion.padic import DEFAULT_ENUMERATION_CAP, Ball, split_p_part
from padic_dispersion.polynomials import (
    checked_modulus,
    lattice_form,
    parse_polynomial,
    poly_residues,
)
from padic_dispersion.schwartz import (
    SchwartzBruhatFn,
    fourier_sb,
    l2_norm,
)
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
            assert abs(l2_norm(g) - l2_norm(spec.spectrum)) < 1e-12

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

    def test_two_dimensional(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0, 0], 0))
        spec = SolutionSpec.build(f0, parse_polynomial("x1^2+x2^2"))
        assert abs(solve_u(spec, (0, 0), 0) - 1.0) < 1e-12
        u = solve_u(spec, (0, 0), Fraction(1, 3))
        assert abs(abs(u) - 1 / 3) < 1e-9  # product of two Gauss factors


    @pytest.mark.parametrize("phi", ["x^2", "2*x^3", "x1^2-x2^2", "x1*x2"])
    def test_the_residue_table_equals_the_oracle(self, phi):
        # x of negative valuation; t = 0, a unit, p^-1..p^-4 and p times a unit
        phi = parse_polynomial(phi)
        rng = random.Random(str(phi))
        for p in (2, 3) if phi.nvars == 1 else (2,):
            f0 = random_sb(rng, p, phi.nvars, max_balls=2, radius_range=(0, 1))
            spec = SolutionSpec.build(f0, phi)
            unit = rng.choice([u for u in range(1, 2 * p) if u % p])
            ts = [Fraction(0), Fraction(unit)] + [Fraction(1, p**m) for m in range(1, 5)]
            for t in ts + [Fraction(p * unit)]:
                units = [u for u in range(1, p * p) if u % p]
                x = tuple(Fraction(rng.choice(units), p ** rng.randint(1, 2)) for _ in range(f0.n))
                want = oracle_solution(f0, phi, x, t)
                assert abs(solve_u(spec, x, t) - want) <= 1e-9 * max(1.0, abs(want)), (p, x, t)

    def test_residues_equal_the_composed_phase_and_refuse_where_it_does(self):
        # the least modulus of t phi(k p^-e) + [x, k p^-e] composed as one
        # polynomial: equal (r, M), and a refusal exactly where M passes
        # MODULUS_LIMIT, also when x cancels the linear term of phi
        rng = random.Random(31)
        outcomes = {"equal": 0, "refused": 0, "equal after a cancellation": 0}
        for _ in range(400):
            p = rng.choice((2, 3, 5))
            phi = parse_polynomial(rng.choice(("x^2", "9*x^2", "3*x^2+x", "x^3-x", "x1*x2+2*x2")))
            f0 = random_sb(rng, p, phi.nvars, max_balls=2, radius_range=(-1, 1))
            spec = SolutionSpec.build(f0, phi)
            level = max(0, -spec.freq_bound) + rng.randint(0, 1)
            t = Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 40))
            x = [Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 40))
                 for _ in range(phi.nvars)]
            d = rng.randrange(phi.nvars)
            linear = phi.coefficient(tuple(int(i == d) for i in range(phi.nvars)))
            cancelled = linear and t and rng.random() < 0.5
            if cancelled:  # x_d + t phi_d is coarser than either
                x[d] = -t * linear + Fraction(rng.randint(-p, p), p ** rng.randint(0, 3))
            idx, _ = spec.cells(level, DEFAULT_ENUMERATION_CAP)
            phase = spec.phi.scale(t)
            for d, xd in enumerate(x):
                unit = tuple(int(i == d) for i in range(phi.nvars))
                phase[unit] = phase.get(unit, 0) + xd
            terms, K = lattice_form(phase, (0,) * phi.nvars, Fraction(p) ** -spec.freq_bound, p)
            try:
                M = checked_modulus(p**K, "phase denominator")
            except ResourceCapError as err:
                with pytest.raises(ResourceCapError) as got:
                    wave._cell_residues(spec, level, DEFAULT_ENUMERATION_CAP, t, x)
                assert got.value.required == err.required
                outcomes["refused"] += 1
                continue
            r, modulus = wave._cell_residues(spec, level, DEFAULT_ENUMERATION_CAP, t, x)
            assert modulus == M and np.array_equal(r, poly_residues(terms.items(), list(idx.T), M))
            outcomes["equal after a cancellation" if cancelled else "equal"] += 1
        assert min(outcomes.values()) >= 30, outcomes

    def test_a_spectrum_past_the_float_range_is_scaled(self):
        # F f0 = 3e308 on 3Z_3: the spectrum is kept as F(f0 / 2^k)
        f0 = SchwartzBruhatFn.of(3, [(Ball.of(3, [0], -1), 1e308)])
        spec = SolutionSpec.build(f0, parse_polynomial("x^2"))
        assert spec.spectrum_exp == 1 and np.isfinite(spec.spectrum.coeffs).all()
        assert solve_u(spec, (0,), 0) == 1e308
        assert SolutionSpec.build(f0.scaled(0.1), parse_polynomial("x^2")).spectrum_exp == 0
        with pytest.raises(DomainError):  # p^(R (n+1)) times a cell sum of about 1e308
            windowed_spectrum(spec, (0,), 0, 2)

    # past the float range: real, complex, a wide ball, two balls, and a
    # subnormal term beside a huge one
    PAST_RANGE = [
        [(Ball.of(3, [0], -1), 1e308)],
        [(Ball.of(3, [0], 0), -1.2e308 + 1.2e308j)],
        [(Ball.of(3, [0], -2), 1.7e308 + 1e300j)],
        [(Ball.of(3, [0], -1), 1.7e308), (Ball.of(3, [Fraction(1, 9)], -1), 1.7e308)],
        [(Ball.of(3, [0], -1), 1e308), (Ball.of(3, [Fraction(1, 9)], 0), 5e-324)],
        [(Ball.of(3, [0, 0], -1), 1e308j), (Ball.of(3, [1, Fraction(1, 9)], 0), 1e-320)],
    ]

    def test_a_spec_transforms_f0_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wave, "fourier_sb", lambda *a: calls.append(a) or fourier_sb(*a))
        rng = random.Random(7)
        for terms in self.PAST_RANGE + [[(Ball.of(3, [0], 0), 1.0)]]:
            f0 = SchwartzBruhatFn.of(3, terms)
            SolutionSpec.build(f0, parse_polynomial("x1^2+x2^2" if f0.n == 2 else "x^2"))
            g = random_sb(rng, 5, f0.n)
            SolutionSpec.build(g, parse_polynomial("x1*x2" if f0.n == 2 else "x^3"))
        assert len(calls) == 2 * (len(self.PAST_RANGE) + 1)

    @pytest.mark.parametrize("c", [2.0**-1022 / 3, 1e-310, 1e-320, 5e-324])
    def test_a_subnormal_bound_scales_the_spectrum_up(self, c):
        # B = |c| vol < 2^-1022: F(f0 / 2^k) with B / 2^k in [1, 2) keeps every bit
        for radius in (0, 1):
            f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], radius), c)
            spec = SolutionSpec.build(f0, parse_polynomial("x^2"))
            bound, k = Fraction(c) * Fraction(1, 3**radius), spec.spectrum_exp
            two = Fraction(2)
            assert two**k <= bound < two ** (k + 1) or k == -1074 and bound < two**k
            assert 2.0**-1022 <= np.abs(spec.spectrum.coeffs).max() < 2.0
            assert solve_u(spec, (0,), 0) == c  # u(x, 0) = f0(x) exactly

    def test_a_bound_at_the_normal_range_keeps_its_spectrum(self):
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0), 2.0**-1022)
        spec = SolutionSpec.build(f0, parse_polynomial("x^2"))
        assert spec.spectrum_exp == 0 and spec.spectrum == fourier_sb(f0, -1)

    def test_in_range_data_keep_their_spectrum(self):
        rng = random.Random(11)
        for _ in range(40):
            p, n = rng.choice([2, 3, 5]), rng.randint(1, 2)
            f0 = random_sb(rng, p, n, max_balls=4, radius_range=(-2, 2), den_exp=2)
            f0 = f0.scaled(10.0 ** rng.choice([-300, -5, 0, 5, 300]))
            spec = SolutionSpec.build(f0, parse_polynomial("x1^2+x2^2" if n == 2 else "x^2"))
            assert spec.spectrum_exp == 0 and spec.spectrum == fourier_sb(f0, -1)

    @pytest.mark.parametrize("terms", PAST_RANGE, ids=range(len(PAST_RANGE)))
    def test_one_more_halving_keeps_the_bits(self, terms):
        # the exponent comes from a bound and may exceed the least that keeps
        # F f0 finite, so one more power of two must not change what is read
        f0 = SchwartzBruhatFn.of(3, terms)
        phi = parse_polynomial("x1^2+x2^2" if f0.n == 2 else "x^2")
        spec = SolutionSpec.build(f0, phi)
        k = spec.spectrum_exp + 1
        assert spec.spectrum_exp >= 1
        halved = SolutionSpec(f0, phi, fourier_sb(f0.scaled(2.0**-k), -1),
                              spec.freq_bound, spec.phase_bound, k)
        for x in (0, 1, Fraction(1, 3), Fraction(1, 9), Fraction(2, 27)):
            for t in (0, 1, Fraction(1, 3), Fraction(2, 9), 3):
                point = (x,) + (0,) * (f0.n - 1)  # repr keeps every bit and the sign of 0
                assert repr(solve_u(spec, point, t)) == repr(solve_u(halved, point, t))


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

    def test_one_residue_pass_serves_25_windows(self, monkeypatch):
        calls = {"poly_residues": 0, "_cell_residues": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(wave, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(wave, name, counting)
        spec = SolutionSpec.build(SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), GAUSS.phi)
        for xi in range(5):
            for tau in range(5):
                windowed_spectrum(spec, (Fraction(xi, 3),), Fraction(tau + 1, 3), 1)
        assert calls == {"poly_residues": 1, "_cell_residues": 1}  # one box per (R, cap)

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

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 6.0, math.inf])
    def test_in_place_passes_give_the_out_of_place_bits(self, sigma):
        rng = random.Random(93)
        norms = 0
        for _ in range(30):
            spec, _ = seeded_box_spec(rng)
            try:
                grid = solution_grid(spec, rng.randint(1, 3), cap=20000)
            except ResourceCapError:
                continue
            for R in range(grid.R + 1):
                got = wave._masked_norm(grid, sigma, R)
                assert repr(got) == repr(out_of_place_masked_norm(grid, sigma, R))
                norms += 1
        assert norms >= 40

    def test_the_grid_is_read_only(self):
        grid = solution_grid(GAUSS, 2)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 0
        with pytest.raises(ValueError):
            grid.values.reshape(grid.shape)[0] /= 2

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 6.0, math.inf])
    def test_a_report_leaves_its_grid_unchanged(self, monkeypatch, sigma):
        grids, original = [], wave.solution_grid

        def recording(*args, **kwargs):
            grid = original(*args, **kwargs)
            grids.append((grid, grid.values.tobytes()))
            return grid

        monkeypatch.setattr(wave, "solution_grid", recording)
        strichartz_report(GAUSS, sigma, 3)
        assert len(grids) == 1
        grid, before = grids[0]
        assert grid.values.tobytes() == before


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


    @pytest.mark.parametrize("n", [1, 2])
    def test_values_equal_ifftn_of_the_bins(self, n):
        rng = random.Random(40 + n)
        grids = 0
        for _ in range(12):
            p = rng.choice((2, 3))
            phi = parse_polynomial(rng.choice(BOX_PHIS[n]))
            spec = SolutionSpec.build(random_sb(rng, p, n, max_balls=2), phi)
            R = rng.randint(0, 3)
            try:
                grid = solution_grid(spec, R, cap=30000)
            except ResourceCapError:
                continue
            level, idx, vals, r, nt, N = wave._box(spec, R, 30000)
            bins = np.zeros((nt,) + (N,) * n, dtype=complex)
            np.add.at(bins, (r, *(idx % N).T), vals)
            want = np.fft.ifftn(bins) * (bins.size * float(Fraction(1, p ** (n * level))))
            assert np.array_equal(grid.values, want.reshape(nt, N**n))
            assert grid.x_axis == tuple(Fraction(j, p**R) for j in range(N))
            assert grid.t_reps == tuple(Fraction(j, p**R) for j in range(nt))
            assert grid.shape == (nt,) + (N,) * n
            grids += 1
        assert grids >= 6


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

    @pytest.mark.parametrize("c", [1e-310, 1e-320])
    def test_subnormal_data_keep_the_unit_ratios(self, c):
        # the norms are taken before they are scaled back into the subnormal range
        f0 = SchwartzBruhatFn.indicator(Ball.of(3, [0], 0), c)
        rep = strichartz_report(SolutionSpec.build(f0, parse_polynomial("x^2")), 6.0, 2)
        unit = strichartz_report(GAUSS, 6.0, 2)
        assert rep.rows[0][2] == 1.0
        for (_, _, ratio), (_, _, want) in zip(rep.rows, unit.rows):
            assert abs(ratio - want) <= 1e-12
        for got, want in zip(rep.increments, unit.increments):
            assert abs(got - want) <= 1e-12
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

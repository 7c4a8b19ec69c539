"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run `pytest tests/test_acceptance.py -v -s` to see them all).

Every tolerance is pinned here, in the test, at the stated value.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import compact_facets, expsum_values, oracle_compact_facets, random_sb, ray_values
from padic_dispersion.cli import main as cli_main
from padic_dispersion.errors import CertificateUnavailableError
from padic_dispersion.expsums import decay_fit, exp_sum, stationary_certificate
from padic_dispersion.newton import beta_and_t0, newton_facets, quasi_homogeneous_detect
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import (
    SchwartzBruhatFn,
    fourier_sb,
    inverse_fourier_sb,
    l2_norm,
    sb_allclose,
)
from padic_dispersion.surface import (
    GraphHypersurface,
    decay_table,
    zeta_kernel,
    zeta_kernel_numeric,
)
from padic_dispersion.wave import (
    SolutionSpec,
    solve_u,
    strichartz_report,
    windowed_spectrum,
)


def report(num: int, description: str, passed: bool) -> None:
    print(f"[ACCEPTANCE] criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_gauss_sum_exactness():
    start = time.monotonic()
    ok = True
    for p in (3, 5, 7):
        ball = Ball.of(p, [0], 0)
        f = parse_polynomial("x^2")
        for m in range(1, 7):
            value = exp_sum(f, Fraction(1, p**m), ball).value
            ok &= abs(abs(value) - p ** (-m / 2)) <= 1e-9
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    report(1, f"|E(p^-m, x^2)| = p^(-m/2) for p in 3,5,7 and m = 1..6 ({elapsed:.2f}s)", ok)


def test_criterion_02_newton_exponents():
    ok = True
    cases = [("x1^2+x2^2", Fraction(1))]
    cases += [(f"x^{d}", Fraction(1, d)) for d in range(2, 6)]
    cases += [("x1^2+x2^3", Fraction(5, 6))]
    for text, expected in cases:
        f = parse_polynomial(text)
        P = newton_facets(f)
        beta, t0 = beta_and_t0(P)
        ok &= beta == expected
        ok &= t0 == (1 / expected,) * f.nvars
        # brute-force H-description oracle, literal degree bound
        deg = f.total_degree()
        ok &= {
            (fc.normal, fc.support_value) for fc in compact_facets(P)
        } == oracle_compact_facets(f, bound=deg)
        witness = quasi_homogeneous_detect(P)
        if witness is not None:
            ok &= Fraction(sum(witness.alpha), witness.degree) == beta
    report(2, "beta_and_t0 exact on 1, 1/d, 5/6 with H-oracle and QH consistency", ok)


def test_criterion_03_decay_fits():
    start = time.monotonic()
    cases = [
        ("x^2", 3, 1, Fraction(1, 2)),
        ("x^3", 7, 1, Fraction(1, 3)),
        ("x1^2+x2^2", 3, 2, Fraction(1)),
        ("x1^2+x2^3", 5, 2, Fraction(5, 6)),
    ]
    ok = True
    for text, p, n, beta in cases:
        f, ball = parse_polynomial(text), Ball.of(p, (0,) * n, 0)
        fit = decay_fit(f, ball, expsum_values(f, ball, range(2, 7)))
        ok &= fit.status == "ok"
        ok &= fit.beta == beta
        ok &= abs(fit.slope - float(beta)) <= 0.05
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(3, f"fitted decay slopes within 0.05 of beta_f over m = 2..6 ({elapsed:.1f}s)", ok)


def test_criterion_04_stationary_phase():
    ok = True
    for text, center, e in (("x^2+x+1", 0, 1), ("x^2", 1, 1)):
        f = parse_polynomial(text)
        ball = Ball.of(3, [center], e)
        cert = stationary_certificate(f, ball, expsum_values(f, ball, range(2, 7)))
        ok &= cert.bound_exponent == 0
        ok &= cert.threshold == 3
        for m in range(2, 7):
            value = exp_sum(f, Fraction(1, 3**m), ball).value
            ok &= abs(value) <= 1e-9
    report(4, "I = 0 and E_A(p^-m, f) = 0 above q^(2I+1) for both spec pairs", ok)


def test_criterion_05_surface_decay():
    ok = True
    Y1 = GraphHypersurface(parse_polynomial("x^2"), Ball.of(3, [0, 0], 0))
    dt1 = decay_table(Y1, ray_values(Y1, (0, 1), range(1, 7)))
    ok &= abs(dt1.slope - 0.5) <= 1e-9
    Y2 = GraphHypersurface(parse_polynomial("x^3"), Ball.of(7, [0, 0], 0))
    dt2 = decay_table(Y2, ray_values(Y2, (0, 1), range(1, 7)))
    ok &= abs(dt2.slope - 1 / 3) <= 0.05
    Y3 = GraphHypersurface(parse_polynomial("x1^2+x2^2"), Ball.of(3, [0, 0, 0], 0))
    dt3 = decay_table(Y3, ray_values(Y3, (0, 0, 1), range(1, 7)))
    ok &= abs(dt3.slope - 1.0) <= 0.05
    ok &= dt1.expected == Fraction(1, 2) and dt2.expected == Fraction(1, 3)
    ok &= dt3.expected == Fraction(1)
    report(5, "surface FT decay slopes 1/2, 1/3, 1 along the normal ray (k = 1..6)", ok)


def test_criterion_06_zeta_kernel():
    p, e0 = 3, 1
    worst = 0.0
    ok = True
    for i in range(1, 21):
        z = complex(i / 10, 0.5 * math.sin(i))  # Re(z) walks (0, 2]
        for xn in (Fraction(1, p), Fraction(1), Fraction(p), Fraction(p**2)):
            closed = zeta_kernel(z, xn, e0, p)
            shells = zeta_kernel_numeric(z, xn, e0, p)
            worst = max(worst, abs(closed - shells))
    ok &= worst <= 1e-9
    for xn in (Fraction(0), Fraction(1), Fraction(1, 9), Fraction(27)):
        ok &= abs(zeta_kernel(0j, xn, e0, p) - 1) <= 1e-12
    ok &= abs(zeta_kernel(1.5, Fraction(1), e0, p) - p ** (-e0 * 1.5)) <= 1e-12
    report(6, f"zeta kernel closed form vs shell sums agree to 1e-9 (max {worst:.2e})", ok)


def test_criterion_07_fourier_identities():
    ok = True
    for p in (2, 3, 5):
        rng = random.Random(1000 + p)
        for _ in range(20):
            g = random_sb(rng, p, rng.choice([1, 2]))
            G = fourier_sb(g)
            ok &= sb_allclose(g, inverse_fourier_sb(G), 1e-12)
            ok &= abs(l2_norm(g) - l2_norm(G)) <= 1e-12
    report(7, "round trip and Parseval to 1e-12 on 20 seeded functions per p in 2,3,5", ok)


def test_criterion_08_solution_correctness():
    ok = True
    f0 = SchwartzBruhatFn.of(
        3,
        [
            (Ball.of(3, [0], 1), 1.5 - 0.5j),
            (Ball.of(3, [1], 1), -2.0 + 1.0j),
            (Ball.of(3, [Fraction(1, 3)], 0), 0.75j),
        ],
    )
    spec = SolutionSpec.build(f0, parse_polynomial("x^2"))
    count = 0
    for num in range(-25, 25):
        for den_exp in (0, 2):
            x = Fraction(num, 3**den_exp)
            ok &= abs(solve_u(spec, (x,), 0) - f0.value_at((x,))) <= 1e-12
            count += 1
    assert count == 100
    gauss = SolutionSpec.build(
        SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2")
    )
    for m in range(1, 6):
        u = solve_u(gauss, (0,), Fraction(1, 3**m))
        ok &= abs(abs(u) - 3 ** (-m / 2)) <= 1e-9
    for xi in (0, 1, 2, Fraction(1, 3), Fraction(2, 3)):
        for j in (1, 2, 4, 5, 7):
            W = windowed_spectrum(gauss, (Fraction(xi),), Fraction(j, 3), 1)
            ok &= abs(W) <= 1e-12
    report(8, "u(.,0) = f0 on 100 points, |u(0,t)| = |t|^-1/2, spectrum window vanishes", ok)


def test_criterion_09_strichartz():
    ok = True
    configs = [
        (3, "x^2", 6.0),
        (5, "x^3", 8.0),
    ]
    for p, phi_text, sigma in configs:
        phi = parse_polynomial(phi_text)
        f0 = SchwartzBruhatFn.indicator(Ball.of(p, [0], 0))
        spec = SolutionSpec.build(f0, phi)
        rep = strichartz_report(spec, sigma, 4)
        ok &= rep.converged and not rep.diverged
        ok &= all(
            b <= a + 1e-12 for a, b in zip(rep.increments, rep.increments[1:])
        )
        base_ratio = strichartz_report(spec, sigma, 3).constant
        for c in (2.0, -0.5 + 0.5j):
            spec_c = SolutionSpec.build(f0.scaled(c), phi)
            ok &= abs(strichartz_report(spec_c, sigma, 3).constant - base_ratio) <= 1e-12
        rng = random.Random(9000 + p)
        ratios = []
        for _ in range(10):
            terms = []
            for _ in range(rng.randint(1, 3)):
                ball = Ball.of(p, [Fraction(rng.randint(0, p - 1), p)], 0)
                if any(not ball.is_disjoint(b) for b, _ in terms):
                    continue
                terms.append((ball, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
            seed_spec = SolutionSpec.build(SchwartzBruhatFn.of(p, terms), phi)
            ratios.append(strichartz_report(seed_spec, sigma, 3).constant)
        ok &= all(math.isfinite(r) for r in ratios)
        ok &= max(ratios) < 100.0
    diverging = strichartz_report(
        SolutionSpec.build(
            SchwartzBruhatFn.indicator(Ball.of(3, [0], 0)), parse_polynomial("x^2")
        ),
        2.0,
        4,
    )
    ok &= diverging.diverged
    report(9, "truncated norms converge at sigma = 6, 8; bounded ratios; sigma = 2 flags", ok)


def test_criterion_10_cli_determinism(tmp_path):
    jobs = [
        ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..6"],
        ["expsum", "--prime", "5", "--poly", "x^2", "--m", "1..6"],
        ["expsum", "--prime", "7", "--poly", "x^2", "--m", "1..6"],
        ["expsum", "--prime", "5", "--poly", "x1^2+x2^3", "--m", "2..6"],
        ["newton", "--prime", "3", "--poly", "x1^2+x2^2"],
        ["newton", "--prime", "5", "--poly", "x1^2+x2^3"],
        ["surface", "--prime", "3", "--phi", "x^2", "--k", "1..6"],
        ["surface", "--prime", "7", "--phi", "x^3", "--k", "1..6"],
        ["surface", "--prime", "3", "--phi", "x1^2+x2^2", "--k", "1..6"],
        ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0"],
        [
            "strichartz", "--prime", "3", "--phi", "x^2",
            "--sigma", "6", "--rmax", "4", "--f0", "ball 0 0",
        ],
        [
            "strichartz", "--prime", "5", "--phi", "x^3",
            "--sigma", "8", "--rmax", "4", "--f0", "ball 0 0",
        ],
    ]
    ok = True
    out = tmp_path / "artifact.json"
    for job in jobs:
        outputs = []
        for threads in ("1", "4"):
            code = cli_main(job + ["--threads", threads, "--out", str(out)])
            ok &= code in (0, 4)
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]
        json.loads(outputs[0])  # artifact must be valid JSON
        ok &= b"Fraction(" not in outputs[0]  # rationals print as "num/den", never as reprs
    report(10, f"byte-identical CLI output across thread counts on {len(jobs)} jobs", ok)

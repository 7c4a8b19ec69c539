"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Every operation is one CLI command (`cli.run` on a validated config) or one
library call, and every check compares the output with `oracles`, which is
written apart from the library, or with a property the method must have.
Inputs come from the seed only through unit coefficients, ball centres and
complex weights: the shapes that decide the cost (primes, levels, ball
radii, facet counts) are fixed, so each seed costs about the same.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles as ref
from padic_dispersion import cli, expsums, schwartz
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import parse_polynomial
from padic_dispersion.schwartz import SchwartzBruhatFn

TOL = 1e-9  # float agreement of two independent evaluations
ZERO = 1e-12  # an exact zero evaluated in floating point


@dataclass
class Op:
    name: str
    run: Callable[[int], Any]  # thread count -> output
    check: Callable[[Any], str | None]  # None when the output is right
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng)


@functools.cache
def _integral(items: tuple, p: int) -> complex:
    return ref.integral_zp(dict(items), p)


def _zp(p: int, **coeffs) -> complex:
    """Cached int_{Z_p} Psi(sum c_k y^k); keywords are x<k>=c_k."""
    return _integral(tuple(sorted((int(k[1:]), Fraction(c)) for k, c in coeffs.items())), p)


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


# -- CLI operations ----------------------------------------------------------------

_PARSER = cli.build_parser()


def _cli_op(name: str, argv: list[str], check: Callable[[dict, int], str | None]) -> Op:
    def run(threads: int):
        cfg, _ = cli.config_from_args(_PARSER.parse_args(argv))
        return cli.run(cfg, threads)

    def checked(out) -> str | None:
        payload, status = out
        return check(json.loads(payload)["results"], status)

    return Op(name, run, checked)


def _check_histogram(doc: dict, terms: dict, n: int, center: tuple, r: int, p: int) -> str | None:
    level = doc["histogram_level"]
    got = {int(c): k for c, k in doc["histogram"].items()}
    if any(k < 0 for k in got.values()):
        return "negative histogram count"
    if sum(got.values()) != p ** (n * level) * ref.ball_volume(n, r, p):
        return "histogram total is not p^(n m) vol(A)"
    if got != ref.residue_counts(terms, n, level, center, r, p):
        return "histogram differs from brute-force residue counts"
    return None


def _check_table(doc: dict, expected: Callable[[int], complex], modulus=None) -> str | None:
    for row in doc["table"]:
        want = expected(row["m"])
        if abs(_cx(row["value"]) - want) > TOL:
            return f"E(p^-{row['m']}) = {row['value']}, expected {want}"
        if modulus is None:
            continue
        # absolute: one float sum of histogram terms whose weights total
        # vol(A) <= 1 is not more accurate than that, however small |E| is
        if abs(row["abs"] - modulus(row["m"])) > ZERO:
            return f"|E(p^-{row['m']})| = {row['abs']}, expected {modulus(row['m'])}"
    return None


def _study_unavailable(p, terms, n, expected, beta, modulus=None) -> Callable:
    """A study on Z_p^n: 0 is a critical point, so no certificate (exit 4)."""

    def check(doc, status):
        if status != cli.EXIT_CERTIFICATE or doc["certificate"]["status"] != "unavailable":
            return "0 is critical on Z_p^n: the certificate must be unavailable"
        if doc["decay_fit"]["beta"] != beta:
            return f"beta {doc['decay_fit']['beta']} != {beta}"
        return (_check_table(doc, expected, modulus)
                or _check_histogram(doc, terms, n, (0,) * n, 0, p))

    return check


def _study_certified(p, d, a, c, hi) -> Callable:
    """a x^d on c + pZ_p, c a unit: the derivative is a unit there, so
    I = 0, E vanishes exactly from m = 2 on, and the certificate holds."""

    def check(doc, status):
        cert = doc["certificate"]
        if status != cli.EXIT_OK or cert["status"] != "ok":
            return f"certificate {cert['status']} on a ball without critical points"
        if (cert["I"], cert["threshold"]) != (0, p) or cert["verified_levels"] != list(range(2, hi + 1)):
            return f"certificate {cert}"
        if cert["max_abs"] > ZERO:
            return f"certified |E| = {cert['max_abs']}"
        if doc["decay_fit"]["status"] != "superpolynomial":
            return "E vanishes from m = 2 on: the fit must be superpolynomial"
        if doc["decay_fit"]["beta"] != f"1/{d}":
            return f"beta {doc['decay_fit']['beta']} != 1/{d}"

        def expected(m):
            if m >= 2:
                return 0j
            return ref.integral_ball({d: Fraction(a, p**m)}, Fraction(c), 1, p)

        return _check_table(doc, expected) or _check_histogram(doc, {(d,): a}, 1, (c,), 1, p)

    return check


# -- expsum-study ------------------------------------------------------------------

_SIX_SQUARES = "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2"


def _monomial_study(rng, p: int, d: int, hi: int) -> Op:
    a = rng.randrange(1, p)
    return _cli_op(
        f"expsum-{a}x^{d}-p{p}",
        ["expsum", "--prime", str(p), "--poly", f"{a}*x^{d}", "--m", f"1..{hi}"],
        _study_unavailable(p, {(d,): a}, 1,
                           lambda m: float(ref.monomial_expsum(d, p, m)), f"1/{d}"),
    )


def _separable_study(rng) -> Op:
    p, hi = 5, 7
    a = rng.randrange(1, p)
    return _cli_op(
        f"expsum-x1^2+{a}x2^3-p5",
        ["expsum", "--prime", str(p), "--poly", f"x1^2+{a}*x2^3", "--m", f"1..{hi}"],
        _study_unavailable(p, {(2, 0): 1, (0, 3): a}, 2,
                           lambda m: _zp(p, x2=Fraction(1, p**m)) * _zp(p, x3=Fraction(a, p**m)),
                           "5/6", lambda m: p ** (-m / 2) * float(ref.monomial_expsum(3, p, m))),
    )


def _squares_study(rng) -> Op:
    p, hi = 3, 10
    a = [rng.randrange(1, p) for _ in range(3)]

    def expected(m):
        return math.prod((_zp(p, x2=Fraction(c, p**m)) for c in a), start=1 + 0j)

    return _cli_op(
        "expsum-3squares-p3",
        ["expsum", "--prime", str(p), "--poly", f"{a[0]}*x1^2+{a[1]}*x2^2+{a[2]}*x3^2",
         "--m", f"1..{hi}"],
        _study_unavailable(p, {(2, 0, 0): a[0], (0, 2, 0): a[1], (0, 0, 2): a[2]}, 3,
                           expected, "3/2", lambda m: p ** (-1.5 * m)),  # |Gauss sum| = p^(-m/2)
    )


def _two_squares_study(rng) -> Op:
    p, hi = 7, 5
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    return _cli_op(
        "expsum-2squares-p7",
        ["expsum", "--prime", str(p), "--poly", f"{a}*x1^2+{b}*x2^2", "--m", f"1..{hi}"],
        _study_unavailable(p, {(2, 0): a, (0, 2): b}, 2,
                           lambda m: _zp(p, x2=Fraction(a, p**m)) * _zp(p, x2=Fraction(b, p**m)),
                           "1", lambda m: float(p) ** -m),
    )


def _certified_study(rng, p: int, d: int, hi: int) -> Op:
    a, c = rng.randrange(1, p), rng.randrange(1, p)
    return _cli_op(
        f"expsum-{a}x^{d}-p{p}-ball{c}",
        ["expsum", "--prime", str(p), "--poly", f"{a}*x^{d}", "--m", f"1..{hi}",
         "--ball", f"ball {c} 1"],
        _study_certified(p, d, a, c, hi),
    )


def _six_squares_fault() -> Op:
    """p = 3, six squares, m = 9: the block convolution overflows int64.

    The input does not depend on the seed: the operation fails on every
    run until the overflow is mended (or refuses, which counts as failed).
    """
    f = parse_polynomial(_SIX_SQUARES)
    ball = Ball.of(3, (0,) * 6, 0)

    def run(threads):
        res = expsums.exp_sum(f, Fraction(1, 3**9), ball, threads=threads)
        return res.counts, res.scale, res.value

    def check(out):
        counts, scale, value = out
        if any(k < 0 for k in counts.values()):
            return "negative residue counts"
        if scale * sum(counts.values()) != 1:
            return f"volume {scale * sum(counts.values())} != 1"
        if abs(abs(value) - 3**-27) > ZERO:  # six Gauss sums of modulus 3^(-9/2)
            return f"|E| = {abs(value)} != 3^-27"
        return None

    return Op("exp_sum-6squares-p3-m9", run, check, known_fault=True)


# primitive edge directions (dx, dy); distinct, so any subset is a convex chain
_DIRECTIONS = [(dx, dy) for dx in range(1, 6) for dy in range(1, 6) if math.gcd(dx, dy) == 1]


def _newton_phase(rng, facets: int, p: int) -> dict[tuple[int, int], int]:
    """A 2-variable phase whose Newton polygon has `facets` facets (two of
    them unbounded) and that passes the brute-force mod-p certificate."""
    while True:
        edges = sorted(rng.sample(_DIRECTIONS, facets - 2), key=lambda v: Fraction(v[1], v[0]),
                       reverse=True)
        x, y = 0, sum(dy for _, dy in edges)
        pts = [(x, y)]
        for dx, dy in edges:
            x, y = x + dx, y - dy
            pts.append((x, y))
        terms = {pt: rng.randrange(1, p) for pt in pts}
        if ref.certified_mod_p(terms, p):
            return terms


def _poly_text(terms: dict[tuple[int, int], int]) -> str:
    out = []
    for (a, b), c in sorted(terms.items()):
        factors = [f"x{i}^{e}" for i, e in ((1, a), (2, b)) if e]
        out.append("*".join([str(c)] + factors))
    return "+".join(out)


def _newton_op(rng, facets: int, p: int) -> Op:
    terms = _newton_phase(rng, facets, p)
    want_facets, _ = ref.newton_polygon(list(terms))
    beta = min(Fraction(a + b, m) for (a, b), m in want_facets if m)

    def check(doc, status):
        if status != cli.EXIT_OK:
            return f"exit {status}"
        got = {(tuple(f["normal"]), f["support_value"]) for f in doc["facets"]}
        if got != want_facets:
            return f"facets {sorted(got)} != {sorted(want_facets)}"
        if doc["beta"] != f"{beta.numerator}/{beta.denominator}":
            return f"beta {doc['beta']} != {beta}"
        if doc["quasi_homogeneous"] is not None:
            return "a chain with several edges is not quasi-homogeneous"
        if doc["mod_p_verdict"] != "certified":
            return f"verdict {doc['mod_p_verdict']}, brute force certifies"
        return None

    return _cli_op(f"newton-{facets}facets-p{p}",
                   ["newton", "--prime", str(p), "--poly", _poly_text(terms)], check)


def _expsum_study(rng) -> Workload:
    return Workload("expsum-study", [
        _monomial_study(rng, 5, 3, 8),
        _monomial_study(rng, 3, 5, 11),
        _separable_study(rng),
        _squares_study(rng),
        _two_squares_study(rng),
        _certified_study(rng, 5, 3, 8),
        _certified_study(rng, 3, 2, 10),
        _six_squares_fault(),
        _newton_op(rng, 12, 3),
        _newton_op(rng, 12, 5),
        _newton_op(rng, 14, 7),
    ])


# -- surface-wave -------------------------------------------------------------------


def _surface_check(p: int, transform: Callable[[int], complex], restriction=None) -> Callable:
    """hat(d mu)(0, p^-k) = int_{Z_p^(n-1)} Psi(-p^-k phi(x)) dx."""

    def check(doc, status):
        if status != cli.EXIT_OK:
            return f"exit {status}"
        if doc["critical_status"] != "certified":
            return f"critical status {doc['critical_status']}"
        if doc["zeta_check"]["max_diff"] > ZERO:
            return f"zeta kernel closed form vs shell sum: {doc['zeta_check']['max_diff']}"
        rows = dict(doc["decay"]["rows"])
        for s in doc["ft_samples"]:
            got, want = _cx(s["value"]), transform(s["k"])
            if abs(got - want) > TOL:
                return f"FT at k={s['k']}: {got} != {want}"
            if abs(rows[s["k"]] - abs(got)) > ZERO:
                return "decay row differs from the sample"
        if restriction is not None:
            for got, want in zip(doc["restriction"]["ratios"], restriction(), strict=True):
                if abs(got - want) > TOL * max(1.0, want):
                    return f"restriction ratio {got} != {want}"
        return None

    return check


def _surface_op(p: int, phi: str, k: int, transform, extra=(), restriction=None,
                name: str = "") -> Op:
    return _cli_op(name or f"surface-{phi}-p{p}",
                   ["surface", "--prime", str(p), "--phi", phi, "--k", f"1..{k}", *extra],
                   _surface_check(p, transform, restriction))


def _restriction_op(rng) -> Op:
    p, rho = 3, 1.2
    a = rng.randrange(1, p)
    # The CLI draws its 10 test functions from --seed, and their radii set
    # the cost (0.03-0.3 s over CLI seeds 1..15), so that draw is fixed.
    seed = 14

    def ratios():
        g_rng = random.Random(seed)  # the CLI's own draw of its 10 test functions
        out = []
        for _ in range(10):
            g = cli._random_sb(g_rng, p, 2)
            terms = [(b.center_fractions(), b.radius_exp, c) for b, c in g.terms]
            out.append(ref.restriction_ratio(terms, {2: Fraction(a)}, rho, p))
        return out

    return _surface_op(p, f"{a}*x^2", 4, lambda k: _zp(p, x2=Fraction(-a, p**k)),
                       ["--rho", str(rho), "--seed", str(seed)], ratios,
                       name=f"surface-restriction-p{p}")


def _f0_text(terms) -> str:
    def num(c):
        return f"{c.real:+.2f}{c.imag:+.2f}j".lstrip("+")

    return "; ".join(f"{num(c)} * ball {' '.join(str(x) for x in a)} {r}" for a, r, c in terms)


def _coeff(rng) -> complex:
    return complex(rng.randrange(-200, 201) / 100, rng.randrange(-200, 201) / 100) or 1 + 0j


def _seeded_f0(rng, p: int) -> list:
    """Two balls of radius p^-1 around distinct units, one unit ball around
    u/p: the shape and the centres' valuations are fixed (they set the cost),
    the centres and weights are seeded."""
    j1, j2 = rng.sample(range(1, p), 2)
    u = rng.randrange(1, p)
    return [((Fraction(j1),), 1, _coeff(rng)), ((Fraction(j2),), 1, _coeff(rng)),
            ((Fraction(u, p),), 0, _coeff(rng))]


def _solve_op(p: int, a: int, d: int, terms, hi: int, name: str) -> Op:
    phi = {d: Fraction(a)}

    def check(doc, status):
        if status != cli.EXIT_OK:
            return f"exit {status}"
        for s in doc["u_samples"]:
            x, t = Fraction(s["x"]), Fraction(s["t"])
            if t == 0:
                want = ref.sb_value(terms, (x,), p)  # u(x, 0) = f0(x)
            else:
                want = ref.solution_value(terms, phi, x, t, p)
            if abs(_cx(s["value"]) - want) > TOL:
                return f"u({x}, {t}) = {s['value']}, expected {want}"
        worst = max(w["abs"] for w in doc["windowed_spectrum"])
        if worst > ZERO:  # |tau| = p is no value of a x^d with d > 1
            return f"windowed spectrum off tau = phi(xi) reaches {worst}"
        return None

    f0 = _f0_text(terms)
    return _cli_op(name, ["solve", "--prime", str(p), "--phi", f"{a}*x^{d}", "--f0", f0,
                          "--m", f"1..{hi}"], check)


def _gauss_solve_op() -> Op:
    op = _solve_op(3, 1, 2, [((Fraction(0),), 0, 1 + 0j)], 5, "solve-gauss-p3")
    base = op.check

    def check(out):
        doc = json.loads(out[0])["results"]
        for s in doc["u_samples"]:
            t = Fraction(s["t"])
            if s["x"] == "0" and t != 0:
                m = -ref.val(t, 3)
                if abs(s["abs"] - 3 ** (-m / 2)) > TOL:
                    return f"|u(0, 3^-{m})| = {s['abs']} != 3^(-{m}/2)"
        return base(out)

    return Op(op.name, op.run, check)


def _strichartz_op(p: int, phi: str, R: int, terms, name: str) -> Op:
    l2 = ref.sb_l2(terms, p)
    unit_box = len(terms) == 1 and terms[0][1] == 0 and not any(terms[0][0])

    def check(doc, status):
        if status != cli.EXIT_OK:
            return f"exit {status}"
        if not doc["converged"] or doc["diverged"]:
            return "the truncated series must converge at sigma = 6"
        if abs(doc["l2_f0"] - l2) > ZERO * max(1.0, l2):
            return f"||f0||_2 = {doc['l2_f0']}, ball volumes give {l2}"
        norms = [row["norm"] for row in doc["rows"]]
        if any(b < a * (1 - ZERO) for a, b in zip(norms, norms[1:])):
            return "truncated norms must grow with the box"
        if any(abs(row["ratio"] - row["norm"] / l2) > ZERO for row in doc["rows"]):
            return "ratio != norm / ||f0||_2"
        if unit_box and abs(norms[0] - 1) > ZERO:  # u = 1 on the unit box
            return f"norm over the unit box {norms[0]} != 1"
        return None

    return _cli_op(name, ["strichartz", "--prime", str(p), "--phi", phi, "--sigma", "6",
                          "--rmax", str(R), "--f0", _f0_text(terms)], check)


def _surface_wave(rng) -> Workload:
    a7, a5, a3, b5, c5 = (rng.randrange(1, 7), rng.randrange(1, 5), rng.randrange(1, 3),
                          rng.randrange(1, 5), rng.randrange(1, 5))
    unit = [((Fraction(0),), 0, 1 + 0j)]
    unit2 = [((Fraction(0), Fraction(0)), 0, 1 + 0j)]
    return Workload("surface-wave", [
        _surface_op(7, f"{a7}*x^3", 7, lambda k: _zp(7, x3=Fraction(-a7, 7**k))),
        _surface_op(3, f"x1^2+{a3}*x2^2", 8,
                    lambda k: _zp(3, x2=Fraction(-1, 3**k)) * _zp(3, x2=Fraction(-a3, 3**k))),
        _surface_op(5, f"{a5}*x^2", 7, lambda k: _zp(5, x2=Fraction(-a5, 5**k))),
        _surface_op(2, "x^3", 12, lambda k: _zp(2, x3=Fraction(-1, 2**k))),
        _surface_op(5, f"x1^2+{b5}*x2^3", 6,
                    lambda k: _zp(5, x2=Fraction(-1, 5**k)) * _zp(5, x3=Fraction(-b5, 5**k))),
        _restriction_op(rng),
        _gauss_solve_op(),
        _solve_op(3, a3, 2, _seeded_f0(rng, 3), 4, "solve-seeded-p3"),
        _solve_op(5, b5, 3, unit, 4, "solve-x^3-p5"),
        _strichartz_op(3, "x^2", 6, unit, "strichartz-gauss-p3"),
        _strichartz_op(5, f"{c5}*x^2", 1, _seeded_f0(rng, 5), "strichartz-seeded-p5"),
        _strichartz_op(3, "x1^2+x2^2", 1, unit2, "strichartz-2d-p3"),
        _strichartz_op(2, "x1^2+x2^2", 2, unit2, "strichartz-2d-p2"),
    ])


# -- fourier-roundtrip ------------------------------------------------------------

# (p, n, radius exponents, centre denominator exponents): the shape fixes the
# number of cosets the transforms tile, hence the cost, to within a few %.
# Ordered by cost: six below 0.1 s, the median one alone near 0.13 s, six
# above 0.15 s, so op_p50_s reads one operation and not a mix of neighbours.
_SHAPES = [
    (2, 2, (0, 2), (1, 2)), (5, 2, (0, 1), (1, 1)), (5, 2, (0, 1), (1, 0)),
    (2, 1, (-1, 2, 4), (2, 3, 4)), (2, 1, (0, 2, 4), (1, 3, 4)), (2, 1, (1, 4), (4, 5)),
    (3, 1, (0, 1, 2), (2, 2, 3)),
    (3, 1, (1, 3), (2, 3)), (3, 2, (1, 1), (1, 0)), (3, 2, (1, 1), (1, 0)),
    (3, 2, (0, 1, 1), (0, 1, 1)), (5, 1, (1, 2), (1, 2)), (5, 1, (1, 2), (1, 2)),
]


def _seeded_sb(rng, p: int, n: int, radii, dens) -> list:
    while True:
        terms = []
        for r, d in zip(radii, dens):
            comps = []
            for _ in range(n):
                u = rng.randrange(-p**3, p**3 + 1)
                while d and u % p == 0:
                    u = rng.randrange(-p**3, p**3 + 1)
                comps.append(Fraction(u, p**d))
            terms.append((tuple(comps), r, _coeff(rng)))
        if all(not ref.in_ball(a, b, min(r, s), p)
               for i, (a, r, _) in enumerate(terms) for b, s, _ in terms[:i]):
            return terms


def _sample_points(rng, p: int, n: int, terms) -> list[tuple[Fraction, ...]]:
    pts = [tuple(Fraction(0) for _ in range(n))]
    for a, r, _ in terms:
        pts.append(a)
        pts.append(tuple(x + Fraction(p) ** (r + 1) for x in a))
        pts.append(tuple(x + Fraction(p) ** (r - 1) for x in a))
    for _ in range(4):
        pts.append(tuple(Fraction(rng.randrange(-p**4, p**4), p ** rng.randrange(4))
                         for _ in range(n)))
    return pts


def _roundtrip_op(rng, p: int, n: int, radii, dens) -> Op:
    terms = _seeded_sb(rng, p, n, radii, dens)
    g = SchwartzBruhatFn.of(p, [(Ball.of(p, a, r), c) for a, r, c in terms])
    xs = _sample_points(rng, p, n, terms)
    xis = _sample_points(rng, p, n, [((0,) * n, -r, 0j) for _, r, _ in terms])
    l2 = ref.sb_l2(terms, p)

    def run(threads):  # the transforms take no thread count
        G = schwartz.fourier_sb(g)
        back = schwartz.inverse_fourier_sb(G)
        return G, back, schwartz.sb_allclose(g, back, 1e-12)

    def check(out):
        G, back, close = out
        if not close:
            return "sb_allclose(g, inverse(F g)) is False"
        G_l2 = math.sqrt(sum(abs(c) ** 2 * float(ref.ball_volume(n, b.radius_exp, p))
                             for b, _, c in G.terms))
        if abs(G_l2 - l2) > ZERO * max(1.0, l2):
            return f"Parseval: ||F g||_2 = {G_l2}, ||g||_2 = {l2}"
        for xi in xis:
            if abs(G.value_at(xi) - ref.sb_transform_value(terms, xi, p)) > ZERO * 10:
                return f"F g at {xi} differs from the ball-indicator closed form"
        for x in xs:
            if abs(back.value_at(x) - ref.sb_value(terms, x, p)) > ZERO * 10:
                return f"inverse(F g) at {x} differs from g"
        return None

    return Op(f"roundtrip-p{p}-n{n}-r{''.join(map(str, radii))}", run, check)


def _fourier_roundtrip(rng) -> Workload:
    return Workload("fourier-roundtrip", [_roundtrip_op(rng, *shape) for shape in _SHAPES])


_BUILDERS = {
    "expsum-study": _expsum_study,
    "surface-wave": _surface_wave,
    "fourier-roundtrip": _fourier_roundtrip,
}

"""Shared test oracles, deliberately independent of the library internals.

The oracles recompute everything from first principles: direct complex
Riemann sums for oscillatory integrals, brute-force residue counting, and a
standalone echelon form for the Newton-polyhedron H-description scan.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from padic_dispersion.expsums import exp_sum
from padic_dispersion.newton import NewtonPolyhedron
from padic_dispersion.padic import Ball, split_p_part
from padic_dispersion.polynomials import (
    SparsePolynomial,
    checked_modulus,
    compose_affine,
    lattice_form,
    poly_residues,
)
from padic_dispersion.schwartz import ModulatedSBFn, SchwartzBruhatFn, fourier_sb, lp_norm
from padic_dispersion.surface import GraphHypersurface, surface_ft


def frac_part(q: Fraction) -> Fraction:
    return q - math.floor(q)


def oracle_exp_sum(
    f: SparsePolynomial, z: Fraction, ball: Ball, level: int
) -> complex:
    """Direct Riemann sum of int_A Psi(z f(x)) dx at enumeration level p^level.

    No histograms, no convolution, no shared engine code: plain rationals
    and cmath.  `level` must be at least the constancy level of the phase.
    """
    p, n, e = ball.prime, ball.dim, ball.radius_exp
    width = p ** max(0, level - e)
    step = Fraction(p) ** e
    center = ball.center_fractions()
    cell = float(ball.volume / width**n)
    total = 0j
    for t in product(range(width), repeat=n):
        x = tuple(c + step * ti for c, ti in zip(center, t))
        phase = frac_part(z * Fraction(f.evaluate(x)))
        total += cmath.exp(2j * math.pi * float(phase)) * cell
    return total


def oracle_residue_counts(
    f: SparsePolynomial, m: int, ball: Ball
) -> dict[int, int]:
    p, n, e = ball.prime, ball.dim, ball.radius_exp
    width = p ** max(0, m - e)
    counts: dict[int, int] = {}
    center = [int(c) for c in ball.center_fractions()]
    for t in product(range(width), repeat=n):
        x = tuple(c + p**e * ti for c, ti in zip(center, t))
        v = int(f.evaluate(x)) % p**m
        counts[v] = counts.get(v, 0) + 1
    return counts


def oracle_block_counts(
    terms: dict[tuple[int, ...], int], block: tuple[int, ...], width: int, modulus: int
) -> list[int]:
    """Counts of the block's part of sum c y^e mod modulus over [0, width)^len(block):
    the terms using a block variable, one Python-int evaluation per point."""
    local = {e: c for e, c in terms.items() if any(e[j] for j in block)}
    counts = [0] * modulus
    for y in product(range(width), repeat=len(block)):
        x = dict(zip(block, y))
        value = sum(c * math.prod(x[j] ** e[j] for j in block) for e, c in local.items())
        counts[value % modulus] += 1
    return counts


def oracle_cyclic_convolution(factors: list[dict[int, int]], modulus: int) -> dict[int, int]:
    """Counts of r_1 + ... + r_k mod modulus, each r_i drawn from one factor's
    {residue: count}: a plain Python-int double loop per factor, no FFT."""
    acc = {0: 1}
    for factor in factors:
        nxt: dict[int, int] = {}
        for a, ca in acc.items():
            for b, cb in factor.items():
                r = (a + b) % modulus
                nxt[r] = nxt.get(r, 0) + ca * cb
        acc = nxt
    return acc


def oracle_surface_ft(
    phi: SparsePolynomial, window: Ball, xi: tuple[Fraction, ...], level: int
) -> complex:
    """Direct sum for the graph-hypersurface Fourier transform."""
    p = window.prime
    base = Ball(p, window.center[:-1], window.radius_exp)
    n1 = base.dim
    width = p ** max(0, level - base.radius_exp)
    step = Fraction(p) ** base.radius_exp
    center = base.center_fractions()
    cell = float(base.volume / width**n1)
    total = 0j
    for t in product(range(width), repeat=n1):
        x = tuple(c + step * ti for c, ti in zip(center, t))
        phase = -xi[-1] * Fraction(phi.evaluate(x)) - sum(
            (a * b for a, b in zip(x, xi[:-1])), Fraction(0)
        )
        total += cmath.exp(2j * math.pi * float(frac_part(phase))) * cell
    return total


def _valuation(q: Fraction, p: int) -> int:
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def closed_form_transform(terms, xi, p: int) -> complex:
    """sum c p^(-n r) Psi(-[a, xi]) 1{||xi|| <= p^r} over the terms (a, r, c)
    of sum c 1_{a + (p^r Z_p)^n}: its Fourier transform at xi, ball by ball."""
    total = 0j
    for a, r, c in terms:
        if all(x == 0 or _valuation(Fraction(x), p) >= -r for x in xi):
            dot = sum((ai * Fraction(x) for ai, x in zip(a, xi)), Fraction(0))
            total += c * Fraction(p) ** (-len(a) * r) * cmath.exp(2j * math.pi * frac_part(-dot))
    return total


def oracle_freq_cells(spec, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells k p^-e, k in [0, p^(e + level))^n in lexicographic order, on
    which F f0 is not 0, and its values there: one closed-form evaluation of
    f0's balls per cell, with no spectrum and no ball lookup."""
    p, n, e = spec.prime, spec.n, spec.freq_bound
    terms = [(b.center_fractions(), b.radius_exp, c) for b, c in spec.f0.terms]
    step = Fraction(p) ** -e
    idx, vals = [], []
    for k in product(range(p ** (e + level)), repeat=n):
        value = closed_form_transform(terms, tuple(step * kd for kd in k), p)
        if value != 0:
            idx.append(k)
            vals.append(value)
    return np.array(idx, dtype=np.int64).reshape(-1, n), np.array(vals, dtype=complex)


def oracle_solution(
    f0: SchwartzBruhatFn, phi: SparsePolynomial, x: tuple, t: Fraction
) -> complex:
    """u(x, t) = int Psi(t phi(xi) + [x, xi]) (F f0)(xi) dxi from f0's balls.

    F 1_{a + p^r Z_p^n}(xi) = p^(-n r) Psi(-[a, xi]) 1{||xi|| <= p^r}, so each
    ball contributes p^(-n r) int_{||xi|| <= p^r} Psi(t phi(xi) + [x - a, xi]),
    a direct Riemann sum over cells xi + (p^L Z_p)^n on which the integrand is
    constant.  No spectrum, no frequency cells: plain rationals and cmath.
    """
    p, n = f0.prime, f0.n
    t = Fraction(t)
    total = 0j
    for ball, coeff in f0.terms:
        r = ball.radius_exp
        shift = [Fraction(xd) - a for xd, a in zip(x, ball.center_fractions())]
        level = max(
            [0, -r]
            + [-_valuation(s, p) for s in shift if s]
            + [
                -_valuation(t * c, p) + (sum(a) - 1) * max(r, 0)
                for a, c in phi.terms
                if t
            ]
        )
        inner = 0j
        for y in product(range(p ** (level + r)), repeat=n):
            xi = tuple(yd * Fraction(p) ** -r for yd in y)
            phase = t * Fraction(phi.evaluate(xi)) + sum(
                (s * c for s, c in zip(shift, xi)), Fraction(0)
            )
            inner += cmath.exp(2j * math.pi * float(frac_part(phase)))
        total += coeff * inner * float(Fraction(1, p**n) ** (level + r))
    return total


# -- standalone linear algebra for the H-description scan ----------------------


def echelon_rank(rows: list[list[int]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [v - c * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_compact_facets(
    f: SparsePolynomial, bound: int | None = None
) -> set[tuple[tuple[int, ...], int]]:
    """All (normal, m(a)) of compact facets by scanning every primitive
    candidate up to a componentwise bound.

    The default bound deg^(m-1) covers any normal obtained by solving the
    facet system on support points of total degree <= deg; passing
    bound=deg gives the narrower scan that suffices for the quadratic and
    monomial acceptance instances.
    """
    supp = sorted(f.support())
    m = f.nvars
    if bound is None:
        deg = max(sum(e) for e in supp)
        bound = deg ** max(1, m - 1)
    found = set()
    for a in product(range(bound + 1), repeat=m):
        if all(v == 0 for v in a) or math.gcd(*a) != 1:
            continue
        values = [sum(ai * li for ai, li in zip(a, pt)) for pt in supp]
        mval = min(values)
        on = [pt for pt, v in zip(supp, values) if v == mval]
        rows = [[x - y for x, y in zip(pt, on[0])] for pt in on[1:]]
        rows += [
            [1 if j == i else 0 for j in range(m)] for i, ai in enumerate(a) if ai == 0
        ]
        dim = echelon_rank(rows) if rows else 0
        if dim == m - 1 and all(ai > 0 for ai in a):
            found.add((a, mval))
    return found



def oracle_faces(P: NewtonPolyhedron) -> set[tuple[tuple, tuple[int, ...], int]]:
    """Every proper face as (support points, coordinate rays, dimension):
    the nonempty intersections over all subsets of facets.

    Subsets are grown one facet at a time in index order; a subset whose
    support points are already empty is not grown, since adding facets only
    removes points.
    """
    m = P.dim
    supp = sorted(P.support)
    found = set()

    def grow(start: int, pts: list, rays: list[int]) -> None:
        for i in range(start, len(P.facets)):
            fc = P.facets[i]
            on = [pt for pt in pts if sum(a * l for a, l in zip(fc.normal, pt)) == fc.support_value]
            if not on:
                continue
            zero = [j for j in rays if fc.normal[j] == 0]
            rows = [[x - y for x, y in zip(pt, on[0])] for pt in on[1:]]
            rows += [[1 if k == j else 0 for k in range(m)] for j in zero]
            found.add((tuple(on), tuple(zero), echelon_rank(rows)))
            grow(i + 1, on, zero)

    grow(0, supp, list(range(m)))
    return found

def oracle_quasi_homogeneous(
    f: SparsePolynomial, bound: int = 32
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest (d, alpha) over every alpha in [1, bound]^m with <alpha, l> = d
    on the support and gcd(d, alpha) = 1: the full scan, bound^m candidates."""
    supp = sorted(f.support())
    best = None
    for alpha in product(range(1, bound + 1), repeat=f.nvars):
        d = sum(a * l for a, l in zip(alpha, supp[0]))
        if any(sum(a * l for a, l in zip(alpha, pt)) != d for pt in supp[1:]):
            continue
        if math.gcd(d, *alpha) == 1 and (best is None or (d, alpha) < best):
            best = (d, alpha)
    return best


def oracle_graph_constancy_level(Y: GraphHypersurface, Fg: ModulatedSBFn) -> int:
    """A coset scale of S' on which x' -> Fg(x', phi(x')) is constant, term by
    term over Fg.terms as exact p-adic numbers: the ball radii and the
    modulations against the scales of x' and of phi."""
    p = Y.prime
    base = Y.base_window
    e0 = base.radius_exp
    phi_comp = compose_affine(Y.phi.scale(1), base.center_fractions(), Fraction(p) ** e0)
    w_phi = min(
        (split_p_part(c, p)[1] for e, c in phi_comp.items() if sum(e) > 0),
        default=0,
    )
    rel = 0
    for ball, mod, _ in Fg.terms:
        r = ball.radius_exp
        rel = max(rel, r - e0, r - w_phi)
        for j, b in enumerate(mod):
            if b.is_zero:
                continue
            rel = max(rel, -b.val - (e0 if j < len(mod) - 1 else w_phi))
    return e0 + rel


def oracle_restriction_ratio(
    g: SchwartzBruhatFn, Y: GraphHypersurface, rho: float, extra_level: int = 0
) -> float:
    """(int_Y |Fg|^2 dmu_{Y,S})^(1/2) / ||g||_rho, point by point: Fg is
    evaluated with `value_at` at one exact graph point per coset of S' at the
    constancy scale of `oracle_graph_constancy_level`, modulations included."""
    p = Y.prime
    base = Y.base_window
    Fg = fourier_sb(g, -1)
    level = oracle_graph_constancy_level(Y, Fg) + extra_level
    m, e0, center = base.dim, base.radius_exp, base.center_fractions()
    step = Fraction(p) ** e0
    cell_vol = float(Fraction(p) ** (-m * level))
    total = 0.0
    for t in product(range(p ** (level - e0)), repeat=m):
        x = tuple(c + step * ti for c, ti in zip(center, t))
        total += abs(Fg.value_at(x + (Fraction(Y.phi.evaluate(x)),))) ** 2 * cell_vol
    return math.sqrt(total) / lp_norm(g, rho)


# -- seeded Schwartz-Bruhat test data -------------------------------------------


def random_sb(
    rng: random.Random,
    p: int,
    n: int,
    max_balls: int = 3,
    radius_range: tuple[int, int] = (-1, 1),
    den_exp: int = 1,
) -> SchwartzBruhatFn:
    """Random disjoint ball combination with centers in p^-den_exp Z."""
    terms: list[tuple[Ball, complex]] = []
    for _ in range(rng.randint(1, max_balls)):
        e = rng.randint(*radius_range)
        center = tuple(
            Fraction(rng.randint(-(p**2), p**2), p ** rng.randint(0, den_exp))
            for _ in range(n)
        )
        ball = Ball.of(p, center, e)
        if any(not ball.is_disjoint(b) for b, _ in terms):
            continue
        terms.append((ball, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    if not terms:
        terms.append((Ball.of(p, (0,) * n, 0), 1 + 0j))
    return SchwartzBruhatFn.of(p, terms)


def oracle_vanishes(counts: dict[int, int], p: int, level: int) -> bool:
    """Whether sum_r counts[r] e(r / p^level) = 0, decided over the integers.

    The sum vanishes iff sum_r counts[r] x^r is divisible by the cyclotomic
    polynomial Phi_{p^level}(x) = sum_{j < p} x^(j p^(level-1)); the
    remainder comes from long division with Python ints.
    """
    if level == 0:
        return sum(counts.values()) == 0
    N = p**level
    step = N // p
    deg = (p - 1) * step
    poly = [0] * N
    for r, c in counts.items():
        poly[r % N] += c
    for top in range(N - 1, deg - 1, -1):  # subtract poly[top] x^(top-deg) Phi
        c = poly[top]
        if c:
            for j in range(p):
                poly[top - deg + j * step] -= c
    return not any(poly[:deg])


def oracle_common_zero(polys, p: int, points) -> bool:
    """Whether the polynomials all vanish mod p at some point of `points`,
    one exact evaluation per point and polynomial."""
    return any(all(int(g.evaluate(pt)) % p == 0 for g in polys) for pt in points)


# -- the wave box one condition and one mask at a time ---------------------------


def oracle_windowed_spectrum(spec, xi: tuple, tau: Fraction, R: int, cap: int) -> complex:
    """W_R(xi, tau) one condition at a time, at its own cell level: the cells
    whose centers c satisfy |phi(c) - tau| <= p^-R and |c_d - xi_d| <= p^-R,
    each condition decided from the residues of p^-R (poly(c) - target) over
    that condition's own lattice modulus."""
    p, n, e = spec.prime, spec.n, spec.freq_bound
    d = spec.phi.total_degree()
    level = max(0, e, spec.spectrum.resolution_level, R, R + (d - 1) * max(e, 0))
    idx, vals = spec.cells(level, cap)
    window = Fraction(1, p**R)
    keep = np.ones(len(vals), dtype=bool)
    coordinates = [{tuple(int(j == i) for j in range(n)): 1} for i in range(n)]
    for poly, target in [(spec.phi.scale(1), Fraction(tau)), *zip(coordinates, xi)]:
        scaled = {a: c * window for a, c in poly.items()}
        terms, K = lattice_form(scaled, (0,) * n, Fraction(p) ** -e, p)
        modulus = checked_modulus(p**K, "phase denominator")
        r = poly_residues(terms.items(), list(idx.T), modulus)
        shift = Fraction(target) * window * modulus
        if shift.denominator != 1:
            return 0j
        keep &= r == shift.numerator % modulus
    vol = Fraction(1, p ** (n * level))
    return complex(vals[keep].sum()) * float(vol * p ** (R * (n + 1)))


def oracle_masked_norm(grid, sigma: float, R: int) -> float:
    """The L^sigma norm of a solution grid over the sub-box ||x||, |t| <= p^R,
    by boolean masks of the indices divisible by p^(grid.R - R) and unscaled
    powers |u|^sigma; a cell wider than the sub-box is cut to its width."""
    steps = grid.R - R
    p = grid.prime

    def mask(count: int) -> np.ndarray:
        if steps <= 0 or count == 1:
            return np.ones(count, dtype=bool)
        return np.arange(count) % p**steps == 0

    tmask, axis = mask(len(grid.t_reps)), mask(len(grid.x_axis))
    xmask = axis
    for _ in range(grid.n - 1):
        xmask = np.logical_and.outer(xmask, axis).ravel()
    sub = grid.values[np.ix_(tmask, xmask)]
    if sigma == math.inf:
        return float(np.max(np.abs(sub)))
    box = p**R
    cell = min(grid.x_cell_vol, box**grid.n) * min(grid.t_cell_vol, box)
    total = float(np.sum(np.abs(sub) ** sigma) * cell)
    return total ** (1.0 / sigma)


# -- value tables read by the analysis functions --------------------------------
# These call the library's evaluators (they are inputs, not oracles): the fits,
# certificates and decay tables take such a table instead of evaluating sums.


def expsum_values(f: SparsePolynomial, ball: Ball, levels) -> dict[int, complex]:
    """{m: E_A(p^-m, f)} for m in levels."""
    p = ball.prime
    return {m: exp_sum(f, Fraction(1, p**m), ball).value for m in levels}


def ray_values(Y: GraphHypersurface, direction, levels) -> dict[int, complex]:
    """{k: hat(d mu_Y)(p^-k * direction)} for k in levels."""
    p = Y.prime
    return {k: surface_ft(Y, [Fraction(c, p**k) for c in direction]) for k in levels}

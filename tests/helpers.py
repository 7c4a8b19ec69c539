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

from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import SparsePolynomial
from padic_dispersion.schwartz import SchwartzBruhatFn


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

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
from itertools import combinations, product

import numpy as np

from padic_dispersion.cli import JobConfig
from padic_dispersion.expsums import _NODE_COST, _TERM_COST, exp_sum
from padic_dispersion.newton import Facet, NewtonPolyhedron, face_polynomials
from padic_dispersion.padic import Ball, split_p_part
from padic_dispersion.polynomials import (
    SparsePolynomial,
    checked_modulus,
    compose_affine,
    lattice_form,
    poly_residues,
)
from padic_dispersion.schwartz import (
    ModulatedSBFn,
    SchwartzBruhatFn,
    _disjointify,
    fourier_sb,
    lp_norm,
)
from padic_dispersion.surface import GraphHypersurface, ray_values  # noqa: F401 (re-exported)


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


def echelon_form(rows: list[list[int]], m: int) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of rows of length m, over Q and without
    its zero rows, and its pivot columns."""
    mat = [[Fraction(v) for v in row] for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(m):
        rank = len(pivots)
        hit = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [v - c * w for v, w in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def echelon_rank(rows: list[list[int]]) -> int:
    return len(echelon_form(rows, len(rows[0]) if rows else 0)[1])


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



def compact_facets(P: NewtonPolyhedron) -> tuple[Facet, ...]:
    """The facets whose normals are positive in every coordinate."""
    return tuple(fc for fc in P.facets if all(a > 0 for a in fc.normal))


def oracle_facets(f: SparsePolynomial) -> set[tuple[tuple[int, ...], int, tuple]]:
    """Every facet, coordinate and m(a) = 0 ones included, as (normal, m(a),
    vertices) by scanning every primitive non-negative normal in a box.

    A normal's face is the support points where <a, l> is least plus the
    rays e_i with a_i = 0; the normal is a facet's when that face has
    dimension m - 1.  A facet normal is the primitive perpendicular of m - 1
    independent rows among the support differences and the unit rays, so
    each entry is at most an (m - 1)-minor of them, and Hadamard's bound
    (the product of the m - 1 longest such rows) sizes the box.  A normal
    whose face holds fewer than m - #zeros(a) support points is dropped
    before its rank is taken, and each face's rank is taken once.
    """
    supp = sorted(f.support())
    m = f.nvars
    squares = sorted(
        [sum((x - y) ** 2 for x, y in zip(a, b)) for i, a in enumerate(supp) for b in supp[i + 1 :]]
        + [1] * m,
        reverse=True,
    )
    side = math.isqrt(math.prod(squares[: m - 1])) + 1
    points = np.array(supp, dtype=np.int64)
    tail = np.indices((side,) * (m - 1)).reshape(m - 1, side ** (m - 1)).T
    found, rank = set(), {}
    for lead in range(side):
        normals = np.column_stack([np.full(len(tail), lead), tail]).astype(np.int64)
        values = (normals[:, None, :] * points[None, :, :]).sum(axis=2)
        least = values.min(axis=1)
        on_count = (values == least[:, None]).sum(axis=1)
        keep = on_count >= m - (normals == 0).sum(axis=1)
        keep[keep] = np.gcd.reduce(normals[keep], axis=1) == 1
        for a, mval in zip(normals[keep].tolist(), least[keep].tolist()):
            on = tuple(pt for pt in supp if sum(x * y for x, y in zip(a, pt)) == mval)
            zero = tuple(i for i, ai in enumerate(a) if ai == 0)
            if (on, zero) not in rank:
                rows = [[x - y for x, y in zip(pt, on[0])] for pt in on[1:]]
                rows += [[int(j == i) for j in range(m)] for i in zero]
                rank[on, zero] = echelon_rank(rows)
            if rank[on, zero] == m - 1:
                found.add((tuple(a), mval, on))
    return found


# the 84 monomials of degree 6 in 4 variables, all minimal: a facet search over
# them is charged 84 * (C(84, 4) + 4 C(84, 3) + 6 C(84, 2) + 4 * 84) = 195878676 units
DEGREE_SIX_IN_FOUR = " + ".join(
    "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e) if a)
    for e in product(range(7), repeat=4)
    if sum(e) == 6
)


def oracle_facets_by_subsets(f: SparsePolynomial) -> list[tuple[tuple[int, ...], int, tuple]]:
    """Every facet as (normal, m(a), vertices), sorted by normal, by trying
    every k coordinate rays with every m - k support points, dominated points
    included.  Where the m - 1 spanning rows leave a line of perpendiculars,
    its primitive non-negative generator is a facet normal iff the subset's
    own points attain min <a, l> over the support.  The box scan
    `oracle_facets` is too slow past four variables; this one is too slow
    past a handful of points in six."""
    supp = sorted(f.support())
    m = f.nvars
    found = {}
    for k in range(m):
        for rays in combinations(range(m), k):
            for pts in combinations(supp, m - k):
                rows = [[x - y for x, y in zip(pt, pts[0])] for pt in pts[1:]]
                rows += [[int(j == i) for j in range(m)] for i in rays]
                reduced, pivots = echelon_form(rows, m)
                if len(pivots) != m - 1:
                    continue
                free = next(c for c in range(m) if c not in pivots)
                line = [Fraction(int(c == free)) for c in range(m)]
                for row, col in zip(reduced, pivots):
                    line[col] = -row[free]
                scale = math.lcm(*(v.denominator for v in line))
                a = [int(v * scale) for v in line]
                g = math.gcd(*a) * (-1 if max(a) <= 0 else 1)
                a = tuple(v // g for v in a)
                values = [sum(x * y for x, y in zip(a, pt)) for pt in supp]
                mval = sum(x * y for x, y in zip(a, pts[0]))
                if min(a) >= 0 and min(values) == mval:
                    on = tuple(pt for pt, v in zip(supp, values) if v == mval)
                    found[a] = (a, mval, on)
    return [found[a] for a in sorted(found)]


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


def oracle_compose_affine(
    coeffs: dict, center, step: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """sum_a c_a * prod_i (center_i + step*y_i)^(a_i) expanded in y, one
    binomial factor at a time in Fractions, each key inserted where it first
    gets a nonzero term."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in coeffs.items():
        partial: dict[tuple[int, ...], Fraction] = {(): Fraction(coeff)}
        for ci, ai in zip(center, exps, strict=True):
            ci = Fraction(ci)
            powers = [math.comb(ai, k) * ci ** (ai - k) * step**k for k in range(ai + 1)]
            nxt: dict[tuple[int, ...], Fraction] = {}
            for stem, c in partial.items():
                for k, w in enumerate(powers):
                    if w == 0 and not (ai == 0 and k == 0):
                        continue
                    key = stem + (k,)
                    nxt[key] = nxt.get(key, Fraction(0)) + c * w
            partial = nxt
        for key, c in partial.items():
            if c != 0:
                out[key] = out.get(key, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


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
            if b == 0:
                continue
            rel = max(rel, -split_p_part(b, p)[1] - (e0 if j < len(mod) - 1 else w_phi))
    return e0 + rel


def oracle_restriction_ratio(g: SchwartzBruhatFn, Y: GraphHypersurface, rho: float) -> float:
    """(int_Y |Fg|^2 dmu_{Y,S})^(1/2) / ||g||_rho, point by point: Fg is
    evaluated with `value_at` at one exact graph point per coset of S' at the
    constancy scale of `oracle_graph_constancy_level`, modulations included."""
    p = Y.prime
    base = Y.base_window
    Fg = fourier_sb(g)
    level = oracle_graph_constancy_level(Y, Fg)
    m, e0, center = base.dim, base.radius_exp, base.center_fractions()
    step = Fraction(p) ** e0
    cell_vol = float(Fraction(p) ** (-m * level))
    total = 0.0
    for t in product(range(p ** (level - e0)), repeat=m):
        x = tuple(c + step * ti for c, ti in zip(center, t))
        total += abs(Fg.value_at(x + (Fraction(Y.phi.evaluate(x)),))) ** 2 * cell_vol
    return math.sqrt(total) / lp_norm(g, rho)


# -- conversions only the tests read ---------------------------------------------


def config_from_dict(d: dict) -> JobConfig:
    """The JobConfig that `JobConfig.to_dict` wrote, ranges as tuples again."""
    d = dict(d)
    for key in ("m_range", "k_range"):
        if d.get(key) is not None:
            d[key] = tuple(d[key])
    return JobConfig(**d)


def complex_value(angle: Fraction) -> complex:
    """e(angle) = exp(2 pi i angle) as a complex number."""
    return cmath.exp(2j * math.pi * angle)


def translated(g: SchwartzBruhatFn, shift) -> SchwartzBruhatFn:
    """g(x - shift): every ball center moves by shift."""
    terms = [
        (Ball.of(g.prime, [x + s for x, s in zip(b.center_fractions(), shift)], b.radius_exp), c)
        for b, c in g.terms
    ]
    return SchwartzBruhatFn(g.n, g.prime, terms)


def to_schwartz(G: ModulatedSBFn) -> SchwartzBruhatFn:
    """G with its modulations folded into locally constant coefficients."""
    raw = (G.denom, G.radii, G.idx, G.mdenom, G.mods, G.coeffs)
    return _disjointify(G.prime, G.n, raw, plain=True)


def oracle_den_exps(nums: np.ndarray, denom: int, p: int) -> np.ndarray:
    """`schwartz._den_exps` by one division per power of p: per row of
    nums / p^denom, the least k with the row in p^-k Z^n (denom - 2^20 for 0)."""
    g = np.gcd.reduce(nums, axis=-1)
    v, g = np.where(g == 0, 1 << 20, 0), np.where(g == 0, 1, g)
    while (div := g % p == 0).any():
        v, g = v + div, np.where(div, g // p, g)
    return denom - v


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


def column_mean(column, p: int) -> complex:
    """sum_r column[r] e(r / N) / sum_r column[r], N = len(column) = p^L, split
    as r = b p^ceil(L/2) + a: the evaluation of one count column by the
    histogram engine, kept as the reference of the stationary-point sums."""
    column = np.asarray(column, dtype=np.int64)
    size, split = len(column), 1
    while split * split < size:
        split *= p
    inner = np.exp(2j * np.pi / size * np.arange(split))
    outer = np.exp(2j * np.pi / (size // split) * np.arange(size // split))
    rows = np.einsum("ba,a->b", column.reshape(-1, split), inner)
    return complex((rows * outer).sum()) / int(column.sum())


def column_vanishes(column, p: int) -> bool:
    """The cyclotomic column test: column[r] = column[r + N/p] for every r."""
    if len(column) == 1:
        return False
    rows = np.asarray(column).reshape(p, -1)
    return bool((rows == rows[0]).all())


def dense_column_value(res) -> complex:
    """An ExpSumResult's value evaluated from its count columns `res.dense`:
    exactly 0j when a column passes the cyclotomic test, else volume *
    e(const / p^level) * prod_j column_mean(dense[:, j]) ** powers[j]."""
    p = res.prime
    if any(column_vanishes(column, p) for column in res.dense.T):
        return 0j
    value = float(res.volume) * cmath.exp(2j * math.pi * (res.const / p**res.level))
    for column, k in zip(res.dense.T, res.powers):
        value *= column_mean(column, p) ** k
    return value


def oracle_common_zero(polys, p: int, points) -> bool:
    """Whether the polynomials all vanish mod p at some point of `points`,
    one exact evaluation per point and polynomial."""
    return any(all(int(g.evaluate(pt)) % p == 0 for g in polys) for pt in points)


def oracle_verdict(f: SparsePolynomial, P: NewtonPolyhedron, p: int) -> str:
    """The mod-p non-degeneracy verdict point by point: the reduced gradient
    at every nonzero point of F_p^m, then each face polynomial of
    `face_polynomials`, in its order, with its gradient at every point of
    the torus (F_p^*)^m."""
    def vanishes(g):
        return all(c % p == 0 for _, c in g.terms)

    grad = f.gradient()
    if vanishes(f) or all(vanishes(g) for g in grad):
        return "indeterminate"
    nonzero = [pt for pt in product(range(p), repeat=f.nvars) if any(pt)]
    if oracle_common_zero(grad, p, nonzero):
        return "degenerate-mod-p"
    torus = list(product(range(1, p), repeat=f.nvars))
    for _, fg in face_polynomials(f, P):
        if vanishes(fg):
            return "indeterminate"
        if oracle_common_zero([fg, *fg.gradient()], p, torus):
            return "degenerate-mod-p"
    return "certified"


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


def out_of_place_masked_norm(grid, sigma: float, R: int) -> float:
    """`wave._masked_norm` as it was before its passes went in place: the
    quotient |u| / max |u| and its power are each a fresh array."""
    stride = (slice(None, None, grid.prime ** (grid.R - R)),) * (grid.n + 1)
    sub = np.abs(grid.values.reshape(grid.shape)[stride])
    top = float(sub.max())
    if sigma == math.inf or top == 0:
        return top
    box = float(Fraction(grid.prime) ** R)
    weights = min(grid.x_cell_vol, box**grid.n) * min(grid.t_cell_vol, box)
    with np.errstate(over="ignore"):
        return float(top * np.float64(np.sum((sub / top) ** sigma) * weights) ** (1.0 / sigma))


# -- value tables read by the analysis functions --------------------------------
# These call the library's evaluators (they are inputs, not oracles): the fits,
# certificates and decay tables take such a table instead of evaluating sums.
# `ray_values` is the library's own table of surface transforms, imported above.


def expsum_values(f: SparsePolynomial, ball: Ball, levels) -> dict[int, complex]:
    """{m: E_A(p^-m, f)} for m in levels."""
    p = ball.prime
    return {m: exp_sum(f, Fraction(1, p**m), ball).value for m in levels}



def x1_x2_work(m: int) -> int:
    """The work of E(3^-m, x1 x2), m odd: h(3y) = 9 y1 y2 is x1 x2 again, so
    the nodes are the levels m, m - 2, ..., 1.  Each has 3^2 mesh points;
    one charge for the node and one per term it evaluates there (grad h =
    (x2, x1) above level 1, h at level 1); one charge and four formed terms
    for its stationary class (0, 0) above level 1; and three tally entries
    merged at each, the mesh residues {0, 1, 2} of level 1."""
    node, term, above = _NODE_COST, _TERM_COST, (m - 1) // 2
    level_one = 9 + 2 * node + 3 * term
    return level_one + above * (9 + 3 * node + node + 4 * term + 3 * term)


def x1_x2_count_work(m: int) -> int:
    """The work of the counts of x1 x2 mod 3^m: the nodes of `x1_x2_work` at
    the levels m, m - 2, ... above 1, each with its 3^k entries and without
    the tally entries it would merge; and the level-1 node, read by each for
    its classes with a unit gradient: its mesh, node and term, and 3 entries."""
    node, term = _NODE_COST, _TERM_COST
    above = sum(9 + 3 * node + node + 4 * term + 3**k for k in range(m, 1, -2))
    return above + 9 + 2 * node + 3

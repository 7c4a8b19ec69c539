"""Newton polyhedra of polynomials vanishing at the origin.

The polyhedron of f is the convex hull of the union of l + R_+^m over the
support of f.  Facets carry a primitive non-negative perpendicular a, the
supporting value m(a) = min <a, l> over the support, and the weight
sigma(a) = sum of the entries of a.  The decay exponent is

    beta_f = min sigma(a) / m(a)   over facets with m(a) != 0,

and T0 = (1/beta_f, ..., 1/beta_f) is where the boundary meets the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceCapError
from .polynomials import Exponents, SparsePolynomial, poly_residues

MAX_NEWTON_VARS = 4
DEFAULT_FACE_SCAN_CAP = 10**7


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]
    support_value: int
    weight: int
    vertices: tuple[Exponents, ...]


@dataclass(frozen=True)
class NewtonPolyhedron:
    dim: int
    facets: tuple[Facet, ...]
    support: frozenset[Exponents]

    def compact_facets(self) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if all(a > 0 for a in f.normal))


@dataclass(frozen=True)
class QuasiHomogeneityWitness:
    alpha: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class Face:
    """A proper face, described by the support points on it and the
    coordinate ray directions it contains."""

    support_points: tuple[Exponents, ...]
    rays: tuple[int, ...]
    dim: int


def support(f: SparsePolynomial) -> frozenset[Exponents]:
    _require_vanishing(f)
    return f.support()


def _require_vanishing(f: SparsePolynomial) -> None:
    if f.is_constant():
        raise DomainError("polynomial is constant")
    if f.constant_term != 0:
        raise DomainError("polynomial must satisfy f(0) = 0")


# -- exact linear algebra over Q ---------------------------------------------


def _rref(rows: Sequence[Sequence[int]], m: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: the nonzero reduced rows and their
    pivot columns, so the rank is len(pivots)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(m):
        top = len(pivots)
        hit = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        lead = mat[top][col]
        mat[top] = [a / lead for a in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _nullspace_vector(rows: Sequence[Sequence[int]], m: int) -> tuple[int, ...] | None:
    """The primitive integer basis vector of the nullspace if it is
    one-dimensional, else None."""
    reduced, pivots = _rref(rows, m)
    if m - len(pivots) != 1:
        return None
    free_col = next(c for c in range(m) if c not in pivots)
    vec = [Fraction(0)] * m
    vec[free_col] = Fraction(1)
    for row, col in zip(reduced, pivots):
        vec[col] = -row[free_col]
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _span_rows(points: Sequence[Exponents], rays: Sequence[int], m: int) -> list[list[int]]:
    """Differences from the first point plus the ray unit vectors: they span
    the directions of conv(points) + cone{e_i : i in rays}."""
    return [[a - b for a, b in zip(pt, points[0])] for pt in points[1:]] + [
        [1 if j == i else 0 for j in range(m)] for i in rays
    ]


def _face_dim(points: Sequence[Exponents], rays: Sequence[int], m: int) -> int:
    """Dimension of conv(points) + cone{e_i : i in rays}."""
    return len(_rref(_span_rows(points, rays, m), m)[1])


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def newton_facets(f: SparsePolynomial) -> NewtonPolyhedron:
    """Complete facet list of the Newton polyhedron of f.

    Candidate perpendiculars are read off exact nullspaces of systems built
    from subsets of support points together with coordinate rays, then each
    candidate is kept iff its face has dimension m - 1 (the H-description
    criterion).  Coordinate facets (possibly with m(a) = 0) are included.
    """
    _require_vanishing(f)
    m = f.nvars
    if m > MAX_NEWTON_VARS:
        raise DomainError(f"facet enumeration capped at {MAX_NEWTON_VARS} variables")
    supp = sorted(f.support())
    seen: set[tuple[int, ...]] = set()
    facets: list[Facet] = []
    for k in range(m):
        for rays in combinations(range(m), k):
            for pts in combinations(supp, m - k):
                rows = _span_rows(pts, rays, m)
                normal = _nullspace_vector(rows, m) if rows else (1,) * m
                if normal is None:
                    continue
                if all(a <= 0 for a in normal):
                    normal = tuple(-a for a in normal)
                if any(a < 0 for a in normal) or normal in seen:
                    continue
                seen.add(normal)
                values = [_dot(normal, pt) for pt in supp]
                mval = min(values)
                on = tuple(pt for pt, v in zip(supp, values) if v == mval)
                zero = [i for i, a in enumerate(normal) if a == 0]
                if _face_dim(on, zero, m) == m - 1:
                    facets.append(Facet(normal, mval, sum(normal), on))
    facets.sort(key=lambda fc: fc.normal)
    return NewtonPolyhedron(m, tuple(facets), frozenset(supp))


def beta_and_t0(P: NewtonPolyhedron) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(beta_f, T0) from the facet data, both exact."""
    ratios = [
        Fraction(fc.weight, fc.support_value)
        for fc in P.facets
        if fc.support_value != 0
    ]
    if not ratios:
        raise DegenerateInputError("no facet with m(a) != 0")
    beta = min(ratios)
    t0 = (1 / beta,) * P.dim
    return beta, t0


def quasi_homogeneous_detect(
    f: SparsePolynomial, bound: int = 32
) -> QuasiHomogeneityWitness | None:
    """Smallest (d, alpha) with <alpha, l> = d on the support, or None.

    Witnesses are normalised to gcd(alpha, d) = 1.  When the solution space
    of <alpha, l_i - l_0> = 0 is a line, its primitive positive generator is
    the unique normalised witness; otherwise the search walks d upward over
    the alpha in [1, bound]^m of degree d and stops at the first gcd-1 one.
    """
    _require_vanishing(f)
    supp = sorted(f.support())
    m = f.nvars
    nulldim = m - _face_dim(supp, (), m)
    if nulldim == 0:
        return None
    if nulldim == 1:
        gen = _nullspace_vector(_span_rows(supp, (), m), m)
        if all(a < 0 for a in gen):
            gen = tuple(-a for a in gen)
        if any(a <= 0 for a in gen):
            return None
        return QuasiHomogeneityWitness(gen, _dot(gen, supp[0]))
    for d in range(sum(supp[0]), bound * sum(supp[0]) + 1):
        for alpha in _weights_of_degree(supp, d, bound):
            if math.gcd(d, *alpha) == 1:
                return QuasiHomogeneityWitness(alpha, d)
    return None


def _weights_of_degree(
    supp: Sequence[Exponents], d: int, bound: int
) -> Iterable[tuple[int, ...]]:
    """Every alpha in [1, bound]^m with <alpha, l_0> = d and <alpha, l - l_0> = 0
    on the support, in lexicographic order.

    Coordinates are fixed one at a time; a prefix is dropped as soon as some
    constraint is out of reach of every completion in [1, bound].
    """
    m = len(supp[0])
    rows = [supp[0]] + [tuple(a - b for a, b in zip(pt, supp[0])) for pt in supp[1:]]
    targets = [d] + [0] * (len(rows) - 1)
    reach = [
        [(sum(min(v, bound * v) for v in row[j:]), sum(max(v, bound * v) for v in row[j:]))
         for row in rows]
        for j in range(m + 1)
    ]

    def walk(j: int, alpha: tuple[int, ...], sums: list[int]):
        if j == m:
            yield alpha
            return
        for a in range(1, bound + 1):
            nxt = [s + a * row[j] for s, row in zip(sums, rows)]
            if all(s + lo <= t <= s + hi for s, (lo, hi), t in zip(nxt, reach[j + 1], targets)):
                yield from walk(j + 1, alpha + (a,), nxt)

    return walk(0, (), [0] * len(rows))


def face_polynomials(
    f: SparsePolynomial, P: NewtonPolyhedron
) -> list[tuple[Face, SparsePolynomial]]:
    """All proper faces (every dimension) with their face polynomials f_gamma,
    ordered by (dim, support_points, rays).

    Every proper face is an intersection of facets.  The walk starts from
    each facet as (support points on it, rays its normal is zero on) and
    intersects every face found with every facet until nothing new appears.
    """
    m = P.dim
    facets = [
        (frozenset(fc.vertices), frozenset(i for i, a in enumerate(fc.normal) if a == 0))
        for fc in P.facets
    ]
    found = set(facets)
    frontier = list(found)
    while frontier:
        meets = {(pts & on, rays & zero) for pts, rays in frontier for on, zero in facets}
        frontier = [face for face in meets if face[0] and face not in found]
        found.update(frontier)
    faces = []
    for pts, rays in found:
        pts, rays = tuple(sorted(pts)), tuple(sorted(rays))
        faces.append(Face(pts, rays, _face_dim(pts, rays, m)))
    faces.sort(key=lambda fc: (fc.dim, fc.support_points, fc.rays))
    coeff = dict(f.terms)
    return [
        (face, SparsePolynomial.from_terms(f.nvars, {pt: coeff[pt] for pt in face.support_points}))
        for face in faces
    ]


Verdict = Literal["certified", "degenerate-mod-p", "indeterminate"]


def nondegeneracy_mod_p(
    f: SparsePolynomial, p: int, cap: int = DEFAULT_FACE_SCAN_CAP
) -> Verdict:
    """Sufficient mod-p certificate of non-degeneracy w.r.t. the polyhedron.

    "certified" requires (i) the reduced gradient to have no nonzero common
    zero in F_p^m and (ii) no face polynomial to share a zero with its
    gradient inside the torus (F_p^*)^m.  When the reduction collapses
    (f or its gradient vanishes identically mod p) the verdict is
    "indeterminate"; a failure is only ever reported mod p.
    """
    _require_vanishing(f)
    m = f.nvars
    if p**m > cap:
        raise ResourceCapError(p**m, cap, what="points of F_p^m")
    grad = f.gradient()
    if _is_zero_mod(f, p) or all(_is_zero_mod(g, p) for g in grad):
        return "indeterminate"
    if has_nonzero_common_zero(grad, p):
        return "degenerate-mod-p"
    for _, fg in face_polynomials(f, newton_facets(f)):
        if _is_zero_mod(fg, p):
            return "indeterminate"
        if _common_zero([fg, *fg.gradient()], p, 1):
            return "degenerate-mod-p"
    return "certified"


def has_nonzero_common_zero(polys: Sequence[SparsePolynomial], p: int) -> bool:
    """Whether the polynomials share a zero in F_p^m other than the origin."""
    return _common_zero(polys, p, 0)


def _common_zero(polys: Sequence[SparsePolynomial], p: int, lo: int) -> bool:
    """Whether the polynomials all vanish mod p at some point of [lo, p)^m
    other than the origin.  Each polynomial is evaluated on the mesh axes of
    the variables it uses only, and the scan stops once no point is left."""
    m = polys[0].nvars
    mesh = np.ix_(*[np.arange(lo, p, dtype=np.int64)] * m)
    common = np.ones((p - lo,) * m, dtype=bool)
    if lo == 0:
        common[(0,) * m] = False
    for g in polys:
        used = {j for exps, _ in g.terms for j, a in enumerate(exps) if a}
        common &= poly_residues(g.terms, [mesh[j] if j in used else 0 for j in range(m)], p) == 0
        if not common.any():
            return False
    return True


def _is_zero_mod(g: SparsePolynomial, p: int) -> bool:
    return all(c % p == 0 for _, c in g.terms)

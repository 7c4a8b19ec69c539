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
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceCapError
from .padic import check_prime
from .polynomials import Exponents, SparsePolynomial, poly_residues

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


# -- exact integer linear algebra --------------------------------------------


def _reduce(rows: Sequence[Sequence[int]], m: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination: the nonzero rows of
    d times the reduced row echelon form, d the last pivot, and their pivot
    columns.  Every entry is a minor of the input, so each division is exact.
    A swap negates the row it moves down, which keeps the determinant: the
    last pivot of a square matrix of full rank is its determinant."""
    a, prev, pivots = [list(r) for r in rows], 1, []
    for col in range(m):
        top = len(pivots)
        hit = next((i for i in range(top, len(a)) if a[i][col]), None)
        if hit is None:
            continue
        if hit != top:
            a[top], a[hit] = a[hit], [-x for x in a[top]]
        piv = a[top]
        for i in range(len(a)):
            if i != top:
                a[i] = [(piv[col] * x - a[i][col] * y) // prev for x, y in zip(a[i], piv)]
        prev = piv[col]
        pivots.append(col)
    return a[: len(pivots)], pivots


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix (0 below full rank)."""
    reduced, pivots = _reduce(rows, len(rows))
    return reduced[-1][-1] if len(pivots) == len(rows) else 0


def _normal(rows: Sequence[Sequence[int]], m: int) -> tuple[int, ...] | None:
    """The primitive integer generator of the nullspace when it is a line,
    non-negative if it can be, else None.  By Cramer's rule it is d at the
    free column and minus each reduced row's free entry at its pivot, over
    their gcd: for m - 1 independent rows, their cofactor vector up to sign."""
    reduced, pivots = _reduce(rows, m)
    if len(pivots) != m - 1:
        return None
    free = next(c for c in range(m) if c not in pivots)
    vec = [0] * m
    vec[free] = reduced[-1][pivots[-1]] if reduced else 1
    for row, col in zip(reduced, pivots):
        vec[col] = -row[free]
    g = math.gcd(*vec) * (-1 if all(x <= 0 for x in vec) else 1)
    return tuple(x // g for x in vec)


def _span_rows(points: Sequence[Exponents], rays: Sequence[int], m: int) -> list[list[int]]:
    """Differences from the first point plus the ray unit vectors: they span
    the directions of conv(points) + cone{e_i : i in rays}."""
    return [[a - b for a, b in zip(pt, points[0])] for pt in points[1:]] + [
        [1 if j == i else 0 for j in range(m)] for i in rays
    ]


def _face_dim(points: Sequence[Exponents], rays: Sequence[int], m: int) -> int:
    """Dimension of conv(points) + cone{e_i : i in rays}."""
    return len(_reduce(_span_rows(points, rays, m), m)[1])


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def newton_facets(f: SparsePolynomial) -> NewtonPolyhedron:
    """Complete facet list of the Newton polyhedron of f.

    Every facet is spanned by k coordinate rays and m - k vertices, and every
    vertex is one of the M componentwise-minimal support points (any other
    lies in a minimal one + R_+^m).  Each such subset gives a candidate: the
    primitive perpendicular of its m - 1 spanning rows.  A non-negative
    candidate is a facet normal iff the subset's own points attain min <a, l>
    over the support; the facet's vertices are read off the whole support.
    Coordinate facets (possibly with m(a) = 0) are included.  Each of the
    sum_{m-M <= k < m} C(m, k) C(M, m - k) candidates is charged m (m^2 + |supp|)
    units, its elimination and its support test, before the search starts,
    and the search is refused with ResourceCapError past DEFAULT_FACE_SCAN_CAP.
    """
    _require_vanishing(f)
    m = f.nvars
    supp = sorted(f.support())
    # a point below e comes before it in lexicographic order
    minimal = [e for i, e in enumerate(supp) if all(any(map(operator.gt, q, e)) for q in supp[:i])]
    ks = range(max(0, m - len(minimal)), m)
    work = m * (m * m + len(supp)) * sum(math.comb(m, k) * math.comb(len(minimal), m - k) for k in ks)
    if work > DEFAULT_FACE_SCAN_CAP:
        raise ResourceCapError(work, DEFAULT_FACE_SCAN_CAP, what="facet search units")
    facets: dict[tuple[int, ...], Facet] = {}
    for k in ks:
        for rays in combinations(range(m), k):
            for pts in combinations(minimal, m - k):
                normal = _normal(_span_rows(pts, rays, m), m)
                if normal is None or any(a < 0 for a in normal) or normal in facets:
                    continue
                mval = _dot(normal, pts[0])
                if all(_dot(normal, pt) >= mval for pt in supp):
                    on = tuple(pt for pt in supp if _dot(normal, pt) == mval)
                    facets[normal] = Facet(normal, mval, sum(normal), on)
    return NewtonPolyhedron(m, tuple(facets[a] for a in sorted(facets)), frozenset(supp))


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


def quasi_homogeneous_detect(P: NewtonPolyhedron) -> QuasiHomogeneityWitness | None:
    """A witness (d, alpha) with every alpha_i >= 1 and <alpha, l> = d on
    the support of P, normalised to gcd(d, alpha) = 1, or None when no
    positive weights exist.

    A positive alpha that is constant on the support attains its minimum
    over P on a face holding the whole support, so it lies in that face's
    normal cone, spanned by the normals of the facets through every support
    point.  Those normals are non-negative, so some alpha > 0 exists iff
    their sum is positive, and the sum is the witness.  When the weights
    form a line (or f is a monomial) this is the least-degree witness; when
    they do not, the degree is not always the least.
    """
    through = [fc.normal for fc in P.facets if len(fc.vertices) == len(P.support)]
    alpha = [sum(col) for col in zip(*through)]
    if not alpha or min(alpha) <= 0:
        return None
    d = _dot(alpha, next(iter(P.support)))
    g = math.gcd(d, *alpha)
    return QuasiHomogeneityWitness(tuple(a // g for a in alpha), d // g)


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
    f: SparsePolynomial, P: NewtonPolyhedron, p: int, cap: int = DEFAULT_FACE_SCAN_CAP
) -> Verdict:
    """Sufficient mod-p certificate of non-degeneracy w.r.t. the polyhedron
    P of f.

    "certified" requires (i) `critical_locus_mod_p(f, p)` to be "certified"
    and (ii) no face polynomial to share a zero with its gradient inside the
    torus (F_p^*)^m; a face c x^l, p not dividing c, has none.  When the
    reduction collapses (the gradient of f or a face polynomial vanishes
    identically mod p) the verdict is "indeterminate"; a failure is only
    ever reported mod p.
    """
    _require_vanishing(f)
    check_prime(p)
    m = f.nvars
    if p**m > cap:
        raise ResourceCapError(p**m, cap, what="points of F_p^m")
    verdict = critical_locus_mod_p(f, p)
    if verdict != "certified":
        return verdict
    powers: dict[tuple[int, int], np.ndarray] = {}
    for face, fg in face_polynomials(f, P):
        if _is_zero_mod(fg, p):
            return "indeterminate"
        if len(face.support_points) > 1 and _common_zero([fg, *fg.gradient()], p, 1, powers):
            return "degenerate-mod-p"
    return "certified"


def critical_locus_mod_p(f: SparsePolynomial, p: int) -> Verdict:
    """The critical locus of f mod p: "indeterminate" when the gradient of f
    vanishes identically mod p, "degenerate-mod-p" when it has a common zero
    in F_p^m other than the origin, "certified" otherwise.  The scan visits
    p^m points; the caller bounds it."""
    check_prime(p)
    grad = f.gradient()
    if all(_is_zero_mod(g, p) for g in grad):
        return "indeterminate"
    return "degenerate-mod-p" if _common_zero(grad, p, 0, {}) else "certified"


def _common_zero(polys: Sequence[SparsePolynomial], p: int, lo: int, powers: dict) -> bool:
    """Whether the polynomials all vanish mod p at some point of [lo, p)^m
    other than the origin.  Each polynomial is evaluated on the mesh axes of
    the variables it uses only, and the scan stops once no point is left.
    `powers` keeps x_j^e mod p on axis j for the scans of one mesh; since
    x^p = x on F_p, x^a = x^e with e = 1 + (a - 1) mod (p - 1)."""
    m = polys[0].nvars
    mesh = np.ix_(*[np.arange(lo, p, dtype=np.int64)] * m)
    common = np.ones((p - lo,) * m, dtype=bool)
    if lo == 0:
        common[(0,) * m] = False
    for g in polys:
        total = 0
        for exps, c in g.terms:
            term = c % p
            for j, a in enumerate(exps):
                if a:
                    key = (j, 1 + (a - 1) % (p - 1))
                    if key not in powers:
                        powers[key] = poly_residues([(key[1:], 1)], [mesh[j]], p)
                    term = term * powers[key] % p
            total = (total + term) % p
        common &= total == 0
        if not common.any():
            return False
    return True


def _is_zero_mod(g: SparsePolynomial, p: int) -> bool:
    return all(c % p == 0 for _, c in g.terms)

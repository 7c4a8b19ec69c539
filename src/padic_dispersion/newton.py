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
from itertools import combinations, product
from typing import Literal, Sequence

from .errors import DegenerateInputError, DomainError, ResourceCapError
from .polynomials import Exponents, SparsePolynomial

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


def _rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _nullspace_vector(rows: list[list[int]], m: int) -> tuple[int, ...] | None:
    """A basis vector of the nullspace if it is one-dimensional, else None."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [a / inv for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append((rank, col))
        rank += 1
    if m - rank != 1:
        return None
    free_col = next(c for c in range(m) if c not in {col for _, col in pivots})
    vec = [Fraction(0)] * m
    vec[free_col] = Fraction(1)
    for row, col in pivots:
        vec[col] = -mat[row][free_col]
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _facet_dimension(
    normal: Sequence[int], points_on: Sequence[Exponents], m: int
) -> int:
    """Dimension of conv(points_on) + cone{e_i : normal_i = 0}."""
    rows: list[list[int]] = []
    base = points_on[0]
    for pt in points_on[1:]:
        rows.append([a - b for a, b in zip(pt, base)])
    for i, a in enumerate(normal):
        if a == 0:
            rows.append([1 if j == i else 0 for j in range(m)])
    if not rows:
        return 0
    return _rank(rows)


def _is_facet_normal(
    normal: Sequence[int], supp: Sequence[Exponents], m: int
) -> tuple[bool, int, tuple[Exponents, ...]]:
    values = [sum(a * l for a, l in zip(normal, pt)) for pt in supp]
    mval = min(values)
    on = tuple(pt for pt, v in zip(supp, values) if v == mval)
    return _facet_dimension(normal, on, m) == m - 1, mval, on


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
                rows = [
                    [a - b for a, b in zip(pt, pts[0])] for pt in pts[1:]
                ]
                rows += [
                    [1 if j == i else 0 for j in range(m)] for i in rays
                ]
                normal = _nullspace_vector(rows, m) if rows else (1,) * m
                if normal is None:
                    continue
                if all(a <= 0 for a in normal):
                    normal = tuple(-a for a in normal)
                if any(a < 0 for a in normal) or all(a == 0 for a in normal):
                    continue
                if normal in seen:
                    continue
                seen.add(normal)
                ok, mval, on = _is_facet_normal(normal, supp, m)
                if ok:
                    facets.append(
                        Facet(normal, mval, sum(normal), on)
                    )
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
    the unique normalised witness; otherwise the search falls back to a scan
    of alpha in [1, bound]^m.
    """
    _require_vanishing(f)
    supp = sorted(f.support())
    base = supp[0]
    m = f.nvars
    rows = [[a - b for a, b in zip(pt, base)] for pt in supp[1:]]
    nulldim = m - (_rank(rows) if rows else 0)
    if nulldim == 0:
        return None
    if nulldim == 1:
        gen = _nullspace_vector(rows, m)
        if gen is None:
            return None
        if all(a < 0 for a in gen):
            gen = tuple(-a for a in gen)
        if any(a <= 0 for a in gen):
            return None
        d = sum(a * l for a, l in zip(gen, base))
        return QuasiHomogeneityWitness(gen, d)
    best: tuple[int, tuple[int, ...]] | None = None
    for alpha in product(range(1, bound + 1), repeat=m):
        d = sum(a * l for a, l in zip(alpha, base))
        if any(sum(a * l for a, l in zip(alpha, pt)) != d for pt in supp[1:]):
            continue
        if math.gcd(d, *alpha) != 1:
            continue
        if best is None or (d, alpha) < best:
            best = (d, alpha)
    if best is None:
        return None
    return QuasiHomogeneityWitness(best[1], best[0])


def face_polynomials(
    f: SparsePolynomial, P: NewtonPolyhedron
) -> list[tuple[Face, SparsePolynomial]]:
    """All proper faces (every dimension) with their face polynomials f_gamma."""
    m = P.dim
    by_key: dict[tuple[frozenset, frozenset], Face] = {}
    for size in range(1, len(P.facets) + 1):
        for chosen in combinations(P.facets, size):
            pts = tuple(
                pt
                for pt in sorted(P.support)
                if all(
                    sum(a * l for a, l in zip(fc.normal, pt)) == fc.support_value
                    for fc in chosen
                )
            )
            if not pts:
                continue
            rays = tuple(
                i for i in range(m) if all(fc.normal[i] == 0 for fc in chosen)
            )
            key = (frozenset(pts), frozenset(rays))
            if key in by_key:
                continue
            by_key[key] = Face(pts, rays, _face_dim(pts, rays, m))
    out = []
    coeff = dict(f.terms)
    for face in sorted(by_key.values(), key=lambda fc: (fc.dim, fc.support_points)):
        fg = SparsePolynomial.from_terms(
            f.nvars, {pt: coeff[pt] for pt in face.support_points}
        )
        out.append((face, fg))
    return out


def _face_dim(points: Sequence[Exponents], rays: Sequence[int], m: int) -> int:
    rows: list[list[int]] = []
    for pt in points[1:]:
        rows.append([a - b for a, b in zip(pt, points[0])])
    for i in rays:
        rows.append([1 if j == i else 0 for j in range(m)])
    return _rank(rows) if rows else 0


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
    if all(_is_zero_mod(g, p) for g in grad):
        return "indeterminate"
    if _is_zero_mod(f, p):
        return "indeterminate"

    if has_nonzero_common_zero(grad, p):
        return "degenerate-mod-p"

    P = newton_facets(f)
    for face, fg in face_polynomials(f, P):
        if _is_zero_mod(fg, p):
            return "indeterminate"
        grad_g = fg.gradient()
        for point in product(range(1, p), repeat=m):
            if fg.eval_mod(point, p, 1) != 0:
                continue
            if all(g.eval_mod(point, p, 1) == 0 for g in grad_g):
                return "degenerate-mod-p"
    return "certified"


def has_nonzero_common_zero(polys: Sequence[SparsePolynomial], p: int) -> bool:
    """Whether the polynomials share a zero in F_p^m other than the origin."""
    return any(
        any(point) and all(g.eval_mod(point, p, 1) == 0 for g in polys)
        for point in product(range(p), repeat=polys[0].nvars)
    )


def _is_zero_mod(g: SparsePolynomial, p: int) -> bool:
    return all(c % p == 0 for _, c in g.terms)

"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions, apart from the library: a
direct Riemann sum for one-variable integrals over Z_p, closed forms that
follow from them (monomial recurrences, Gauss-sum moduli, transforms of ball
indicators), brute-force residue counts, a 2-D Newton-polygon hull and a
brute-force mod-p non-degeneracy scan.  Only `fractions`, `math`, `cmath`
and `numpy` are used.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np

Poly1 = dict[int, Fraction]  # exponent -> coefficient, one variable
_CHUNK = 1 << 16


def val(x: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def psi(x: Fraction, p: int) -> complex:
    """exp(2 pi i {x}_p) for x with a p-power denominator."""
    x = Fraction(x)
    den = x.denominator
    if den == 1:
        return 1 + 0j
    return cmath.exp(2j * math.pi * (x.numerator % den) / den)


def in_ball(point, center, radius_exp: int, p: int) -> bool:
    """point in center + (p^radius_exp Z_p)^n."""
    for x, c in zip(point, center, strict=True):
        v = val(Fraction(x) - Fraction(c), p)
        if v is not None and v < radius_exp:
            return False
    return True


def ball_volume(n: int, radius_exp: int, p: int) -> Fraction:
    return Fraction(p) ** (-n * radius_exp)


# -- one-variable oscillatory integrals ----------------------------------------


def integral_zp(poly: Poly1, p: int) -> complex:
    """int_{Z_p} Psi(sum_k c_k y^k) dy as a direct Riemann sum.

    With M = p^L and L the largest denominator exponent, the integrand is
    constant on cosets of p^L Z_p, so the sum over y in [0, M) is exact up
    to float rounding.
    """
    poly = {k: Fraction(c) for k, c in poly.items() if c != 0}
    L = max([0] + [-(val(c, p)) for c in poly.values() if val(c, p) < 0])
    M = p**L
    if M == 1:
        return 1 + 0j
    coeffs = [(k, int(c * M) % M) for k, c in poly.items()]
    acc = 0j
    # chunks keep the reference's memory small next to the program's own
    for lo in range(0, M, _CHUNK):
        y = np.arange(lo, min(M, lo + _CHUNK), dtype=np.int64)
        total = np.zeros_like(y)
        for k, coeff in coeffs:
            term = np.full_like(y, coeff)
            for _ in range(k):
                term = term * y % M
            total = (total + term) % M
        acc += complex(np.sum(np.exp(2j * np.pi * total / M)))
    return acc / M


def integral_ball(poly: Poly1, center: Fraction, radius_exp: int, p: int) -> complex:
    """int over center + p^r Z_p of Psi(poly(x)) dx, via x = center + p^r y."""
    h = Fraction(p) ** radius_exp
    shifted: Poly1 = {}
    for k, c in poly.items():
        for j in range(k + 1):
            coeff = Fraction(c) * math.comb(k, j) * Fraction(center) ** (k - j) * h**j
            shifted[j] = shifted.get(j, Fraction(0)) + coeff
    const = shifted.pop(0, Fraction(0))
    return float(ball_volume(1, radius_exp, p)) * psi(const, p) * integral_zp(shifted, p)


def monomial_expsum(d: int, p: int, m: int) -> Fraction:
    """E(p^-m, a x^d) on Z_p for a unit a, p not dividing d, gcd(d, p-1) = 1.

    y -> a y^d permutes the units and has a unit derivative there, so the
    unit part is -1/p at m = 1 and 0 above; the part on p Z_p is
    E_(m-d) / p.  Hence E_1 = 0, E_m = 1/p for 2 <= m <= d, and
    E_m = E_(m-d) / p after that.
    """
    if math.gcd(d, p - 1) != 1 or d % p == 0:
        raise ValueError("closed form needs gcd(d, p-1) = 1 and p not dividing d")
    if m <= 0:
        return Fraction(1)
    unit_part = Fraction(-1, p) if m == 1 else Fraction(0)
    return unit_part + monomial_expsum(d, p, m - d) / p


# -- residue counts --------------------------------------------------------------


def residue_counts(terms: dict[tuple[int, ...], int], n: int, m: int,
                   center: tuple[int, ...], radius_exp: int, p: int) -> dict[int, int]:
    """#{x mod p^m in the ball : f(x) = c mod p^m}, by enumeration."""
    mod = p**m
    width = p ** max(0, m - radius_exp)
    counts: dict[int, int] = {}
    for t in product(range(width), repeat=n):
        x = [c + p**radius_exp * ti for c, ti in zip(center, t)]
        v = 0
        for exps, coeff in terms.items():
            term = coeff
            for xi, a in zip(x, exps):
                term *= xi**a
            v += term
        counts[v % mod] = counts.get(v % mod, 0) + 1
    return counts


# -- Schwartz-Bruhat functions -------------------------------------------------

Term = tuple[tuple[Fraction, ...], int, complex]  # (center, radius exponent, coeff)


def sb_value(terms: list[Term], point, p: int) -> complex:
    return sum((c for a, r, c in terms if in_ball(point, a, r, p)), 0j)


def sb_l2(terms: list[Term], p: int) -> float:
    """||g||_2 of a combination of disjoint balls, from ball volumes."""
    return math.sqrt(sum(abs(c) ** 2 * float(ball_volume(len(a), r, p)) for a, r, c in terms))


def sb_lp(terms: list[Term], rho: float, p: int) -> float:
    total = sum(abs(c) ** rho * float(ball_volume(len(a), r, p)) for a, r, c in terms)
    return total ** (1.0 / rho)


def sb_transform_value(terms: list[Term], xi, p: int) -> complex:
    """(F g)(xi) = int Psi(-[x, xi]) g(x) dx from the closed form

        int over a + p^r Z_p^n of Psi(-[x, xi]) dx
            = Psi(-[a, xi]) p^(-n r) 1{xi in p^(-r) Z_p^n}.
    """
    total = 0j
    for a, r, c in terms:
        if not in_ball(xi, (0,) * len(xi), -r, p):
            continue
        dot = sum((Fraction(ai) * Fraction(x) for ai, x in zip(a, xi)), Fraction(0))
        total += c * float(ball_volume(len(a), r, p)) * psi(-dot, p)
    return total


def solution_value(terms: list[Term], phi: Poly1, x: Fraction, t: Fraction, p: int) -> complex:
    """u(x, t) = int Psi(t phi(xi) + x xi) (F f0)(xi) dxi for 1-D f0.

    Ball by ball, F 1_{a + p^r Z_p} = Psi(-a xi) p^-r 1_{p^-r Z_p}, and
    xi = p^-r y turns each piece into an integral over Z_p.
    """
    total = 0j
    for (a,), r, c in terms:
        s = Fraction(p) ** (-r)
        poly: Poly1 = {k: Fraction(t) * b * s**k for k, b in phi.items()}
        poly[1] = poly.get(1, Fraction(0)) + (Fraction(x) - a) * s
        total += c * integral_zp(poly, p)
    return total


def restriction_ratio(terms: list[Term], phi: Poly1, rho: float, p: int) -> float:
    """(int_{Z_p} |F g(x, phi(x))|^2 dx)^(1/2) / ||g||_rho for 2-D g.

    F g is constant on cosets of p^L Z_p^2 with L the largest of -r and the
    denominator exponents of the centers; phi has integer coefficients, so
    x -> F g(x, phi(x)) is constant on cosets of p^L Z_p.
    """
    L = 0
    for a, r, _ in terms:
        L = max(L, -r, *[-(val(ai, p) or 0) for ai in a])
    M = p**L
    total = 0.0
    for x in range(M):
        y = sum((b * x**k for k, b in phi.items()), Fraction(0))
        total += abs(sb_transform_value(terms, (Fraction(x), y), p)) ** 2
    return math.sqrt(total / M) / sb_lp(terms, rho, p)


# -- Newton polygons in two variables -------------------------------------------


def newton_polygon(support: list[tuple[int, int]]) -> tuple[set, list[tuple[int, int]]]:
    """Facets {(normal, m(normal))} of conv(support + R_+^2), and its vertices.

    The compact facets are the edges of the lower-left hull between the
    vertex of least x and the vertex of least y; the two unbounded facets
    have normals (1, 0) and (0, 1).
    """
    pts = sorted(set(support))
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    # keep the decreasing part: from the lowest point of least x down to least y
    ymin = min(y for _, y in pts)
    end = next(i for i, (_, y) in enumerate(hull) if y == ymin)
    chain = hull[: end + 1]
    facets = {((1, 0), min(x for x, _ in pts)), ((0, 1), ymin)}
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        a, b = y1 - y2, x2 - x1
        g = math.gcd(a, b)
        a, b = a // g, b // g
        facets.add(((a, b), a * x1 + b * y1))
    return facets, chain


def _eval_mod(terms: dict[tuple[int, int], int], x: int, y: int, p: int) -> int:
    return sum(c * pow(x, a, p) * pow(y, b, p) for (a, b), c in terms.items()) % p


def _partials(terms: dict[tuple[int, int], int]):
    dx = {(a - 1, b): c * a for (a, b), c in terms.items() if a}
    dy = {(a, b - 1): c * b for (a, b), c in terms.items() if b}
    return dx, dy


def certified_mod_p(terms: dict[tuple[int, int], int], p: int) -> bool:
    """Brute-force form of the mod-p non-degeneracy certificate in 2 variables.

    (i) no nonzero point of F_p^2 is a common zero of the reduced gradient;
    (ii) no face polynomial (facets and vertices of the Newton polygon) has a
    zero in (F_p^*)^2 where its gradient also vanishes; f, its gradient and
    every face polynomial must not vanish identically mod p.
    """
    if all(c % p == 0 for c in terms.values()):
        return False
    dx, dy = _partials(terms)
    if all(c % p == 0 for c in list(dx.values()) + list(dy.values())):
        return False
    for x, y in product(range(p), repeat=2):
        if (x, y) != (0, 0) and _eval_mod(dx, x, y, p) == 0 and _eval_mod(dy, x, y, p) == 0:
            return False
    facets, chain = newton_polygon(list(terms))
    faces = [[v] for v in chain]
    for (a, b), mval in facets:
        faces.append([pt for pt in terms if a * pt[0] + b * pt[1] == mval])
    for face in faces:
        fg = {pt: terms[pt] for pt in face}
        if all(c % p == 0 for c in fg.values()):
            return False
        gx, gy = _partials(fg)
        for x, y in product(range(1, p), repeat=2):
            if (_eval_mod(fg, x, y, p) == 0 and _eval_mod(gx, x, y, p) == 0
                    and _eval_mod(gy, x, y, p) == 0):
                return False
    return True

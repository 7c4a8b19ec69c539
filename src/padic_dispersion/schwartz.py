"""Schwartz-Bruhat functions on Q_p^n and their exact Fourier transforms.

A Schwartz-Bruhat function is a finite combination of disjoint ball
indicators.  Its transform is a finite combination of *modulated* ball
indicators coeff * Psi(-[b, xi]) * 1_Ball(xi), and that class is closed under
both transform signs term by term:

    int Psi(sign [x, xi]) Psi(-[b, xi]) 1_{a + (p^r Z)^n}(xi) dxi
        = Psi(-[b, a]) p^(-n r) Psi(sign [x, a]) 1_{sign b + (p^{-r} Z)^n}(x)

The forward transform uses Psi(-[x, xi]) (sign = -1), the inverse
Psi(+[x, xi]).  Outputs are canonicalised to pairwise-disjoint balls.

Storage is exact and integer: ball i is (idx[i] + p^(e[i] + D) Z_p^n) / p^D
for a common denominator p^D and an index row reduced modulo p^(e[i] + D),
and modulations b are numerators over their own p^Dm.  Moduli stay below
2^31, so the arrays are int32, products of two residues fit in int64, and
every character value Psi(-[b, x]) is a residue r / M, exponentiated last:
each call evaluates the roots of its modulus M once, in `_roots`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .padic import Ball, int_valuation, over_p_power, split_p_part
from .polynomials import checked_modulus

_COSET_CAP = 10**6
_FOLD_BLOCK = 1 << 16  # entries of one block of a residue matrix

Vector = tuple[Fraction, ...]


def _modulus(p: int, k: int, what: str) -> int:
    return checked_modulus(p ** max(k, 0), what)


def _den_exps(nums: np.ndarray, denom: int, p: int) -> np.ndarray:
    """Per row of nums / p^denom, the least k with the row in p^-k Z^n (~ -2^20 if 0).
    A row's gcd g < 2^63 has p^v(g) = gcd(g, p^K) for the largest p^K < 2^63,
    read off exactly among p^0..p^K."""
    K = int(math.log(1 << 63, p)) + 1  # the float log errs by less than 1
    while p**K >= 1 << 63:
        K -= 1
    powers = p ** np.arange(K + 1, dtype=np.int64)
    g = np.gcd.reduce(nums, axis=-1)
    v = np.searchsorted(powers, np.gcd(g, powers[-1]))
    return denom - np.where(g == 0, 1 << 20, v)


def _lowest(nums: np.ndarray, denom: int, p: int, floor: int = 0) -> tuple[np.ndarray, int]:
    """(nums' as int64, k) with nums / p^denom = nums' / p^k, k >= floor minimal."""
    g = int(np.gcd.reduce(nums, axis=None))
    k = max(floor, denom - int_valuation(g, p)) if g else floor
    nums = nums.astype(np.int64)
    return (nums // p ** (denom - k) if g else nums), k


def _phase_residues(p: int, mods: np.ndarray, mdenom: int, points: np.ndarray, denom: int):
    """(r, M) with -[mods / p^mdenom, points / p^denom] = r / M mod Z_p, broadcast
    over the leading axes.  M is the product of the actual denominators (1 when
    every modulation is 0); past MODULUS_LIMIT the call is refused."""
    mods, km = _lowest(mods, mdenom, p)
    points, kp = _lowest(points, denom, p)
    M = _modulus(p, km + kp if mods.any() else 0, "phase denominator")
    r = 0
    for j in range(mods.shape[-1]):
        r = (r + mods[..., j] % M * (points[..., j] % M)) % M
    return (-r) % M, M


def _roots(r: np.ndarray, M: int) -> np.ndarray:
    """exp(2 pi i r / M) via the correctly rounded r / M: equal fractions, equal values.
    For residues 0 <= r < M in more than M entries, the M roots are evaluated
    once, by the same expression, and gathered by r."""
    if M < r.size:
        return np.exp(2j * np.pi * (np.arange(M) / M))[r]
    return np.exp(2j * np.pi * (r / M))


def _volumes(p: int, n: int, radii: np.ndarray) -> list[float]:
    """float(p^(-n e)) per term, each correctly rounded; refused past the float range."""
    try:
        table = {e: float(Fraction(p) ** (-n * e)) for e in set(radii.tolist())}
    except OverflowError as ex:
        raise DomainError("a ball volume leaves the float range") from ex
    return [table[e] for e in radii.tolist()]


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, the position of each row among them):
    np.unique(rows, axis=0, return_inverse=True) through one lexsort."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def _forest(p: int, denom: int, radii: np.ndarray, idx: np.ndarray):
    """(distinct balls sorted by radius, the ball of each row, each ball's parent or -1);
    a ball of radius e contains another iff their indices agree mod p^(e + D)."""
    balls, ball_of = _group_rows(np.column_stack([radii, idx]))
    radii, idx = balls[:, 0], balls[:, 1:]
    parent = np.full(len(balls), -1)
    for level in sorted(set(radii.tolist()))[:-1]:  # ascending: the last hit is the smallest
        at, below = np.flatnonzero(radii == level), np.flatnonzero(radii > level)
        _, group = _group_rows(np.concatenate([idx[at], idx[below] % p ** (level + denom)]))
        owner = np.full(len(group), -1)
        owner[group[:len(at)]] = at
        hit = owner[group[len(at):]]
        parent[below[hit >= 0]] = hit[hit >= 0]
    return balls, ball_of, parent


class _BallSum:
    """Coefficients on balls (idx + p^(radii + D) Z_p^n) / p^D, for both classes."""

    __slots__ = _FIELDS = ("n", "prime", "denom", "radii", "idx", "coeffs")

    def _set(self, n, prime, denom, radii, idx, coeffs) -> None:
        idx, self.denom = _lowest(idx, denom, prime, -int(radii.min(initial=0)))
        self.n, self.prime, self.coeffs = n, prime, np.asarray(coeffs, dtype=complex)
        self.radii, self.idx = radii.astype(np.int32), idx.astype(np.int32)

    @classmethod
    def _from_arrays(cls, n: int, prime: int, *arrays):
        obj = cls.__new__(cls)
        obj._set(n, prime, *arrays)
        return obj

    def _set_balls(self, n: int, prime: int, balls: Sequence[Ball], coeffs, *mods) -> None:
        """Store explicit balls exactly; they must be pairwise disjoint."""
        if any(b.dim != n or b.prime != prime for b in balls):
            raise DomainError("ball shape mismatch")
        radii = [b.radius_exp for b in balls]
        centers, denom = over_p_power([c for b in balls for c in b.center], prime, -min(radii + [0]))
        moduli = [_modulus(prime, e + denom, "ball index modulus") for e in radii]
        idx = [c % moduli[k // n] for k, c in enumerate(centers)]
        radii, idx = np.array(radii, dtype=np.int32), np.array(idx, dtype=np.int64).reshape(-1, n)
        self._set(n, prime, denom, radii, idx, *mods, [complex(c) for c in coeffs])
        uniq, _, parent = _forest(prime, self.denom, self.radii, self.idx)
        if len(uniq) < len(balls) or (parent >= 0).any():
            raise DomainError("terms must live on pairwise disjoint balls")

    def _balls(self) -> list[Ball]:
        p, scale = self.prime, Fraction(1, self.prime**self.denom)
        return [Ball(p, tuple(v * scale for v in row), e)
                for row, e in zip(self.idx.tolist(), self.radii.tolist())]

    def _locate(self, rows: np.ndarray, denom: int) -> np.ndarray:
        """The term whose ball holds each point rows[k] / p^denom (-1: none),
        denom >= self.denom.  One forest holds the terms' balls and the points
        as balls of the largest radius r: a point lies in the ball it equals or
        in the parent of its own, since the terms' balls are pairwise disjoint."""
        p, m = self.prime, len(self.radii)
        r = int(self.radii.max(initial=0))
        modulus = _modulus(p, r + denom, "ball index modulus")
        radii = np.concatenate([self.radii, np.full(len(rows), r, dtype=np.int32)])
        idx = np.concatenate([self.idx.astype(np.int64) * p ** (denom - self.denom),
                              rows % modulus])
        balls, ball_of, parent = _forest(p, denom, radii, idx)
        term = np.full(len(balls) + 1, -1)  # the last entry answers parent -1
        term[ball_of[:m]] = np.arange(m)
        term[:-1] = np.where(term[:-1] >= 0, term[:-1], term[parent])
        return term[ball_of[m:]]

    def values(self, rows: np.ndarray, denom: int) -> np.ndarray:
        """The values at the points rows[k] / p^denom, denom >= self.denom."""
        term = self._locate(rows, denom)
        found, out = term >= 0, np.zeros(len(rows), dtype=complex)
        term, rows = term[found], rows[found]
        r, M = _phase_residues(self.prime, self.mods[term], self.mdenom, rows, denom)
        out[found] = self.coeffs[term] * _roots(r, M)
        return out

    def value_at(self, point: Sequence[Fraction | int]) -> complex:
        """Value at an exact point: `values` at its one row, reduced mod
        p^(max(r, Dm) + D) for the largest radius r, as ball and phase read no more."""
        p, D = self.prime, self.denom
        if len(point) != self.n:
            raise DomainError("point has wrong dimension")
        x = [Fraction(c) * p**D for c in point]
        if any(c.denominator != 1 for c in x):  # outside p^-D Z_p^n, which holds every ball
            for c in point:
                split_p_part(c, p)  # DomainError unless a p-power denominator
            return 0j
        modulus = p ** (max(int(self.radii.max(initial=0)), self.mdenom) + D)
        return complex(self.values(np.array([[c.numerator % modulus for c in x]]), D)[0])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._FIELDS)


class SchwartzBruhatFn(_BallSum):
    """Finite complex combination of pairwise disjoint ball indicators."""

    __slots__ = ()
    mdenom = 0  # every modulation b is 0

    def __init__(self, n: int, prime: int, terms: Sequence[tuple[Ball, complex]]):
        self._set_balls(n, prime, [b for b, _ in terms], [c for _, c in terms])

    @classmethod
    def of(cls, prime: int, terms: Sequence[tuple[Ball, complex]]) -> "SchwartzBruhatFn":
        if not terms:
            raise DomainError("empty Schwartz-Bruhat function")
        return cls(terms[0][0].dim, prime, terms)

    @classmethod
    def indicator(cls, ball: Ball, coeff: complex = 1.0) -> "SchwartzBruhatFn":
        return cls(ball.dim, ball.prime, ((ball, coeff),))

    @property
    def terms(self) -> tuple[tuple[Ball, complex], ...]:
        return tuple(zip(self._balls(), self.coeffs.tolist()))

    @property
    def mods(self) -> np.ndarray:
        return np.zeros_like(self.idx)

    def scaled(self, factor: complex) -> "SchwartzBruhatFn":
        arrays = (self.denom, self.radii, self.idx, self.coeffs * factor)
        return self._from_arrays(self.n, self.prime, *arrays)


class ModulatedSBFn(_BallSum):
    """Finite sum of terms coeff * Psi(-[b, xi]) * 1_Ball(xi), disjoint balls;
    b = mods / p^mdenom."""

    __slots__ = ("mdenom", "mods")
    _FIELDS = _BallSum._FIELDS + __slots__

    def __init__(self, n: int, prime: int, terms: Sequence[tuple[Ball, Vector, complex]]):
        if any(len(mod) != n for _, mod, _ in terms):
            raise DomainError("term shape mismatch")
        nums, mdenom = over_p_power([b for _, mod, _ in terms for b in mod], prime)
        checked_modulus(max(map(abs, nums), default=0), "modulation numerator")
        mods = np.array(nums, dtype=np.int64).reshape(-1, n)
        self._set_balls(n, prime, [b for b, _, _ in terms], [c for *_, c in terms], mdenom, mods)

    def _set(self, n, prime, denom, radii, idx, mdenom, mods, coeffs) -> None:
        super()._set(n, prime, denom, radii, idx, coeffs)
        mods, self.mdenom = _lowest(mods, mdenom, prime)
        self.mods = mods.astype(np.int32)

    @property
    def terms(self) -> tuple[tuple[Ball, Vector, complex], ...]:
        scale = Fraction(1, self.prime**self.mdenom)
        mods = [tuple(v * scale for v in row) for row in self.mods.tolist()]
        return tuple(zip(self._balls(), mods, self.coeffs.tolist()))

    @property
    def support_bound(self) -> int:
        """Smallest E with support contained in ||xi|| <= p^E."""
        if not len(self.radii):
            raise DomainError("empty spectrum")
        return int(np.maximum(-self.radii, _den_exps(self.idx, self.denom, self.prime)).max())

    @property
    def resolution_level(self) -> int:
        """Cells of radius p^-M with M at least this resolve every term."""
        lev = _den_exps(self.mods, self.mdenom, self.prime)
        return int(max(0, self.radii.max(initial=0), lev.max(initial=0)))


def _term_transform(G: ModulatedSBFn, sign: int) -> tuple:
    """Exact transform of every modulated indicator (see module docstring),
    as the raw arrays (D, radii, idx, Dm, mods, coeffs) of overlapping terms."""
    if sign not in (-1, 1):
        raise DomainError("sign must be -1 (forward) or +1 (inverse)")
    p, n = G.prime, G.n
    e, idx, mods = (a.astype(np.int64) for a in (G.radii, G.idx, G.mods))
    denom = max(0, G.mdenom, int(e.max(initial=0)))
    _modulus(p, denom - int(e.min(initial=0)), "ball index modulus")
    r, M = _phase_residues(p, mods, G.mdenom, idx, G.denom)
    coeffs = G.coeffs * _roots(r, M) * np.array(_volumes(p, n, e))
    # the center sign * b reduced mod p^(-e), then written over p^denom
    center = (sign * mods) % (p ** np.maximum(G.mdenom - e, 0))[:, None]
    return denom, -e, center * p ** (denom - G.mdenom), G.denom, -sign * idx, coeffs


def _fold(p, denom, cidx, mdenom, mods, coeffs) -> np.ndarray:
    """sum_j coeffs[j] Psi(-[mods[j] / p^mdenom, x]) at every x = cidx / p^denom:
    one int64 residue matrix, one fixed-order row sum per point."""
    rows = max(1, _FOLD_BLOCK // len(coeffs))
    out = np.empty(len(cidx), dtype=complex)
    for i in range(0, len(cidx), rows):
        r, M = _phase_residues(p, mods[None], mdenom, cidx[i:i + rows, None], denom)
        out[i:i + rows] = (_roots(r, M) * coeffs).sum(axis=1)
    return out


def _disjointify(p: int, n: int, raw: tuple, plain: bool = False):
    """Rewrite overlapping modulated terms over pairwise disjoint balls.

    Each ball's region (itself minus its children in the containment forest)
    is tiled by cosets; where several terms cover a coset, or always when
    `plain` asks for a SchwartzBruhatFn, their modulations are folded into a
    coefficient at a scale where all are constant.  Every coset the call
    tiles counts against the cap first.
    """
    denom, radii, idx, mdenom, mods, coeffs = raw
    keys, inv = _group_rows(np.column_stack([radii, idx, mods]))
    merged = np.zeros(len(keys), dtype=complex)
    np.add.at(merged, inv, coeffs)
    keys, coeffs = keys[merged != 0], merged[merged != 0]
    radii, idx, mods = keys[:, 0], keys[:, 1:n + 1], keys[:, n + 1:]
    balls, ball_of, parent = _forest(p, denom, radii, idx)
    starts = np.searchsorted(ball_of, np.arange(len(balls) + 1)).tolist()
    rad, levels = balls[:, 0].tolist(), _den_exps(mods, mdenom, p)
    # children and covering terms per ball; the roots hang under index -1
    kids, covering = [[] for _ in range(len(balls) + 1)], {-1: []}
    for b, a in enumerate(parent.tolist()):  # parents precede their children
        covering[b] = list(range(starts[b], starts[b + 1])) + covering[a]
        kids[a].append(b)
    whole, regions, total = [], [], 0
    for b, e in enumerate(rad):
        cover, fold = covering[b], len(covering[b]) > 1 or plain
        scale = max([e] + [rad[k] for k in kids[b]]
                    + ([int(levels[cover].max())] if fold else []))
        if scale == e and len(cover) == 1:  # the ball stays whole
            whole.append(cover[0])
            continue
        regions.append((b, cover, scale, fold))
        total += p ** (n * (scale - e))
    if total > _COSET_CAP:
        raise ResourceCapError(total, _COSET_CAP, what="cosets")
    phase = _roots(*_phase_residues(p, mods[whole], mdenom, idx[whole], denom)) if plain else 1
    out = [(radii[whole], idx[whole], mods[whole], coeffs[whole] * phase)]
    for b, cover, scale, fold in regions:
        e, index = rad[b], balls[b, 1:]
        _modulus(p, scale + denom, "ball index modulus")
        t = np.indices((p ** (scale - e),) * n)
        inside = np.zeros(t.shape[1:], dtype=bool)
        for k in kids[b]:  # a child's cosets are a strided sub-grid
            start = (balls[k, 1:] - index) // p ** (e + denom)
            stride = p ** (rad[k] - e)
            inside[tuple(slice(int(s), None, stride) for s in start)] = True
        cidx = index + p ** (e + denom) * t.reshape(n, -1).T[~inside.ravel()]
        if fold:
            vals = _fold(p, denom, cidx, mdenom, mods[cover], coeffs[cover])
            cidx, vals, mod = cidx[vals != 0], vals[vals != 0], np.zeros(n, dtype=np.int64)
        else:
            vals, mod = np.full(len(cidx), coeffs[cover[0]]), mods[cover[0]]
        out.append((np.full(len(cidx), scale), cidx, np.tile(mod, (len(cidx), 1)), vals))
    radii, idx, mods, coeffs = (np.concatenate(parts) for parts in zip(*out))
    if plain:
        return SchwartzBruhatFn._from_arrays(n, p, denom, radii, idx, coeffs)
    return ModulatedSBFn._from_arrays(n, p, denom, radii, idx, mdenom, mods, coeffs)


def fourier_modulated(G: ModulatedSBFn, sign: int) -> ModulatedSBFn:
    return _disjointify(G.prime, G.n, _term_transform(G, sign))


def embed(g: SchwartzBruhatFn) -> ModulatedSBFn:
    arrays = (g.denom, g.radii, g.idx, g.mdenom, g.mods, g.coeffs)
    return ModulatedSBFn._from_arrays(g.n, g.prime, *arrays)


def fourier_sb(g: SchwartzBruhatFn) -> ModulatedSBFn:
    """Exact forward Fourier transform of a Schwartz-Bruhat function, in the
    convention Psi(-[x, xi])."""
    return fourier_modulated(embed(g), -1)


def inverse_fourier_sb(G: ModulatedSBFn) -> SchwartzBruhatFn:
    """The inverse transform, fourier_modulated(G, +1), with its modulations
    folded into locally constant coefficients, in one canonicalisation."""
    return _disjointify(G.prime, G.n, _term_transform(G, 1), plain=True)


# -- norms and comparisons ----------------------------------------------------


def lp_norm(g: SchwartzBruhatFn, rho: float) -> float:
    """||g||_rho, exact thanks to disjointness; rho = inf gives max |coeff|.
    A ModulatedSBFn has the same norms: its modulations have modulus 1."""
    if not rho >= 1:  # refuses nan
        raise DomainError("rho must be >= 1 or infinity")
    mags = [abs(c) for c in g.coeffs.tolist()]
    top = max(mags, default=0.0)
    if rho == math.inf or top == 0:
        return top
    # the powers of |c| / top lie in [0, 1], so no rho overflows or underflows them all
    vols = _volumes(g.prime, g.n, g.radii)
    return top * sum((a / top) ** rho * v for a, v in zip(mags, vols)) ** (1.0 / rho)


def l2_norm(g: SchwartzBruhatFn) -> float:
    return lp_norm(g, 2)


def squares_at(G: _BallSum, points: np.ndarray, denom: int) -> float:
    """sum_k |G(points[k] / p^denom)|^2 for integer rows and denom >= G.denom;
    modulations have modulus 1."""
    term = G._locate(points, denom)
    counts = np.bincount(term + 1, minlength=len(G.coeffs) + 1)[1:]
    return float(np.sum(counts * np.abs(G.coeffs) ** 2))


def sb_allclose(g1: SchwartzBruhatFn, g2: SchwartzBruhatFn, tol: float = 1e-12) -> bool:
    """Pointwise comparison on the common refinement of the two ball forests:
    g1 - g2 is constant on each region (a ball minus its children), and a
    region is empty exactly when the children fill the ball's volume.
    """
    p, n, denom = g1.prime, g1.n, max(g1.denom, g2.denom)
    radii = np.concatenate([g1.radii, g2.radii])
    _modulus(p, int(radii.max(initial=0)) + denom, "ball index modulus")
    idx = np.concatenate([g.idx * p ** (denom - g.denom) for g in (g1, g2)])
    balls, ball_of, parent = _forest(p, denom, radii, idx)
    values = np.zeros(len(balls), dtype=complex)
    np.add.at(values, ball_of, np.concatenate([g1.coeffs, -g2.coeffs]))
    values, rad = values.tolist(), balls[:, 0].tolist()
    top = max(rad, default=0)
    volume = [p ** (n * (top - e)) for e in rad]  # in units of the smallest ball's
    covered = [0] * len(rad)  # the volume of each ball its children take
    for b, a in enumerate(parent.tolist()):
        if a >= 0:  # parents precede their children
            values[b] += values[a]
            covered[a] += volume[b]
    return all(abs(v) <= tol for v, c, w in zip(values, covered, volume) if c != w)

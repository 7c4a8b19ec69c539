"""Exact solution of the wave-type pseudo-differential equation and its
dispersive decay at desk scale.

The solution of (Hu)(x,t) = 0, u(x,0) = f0 with symbol |tau - phi(xi)|_K is

    u(x, t) = int Psi(t phi(xi) + [x, xi]) (F f0)(xi) |dxi|,

a finite sum over frequency cells because F f0 is a finite combination of
modulated ball indicators.  Cells are integer index vectors k (centers
k p^-e), tiled as one array and valued by one `ModulatedSBFn.values` call.
Every phase is an integer residue r / M of k: a spec keeps one table of
phi's terms of degree >= 2, Phi(k) mod p^s, per level and denominator
(evaluated by `polynomials.poly_residues`), which every x and every t of one
valuation share, and adds the linear terms in integers.  The spectrum is
F(f0 / 2^k), k from an exact bound on ||f0||_1.  The complex exponentials
come last, in fixed-order sums (never BLAS) over values scaled by a power of
two so that no sum overflows or loses bits below the normal range.  A
solution grid is one inverse FFT of the binned cells, whose x axes are
transformed only on the t rows that hold a cell.  Truncated L^sigma norms
over growing boxes stand in for the full space-time norms; their increments
decide convergence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .padic import DEFAULT_ENUMERATION_CAP, int_valuation, padic_fraction, split_p_part
from .polynomials import SparsePolynomial, checked_modulus, lattice_form, poly_residues
from .schwartz import (
    ModulatedSBFn,
    SchwartzBruhatFn,
    fourier_sb,
    l2_norm,
)

SHRINK_THRESHOLD = 0.9  # strichartz_report: increment ratio that flags divergence


@dataclass(frozen=True)
class SolutionSpec:
    """Initial data, symbol polynomial, and the exact spectrum F f0.

    freq_bound e: supp(F f0) lies in ||xi|| <= p^e, so u(., t) is locally
    constant at scale p^-e.  phase_bound e': |phi(xi)| <= p^e' on the
    spectrum, so u(x, .) is locally constant at scale p^-e'.  spectrum holds
    F(f0 2^-spectrum_exp), spectrum_exp taken from an exact bound on
    ||f0||_1 (negative only when that bound is below the normal float range),
    and every cell sum scales back by 2^spectrum_exp.
    """

    f0: SchwartzBruhatFn
    phi: SparsePolynomial
    spectrum: ModulatedSBFn
    freq_bound: int
    phase_bound: int
    spectrum_exp: int = 0
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, f0: SchwartzBruhatFn, phi: SparsePolynomial) -> "SolutionSpec":
        if phi.nvars != f0.n:
            raise DomainError("phi arity must match the spatial dimension")
        if phi.constant_term != 0:
            raise DomainError("phi(0) = 0 required")
        k = _spectrum_exp(f0)
        spectrum = fourier_sb(_halved(f0, k))
        e = spectrum.support_bound
        ep = max(
            -split_p_part(c, f0.prime)[1] + e * sum(exps)
            for exps, c in phi.terms
        )
        return cls(f0, phi, spectrum, e, ep, k)

    @property
    def prime(self) -> int:
        return self.f0.prime

    @property
    def n(self) -> int:
        return self.f0.n

    def _cached(self, key: tuple, make):
        """make(), computed once per key for the life of this spec; the arrays
        it returns are made read-only."""
        if key not in self._memo:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    def cells(self, level: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """`_freq_cells` of this spectrum, tiled once per (level, cap)."""
        return self._cached(("cells", level, cap), lambda: _freq_cells(self, level, cap))

    @cached_property
    def _resolution_level(self) -> int:
        """spectrum.resolution_level, read by every cell level."""
        return self.spectrum.resolution_level

    @cached_property
    def _symbol_form(self) -> tuple[list, int, tuple[int, ...]]:
        """(Phi, m, lin): phi(k p^-e) = p^m Phi(k) + sum_d lin_d k_d p^-e, with
        Phi a primitive integer polynomial holding the terms of degree >= 2
        (empty, m = 0, when there are none) and lin the linear coefficients."""
        p, n = self.prime, self.n
        higher = {a: c for a, c in self.phi.terms if sum(a) > 1}
        terms, K = lattice_form(higher, (0,) * n, Fraction(p) ** -self.freq_bound, p)
        mu = min((int_valuation(c, p) for c in terms.values()), default=0)
        lin = tuple(self.phi.coefficient(tuple(int(i == d) for i in range(n))) for d in range(n))
        return [(a, c // p**mu) for a, c in terms.items()], mu - K, lin


def _spectrum_exp(f0: SchwartzBruhatFn) -> int:
    """The least k >= 0 with B (1 + 2^-30) 2^-k < 2^1024, where the exact
    B = sum_i (|Re c_i| + |Im c_i|) vol(B_i) >= ||f0||_1 bounds every real and
    imaginary part of F f0 and the margin covers the float rounding of the
    transform.  k > 1023 (2^1023 is the largest power of two a float holds)
    is refused.  A B below the normal range, 0 < B < 2^-1022, gives
    k = floor(log2 B) < 0 instead, so that B / 2^k lies in [1, 2) and no
    value of F(f0 / 2^k) is subnormal; k stops at -1074, the least power of
    two a float holds."""
    if np.isfinite(f0.coeffs).all():
        B = sum((Fraction(abs(c.real)) + Fraction(abs(c.imag))) * ball.volume
                for ball, c in f0.terms)
        if 0 < B < Fraction(1, 2**1022):
            k = B.numerator.bit_length() - B.denominator.bit_length()
            return max(-1074, k if Fraction(2) ** k <= B else k - 1)
        k = int(B * (1 + Fraction(1, 2**30)) / 2**1024).bit_length()
        if k <= 1023:
            return k
    raise DomainError("the spectrum of f0 leaves the float range")


def _halved(f0: SchwartzBruhatFn, k: int) -> SchwartzBruhatFn:
    """f0 / 2^k.  For k < 0 the factor 2^-k, up to 2^1074, is applied in two
    float halves; each product is exact, as f0's bound is then subnormal."""
    if k >= 0:
        return f0.scaled(2.0**-k) if k else f0
    return f0.scaled(2.0 ** (-k // 2)).scaled(2.0 ** (-k - -k // 2))


def _freq_cells(
    spec: SolutionSpec, level: int, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer indices k (an int64 (cells, n) array) and spectrum values of
    the cells k p^-e + (p^level Z_p)^n tiling the spectrum support ball;
    zero-valued cells are dropped."""
    p, n, e = spec.prime, spec.n, spec.freq_bound
    width = p ** (e + level)
    if width**n > cap:
        raise ResourceCapError(width**n, cap, what="frequency cells")
    idx = np.indices((width,) * n, dtype=np.int64).reshape(n, -1).T  # lexicographic k
    D = spec.spectrum.denom  # >= e, so k p^-e = k p^(D - e) / p^D
    vals = spec.spectrum.values(idx * p ** (D - e), D)
    return idx[vals != 0], vals[vals != 0]


def _scaled(spec: SolutionSpec, vals: np.ndarray, linear):
    """linear(2^spec_exp vals) as linear(vals / 2^k) * 2^(k + spec_exp), with
    k >= 0 the least that brings every real and imaginary part of vals below 2:
    no sum inside overflows, and powers of two scale exactly, so the bits do not
    change (a spec_exp < 0 rounds the result once, into the subnormal range).
    A result past the float range is refused."""
    k = max(0, math.frexp(float(np.abs(vals.view(float)).max(initial=0)))[1] - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = linear(vals * 2.0**-k if k else vals)
        for e in (k, spec.spectrum_exp):
            if e:  # a product with 1.0 changes no bit
                out *= 2.0**e
    if not np.isfinite(out).all():
        raise DomainError("the value leaves the float range")
    return out


def _cell_residues(
    spec: SolutionSpec, level: int, cap: int, t: Fraction, x: Sequence[Fraction]
) -> tuple[np.ndarray, int]:
    """(r, M) with t phi(c_k) + [x, c_k] = r / M mod Z_p at the centres
    c_k = k p^-e of `spec.cells(level, cap)`, M = p^K the least power of p
    that serves, so r / M is one canonical fraction.

    With t = u p^v and phi(k p^-e) = p^m Phi(k) + linear terms, the terms of
    degree >= 2 give u Phi(k) / p^s, s = max(0, -(v + m)): one table
    Phi(k) mod p^s serves every x and every t of one valuation at this level.
    The linear coefficients t phi_d p^-e + x_d p^-e join in integers.
    """
    p = spec.prime
    idx, _ = spec.cells(level, cap)
    Phi, m, lin = spec._symbol_form
    u, v = split_p_part(t, p)
    s = max(0, -(v + m)) if t and Phi else 0
    step = Fraction(p) ** -spec.freq_bound
    coeffs = [(t * c + xd) * step for c, xd in zip(lin, x)]
    K = max([s] + [-split_p_part(c, p)[1] for c in coeffs if c])
    M = checked_modulus(p**K, "phase denominator")
    r = np.zeros(len(idx), dtype=np.int64)
    if s:
        table = spec._cached(
            ("residues", level, cap, s), lambda: poly_residues(Phi, list(idx.T), p**s)
        )
        r = table * (u % p**s) % p**s * p ** (K - s)
    for k, c in zip(idx.T, coeffs):
        if c:
            r += k % M * ((c * M).numerator % M)
            r %= M
    return r, M


def _cell_level(spec: SolutionSpec, space: int, time: int | None) -> int:
    """The least level at which the spectrum and every phase
    t phi(xi) + [x, xi] with ||x|| <= p^space and |t| <= p^time (time None:
    t = 0) are constant on each cell k p^-e + (p^level Z_p)^n."""
    e = spec.freq_bound
    level = max(0, e, spec._resolution_level, space)
    if time is not None:
        level = max(level, time + (spec.phi.total_degree() - 1) * max(e, 0))
    return level


def solve_u(
    spec: SolutionSpec,
    x: Sequence,
    t,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> complex:
    """u(x, t) as the exact finite sum over frequency cells.

    The cell level makes the integrand constant per cell, so the value is
    independent of any further refinement; u(x, 0) = f0(x) exactly.
    """
    p = spec.prime
    x = tuple(padic_fraction(p, xi) for xi in x)
    if len(x) != spec.n:
        raise DomainError("x has wrong dimension")
    t = padic_fraction(p, t)
    space = max((-split_p_part(xi, p)[1] for xi in x if xi != 0), default=0)
    time = -split_p_part(t, p)[1] if t != 0 else None
    level = _cell_level(spec, space, time)
    _, vals = spec.cells(level, cap)
    r, modulus = _cell_residues(spec, level, cap, t, x)
    vol = float(Fraction(1, p ** (spec.n * level)))
    roots = np.exp(2j * np.pi * r / modulus)
    return _scaled(spec, vals, lambda v: complex(np.sum(v * roots)) * vol)


def _box(spec: SolutionSpec, R: int, cap: int) -> tuple:
    """(level, idx, vals, r, nt, N) for the box ||x||, |t| <= p^R.

    idx, vals are the cells at the level of the box, and r / nt the residues
    of p^-R phi at their centers c_k = k p^-e, with nt = p^max(0, R + e').
    With t_j = j p^-R, x_i = i p^-R and N = p^max(0, R + e), the phases are
    t_j phi(c_k) = j r_k / nt and [x_i, c_k] = (i . k) / N mod Z_p.  Kept
    on the spec per (R, cap).
    """

    def make():
        level = _cell_level(spec, R, R)
        idx, vals = spec.cells(level, cap)
        r, nt = _cell_residues(spec, level, cap, Fraction(1, spec.prime**R), (0,) * spec.n)
        return level, idx, vals, r, nt, spec.prime ** max(0, R + spec.freq_bound)

    return spec._cached(("box", R, cap), make)


def windowed_spectrum(
    spec: SolutionSpec,
    xi: Sequence,
    tau,
    R: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> complex:
    """W_R(xi, tau) = int_{||x||<=p^R} int_{|t|<=p^R} u Psi(-t tau - [x, xi]).

    In closed form this is p^(R(n+1)) times the sum of cell contributions
    whose centers satisfy both |phi(c) - tau| <= p^-R and ||c - xi|| <= p^-R:
    the one bin of `solution_grid` with r = p^-R tau nt and k = p^-R xi N.
    It vanishes exactly when every cell fails one of the two conditions,
    which is the finite-window witness that F u lives on tau = phi(xi).
    """
    if R < 0:
        raise DomainError("window exponent R must be >= 0")
    p = spec.prime
    xi = tuple(padic_fraction(p, c) for c in xi)
    if len(xi) != spec.n:
        raise DomainError("xi has wrong dimension")
    tau = padic_fraction(p, tau)
    level, idx, vals, r, nt, N = _box(spec, R, cap)
    keep = np.ones(len(vals), dtype=bool)
    conditions = [(r, nt, tau)] + [(k, N, c) for k, c in zip(idx.T, xi)]
    for residues, modulus, target in conditions:
        # |v - target| <= p^-R  iff  p^-R v = p^-R target mod Z_p, v = phi(c) or c_d
        shift = target * modulus / p**R
        if shift.denominator != 1:  # no residue r / modulus can match
            return 0j
        keep &= residues % modulus == shift.numerator % modulus
    scale = float(Fraction(p ** (R * (spec.n + 1)), p ** (spec.n * level)))
    return _scaled(spec, vals[keep], lambda v: complex(v.sum()) * scale)


# -- truncated Strichartz norms ------------------------------------------------


@dataclass(frozen=True)
class SolutionGrid:
    """u sampled on the local-constancy grid of a box ||x||, |t| <= p^R.

    x points run over the n-fold product of x_axis in lexicographic order;
    values has shape (len(t_reps), len(x_axis)**n).  Both axes are the points
    j p^-R, built on first read.
    """

    R: int
    n: int
    prime: int
    values: np.ndarray  # read-only
    x_cell_vol: float  # volume of one full n-dimensional x cell
    t_cell_vol: float

    @property
    def shape(self) -> tuple[int, ...]:
        """(len(t_reps), len(x_axis), ..., len(x_axis)): values by t and x_1..x_n."""
        nt, nx = self.values.shape
        return (nt,) + (round(nx ** (1 / self.n)),) * self.n

    @cached_property
    def x_axis(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.prime**self.R) for j in range(self.shape[1]))

    @cached_property
    def t_reps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.prime**self.R) for j in range(self.shape[0]))


def solution_grid(
    spec: SolutionSpec,
    R: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolutionGrid:
    """Evaluate u on every constancy cell of the box; exact up to the final
    complex arithmetic.

    With the phases of `_box`, in every dimension u is one inverse DFT of the
    spectrum values binned by (r_k, k mod N).  The cap bounds the samples
    nt * N^n, counted before any cell is tiled.
    """
    if R < 0:
        raise DomainError("R must be >= 0")
    p, n = spec.prime, spec.n
    samples = p ** (max(0, R + spec.phase_bound) + n * max(0, R + spec.freq_bound))
    if samples > cap:
        raise ResourceCapError(samples, cap, what="grid samples")
    level, idx, vals, r, nt, N = _box(spec, R, cap)
    vol = float(Fraction(1, p ** (n * level)))
    rows = np.unique(r)  # the t rows that hold a cell

    def binned_ifft(v):
        bins = np.zeros((nt,) + (N,) * n, dtype=complex)
        np.add.at(bins, (r, *(idx % N).T), v)
        # np.fft.ifftn(bins) in its own axis order, the x axes last to first and
        # then t, in place; a row that holds no cell stays 0 under the x axes
        bins[rows] = np.fft.ifftn(bins[rows], axes=range(1, n + 1))
        np.fft.ifft(bins, axis=0, out=bins)
        bins *= bins.size * vol
        return bins
    values = _scaled(spec, vals, binned_ifft).reshape(nt, N**n)
    values.setflags(write=False)
    axis_vol = float(Fraction(p) ** R) / N
    t_vol = float(Fraction(p) ** R) / nt
    return SolutionGrid(R, n, p, values, axis_vol**n, t_vol)


def strichartz_truncated(
    spec: SolutionSpec,
    sigma: float,
    R: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Exact L^sigma norm of u over the box ||x|| <= p^R, |t| <= p^R."""
    grid = solution_grid(spec, R, cap=cap)
    return _masked_norm(grid, sigma, R)


def _masked_norm(grid: SolutionGrid, sigma: float, R: int) -> float:
    """Norm over the sub-box ||x||, |t| <= p^R of a grid computed at grid.R.

    Reps are j p^-grid.R, so the sub-box is every p^(grid.R - R)-th index on
    each axis; u is refinement-stable, so the restriction is exact.  A cell
    wider than the sub-box holds it whole, so it counts with the sub-box's
    width.  The powers are taken of |u| / max |u|, so no sigma overflows or
    underflows them all; they are taken in place on the one full-size
    temporary, the |u| of the sub-box, and the grid is never written.
    """
    if not sigma > 0:  # refuses nan; inf is the L^inf norm
        raise DomainError("sigma must be > 0")
    steps = grid.R - R
    if steps < 0:
        raise DomainError("R exceeds the grid box")
    stride = (slice(None, None, grid.prime**steps),) * (grid.n + 1)
    sub = np.abs(grid.values.reshape(grid.shape)[stride])
    top = float(sub.max())
    if sigma == math.inf or top == 0:
        return top
    box = float(Fraction(grid.prime) ** R)
    weights = min(grid.x_cell_vol, box**grid.n) * min(grid.t_cell_vol, box)
    sub /= top
    with np.errstate(over="ignore"):  # a power or a product past the float range is inf
        sub **= sigma
        norm = top * np.float64(np.sum(sub) * weights) ** (1.0 / sigma)
    if norm == math.inf:
        raise DomainError(f"the norm leaves the float range at sigma = {sigma}")
    return float(norm)


@dataclass(frozen=True)
class StrichartzReport:
    sigma: float
    rows: tuple[tuple[int, float, float], ...]  # (R, norm, norm / ||f0||_2)
    increments: tuple[float, ...]  # ratio(R)^sigma - ratio(R-1)^sigma (power 1 at inf)
    converged: bool
    diverged: bool
    constant: float  # final ratio


def strichartz_report(
    spec: SolutionSpec,
    sigma: float,
    R_max: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> StrichartzReport:
    """Truncated-norm series R = 0..R_max with a convergence diagnosis.

    The increments are ratio(R)^sigma - ratio(R-1)^sigma with
    ratio = norm / ||f0||_2, so they do not change when f0 is scaled: the
    norms are taken of u / 2^spectrum_exp, the solution for f0 / 2^spectrum_exp,
    whose grid neither overflows nor loses bits below the normal range, and
    each ratio is read before its norm is scaled back.  For
    sigma = inf they are ratio(R) - ratio(R-1), and a power beyond the float
    range is refused.  Converging means they are non-increasing; the divergence
    flag fires when they fail to shrink below SHRINK_THRESHOLD times the step
    before over the last three steps (the sigma-too-small regime).
    """
    if R_max < 1:
        raise DomainError("R_max must be >= 1")
    k = spec.spectrum_exp
    if k:
        spec = dataclasses.replace(spec, f0=_halved(spec.f0, k), spectrum_exp=0)
    grid = solution_grid(spec, R_max, cap=cap)
    base = l2_norm(spec.f0)
    norms = [_masked_norm(grid, sigma, R) for R in range(R_max + 1)]
    rows = tuple((R, norm * 2.0**k, norm / base) for R, norm in enumerate(norms))
    if any(norm == math.inf for _, norm, _ in rows):
        raise DomainError(f"the norm leaves the float range at sigma = {sigma}")
    power = 1.0 if sigma == math.inf else sigma  # ratio^inf is 0, 1 or inf
    try:
        powers = [ratio**power for _, _, ratio in rows]
    except OverflowError:
        raise DomainError(f"ratio^sigma leaves the float range at sigma = {sigma}") from None
    increments = tuple(b - a for a, b in zip(powers, powers[1:]))
    converged = all(
        increments[i + 1] <= increments[i] * (1 + 1e-9) + 1e-300
        for i in range(len(increments) - 1)
    )
    tail = increments[-3:]
    ratios = [  # an exactly zero step has stopped growing: it shrank
        0.0 if tail[i + 1] == 0 else tail[i + 1] / tail[i] if tail[i] > 0 else 1.0
        for i in range(len(tail) - 1)
    ]
    diverged = bool(ratios) and min(ratios) >= SHRINK_THRESHOLD
    return StrichartzReport(
        sigma, rows, increments, converged, diverged, rows[-1][2]
    )

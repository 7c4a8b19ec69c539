"""Exact solution of the wave-type pseudo-differential equation and its
dispersive decay at desk scale.

The solution of (Hu)(x,t) = 0, u(x,0) = f0 with symbol |tau - phi(xi)|_K is

    u(x, t) = int Psi(t phi(xi) + [x, xi]) (F f0)(xi) |dxi|,

a finite sum over frequency cells because F f0 is a finite combination of
modulated ball indicators.  Cells are integer index vectors k (centers
k p^-e); every phase is reduced to integer residues r / M of k by the shared
modular evaluator `expsums.poly_residues`, and the complex exponentials come
last.  Truncated L^sigma norms over growing boxes stand in for the full
space-time norms; their increments decide convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .expsums import poly_residues
from .padic import DEFAULT_ENUMERATION_CAP, PadicRational, split_p_part
from .polynomials import Exponents, SparsePolynomial, compose_affine
from .schwartz import (
    ModulatedSBFn,
    SchwartzBruhatFn,
    fourier_sb,
    l2_norm,
)

@dataclass(frozen=True)
class SolutionSpec:
    """Initial data, symbol polynomial, and the exact spectrum F f0.

    freq_bound e: supp(F f0) lies in ||xi|| <= p^e, so u(., t) is locally
    constant at scale p^-e.  phase_bound e': |phi(xi)| <= p^e' on the
    spectrum, so u(x, .) is locally constant at scale p^-e'.
    """

    f0: SchwartzBruhatFn
    phi: SparsePolynomial
    spectrum: ModulatedSBFn
    freq_bound: int
    phase_bound: int

    @classmethod
    def build(cls, f0: SchwartzBruhatFn, phi: SparsePolynomial) -> "SolutionSpec":
        if phi.nvars != f0.n:
            raise DomainError("phi arity must match the spatial dimension")
        if phi.constant_term != 0:
            raise DomainError("phi(0) = 0 required")
        spectrum = fourier_sb(f0, -1)
        e = spectrum.support_bound
        ep = max(
            -split_p_part(c, f0.prime)[1] + e * sum(exps)
            for exps, c in phi.terms
        )
        return cls(f0, phi, spectrum, e, ep)

    @property
    def prime(self) -> int:
        return self.f0.prime

    @property
    def n(self) -> int:
        return self.f0.n


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
    step = Fraction(p) ** -e
    idx, vals = [], []
    for k in product(range(width), repeat=n):
        value = spec.spectrum.value_at(tuple(step * ki for ki in k))
        if value != 0:
            idx.append(k)
            vals.append(value)
    return np.array(idx, dtype=np.int64).reshape(-1, n), np.array(vals, dtype=complex)


def _cell_residues(
    spec: SolutionSpec, phase: Mapping[Exponents, Fraction], idx: np.ndarray
) -> tuple[np.ndarray, int]:
    """(r, M) with phase(k p^-e) = r / M mod Z_p for every row k of idx."""
    p = spec.prime
    g = compose_affine(phase, (0,) * spec.n, Fraction(p) ** -spec.freq_bound)
    modulus = p ** max([0] + [-split_p_part(c, p)[1] for c in g.values()])
    if modulus > 1 << 31:  # products of two residues must stay inside int64
        raise ResourceCapError(modulus, 1 << 31, what="phase denominator")
    terms = [(exps, int(c * modulus)) for exps, c in g.items()]
    return poly_residues(terms, list(idx.T), modulus), modulus


def _cell_level(
    spec: SolutionSpec,
    x: Sequence[Fraction],
    t: Fraction,
    extra_level: int,
) -> int:
    d = spec.phi.total_degree()
    e = spec.freq_bound
    level = max(0, e, spec.spectrum.resolution_level)
    for xi in x:
        if xi != 0:
            level = max(level, -split_p_part(xi, spec.prime)[1])
    if t != 0:
        level = max(
            level, -split_p_part(t, spec.prime)[1] + (d - 1) * max(e, 0)
        )
    return level + extra_level


def solve_u(
    spec: SolutionSpec,
    x: Sequence,
    t,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    extra_level: int = 0,
) -> complex:
    """u(x, t) as the exact finite sum over frequency cells.

    The cell level makes the integrand constant per cell, so the value is
    independent of any further refinement; u(x, 0) = f0(x) exactly.
    """
    p = spec.prime
    x = tuple(
        xi.as_fraction() if isinstance(xi, PadicRational) else Fraction(xi)
        for xi in x
    )
    if len(x) != spec.n:
        raise DomainError("x has wrong dimension")
    t = t.as_fraction() if isinstance(t, PadicRational) else Fraction(t)
    level = _cell_level(spec, x, t, extra_level)
    idx, vals = _freq_cells(spec, level, cap)
    phase = spec.phi.scale(t)  # t phi(xi) + [x, xi]
    for d, xd in enumerate(x):
        unit = tuple(int(j == d) for j in range(spec.n))
        phase[unit] = phase.get(unit, 0) + xd
    r, modulus = _cell_residues(spec, phase, idx)
    vol = Fraction(1, p ** (spec.n * level))
    return complex(vals @ np.exp(2j * np.pi * r / modulus)) * float(vol)


def windowed_spectrum(
    spec: SolutionSpec,
    xi: Sequence,
    tau,
    R: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    extra_level: int = 0,
) -> complex:
    """W_R(xi, tau) = int_{||x||<=p^R} int_{|t|<=p^R} u Psi(-t tau - [x, xi]).

    In closed form this is p^(R(n+1)) times the sum of cell contributions
    whose centers satisfy both |phi(c) - tau| <= p^-R and ||c - xi|| <= p^-R;
    it vanishes exactly when every cell fails one of the two conditions,
    which is the finite-window witness that F u lives on tau = phi(xi).
    """
    if R < 0:
        raise DomainError("window exponent R must be >= 0")
    p = spec.prime
    xi = tuple(
        c.as_fraction() if isinstance(c, PadicRational) else Fraction(c)
        for c in xi
    )
    if len(xi) != spec.n:
        raise DomainError("xi has wrong dimension")
    tau = tau.as_fraction() if isinstance(tau, PadicRational) else Fraction(tau)
    for c in (tau, *xi):
        split_p_part(c, p)  # DomainError unless c lies in Z[1/p]
    n, d, e = spec.n, spec.phi.total_degree(), spec.freq_bound
    level = (
        max(0, e, spec.spectrum.resolution_level, R, R + (d - 1) * max(e, 0))
        + extra_level
    )
    idx, vals = _freq_cells(spec, level, cap)
    window = Fraction(1, p**R)
    keep = np.ones(len(vals), dtype=bool)
    coordinates = [{tuple(int(j == i) for j in range(n)): 1} for i in range(n)]
    for poly, target in [(spec.phi.scale(1), tau), *zip(coordinates, xi)]:
        # |poly(c) - target| <= p^-R  iff  p^-R poly(c) = p^-R target mod Z_p
        scaled = {a: c * window for a, c in poly.items()}
        r, modulus = _cell_residues(spec, scaled, idx)
        shift = target * window * modulus
        if shift.denominator != 1:  # no residue r / modulus can match
            return 0j
        keep &= r == shift.numerator % modulus
    vol = Fraction(1, p ** (n * level))
    return complex(vals[keep].sum()) * float(vol * p ** (R * (n + 1)))


# -- truncated Strichartz norms ------------------------------------------------


@dataclass(frozen=True)
class SolutionGrid:
    """u sampled on the local-constancy grid of a box ||x||, |t| <= p^R.

    x points run over the n-fold product of x_axis in lexicographic order;
    values has shape (len(t_reps), len(x_axis)**n).
    """

    R: int
    n: int
    prime: int
    x_axis: tuple[Fraction, ...]
    t_reps: tuple[Fraction, ...]
    values: np.ndarray
    x_cell_vol: float  # volume of one full n-dimensional x cell
    t_cell_vol: float


def solution_grid(
    spec: SolutionSpec,
    R: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolutionGrid:
    """Evaluate u on every constancy cell of the box; exact up to the final
    complex arithmetic.

    With t_j = j p^-R, x_i = i p^-R and cells c_k = k p^-e, the phases are
    t_j phi(c_k) = j r_k / nt and [x_i, c_k] = (i . k) / N mod Z_p, so in
    every dimension u is one inverse DFT of the spectrum values binned by
    (r_k, k mod N).  The cap bounds the samples nt * N^n.
    """
    if R < 0:
        raise DomainError("R must be >= 0")
    p, n = spec.prime, spec.n
    e, ep, d = spec.freq_bound, spec.phase_bound, spec.phi.total_degree()
    N = p ** max(0, R + e)
    nt = p ** max(0, R + ep)
    if nt * N**n > cap:
        raise ResourceCapError(nt * N**n, cap, what="grid samples")
    level = max(0, e, spec.spectrum.resolution_level, R, R + (d - 1) * max(e, 0))
    idx, vals = _freq_cells(spec, level, cap)
    r, modulus = _cell_residues(spec, spec.phi.scale(Fraction(1, p**R)), idx)
    # modulus divides nt: both are p^max(0, R + e') for the phase bound e'
    bins = np.zeros((nt,) + (N,) * n, dtype=complex)
    np.add.at(bins, (r * (nt // modulus), *(idx % N).T), vals)
    vol = float(Fraction(1, p ** (n * level)))
    values = (np.fft.ifftn(bins) * (bins.size * vol)).reshape(nt, N**n)
    x_step = Fraction(1, p**R)
    xs = tuple(x_step * j for j in range(N))
    ts = tuple(x_step * j for j in range(nt))
    axis_vol = float(Fraction(p) ** R) / N
    t_vol = float(Fraction(p) ** R) / nt
    return SolutionGrid(R, n, p, xs, ts, values, axis_vol**n, t_vol)


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

    Reps are j p^-grid.R, so the sub-box keeps indices divisible by
    p^(grid.R - R); u is refinement-stable, so the restriction is exact.
    """
    steps = grid.R - R
    if steps < 0:
        raise DomainError("R exceeds the grid box")
    p = grid.prime
    tmask = _valuation_mask(len(grid.t_reps), p, steps)
    axis = _valuation_mask(len(grid.x_axis), p, steps)
    xmask = axis
    for _ in range(grid.n - 1):
        xmask = np.logical_and.outer(xmask, axis).ravel()
    sub = grid.values[np.ix_(tmask, xmask)]
    if sigma == math.inf:
        return float(np.max(np.abs(sub))) if sub.size else 0.0
    weights = grid.x_cell_vol * grid.t_cell_vol
    total = float(np.sum(np.abs(sub) ** sigma) * weights)
    return total ** (1.0 / sigma)


def _valuation_mask(count: int, p: int, steps: int) -> np.ndarray:
    if steps <= 0 or count == 1:
        return np.ones(count, dtype=bool)
    return np.arange(count) % p**steps == 0


@dataclass(frozen=True)
class StrichartzReport:
    sigma: float
    rows: tuple[tuple[int, float, float], ...]  # (R, norm, norm / ||f0||_2)
    increments: tuple[float, ...]  # norm(R)^sigma - norm(R-1)^sigma
    converged: bool
    diverged: bool
    constant: float  # final ratio


def strichartz_report(
    spec: SolutionSpec,
    sigma: float,
    R_max: int,
    *,
    shrink_threshold: float = 0.9,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> StrichartzReport:
    """Truncated-norm series R = 0..R_max with a convergence diagnosis.

    Converging means the increments norm(R+1)^sigma - norm(R)^sigma are
    non-increasing over the tail; the divergence flag fires when they fail
    to shrink over the last three steps (the sigma-too-small regime).
    """
    if R_max < 1:
        raise DomainError("R_max must be >= 1")
    grid = solution_grid(spec, R_max, cap=cap)
    base = l2_norm(spec.f0)
    norms = [_masked_norm(grid, sigma, R) for R in range(R_max + 1)]
    rows = tuple(
        (R, norms[R], norms[R] / base) for R in range(R_max + 1)
    )
    increments = tuple(
        norms[R] ** sigma - norms[R - 1] ** sigma for R in range(1, R_max + 1)
    )
    converged = all(
        increments[i + 1] <= increments[i] * (1 + 1e-9) + 1e-300
        for i in range(len(increments) - 1)
    )
    tail = increments[-3:]
    ratios = [
        tail[i + 1] / tail[i] if tail[i] > 0 else 1.0
        for i in range(len(tail) - 1)
    ]
    diverged = bool(ratios) and min(ratios) >= shrink_threshold
    return StrichartzReport(
        sigma, rows, increments, converged, diverged, rows[-1][2]
    )

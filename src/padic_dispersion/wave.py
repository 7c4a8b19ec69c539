"""Exact solution of the wave-type pseudo-differential equation and its
dispersive decay at desk scale.

The solution of (Hu)(x,t) = 0, u(x,0) = f0 with symbol |tau - phi(xi)|_K is

    u(x, t) = int Psi(t phi(xi) + [x, xi]) (F f0)(xi) |dxi|,

a finite sum over frequency cells because F f0 is a finite combination of
modulated ball indicators.  Cells are integer index vectors k (centers
k p^-e), tiled as one array and valued by one `ModulatedSBFn.values` call;
every phase is reduced to integer residues r / M of k by the shared
modular evaluator `polynomials.poly_residues`, and the complex exponentials
come last, summed over values scaled by a power of two so that no sum
overflows.  Truncated L^sigma norms over growing boxes stand in for the full
space-time norms; their increments decide convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .padic import DEFAULT_ENUMERATION_CAP, PadicRational, split_p_part
from .polynomials import Exponents, SparsePolynomial, checked_modulus, lattice_form, poly_residues
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
    spectrum, so u(x, .) is locally constant at scale p^-e'.
    """

    f0: SchwartzBruhatFn
    phi: SparsePolynomial
    spectrum: ModulatedSBFn
    freq_bound: int
    phase_bound: int
    _cells: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def cells(self, level: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """`_freq_cells` of this spectrum, tiled once per (level, cap)."""
        if (level, cap) not in self._cells:
            arrays = _freq_cells(self, level, cap)
            for a in arrays:
                a.setflags(write=False)
            self._cells[level, cap] = arrays
        return self._cells[level, cap]


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


def _scaled(vals: np.ndarray, linear):
    """linear(vals) as linear(vals / 2^k) * 2^k, with k >= 0 the least that brings
    every real and imaginary part of vals below 2: no sum inside overflows, and
    powers of two scale exactly, so the bits do not change.  A result past the
    float range is refused."""
    k = max(0, math.frexp(float(np.abs(vals.view(float)).max(initial=0)))[1] - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = linear(vals * 2.0**-k) * 2.0**k
    if not np.isfinite(out).all():
        raise DomainError("the value leaves the float range")
    return out


def _cell_residues(
    spec: SolutionSpec, phase: Mapping[Exponents, Fraction], idx: np.ndarray
) -> tuple[np.ndarray, int]:
    """(r, M) with phase(k p^-e) = r / M mod Z_p for every row k of idx."""
    p = spec.prime
    terms, K = lattice_form(phase, (0,) * spec.n, Fraction(p) ** -spec.freq_bound, p)
    modulus = checked_modulus(p**K, "phase denominator")
    return poly_residues(terms.items(), list(idx.T), modulus), modulus


def _cell_level(spec: SolutionSpec, space: int, time: int | None) -> int:
    """The least level at which the spectrum and every phase
    t phi(xi) + [x, xi] with ||x|| <= p^space and |t| <= p^time (time None:
    t = 0) are constant on each cell k p^-e + (p^level Z_p)^n."""
    e = spec.freq_bound
    level = max(0, e, spec.spectrum.resolution_level, space)
    if time is not None:
        level = max(level, time + (spec.phi.total_degree() - 1) * max(e, 0))
    return level


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
    x = tuple(PadicRational(p, xi).as_fraction() for xi in x)
    if len(x) != spec.n:
        raise DomainError("x has wrong dimension")
    t = PadicRational(p, t).as_fraction()
    space = max((-split_p_part(xi, p)[1] for xi in x if xi != 0), default=0)
    time = -split_p_part(t, p)[1] if t != 0 else None
    level = _cell_level(spec, space, time) + extra_level
    idx, vals = spec.cells(level, cap)
    phase = spec.phi.scale(t)  # t phi(xi) + [x, xi]
    for d, xd in enumerate(x):
        unit = tuple(int(j == d) for j in range(spec.n))
        phase[unit] = phase.get(unit, 0) + xd
    r, modulus = _cell_residues(spec, phase, idx)
    vol = float(Fraction(1, p ** (spec.n * level)))
    return _scaled(vals, lambda v: complex(v @ np.exp(2j * np.pi * r / modulus)) * vol)


def _box(spec: SolutionSpec, R: int, cap: int) -> tuple:
    """(level, idx, vals, r, nt, N) for the box ||x||, |t| <= p^R.

    idx, vals are the cells at the level of the box, and r / nt the residues
    of p^-R phi at their centers c_k = k p^-e, with nt = p^max(0, R + e').
    With t_j = j p^-R, x_i = i p^-R and N = p^max(0, R + e), the phases are
    t_j phi(c_k) = j r_k / nt and [x_i, c_k] = (i . k) / N mod Z_p.
    """
    level = _cell_level(spec, R, R)
    idx, vals = spec.cells(level, cap)
    r, nt = _cell_residues(spec, spec.phi.scale(Fraction(1, spec.prime**R)), idx)
    return level, idx, vals, r, nt, spec.prime ** max(0, R + spec.freq_bound)


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
    xi = tuple(PadicRational(p, c).as_fraction() for c in xi)
    if len(xi) != spec.n:
        raise DomainError("xi has wrong dimension")
    tau = PadicRational(p, tau).as_fraction()
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
    return _scaled(vals[keep], lambda v: complex(v.sum()) * scale)


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

    def binned_ifft(v):
        bins = np.zeros((nt,) + (N,) * n, dtype=complex)
        np.add.at(bins, (r, *(idx % N).T), v)
        return np.fft.ifftn(bins) * (bins.size * vol)
    values = _scaled(vals, binned_ifft).reshape(nt, N**n)
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

    Reps are j p^-grid.R, so the sub-box is every p^(grid.R - R)-th index on
    each axis; u is refinement-stable, so the restriction is exact.  A cell
    wider than the sub-box holds it whole, so it counts with the sub-box's
    width.  The powers are taken of |u| / max |u|, so no sigma overflows or
    underflows them all.
    """
    if not sigma > 0:  # refuses nan; inf is the L^inf norm
        raise DomainError("sigma must be > 0")
    steps = grid.R - R
    if steps < 0:
        raise DomainError("R exceeds the grid box")
    shape = (len(grid.t_reps),) + (len(grid.x_axis),) * grid.n
    stride = (slice(None, None, grid.prime**steps),) * len(shape)
    sub = np.abs(grid.values.reshape(shape)[stride])
    top = float(sub.max())
    if sigma == math.inf or top == 0:
        return top
    box = float(Fraction(grid.prime) ** R)
    weights = min(grid.x_cell_vol, box**grid.n) * min(grid.t_cell_vol, box)
    with np.errstate(over="ignore"):  # a power or a product past the float range is inf
        norm = top * np.float64(np.sum((sub / top) ** sigma) * weights) ** (1.0 / sigma)
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
    ratio = norm / ||f0||_2, so they do not change when f0 is scaled; for
    sigma = inf they are ratio(R) - ratio(R-1), and a power beyond the float
    range is refused.  Converging means they are non-increasing; the divergence
    flag fires when they fail to shrink below SHRINK_THRESHOLD times the step
    before over the last three steps (the sigma-too-small regime).
    """
    if R_max < 1:
        raise DomainError("R_max must be >= 1")
    grid = solution_grid(spec, R_max, cap=cap)
    base = l2_norm(spec.f0)
    norms = [_masked_norm(grid, sigma, R) for R in range(R_max + 1)]
    rows = tuple((R, norm, norm / base) for R, norm in enumerate(norms))
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

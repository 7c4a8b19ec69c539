"""Fourier transforms of surface measures on graph hypersurfaces x_n = phi(x'),
decay tables, L^rho restriction ratios, and the zeta_z interpolation kernel.

A window S (a ball in K^n) induces the measure |dx_1|...|dx_{n-1}| on the
graph over the projected window S'; every integral reduces to an oscillatory
ball integral handled by the exp-sums engine.  `ray_values` evaluates a
table {k: hat(d mu_Y)(p^-k * direction)} in one `expsums.evaluate` call,
and `decay_table` evaluates no transform: it reads that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError
from .expsums import ExpSumResult, character_sum, evaluate, fit_line
from .newton import has_nonzero_common_zero
from .padic import Ball, DEFAULT_ENUMERATION_CAP, PadicRational, int_valuation
from .polynomials import SparsePolynomial, checked_modulus, lattice_form, poly_residues
from .schwartz import SchwartzBruhatFn, fourier_sb, lp_norm, squares_at

SLOPE_TOL = 0.05  # decay_table: |slope - operative exponent| for consistency
ZETA_TAIL_TOL = 1e-12  # zeta_kernel_numeric: truncation of the shell tail
_CRITICAL_SCAN_CAP = 10**6  # mod-p points the critical-status scan may visit
_CELL_BLOCK = 1 << 20  # graph cells restriction_ratio tabulates at once, to bound memory


@dataclass(frozen=True)
class GraphHypersurface:
    """The hypersurface x_n = phi(x_1, ..., x_{n-1}) windowed by the ball S.

    critical_status records the mod-p certificate for the theorems'
    hypothesis C_phi(K) = {0}: "certified" when the reduced gradient has no
    nonzero common zero over F_p, "indeterminate" when the reduction
    collapses, "degenerate-mod-p" otherwise.
    """

    phi: SparsePolynomial
    window: Ball
    critical_status: str = field(init=False)

    def __post_init__(self):
        if self.phi.nvars != self.window.dim - 1:
            raise DomainError(
                "phi must use one variable fewer than the ambient dimension"
            )
        if self.phi.is_constant():
            raise DomainError("phi is constant")
        if self.phi.constant_term != 0:
            raise DomainError("phi(0) = 0 required")
        object.__setattr__(self, "critical_status", _critical_status(self.phi, self.prime))

    @property
    def prime(self) -> int:
        return self.window.prime

    @property
    def ambient_dim(self) -> int:
        return self.window.dim

    @property
    def base_window(self) -> Ball:
        """S': the projection of the window onto the first n-1 coordinates."""
        return Ball(
            self.window.prime,
            self.window.center[:-1],
            self.window.radius_exp,
        )


def _critical_status(phi: SparsePolynomial, p: int) -> str:
    grad = phi.gradient()
    if all(all(c % p == 0 for _, c in g.terms) for g in grad):
        return "indeterminate"
    if p**phi.nvars > _CRITICAL_SCAN_CAP:
        return "indeterminate"
    return "degenerate-mod-p" if has_nonzero_common_zero(grad, p) else "certified"


def _transform(Y: GraphHypersurface, xi: Sequence, cap: int) -> ExpSumResult:
    """hat(d mu_Y)(xi) as its unevaluated ball integral."""
    p = Y.prime
    comps = [PadicRational(p, x).as_fraction() for x in xi]
    if len(comps) != Y.ambient_dim:
        raise DomainError("frequency vector has wrong dimension")
    phase = Y.phi.scale(-comps[-1])
    m = Y.phi.nvars
    for i, c in enumerate(comps[:-1]):
        if c:
            key = tuple(1 if j == i else 0 for j in range(m))
            phase[key] = phase.get(key, Fraction(0)) - c
    return character_sum(phase, Y.base_window, cap=cap)


def surface_ft(
    Y: GraphHypersurface,
    xi: Sequence,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> complex:
    """hat(d mu_Y)(xi) = int_{S'} Psi(-xi_n phi(x') - [x', xi']) dx'.

    At xi = 0 this returns the measure of the windowed graph, vol(S').
    """
    return _transform(Y, xi, cap).value


def ray_values(
    Y: GraphHypersurface,
    direction: Sequence,
    levels: Iterable[int],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict[int, complex]:
    """{k: hat(d mu_Y)(p^-k * direction)} for k in levels, the table that
    `decay_table` reads.  The levels are evaluated together from one
    recursion memo, so a node that several levels reach is expanded once,
    and their work is counted together against `cap`."""
    p = Y.prime
    comps = [PadicRational(p, c).as_fraction() for c in direction]
    sums = {k: _transform(Y, [c / p**k for c in comps], cap) for k in levels}
    evaluate(sums.values())
    return {k: res.value for k, res in sums.items()}


def remark_family_exponent(phi: SparsePolynomial) -> Fraction | None:
    """The known sharp decay exponents: (n-1)/2 for diagonal quadratics,
    1/d for a univariate monomial x^d with d > 1."""
    exps = [e for e, _ in phi.terms]
    if exps and all(sum(e) == 2 and max(e) == 2 for e in exps):
        covered = {e.index(2) for e in exps}
        if covered == set(range(phi.nvars)):
            return Fraction(phi.nvars, 2)
    if phi.nvars == 1 and len(exps) == 1 and exps[0][0] > 1:
        return Fraction(1, exps[0][0])
    return None


@dataclass(frozen=True)
class SurfaceDecayTable:
    rows: tuple[tuple[int, float], ...]  # (k, |FT| at ||xi|| = p^k * ||dir||)
    slope: float | None
    expected: Fraction | None  # operative exponent used for the flag
    degree_bound: int  # max_j deg_{x_j}(phi), the printed Theorem value
    reciprocal_bound: Fraction  # 1 / max_j deg_{x_j}(phi)
    consistent: bool | None


def decay_table(
    Y: GraphHypersurface,
    values: Mapping[int, complex],
) -> SurfaceDecayTable:
    """|hat(d mu_Y)| along a ray, with the fitted decay slope in -log_p scale.

    `values` maps k to hat(d mu_Y)(p^-k * direction) for one fixed nonzero
    direction; exact zeros are left out of the fit.  When phi lies in one
    of the two covered families the sharp exponent is the operative one and
    the slope is consistent within SLOPE_TOL of it; otherwise there is no
    operative exponent.  Both readings of the general theorem exponent are
    reported alongside.
    """
    p = Y.prime
    rows = [(k, abs(values[k])) for k in sorted(values)]
    usable = [(k, -math.log(a, p)) for k, a in rows if a != 0]
    slope = fit_line(usable)[0] if len(usable) >= 2 else None
    operative = remark_family_exponent(Y.phi)
    consistent = None
    if operative is not None and slope is not None:
        consistent = abs(slope - float(operative)) <= SLOPE_TOL
    dmax = max(Y.phi.degree_in(j) for j in range(Y.phi.nvars))
    return SurfaceDecayTable(
        tuple(rows), slope, operative, dmax, Fraction(1, dmax), consistent
    )


def restriction_rho_bound(beta_phi: Fraction) -> Fraction:
    """Upper endpoint 2(1 + beta) / (2 + beta) of the admissible rho range."""
    return 2 * (1 + beta_phi) / (2 + beta_phi)


def restriction_ratio(
    g: SchwartzBruhatFn,
    Y: GraphHypersurface,
    rho: float,
    *,
    beta_phi: Fraction | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """(int_Y |Fg|^2 dmu_{Y,S})^(1/2) / ||g||_rho.

    Fg = sum_i c_i Psi(-[b_i, xi]) 1_{B_i}(xi) on pairwise disjoint balls, so
    |Fg|^2 = sum_i |c_i|^2 1_{B_i} and the integral is sum_i |c_i|^2 times
    the volume of {x' in S' : (x', phi(x')) in B_i}.  That volume is counted
    exactly over the cells x' = c' + p^e0 y, y mod p^(L - e0), on which ball
    membership is constant.  When beta_phi is supplied, rho must not exceed
    the admissible endpoint 2(1+beta)/(2+beta); the endpoint itself is
    allowed (the ratio is still finite at desk scale).
    """
    if not rho >= 1:  # refuses nan
        raise DomainError("rho must be >= 1")
    if beta_phi is not None and not (
        rho <= float(restriction_rho_bound(beta_phi)) + 1e-12
    ):
        raise DomainError(
            f"rho={rho} outside the admissible range for beta_phi={beta_phi}"
        )
    denom = lp_norm(g, rho)
    if denom == 0:
        raise DomainError("||g|| = 0 rejected")
    Fg = fourier_sb(g)
    p, base = Y.prime, Y.base_window
    m, e0, center = base.dim, base.radius_exp, base.center_fractions()
    # each coordinate x_j and phi(x') as integer terms in y over p^K
    units = [{tuple(int(i == j) for i in range(m)): 1} for j in range(m)]
    forms = [lattice_form(f, center, Fraction(p) ** e0, p) for f in units + [dict(Y.phi.terms)]]
    phi_terms, phi_K = forms[-1]
    w_phi = min(int_valuation(c, p) for e, c in phi_terms.items() if any(e)) - phi_K
    # a change of y by p^(L - e0) moves x' by p^L and phi by p^(L - e0 + w_phi)
    r = int(Fg.radii.max())
    level = max(e0, r, r + e0 - w_phi)
    width = p ** (level - e0)
    cells = width**m
    if cells > cap:
        raise ResourceCapError(cells, cap)
    D = max([Fg.denom] + [K for _, K in forms])
    modulus = checked_modulus(p ** (r + D), "graph key modulus")
    keys = [[(e, c * p ** (D - K)) for e, c in terms.items()] for terms, K in forms]
    total = 0.0
    for start in range(0, cells, _CELL_BLOCK):
        t = np.arange(start, min(cells, start + _CELL_BLOCK), dtype=np.int64)
        y = [t // width ** (m - 1 - j) % width for j in range(m)]
        rows = np.column_stack([poly_residues(terms, y, modulus) for terms in keys])
        total += squares_at(Fg, rows, D)
    return math.sqrt(total * float(Fraction(p) ** (-m * level))) / denom


# -- the interpolation kernel zeta_z ------------------------------------------


def zeta_kernel(
    z: complex | np.ndarray, x_n: PadicRational | Fraction | int, e0: int, p: int
) -> complex | np.ndarray:
    """Closed form of zeta_z(x_n) = gamma(z) int_K Psi(x_n y)|y|^(z-1) eta(y) dy
    with eta the indicator of p^{e0} Z_p and gamma(z) = (1-q^-z)/(1-q^-1):

        q^(-e0 z)                                 if |x_n| <= q^e0,
        ((1 - q^(z-1)) / (1 - q^-1)) |x_n|^(-z)   otherwise.

    Entire in z; zeta_0 = 1 identically.  z may be an array of points, which
    gives the array of values.
    """
    if e0 < 1:
        raise DomainError("e0 must be >= 1")
    x_n = PadicRational(p, x_n)
    z = np.asarray(z, dtype=complex)
    logp = math.log(p)
    if x_n.is_zero or -x_n.val <= e0:
        out = np.exp(-e0 * z * logp)
    else:
        t = -x_n.val  # |x_n| = p^t > p^e0
        out = (1 - np.exp((z - 1) * logp)) / (1 - 1.0 / p) * np.exp(-t * z * logp)
    return complex(out) if out.ndim == 0 else out


def zeta_kernel_numeric(
    z: complex | np.ndarray,
    x_n: PadicRational | Fraction | int | Sequence,
    e0: int,
    p: int,
) -> complex | np.ndarray:
    """Shell-sum evaluation of zeta_z for Re(z) > 0.

    Sums gamma(z) * p^(-j(z-1)) * shell_j over valuation shells |y| = p^-j,
    j >= e0, where shell_j is the exact two-ball character integral; the
    geometric tail is truncated below ZETA_TAIL_TOL.  Each term is one
    exponential, so a small Re(z) does not overflow.  z may be an array of
    points: the terms form one (point, shell) matrix, each row cut at its
    own truncation.  x_n may be a sequence of points too: the matrix does
    not depend on x_n, so it is built once, and the values have shape
    (x_n points, z points), each row that of the one-point call.
    """
    if e0 < 1:
        raise DomainError("e0 must be >= 1")
    z = np.asarray(z, dtype=complex)
    if (z.real <= 0).any():
        raise DomainError("numeric mode needs Re(z) > 0")
    xs = np.asarray(x_n, dtype=object)
    points = [PadicRational(p, x) for x in xs.flat]
    t = np.array([-math.inf if x.is_zero else -x.val for x in points])  # |x_n| = p^t
    logp = math.log(p)
    last = e0 + np.maximum(2, np.ceil((-math.log(ZETA_TAIL_TOL) + 4) / (z.real * logp)))
    j = np.arange(e0, int(last.max(initial=e0)) + 1)
    # int_{|y| <= p^-j} Psi(x_n y) dy = p^-j if |x_n| <= p^j else 0, so the
    # shell |y| = p^-j integrates to (p - 1) p^-(j+1) for t <= j, to
    # -p^-(j+1) for t = j + 1 and to 0 beyond
    t = t.reshape(xs.shape + (1,) * (z.ndim + 1))
    weight = np.where(j >= t, p - 1.0, np.where(j + 1 == t, -1.0, 0.0))
    kept = j <= last[..., None]  # each point's own truncation
    arg = -(np.multiply.outer(z, j) + 1) * logp  # p^(-j(z-1)) p^-(j+1) = e^arg
    terms = np.exp(arg, where=kept, out=np.zeros(kept.shape, complex))
    total = (terms * weight).sum(axis=-1)
    gamma = (1 - np.exp(-z * logp)) / (1 - 1.0 / p)
    out = gamma * total
    return complex(out) if out.ndim == 0 else out

"""Fourier transforms of surface measures on graph hypersurfaces x_n = phi(x'),
decay tables, L^rho restriction ratios, and the zeta_z interpolation kernel.

A window S (a ball in K^n) induces the measure |dx_1|...|dx_{n-1}| on the
graph over the projected window S'; every integral reduces to an oscillatory
ball integral handled by the exp-sums engine.  `decay_table` evaluates no
transform: it reads a table {k: hat(d mu_Y)(p^-k * direction)} that the
caller evaluates once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError
from .expsums import character_sum, fit_line
from .newton import has_nonzero_common_zero
from .padic import (
    Ball,
    DEFAULT_ENUMERATION_CAP,
    PadicRational,
    enumerate_residues,
    split_p_part,
)
from .polynomials import SparsePolynomial, compose_affine
from .schwartz import ModulatedSBFn, SchwartzBruhatFn, fourier_sb, lp_norm


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
    critical_status: str = ""

    def __post_init__(self):
        if self.phi.nvars != self.window.dim - 1:
            raise DomainError(
                "phi must use one variable fewer than the ambient dimension"
            )
        if self.phi.is_constant():
            raise DomainError("phi is constant")
        if self.phi.constant_term != 0:
            raise DomainError("phi(0) = 0 required")
        if not self.critical_status:
            object.__setattr__(
                self, "critical_status", _critical_status(self.phi, self.prime)
            )

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


def _critical_status(phi: SparsePolynomial, p: int, cap: int = 10**6) -> str:
    grad = phi.gradient()
    if all(all(c % p == 0 for _, c in g.terms) for g in grad):
        return "indeterminate"
    if p**phi.nvars > cap:
        return "indeterminate"
    return "degenerate-mod-p" if has_nonzero_common_zero(grad, p) else "certified"


def _as_fractions(prime: int, xi: Sequence) -> tuple[Fraction, ...]:
    out = []
    for x in xi:
        if isinstance(x, PadicRational):
            if x.prime != prime:
                raise DomainError("prime mismatch in frequency vector")
            out.append(x.as_fraction())
        else:
            out.append(Fraction(x))
    return tuple(out)


def surface_ft(
    Y: GraphHypersurface,
    xi: Sequence,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    extra_level: int = 0,
) -> complex:
    """hat(d mu_Y)(xi) = int_{S'} Psi(-xi_n phi(x') - [x', xi']) dx'.

    At xi = 0 this returns the measure of the windowed graph, vol(S').
    """
    p = Y.prime
    comps = _as_fractions(p, xi)
    if len(comps) != Y.ambient_dim:
        raise DomainError("frequency vector has wrong dimension")
    phase = Y.phi.scale(-comps[-1])
    m = Y.phi.nvars
    for i, c in enumerate(comps[:-1]):
        if c:
            key = tuple(1 if j == i else 0 for j in range(m))
            phase[key] = phase.get(key, Fraction(0)) - c
    result = character_sum(
        phase, Y.base_window, cap=cap, threads=threads, extra_level=extra_level
    )
    return result.value


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
    *,
    expected: Fraction | None = None,
    slope_tol: float = 0.05,
    zero_tol: float = 1e-12,
) -> SurfaceDecayTable:
    """|hat(d mu_Y)| along a ray, with the fitted decay slope in -log_p scale.

    `values` maps k to hat(d mu_Y)(p^-k * direction) for one fixed nonzero
    direction.  When phi lies in one of the two covered families the sharp
    exponent is used for the consistency flag; otherwise `expected` (if
    given).  Both readings of the general theorem exponent are reported
    alongside.
    """
    p = Y.prime
    rows = [(k, abs(values[k])) for k in sorted(values)]
    usable = [(k, -math.log(a, p)) for k, a in rows if a > zero_tol]
    slope = fit_line(usable)[0] if len(usable) >= 2 else None
    family = remark_family_exponent(Y.phi)
    operative = family if family is not None else expected
    consistent = None
    if operative is not None and slope is not None:
        consistent = abs(slope - float(operative)) <= slope_tol
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
    extra_level: int = 0,
) -> float:
    """(int_Y |Fg|^2 dmu_{Y,S})^(1/2) / ||g||_rho.

    The surface integral is evaluated exactly at a coset scale where
    Fg(x', phi(x')) is locally constant.  When beta_phi is supplied, rho
    must not exceed the admissible endpoint 2(1+beta)/(2+beta); the
    endpoint itself is allowed (the ratio is still finite at desk scale).
    """
    if rho != math.inf and rho < 1:
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
    Fg = fourier_sb(g, -1)
    level = _graph_constancy_level(Y, Fg) + extra_level
    p = Y.prime
    base = Y.base_window
    m = base.dim
    total = 0.0
    cell_vol = float(
        Fraction(1, p ** (m * level)) if level >= 0 else Fraction(p ** (-m * level))
    )
    for x in enumerate_residues(base, level, cap=cap):
        point = x + (Fraction(Y.phi.evaluate(x)),)
        total += abs(Fg.value_at(point)) ** 2 * cell_vol
    return math.sqrt(total) / denom


def _graph_constancy_level(Y: GraphHypersurface, Fg: ModulatedSBFn) -> int:
    """An absolute coset scale of S' on which x' -> Fg(x', phi(x')) is constant."""
    p = Y.prime
    base = Y.base_window
    e0 = base.radius_exp
    step = Fraction(p) ** e0
    phi_comp = compose_affine(Y.phi.scale(1), base.center_fractions(), step)
    w_phi = min(
        (split_p_part(c, p)[1] for e, c in phi_comp.items() if sum(e) > 0),
        default=0,
    )
    rel = 0
    for ball, mod, _ in Fg.terms:
        r = ball.radius_exp
        rel = max(rel, r - e0, r - w_phi)
        for j, b in enumerate(mod):
            if b.is_zero:
                continue
            if j < len(mod) - 1:
                rel = max(rel, -b._val - e0)
            else:
                rel = max(rel, -b._val - w_phi)
    return e0 + max(rel, 0)


# -- the interpolation kernel zeta_z ------------------------------------------


def zeta_kernel(
    z: complex, x_n: PadicRational | Fraction | int, e0: int, p: int
) -> complex:
    """Closed form of zeta_z(x_n) = gamma(z) int_K Psi(x_n y)|y|^(z-1) eta(y) dy
    with eta the indicator of p^{e0} Z_p and gamma(z) = (1-q^-z)/(1-q^-1):

        q^(-e0 z)                                 if |x_n| <= q^e0,
        ((1 - q^(z-1)) / (1 - q^-1)) |x_n|^(-z)   otherwise.

    Entire in z; zeta_0 = 1 identically.
    """
    if e0 < 1:
        raise DomainError("e0 must be >= 1")
    if not isinstance(x_n, PadicRational):
        x_n = PadicRational(p, x_n)
    logp = math.log(p)
    if x_n.is_zero or -x_n._val <= e0:
        return cmath.exp(-e0 * z * logp)
    t = -x_n._val  # |x_n| = p^t > p^e0
    gamma_num = 1 - cmath.exp((z - 1) * logp)
    return gamma_num / (1 - 1.0 / p) * cmath.exp(-t * z * logp)


def zeta_kernel_numeric(
    z: complex,
    x_n: PadicRational | Fraction | int,
    e0: int,
    p: int,
    tol: float = 1e-12,
) -> complex:
    """Shell-sum evaluation of zeta_z for Re(z) > 0.

    Sums gamma(z) * p^(-j(z-1)) * shell_j over valuation shells |y| = p^-j,
    j >= e0, where shell_j is the exact two-ball character integral; the
    geometric tail is truncated below `tol`.
    """
    if e0 < 1:
        raise DomainError("e0 must be >= 1")
    if z.real <= 0:
        raise DomainError("numeric mode needs Re(z) > 0")
    if not isinstance(x_n, PadicRational):
        x_n = PadicRational(p, x_n)
    t = None if x_n.is_zero else -x_n._val  # |x_n| = p^t
    # int_{|y| <= p^-j} Psi(x_n y) dy = p^-j if |x_n| <= p^j else 0, so the
    # shell |y| = p^-j integrates to (p - 1) / p^(j+1) for t <= j, to
    # -1 / p^(j+1) for t = j + 1 and to 0 beyond; each a correctly rounded
    # quotient of integers
    logp = math.log(p)
    J = e0 + max(2, math.ceil((-math.log(tol) + 4) / (z.real * logp)))
    total = 0j
    for j in range(e0, J + 1):
        if t is None or t <= j:
            shell = (p - 1) / p ** (j + 1)
        elif t == j + 1:
            shell = -1 / p ** (j + 1)
        else:
            continue
        total += cmath.exp(-j * (z - 1) * logp) * shell
    gamma = (1 - cmath.exp(-z * logp)) / (1 - 1.0 / p)
    return gamma * total

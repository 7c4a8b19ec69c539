"""Exact evaluation of the oscillatory integrals E_A(z, f) = int_A Psi(z f) dx.

The integrand is constant on fine enough cosets, so every integral here is a
finite sum of roots of unity.  The engine keeps everything as integer
histograms: counts N_r of residues r with z*f(x) = r / p^L (mod 1), plus an
exact rational volume scale.  A single complex evaluation, in ascending r,
turns a histogram into a number; everything before that step is exact and
order-independent, which is what makes parallel accumulation deterministic.

One dense engine builds every histogram: the common p-power of the
non-constant coefficients is factored out, so the counting modulus never
exceeds the grid side; each block of coupled variables is enumerated in numpy
slabs of at most _CHUNK points (in parallel when a block has several slabs) by
`poly_residues`, the one modular polynomial evaluator the package shares; and
block histograms combine by exact cyclic convolution.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DomainError,
    ResourceCapError,
)
from .newton import beta_and_t0, newton_facets, quasi_homogeneous_detect
from .padic import Ball, DEFAULT_ENUMERATION_CAP, PadicRational, split_p_part
from .polynomials import Exponents, SparsePolynomial, compose_affine

_CHUNK = 1 << 22


@dataclass
class ExpSumResult:
    """Exact root-of-unity histogram of an oscillatory ball integral.

    value = scale * sum_r N_r * exp(2 pi i r / p^level), accumulated in
    ascending r so results are bit-identical for any worker count.
    """

    prime: int
    level: int
    counts: dict[int, int]
    scale: Fraction
    _value: complex | None = field(default=None, repr=False)

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    @property
    def volume(self) -> Fraction:
        return self.scale * self.total_count

    @property
    def value(self) -> complex:
        if self._value is None:
            self._value = histogram_value(
                self.counts, self.level, self.prime, self.scale
            )
        return self._value


def histogram_value(
    counts: Mapping[int, int], level: int, p: int, scale: Fraction
) -> complex:
    """scale * sum N_r e(r / p^level), summed in ascending r."""
    if level == 0:
        return complex(float(scale) * sum(counts.values()))
    tau = 2.0 * math.pi / p**level
    total = 0j
    for r in sorted(counts):
        total += counts[r] * cmath.exp(1j * (tau * r))
    return float(scale) * total


def expsum_from_histogram(
    counts: Mapping[int, int], m: int, p: int, scale: Fraction, unit: int = 1
) -> ExpSumResult:
    """Reassemble E(unit * p^-m, f) from a level-m residue histogram of f."""
    modulus = p**m
    remapped: dict[int, int] = {}
    for c, n in counts.items():
        r = unit * c % modulus
        remapped[r] = remapped.get(r, 0) + n
    return ExpSumResult(p, m, remapped, scale)


# -- modular histogram core --------------------------------------------------


def _variable_blocks(terms: Mapping[Exponents, int], n: int) -> list[tuple[int, ...]]:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    used = set()
    for exps in terms:
        vs = [j for j, a in enumerate(exps) if a > 0]
        used.update(vs)
        for a, b in zip(vs, vs[1:]):
            parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for j in sorted(used):
        groups.setdefault(find(j), []).append(j)
    return [tuple(g) for g in groups.values()]


def _powmod_vector(base: np.ndarray | int, exp: int, modulus: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % modulus
    e = exp
    while e:
        if e & 1:
            result = result * b % modulus
        b = b * b % modulus
        e >>= 1
    return result


def poly_residues(
    terms: Iterable[tuple[Exponents, int]],
    coords: Sequence[np.ndarray | int],
    modulus: int,
) -> np.ndarray:
    """sum c * prod coords^a mod modulus, broadcast over the coordinates.

    Each coordinate is an int64 array or a Python int; with modulus <= 2^31
    every product of two reduced residues stays inside int64.
    """
    total = np.zeros(np.broadcast_shapes(*map(np.shape, coords)), dtype=np.int64)
    for exps, coeff in terms:
        term = coeff % modulus
        for x, a in zip(coords, exps):
            if a:
                term = term * _powmod_vector(x, a, modulus) % modulus
        total += term
        total %= modulus
    return total


def _block_counts(
    block: tuple[int, ...],
    terms: Mapping[Exponents, int],
    width: int,
    modulus: int,
    threads: int,
) -> np.ndarray:
    """Counts of the block's part of the polynomial over [0, width)^len(block).

    The fewest leading variables that leave at most _CHUNK points are fixed:
    all but the last of them are scalars, the last is walked in rows, and the
    rest are broadcast, so a slab never exceeds _CHUNK points.  Slabs run on
    `threads` workers when there are several; integer counts add exactly, so
    the order of slabs is immaterial.
    """
    local = [
        (tuple(exps[j] for j in block), coeff)
        for exps, coeff in terms.items()
        if any(exps[j] > 0 for j in block)
    ]
    free = len(block) - 1
    while free and width**free > _CHUNK:
        free -= 1
    rows = _CHUNK // width**free
    y = np.arange(width, dtype=np.int64)

    def slab_counts(task: tuple[tuple[int, ...], int]) -> np.ndarray:
        prefix, lo = task
        axes = np.ix_(y[lo : lo + rows], *[y] * free)
        vals = poly_residues(local, [*prefix, *axes], modulus)
        return np.bincount(vals.ravel(), minlength=modulus)

    tasks = [
        (prefix, lo)
        for prefix in product(range(width), repeat=len(block) - free - 1)
        for lo in range(0, width, rows)
    ]
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(slab_counts, tasks))
    return sum(map(slab_counts, tasks))


def _cyclic_convolve(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two integer count vectors."""
    n = len(h1)
    if n == 1:
        return np.array([int(h1[0]) * int(h2[0])], dtype=np.int64)
    approx = np.fft.irfft(np.fft.rfft(h1) * np.fft.rfft(h2), n)
    out = np.rint(approx).astype(np.int64)
    if abs(int(out.sum()) - int(h1.sum()) * int(h2.sum())) != 0 or np.max(
        np.abs(approx - out)
    ) > 0.25:
        full = np.convolve(h1, h2)
        out = full[:n].copy()
        out[: len(full) - n] += full[n:]
    return out


def _mod_histogram(
    terms: Mapping[Exponents, int],
    n: int,
    p: int,
    level: int,
    modulus: int,
    cap: int,
    threads: int,
) -> dict[int, int]:
    """Counts of H(y) mod modulus over y in [0, p^level)^n.

    The non-constant part is step * h with step = gcd(modulus, coefficients),
    so it is counted as h mod modulus // step, a modulus never above the grid
    side p^level for the integrands built here.  h splits over connected
    variable blocks; block histograms combine by exact cyclic convolution, and
    each residue r of h lands on const + step * r.
    """
    width = p**level
    const = sum(c for e, c in terms.items() if sum(e) == 0) % modulus
    nonconst = {e: c for e, c in terms.items() if sum(e) > 0}
    blocks = _variable_blocks(nonconst, n)
    unused = n - sum(len(b) for b in blocks)
    # The cap bounds the points actually visited: blocks decouple, so the
    # conceptual p^(n*level) enumeration costs only the sum of block grids.
    work = sum(width ** len(b) for b in blocks) if blocks else 1
    if work > cap or modulus > 8 * cap:
        raise ResourceCapError(max(work, modulus), cap)
    step = math.gcd(modulus, *nonconst.values())
    reduced = modulus // step
    if reduced > 1 << 31:  # products of two residues must stay inside int64
        raise ResourceCapError(reduced, 1 << 31, what="residue classes")
    h = {e: c // step for e, c in nonconst.items()}
    acc = np.ones(1, dtype=np.int64)  # h = 0 when every variable is unused
    for i, block in enumerate(blocks):
        block_counts = _block_counts(block, h, width, reduced, threads)
        acc = _cyclic_convolve(acc, block_counts) if i else block_counts
    support = np.flatnonzero(acc)
    residues = ((const + step * support) % modulus).tolist()
    counts = acc[support].tolist()
    if unused:
        counts = [c * width**unused for c in counts]
    return dict(zip(residues, counts))


# -- the ball character-sum engine -------------------------------------------


def character_sum(
    phase: Mapping[Exponents, Fraction] | SparsePolynomial,
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    extra_level: int = 0,
) -> ExpSumResult:
    """int_ball Psi(phase(x)) dx as an exact histogram.

    `phase` is a polynomial with coefficients in Z[1/p].  The substitution
    x = center + p^e y makes the integrand a function of y in Z_p^n that is
    constant on cosets mod p^M, with M read off the coefficient valuations;
    `extra_level` forces a finer (but equivalent) enumeration.
    """
    if isinstance(phase, SparsePolynomial):
        phase = phase.scale(1)
    p, n, e = ball.prime, ball.dim, ball.radius_exp
    step = Fraction(p) ** e
    g = compose_affine(phase, ball.center_fractions(), step)
    zero = (0,) * n
    g0 = g.get(zero, Fraction(0))
    vals = [split_p_part(c, p)[1] for exps, c in g.items() if sum(exps) > 0]
    w = min(vals) if vals else 0
    level = max(0, -w) + extra_level
    key_level = max(0, -w, -split_p_part(g0, p)[1] if g0 else 0)
    modulus = p**key_level
    scaled = {}
    for exps, c in g.items():
        ci = c * modulus
        if ci.denominator != 1:
            raise AssertionError("key level too small for coefficient valuations")
        scaled[exps] = int(ci)
    counts = _mod_histogram(scaled, n, p, level, modulus, cap, threads)
    scale = Fraction(1, p ** (n * (e + level))) if e + level >= 0 else Fraction(
        p ** (-n * (e + level))
    )
    return ExpSumResult(p, key_level, counts, scale)


def exp_sum(
    f: SparsePolynomial,
    z: PadicRational | Fraction | int,
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    extra_level: int = 0,
) -> ExpSumResult:
    """E_A(z, f) = int_A Psi(z f(x)) |dx| over the ball A.

    z = 0 is rejected: the value there is just vol(A).
    """
    if not isinstance(z, PadicRational):
        z = PadicRational(ball.prime, z)
    if z.prime != ball.prime:
        raise DomainError("prime mismatch between z and the ball")
    if z.is_zero:
        raise DomainError("z = 0 rejected: E_A(0, f) = vol(A)")
    if f.nvars != ball.dim:
        raise DomainError("polynomial arity does not match the ball dimension")
    return character_sum(
        f.scale(z.as_fraction()), ball, cap=cap, threads=threads, extra_level=extra_level
    )


def residue_histogram(
    f: SparsePolynomial,
    m: int,
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> dict[int, int]:
    """N_m(c) = #{x mod p^m in A : f(x) = c mod p^m}, exactly.

    Requires an integral ball.  sum_c N_m(c) = p^(n m) * vol(A), and
    E(unit * p^-m, f) is recoverable via `expsum_from_histogram`.
    """
    if m < 1:
        raise DomainError("level m must be >= 1")
    if not ball.is_integral():
        raise DomainError("residue histograms need a ball inside Z_p^n")
    p, n, e = ball.prime, ball.dim, ball.radius_exp
    g = compose_affine(f.scale(1), ball.center_fractions(), Fraction(p) ** e)
    terms = {exps: int(c) for exps, c in g.items()}
    return _mod_histogram(terms, n, p, max(0, m - e), p**m, cap, threads)


# -- stationary phase ---------------------------------------------------------


@dataclass(frozen=True)
class StationaryCertificate:
    """Exact I(f, A) with the Lemma-style vanishing threshold |z| > p^(2I+1)."""

    bound_exponent: int
    threshold: int
    verified_levels: tuple[int, ...]
    max_abs: float


def stationary_certificate(
    f: SparsePolynomial,
    ball: Ball,
    *,
    depth_cap: int = 12,
    m_max: int = 6,
    tol: float = 1e-9,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> StationaryCertificate:
    """Compute I(f, A) = sup_A min_i v(df/dx_i) by residue-class refinement
    and verify E_A(p^-m, f) = 0 for all m with p^m above the threshold.

    A must be a union of residue classes mod p (radius exponent 0 or 1,
    inside Z_p^n): that is the hypothesis under which the vanishing bound
    holds.  A critical point in A aborts with the offending class.
    """
    if f.is_constant():
        raise DomainError("polynomial is constant")
    if f.nvars != ball.dim:
        raise DomainError("polynomial arity does not match the ball dimension")
    if not ball.is_integral() or ball.radius_exp > 1:
        raise DomainError(
            "certificate requires a ball of radius exponent 0 or 1 inside Z_p^n"
        )
    p = ball.prime
    grad = f.gradient()
    start_level = max(0, ball.radius_exp)
    queue: deque[tuple[tuple[Fraction, ...], int]] = deque(
        [(ball.center_fractions(), start_level)]
    )
    bound: int | None = None
    while queue:
        center, k = queue.popleft()
        values = [g.evaluate(center) for g in grad]
        if all(v == 0 for v in values):
            raise CertificateUnavailableError((center, k))
        vmin = min(
            (split_p_part(Fraction(v), p)[1] for v in values if v != 0), default=None
        )
        if vmin is not None and vmin < k:
            bound = vmin if bound is None else max(bound, vmin)
            continue
        if k - start_level >= depth_cap:
            raise CertificateIndeterminate(
                f"gradient valuation did not stabilise within depth {depth_cap}"
            )
        stepk = Fraction(p) ** k
        for t in product(range(p), repeat=ball.dim):
            queue.append(
                (tuple(c + stepk * ti for c, ti in zip(center, t)), k + 1)
            )
    assert bound is not None
    threshold = p ** (2 * bound + 1)
    verified: list[int] = []
    worst = 0.0
    for m in range(2 * bound + 2, m_max + 1):
        result = exp_sum(f, Fraction(1, p**m), ball, cap=cap, threads=threads)
        worst = max(worst, abs(result.value))
        if abs(result.value) > tol:
            raise AssertionError(
                f"E_A vanishing failed at m={m}: |E| = {abs(result.value)}"
            )
        verified.append(m)
    return StationaryCertificate(bound, threshold, tuple(verified), worst)


# -- decay fits ----------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of -log_p |E(p^-m, f)| against m."""

    samples: tuple[tuple[int, float], ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    status: str  # "ok" | "superpolynomial"
    beta: Fraction | None
    quasi_homogeneous: bool
    consistent: bool | None


def fit_line(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    rss = sum((y - slope * x - intercept) ** 2 for x, y in points)
    return slope, intercept, math.sqrt(rss / n)


def decay_fit(
    f: SparsePolynomial,
    ball: Ball,
    m_range: Iterable[int],
    *,
    zero_tol: float = 1e-12,
    sharp_tolerance: float = 0.05,
    eps_margin: float = 0.1,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> DecayFit:
    """Fit the empirical decay exponent of |E(p^-m, f)| and compare it with
    the Newton-polyhedron exponent beta_f.

    Samples with |E| <= zero_tol are treated as exact zeros; if none remain
    the decay is reported as super-polynomial (stationary-phase regime).
    The consistency flag applies the sharp tolerance for quasi-homogeneous
    phases and the epsilon margin otherwise.
    """
    p = ball.prime
    samples = []
    for m in sorted(m_range):
        if m < 1:
            raise DomainError("m range must be >= 1")
        value = exp_sum(f, Fraction(1, p**m), ball, cap=cap, threads=threads).value
        samples.append((m, abs(value)))
    beta = None
    witness = None
    reduced = SparsePolynomial.from_terms(
        f.nvars, {e: c for e, c in f.terms if sum(e) > 0}
    )
    if not reduced.is_constant():
        beta, _ = beta_and_t0(newton_facets(reduced))
        witness = quasi_homogeneous_detect(reduced)
    usable = [(m, -math.log(a, p)) for m, a in samples if a > zero_tol]
    if len(usable) < 2:
        return DecayFit(
            tuple(samples), None, None, None, "superpolynomial", beta,
            witness is not None, None,
        )
    slope, intercept, residual = fit_line(usable)
    consistent = None
    if beta is not None:
        margin = sharp_tolerance if witness is not None else eps_margin
        consistent = slope >= float(beta) - margin
    return DecayFit(
        tuple(samples), slope, intercept, residual, "ok", beta,
        witness is not None, consistent,
    )
